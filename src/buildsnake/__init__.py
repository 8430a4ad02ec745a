"""Building footprint extraction from orthophotos and airborne LiDAR.

A LiDAR-initialized, shape-constrained GVF active contour delineates each
building; footprints are then regularized into rectilinear polygons and
evaluated with pixel-based metrics.
"""

from .config import SnakeConfig
from .energy import GvfField, compute_gvf, image_energy
from .geometry import GridSpec, OrientedRect
from .lidar import PointCloud3D
from .polygonize import BuildingPolygon, fit_rectilinear
from .snake import run_snake, shape_force, shape_sim_energy
from .synthetic import SceneSpec, generate_scene
from .transform import AffineTransform2D, fit_least_squares

__version__ = "0.1.0"

__all__ = [
    "AffineTransform2D",
    "BuildingPolygon",
    "GridSpec",
    "GvfField",
    "OrientedRect",
    "PointCloud3D",
    "SceneSpec",
    "SnakeConfig",
    "compute_gvf",
    "fit_least_squares",
    "fit_rectilinear",
    "generate_scene",
    "image_energy",
    "run_snake",
    "shape_force",
    "shape_sim_energy",
    "__version__",
]
