"""Synthetic orthophoto + LiDAR scene generation for desk-scale testing.

Scenes are deterministic given the seed: a gray image with flat or two-tone
roofs and optional shadow patches, a classified point cloud with flat ground
noise, ground-truth footprints in pixel coordinates, and the meters-to-pixels
transform including a controllable misalignment offset.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .config import GROUND_CLASS, as_number
from .geometry import (
    GridSpec,
    _as_points,
    dominant_angle,
    points_in_polygon,
    polygon_centroid,
    rasterize_polygon,
)
from .lidar import PointCloud3D
from .transform import AffineTransform2D

__all__ = ["BuildingSpec", "ShadowSpec", "SceneSpec", "generate_scene", "quebec_like_spec"]

BUILDING_CLASS = 6
TERRAIN_NOISE_M = 0.3
MAX_SIDE_PX = 16384  # 10x the largest benchmark scene side (1536 px)


def _pair(name: str, value, integer: bool = False, bound: str | None = None) -> tuple:
    if np.ndim(value) != 1 or len(value) != 2:
        raise ValueError(f"{name} must hold two numbers, got {value!r}")
    return tuple(as_number(name, v, integer, bound) for v in value)


def _ring(name: str, points) -> np.ndarray:
    pts = _as_points(points, f"{name} coordinates")
    if len(pts) < 3:
        raise ValueError(f"{name} needs at least 3 vertices, got {len(pts)}")
    return pts


def _jsonable(pairs) -> dict:
    """`dataclasses.asdict` factory: arrays become lists."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in pairs}


@dataclass
class BuildingSpec:
    shape: str                      # rect | L | U | gabled
    footprint: np.ndarray           # (N, 2) meters
    gray: float | tuple[float, float]
    height: float

    def __post_init__(self):
        self.footprint = _ring("footprint", self.footprint)
        self.gray = as_number("gray", self.gray) if np.ndim(self.gray) == 0 else _pair("gray", self.gray)
        self.height = as_number("height", self.height)
        if self.shape == "gabled" and np.isscalar(self.gray):
            raise ValueError("gabled buildings need two gray tones")


@dataclass
class ShadowSpec:
    polygon: np.ndarray             # (N, 2) meters
    gray: float

    def __post_init__(self):
        self.polygon = _ring("polygon", self.polygon)
        self.gray = as_number("gray", self.gray)


@dataclass
class SceneSpec:
    size: tuple[int, int]           # (width, height) pixels
    resolution: float               # meters per pixel
    buildings: list[BuildingSpec]
    background_gray: float = 80.0
    noise_sigma: float = 0.0
    lidar_density: float = 2.0      # points per square meter
    misalignment: tuple[float, float] = (0.0, 0.0)
    seed: int = 0
    shadows: list[ShadowSpec] = field(default_factory=list)

    def __post_init__(self):
        self.size = _pair("size", self.size, integer=True, bound=">= 1")
        if max(self.size) > MAX_SIDE_PX:
            raise ValueError(f"size must be at most {MAX_SIDE_PX}, got {self.size!r}")
        self.misalignment = _pair("misalignment", self.misalignment)
        self.resolution = as_number("resolution", self.resolution, bound="> 0")
        self.background_gray = as_number("background_gray", self.background_gray)
        self.noise_sigma = as_number("noise_sigma", self.noise_sigma, bound=">= 0")
        self.lidar_density = as_number("lidar_density", self.lidar_density, bound="> 0")
        self.seed = as_number("seed", self.seed, integer=True, bound=">= 0")
        for name in ("buildings", "shadows"):
            if not isinstance(getattr(self, name), list):
                raise ValueError(f"{name} must be a list, got {getattr(self, name)!r}")
        self.buildings = [b if isinstance(b, BuildingSpec) else BuildingSpec(**b) for b in self.buildings]
        self.shadows = [s if isinstance(s, ShadowSpec) else ShadowSpec(**s) for s in self.shadows]
        w = self.size[0] * self.resolution
        h = self.size[1] * self.resolution
        for b in self.buildings:
            fp = b.footprint
            if fp[:, 0].min() < 0 or fp[:, 1].min() < 0 or fp[:, 0].max() > w or fp[:, 1].max() > h:
                raise ValueError("building footprint extends outside the scene")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self, dict_factory=_jsonable)

    @classmethod
    def from_dict(cls, d: dict) -> "SceneSpec":
        return cls(**d)

    @classmethod
    def from_json(cls, text: str) -> "SceneSpec":
        return cls.from_dict(json.loads(text))


def _render_roof(img: np.ndarray, mask: np.ndarray, b: BuildingSpec, res: float):
    if np.isscalar(b.gray):
        img[mask] = b.gray
        return
    # Two-tone gable: split along the ridge through the footprint centroid.
    ridge = np.deg2rad(dominant_angle(b.footprint))
    normal = np.array([-np.sin(ridge), np.cos(ridge)])
    cx, cy = polygon_centroid(b.footprint / res)
    rows, cols = np.nonzero(mask)
    side = (cols + 0.5 - cx) * normal[0] + (rows + 0.5 - cy) * normal[1]
    img[rows[side >= 0], cols[side >= 0]] = b.gray[0]
    img[rows[side < 0], cols[side < 0]] = b.gray[1]


def generate_scene(spec: SceneSpec):
    """Render a scene: (image, cloud, truth_polygons_px, transform)."""
    w, h = spec.size
    res = spec.resolution
    rng = np.random.default_rng(spec.seed)
    pixel_grid = GridSpec(origin=(0.0, 0.0), cell_size=1.0, width=w, height=h)

    img = np.full((h, w), spec.background_gray)
    for s in spec.shadows:
        img[rasterize_polygon(s.polygon / res, pixel_grid)] = s.gray
    truth = []
    for b in spec.buildings:
        fp_px = b.footprint / res
        mask = rasterize_polygon(fp_px, pixel_grid)
        _render_roof(img, mask, b, res)
        truth.append(fp_px)
    if spec.noise_sigma > 0:
        img = img + rng.normal(0.0, spec.noise_sigma, img.shape)
    img = np.clip(img, 0.0, 255.0)

    scene_w, scene_h = w * res, h * res
    n_points = int(round(spec.lidar_density * scene_w * scene_h))
    xy = np.column_stack(
        [rng.uniform(0.0, scene_w, n_points), rng.uniform(0.0, scene_h, n_points)]
    )
    z = rng.uniform(0.0, TERRAIN_NOISE_M, n_points)
    classes = np.full(n_points, GROUND_CLASS, dtype=int)
    for b in spec.buildings:
        inside = points_in_polygon(xy, b.footprint)
        z[inside] = b.height
        classes[inside] = BUILDING_CLASS
    cloud = PointCloud3D(np.column_stack([xy, z]), classes)

    t = AffineTransform2D(
        a=1.0 / res,
        b=0.0,
        c=0.0,
        d=1.0 / res,
        tx=spec.misalignment[0] / res,
        ty=spec.misalignment[1] / res,
    )
    return img, cloud, truth, t


def quebec_like_spec(seed: int = 7) -> SceneSpec:
    """Bundled 512x512, 0.15 m/px scene with five building archetypes.

    Typical mid-density survey conditions: 2 points/m^2 LiDAR over a 15 cm
    orthophoto with a 0.5 m registration residual. Includes a rectangle, an
    L, a U, a low-contrast roof beside dark pavement, and a two-tone gable.
    """
    buildings = [
        BuildingSpec(
            shape="rect",
            footprint=[(6.0, 8.0), (22.0, 8.0), (22.0, 19.0), (6.0, 19.0)],
            gray=170.0,
            height=6.0,
        ),
        BuildingSpec(
            shape="L",
            footprint=[
                (38.0, 6.0), (56.0, 6.0), (56.0, 13.0),
                (47.0, 13.0), (47.0, 20.0), (38.0, 20.0),
            ],
            gray=200.0,
            height=7.0,
        ),
        BuildingSpec(
            shape="U",
            footprint=[
                (4.0, 40.0), (24.0, 40.0), (24.0, 53.0), (18.0, 53.0),
                (18.0, 46.0), (10.0, 46.0), (10.0, 53.0), (4.0, 53.0),
            ],
            gray=190.0,
            height=5.5,
        ),
        BuildingSpec(
            shape="rect",
            footprint=[(36.0, 42.0), (50.0, 42.0), (50.0, 52.0), (36.0, 52.0)],
            gray=105.0,  # low contrast against the 80-gray background
            height=5.0,
        ),
        BuildingSpec(
            shape="gabled",
            footprint=[(56.0, 26.0), (72.0, 26.0), (72.0, 36.0), (56.0, 36.0)],
            gray=(160.0, 200.0),
            height=8.0,
        ),
    ]
    # Dark pavement strip beside the low-contrast building: a distractor
    # edge that an unconstrained snake drifts onto.
    shadows = [
        ShadowSpec(
            polygon=[(53.5, 40.0), (56.5, 40.0), (56.5, 54.0), (53.5, 54.0)],
            gray=30.0,
        )
    ]
    return SceneSpec(
        size=(512, 512),
        resolution=0.15,
        buildings=buildings,
        background_gray=80.0,
        noise_sigma=5.0,
        lidar_density=2.0,
        misalignment=(0.3, -0.4),
        seed=seed,
        shadows=shadows,
    )


PRESETS = {"quebec-like": quebec_like_spec}
