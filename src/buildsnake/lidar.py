"""Per-building boundary extraction from an airborne LiDAR point cloud.

Stages: ground separation by elevation threshold, vertical projection to an
occupancy grid, opening + labeling + area filter, then one grouping of the
points by segment label and each segment's planar convex hull in xy.
"""
from __future__ import annotations

import io
import itertools
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from .config import BOUNDS, SnakeConfig, as_number
from .geometry import GridSpec, convex_hull_indices
from .raster import connected_components, morphological_open

__all__ = [
    "PointCloud3D",
    "parse_xyz",
    "write_xyz",
    "separate_ground",
    "project_to_grid",
    "extract_building_segments",
    "extract_boundaries",
]

# Side of the square tiles whose lowest elevations stand in for ground
# points when a cloud has no class labels.
GROUND_TILE_M = 10.0


@dataclass
class PointCloud3D:
    """(N, 3) xyz in meters plus optional per-point class labels."""

    xyz: np.ndarray
    classes: np.ndarray | None = None

    def __post_init__(self):
        self.xyz = np.asarray(self.xyz, dtype=float).reshape(-1, 3)
        if not np.isfinite(self.xyz).all():
            raise ValueError("point coordinates must be finite")
        if self.classes is not None:
            self.classes = np.asarray(self.classes, dtype=int).reshape(-1)
            if len(self.classes) != len(self.xyz):
                raise ValueError("classes must cover every point")

    def __len__(self) -> int:
        return len(self.xyz)

    def subset(self, mask) -> "PointCloud3D":
        cls = self.classes[mask] if self.classes is not None else None
        return PointCloud3D(self.xyz[mask], cls)


def parse_xyz(source: str | TextIO) -> PointCloud3D:
    """Parse `x y z [class]` lines from text or from an open text file; '#' starts a comment.

    Lines end at LF, CRLF or CR, as in universal-newline mode; a file is read
    in place, with no copy of its whole text. The first data line sets the
    column count; numpy's text reader parses every line, with the classes as
    integers. A `line N:` error names the first bad line when the source can
    be read again (text, or a seekable file); a pipe gives numpy's message.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    head = []
    for line in source:
        head.append(line)
        if line.split("#", 1)[0].strip():
            break
    else:
        raise ValueError("point cloud file contains no points")
    has_class = len(head[-1].split("#", 1)[0].split()) == 4
    dtype = [("xyz", float, 3), ("cls", int)] if has_class else [("xyz", float, 3)]
    try:
        rows = np.loadtxt(itertools.chain(head, source), dtype=dtype, comments="#", ndmin=1)
    except ValueError as exc:
        if not source.seekable():
            raise
        source.seek(0)
        raise _line_error(source, has_class) or exc from None
    cls = np.ascontiguousarray(rows["cls"]) if has_class else None
    return PointCloud3D(np.ascontiguousarray(rows["xyz"]), cls)


def _line_error(lines: Iterable[str], has_class: bool) -> ValueError | None:
    """The error of the first data line that is not 'x y z', or 'x y z class'."""
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) not in (3, 4):
            return ValueError(f"line {lineno}: expected 'x y z [class]', got {line!r}")
        if has_class != (len(parts) == 4):
            return ValueError(f"line {lineno}: inconsistent column count")
        try:
            for p in parts[:3]:
                float(p)
            for p in parts[3:]:
                int(p)
        except ValueError as exc:
            return ValueError(f"line {lineno}: {exc}")
    return None


def write_xyz(cloud: PointCloud3D) -> str:
    lines = []
    for i, (x, y, z) in enumerate(cloud.xyz):
        coords = f"{float(x)!r} {float(y)!r} {float(z)!r}"
        if cloud.classes is not None:
            coords += f" {int(cloud.classes[i])}"
        lines.append(coords)
    return "\n".join(lines) + "\n"


def _ground_elevations_fallback(cloud: PointCloud3D) -> np.ndarray:
    """Lowest-decile elevations per `GROUND_TILE_M` tile, used when class labels are absent."""
    xyz = cloud.xyz
    col = np.floor((xyz[:, 0] - xyz[:, 0].min()) / GROUND_TILE_M).astype(int)
    row = np.floor((xyz[:, 1] - xyz[:, 1].min()) / GROUND_TILE_M).astype(int)
    key = row * (col.max() + 1) + col
    # A stable sort keeps each tile's points in cloud order, as a mask would.
    order = np.argsort(key, kind="stable")
    key_sorted = key[order]
    starts = np.flatnonzero(key_sorted[1:] != key_sorted[:-1]) + 1
    samples = []
    for z in np.split(xyz[order, 2], starts):
        z = np.sort(z)
        take = max(1, int(np.ceil(0.1 * len(z))))
        samples.append(z[:take])
    return np.concatenate(samples)


def separate_ground(
    cloud: PointCloud3D, ground_class: int = SnakeConfig.ground_class
) -> tuple[PointCloud3D, PointCloud3D]:
    """Split the cloud at T_e = mean(z_G) + max(2.5, std(z_G)).

    Ground statistics z_G come from ground-classified points when labels
    exist, otherwise from the lowest decile of elevations per `GROUND_TILE_M`
    tile. Points with z > T_e are non-ground.
    """
    if len(cloud) == 0:
        raise ValueError("cannot separate an empty cloud")
    if cloud.classes is not None:
        zg = cloud.xyz[cloud.classes == ground_class, 2]
        if len(zg) == 0:
            raise ValueError(f"no points with ground class {ground_class}")
    else:
        zg = _ground_elevations_fallback(cloud)
    te = float(zg.mean() + max(2.5, float(zg.std())))
    above = cloud.xyz[:, 2] > te
    return cloud.subset(~above), cloud.subset(above)


def project_to_grid(nonground: PointCloud3D, density: float) -> tuple[GridSpec, np.ndarray]:
    """The grid frame and the (H, W) bool occupancy of vertically projected points.

    cell_size = sqrt(2 / density): a roof cell holds two points in expectation
    and is empty with probability e^-2, so about 13.5 % of roof cells are holes.
    """
    as_number("density", density, bound=BOUNDS["density"])
    if len(nonground) == 0:
        raise ValueError("no non-ground points to project")
    cell = float(np.sqrt(2.0 / density))
    xy = nonground.xyz[:, :2]
    origin = (float(xy[:, 0].min()), float(xy[:, 1].min()))
    width = int(np.floor((xy[:, 0].max() - origin[0]) / cell)) + 1
    height = int(np.floor((xy[:, 1].max() - origin[1]) / cell)) + 1
    grid = GridSpec(origin, cell, width, height)
    cells = np.zeros((height, width), dtype=bool)
    cells[grid.cell_index(xy)] = True
    return grid, cells


def extract_building_segments(
    cells: np.ndarray,
    cell_size: float,
    opening_radius: int = SnakeConfig.opening_radius,
    min_area_m2: float = SnakeConfig.min_segment_area_m2,
    connectivity: int = SnakeConfig.connectivity,
) -> tuple[np.ndarray, int]:
    """Opened, labeled segments with small ones removed; labels compacted."""
    opened = morphological_open(cells, radius=opening_radius)
    labels, count = connected_components(opened, connectivity=connectivity)
    cell_area = cell_size**2
    sizes = np.bincount(labels.ravel(), minlength=count + 1)
    keep = np.flatnonzero(sizes[1:] * cell_area >= min_area_m2) + 1
    remap = np.zeros(count + 1, dtype=labels.dtype)
    remap[keep] = np.arange(1, len(keep) + 1)
    return remap[labels], len(keep)


def extract_boundaries(
    cloud: PointCloud3D,
    density: float | None = SnakeConfig.density,
    ground_class: int = SnakeConfig.ground_class,
    opening_radius: int = SnakeConfig.opening_radius,
    min_area_m2: float = SnakeConfig.min_segment_area_m2,
    connectivity: int = SnakeConfig.connectivity,
) -> tuple[list[tuple[int, np.ndarray]], np.ndarray | None, np.ndarray | None]:
    """Full LiDAR stage: ([(building_id, hull_xy), ...], cells, labels).

    Hulls come in building-id order. `density` (points/m²) defaults to the
    whole cloud's count over its planar bounding-box area, taken before
    ground separation. Returns ([], None, None) when there are no
    non-ground points, and ([], cells, labels) when no segment passes the
    area filter.

    After an opening of radius >= 1 every segment holds a plus of 5 cells,
    each with a point of its own. The points in the plus's column and those
    in its row cannot all lie on one line, so every segment has a hull of at
    least 3 vertices.
    """
    if density is None:
        xy = cloud.xyz[:, :2]
        extent = np.prod(xy.max(axis=0) - xy.min(axis=0))
        if extent <= 0:
            raise ValueError("cloud has zero planar extent")
        density = len(cloud) / float(extent)
    _, nonground = separate_ground(cloud, ground_class=ground_class)
    if len(nonground) == 0:
        return [], None, None
    grid, cells = project_to_grid(nonground, density)
    labels, _ = extract_building_segments(
        cells,
        grid.cell_size,
        opening_radius=opening_radius,
        min_area_m2=min_area_m2,
        connectivity=connectivity,
    )
    # Every non-ground point lies inside the grid it was projected onto. A
    # stable sort by segment label keeps each segment's points in cloud order.
    xy = nonground.xyz[:, :2]
    point_label = labels[grid.cell_index(xy)]
    order = np.argsort(point_label, kind="stable")
    sorted_label = point_label[order]
    starts = np.flatnonzero(sorted_label[1:] != sorted_label[:-1]) + 1
    ids = sorted_label[np.concatenate(([0], starts))].tolist()
    segments = zip(ids, np.split(xy[order], starts))
    hulls = [(bid, seg[convex_hull_indices(seg)]) for bid, seg in segments if bid]  # 0: background
    return hulls, cells, labels
