"""Regularize converged snake contours into rectilinear building polygons.

Shape levels: plain rectangle, L/T/Z (one corner notch), U (one mid-edge
notch). Orientation comes from the MBR of the projected LiDAR boundary, not
from the snake itself, which keeps it robust to snake outliers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SnakeConfig
from .geometry import (
    GridSpec,
    OrientedRect,
    min_area_rect,
    rasterize_polygon,
    rotate_points,
)

__all__ = ["BuildingPolygon", "building_mbr", "fit_rectilinear"]

LEVEL_RECT = "rectangle"
LEVEL_LTZ = "LTZ"
LEVEL_U = "U"


@dataclass
class BuildingPolygon:
    """Rectilinear footprint; every edge parallel or perpendicular to orientation."""

    polygon: np.ndarray
    shape_level: str
    orientation_deg: float


def building_mbr(init: np.ndarray) -> OrientedRect:
    """Minimum bounding rectangle of the (M, 2) projected LiDAR boundary points."""
    return min_area_rect(init)


def _largest_rectangle(mask: np.ndarray) -> tuple[int, int, int, int, int]:
    """Largest all-true axis-aligned rectangle: (area, r0, r1, c0, c1) half-open.

    Of the rectangles of the largest area, the one with the smallest r1 wins,
    then the smallest c1, then the largest c0; (0, 0, 0, 0, 0) if no cell is
    true. That is the first one the row-by-row histogram stack pops.

    The column heights of every row (how many true cells end there) are
    built at once. The stack then runs over each row's runs of true cells
    only: a zero height empties it, so a run starts on an empty stack and its
    first false cell closes it as the zero sentinel would.
    """
    heights = np.cumsum(mask, axis=0, dtype=np.int32)
    below = np.where(mask, 0, heights)  # true cells counted up to each column's last false one
    np.maximum.accumulate(below, axis=0, out=below)
    heights -= below
    # Each run of true cells [a, b) of row r starts and ends on a change along the row.
    rows, cols = np.nonzero(np.diff(mask, axis=1, prepend=False, append=False))
    best = (0, 0, 0, 0, 0)
    for r, a, b in zip(rows[0::2].tolist(), cols[0::2].tolist(), cols[1::2].tolist()):
        stack: list[tuple[int, int]] = []
        for c, cur in enumerate(heights[r, a:b].tolist() + [0], a):
            start = c
            while stack and stack[-1][1] >= cur:
                sc, sh = stack.pop()
                area = sh * (c - sc)
                if area > best[0]:
                    best = (area, r - sh + 1, r + 1, sc, c)
                start = sc
            if cur > 0 and (not stack or stack[-1][1] < cur):
                stack.append((start, cur))
    return best


def _snap(pts: np.ndarray, axis: int, raw: float, lo: float, hi: float, band: float) -> float:
    """Snap a notch side at `raw` on `axis` to the snake points beside it.

    The support is every point within `band` of `raw` on `axis` and of
    [lo, hi] on the other axis. The side moves to their 25 %-trimmed mean
    (the mean of fewer than 4 points; `raw` when there are none).
    """
    across = pts[:, 1 - axis]
    v = pts[(np.abs(pts[:, axis] - raw) <= band) & (across >= lo - band) & (across <= hi + band), axis]
    n = len(v)
    if n >= 4:
        k = int(0.25 * n)
        return float(np.partition(v, (k, n - k - 1))[k : n - k].mean())
    return float(v.mean()) if n else raw


def _corners(spans) -> list[tuple[float, float]]:
    """Corners of the rectangle ((x0, x1), (y0, y1)), counter-clockwise from (x0, y0)."""
    (x0, x1), (y0, y1) = spans
    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]


# The box side a notch opens on, as (axis, end) -> s: side s runs from
# corner s to corner s + 1 of `_corners` (bottom, right, top, left).
_SIDES = {(1, 0): 0, (0, 1): 1, (1, 1): 2, (0, 0): 3}
# Touched box sides per axis -> level: one on each axis is a corner notch.
_NOTCH_LEVEL = {(1, 1): LEVEL_LTZ, (1, 0): LEVEL_U, (0, 1): LEVEL_U}


def _notched_box(box, notch, side) -> np.ndarray:
    """Box minus a notch rectangle open on `side`, an (axis, end) pair.

    The notch's corners go in clockwise after the box corner that opens
    `side`. A box corner that a corner notch covers then appears twice, once
    from each rectangle, and both copies are dropped. The ring starts at its
    lowest, then leftmost vertex.
    """
    s = _SIDES[side]
    outer, inner = _corners(box), _corners(notch)
    ring = outer[: s + 1] + [inner[(s - i) % 4] for i in range(4)] + outer[s + 1 :]
    ring = [p for p in ring if ring.count(p) == 1]
    start = min(range(len(ring)), key=lambda i: (ring[i][1], ring[i][0]))
    return np.array(ring[start:] + ring[:start])


def fit_rectilinear(
    snake: np.ndarray, mbr: OrientedRect, sym_diff_tol: float = SnakeConfig.sym_diff_tol
) -> BuildingPolygon:
    """Fit the lowest rectilinear shape level matching the snake region.

    The snake is rotated into the MBR frame and rasterized on a 1-px grid.
    There are at most two candidates. The first is the frame-aligned
    bounding box (rectangle). The second is the box minus its largest
    rectangular deficit, with the deficit's free sides snapped to the snake.
    Its level comes from the box sides the deficit reaches: one low or high
    side on each axis gives L/T/Z, exactly one side gives U, and anything
    else gives no second candidate. The first candidate whose symmetric
    difference against the snake region is within sym_diff_tol of the region
    area wins; if none is, the one with the smallest ratio wins.
    """
    pts = np.asarray(snake, dtype=float)
    theta = mbr.angle_deg
    center = np.asarray(mbr.center)
    local = rotate_points(pts, -theta, center)
    box = tuple(zip(local.min(axis=0), local.max(axis=0)))  # ((minx, maxx), (miny, maxy))
    width, height = (int(np.ceil(hi - lo)) + 2 for lo, hi in box)
    grid = GridSpec(origin=tuple(lo - 1.0 for lo, _ in box), cell_size=1.0, width=width, height=height)
    region = rasterize_polygon(local, grid)
    region_area = region.sum()
    if region_area == 0:
        raise ValueError("snake region rasterizes to zero area")

    # Per axis, the grid cells whose centers lie in the box.
    in_box = [(c >= lo) & (c <= hi) for c, (lo, hi) in zip((grid.x_centers(), grid.y_centers()), box)]
    box_cells = [np.flatnonzero(m)[[0, -1]] for m in in_box]

    def symdiff_ratio(candidate: np.ndarray) -> float:
        return float((rasterize_polygon(candidate, grid) ^ region).sum() / region_area)

    rect_poly = np.array(_corners(box))
    candidates: list[tuple[str, np.ndarray, float]] = [(LEVEL_RECT, rect_poly, symdiff_ratio(rect_poly))]

    area_px, r0, r1, c0, c1 = _largest_rectangle((in_box[0][None, :] & in_box[1][:, None]) & ~region)
    cells = ((c0, c1), (r0, r1))
    touch = [(a <= first, b - 1 >= last) for (a, b), (first, last) in zip(cells, box_cells)]
    hits = tuple(int(sum(t)) for t in touch)
    level = _NOTCH_LEVEL.get(hits) if area_px > 0 else None
    if level is not None:
        notch = [[o + a, o + b] for o, (a, b) in zip(grid.origin, cells)]
        # The axis with no touched side (a U's walls) goes first, and x first
        # for a corner notch: each snap reads the other axis's current span.
        for axis in sorted((0, 1), key=lambda a: hits[a]):
            lo, hi = box[axis]
            for end in (0, 1):
                if touch[axis][end]:
                    notch[axis][end] = box[axis][end]
                else:
                    snapped = _snap(local, axis, notch[axis][end], *notch[1 - axis], band=2.0)
                    notch[axis][end] = np.clip(snapped, lo + 1, hi - 1)
        # A U's walls must stay more than one pixel apart.
        if all(hi - lo > 1 for (lo, hi), n in zip(notch, hits) if n == 0):
            side = next((a, e) for a in (0, 1) for e in (0, 1) if touch[a][e])
            poly = _notched_box(box, notch, side)
            candidates.append((level, poly, symdiff_ratio(poly)))

    # Candidates are ordered lowest level first.
    level, poly, _ = next((c for c in candidates if c[2] <= sym_diff_tol), min(candidates, key=lambda c: c[2]))
    world = rotate_points(poly, theta, center)
    return BuildingPolygon(polygon=world, shape_level=level, orientation_deg=theta)
