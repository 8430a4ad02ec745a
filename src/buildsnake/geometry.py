"""Planar geometric primitives shared across the pipeline.

Everything operates on plain (N, 2) float arrays of [x, y] coordinates.
Angles are degrees, canonicalized to [0, 180).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import as_number

__all__ = [
    "GridSpec",
    "OrientedRect",
    "convex_hull",
    "convex_hull_indices",
    "min_area_rect",
    "hausdorff_distance",
    "polygon_centroid",
    "polygon_is_simple",
    "points_in_polygon",
    "rasterize_polygon",
    "dominant_angle",
    "rotate_points",
    "polygon_perimeter",
    "polygon_to_wkt",
    "wkt_to_polygon",
]


@dataclass(frozen=True)
class GridSpec:
    """Raster frame: cell (row i, col j) covers [origin + (j, i)*cell, +cell)."""

    origin: tuple[float, float]
    cell_size: float
    width: int
    height: int

    def __post_init__(self):
        as_number("cell_size", self.cell_size, bound="> 0")

    def x_centers(self) -> np.ndarray:
        return self.origin[0] + (np.arange(self.width) + 0.5) * self.cell_size

    def y_centers(self) -> np.ndarray:
        return self.origin[1] + (np.arange(self.height) + 0.5) * self.cell_size

    def cell_index(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map (N, 2) coordinates to (row, col) cell indices (unclipped)."""
        xy = np.asarray(xy, dtype=float)
        col = np.floor((xy[:, 0] - self.origin[0]) / self.cell_size).astype(int)
        row = np.floor((xy[:, 1] - self.origin[1]) / self.cell_size).astype(int)
        return row, col


@dataclass(frozen=True)
class OrientedRect:
    """Rectangle with axes at angle_deg and angle_deg + 90, angle in [0, 90)."""

    center: tuple[float, float]
    half_width: float
    half_height: float
    angle_deg: float

    @property
    def area(self) -> float:
        return 4.0 * self.half_width * self.half_height

    def corners(self) -> np.ndarray:
        """Corner coordinates in CCW order, shape (4, 2)."""
        local = np.array(
            [
                [-self.half_width, -self.half_height],
                [self.half_width, -self.half_height],
                [self.half_width, self.half_height],
                [-self.half_width, self.half_height],
            ]
        )
        return rotate_points(local, self.angle_deg) + np.asarray(self.center)


def _as_points(points, name: str = "coordinates") -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"expected (N, 2) {name}, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError(f"{name} must be finite")
    return pts


def rotate_points(points, angle_deg: float, center=(0.0, 0.0)) -> np.ndarray:
    """Rotate points counter-clockwise by angle_deg about center."""
    pts = np.asarray(points, dtype=float)
    t = np.deg2rad(angle_deg)
    c, s = np.cos(t), np.sin(t)
    rot = np.array([[c, -s], [s, c]])
    ctr = np.asarray(center, dtype=float)
    return (pts - ctr) @ rot.T + ctr


def convex_hull_indices(points) -> np.ndarray:
    """Indices into `points` forming the convex hull, counter-clockwise.

    Andrew's monotone chain on the points sorted by (x, y), run on Python
    floats. Duplicates keep their first index in that order. Collinear
    points on the hull boundary are dropped. Raises ValueError when fewer
    than 3 points remain or all points are collinear.
    """
    pts = _as_points(points)
    if len(pts) < 3:
        raise ValueError("convex hull needs at least 3 points")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    # Equal points are neighbours once sorted: keep the first of each run.
    srt = pts[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (srt[1:] != srt[:-1]).any(axis=1)
    uniq = order[first]
    if len(uniq) < 3:
        raise ValueError("convex hull needs at least 3 distinct points")
    xy = srt[first].tolist()

    def half_hull(positions):
        chain: list[int] = []
        for k in positions:
            bx, by = xy[k]
            while len(chain) >= 2:
                (ox, oy), (ax, ay) = xy[chain[-2]], xy[chain[-1]]
                # Pop on a cross product <= 0; an overflow to NaN keeps the point.
                if not (ax - ox) * (by - oy) - (ay - oy) * (bx - ox) <= 0:
                    break
                chain.pop()
            chain.append(k)
        return chain

    lower = half_hull(range(len(xy)))
    upper = half_hull(reversed(range(len(xy))))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("points are collinear; convex hull is degenerate")
    return uniq[hull]


def convex_hull(points) -> np.ndarray:
    """Convex hull vertices in CCW order as an (H, 2) array."""
    pts = _as_points(points)
    return pts[convex_hull_indices(pts)]


def min_area_rect(points) -> OrientedRect:
    """Minimum-area enclosing rectangle via rotating calipers.

    One rectangle edge is collinear with a hull edge. Angle is reduced
    modulo 90 degrees; area ties are broken by the smaller angle.
    """
    pts = _as_points(points)
    hull = convex_hull(pts)
    edges = np.roll(hull, -1, axis=0) - hull
    angles = np.degrees(np.arctan2(edges[:, 1], edges[:, 0])) % 90.0
    best = None  # (area, angle, (minx, maxx, miny, maxy))
    angles.sort()
    for phi in angles[np.concatenate(([True], angles[1:] != angles[:-1]))]:
        rot = rotate_points(hull, -phi)
        minx, miny = rot.min(axis=0)
        maxx, maxy = rot.max(axis=0)
        area = (maxx - minx) * (maxy - miny)
        # Angles ascend, so an earlier best keeps a tie: it has the smaller angle.
        if best is None or area < best[0] - 1e-12 * max(best[0], 1.0):
            best = (area, float(phi), (minx, maxx, miny, maxy))
    area, phi, (minx, maxx, miny, maxy) = best
    center_local = np.array([(minx + maxx) / 2.0, (miny + maxy) / 2.0])
    center = rotate_points(center_local[None, :], phi)[0]
    return OrientedRect(
        center=(float(center[0]), float(center[1])),
        half_width=float((maxx - minx) / 2.0),
        half_height=float((maxy - miny) / 2.0),
        angle_deg=phi,
    )


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    dx = a[:, 0][:, None] - b[:, 0][None, :]
    dy = a[:, 1][:, None] - b[:, 1][None, :]
    return np.sqrt(dx * dx + dy * dy)


def hausdorff_distance(a, b) -> float:
    """Discrete point-set Hausdorff distance max(h(a,b), h(b,a))."""
    pa, pb = _as_points(a), _as_points(b)
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("Hausdorff distance of an empty set is undefined")
    d = _pairwise_distances(pa, pb)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def polygon_is_simple(polygon) -> bool:
    """True when no two non-adjacent edges properly cross or overlap."""
    pts = _as_points(polygon)
    n = len(pts)
    if n < 3:
        return False
    p1 = pts
    p2 = np.roll(pts, -1, axis=0)
    i, j = np.triu_indices(n, k=2)
    # Skip the wrap-around adjacency (first edge vs last edge).
    keep = ~((i == 0) & (j == n - 1))
    i, j = i[keep], j[keep]
    a1, a2 = p1[i], p2[i]
    b1, b2 = p1[j], p2[j]

    def cross2(u, v):
        return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

    d1 = cross2(b2 - b1, a1 - b1)
    d2 = cross2(b2 - b1, a2 - b1)
    d3 = cross2(a2 - a1, b1 - a1)
    d4 = cross2(a2 - a1, b2 - a1)
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)
    if proper.any():
        return False
    # Collinear overlap: all four orientations zero and bounding ranges meet.
    col = (d1 == 0) & (d2 == 0) & (d3 == 0) & (d4 == 0)
    if col.any():
        lo_a = np.minimum(a1[col], a2[col])
        hi_a = np.maximum(a1[col], a2[col])
        lo_b = np.minimum(b1[col], b2[col])
        hi_b = np.maximum(b1[col], b2[col])
        overlap = ((lo_a <= hi_b) & (lo_b <= hi_a)).all(axis=1)
        if overlap.any():
            return False
    return True


def polygon_centroid(polygon) -> tuple[float, float]:
    """Area-weighted centroid of a simple polygon with positive area."""
    pts = _as_points(polygon)
    if len(pts) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    if not polygon_is_simple(pts):
        raise ValueError("polygon is self-intersecting")
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    w = x * yn - xn * y
    a = float(np.sum(w) / 2.0)  # the signed area
    if abs(a) < 1e-12:
        raise ValueError("polygon has zero area")
    cx = float(np.sum((x + xn) * w) / (6.0 * a))
    cy = float(np.sum((y + yn) * w) / (6.0 * a))
    return (cx, cy)


def polygon_perimeter(polygon) -> float:
    pts = _as_points(polygon)
    return float(np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1).sum())


def points_in_polygon(points, polygon) -> np.ndarray:
    """Even-odd inclusion test for many points at once.

    Crossing convention is half-open in y and counts edge crossings
    strictly right of the query point, matching rasterize_polygon.
    """
    pts = _as_points(points)
    poly = _as_points(polygon)
    x1, y1 = poly[:, 0][None, :], poly[:, 1][None, :]
    x2 = np.roll(poly[:, 0], -1)[None, :]
    y2 = np.roll(poly[:, 1], -1)[None, :]
    px, py = pts[:, 0][:, None], pts[:, 1][:, None]
    spans = ((y1 <= py) & (py < y2)) | ((y2 <= py) & (py < y1))
    with np.errstate(divide="ignore", invalid="ignore"):
        xc = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
    crossings = np.sum(spans & (xc > px), axis=1)
    return (crossings % 2) == 1


def rasterize_polygon(polygon, grid: GridSpec) -> np.ndarray:
    """Scanline fill: a cell is set iff its center is inside (even-odd rule).

    Row i's crossings are the x where the edges spanning yc = y_centers[i]
    (half-open in y) cross it. Sorted by (row, x), they pair up 0-1, 2-3 and
    so on: an edge spans yc iff exactly one of its ends lies at or below yc,
    so a closed ring crosses every row an even number of times and the pairs
    never straddle rows. Each pair sets the centers in [left, right) through
    a +1/-1 difference array that a cumulative sum along the row fills in.
    """
    pts = _as_points(polygon)
    if len(pts) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    x1, y1 = pts[:, 0], pts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    nonflat = y1 != y2
    ex1, ey1, ex2, ey2 = x1[nonflat], y1[nonflat], x2[nonflat], y2[nonflat]
    yc = grid.y_centers()
    # Rows whose center lies in [min(ey1, ey2), max(ey1, ey2)), per edge.
    first = np.searchsorted(yc, np.minimum(ey1, ey2))
    count = np.searchsorted(yc, np.maximum(ey1, ey2)) - first
    edge = np.repeat(np.arange(len(ex1)), count)
    row = np.arange(len(edge)) - np.repeat(np.cumsum(count) - count - first, count)
    xc = ex1[edge] + (yc[row] - ey1[edge]) * (ex2[edge] - ex1[edge]) / (ey2[edge] - ey1[edge])
    order = np.lexsort((xc, row))
    row, xc = row[order[::2]], xc[order]
    # Pixel centers in [left, right): ox + (j + 0.5) * cs >= left, < right.
    cs, ox = grid.cell_size, grid.origin[0]
    j = np.clip(np.ceil((xc - ox) / cs - 0.5), 0, grid.width).astype(np.intp)
    j0, j1 = j[::2], j[1::2]
    run = j0 < j1
    # Runs of one row are disjoint and ordered, so no two share a start or an
    # end, and a run that starts where another ends cancels to 0 there.
    diff = np.zeros((grid.height, grid.width + 1), dtype=np.int8)
    diff[row[run], j0[run]] = 1
    diff[row[run], j1[run]] -= 1
    return np.cumsum(diff[:, :-1], axis=1, dtype=np.int8).view(bool)


def dominant_angle(polygon) -> float:
    """Orientation of the longest edge in degrees, reduced to [0, 180)."""
    pts = _as_points(polygon)
    if len(pts) < 2:
        raise ValueError("need at least 2 vertices")
    edges = np.roll(pts, -1, axis=0) - pts
    lengths = np.linalg.norm(edges, axis=1)
    if lengths.max() <= 0:
        raise ValueError("degenerate polygon: all vertices coincide")
    k = int(np.argmax(lengths))
    ang = np.degrees(np.arctan2(edges[k, 1], edges[k, 0])) % 180.0
    # Guard against -0.0 % 180.0 -> 180.0-epsilon style artifacts.
    return float(ang % 180.0)


def polygon_to_wkt(polygon) -> str:
    """Serialize as WKT `POLYGON((x y, ...))` with 6 decimal places."""
    pts = _as_points(polygon)
    ring = list(pts) + [pts[0]]
    coords = ", ".join(f"{p[0]:.6f} {p[1]:.6f}" for p in ring)
    return f"POLYGON(({coords}))"


def wkt_to_polygon(text: str) -> np.ndarray:
    """Parse the POLYGON WKT form produced by polygon_to_wkt."""
    s = text.strip()
    if not s.upper().startswith("POLYGON"):
        raise ValueError(f"not a POLYGON WKT string: {s[:40]!r}")
    inner = s[s.index("((") + 2 : s.rindex("))")]
    pts = []
    for pair in inner.split(","):
        x, y = pair.split()
        pts.append((float(x), float(y)))
    arr = np.asarray(pts, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("WKT coordinates must be finite")
    if len(arr) >= 2 and np.allclose(arr[0], arr[-1]):
        arr = arr[:-1]
    if len(arr) < 3:
        raise ValueError("polygon needs at least 3 vertices")
    return arr
