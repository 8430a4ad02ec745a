from __future__ import annotations

import math

import numpy as np
import pytest

from buildsnake.geometry import (
    GridSpec,
    convex_hull,
    convex_hull_indices,
    dominant_angle,
    hausdorff_distance,
    min_area_rect,
    polygon_centroid,
    polygon_to_wkt,
    rasterize_polygon,
    rotate_points,
    wkt_to_polygon,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# Oracles


def point_in_polygon_oracle(p, poly) -> bool:
    """Independent crossing-number test (matches the raster convention)."""
    x, y = p
    inside = False
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        if (y1 <= y < y2) or (y2 <= y < y1):
            xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if xc > x:
                inside = not inside
    return inside


def hausdorff_oracle(a, b) -> float:
    """Exhaustive O(nm) double-max computation."""
    def directed(u, v):
        worst = 0.0
        for p in u:
            best = math.inf
            for q in v:
                dx, dy = p[0] - q[0], p[1] - q[1]
                best = min(best, math.sqrt(dx * dx + dy * dy))
            worst = max(worst, best)
        return worst

    return max(directed(a, b), directed(b, a))


def mbr_area_sweep(points, step_deg=0.01) -> float:
    """Minimum enclosing-rectangle area over a dense rotation sweep."""
    pts = np.asarray(points, dtype=float)
    ang = np.deg2rad(np.arange(0.0, 90.0, step_deg))
    c, s = np.cos(ang), np.sin(ang)
    rx = pts[:, 0][:, None] * c[None, :] + pts[:, 1][:, None] * s[None, :]
    ry = -pts[:, 0][:, None] * s[None, :] + pts[:, 1][:, None] * c[None, :]
    return float(np.min(np.ptp(rx, axis=0) * np.ptp(ry, axis=0)))


# ---------------------------------------------------------------------------
# convex_hull


def test_hull_excludes_interior_point():
    pts = np.vstack([UNIT_SQUARE, [0.5, 0.5]])
    hull = convex_hull(pts)
    assert len(hull) == 4
    assert {tuple(p) for p in hull} == {tuple(p) for p in UNIT_SQUARE}


def test_hull_of_triangle_is_itself():
    tri = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    hull = convex_hull(tri)
    assert {tuple(p) for p in hull} == {tuple(p) for p in tri}


def test_hull_contains_all_inputs_random_disk():
    rng = np.random.default_rng(11)
    r = np.sqrt(rng.uniform(0, 1, 100))
    th = rng.uniform(0, 2 * np.pi, 100)
    pts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    hull = convex_hull(pts)
    # Slightly grown hull must contain every input point (boundary-safe).
    center = hull.mean(axis=0)
    grown = center + (hull - center) * (1 + 1e-9)
    assert all(point_in_polygon_oracle(p, grown) for p in pts)


def test_hull_is_ccw_convex():
    rng = np.random.default_rng(5)
    pts = rng.normal(0, 10, (60, 2))
    hull = convex_hull(pts)
    n = len(hull)
    for i in range(n):
        o, a, b = hull[i], hull[(i + 1) % n], hull[(i + 2) % n]
        cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
        assert cross > 0


def test_hull_degenerate_inputs():
    with pytest.raises(ValueError):
        convex_hull([[0, 0], [1, 1]])
    with pytest.raises(ValueError):
        convex_hull([[0, 0], [1, 1], [2, 2], [3, 3]])


def _reference_cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def reference_convex_hull_indices(points) -> np.ndarray:
    """Monotone chain on numpy scalars, deduplicated by np.array_equal per point."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        raise ValueError("convex hull needs at least 3 points")
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    uniq: list[int] = []
    for idx in order:
        if not uniq or not np.array_equal(pts[idx], pts[uniq[-1]]):
            uniq.append(int(idx))
    if len(uniq) < 3:
        raise ValueError("convex hull needs at least 3 distinct points")

    def half_hull(indices):
        chain: list[int] = []
        for idx in indices:
            while len(chain) >= 2 and _reference_cross(pts[chain[-2]], pts[chain[-1]], pts[idx]) <= 0:
                chain.pop()
            chain.append(idx)
        return chain

    lower = half_hull(uniq)
    upper = half_hull(uniq[::-1])
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("points are collinear; convex hull is degenerate")
    return np.asarray(hull, dtype=int)


def _hull_case(rng, kind):
    if kind == "random-disk":
        return rng.normal(0, 5, (300, 2))
    if kind == "duplicates":
        pts = rng.integers(0, 6, (60, 2)).astype(float)
        return np.vstack([pts, pts[rng.permutation(60)[:25]]])
    if kind == "signed-zeros":
        pts = rng.choice([-0.0, 0.0, 1.0, -1.0], (40, 2))
        return np.vstack([pts, [[0.0, 2.0], [-0.0, 2.0], [-0.0, -0.0], [0.0, -0.0]]])
    if kind == "collinear-runs":
        t = np.arange(12.0)
        edges = [np.column_stack([t, 0 * t]), np.column_stack([11 + 0 * t, t]), np.column_stack([t, t])]
        return rng.permutation(np.vstack(edges))
    if kind == "integer-lattice":
        return np.stack(np.meshgrid(np.arange(-3, 5), np.arange(2, 9)), -1).reshape(-1, 2)
    if kind == "lattice-with-interior-duplicates":
        lattice = np.stack(np.meshgrid(np.arange(6.0), np.arange(4.0)), -1).reshape(-1, 2)
        return np.vstack([lattice, lattice[::3], [[2.5, 1.5]] * 3])
    if kind == "collinear":
        return np.repeat(np.column_stack([np.arange(8.0), 2 * np.arange(8.0)]), 2, axis=0)
    if kind == "two-distinct":
        return np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [-0.0, 0.0]])
    if kind == "overflow":
        return rng.uniform(-1, 1, (30, 2)) * 1e200
    raise ValueError(kind)


HULL_KINDS = [
    "random-disk",
    "duplicates",
    "signed-zeros",
    "collinear-runs",
    "integer-lattice",
    "lattice-with-interior-duplicates",
    "collinear",
    "two-distinct",
    "overflow",
]


@pytest.mark.parametrize("kind", HULL_KINDS)
def test_hull_indices_equal_monotone_chain_reference(kind):
    rng = np.random.default_rng(HULL_KINDS.index(kind))
    for _ in range(5):
        pts = _hull_case(rng, kind)
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                expected = reference_convex_hull_indices(pts)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                convex_hull_indices(pts)
            continue
        got = convex_hull_indices(pts)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# min_area_rect


def test_grid_cell_index_half_open_and_unclipped():
    grid = GridSpec(origin=(1.0, -2.0), cell_size=0.5, width=4, height=3)
    row, col = grid.cell_index(np.array([[1.0, -2.0], [1.49, -1.51], [1.5, -1.5], [0.9, 0.0]]))
    assert col.tolist() == [0, 0, 1, -1]
    assert row.tolist() == [0, 0, 1, 4]


def test_grid_rejects_non_positive_cell_size():
    for cell in (0.0, -1.0):
        with pytest.raises(ValueError, match="^cell_size must be "):
            GridSpec(origin=(0.0, 0.0), cell_size=cell, width=2, height=2)


def test_mbr_axis_aligned_square():
    rect = min_area_rect(UNIT_SQUARE)
    assert rect.angle_deg == pytest.approx(0.0, abs=1e-9)
    assert rect.area == pytest.approx(1.0, rel=1e-12)


def test_mbr_rotated_square_angle_and_area():
    sq30 = rotate_points(UNIT_SQUARE, 30.0)
    rect = min_area_rect(sq30)
    assert rect.angle_deg == pytest.approx(30.0, abs=1e-6)
    assert rect.area == pytest.approx(mbr_area_sweep(sq30), rel=1e-4)


def test_mbr_l_shape_area_matches_sweep():
    l_shape = rotate_points(
        np.array([[0, 0], [6, 0], [6, 2], [2, 2], [2, 5], [0, 5]], dtype=float), 17.0
    )
    rect = min_area_rect(l_shape)
    assert rect.area <= mbr_area_sweep(l_shape) * 1.005


def test_mbr_not_larger_than_aabb():
    rng = np.random.default_rng(3)
    for _ in range(20):
        pts = rng.normal(0, 5, (30, 2))
        rect = min_area_rect(pts)
        aabb = np.ptp(pts[:, 0]) * np.ptp(pts[:, 1])
        assert rect.area <= aabb + 1e-9


def test_mbr_corners_enclose_points():
    rng = np.random.default_rng(8)
    pts = rng.normal(0, 5, (40, 2))
    rect = min_area_rect(pts)
    grown_half_w = rect.half_width + 1e-9
    grown_half_h = rect.half_height + 1e-9
    local = rotate_points(pts - np.asarray(rect.center), -rect.angle_deg)
    assert (np.abs(local[:, 0]) <= grown_half_w).all()
    assert (np.abs(local[:, 1]) <= grown_half_h).all()


# ---------------------------------------------------------------------------
# hausdorff_distance


def test_hausdorff_identical_sets_zero():
    pts = np.array([[0.0, 0.0], [2.0, 1.0], [5.0, 5.0]])
    assert hausdorff_distance(pts, pts) == 0.0


def test_hausdorff_single_pair():
    assert hausdorff_distance([[0.0, 0.0]], [[3.0, 4.0]]) == 5.0


def test_hausdorff_matches_bruteforce_exactly():
    rng = np.random.default_rng(21)
    a = rng.uniform(-10, 10, (50, 2))
    b = rng.uniform(-10, 10, (50, 2))
    assert hausdorff_distance(a, b) == hausdorff_oracle(a, b)


def test_hausdorff_properties():
    rng = np.random.default_rng(9)
    for _ in range(20):
        a = rng.uniform(0, 10, (8, 2))
        b = rng.uniform(0, 10, (11, 2))
        c = rng.uniform(0, 10, (5, 2))
        dab = hausdorff_distance(a, b)
        assert dab == hausdorff_distance(b, a)
        assert dab <= hausdorff_distance(a, c) + hausdorff_distance(c, b) + 1e-12
    with pytest.raises(ValueError):
        hausdorff_distance(np.empty((0, 2)), np.array([[0.0, 0.0]]))


# ---------------------------------------------------------------------------
# polygon_centroid


def test_centroid_unit_square():
    assert polygon_centroid(UNIT_SQUARE) == pytest.approx((0.5, 0.5))


def test_centroid_translation_equivariance():
    poly = np.array([[0, 0], [4, 0], [4, 1], [1, 1], [1, 3], [0, 3]], dtype=float)
    cx, cy = polygon_centroid(poly)
    tx, ty = polygon_centroid(poly + np.array([10.0, -7.0]))
    assert (tx, ty) == pytest.approx((cx + 10.0, cy - 7.0))


def test_centroid_l_shape_decomposition_oracle():
    # L = [0,2]^2 minus [1,2]^2. Decomposition: bottom strip [0,2]x[0,1]
    # (area 2, centroid (1, 0.5)) plus top-left square [0,1]x[1,2]
    # (area 1, centroid (0.5, 1.5)) -> centroid (5/6, 5/6).
    l_shape = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)
    expected = ((2 * 1.0 + 1 * 0.5) / 3.0, (2 * 0.5 + 1 * 1.5) / 3.0)
    assert expected == (5 / 6, 5 / 6)
    assert polygon_centroid(l_shape) == pytest.approx(expected, rel=1e-12)


def test_centroid_zero_area_rejected():
    with pytest.raises(ValueError):
        polygon_centroid([[0, 0], [1, 1], [2, 2]])


# ---------------------------------------------------------------------------
# rasterize_polygon


def test_rasterize_aligned_square_exact():
    grid = GridSpec(origin=(0.0, 0.0), cell_size=1.0, width=12, height=12)
    mask = rasterize_polygon(np.array([[0, 0], [10, 0], [10, 10], [0, 10]], float), grid)
    assert mask.sum() == 100


def test_rasterize_shifted_square_matches_center_oracle():
    grid = GridSpec(origin=(0.0, 0.0), cell_size=1.0, width=14, height=14)
    sq = np.array([[0.5, 0.5], [10.5, 0.5], [10.5, 10.5], [0.5, 10.5]])
    mask = rasterize_polygon(sq, grid)
    assert 81 <= mask.sum() <= 121
    for i in range(grid.height):
        for j in range(grid.width):
            center = (j + 0.5, i + 0.5)
            assert mask[i, j] == point_in_polygon_oracle(center, sq)


def test_rasterize_triangle_area_converges():
    tri = np.array([[0.3, 0.2], [7.1, 0.9], [2.2, 6.3]])
    grid = GridSpec(origin=(0.0, 0.0), cell_size=0.05, width=160, height=140)
    mask = rasterize_polygon(tri, grid)
    area = 0.5 * abs(6.8 * 6.1 - 1.9 * 0.7)  # half the cross product of the edges from the first vertex
    assert mask.sum() * 0.05**2 == pytest.approx(area, rel=0.01)


def test_rasterize_outside_grid_is_empty():
    grid = GridSpec(origin=(0.0, 0.0), cell_size=1.0, width=4, height=4)
    mask = rasterize_polygon(np.array([[10, 10], [12, 10], [12, 12]], float), grid)
    assert mask.sum() == 0


def reference_rasterize_polygon(polygon, grid: GridSpec) -> np.ndarray:
    """Row-by-row scanline fill, the crossings of each row sorted and paired.

    The stop of each run is clamped at 0 too: a run wholly left of the grid
    (right crossing < column 0) would otherwise be a negative slice stop that
    counts from the row's end and fills most of the row.
    """
    pts = np.asarray(polygon, dtype=float)
    mask = np.zeros((grid.height, grid.width), dtype=bool)
    x1, y1 = pts[:, 0], pts[:, 1]
    x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
    nonflat = y1 != y2
    if not nonflat.any():
        return mask
    ex1, ey1, ex2, ey2 = x1[nonflat], y1[nonflat], x2[nonflat], y2[nonflat]
    cs = grid.cell_size
    ox = grid.origin[0]
    for i, yc in enumerate(grid.y_centers()):
        spans = ((ey1 <= yc) & (yc < ey2)) | ((ey2 <= yc) & (yc < ey1))
        if not spans.any():
            continue
        xc = ex1[spans] + (yc - ey1[spans]) * (ex2[spans] - ex1[spans]) / (ey2[spans] - ey1[spans])
        xc.sort()
        for k in range(0, len(xc) - 1, 2):
            j0 = int(np.ceil((xc[k] - ox) / cs - 0.5))
            j1 = int(np.ceil((xc[k + 1] - ox) / cs - 0.5))
            mask[i, max(j0, 0) : max(min(j1, grid.width), 0)] = True
    return mask


def _raster_case(rng, kind):
    """A grid and a polygon that may self-intersect and leave the grid."""
    w, h = (1, 1) if kind == "1x1" else rng.integers(1, 40, 2)
    cs = float(rng.choice([1.0, 0.37, 2.5]))
    origin = (float(rng.choice([0.0, -3.3, 7.1])), float(rng.choice([0.0, -3.3, 7.1])))
    grid = GridSpec(origin, cs, int(w), int(h))
    n = int(rng.integers(3, 15))
    lo = np.asarray(origin) - 5 * cs
    span = (np.array([w, h]) + 10) * cs
    if kind in ("random", "1x1"):
        poly = lo + rng.uniform(0, 1, (n, 2)) * span
    elif kind == "centre-rows":
        # Vertices on pixel-centre rows and columns, or on cell borders.
        poly = lo + (rng.integers(0, 50, (n, 2)) + rng.choice([0.0, 0.5], (n, 2))) * cs
    else:
        # Every other edge horizontal, vertices on half-cell steps.
        poly = lo + rng.integers(0, 100, (n, 2)) * cs * 0.5
        poly[1::2, 1] = poly[0:-1:2, 1]
    return grid, poly


@pytest.mark.parametrize("kind", ["random", "centre-rows", "horizontal", "1x1"])
def test_rasterize_equals_scanline_reference(kind):
    rng = np.random.default_rng(["random", "centre-rows", "horizontal", "1x1"].index(kind))
    for _ in range(400):
        grid, poly = _raster_case(rng, kind)
        expected = reference_rasterize_polygon(poly, grid)
        assert rasterize_polygon(poly, grid).tobytes() == expected.tobytes()


def test_rasterize_equals_scanline_reference_on_snake_contours():
    rng = np.random.default_rng(21)
    grid = GridSpec(origin=(0.0, 0.0), cell_size=1.0, width=300, height=200)
    for _ in range(5):
        t = np.sort(rng.uniform(0, 2 * np.pi, 150))
        r = 60 + rng.normal(0, 8, 150)
        poly = np.column_stack([150 + r * np.cos(t), 100 + 1.5 * r * np.sin(t)])
        expected = reference_rasterize_polygon(poly, grid)
        assert rasterize_polygon(poly, grid).tobytes() == expected.tobytes()


def test_rasterize_left_of_grid_is_empty():
    # Every crossing falls left of column 0.
    grid = GridSpec(origin=(0.0, 0.0), cell_size=1.0, width=10, height=3)
    mask = rasterize_polygon(np.array([[-10, 0], [-5, 0], [-5, 3], [-10, 3]], float), grid)
    assert mask.shape == (3, 10) and mask.dtype == bool
    assert not mask.any()


# ---------------------------------------------------------------------------
# dominant_angle


def test_dominant_angle_axis_rectangle():
    rect = np.array([[0, 0], [4, 0], [4, 2], [0, 2]], dtype=float)
    assert dominant_angle(rect) == pytest.approx(0.0, abs=1e-12)


def test_dominant_angle_rotation_equivariance():
    rect = np.array([[0, 0], [4, 0], [4, 2], [0, 2]], dtype=float)
    assert dominant_angle(rotate_points(rect, 37.0)) == pytest.approx(37.0, abs=1e-6)
    for theta in (10.0, 85.0, 133.0):
        expected = (dominant_angle(rect) + theta) % 180.0
        assert dominant_angle(rotate_points(rect, theta)) == pytest.approx(expected, abs=1e-6)


def test_dominant_angle_l_shape_vertical_longest():
    # Longest edge is the left vertical side (length 7).
    poly = np.array([[0, 0], [3, 0], [3, 2], [1, 2], [1, 7], [0, 7]], dtype=float)
    assert dominant_angle(poly) == pytest.approx(90.0, abs=1e-9)


def test_dominant_angle_degenerate():
    with pytest.raises(ValueError):
        dominant_angle(np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# WKT


def test_wkt_round_trip():
    poly = np.array([[0.125, -3.5], [10.0, 0.0], [4.25, 7.875]])
    text = polygon_to_wkt(poly)
    assert text.startswith("POLYGON((") and text.endswith("))")
    back = wkt_to_polygon(text)
    assert np.allclose(back, poly, atol=1e-6)


def test_wkt_rejects_garbage():
    with pytest.raises(ValueError):
        wkt_to_polygon("LINESTRING(0 0, 1 1)")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
def test_wkt_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="WKT coordinates must be finite"):
        wkt_to_polygon(f"POLYGON((0 0, 1 0, 1 {bad}, 0 1, 0 0))")
