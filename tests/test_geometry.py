from __future__ import annotations

import math

import numpy as np
import pytest

from buildsnake.geometry import (
    GridSpec,
    convex_hull,
    dominant_angle,
    hausdorff_distance,
    min_area_rect,
    polygon_area,
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


# ---------------------------------------------------------------------------
# min_area_rect


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
# polygon_area / polygon_centroid


def test_area_unit_square():
    assert polygon_area(UNIT_SQUARE) == 1.0


def test_area_right_triangle():
    assert polygon_area([[0, 0], [4, 0], [0, 3]]) == 6.0


def test_area_random_simple_polygon_vs_monte_carlo():
    rng = np.random.default_rng(13)
    # Star-shaped polygon: radial construction is simple by design.
    th = np.sort(rng.uniform(0, 2 * np.pi, 20))
    r = rng.uniform(2, 5, 20)
    poly = np.column_stack([r * np.cos(th), r * np.sin(th)])
    area = polygon_area(poly)
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    samples = rng.uniform(lo, hi, (1_000_000, 2))
    hits = sum(point_in_polygon_oracle(p, poly) for p in samples[:100_000])
    mc = hits / 100_000 * np.prod(hi - lo)
    assert area == pytest.approx(mc, rel=0.02)


def test_area_rejects_self_intersection():
    bowtie = np.array([[0, 0], [2, 2], [2, 0], [0, 2]], dtype=float)
    with pytest.raises(ValueError):
        polygon_area(bowtie)


def test_area_rigid_motion_invariance():
    rng = np.random.default_rng(17)
    th = np.sort(rng.uniform(0, 2 * np.pi, 12))
    poly = np.column_stack([3 * np.cos(th), 3 * np.sin(th)])
    a0 = polygon_area(poly)
    moved = rotate_points(poly, 37.0) + np.array([12.0, -7.0])
    assert polygon_area(moved) == pytest.approx(a0, rel=1e-9)


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
    assert mask.sum() * 0.05**2 == pytest.approx(polygon_area(tri), rel=0.01)


def test_rasterize_outside_grid_is_empty():
    grid = GridSpec(origin=(0.0, 0.0), cell_size=1.0, width=4, height=4)
    mask = rasterize_polygon(np.array([[10, 10], [12, 10], [12, 12]], float), grid)
    assert mask.sum() == 0


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
