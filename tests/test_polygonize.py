from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import trim_mean

from buildsnake.geometry import GridSpec, OrientedRect, min_area_rect, rasterize_polygon, rotate_points
from buildsnake.polygonize import (
    LEVEL_LTZ,
    LEVEL_RECT,
    LEVEL_U,
    BuildingPolygon,
    _largest_rectangle,
    _snap,
    building_mbr,
    fit_rectilinear,
)
from buildsnake.snake import resample_closed

from test_geometry import mbr_area_sweep


def angle_error_mod90(a: float, b: float) -> float:
    d = abs(a - b) % 90.0
    return min(d, 90.0 - d)


def noisy_outline(polygon, n=160, noise=0.0, seed=0):
    pts = resample_closed(np.asarray(polygon, dtype=float), n)
    if noise > 0:
        rng = np.random.default_rng(seed)
        pts = pts + rng.uniform(-noise, noise, pts.shape)
    return pts


L_SHAPE = np.array([[0, 0], [36, 0], [36, 14], [16, 14], [16, 30], [0, 30]], dtype=float)
U_SHAPE = np.array(
    [[0, 0], [40, 0], [40, 28], [28, 28], [28, 10], [12, 10], [12, 28], [0, 28]],
    dtype=float,
)
RECT = np.array([[0, 0], [30, 0], [30, 20], [0, 20]], dtype=float)


# ---------------------------------------------------------------------------
# building_mbr


def test_mbr_of_rotated_rect_boundary():
    rect = building_mbr(rotate_points(RECT, 30.0))
    assert rect.angle_deg == pytest.approx(30.0, abs=1e-6)


def test_mbr_of_l_boundary_matches_sweep():
    pts = rotate_points(L_SHAPE, 20.0)
    rect = building_mbr(pts)
    assert rect.area <= mbr_area_sweep(pts) * 1.001
    assert angle_error_mod90(rect.angle_deg, 20.0) <= 0.1


def test_mbr_square_tie_canonical():
    sq = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)
    assert building_mbr(sq).angle_deg == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# fit_rectilinear: shape levels


def test_rect_snake_gives_rectangle_level():
    theta = 25.0
    snake = rotate_points(noisy_outline(RECT, 140), theta)
    mbr = min_area_rect(snake)
    result = fit_rectilinear(snake, mbr)
    assert result.shape_level == "rectangle"
    # Candidate region matches the snake region closely.
    from conftest import pixel_iou
    from buildsnake.geometry import GridSpec

    grid = GridSpec((-30.0, -30.0), 0.5, 180, 180)
    assert pixel_iou(result.polygon, snake, grid) >= 90.0


def test_l_snake_gives_ltz_level_and_orientation():
    theta = 23.0
    truth_angle = theta
    outline = noisy_outline(L_SHAPE, 180, noise=1.0, seed=4)
    snake = rotate_points(outline, theta)
    lidar_boundary = rotate_points(L_SHAPE, theta)
    result = fit_rectilinear(snake, building_mbr(lidar_boundary))
    assert result.shape_level == "LTZ"
    assert angle_error_mod90(result.orientation_deg, truth_angle) <= 1.0


def test_u_snake_gives_u_level():
    theta = 10.0
    snake = rotate_points(noisy_outline(U_SHAPE, 220, noise=0.5, seed=9), theta)
    result = fit_rectilinear(snake, building_mbr(rotate_points(U_SHAPE, theta)))
    assert result.shape_level == "U"


# ---------------------------------------------------------------------------
# invariants


def _edge_angles(poly):
    edges = np.roll(poly, -1, axis=0) - poly
    return np.degrees(np.arctan2(edges[:, 1], edges[:, 0])) % 180.0


@pytest.mark.parametrize("shape,theta", [(RECT, 40.0), (L_SHAPE, 77.0), (U_SHAPE, 5.0)])
def test_output_edges_rectilinear(shape, theta):
    snake = rotate_points(noisy_outline(shape, 200, noise=0.4, seed=2), theta)
    result = fit_rectilinear(snake, building_mbr(rotate_points(shape, theta)))
    angles = _edge_angles(result.polygon) % 90.0
    angles = np.minimum(angles, 90.0 - angles)
    base = result.orientation_deg % 90.0
    rel = np.abs(
        np.minimum((_edge_angles(result.polygon) - base) % 90.0,
                   90.0 - (_edge_angles(result.polygon) - base) % 90.0)
    )
    assert rel.max() <= 1e-6


def shoelace_area(polygon):
    x, y = np.asarray(polygon, dtype=float).T
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


@pytest.mark.parametrize("shape", [RECT, L_SHAPE, U_SHAPE])
def test_output_area_near_snake_area(shape):
    snake = noisy_outline(shape, 200, noise=0.3, seed=5)
    result = fit_rectilinear(snake, building_mbr(shape))
    ratio = shoelace_area(result.polygon) / shoelace_area(shape)
    assert 0.8 <= ratio <= 1.25


def test_orientation_equals_mbr_angle():
    snake = rotate_points(noisy_outline(RECT, 150), 33.0)
    mbr = building_mbr(rotate_points(RECT, 33.0))
    result = fit_rectilinear(snake, mbr)
    assert result.orientation_deg == mbr.angle_deg


def test_noisy_rect_orientation_within_one_degree():
    theta = 57.0
    snake = rotate_points(noisy_outline(RECT, 160, noise=1.0, seed=12), theta)
    lidar = rotate_points(RECT, theta)
    result = fit_rectilinear(snake, building_mbr(lidar))
    assert angle_error_mod90(result.orientation_deg, theta) <= 1.0


def test_snake_mbr_source_degrades_on_skewed_snake():
    # Shearing the snake fools an MBR computed from snake points; the
    # LiDAR-derived MBR is unaffected.
    theta = 15.0
    outline = noisy_outline(L_SHAPE, 180, noise=0.3, seed=3)
    # Vertical shear tilts the long horizontal edges by ~6.8 degrees.
    sheared = outline @ np.array([[1.0, 0.12], [0.0, 1.0]])
    snake = rotate_points(sheared, theta)
    lidar = rotate_points(L_SHAPE, theta)

    good = fit_rectilinear(snake, building_mbr(lidar))
    bad = fit_rectilinear(snake, building_mbr(snake))
    assert angle_error_mod90(good.orientation_deg, theta) <= 1.0
    assert angle_error_mod90(bad.orientation_deg, theta) >= 2.0


def test_degenerate_snake_rejected():
    line = np.column_stack([np.linspace(0, 10, 20), np.zeros(20)])
    with pytest.raises(ValueError):
        fit_rectilinear(line, min_area_rect(np.array([[0, 0], [10, 0], [5, 1e-6]])))


# ---------------------------------------------------------------------------
# fit_rectilinear against the reference (per-placement) implementation


def _snap_coord(values: np.ndarray, fallback: float) -> float:
    """25%-trimmed mean of supporting snake coordinates, if enough support."""
    if len(values) >= 4:
        return float(trim_mean(values, 0.25))
    if len(values) >= 1:
        return float(values.mean())
    return fallback


def _snap_vertical(pts, x_raw, y_lo, y_hi, band):
    sel = (np.abs(pts[:, 0] - x_raw) <= band) & (pts[:, 1] >= y_lo - band) & (pts[:, 1] <= y_hi + band)
    return _snap_coord(pts[sel, 0], x_raw)


def _snap_horizontal(pts, y_raw, x_lo, x_hi, band):
    sel = (np.abs(pts[:, 1] - y_raw) <= band) & (pts[:, 0] >= x_lo - band) & (pts[:, 0] <= x_hi + band)
    return _snap_coord(pts[sel, 1], y_raw)


def _corner_notch_polygon(box, notch):
    """Box minus a notch rectangle that shares one box corner (L shape)."""
    minx, maxx, miny, maxy = box
    nx0, nx1, ny0, ny1 = notch
    left = nx0 <= minx
    bottom = ny0 <= miny
    if left and bottom:
        return np.array([(nx1, miny), (maxx, miny), (maxx, maxy), (minx, maxy), (minx, ny1), (nx1, ny1)])
    if not left and bottom:
        return np.array([(minx, miny), (nx0, miny), (nx0, ny1), (maxx, ny1), (maxx, maxy), (minx, maxy)])
    if left and not bottom:
        return np.array([(minx, miny), (maxx, miny), (maxx, maxy), (nx1, maxy), (nx1, ny0), (minx, ny0)])
    return np.array([(minx, miny), (maxx, miny), (maxx, ny0), (nx0, ny0), (nx0, maxy), (minx, maxy)])


def _edge_notch_polygon(box, notch, side):
    """Box minus a notch open on exactly one box side (U shape)."""
    minx, maxx, miny, maxy = box
    nx0, nx1, ny0, ny1 = notch
    if side == "top":
        return np.array(
            [(minx, miny), (maxx, miny), (maxx, maxy), (nx1, maxy), (nx1, ny0), (nx0, ny0), (nx0, maxy), (minx, maxy)]
        )
    if side == "bottom":
        return np.array(
            [(minx, miny), (nx0, miny), (nx0, ny1), (nx1, ny1), (nx1, miny), (maxx, miny), (maxx, maxy), (minx, maxy)]
        )
    if side == "right":
        return np.array(
            [(minx, miny), (maxx, miny), (maxx, ny0), (nx0, ny0), (nx0, ny1), (maxx, ny1), (maxx, maxy), (minx, maxy)]
        )
    return np.array(
        [(minx, miny), (maxx, miny), (maxx, maxy), (minx, maxy), (minx, ny1), (nx1, ny1), (nx1, ny0), (minx, ny0)]
    )


def reference_fit_rectilinear(
    snake: np.ndarray,
    mbr: OrientedRect,
    sym_diff_tol: float = 0.10,
    cell: float = 1.0,
) -> BuildingPolygon:
    """The per-corner and per-side notch fit that `fit_rectilinear` replaced.

    Kept as the oracle: `fit_rectilinear` must return the same polygon
    bytes, level and angle.
    """
    pts = np.asarray(getattr(snake, "pixels", snake), dtype=float)
    theta = mbr.angle_deg
    center = np.asarray(mbr.center)
    local = rotate_points(pts, -theta, center)
    minx, miny = local.min(axis=0)
    maxx, maxy = local.max(axis=0)
    box = (minx, maxx, miny, maxy)

    grid = GridSpec(
        origin=(minx - cell, miny - cell),
        cell_size=cell,
        width=int(np.ceil((maxx - minx) / cell)) + 2,
        height=int(np.ceil((maxy - miny) / cell)) + 2,
    )
    region = rasterize_polygon(local, grid)
    region_area = region.sum() * cell * cell
    if region_area == 0:
        raise ValueError("snake region rasterizes to zero area")

    xc, yc = grid.x_centers(), grid.y_centers()
    box_mask = ((xc >= minx) & (xc <= maxx))[None, :] & ((yc >= miny) & (yc <= maxy))[:, None]
    cols = np.flatnonzero(box_mask.any(axis=0))
    rows = np.flatnonzero(box_mask.any(axis=1))
    cb0, cb1 = int(cols[0]), int(cols[-1])
    rb0, rb1 = int(rows[0]), int(rows[-1])

    def symdiff_ratio(candidate: np.ndarray) -> float:
        cand_mask = rasterize_polygon(candidate, grid)
        return float((cand_mask ^ region).sum() * cell * cell / region_area)

    rect_poly = np.array([(minx, miny), (maxx, miny), (maxx, maxy), (minx, maxy)])
    candidates: list[tuple[str, np.ndarray, float]] = [(LEVEL_RECT, rect_poly, symdiff_ratio(rect_poly))]

    deficit = box_mask & ~region
    area_px, r0, r1, c0, c1 = _largest_rectangle(deficit)
    if area_px > 0:
        ox, oy = grid.origin
        touches = {
            "left": c0 <= cb0,
            "right": c1 - 1 >= cb1,
            "bottom": r0 <= rb0,
            "top": r1 - 1 >= rb1,
        }
        n_touch = sum(touches.values())
        nx0, nx1 = ox + c0 * cell, ox + c1 * cell
        ny0, ny1 = oy + r0 * cell, oy + r1 * cell
        band = 2.0 * cell
        lo_x, hi_x = minx + cell, maxx - cell
        lo_y, hi_y = miny + cell, maxy - cell

        notch_poly = None
        level = None
        if n_touch == 2 and not (
            (touches["left"] and touches["right"]) or (touches["top"] and touches["bottom"])
        ):
            # Corner notch: snap the two interior edges.
            if touches["left"]:
                nx0 = minx
                nx1 = np.clip(_snap_vertical(local, nx1, ny0, ny1, band), lo_x, hi_x)
            else:
                nx1 = maxx
                nx0 = np.clip(_snap_vertical(local, nx0, ny0, ny1, band), lo_x, hi_x)
            if touches["bottom"]:
                ny0 = miny
                ny1 = np.clip(_snap_horizontal(local, ny1, nx0, nx1, band), lo_y, hi_y)
            else:
                ny1 = maxy
                ny0 = np.clip(_snap_horizontal(local, ny0, nx0, nx1, band), lo_y, hi_y)
            notch_poly = _corner_notch_polygon(box, (nx0, nx1, ny0, ny1))
            level = LEVEL_LTZ
        elif n_touch == 1:
            # Mid-edge notch: snap two side walls plus the floor.
            side = next(s for s, t in touches.items() if t)
            if side in ("top", "bottom"):
                nx0 = np.clip(_snap_vertical(local, nx0, ny0, ny1, band), lo_x, hi_x)
                nx1 = np.clip(_snap_vertical(local, nx1, ny0, ny1, band), lo_x, hi_x)
                if side == "top":
                    ny1 = maxy
                    ny0 = np.clip(_snap_horizontal(local, ny0, nx0, nx1, band), lo_y, hi_y)
                else:
                    ny0 = miny
                    ny1 = np.clip(_snap_horizontal(local, ny1, nx0, nx1, band), lo_y, hi_y)
                valid = nx1 - nx0 > cell
            else:
                ny0 = np.clip(_snap_horizontal(local, ny0, nx0, nx1, band), lo_y, hi_y)
                ny1 = np.clip(_snap_horizontal(local, ny1, nx0, nx1, band), lo_y, hi_y)
                if side == "right":
                    nx1 = maxx
                    nx0 = np.clip(_snap_vertical(local, nx0, ny0, ny1, band), lo_x, hi_x)
                else:
                    nx0 = minx
                    nx1 = np.clip(_snap_vertical(local, nx1, ny0, ny1, band), lo_x, hi_x)
                valid = ny1 - ny0 > cell
            if valid:
                notch_poly = _edge_notch_polygon(box, (nx0, nx1, ny0, ny1), side)
                level = LEVEL_U

        if notch_poly is not None:
            candidates.append((level, notch_poly, symdiff_ratio(notch_poly)))

    chosen = None
    for level, poly, ratio in candidates:  # ordered lowest level first
        if ratio <= sym_diff_tol:
            chosen = (level, poly)
            break
    if chosen is None:
        level, poly, _ = min(candidates, key=lambda c: c[2])
        chosen = (level, poly)

    world = rotate_points(chosen[1], theta, center)
    return BuildingPolygon(polygon=world, shape_level=chosen[0], orientation_deg=theta)


def _mirror(shape, flip_x=False, flip_y=False, transpose=False):
    pts = shape[:, ::-1] if transpose else shape.copy()
    if flip_x:
        pts[:, 0] = -pts[:, 0]
    if flip_y:
        pts[:, 1] = -pts[:, 1]
    return pts


# L_SHAPE's notch is at the top-right corner and U_SHAPE's opens on the top
# side; mirrors and a transpose give the other three corners and sides.
NOTCH_PLACEMENTS = {
    "corner-top-right": _mirror(L_SHAPE),
    "corner-top-left": _mirror(L_SHAPE, flip_x=True),
    "corner-bottom-right": _mirror(L_SHAPE, flip_y=True),
    "corner-bottom-left": _mirror(L_SHAPE, flip_x=True, flip_y=True),
    "edge-top": _mirror(U_SHAPE),
    "edge-bottom": _mirror(U_SHAPE, flip_y=True),
    "edge-right": _mirror(U_SHAPE, transpose=True),
    "edge-left": _mirror(U_SHAPE, flip_x=True, transpose=True),
    "rect": RECT,
    "T": np.array([[0, 0], [12, 0], [12, 20], [24, 20], [24, 30], [-12, 30], [-12, 20], [0, 20]], dtype=float),
}


def _same_fit(snake, mbr, tol):
    got = fit_rectilinear(snake, mbr, sym_diff_tol=tol)
    want = reference_fit_rectilinear(snake, mbr, sym_diff_tol=tol)
    assert got.polygon.tobytes() == want.polygon.tobytes()
    assert got.polygon.shape == want.polygon.shape
    assert got.shape_level == want.shape_level
    assert got.orientation_deg == want.orientation_deg
    return got


@pytest.mark.parametrize("tol", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("name", sorted(NOTCH_PLACEMENTS))
def test_fit_matches_reference(name, tol):
    shape = NOTCH_PLACEMENTS[name]
    levels = set()
    for theta in (0.0, 17.0, 63.0):
        for noise, seed in ((0.0, 0), (0.5, 1), (1.0, 4), (1.5, 2), (2.0, 5)):
            for scale, offset in ((1.0, (0.0, 0.0)), (2.3, (-310.7, 95.2)), (0.6, (3.3, 7.1))):
                outline = rotate_points(noisy_outline(shape * scale, 180, noise=noise, seed=seed), theta) + offset
                mbr = building_mbr(rotate_points(shape * scale, theta) + offset)
                levels.add(_same_fit(outline, mbr, tol).shape_level)
    # The notch branch is taken for every non-rectangular placement.
    if name != "rect" and tol < 0.3:
        assert levels - {LEVEL_RECT}


def test_fit_matches_reference_on_random_blobs():
    rng = np.random.default_rng(20)
    for _ in range(60):
        n = int(rng.integers(8, 40))
        angles = np.sort(rng.uniform(0, 2 * np.pi, n))
        radii = rng.uniform(5, 40) * rng.uniform(0.4, 1.0, n)
        blob = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)]) + rng.uniform(-200, 200, 2)
        mbr = building_mbr(blob if rng.random() < 0.5 else rng.permutation(blob)[: max(3, n // 2)])
        _same_fit(blob, mbr, float(rng.choice([0.0, 0.1, 0.3])))


def test_one_pixel_slot_gives_no_u_candidate():
    # The slot's walls snap to within one pixel of each other, which is too
    # narrow for a U, so the rectangle is the only candidate.
    slot = np.array([[0, 0], [40, 0], [40, 28], [21, 28], [21, 16], [20, 16], [20, 28], [0, 28]], dtype=float)
    assert _same_fit(noisy_outline(slot, 200), building_mbr(slot), 0.0).shape_level == LEVEL_RECT


def test_notch_level_follows_touched_sides():
    # A T's largest deficit is one of its two corner notches.
    for name, shape in NOTCH_PLACEMENTS.items():
        result = fit_rectilinear(noisy_outline(shape, 200), building_mbr(shape), sym_diff_tol=0.05)
        want = LEVEL_U if name.startswith("edge") else LEVEL_RECT if name == "rect" else LEVEL_LTZ
        assert result.shape_level == want, name


def largest_rectangle_brute_force(mask):
    h, w = mask.shape
    best = 0
    for r0 in range(h):
        for r1 in range(r0 + 1, h + 1):
            for c0 in range(w):
                for c1 in range(c0 + 1, w + 1):
                    if mask[r0:r1, c0:c1].all():
                        best = max(best, (r1 - r0) * (c1 - c0))
    return best


def _random_masks():
    rng = np.random.default_rng(3)
    yield np.ones((1, 1), dtype=bool)
    yield np.zeros((1, 1), dtype=bool)
    yield np.zeros((5, 7), dtype=bool)
    yield np.ones((6, 4), dtype=bool)
    for shape in ((1, 9), (9, 1)):
        for density in (0.3, 0.7):
            yield rng.random(shape) < density
    for density in (0.2, 0.4, 0.6, 0.8, 0.9):
        for shape in ((4, 4), (7, 11), (12, 5)):
            yield rng.random(shape) < density


def test_largest_rectangle_matches_brute_force():
    for mask in _random_masks():
        area, r0, r1, c0, c1 = _largest_rectangle(mask)
        assert area == largest_rectangle_brute_force(mask)
        if area:
            assert (r1 - r0) * (c1 - c0) == area
            assert mask[r0:r1, c0:c1].all()


def test_snap_trimmed_mean_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(5)
    for n in list(range(4, 40)) + [57, 100, 233, 400]:
        v = rng.normal(50.0, 20.0, n)
        if n % 3 == 0:
            v = np.round(v / 7.0) * 7.0  # many ties
        pts = np.column_stack([v, np.zeros(n)])
        got = _snap(pts, 0, 50.0, 0.0, 0.0, band=np.inf)
        assert np.float64(got).tobytes() == np.float64(trim_mean(v, 0.25)).tobytes()
        got_y = _snap(pts[:, ::-1], 1, 50.0, 0.0, 0.0, band=np.inf)
        assert got_y == got

