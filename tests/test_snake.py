from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from buildsnake import cli
from buildsnake import snake as snake_module
from buildsnake.cli import extract_buildings
from buildsnake.config import SnakeConfig
from buildsnake.energy import compute_gvf, image_energy
from buildsnake.geometry import GridSpec, polygon_perimeter, rasterize_polygon
from buildsnake.synthetic import generate_scene, quebec_like_spec
from buildsnake.snake import (
    ForceField,
    _settled,
    force_magnitude,
    prepare_fields,
    evolve_step,
    resample_closed,
    run_snake,
    sample_force,
    ShapeReference,
    shape_force,
    shape_sim_energy,
    system_inverse,
)

from conftest import pixel_iou, traced_peak
from test_energy import ARRAY_BYTES, MEM_SHAPE, reference_gvf, reference_image_energy
from test_raster import SEAM_CASES, STRIP_SEAM_SHAPES, seam_image


def circle(n=64, r=20.0, center=(32.0, 32.0)):
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.column_stack([center[0] + r * np.cos(th), center[1] + r * np.sin(th)])


# ---------------------------------------------------------------------------
# shape similarity energy


def test_shape_sim_zero_when_coincident():
    sq = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)
    assert shape_sim_energy(sq, sq, 50.0) == 0.0


def test_shape_sim_value_at_delta():
    # 8 points at distance sqrt(50) from a single boundary point:
    # d_H^2 = delta -> energy = 1 - 1/e.
    r = np.sqrt(50.0)
    th = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    snake = np.column_stack([r * np.cos(th), r * np.sin(th)])
    e = shape_sim_energy(snake, np.array([[0.0, 0.0]]), 50.0)
    assert abs(e - (1.0 - np.exp(-1.0))) <= 1e-12


def test_shape_sim_monotone_and_bounded():
    sq = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)
    prev = -1.0
    for shift in (0.0, 1.0, 3.0, 7.0, 15.0, 40.0):
        e = shape_sim_energy(sq + [shift, 0.0], sq, 50.0)
        assert 0.0 <= e < 1.0
        assert e > prev or (e == prev == 0.0)
        prev = e
    assert prev > 0.999  # large distances saturate toward 1


@pytest.mark.parametrize("delta", [0.0, -1.0, np.nan, np.inf])
def test_shape_sim_energy_rejects_nonpositive_or_nonfinite_delta(delta):
    sq = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)
    with pytest.raises(ValueError, match="^delta must be "):
        shape_sim_energy(sq + 1.0, sq, delta)


# ---------------------------------------------------------------------------
# shape force


def test_shape_force_vanishes_on_boundary():
    ref = resample_closed(np.array([[0, 0], [30, 0], [30, 20], [0, 20]], float), 40)
    f = shape_force(ref, ref, 50.0)
    assert np.abs(f).max() < 1e-6


def test_shape_force_points_back_toward_boundary():
    ref = resample_closed(np.array([[0, 0], [30, 0], [30, 20], [0, 20]], float), 40)
    f = shape_force(ref + [10.0, 0.0], ref, 50.0)
    assert f[:, 0].mean() < 0.0


def test_shape_force_linear_in_weight():
    rng = np.random.default_rng(3)
    ref = circle(32)
    snake = ref + rng.normal(0, 2.0, ref.shape)
    f1 = shape_force(snake, ref, 50.0, weight=1.0)
    f2 = shape_force(snake, ref, 50.0, weight=2.0)
    assert np.array_equal(f2, 2.0 * f1)


def test_shape_force_matches_bruteforce_energy_differences():
    rng = np.random.default_rng(7)
    ref = circle(24)
    snake = ref + rng.normal(0, 1.5, ref.shape) + [3.0, -2.0]
    got = shape_force(snake, ref, 50.0)
    h = 1.0
    want = np.zeros_like(snake)
    for i in range(len(snake)):
        for axis in range(2):
            plus = snake.copy()
            plus[i, axis] += h
            minus = snake.copy()
            minus[i, axis] -= h
            want[i, axis] = -(
                shape_sim_energy(plus, ref, 50.0) - shape_sim_energy(minus, ref, 50.0)
            ) / (2 * h)
    assert np.allclose(got, want, atol=1e-12)


def test_shape_force_agrees_with_fine_directional_differences():
    # One snake point pulled clearly off an otherwise coincident contour:
    # the extremal pair is unique, so both finite-difference scales must
    # report the same gradient.
    ref = circle(64)
    snake = ref.copy()
    snake[10] += np.array([5.5, 2.0])
    force = shape_force(snake, ref, 50.0)
    i = int(np.argmax(np.hypot(force[:, 0], force[:, 1])))
    f = force[i]
    direction = f / np.linalg.norm(f)
    h = 0.1
    plus = snake.copy()
    plus[i] += h * direction
    minus = snake.copy()
    minus[i] -= h * direction
    directional = -(
        shape_sim_energy(plus, ref, 50.0) - shape_sim_energy(minus, ref, 50.0)
    ) / (2 * h)
    assert directional == pytest.approx(float(np.linalg.norm(f)), rel=0.05)


def dense_shape_force(snake, boundary, delta, weight=1.0, step=1.0):
    """Reference shape force: every pair of a dense (4, n, m) moved-distance tensor.

    Perturbing one snake point changes a single row of the distance matrix,
    so the perturbed Hausdorff distances are reassembled from cached row and
    column extrema instead of recomputing the full matrix per point.
    """
    a = np.asarray(snake, dtype=float)
    b = np.asarray(boundary, dtype=float)
    n = len(a)
    dx = a[:, 0][:, None] - b[:, 0][None, :]
    dy = a[:, 1][:, None] - b[:, 1][None, :]
    d = np.sqrt(dx * dx + dy * dy)

    rowmin = d.min(axis=1)
    i1 = int(np.argmax(rowmin))
    masked = rowmin.copy()
    masked[i1] = -np.inf
    second = masked.max() if n > 1 else -np.inf
    excl_rowmax = np.full(n, rowmin[i1])
    excl_rowmax[i1] = second

    colmin = d.min(axis=0)
    colarg = d.argmin(axis=0)
    d2 = d.copy()
    d2[colarg, np.arange(len(b))] = np.inf
    colmin2 = d2.min(axis=0)
    # (n, m): column minima as seen with row i removed.
    excl_colmin = np.where(colarg[None, :] == np.arange(n)[:, None], colmin2[None, :], colmin[None, :])

    offsets = np.array([[step, 0.0], [-step, 0.0], [0.0, step], [0.0, -step]])
    px = a[None, :, 0:1] + offsets[:, None, 0:1]  # (4, n, 1)
    py = a[None, :, 1:2] + offsets[:, None, 1:2]
    ndx = px - b[None, None, :, 0].reshape(1, 1, -1)
    ndy = py - b[None, None, :, 1].reshape(1, 1, -1)
    newrows = np.sqrt(ndx * ndx + ndy * ndy)  # (4, n, m)

    d_ab = np.maximum(excl_rowmax[None, :], newrows.min(axis=2))
    d_ba = np.minimum(excl_colmin[None, :, :], newrows).max(axis=2)
    dh = np.maximum(d_ab, d_ba)
    e = 1.0 - np.exp(-(dh * dh) / delta)
    fx = -weight * (e[0] - e[1]) / (2.0 * step)
    fy = -weight * (e[2] - e[3]) / (2.0 * step)
    return np.column_stack([fx, fy])


def _oracle_cases(rng):
    """(snake, boundary) pairs: noisy, tied, coincident, distant and large."""
    ref = circle(48, r=15.0)
    noisy = ref + rng.normal(0, 2.0, ref.shape)
    lattice = np.round(circle(40, r=9.0) + rng.normal(0, 1.0, (40, 2)))
    yield "noisy", noisy, ref
    yield "n=1", noisy[:1], ref
    yield "m=1", noisy, ref[:1]
    yield "n=m=1", noisy[:1], ref[:1]
    yield "coincident", ref, ref.copy()
    # Integer points tie in many row and column minima, and a doubled
    # reference ties every column minimum across two rows.
    yield "lattice", lattice, np.round(circle(30, r=9.0))
    yield "doubled", ref, np.repeat(ref, 2, axis=0)
    yield "shifted-half", noisy, np.vstack([ref[:24], ref[24:] + [6.0, 0.0]])
    yield "far", noisy + [400.0, -250.0], ref
    # One reference point far off the contour: the Hausdorff distance comes
    # from that column, and only the rows within reach of it can move it.
    spike = ref.copy()
    spike[5] += [60.0, -40.0]
    yield "far-spike", noisy, spike
    yield "around-1e4", noisy + 1e4, ref + 1e4 + rng.normal(0, 0.5, ref.shape)
    # Column 0's first argmin row, row 0, is inactive: it is far from the
    # spike (27, 0) that gives hd = 27. Row 1 is active, since it attains
    # the spike's column, and ties row 0 at column 0's minimum, 22. At step
    # 3, row 1's +x move takes it to 25 from column 0 and to 24 from the
    # spike, so the moved distance is 24 only if column 0 keeps row 0's 22.
    yield "tie-inactive-argmin", np.array([[-22.0, 22.0], [0.0, 0.0]]), np.array([[-22.0, 0.0], [27.0, 0.0]])


@pytest.mark.parametrize("step", [0.25, 1.0, 3.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_shape_force_equals_dense_oracle(seed, step):
    # Bytes, not np.array_equal, so that the sign of every zero counts too.
    rng = np.random.default_rng(seed)
    for name, snake, ref in _oracle_cases(rng):
        for weight in (0.7, 0.0, -0.7):
            got = shape_force(snake, ref, 50.0, weight=weight, step=step)
            want = dense_shape_force(snake, ref, 50.0, weight=weight, step=step)
            assert got.tobytes() == want.tobytes(), (name, weight)


@pytest.mark.parametrize("step", [0.25, 1.0, 1.7, 3.0])
def test_shape_force_equals_dense_oracle_at_rounding_ties(step):
    # Point p sits between b1 and b2, nearly collinear along x, with b2 just
    # 2 step farther than b1: after the +step move both are as far, up to
    # rounding at ~1e4 px. Without slack in the pruning bound, b2 is dropped
    # in some of these cases (at step 1.7) while it holds the moved minimum.
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = rng.uniform(9e3, 1.1e4, 2)
        r = rng.uniform(2.0, 20.0)
        h = rng.uniform(0.0, 1e-5, 2)
        ref = np.array([[p[0] - r, p[1] + h[0]], [p[0] + r + 2.0 * step, p[1] + h[1]]])
        snake = np.vstack([p, ref])
        got = shape_force(snake, ref, 50.0, step=step)
        assert got.tobytes() == dense_shape_force(snake, ref, 50.0, step=step).tobytes()


def test_shape_force_equals_dense_oracle_on_preset_contours(monkeypatch):
    # Every 7th shape-force call of full proposed-mode runs on the preset at
    # two seeds. Late iterations leave most rows inactive, so these calls
    # test the row-skip rule on converging contours.
    calls = []

    def recording(snake, boundary, delta, weight=1.0, step=1.0):
        force = shape_force(snake, boundary, delta, weight, step)
        calls.append((snake.copy(), boundary.points.copy(), delta, weight, step, force.tobytes()))
        return force

    monkeypatch.setattr(snake_module, "shape_force", recording)
    for seed in (7, 13):
        img, cloud, _, t = generate_scene(quebec_like_spec(seed))
        extract_buildings(img, cloud, t, SnakeConfig(mode="proposed"))
    assert len(calls) >= 2 * SnakeConfig().max_iters
    for *args, got in calls[::7]:
        assert got == dense_shape_force(*args).tobytes()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"delta": 0.0}, {"delta": -1.0}, {"step": 0.0}, {"step": -1.0},
        {"delta": np.nan}, {"delta": np.inf}, {"step": np.nan}, {"step": np.inf},
    ],
)
def test_shape_force_rejects_nonpositive_delta_and_step(kwargs):
    ref = circle(16)
    args = {"delta": 50.0, **kwargs}
    with pytest.raises(ValueError, match=f"^{next(iter(kwargs))} must be "):
        shape_force(ref + 1.0, ref, **args)


def test_shape_reference_rejects_a_snake_of_another_length():
    ref = circle(16)
    prepared = ShapeReference.build(ref, 16)
    for n in (15, 17):
        with pytest.raises(ValueError, match=f"snake has {n} points, but its shape reference was built for 16"):
            shape_force(circle(n), prepared, 50.0)


def test_shape_force_on_a_prepared_reference_allocates_under_one_distance_matrix():
    # The (n, m) distance buffers live in the reference, so a call allocates
    # only per-row and per-pair arrays. The snake's one bump leaves a few rows
    # active, as on a converging snake. An array reference builds fresh
    # buffers, two (n, m) arrays, on every call.
    n = 200
    ref = circle(n, r=60.0, center=(100.0, 100.0))
    snake = ref + np.random.default_rng(0).normal(0, 0.5, ref.shape)
    snake[50] += [0.0, 5.0]
    prepared = ShapeReference.build(ref, n)
    first = shape_force(snake, prepared, 50.0)
    assert traced_peak(shape_force, snake, prepared, 50.0) < n * n * 8
    assert traced_peak(shape_force, snake, ref, 50.0) >= 2 * n * n * 8
    assert shape_force(snake, prepared, 50.0).tobytes() == first.tobytes() == shape_force(snake, ref, 50.0).tobytes()


# ---------------------------------------------------------------------------
# sample_force against its per-component reference


def _reference_bilinear(field, x, y):
    h, w = field.shape
    x0 = np.clip(np.floor(x).astype(int), 0, w - 2)
    y0 = np.clip(np.floor(y).astype(int), 0, h - 2)
    fx = x - x0
    fy = y - y0
    return (
        field[y0, x0] * (1 - fx) * (1 - fy)
        + field[y0, x0 + 1] * fx * (1 - fy)
        + field[y0 + 1, x0] * (1 - fx) * fy
        + field[y0 + 1, x0 + 1] * fx * fy
    )


def reference_sample_force(force, points):
    """Reference sampler: each point p to the grid point (p + (1 - k) / 2) / k
    (a -0.0 point to +0.0), clamped to the grid, then one 2-D bilinear
    lookup per force component."""
    h, w = force.u.shape
    c = np.clip((np.asarray(points, dtype=float) + (1 - force.k) / 2) / force.k, 0, (w - 1, h - 1))
    x, y = c[:, 0], c[:, 1]
    return np.column_stack([_reference_bilinear(force.u, x, y), _reference_bilinear(force.v, x, y)])


def reference_pixel_magnitude(force):
    """|F| at every pixel of the image, from the reference sampler on one whole-image point array."""
    h, w = force.shape
    yy, xx = np.mgrid[0:h, 0:w]
    f = reference_sample_force(force, np.column_stack([xx.ravel(), yy.ravel()]))
    return np.hypot(f[:, 0], f[:, 1]).reshape(h, w)


def _sample_points(rng, h, w):
    """Points inside the image, on every edge, exactly on w - 1 and h - 1, and signed zeros."""
    inner = rng.uniform([0.0, 0.0], [w - 1.0, h - 1.0], (40, 2))
    edges = np.array(
        [
            [0.0, 0.0],
            [w - 1.0, 0.0],
            [0.0, h - 1.0],
            [w - 1.0, h - 1.0],
            [w - 1.0, 0.5 * (h - 1)],
            [0.5 * (w - 1), h - 1.0],
            [-0.0, -0.0],
            [-0.0, 0.0],
            [0.0, -0.0],
            [np.floor(0.5 * w), np.floor(0.5 * h)],
        ]
    )
    return np.vstack([inner, edges])


# (3, 3) is the smallest field `prepare_fields` can give; (2, 2) the smallest `sample_force` takes.
@pytest.mark.parametrize("values", ["normal", "signed-zeros", "non-positive"])
@pytest.mark.parametrize("shape", [(2, 2), (2, 9), (9, 2), (3, 3), (37, 53), (53, 37)])
def test_sample_force_equals_reference(shape, values):
    h, w = shape
    rng = np.random.default_rng(h * 101 + w)

    def field():
        if values == "normal":
            return rng.normal(0.0, 1.0, shape)
        if values == "non-positive":
            # On a grid node three of the four terms are -0.0, and so is the
            # sum where the fourth is: a sum started from +0.0 would lose it.
            return rng.choice([-0.0, -1.0], shape)
        # Zeros of both signs: at the points (-0.0, 0.0) and (0.0, -0.0) the
        # sign of a zero result shows the sign of the zero weight.
        f = rng.choice([-0.0, 0.0, -1.0, 1.0], shape)
        f.flat[0] = -0.0
        f.flat[1:2] = 1.0
        return f

    force = ForceField(field(), field(), 1, shape)
    pts = _sample_points(rng, h, w)
    assert sample_force(force, pts).tobytes() == reference_sample_force(force, pts).tobytes()


# Image sides that are multiples of k and sides that are not, so that the
# last grid centre lies past the image's last pixel.
@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("shape", [(40, 60), (37, 53), (53, 38)])
def test_sample_force_equals_reference_on_coarse_grids(shape, k):
    h, w = shape
    rng = np.random.default_rng(h * 101 + w + k)
    grid = (-(-h // k), -(-w // k))
    force = ForceField(rng.normal(0.0, 1.0, grid), rng.normal(0.0, 1.0, grid), k, shape)
    pts = _sample_points(rng, h, w)
    assert sample_force(force, pts).tobytes() == reference_sample_force(force, pts).tobytes()


def test_sample_force_equals_reference_on_non_contiguous_fields():
    rng = np.random.default_rng(8)
    fx = rng.normal(0.0, 1.0, (30, 20)).T
    force = ForceField(fx, fx[::-1], 1, (20, 30))
    pts = _sample_points(rng, 20, 30)
    assert sample_force(force, pts).tobytes() == reference_sample_force(force, pts).tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1)])
def test_sample_force_rejects_field_under_2x2(shape):
    with pytest.raises(ValueError, match="at least 2x2"):
        ForceField(np.zeros(shape), np.zeros(shape), 1, shape)


@pytest.mark.parametrize(
    "u_shape, v_shape, k, message",
    [
        ((3, 4), (4, 3), 1, r"^u and v must share one 2-D shape"),
        ((3, 4, 2), (3, 4, 2), 1, r"^u and v must share one 2-D shape"),
        ((3, 4), (3, 4), 0, r"^k must be >= 1, got 0$"),
        ((3, 4), (3, 4), 1.5, r"^k must be an integer, got 1.5$"),
    ],
)
def test_force_field_rejects_unequal_components_and_a_bad_scale(u_shape, v_shape, k, message):
    with pytest.raises(ValueError, match=message):
        ForceField(np.zeros(u_shape), np.zeros(v_shape), k, (12, 12))


@pytest.mark.parametrize("k", [1, 3, 4])
def test_sample_force_clamps_points_to_the_grid(k):
    # A field linear in the grid coordinates is sampled exactly at the
    # clamped grid point: inside the grid, past the first and last grid
    # centres within the image, and outside the image.
    h, w = 7 * k, 11 * k
    gy, gx = np.mgrid[0:7, 0:11].astype(float)
    force = ForceField(0.5 * gx - 2.0 * gy + 3.0, -1.5 * gx + 0.25 * gy - 1.0, k, (h, w))
    pts = np.array(
        [[-3.0, 2.0], [-0.5, -0.25], [4.0, -2.5], [w + 2.0, 3.0], [w - 0.5, h + 4.0], [-1e-12, 0.0],
         [0.0, 0.0], [w - 1.0, h - 1.0], [0.4 * w, 0.7 * h], [(k - 1) / 2, (k - 1) / 2 + 1.25]]
    )
    x, y = (np.clip((pts[:, i] - (k - 1) / 2) / k, 0, n - 1) for i, n in ((0, 11), (1, 7)))
    expected = np.column_stack([0.5 * x - 2.0 * y + 3.0, -1.5 * x + 0.25 * y - 1.0])
    assert np.allclose(sample_force(force, pts), expected, rtol=0.0, atol=1e-12)


def test_sample_force_equals_reference_on_preset_contours(quebec_scene, monkeypatch):
    # Every sample of a short gvf-mode run on the bundled scene, on its 4 x 4 grid.
    _, img, cloud, _, t = quebec_scene
    calls = []

    def recording(force, points):
        calls.append((force, points.copy()))
        return sample_force(force, points)

    monkeypatch.setattr(snake_module, "sample_force", recording)
    extract_buildings(img, cloud, t, SnakeConfig(mode="gvf", max_iters=20))
    assert len(calls) >= 20
    assert {force.k for force, _ in calls} == {4}
    for force, pts in calls:
        assert sample_force(force, pts).tobytes() == reference_sample_force(force, pts).tobytes()


# ---------------------------------------------------------------------------
# The force peak and magnitude over the image's pixels


# Sides that are multiples of k, and sides one to k - 1 pixels short of one.
PEAK_SHAPES = [(60, 60), (59, 61), (57, 43), (41, 58), (11, 13)]


def reference_lattice_peak(force):
    """The max of `sample_force`'s |F| over every pixel on a `_peak_lines`
    row and column of the image, one `_magnitudes` block at a time."""
    ys, xs = (snake_module._peak_lines(n, m, force.k) for n, m in zip(force.shape, force.u.shape))
    return max(float(mag.max()) for mag in snake_module._magnitudes(force, ys, xs))


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("shape", PEAK_SHAPES)
def test_force_peak_equals_the_full_pixel_maximum(shape, k):
    # The peak shortcut samples only the pixel lines next to a grid centre,
    # clipped to the image; the oracle samples every pixel. Random grids put
    # the largest |F| on every kind of line (floor, ceil, image edge), so
    # leaving one kind out fails.
    h, w = shape
    grid = (-(-h // k), -(-w // k))
    rng = np.random.default_rng(h * 101 + w + k)
    for _ in range(40):
        force = ForceField(rng.normal(0.0, 1.0, grid), rng.normal(0.0, 1.0, grid), k, shape)
        peak = snake_module._force_peak(force)
        full = float(reference_pixel_magnitude(force).max())
        assert abs(peak - full) <= 2 * np.spacing(full)
        assert peak == reference_lattice_peak(force)
        if k == 1:
            assert peak == float(np.hypot(force.u, force.v).max())


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_peak_lines_equal_np_unique(k):
    # The sort-and-mask dedup in `_peak_lines` avoids np.unique only for its numpy.ma import.
    for n in (1, 2, 11, 43, 60, 61):
        m = -(-n // k)
        centres = k * np.arange(m) + (k - 1) / 2
        expected = np.unique(np.clip(np.concatenate([np.floor(centres), np.ceil(centres)]), 0, n - 1))
        got = snake_module._peak_lines(n, m, k)
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def peak_grid(shape, k):
    """The grid shape of an image of `shape` at block size k."""
    return tuple(-(-n // k) for n in shape)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("shape", PEAK_SHAPES)
def test_force_peak_equals_the_lattice_scan_on_a_constant_field(shape, k):
    # Every cell ties on its node bound; the samples round up or down by an ulp.
    grid = peak_grid(shape, k)
    for u, v in [(0.3, -0.7), (1.0, 0.0), (-0.05, 1e-3)]:
        force = ForceField(np.full(grid, u), np.full(grid, v), k, shape)
        assert snake_module._force_peak(force) == reference_lattice_peak(force)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("shape", PEAK_SHAPES)
def test_force_peak_is_zero_on_the_zero_field(shape, k):
    # Every cell is a candidate.
    grid = peak_grid(shape, k)
    force = ForceField(np.zeros(grid), np.zeros(grid), k, shape)
    assert snake_module._force_peak(force) == reference_lattice_peak(force) == 0.0


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("shape", PEAK_SHAPES)
@pytest.mark.parametrize("edge", ["last-row", "last-column", "last-corner"])
def test_force_peak_equals_the_lattice_scan_with_its_largest_node_on_the_far_edge(shape, k, edge):
    # The pixels past the last grid centre sample the last nodes clamped; the
    # clipped image-edge line of a side short of a multiple of k among them.
    grid = peak_grid(shape, k)
    rng = np.random.default_rng(grid[0] * 31 + grid[1] + k)
    for _ in range(10):
        u, v = rng.normal(0.0, 0.1, grid), rng.normal(0.0, 0.1, grid)
        i = grid[0] - 1 if edge != "last-column" else rng.integers(grid[0])
        j = grid[1] - 1 if edge != "last-row" else rng.integers(grid[1])
        u[i, j], v[i, j] = rng.normal(0.0, 3.0, 2)
        force = ForceField(u, v, k, shape)
        assert snake_module._force_peak(force) == reference_lattice_peak(force)


def test_force_peak_samples_a_cell_whose_bound_is_one_ulp_below_the_lower_bound():
    # A plateau whose samples round 2 ulp above its nodes' |F| = b, and one
    # node of |F| = b + 1 ulp at the image's corner, whose clamped corner
    # pixel gives the lower bound b + 1 ulp exactly. The plateau's cells then
    # bound below the lower bound, and only the slack keeps them sampled.
    k, shape = 4, (12, 32)
    x, y = float.fromhex("0x1.a39e14b3e3734p-2"), float.fromhex("0x1.48e2d0a050ba4p-1")
    b = float(np.hypot(x, y))
    u, v = np.zeros((3, 8)), np.zeros((3, 8))
    u[:, 4:], v[:, 4:] = x, y
    u[0, 0] = np.nextafter(b, np.inf)
    force = ForceField(u, v, k, shape)
    peak = reference_lattice_peak(force)
    assert peak == np.nextafter(u[0, 0], np.inf)
    assert snake_module._force_peak(force) == peak


def test_force_peak_samples_two_blocks_of_few_pixels_on_the_preset(quebec_scene, monkeypatch):
    # One block for the lower bound's cell and one for the lines through the
    # cells whose bound reaches it, against one block per 8192 peak-line
    # pixels for a scan of them all.
    _, img, _, _, _ = quebec_scene
    sizes = []

    def counting(force, points):
        sizes.append(len(points))
        return sample_force(force, points)

    monkeypatch.setattr(snake_module, "sample_force", counting)
    force = prepare_fields(img, SnakeConfig(mode="gvf"))
    assert force.k == 4
    assert len(sizes) == 2 and sum(sizes) <= 1000


def test_force_magnitude_samples_every_pixel():
    # Tall enough for several strips of rows.
    rng = np.random.default_rng(5)
    force = ForceField(rng.normal(0.0, 1.0, (134, 28)), rng.normal(0.0, 1.0, (134, 28)), 3, (400, 83))
    assert force_magnitude(force).tobytes() == reference_pixel_magnitude(force).tobytes()


# ---------------------------------------------------------------------------
# prepare_fields against whole-image references


def reference_gvf_scale(shape, sigma):
    """int(sigma / 2.5), lowered one at a time until the coarse grid has 3 cells a side."""
    k = max(1, int(sigma / 2.5))
    while k > 1 and min(-(-n // k) for n in shape) < 3:
        k -= 1
    return k


def reference_block_mean(img, k):
    """Whole-image k x k block mean of the edge-padded image, each value divided by k^2."""
    h, w = img.shape
    padded = np.pad(img, ((0, -h % k), (0, -w % k)), mode="edge")
    return sum(padded[i::k, j::k] / (k * k) for i in range(k) for j in range(k))


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_block_mean_equals_reference(k, dtype):
    # Every remainder of each side mod k: whole blocks only, a trailing
    # partial block row, column or both. Float images hold signed zeros,
    # which enter a block's sum after its starting 0.
    rng = np.random.default_rng(k)
    for rh in range(k):
        for rw in range(k):
            shape = (3 * k + rh, 4 * k + rw)
            if dtype == np.uint8:
                img = rng.integers(0, 256, shape).astype(np.uint8)
            else:
                img = rng.uniform(-255.0, 255.0, shape)
                img[rng.random(shape) < 0.2] = -0.0
            got = snake_module._block_mean(img, k)
            assert got.dtype == np.float64
            assert got.tobytes() == reference_block_mean(img, k).tobytes()


def test_block_mean_of_a_1024_image_allocates_its_output_and_one_term():
    # Two arrays of the 256 x 256 grid, 1 MiB; gathering a float band of
    # H / 4 rows took 4.77 MiB.
    gray = np.random.default_rng(6).integers(0, 256, (1024, 1024)).astype(np.uint8)
    assert traced_peak(snake_module._block_mean, gray, 4) <= 1.3 * 2**20


def test_block_mean_of_an_odd_float_image_makes_no_image_sized_copy():
    # Strided views of the whole blocks; only the trailing partial block row
    # and column are copied, k rows or columns each.
    shape = (1023, 1021)
    gray = np.random.default_rng(7).uniform(0.0, 255.0, shape)
    assert traced_peak(snake_module._block_mean, gray, 4) <= 0.15 * shape[0] * shape[1] * 8


def reference_force(gray, cfg, k=None):
    """The force before its rescale: the whole-image gradient of -E in basic
    mode, or else the GVF field solved on the grid k (`reference_gvf_scale`
    if None) times coarser, from the energy of the image's block mean at
    sigma / k, with gvf_iters // k^2 steps."""
    gray = np.asarray(gray, dtype=float)
    if cfg.mode == "basic":
        fy, fx = np.gradient(-reference_image_energy(gray, cfg.w_line, cfg.w_edge, cfg.w_term, cfg.sigma))
        return ForceField(fx, fy, 1, gray.shape)
    k = reference_gvf_scale(gray.shape, cfg.sigma) if k is None else k
    e_img = reference_image_energy(reference_block_mean(gray, k), cfg.w_line, cfg.w_edge, cfg.w_term, cfg.sigma / k)
    fx, fy, _ = reference_gvf(e_img, mu=cfg.mu, iters=max(1, cfg.gvf_iters // k**2))
    return ForceField(fx, fy, k, gray.shape)


def divided(force, peak):
    """Copies of force's components divided by peak, or force itself at peak 0."""
    return ForceField(force.u / peak, force.v / peak, force.k, force.shape) if peak > 0 else force


def reference_prepare_fields(gray, cfg, k=None):
    """`reference_force` rescaled by its max |F| over every pixel of the image."""
    force = reference_force(gray, cfg, k)
    return divided(force, float(reference_pixel_magnitude(force).max()))


def assert_equals_reference(got, gray, cfg):
    """`got` is `reference_prepare_fields`' force, bit for bit: `reference_force`
    divided by its full-pixel peak. Above k = 1 the peak shortcut may round
    up to 2 ulp apart from that peak, so there any peak that close will do."""
    force = reference_force(gray, cfg)
    full = float(reference_pixel_magnitude(force).max())
    peaks = [full]
    for toward in ([np.inf, -np.inf] if force.k > 1 else []):
        peak = full
        for _ in range(2):
            peak = float(np.nextafter(peak, toward))
            peaks.append(peak)
    assert (got.k, got.shape) == (force.k, force.shape)
    assert any(
        got.u.tobytes() == ref.u.tobytes() and got.v.tobytes() == ref.v.tobytes()
        for ref in (divided(force, peak) for peak in peaks)
    )


@pytest.mark.parametrize("mode", ["basic", "gvf"])
@pytest.mark.parametrize("case", ["random", "constant"])
def test_prepare_fields_equals_reference(mode, case, monkeypatch):
    rng = np.random.default_rng(3)
    gray = rng.uniform(0, 255, (30, 41)) if case == "random" else np.full((12, 10), 40.0)
    cfg = SnakeConfig(mode=mode, sigma=2.0, gvf_iters=15)
    solved_fields = []

    def capturing(*args, **kwargs):
        solved_fields.append(compute_gvf(*args, **kwargs))
        return solved_fields[-1]

    monkeypatch.setattr(snake_module, "compute_gvf", capturing)
    assert_equals_reference(prepare_fields(gray, cfg), gray, cfg)
    assert len(solved_fields) == (mode == "gvf")
    if mode == "gvf":
        # The rescale leaves the solved field itself untouched.
        solved = compute_gvf(image_energy(gray, sigma=2.0), mu=cfg.mu, iters=15)
        assert solved_fields[0].u.tobytes() == solved.u.tobytes()
        assert solved_fields[0].v.tobytes() == solved.v.tobytes()


@pytest.mark.parametrize("mode", ["basic", "gvf"])
@pytest.mark.parametrize("case", SEAM_CASES)
@pytest.mark.parametrize("shape", STRIP_SEAM_SHAPES)
def test_prepare_fields_equals_reference_at_strip_seams(shape, case, mode):
    gray = seam_image(shape, case)
    cfg = SnakeConfig(mode=mode, sigma=2.0, gvf_iters=3)
    assert_equals_reference(prepare_fields(gray, cfg), gray, cfg)


# At sigma = 10 (k = 4): sizes divisible by 4, sizes that are not (one to
# three padded rows or columns), and small sizes where k falls to 3, 2 and 1.
COARSE_SHAPES = [(48, 64), (49, 66), (51, 45), (9, 40), (7, 40), (40, 5), (4, 30)]


def test_coarse_shapes_cover_every_fallback():
    assert sorted({reference_gvf_scale(shape, 10.0) for shape in COARSE_SHAPES}) == [1, 2, 3, 4]


@pytest.mark.parametrize("mode", ["gvf", "proposed"])
@pytest.mark.parametrize("shape", COARSE_SHAPES)
def test_prepare_fields_equals_reference_on_the_coarse_grid(shape, mode, monkeypatch):
    gray = seam_image(shape, "random")
    cfg = SnakeConfig(mode=mode, sigma=10.0)
    k = reference_gvf_scale(shape, cfg.sigma)
    solved_shapes = []

    def capturing(e_img, **kwargs):
        solved_shapes.append((e_img.shape, kwargs["iters"]))
        return compute_gvf(e_img, **kwargs)

    monkeypatch.setattr(snake_module, "compute_gvf", capturing)
    got = prepare_fields(gray, cfg)
    assert solved_shapes == [((-(-shape[0] // k), -(-shape[1] // k)), max(1, cfg.gvf_iters // k**2))]
    assert_equals_reference(got, gray, cfg)


@pytest.mark.parametrize("sigma", [2.0, 10.0])
@pytest.mark.parametrize("mode", ["basic", "gvf", "proposed"])
def test_prepare_fields_returns_c_contiguous_pairs(mode, sigma):
    # sample_force flattens each component; a non-contiguous one would be
    # copied whole on every call.
    gray = seam_image((61, 83), "random")
    force = prepare_fields(gray, SnakeConfig(mode=mode, sigma=sigma))
    k = 1 if mode == "basic" else reference_gvf_scale(gray.shape, sigma)
    assert (force.k, force.shape) == (k, (61, 83))
    for component in (force.u, force.v):
        assert component.shape == (-(-61 // k), -(-83 // k))
        assert component.flags.c_contiguous


@pytest.mark.parametrize("mode, sigma, k", [
    ("basic", SnakeConfig.sigma, 1),
    ("gvf", SnakeConfig.sigma, 4),
    ("proposed", SnakeConfig.sigma, 4),
    ("gvf", 4.0, 1),  # the GVF on the full-resolution image
])
def test_prepare_fields_same_bits_for_uint8_and_float_images(quebec_scene, mode, sigma, k):
    # load_pnm returns an 8-bit file's uint8 samples; each converts to float64 exactly.
    _, img, _, _, _ = quebec_scene
    gray = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    cfg = SnakeConfig(mode=mode, sigma=sigma)
    got, want = prepare_fields(gray, cfg), prepare_fields(gray.astype(float), cfg)
    assert got.k == want.k == k
    assert got.u.tobytes() == want.u.tobytes()
    assert got.v.tobytes() == want.v.tobytes()


def test_basic_prepare_fields_peak_memory_is_two_arrays_and_strips():
    # The smoothed image and the energy, then the edge force's two
    # components, f_x in the energy's buffer, plus one strip block's
    # temporaries each time (about 0.46 arrays at this size).
    gray = seam_image(MEM_SHAPE, "random")
    assert traced_peak(prepare_fields, gray, SnakeConfig(mode="basic")) <= 2.5 * ARRAY_BYTES


def test_basic_prepare_fields_peak_memory_at_1536_is_two_arrays():
    # The benchmark's tiled-basic size, where the strips weigh about 0.07
    # arrays; three image-sized arrays at once gave 3.06.
    shape = (1536, 1536)
    gray = seam_image(shape, "random")
    assert traced_peak(prepare_fields, gray, SnakeConfig(mode="basic")) <= 2.2 * shape[0] * shape[1] * 8


def test_force_peak_at_full_resolution_holds_one_strip_of_magnitudes():
    # |F| a strip at a time (about 0.05 arrays here), not an image-sized hypot.
    rng = np.random.default_rng(4)
    force = ForceField(rng.normal(0.0, 1.0, MEM_SHAPE), rng.normal(0.0, 1.0, MEM_SHAPE), 1, MEM_SHAPE)
    assert traced_peak(snake_module._force_peak, force) <= 0.25 * ARRAY_BYTES


@pytest.mark.parametrize("mode", ["gvf", "proposed"])
def test_gvf_prepare_fields_peak_memory_is_under_two_arrays(mode):
    # Nothing image-sized: the block mean, the energy, the GVF and its
    # copies, and the peak's node bounds, all on the 1/16 grid, and a few
    # sampled pixels. At the small image the GVF's strip buffers span the
    # whole grid (about 0.63 arrays); at 1024^2 the peak is 0.44 arrays,
    # where a float band of H / 4 rows for the block mean and blocks of
    # every peak-line pixel took 0.56.
    for shape, arrays in [(MEM_SHAPE, 2.0), ((1024, 1024), 0.47)]:
        gray = seam_image(shape, "random")
        assert traced_peak(prepare_fields, gray, SnakeConfig(mode=mode)) <= arrays * shape[0] * shape[1] * 8


# ---------------------------------------------------------------------------
# evolve_step


def evolve(pts, force, cfg):
    """One evolve_step with the closed-form inverse, as run_snake passes it."""
    return evolve_step(pts, force, cfg, system_inverse(len(pts), cfg.alpha, cfg.beta, cfg.gamma))


def test_evolve_fixed_point_without_forces():
    cfg = SnakeConfig(alpha=0.0, beta=0.0, gamma=1.0)
    pts = circle(32)
    new = evolve(pts, np.zeros_like(pts), cfg)
    assert np.allclose(new, pts, atol=1e-12)


def test_evolve_tension_shrinks_perimeter():
    cfg = SnakeConfig(alpha=0.05, beta=0.0, gamma=1.0)
    rng = np.random.default_rng(11)
    pts = circle(48) + rng.normal(0, 1.0, (48, 2))
    new = evolve(pts, np.zeros_like(pts), cfg)
    assert polygon_perimeter(new) < polygon_perimeter(pts)


def test_evolve_circle_stays_circular():
    cfg = SnakeConfig(alpha=0.1, beta=0.0, gamma=1.0)
    pts = circle(64)
    new = evolve(pts, np.zeros_like(pts), cfg)
    radii = np.hypot(new[:, 0] - 32, new[:, 1] - 32)
    assert radii.std() / radii.mean() < 0.01


def test_evolve_linear_system_residual():
    cfg = SnakeConfig(alpha=0.01, beta=0.01, gamma=1.0)
    rng = np.random.default_rng(13)
    pts = circle(40) + rng.normal(0, 0.5, (40, 2))
    force = rng.normal(0, 1.0, (40, 2))
    new = evolve(pts, force, cfg)
    m = reference_system_matrix(40, cfg.alpha, cfg.beta, cfg.gamma)
    resid = m @ new - (cfg.gamma * pts + force)
    assert np.abs(resid).max() <= 1e-8


def reference_system_matrix(n, alpha, beta, gamma):
    """Band-by-band build of gamma I + A; wrapped bands add up for n < 5."""
    m = np.zeros((n, n))
    idx = np.arange(n)
    bands = [
        (0, gamma + 2.0 * alpha + 6.0 * beta),
        (1, -alpha - 4.0 * beta),
        (-1, -alpha - 4.0 * beta),
        (2, beta),
        (-2, beta),
    ]
    for off, coef in bands:
        m[idx, (idx + off) % n] += coef
    return m


SYSTEM_PARAMS = [(0.01, 0.01, 1.0), (0.0, 0.0, 1.0), (0.5, 0.3, 0.2), (2.0, 5.0, 3.0)]


@pytest.mark.parametrize("params", SYSTEM_PARAMS)
def test_system_matrix_equals_band_reference(params):
    # The circulant that system_inverse diagonalizes, bit for bit, with the
    # bands that wrap onto one offset for n < 5 added in the same order.
    for n in range(1, 13):
        m = snake_module._circulant(snake_module._system_row(n, *params))
        assert m.tobytes() == reference_system_matrix(n, *params).tobytes()


def test_system_inverse_equals_dense_inverse_for_every_size():
    for n in range(1, 601):
        m = reference_system_matrix(n, 0.01, 0.01, 1.0)
        inv = system_inverse(n, 0.01, 0.01, 1.0)
        assert np.abs(inv - np.linalg.inv(m)).max() <= 1e-12, n
        assert np.abs(m @ inv - np.eye(n)).max() <= 1e-12, n


@pytest.mark.parametrize("params", SYSTEM_PARAMS[1:])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 32, 151, 600])
def test_system_inverse_equals_dense_inverse_for_other_weights(n, params):
    m = reference_system_matrix(n, *params)
    inv = system_inverse(n, *params)
    # The inverse scales as 1 / gamma; compare relative to its largest entry.
    scale = np.abs(inv).max()
    assert np.abs(inv - np.linalg.inv(m)).max() <= 1e-12 * scale
    assert np.abs(m @ inv - np.eye(n)).max() <= 1e-12


# Weights whose system breaks the eigenvalue bound in floating point: alpha or
# beta overflows the row to inf; gamma = 1e-300 or 1e-17 is lost next to alpha
# and beta, so the t = 0 eigenvalue (the row's sum) cancels to rounding residue
# of either sign.
BROKEN_SYSTEM_PARAMS = [(1e308, 0.01, 1.0), (0.01, 1e308, 1.0), (0.01, 0.01, 1e-300), (0.01, 0.01, 1e-17)]


@pytest.mark.parametrize("params", BROKEN_SYSTEM_PARAMS)
@pytest.mark.parametrize("n", [1, 2, 5, 32, 177])
def test_system_inverse_rejects_weights_without_a_positive_finite_spectrum(n, params):
    # A ValueError naming the weights, and no RuntimeWarning on the way
    # (pytest turns those into errors).
    alpha, beta, gamma = params
    with pytest.raises(ValueError, match=re.escape(f"alpha={alpha!r}, beta={beta!r} and gamma={gamma!r} ")):
        system_inverse(n, *params)


def test_system_inverse_rejects_gamma_lost_next_to_alpha_and_beta_at_every_size():
    # Cancellation leaves the t = 0 eigenvalue a residue of alpha and beta
    # that may still be positive; a gamma well above that residue passes.
    for n in range(1, 601):
        for gamma in (1e-17, 1e-300):
            with pytest.raises(ValueError, match="give a contour system"):
                system_inverse(n, 0.01, 0.01, gamma)
        for gamma in (1e-12, 1.0):
            system_inverse(n, 0.01, 0.01, gamma)


# ---------------------------------------------------------------------------
# resampling


def reference_resample_closed(points, n):
    """Resampling on the contour closed by a copy of its first point, with
    np.linalg.norm segment lengths and an np.clip segment index."""
    pts = np.asarray(points, dtype=float)
    ring = np.vstack([pts, pts[:1]])
    seg = np.linalg.norm(np.diff(ring, axis=0), axis=1)
    total = seg.sum()
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s = np.arange(n) * (total / n)
    k = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg) - 1)
    t = (s - cum[k]) / np.where(seg[k] > 0, seg[k], 1.0)
    return ring[k] + t[:, None] * (ring[k + 1] - ring[k])


def _resample_cases():
    rng = np.random.default_rng(17)
    noisy = circle(150, 40.0, (700.0, 800.0)) + rng.normal(0.0, 1.0, (150, 2))
    square = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    return {
        "noisy-ellipse": (noisy * [1.5, 1.0], (32, 150, 301)),
        # Coordinates near zero, where an ulp of a segment length shows in the output.
        "noisy-ellipse-at-origin": ((noisy - [700.0, 800.0]) * [1.5, 1.0], (32, 150, 301)),
        "triangle": (np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]]), (3, 7)),
        # Zero-length segments, the closing one among them: t = 0 on a repeated point.
        "repeated-points": (np.repeat(square, 3, axis=0), (4, 40, 41)),
        "closed-by-its-first-point": (np.vstack([square, square[:1]]), (4, 40)),
        "collapsed-but-one": (np.array([[5.0, 5.0]] * 6 + [[6.0, 5.0]]), (3, 32)),
        # Spacing of a few ulps of the coordinates.
        "near-1e8": (1e8 + circle(200, 20.0, (0.0, 0.0)) + rng.normal(0.0, 1e-7, (200, 2)), (32, 150)),
        "near-1e8-steps": (1e8 + np.repeat(square, 2, axis=0) * 1e-6, (12, 40)),
    }


@pytest.mark.parametrize("case", list(_resample_cases()))
def test_resample_closed_equals_reference(case):
    points, sizes = _resample_cases()[case]
    for n in sizes:
        assert resample_closed(points, n).tobytes() == reference_resample_closed(points, n).tobytes()


@pytest.mark.parametrize(
    "points, n",
    [
        pytest.param(circle(8), 0, id="n=0"),
        pytest.param(circle(8), 2, id="n=2"),
        pytest.param(circle(8)[:2], 8, id="two-points"),
        pytest.param(np.vstack([circle(8), [[np.nan, 3.0]]]), 8, id="nan-point"),
        pytest.param(np.vstack([circle(8), [[3.0, np.inf]]]), 8, id="inf-point"),
        pytest.param(np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 1e308]]), 8, id="perimeter-overflows"),
        pytest.param(np.full((5, 2), 3.0), 8, id="zero-perimeter"),
    ],
)
def test_resample_closed_rejects_degenerate_input(points, n):
    # Any other RuntimeWarning on the way fails the test (pyproject's filterwarnings).
    with np.errstate(over="ignore"), pytest.raises(ValueError):
        resample_closed(points, n)


def test_resample_uniform_arc_length():
    sq = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)
    out = resample_closed(sq, 40)
    assert len(out) == 40
    assert out[0] == pytest.approx((0.0, 0.0))
    # All resampled points lie on the square's boundary.
    on_edge = (
        np.isclose(out[:, 0], 0)
        | np.isclose(out[:, 0], 10)
        | np.isclose(out[:, 1], 0)
        | np.isclose(out[:, 1], 10)
    )
    assert on_edge.all()
    assert polygon_perimeter(out) == pytest.approx(40.0, rel=1e-9)


# ---------------------------------------------------------------------------
# run_snake


@pytest.fixture(scope="module")
def rect_scene():
    grid = GridSpec((0.0, 0.0), 1.0, 224, 224)
    truth = np.array([[37, 52], [187, 52], [187, 172], [37, 172]], dtype=float)
    img = np.full((224, 224), 60.0)
    img[rasterize_polygon(truth, grid)] = 180.0
    return grid, truth, img


def test_run_snake_high_contrast_rectangle(rect_scene):
    grid, truth, img = rect_scene
    init = truth + np.array([3.0, 0.0])
    cfg = SnakeConfig(mode="proposed")
    snake = run_snake(init, prepare_fields(img, cfg), cfg)
    assert pixel_iou(snake, truth, grid) >= 95.0


def test_run_snake_on_edge_stays_put(rect_scene):
    grid, truth, img = rect_scene
    cfg = SnakeConfig(mode="gvf", sigma=2.0)
    init = resample_closed(truth, 240)
    snake = run_snake(init, prepare_fields(img, cfg), cfg)
    ref = resample_closed(truth, len(snake))
    rms = float(np.sqrt(((snake - ref) ** 2).sum(axis=1).mean()))
    assert rms <= 1.0


@pytest.mark.parametrize("mode", ["gvf", "proposed"])
def test_run_snake_on_the_coarse_field_is_as_accurate_as_on_the_fine_one(rect_scene, mode):
    # At sigma = 10 the GVF is solved on 4 x 4 blocks with 200 // 16 steps;
    # the snake must land within half a point of IoU of the snake on the
    # 200-step full-resolution field.
    grid, truth, img = rect_scene
    cfg = SnakeConfig(mode=mode, sigma=10.0)
    assert reference_gvf_scale(img.shape, cfg.sigma) == 4
    init = truth + np.array([3.0, 0.0])
    coarse = pixel_iou(run_snake(init, prepare_fields(img, cfg), cfg), truth, grid)
    fine = pixel_iou(run_snake(init, reference_prepare_fields(img, cfg, k=1), cfg), truth, grid)
    assert abs(coarse - fine) <= 0.5


def test_run_snake_deterministic(rect_scene):
    grid, truth, img = rect_scene
    init = truth + np.array([2.0, -1.0])
    cfg = SnakeConfig(mode="proposed")
    a = run_snake(init, prepare_fields(img, cfg), cfg)
    b = run_snake(init, prepare_fields(img, cfg), cfg)
    assert np.array_equal(a, b)


def test_run_snake_point_count_rule(rect_scene):
    _, truth, img = rect_scene
    cfg = SnakeConfig(mode="basic", max_iters=1)
    snake = run_snake(truth, prepare_fields(img, cfg), cfg)
    expected = max(32, round(polygon_perimeter(truth) / 2.0))
    assert len(snake) == expected


def counting_sample_force(monkeypatch):
    """Patch snake.sample_force to count its calls, one per snake iteration."""
    calls = []
    sample = snake_module.sample_force

    def counting(*args):
        calls.append(None)
        return sample(*args)

    monkeypatch.setattr(snake_module, "sample_force", counting)
    return calls


@pytest.mark.parametrize("mode", ["basic", "gvf", "proposed"])
def test_run_snake_stops_before_max_iters(rect_scene, mode, monkeypatch):
    _, truth, img = rect_scene
    cfg = SnakeConfig(mode=mode)
    calls = counting_sample_force(monkeypatch)
    run_snake(truth + np.array([3.0, 0.0]), prepare_fields(img, cfg), cfg)
    assert 0 < len(calls) < cfg.max_iters


@pytest.mark.parametrize("mode", ["basic", "gvf", "proposed"])
def test_stopped_snake_is_the_same_under_a_higher_cap(rect_scene, mode):
    _, truth, img = rect_scene
    cfg = SnakeConfig(mode=mode)
    force = prepare_fields(img, cfg)
    init = truth + np.array([3.0, 0.0])
    capped = run_snake(init, force, cfg)
    uncapped = run_snake(init, force, dataclasses.replace(cfg, max_iters=2000))
    assert capped.tobytes() == uncapped.tobytes()


def reference_settled(old, new, eps2):
    """The stop test on the contour wrapped by a fancy index, with the cross
    product formed in one expression."""
    n = len(new)
    mv = new - old
    ring = new[np.arange(-1, n + 1) % n]
    t = ring[2:] - ring[:-2]
    cross = mv[:, 0] * t[:, 1] - mv[:, 1] * t[:, 0]
    t *= t
    return bool((cross * cross <= eps2 * (t[:, 0] + t[:, 1])).all())


def _square_outline(side):
    """The integer points of a side x side square's outline, counter-clockwise from (0, 0)."""
    ramp = np.arange(side, dtype=float)
    return np.vstack(
        [np.column_stack([ramp, 0 * ramp]), np.column_stack([0 * ramp + side, ramp]),
         np.column_stack([side - ramp, 0 * ramp + side]), np.column_stack([0 * ramp, side - ramp])]
    )


def _stop_cases():
    """(old, new, epsilons): steps and epsilons at, and one ulp either side of, the largest normal displacement."""
    rng = np.random.default_rng(23)
    cases = {}
    # Edge points move out along the edge normal by d and corners stay. On
    # the bottom edge, at y = 0, mv = (0, -d) exactly and t = (2, 0), and
    # (2 d)^2 == 4 d^2 exactly, so epsilon = d sits on the bound there.
    old = _square_outline(8)
    normal = np.repeat([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]], 8, axis=0)
    normal[::8] = 0.0
    for d in (0.25, 0.1, 3e-3):
        new = old + d * normal
        step = abs((new - old)[1, 1])
        cases[f"on-epsilon-{d}"] = (old, new, [step])
    # Coincident neighbours give t = 0, a point with no normal.
    old = np.repeat(circle(20, 10.0), 3, axis=0)
    cases["repeated-points"] = (old, old + rng.normal(0.0, 0.01, old.shape), [])
    # A run of five coincident points moved together, far, on a still contour.
    old = np.vstack([circle(20, 10.0)[:12], np.repeat(circle(20, 10.0)[12:13], 5, axis=0), circle(20, 10.0)[13:]])
    new = old.copy()
    new[12:17] += 5.0
    cases["coincident-run"] = (old, new, [0.0])
    # Near 1e8 a coordinate's ulp is 1.5e-8: moves of a few ulps.
    old = 1e8 + circle(150, 40.0, (0.0, 0.0))
    cases["near-1e8"] = (old, old + rng.integers(-3, 4, old.shape) * np.spacing(1e8), [])
    old = circle(150, 40.0)
    cases["noisy-step"] = (old, old + rng.normal(0.0, 0.02, old.shape), [])
    out = {}
    for name, (old, new, extra) in cases.items():
        n = len(new)
        t = new[(np.arange(n) + 1) % n] - new[np.arange(n) - 1]
        mv = new - old
        with np.errstate(invalid="ignore", divide="ignore"):
            normal_moves = np.abs(mv[:, 0] * t[:, 1] - mv[:, 1] * t[:, 0]) / np.hypot(t[:, 0], t[:, 1])
        top = float(np.nanmax(normal_moves)) if np.isfinite(normal_moves).any() else 0.0
        eps = sorted({e for base in [top, *extra] for e in (np.nextafter(base, 0.0), base, np.nextafter(base, 1.0))})
        out[name] = (old, new, eps)
    return out


@pytest.mark.parametrize("case", list(_stop_cases()))
def test_settled_equals_reference(case):
    old, new, epsilons = _stop_cases()[case]
    verdicts = set()
    for eps in epsilons:
        settled = _settled(old.copy(), new.copy(), eps * eps)
        assert settled == reference_settled(old, new, eps * eps), eps
        verdicts.add(settled)
    # Every case has epsilons on both sides of its bound.
    assert verdicts == {True, False}


def test_settled_on_epsilon_is_settled():
    # The bound is inclusive: a step whose normal displacement is exactly
    # epsilon stops the snake, one an ulp more does not.
    old, new, _ = _stop_cases()["on-epsilon-0.25"]
    assert _settled(old, new, 0.25 * 0.25)
    assert not _settled(old, new, np.nextafter(0.25, 0.0) ** 2)


def test_a_snake_that_only_slides_stops_at_once(monkeypatch):
    # u, v = omega * (-(y - 32), x - 32) turns the circle about its centre.
    # It is linear, so bilinear sampling is exact, and with no internal
    # force each step turns every point by omega and scales the circle by
    # sqrt(1 + omega^2): a 0.2 px slide along the contour, and a normal move
    # of about omega^2 r = 0.002 px. The largest point displacement never
    # falls below epsilon, so a stop on it would run to max_iters.
    omega, r = 0.01, 20.0
    ys, xs = np.mgrid[0:64, 0:64].astype(float)
    force = ForceField(-omega * (ys - 32.0), omega * (xs - 32.0), 1, (64, 64))
    cfg = SnakeConfig(mode="basic", alpha=0.0, beta=0.0, epsilon=0.01)
    init = circle(63, r)
    calls = counting_sample_force(monkeypatch)
    snake = run_snake(init, force, cfg)
    assert len(calls) == 1
    assert np.hypot(*(snake - init).T).min() > 10 * cfg.epsilon
    # Without the stop, the slide goes on at the same speed for every step.
    slid = run_snake(init, force, dataclasses.replace(cfg, epsilon=1e-9, max_iters=50, resample_every=100))
    assert len(calls) == 51
    turn = ((slid - 32.0) @ [1, 1j]) / ((init - 32.0) @ [1, 1j])
    assert np.allclose(np.angle(turn), 50 * np.arctan(omega))


def test_a_snake_collapsed_onto_one_point_stops(monkeypatch):
    # A force of (-20, -20) everywhere pushes the whole square past the
    # image corner in one step, so every point is clipped to (0, 0).
    # Coincident neighbours give t = 0, no normal, and the snake stops there
    # rather than resampling a contour of zero perimeter, which raises.
    force = ForceField(np.full((32, 32), -20.0), np.full((32, 32), -20.0), 1, (32, 32))
    cfg = SnakeConfig(mode="basic", alpha=0.0, beta=0.0, resample_every=1)
    calls = counting_sample_force(monkeypatch)
    snake = run_snake(np.array([[2.0, 2.0], [10.0, 2.0], [10.0, 10.0], [2.0, 10.0]]), force, cfg)
    assert len(calls) == 1
    assert not snake.any()


@pytest.mark.parametrize("mode", ["basic", "gvf", "proposed"])
def test_preset_snakes_stop_early(quebec_scene, mode, monkeypatch):
    _, img, cloud, _, t = quebec_scene
    calls = counting_sample_force(monkeypatch)
    run = cli.run_snake
    iters = []

    def counting_run(*args):
        before = len(calls)
        contour = run(*args)
        iters.append(len(calls) - before)
        return contour

    monkeypatch.setattr(cli, "run_snake", counting_run)
    cfg = SnakeConfig(mode=mode)
    extract_buildings(img, cloud, t, cfg)
    assert len(iters) == 5
    assert min(iters) < cfg.max_iters


def test_basic_below_proposed_on_low_contrast_building(mode_results, quebec_scene):
    # The bundled scene's low-contrast building sits next to a dark
    # pavement strip; the shape-constrained snake must beat the basic one.
    _, _, _, truth, _ = quebec_scene
    from conftest import match_truth

    low_idx = 3  # spec order: rect, L, U, low-contrast, gabled
    def low_iou(mode):
        for r in mode_results[mode]:
            if match_truth(r.footprint, truth) == low_idx:
                return pixel_iou(r.footprint, truth[low_idx])
        raise AssertionError("low-contrast building not extracted")

    assert low_iou("basic") < low_iou("proposed")


def test_run_snake_rejects_tiny_init():
    cfg = SnakeConfig()
    force = prepare_fields(np.full((32, 32), 50.0), cfg)
    with pytest.raises(ValueError):
        run_snake(np.array([[1.0, 1.0], [2.0, 2.0]]), force, cfg)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: sample_force puts pixel (i, j) at (j, i), not at its centre")
@pytest.mark.parametrize("mode", ["basic", "gvf", "proposed"])
def test_snake_edges_meet_the_pixel_edges_of_a_square(mode):
    # Pixels [40:88, 40:88] cover [40, 88]^2 in the frame of GridSpec, the
    # scene renderer and the metrics, so the snake's edges belong at 40 and 88.
    img = np.full((128, 128), 80.0)
    img[40:88, 40:88] = 200.0
    cfg = SnakeConfig(mode=mode, sigma=2.0)
    init = np.array([[43.0, 43.0], [85.0, 43.0], [85.0, 85.0], [43.0, 85.0]])
    snake = run_snake(init, prepare_fields(img, cfg), cfg)
    assert np.allclose(snake.min(axis=0), 40.0, atol=0.1)
    assert np.allclose(snake.max(axis=0), 88.0, atol=0.1)
