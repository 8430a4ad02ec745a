from __future__ import annotations

import re

import numpy as np
import pytest

from buildsnake import snake as snake_module
from buildsnake.cli import extract_buildings
from buildsnake.config import SnakeConfig
from buildsnake.energy import compute_gvf, image_energy
from buildsnake.geometry import GridSpec, polygon_perimeter, rasterize_polygon
from buildsnake.synthetic import generate_scene, quebec_like_spec
from buildsnake.snake import (
    prepare_fields,
    evolve_step,
    resample_closed,
    run_snake,
    sample_force,
    shape_force,
    shape_sim_energy,
    system_inverse,
    system_matrix,
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
        calls.append((snake.copy(), boundary.copy(), delta, weight, step, force.tobytes()))
        return force

    monkeypatch.setattr(snake_module, "shape_force", recording)
    for seed in (7, 13):
        img, cloud, _, t = generate_scene(quebec_like_spec(seed))
        extract_buildings(img, cloud, t, SnakeConfig(mode="proposed"))
    assert len(calls) >= 2 * SnakeConfig().max_iters
    for *args, got in calls[::7]:
        assert got == dense_shape_force(*args).tobytes()


@pytest.mark.parametrize("kwargs", [{"delta": 0.0}, {"delta": -1.0}, {"step": 0.0}, {"step": -1.0}])
def test_shape_force_rejects_nonpositive_delta_and_step(kwargs):
    ref = circle(16)
    args = {"delta": 50.0, **kwargs}
    with pytest.raises(ValueError):
        shape_force(ref + 1.0, ref, **args)


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
    """Reference sampler: one 2-D bilinear lookup per force component."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return np.column_stack([_reference_bilinear(force[0], x, y), _reference_bilinear(force[1], x, y)])


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
@pytest.mark.parametrize("values", ["normal", "signed-zeros"])
@pytest.mark.parametrize("shape", [(2, 2), (2, 9), (9, 2), (3, 3), (37, 53), (53, 37)])
def test_sample_force_equals_reference(shape, values):
    h, w = shape
    rng = np.random.default_rng(h * 101 + w)

    def field():
        if values == "normal":
            return rng.normal(0.0, 1.0, shape)
        # Zeros of both signs: at the points (-0.0, 0.0) and (0.0, -0.0) the
        # sign of a zero result shows the sign of the zero weight.
        f = rng.choice([-0.0, 0.0, -1.0, 1.0], shape)
        f.flat[0] = -0.0
        f.flat[1:2] = 1.0
        return f

    force = (field(), field())
    pts = _sample_points(rng, h, w)
    assert sample_force(force, pts).tobytes() == reference_sample_force(force, pts).tobytes()


def test_sample_force_equals_reference_on_non_contiguous_fields():
    rng = np.random.default_rng(8)
    fx = rng.normal(0.0, 1.0, (30, 20)).T
    force = (fx, fx[::-1])
    pts = _sample_points(rng, 20, 30)
    assert sample_force(force, pts).tobytes() == reference_sample_force(force, pts).tobytes()


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1)])
def test_sample_force_rejects_field_under_2x2(shape):
    force = (np.zeros(shape), np.zeros(shape))
    with pytest.raises(ValueError, match="at least 2x2"):
        sample_force(force, np.zeros((3, 2)))


def test_sample_force_extrapolates_linear_field_outside_the_image():
    h, w = 7, 11
    yy, xx = np.mgrid[0:h, 0:w].astype(float)
    force = (0.5 * xx - 2.0 * yy + 3.0, -1.5 * xx + 0.25 * yy - 1.0)
    pts = np.array([[-3.0, 2.0], [-0.5, -0.25], [4.0, -2.5], [w + 2.0, 3.0], [w - 0.5, h + 4.0], [-1e-12, 0.0]])
    x, y = pts[:, 0], pts[:, 1]
    expected = np.column_stack([0.5 * x - 2.0 * y + 3.0, -1.5 * x + 0.25 * y - 1.0])
    assert np.allclose(sample_force(force, pts), expected, rtol=0.0, atol=1e-12)


def test_sample_force_equals_reference_on_preset_contours(quebec_scene, monkeypatch):
    # Every sample of a short gvf-mode run on the bundled scene.
    _, img, cloud, _, t = quebec_scene
    calls = []

    def recording(force, points):
        calls.append((force, points.copy()))
        return sample_force(force, points)

    monkeypatch.setattr(snake_module, "sample_force", recording)
    extract_buildings(img, cloud, t, SnakeConfig(mode="gvf", max_iters=20))
    assert len(calls) >= 20
    for force, pts in calls:
        assert sample_force(force, pts).tobytes() == reference_sample_force(force, pts).tobytes()


def reference_prepare_fields(gray, cfg):
    """Force field as negated and divided copies of the whole-image gradient or GVF field."""
    e_img = reference_image_energy(gray, cfg.w_line, cfg.w_edge, cfg.w_term, cfg.sigma)
    if cfg.mode == "basic":
        ey, ex = np.gradient(e_img)
        fx, fy = -ex, -ey
    else:
        fx, fy, _ = reference_gvf(e_img, mu=cfg.mu, iters=cfg.gvf_iters)
    peak = float(np.hypot(fx, fy).max())
    if peak > 0:
        fx, fy = fx / peak, fy / peak
    return fx, fy


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
    got_x, got_y = prepare_fields(gray, cfg)
    fx, fy = reference_prepare_fields(gray, cfg)
    assert got_x.tobytes() == fx.tobytes()
    assert got_y.tobytes() == fy.tobytes()
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
    got_x, got_y = prepare_fields(gray, cfg)
    fx, fy = reference_prepare_fields(gray, cfg)
    assert got_x.tobytes() == fx.tobytes()
    assert got_y.tobytes() == fy.tobytes()


def test_basic_prepare_fields_peak_memory_is_three_arrays_and_strips():
    # The energy's three arrays, then the energy and its two gradient
    # components, plus one strip block's temporaries each time.
    gray = seam_image(MEM_SHAPE, "random")
    assert traced_peak(prepare_fields, gray, SnakeConfig(mode="basic")) <= 3.5 * ARRAY_BYTES


# ---------------------------------------------------------------------------
# evolve_step


def test_evolve_fixed_point_without_forces():
    cfg = SnakeConfig(alpha=0.0, beta=0.0, gamma=1.0)
    pts = circle(32)
    new = evolve_step(pts, np.zeros_like(pts), cfg)
    assert np.allclose(new, pts, atol=1e-12)


def test_evolve_tension_shrinks_perimeter():
    cfg = SnakeConfig(alpha=0.05, beta=0.0, gamma=1.0)
    rng = np.random.default_rng(11)
    pts = circle(48) + rng.normal(0, 1.0, (48, 2))
    new = evolve_step(pts, np.zeros_like(pts), cfg)
    assert polygon_perimeter(new) < polygon_perimeter(pts)


def test_evolve_circle_stays_circular():
    cfg = SnakeConfig(alpha=0.1, beta=0.0, gamma=1.0)
    pts = circle(64)
    new = evolve_step(pts, np.zeros_like(pts), cfg)
    radii = np.hypot(new[:, 0] - 32, new[:, 1] - 32)
    assert radii.std() / radii.mean() < 0.01


def test_evolve_linear_system_residual():
    cfg = SnakeConfig(alpha=0.01, beta=0.01, gamma=1.0)
    rng = np.random.default_rng(13)
    pts = circle(40) + rng.normal(0, 0.5, (40, 2))
    force = rng.normal(0, 1.0, (40, 2))
    new = evolve_step(pts, force, cfg)
    m = system_matrix(40, cfg.alpha, cfg.beta, cfg.gamma)
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
    for n in range(1, 13):
        assert system_matrix(n, *params).tobytes() == reference_system_matrix(n, *params).tobytes()


def test_system_inverse_equals_dense_inverse_for_every_size():
    for n in range(1, 601):
        m = system_matrix(n, 0.01, 0.01, 1.0)
        inv = system_inverse(n, 0.01, 0.01, 1.0)
        assert np.abs(inv - np.linalg.inv(m)).max() <= 1e-12, n
        assert np.abs(m @ inv - np.eye(n)).max() <= 1e-12, n


@pytest.mark.parametrize("params", SYSTEM_PARAMS[1:])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 32, 151, 600])
def test_system_inverse_equals_dense_inverse_for_other_weights(n, params):
    m = system_matrix(n, *params)
    inv = system_inverse(n, *params)
    # The inverse scales as 1 / gamma; compare relative to its largest entry.
    scale = np.abs(inv).max()
    assert np.abs(inv - np.linalg.inv(m)).max() <= 1e-12 * scale
    assert np.abs(m @ inv - np.eye(n)).max() <= 1e-12


# Weights whose system breaks the eigenvalue bound in floating point: alpha or
# beta overflows the row to inf; gamma = 1e-300 is lost next to alpha and beta,
# so the t = 0 eigenvalue (the row's sum) cancels to 0 or below.
BROKEN_SYSTEM_PARAMS = [(1e308, 0.01, 1.0), (0.01, 1e308, 1.0), (0.01, 0.01, 1e-300)]


@pytest.mark.parametrize("params", BROKEN_SYSTEM_PARAMS)
@pytest.mark.parametrize("n", [1, 2, 5, 32, 177])
def test_system_inverse_rejects_weights_without_a_positive_finite_spectrum(n, params):
    # A ValueError naming the weights, and no RuntimeWarning on the way
    # (pytest turns those into errors).
    alpha, beta, gamma = params
    with pytest.raises(ValueError, match=re.escape(f"alpha={alpha!r}, beta={beta!r} and gamma={gamma!r} ")):
        system_inverse(n, *params)


def test_evolve_step_default_inverse_is_the_closed_form():
    cfg = SnakeConfig()
    rng = np.random.default_rng(5)
    pts = circle(45) + rng.normal(0, 0.5, (45, 2))
    force = rng.normal(0, 1.0, (45, 2))
    inv = system_inverse(45, cfg.alpha, cfg.beta, cfg.gamma)
    assert evolve_step(pts, force, cfg).tobytes() == evolve_step(pts, force, cfg, inv).tobytes()


# ---------------------------------------------------------------------------
# resampling


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
