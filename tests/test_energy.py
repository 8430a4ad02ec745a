from __future__ import annotations

import threading

import numpy as np
import pytest

from buildsnake import energy
from buildsnake.config import SnakeConfig
from buildsnake.energy import (
    TERM_EPS,
    compute_gvf,
    edge_force,
    gvf_residual,
    image_energy,
)
from buildsnake.raster import STRIP_ELEMS, gaussian_smooth, row_strips
from buildsnake.synthetic import generate_scene, quebec_like_spec
from conftest import traced_peak
from test_raster import SEAM_CASES, STRIP_SEAM_SHAPES, seam_image


def blurred_step(height=40.0, sigma=3.0, size=48):
    img = np.zeros((size, size))
    img[:, size // 2 :] = height
    return gaussian_smooth(img, sigma)


# ---------------------------------------------------------------------------
# image energy terms, each alone: the other two weights are 0, so the
# energy is the term min-max normalized to [0, 1]


def test_edge_term_zero_on_constant_image():
    e = image_energy(np.full((16, 16), 77.0), w_line=0.0, w_edge=1.0, w_term=0.0, sigma=2.0)
    assert np.allclose(e, 0.0)


def test_edge_term_most_negative_at_step():
    img = np.zeros((32, 48))
    img[:, 24:] = 100.0
    e = image_energy(img, w_line=0.0, w_edge=1.0, w_term=0.0, sigma=2.0)
    col = int(np.argmin(e[16]))
    assert abs(col - 23.5) <= 1.0
    # The term's minimum, -|grad C|^2, sits on the step, and its maximum, 0,
    # on the flat sides.
    assert e[16, col] == e.min() == 0.0
    assert e[16, 0] == e.max() == 1.0


def test_termination_peaks_at_corner_on_strong_edges():
    # Level-line curvature is only meaningful where the gradient is alive;
    # on the strong-edge band it must peak at the corner, and vanish on
    # straight edge segments. Zero curvature normalizes to the value of the
    # flat corner far from both edges.
    sigma = 2.0
    img = np.full((64, 64), 50.0)
    img[32:, 32:] = 200.0
    e = image_energy(img, w_line=0.0, w_edge=0.0, w_term=1.0, sigma=sigma)
    curvature = e - e[0, 0]
    c = gaussian_smooth(img, sigma)
    cy, cx = np.gradient(c)
    mag = np.hypot(cx, cy)
    band = mag >= 0.5 * mag.max()
    i, j = np.unravel_index(np.argmax(np.where(band, np.abs(curvature), 0.0)), e.shape)
    assert np.hypot(i - 32, j - 32) <= 2 * sigma
    assert abs(curvature[32, 50]) < 1e-12  # straight edge: zero curvature


def test_image_energy_weighted_range():
    rng = np.random.default_rng(2)
    img = rng.uniform(0, 255, (40, 40))
    e = image_energy(img, w_line=0.04, w_edge=2.0, w_term=0.01, sigma=2.0)
    assert e.min() >= 0.0
    assert e.max() <= 0.04 + 2.0 + 0.01 + 1e-12


def test_image_energy_constant_image_is_zero():
    e = image_energy(np.full((20, 20), 10.0), sigma=2.0)
    assert np.allclose(e, 0.0)


def reference_image_energy_terms(gray, sigma):
    """The energy terms as whole-image expressions, one temporary per operation."""
    c = gaussian_smooth(gray, sigma)
    cy, cx = np.gradient(c)
    cxy, cxx = np.gradient(cx)
    cyy, _ = np.gradient(cy)
    grad_sq = cx * cx + cy * cy
    e_term = (cyy * cx * cx - 2.0 * cxy * cx * cy + cxx * cy * cy) / (grad_sq**1.5 + TERM_EPS)
    return c, -grad_sq, e_term


def _reference_minmax(field):
    lo, hi = field.min(), field.max()
    if hi - lo <= 0:
        return np.zeros_like(field)
    return (field - lo) / (hi - lo)


def reference_image_energy(gray, w_line=0.04, w_edge=2.0, w_term=0.01, sigma=10.0):
    """The weighted energy as one whole-image expression of normalized copies."""
    e_line, e_edge, e_term = reference_image_energy_terms(gray, sigma)
    return w_line * _reference_minmax(e_line) + w_edge * _reference_minmax(e_edge) + w_term * _reference_minmax(e_term)


def reference_edge_force(e_img):
    """(f_x, f_y, g) of f = -e_img from whole-image np.gradient, on 3x3 or larger."""
    f = -np.asarray(e_img, dtype=float)
    if f.ndim != 2 or min(f.shape) < 3:
        raise ValueError("image must be at least 3x3 for gradients")
    fy, fx = np.gradient(f)
    return fx, fy, fx * fx + fy * fy


@pytest.mark.parametrize("case", SEAM_CASES)
@pytest.mark.parametrize("shape", STRIP_SEAM_SHAPES)
def test_image_energy_equals_reference_at_strip_seams(shape, case):
    gray = seam_image(shape, case)
    for weights in [(0.04, 2.0, 0.01), (-0.5, 0.0, 3.0)]:
        got = image_energy(gray, *weights, sigma=2.0)
        assert got.tobytes() == reference_image_energy(gray, *weights, sigma=2.0).tobytes()


@pytest.mark.parametrize("case", SEAM_CASES)
@pytest.mark.parametrize("shape", STRIP_SEAM_SHAPES)
def test_edge_force_equals_reference_at_strip_seams(shape, case):
    # Signed zeros included: f is negated before its gradient is taken.
    e_img = seam_image(shape, case) - 128.0
    f_x, f_y, g, g_max = energy._gvf_forces(e_img)
    fx, fy, g_ref = reference_edge_force(e_img)
    assert f_x.tobytes() == fx.tobytes()
    assert f_y.tobytes() == fy.tobytes()
    assert g.tobytes() == g_ref.tobytes()
    assert g_max == g_ref.max()


@pytest.mark.parametrize("sigma", [2.0, 10.0])
@pytest.mark.parametrize("case", SEAM_CASES)
@pytest.mark.parametrize("shape", STRIP_SEAM_SHAPES)
def test_two_pass_image_energy_equals_reference_at_strip_seams(shape, case, sigma):
    # image_energy's second pass recomputes the edge term on one-halo-row
    # blocks and weighs and sums each strip; the one-row strips at
    # W = STRIP_ELEMS + 3 put every row on a seam.
    gray = seam_image(shape, case)
    for weights in [(0.04, 2.0, 0.01), (-0.5, 0.0, 3.0)]:
        got = image_energy(gray, *weights, sigma=sigma)
        assert got.tobytes() == reference_image_energy(gray, *weights, sigma=sigma).tobytes()


@pytest.mark.parametrize("case", SEAM_CASES)
@pytest.mark.parametrize("shape", STRIP_SEAM_SHAPES)
def test_edge_force_into_its_own_input_equals_reference_at_strip_seams(shape, case):
    # f_x overwrites e_img strip by strip, so each strip's upper halo row must
    # come from the kept copy of the row above, not from e_img's buffer.
    e_img = seam_image(shape, case)
    e_img -= 128.0  # in place: the strided case stays a strided view
    fx, fy, _ = reference_edge_force(e_img)
    f_x, f_y = edge_force(e_img, out=e_img)
    assert f_x is e_img
    assert f_x.tobytes() == fx.tobytes()
    assert f_y.tobytes() == fy.tobytes()


@pytest.mark.parametrize("out", [np.empty((5, 6)), np.empty((6, 5), dtype=np.float32), np.empty((6, 5), dtype=int)])
def test_edge_force_rejects_an_out_of_another_shape_or_dtype(out):
    with pytest.raises(ValueError, match="out must be a float64 array of shape"):
        edge_force(np.zeros((6, 5)), out=out)


# The public entry points read their input and never write it: the benchmark
# tracer takes the GVF residual from the e_img that compute_gvf was given.


def test_edge_force_leaves_its_input_untouched():
    e_img = seam_image(MEM_SHAPE, "random")
    before = e_img.tobytes()
    edge_force(e_img)
    assert e_img.tobytes() == before


def test_compute_gvf_leaves_its_input_untouched():
    e_img = seam_image(MEM_SHAPE, "random")
    before = e_img.tobytes()
    compute_gvf(e_img, 0.2, 2)
    assert e_img.tobytes() == before


@pytest.mark.parametrize("dtype", [float, np.uint8])
def test_image_energy_leaves_its_input_untouched(dtype):
    gray = seam_image(MEM_SHAPE, "random").astype(dtype)
    before = gray.tobytes()
    image_energy(gray, sigma=2.0)
    assert gray.tobytes() == before


def test_preset_energy_equals_reference():
    img = generate_scene(quebec_like_spec(seed=7))[0]
    cfg = SnakeConfig()
    got = image_energy(img, cfg.w_line, cfg.w_edge, cfg.w_term, cfg.sigma)
    assert got.tobytes() == reference_image_energy(img, cfg.w_line, cfg.w_edge, cfg.w_term, cfg.sigma).tobytes()


# ---------------------------------------------------------------------------
# peak memory, as tracemalloc counts numpy's buffers

MEM_SHAPE = (600, 500)
ARRAY_BYTES = MEM_SHAPE[0] * MEM_SHAPE[1] * 8  # one full float64 array


def test_image_energy_peak_memory_is_two_arrays_and_strips():
    # The smoothed image and the energy, plus one strip block's temporaries
    # (about 0.46 arrays at this size); the whole-image form held about
    # eight arrays, and three whole-image terms gave 3.41.
    gray = seam_image(MEM_SHAPE, "random")
    assert traced_peak(image_energy, gray) <= 2.5 * ARRAY_BYTES


def test_edge_force_peak_memory_is_its_outputs_and_strips():
    # f_x, f_y and g only: no whole-image copy of f or of its gradient.
    e_img = seam_image(MEM_SHAPE, "random")
    assert traced_peak(energy._gvf_forces, e_img) <= 3.5 * ARRAY_BYTES


def test_gvf_peak_memory_is_its_fields_and_strip_buffers():
    # f_x, f_y, g, u and v, five arrays, plus the one padded window and two
    # strip buffers that u and v share, and the buffers numpy's ufunc
    # iterator takes for the step's two strided window operands (bufsize
    # elements each): no f copy lives past the edge force.
    e_img = seam_image(MEM_SHAPE, "random")
    h, w = strip_rows(MEM_SHAPE[1]), MEM_SHAPE[1]
    buffer_bytes = ((h + 2) * (w + 2) + 2 * h * w) * 8 + 2 * np.getbufsize() * 8
    assert traced_peak(compute_gvf, e_img, 0.2, 2) <= 5 * ARRAY_BYTES + buffer_bytes + 0.05 * ARRAY_BYTES


# ---------------------------------------------------------------------------
# GVF


def test_gvf_zero_on_constant_image():
    field = compute_gvf(np.full((24, 24), 3.0), mu=0.2, iters=50)
    assert np.allclose(field.u, 0.0) and np.allclose(field.v, 0.0)


@pytest.fixture(scope="module")
def step_gvf():
    f = blurred_step()
    e_img = -f
    return f, e_img, compute_gvf(e_img, mu=0.2, iters=50_000)


def test_gvf_step_edge_matches_gradient_where_strong(step_gvf):
    f, _, field = step_gvf
    fy, fx = np.gradient(f)
    mag = np.hypot(fx, fy)
    strong = mag >= 0.5 * mag.max()
    rel = np.hypot(field.u - fx, field.v - fy)[strong] / mag[strong]
    assert rel.max() <= 0.05


def test_gvf_residual_at_convergence(step_gvf):
    f, e_img, field = step_gvf
    fy, fx = np.gradient(f)
    g = fx * fx + fy * fy
    assert gvf_residual(field, e_img) <= 1e-3 * g.max()


def test_gvf_disk_field_points_inward():
    yy, xx = np.mgrid[0:64, 0:64]
    disk = (np.hypot(xx - 32, yy - 32) <= 12).astype(float) * 100.0
    e_img = image_energy(disk, sigma=3.0)
    field = compute_gvf(e_img, mu=0.2, iters=8000)
    rr = np.hypot(xx - 32, yy - 32)
    annulus = (rr >= 17) & (rr <= 23)
    inward = -((xx - 32) * field.u + (yy - 32) * field.v)
    assert (inward[annulus] > 0).mean() >= 0.95


def test_gvf_extends_capture_range():
    # Far from the edge the raw gradient is ~zero but GVF still points
    # toward it: that is the entire point of the diffusion.
    f = blurred_step(height=40.0, sigma=2.0, size=64)
    e_img = -f
    field = compute_gvf(e_img, mu=0.2, iters=20_000)
    _, fx = np.gradient(f)
    # 20 px left of the edge: raw force negligible, GVF force positive (+x).
    assert abs(fx[32, 12]) < 1e-3
    assert field.u[32, 12] > 1e-4


@pytest.mark.parametrize("mu", [0.0, -0.2, np.nan, np.inf, -np.inf])
def test_gvf_rejects_non_positive_or_non_finite_mu(mu):
    # A NaN mu would give an all-NaN field that the stop test reads as converged.
    with pytest.raises(ValueError, match="^mu must be "):
        compute_gvf(np.zeros((8, 8)), mu=mu, iters=10)


# ---------------------------------------------------------------------------
# GVF solve against its whole-image reference


def _laplacian(f):
    """5-point Laplacian with edge-replicated borders."""
    p = np.pad(f, 1, mode="edge")
    return p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * f


def reference_residual(u, v, fx, fy, g, mu):
    """Whole-image GVF residuals (ru, rv) = mu lap(w) - (w - f) g."""
    return mu * _laplacian(u) - (u - fx) * g, mu * _laplacian(v) - (v - fy) * g


def reference_gvf(e_img, mu=0.2, iters=200, residual_factor=1e-4):
    """Reference GVF solve: whole-image Jacobi steps through np.pad temporaries.

    Returns (u, v, iters) of the same explicit scheme as compute_gvf.
    """
    fx, fy, g = reference_edge_force(e_img)
    u = fx.copy()
    v = fy.copy()
    dt = 1.9 / (8.0 * mu + float(g.max()))
    tol = residual_factor * float(np.sqrt(g.max()))
    done = 0
    for done in range(1, iters + 1):
        ru, rv = reference_residual(u, v, fx, fy, g, mu)
        u += dt * ru
        v += dt * rv
        if max(np.abs(ru).max(), np.abs(rv).max()) < tol:
            break
    return u, v, done


def spy_steps(monkeypatch, before_step=None):
    """Records each one-component GVF step, calling before_step("u" or "v")
    ahead of it if given; returns the list that collects "u" or "v" for each
    such step, in the order they ran."""
    ran = []
    components = {}  # id of f_x or f_y -> "u" or "v"
    gvf_forces, step = energy._gvf_forces, energy._step

    def gvf_forces_spy(e_img):
        f_x, f_y, g, g_max = gvf_forces(e_img)
        components[id(f_x)], components[id(f_y)] = "u", "v"
        return f_x, f_y, g, g_max

    def step_spy(field, f, *args):
        ran.append(components[id(f)])
        if before_step is not None:
            before_step(components[id(f)])
        return step(field, f, *args)

    monkeypatch.setattr(energy, "_gvf_forces", gvf_forces_spy)
    monkeypatch.setattr(energy, "_step", step_spy)
    return ran


def assert_gvf_matches_reference(monkeypatch, e_img, **kwargs):
    """compute_gvf against reference_gvf, byte for byte, with u and then v stepped each step."""
    u, v, done = reference_gvf(e_img, **kwargs)
    ran = spy_steps(monkeypatch)
    field = compute_gvf(e_img, **kwargs)
    monkeypatch.undo()
    assert ran == ["u", "v"] * done
    assert field.iters == done
    assert field.u.tobytes() == u.tobytes()
    assert field.v.tobytes() == v.tobytes()
    return field


def strip_rows(w):
    """Rows per `raster.row_strips` strip, and so per GVF step strip, of a field `w` px wide."""
    return row_strips((STRIP_ELEMS, w), 0)[0][0].stop


ROWS = strip_rows(1000)  # strip height of a field 1000 px wide

# (H, W), from the solver's strip height: the smallest fields; a single strip
# under and at the strip height; two strips, the second partial and then
# full; a one-row last strip; H not a multiple of the strip height, six
# strips; one row per strip (W > strip size), four strips and then three; one
# row per strip at W == strip size; four-row strips with a one-row last strip;
# and a tall narrow field.
GVF_ORACLE_SHAPES = [
    (3, 3),
    (3, 41),
    (41, 3),
    (23, 29),
    (ROWS - 1, 1000),
    (ROWS, 1000),
    (ROWS + 7, 1000),
    (2 * ROWS, 1000),
    (2 * ROWS + 1, 1000),
    (5 * ROWS + 13, 1000),
    (4, STRIP_ELEMS + 5),
    (3, STRIP_ELEMS + 5),
    (3, STRIP_ELEMS),
    (9, STRIP_ELEMS // 4),
    (2 * strip_rows(16) + 3, 16),
]


def test_gvf_oracle_shapes_cover_the_strip_layouts():
    layouts = []  # (H, W, rows per strip, strips)
    for h, w in GVF_ORACLE_SHAPES:
        strips = row_strips((h, w), 0)
        layouts.append((h, w, strip_rows(w), len(strips)))
    assert any(strips > 2 and h % rows == 1 and rows > 1 for h, w, rows, strips in layouts)
    assert any(strips == 2 and h % rows == 0 for h, w, rows, strips in layouts)
    assert any(w > STRIP_ELEMS and strips > 2 for h, w, rows, strips in layouts)
    assert any(strips == 1 and h > 3 for h, w, rows, strips in layouts)


@pytest.mark.parametrize("shape", GVF_ORACLE_SHAPES)
@pytest.mark.parametrize("iters", [1, 9])
def test_gvf_equals_reference(shape, iters, monkeypatch):
    rng = np.random.default_rng(shape[0] * 7919 + shape[1])
    e_img = rng.normal(0.0, 1.0, shape)
    assert_gvf_matches_reference(monkeypatch, e_img, mu=0.2, iters=iters)


def test_gvf_equals_reference_at_early_stop(monkeypatch):
    # A large residual factor makes the stop test fire well before the cap,
    # on a single strip and on four strips.
    for shape in [(40, 40), (3 * ROWS + 4, 1000)]:
        step = np.zeros(shape)
        step[:, shape[1] // 2 :] = 40.0
        e_img = gaussian_smooth(step, 3.0) + np.random.default_rng(4).normal(0.0, 0.5, shape)
        field = assert_gvf_matches_reference(monkeypatch, e_img, mu=0.2, iters=400, residual_factor=0.05)
        assert 1 < field.iters < 400


def test_gvf_equals_reference_at_early_stop_with_flat_top_strips(monkeypatch):
    # Rows 0-39 are flat, so in the first steps the top strip's residual is
    # below the tolerance while the textured strips below it are above: the
    # stop test must still read every strip until one reaches the tolerance.
    e_img = np.zeros((80, 1000))
    e_img[40:] = np.random.default_rng(5).normal(0.0, 0.5, (40, 1000))
    assert strip_rows(1000) < 40
    field = assert_gvf_matches_reference(monkeypatch, e_img, mu=0.2, iters=400, residual_factor=0.02)
    assert 1 < field.iters < 400


@pytest.mark.parametrize("flat", ["u", "v"])
def test_gvf_equals_reference_at_early_stop_with_a_flat_component(flat, monkeypatch):
    # An energy constant along x (flat u) or along y (flat v): the flat
    # component's residual is 0 from the first step, while the other one's
    # still reaches the tolerance and skips the rest of its reduction; the
    # solve must run on until both are below.
    shape = (4 * ROWS, 1000)
    axis = 1 if flat == "u" else 0
    profile = np.random.default_rng(6).normal(0.0, 0.5, shape[1 - axis])
    e_img = np.broadcast_to(np.expand_dims(profile, axis), shape).copy()
    f_x, f_y, _ = reference_edge_force(e_img)
    assert not (f_x if flat == "u" else f_y).any()
    field = assert_gvf_matches_reference(monkeypatch, e_img, mu=0.2, iters=400, residual_factor=0.02)
    assert 1 < field.iters < 400


def test_gvf_equals_reference_on_preset_energy(monkeypatch):
    # The bundled scene's energy at the operating point: all 200 iterations.
    img = generate_scene(quebec_like_spec(seed=7))[0]
    cfg = SnakeConfig()
    e_img = image_energy(img, cfg.w_line, cfg.w_edge, cfg.w_term, cfg.sigma)
    field = assert_gvf_matches_reference(monkeypatch, e_img, mu=cfg.mu, iters=cfg.gvf_iters)
    assert field.iters == cfg.gvf_iters


@pytest.mark.parametrize("shape", [(3, 3), (5, 7), (40, 33), (3, 20000), (300, 70), (2 * ROWS + 1, 1000)])
@pytest.mark.parametrize("iters", [0, 3])
def test_gvf_residual_equals_reference_over_all_pixels(shape, iters, monkeypatch):
    # The residual of the solver's stop test, border pixels included, and
    # the field it is taken of stays as it was.
    rng = np.random.default_rng(shape[0] * 131 + shape[1])
    e_img = rng.normal(0.0, 1.0, shape)
    field = compute_gvf(e_img, mu=0.3, iters=iters)
    u, v = field.u.copy(), field.v.copy()
    ru, rv = reference_residual(u, v, *reference_edge_force(e_img), 0.3)
    ran = spy_steps(monkeypatch)
    got = gvf_residual(field, e_img)
    monkeypatch.undo()
    assert ran == ["u", "v"]
    assert got == max(np.abs(ru).max(), np.abs(rv).max())
    assert field.u.tobytes() == u.tobytes()
    assert field.v.tobytes() == v.tobytes()


@pytest.mark.parametrize("shape", [(50, 40), (25, 80)])
def test_gvf_residual_rejects_energy_of_another_shape(shape, monkeypatch):
    field = compute_gvf(np.random.default_rng(8).normal(0.0, 1.0, (40, 50)), iters=2)

    def no_step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(energy, "_step", no_step)
    with pytest.raises(ValueError, match=r"\(%d, %d\).*\(40, 50\)" % shape):
        gvf_residual(field, np.zeros(shape))


class StepFailure(Exception):
    pass


@pytest.mark.parametrize("failing", ["u", "v"])
def test_gvf_step_failure_propagates_and_starts_no_thread(failing, monkeypatch):
    # A component step that raises on its third call, u's or v's, ends the
    # solve with that exception: no later step runs, and no thread is left
    # running, as the solve starts none.
    calls = []

    def fail_third(component):
        if component == failing:
            calls.append(component)
            if len(calls) == 3:
                raise StepFailure(failing)

    ran = spy_steps(monkeypatch, fail_third)
    e_img = np.random.default_rng(9).normal(0.0, 1.0, (2 * ROWS, 1000))
    before = threading.active_count()
    with pytest.raises(StepFailure, match=failing):
        compute_gvf(e_img, iters=9)
    assert len(calls) == 3
    assert ran == ["u", "v"] * 2 + ["u", "v"][: 1 + (failing == "v")]
    assert threading.active_count() == before


@pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (2, 9)])
def test_gvf_rejects_fields_too_small_for_gradients(shape):
    with pytest.raises(ValueError):
        compute_gvf(np.zeros(shape), iters=3)
    with pytest.raises(ValueError):
        reference_gvf(np.zeros(shape), iters=3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [(0, 0), (12, 30), (47, 47)])
def test_gvf_rejects_non_finite_energy(bad, where):
    e_img = blurred_step()
    e_img[where] = bad
    with pytest.raises(ValueError, match="finite"):
        compute_gvf(e_img, iters=5)


def test_gvf_rejects_overflowing_gradient():
    # Finite energy whose squared gradient overflows: dt would be 0 and the
    # residual NaN, which the stop test would read as converged.
    with pytest.raises(ValueError, match="overflows"):
        compute_gvf(blurred_step() * 1e300, iters=5)
