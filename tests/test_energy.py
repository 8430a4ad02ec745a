from __future__ import annotations

import numpy as np
import pytest

from buildsnake.config import SnakeConfig
from buildsnake.energy import (
    STRIP_ELEMS,
    _laplacian,
    compute_gvf,
    gvf_residual,
    image_energy,
    image_energy_terms,
)
from buildsnake.raster import gaussian_smooth, gradient
from buildsnake.synthetic import generate_scene, quebec_like_spec


def blurred_step(height=40.0, sigma=3.0, size=48):
    img = np.zeros((size, size))
    img[:, size // 2 :] = height
    return gaussian_smooth(img, sigma)


# ---------------------------------------------------------------------------
# image energy terms


def test_edge_term_zero_on_constant_image():
    _, e_edge, _ = image_energy_terms(np.full((16, 16), 77.0), 2.0)
    assert np.allclose(e_edge, 0.0)


def test_edge_term_most_negative_at_step():
    img = np.zeros((32, 48))
    img[:, 24:] = 100.0
    _, e_edge, _ = image_energy_terms(img, 2.0)
    col = int(np.argmin(e_edge[16]))
    assert abs(col - 23.5) <= 1.0
    assert e_edge.min() < -1.0


def test_termination_peaks_at_corner_on_strong_edges():
    # Level-line curvature is only meaningful where the gradient is alive;
    # on the strong-edge band it must peak at the corner, and vanish on
    # straight edge segments.
    sigma = 2.0
    img = np.full((64, 64), 50.0)
    img[32:, 32:] = 200.0
    _, _, e_term = image_energy_terms(img, sigma)
    c = gaussian_smooth(img, sigma)
    cx, cy = gradient(c)
    mag = np.hypot(cx, cy)
    band = mag >= 0.5 * mag.max()
    i, j = np.unravel_index(np.argmax(np.where(band, np.abs(e_term), 0.0)), e_term.shape)
    assert np.hypot(i - 32, j - 32) <= 2 * sigma
    assert abs(e_term[32, 50]) < 1e-12  # straight edge: zero curvature


def test_image_energy_weighted_range():
    rng = np.random.default_rng(2)
    img = rng.uniform(0, 255, (40, 40))
    e = image_energy(img, w_line=0.04, w_edge=2.0, w_term=0.01, sigma=2.0)
    assert e.min() >= 0.0
    assert e.max() <= 0.04 + 2.0 + 0.01 + 1e-12


def test_image_energy_constant_image_is_zero():
    e = image_energy(np.full((20, 20), 10.0), sigma=2.0)
    assert np.allclose(e, 0.0)


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
    fx, fy = gradient(f)
    mag = np.hypot(fx, fy)
    strong = mag >= 0.5 * mag.max()
    rel = np.hypot(field.u - fx, field.v - fy)[strong] / mag[strong]
    assert rel.max() <= 0.05


def test_gvf_residual_at_convergence(step_gvf):
    f, e_img, field = step_gvf
    fx, fy = gradient(f)
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
    fx, _ = gradient(f)
    # 20 px left of the edge: raw force negligible, GVF force positive (+x).
    assert abs(fx[32, 12]) < 1e-3
    assert field.u[32, 12] > 1e-4


def test_gvf_rejects_bad_mu():
    with pytest.raises(ValueError):
        compute_gvf(np.zeros((8, 8)), mu=0.0, iters=10)


# ---------------------------------------------------------------------------
# GVF solve against its whole-image reference


def reference_gvf(e_img, mu=0.2, iters=200, residual_factor=1e-4):
    """Reference GVF solve: whole-image Jacobi steps through np.pad temporaries.

    Returns (u, v, iters) of the same explicit scheme as compute_gvf.
    """
    f = -np.asarray(e_img, dtype=float)
    fx, fy = gradient(f)
    g = fx * fx + fy * fy
    u = fx.copy()
    v = fy.copy()
    dt = 1.9 / (8.0 * mu + float(g.max()))
    tol = residual_factor * float(np.sqrt(g.max()))
    done = 0
    for done in range(1, iters + 1):
        ru = mu * _laplacian(u) - (u - fx) * g
        rv = mu * _laplacian(v) - (v - fy) * g
        u += dt * ru
        v += dt * rv
        if max(np.abs(ru).max(), np.abs(rv).max()) < tol:
            break
    return u, v, done


def assert_gvf_matches_reference(e_img, **kwargs):
    field = compute_gvf(e_img, **kwargs)
    u, v, done = reference_gvf(e_img, **kwargs)
    assert field.iters == done
    assert field.u.tobytes() == u.tobytes()
    assert field.v.tobytes() == v.tobytes()
    return field


# (H, W): the smallest fields, one strip per row (W > STRIP_ELEMS), H not a
# multiple of the strip height, a single strip, and a tall narrow field.
GVF_ORACLE_SHAPES = [
    (3, 3),
    (3, 41),
    (41, 3),
    (4, STRIP_ELEMS + 5),
    (37, 1000),
    (23, 29),
    (1500, 16),
]


@pytest.mark.parametrize("shape", GVF_ORACLE_SHAPES)
@pytest.mark.parametrize("iters", [1, 9])
def test_gvf_equals_reference(shape, iters):
    rng = np.random.default_rng(shape[0] * 7919 + shape[1])
    e_img = rng.normal(0.0, 1.0, shape)
    assert_gvf_matches_reference(e_img, mu=0.2, iters=iters)


def test_gvf_equals_reference_at_early_stop():
    # A large residual factor makes the stop test fire well before the cap.
    e_img = blurred_step(size=40) + np.random.default_rng(4).normal(0.0, 0.5, (40, 40))
    field = assert_gvf_matches_reference(e_img, mu=0.2, iters=400, residual_factor=0.05)
    assert 1 < field.iters < 400


def test_gvf_equals_reference_on_preset_energy():
    # The bundled scene's energy at the operating point: all 200 iterations.
    img = generate_scene(quebec_like_spec(seed=7))[0]
    cfg = SnakeConfig()
    e_img = image_energy(img, cfg.w_line, cfg.w_edge, cfg.w_term, cfg.sigma)
    field = assert_gvf_matches_reference(e_img, mu=cfg.mu, iters=cfg.gvf_iters)
    assert field.iters == cfg.gvf_iters


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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_gvf_rejects_overflowing_gradient():
    # Finite energy whose squared gradient overflows: dt would be 0 and the
    # residual NaN, which the stop test would read as converged.
    with pytest.raises(ValueError, match="overflows"):
        compute_gvf(blurred_step() * 1e300, iters=5)
