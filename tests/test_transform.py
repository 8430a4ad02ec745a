from __future__ import annotations

import numpy as np
import pytest

from buildsnake.transform import AffineTransform2D, fit_least_squares


def test_apply_identity():
    t = AffineTransform2D.identity()
    assert t.apply((3.0, 4.0)) == pytest.approx((3.0, 4.0))


def test_apply_translation():
    t = AffineTransform2D(1, 0, 0, 1, 1.0, 2.0)
    assert t.apply((0.0, 0.0)) == pytest.approx((1.0, 2.0))


def test_apply_rotation_90():
    c, s = np.cos(np.pi / 2), np.sin(np.pi / 2)
    t = AffineTransform2D(c, -s, s, c, 0.0, 0.0)
    out = t.apply((1.0, 0.0))
    assert out == pytest.approx((0.0, 1.0), abs=1e-12)


def test_apply_array_identity_shift_scale():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    assert np.allclose(AffineTransform2D.identity().apply(pts), pts)
    assert np.allclose(AffineTransform2D(1, 0, 0, 1, 5.0, -3.0).apply(pts), pts + [5.0, -3.0])
    scaled = AffineTransform2D(2, 0, 0, 2, 0, 0).apply(pts)
    d0 = np.linalg.norm(pts[0] - pts[1])
    d1 = np.linalg.norm(scaled[0] - scaled[1])
    assert d1 == pytest.approx(2 * d0)


def test_singular_transform_rejected():
    with pytest.raises(ValueError):
        AffineTransform2D(1, 2, 2, 4, 0, 0)


def test_line_round_trip():
    t = AffineTransform2D(1.5, -0.25, 0.25, 1.5, 10.0, -3.5)
    again = AffineTransform2D.from_line(t.to_line())
    assert again == t
    with pytest.raises(ValueError):
        AffineTransform2D.from_line("1 2 3")


def test_fit_recovers_exact_affine():
    truth = AffineTransform2D(2.0, 0.5, -0.3, 1.7, 12.0, -4.0)
    src = np.array([[0.0, 0.0], [10.0, 1.0], [3.0, 8.0]])
    pairs = [(s, truth.apply(s)) for s in src]
    fit = fit_least_squares(pairs)
    for name in ("a", "b", "c", "d", "tx", "ty"):
        assert getattr(fit, name) == pytest.approx(getattr(truth, name), abs=1e-9)


def test_fit_identity_pairs():
    src = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [3.0, 4.0]])
    fit = fit_least_squares([(s, s) for s in src])
    assert (fit.a, fit.b, fit.c, fit.d, fit.tx, fit.ty) == pytest.approx(
        (1, 0, 0, 1, 0, 0), abs=1e-12
    )


def test_fit_noisy_pairs_rms_bound():
    rng = np.random.default_rng(19)
    truth = AffineTransform2D(1.0 / 0.15, 0, 0, 1.0 / 0.15, 3.0, -2.0)
    src = rng.uniform(0, 60, (20, 2))
    dst = truth.apply(src) + rng.normal(0, 0.1, (20, 2))
    fit = fit_least_squares(list(zip(src, dst)))
    resid = fit.apply(src) - dst
    rms = float(np.sqrt((resid**2).mean()))
    assert rms <= 0.2


def test_fit_residuals_orthogonal_to_design():
    rng = np.random.default_rng(23)
    src = rng.uniform(-5, 5, (12, 2))
    dst = rng.uniform(-5, 5, (12, 2))
    fit = fit_least_squares(list(zip(src, dst)))
    design = np.column_stack([src[:, 0], src[:, 1], np.ones(len(src))])
    resid = dst - fit.apply(src)
    normal = design.T @ resid
    assert np.abs(normal).max() < 1e-9


def test_fit_translation_equivariance():
    rng = np.random.default_rng(29)
    src = rng.uniform(0, 10, (8, 2))
    dst = rng.uniform(0, 10, (8, 2))
    base = fit_least_squares(list(zip(src, dst)))
    shift = np.array([7.0, -2.0])
    moved = fit_least_squares(list(zip(src + shift, dst)))
    assert (moved.a, moved.b, moved.c, moved.d) == pytest.approx(
        (base.a, base.b, base.c, base.d), abs=1e-9
    )
    expected_t = np.array([base.tx, base.ty]) - np.array(
        [[base.a, base.b], [base.c, base.d]]
    ) @ shift
    assert (moved.tx, moved.ty) == pytest.approx(tuple(expected_t), abs=1e-9)


def test_fit_rejects_collinear():
    src = [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]
    with pytest.raises(ValueError):
        fit_least_squares([(s, s) for s in src])
    with pytest.raises(ValueError):
        fit_least_squares([((0, 0), (0, 0)), ((1, 1), (1, 1))])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_values_rejected(bad):
    for k in range(6):
        coef = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
        coef[k] = bad
        with pytest.raises(ValueError, match="transform coefficients must be finite"):
            AffineTransform2D(*coef)
    pairs = [((0.0, 0.0), (0.0, 0.0)), ((1.0, 0.0), (1.0, 0.0)), ((0.0, 1.0), (0.0, 1.0))]
    for k in range(3):
        for side in range(2):
            for axis in range(2):
                bad_pairs = [[list(p) for p in pair] for pair in pairs]
                bad_pairs[k][side][axis] = bad
                with pytest.raises(ValueError, match="correspondences must be finite"):
                    fit_least_squares(bad_pairs)
