"""Image energy and gradient vector flow fields for contour evolution."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .raster import gaussian_smooth, gradient

__all__ = ["GvfField", "image_energy", "image_energy_terms", "compute_gvf", "gvf_residual"]

# Regularizer for the termination-term denominator on flat regions.
TERM_EPS = 1e-6

# Pixels per field in one row strip of the GVF solve, so that the strip's
# fields and buffers stay in L2 cache. Of 4k to 64k, 16k measured fastest.
STRIP_ELEMS = 16384


@dataclass
class GvfField:
    """Per-pixel external force field (u, v) with its solver settings."""

    u: np.ndarray
    v: np.ndarray
    mu: float
    iters: int


def image_energy_terms(gray: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw (un-normalized) line, edge and termination energies.

    With C the sigma-smoothed image: line = C, edge = -|grad C|^2, and
    termination = level-set curvature of C.
    """
    c = gaussian_smooth(gray, sigma)
    cx, cy = gradient(c)
    cxx, cxy = gradient(cx)
    _, cyy = gradient(cy)
    e_line = c
    grad_sq = cx * cx + cy * cy
    e_edge = -grad_sq
    e_term = (cyy * cx * cx - 2.0 * cxy * cx * cy + cxx * cy * cy) / (
        grad_sq**1.5 + TERM_EPS
    )
    return e_line, e_edge, e_term


def _minmax(field: np.ndarray) -> np.ndarray:
    lo, hi = field.min(), field.max()
    if hi - lo <= 0:
        return np.zeros_like(field)
    return (field - lo) / (hi - lo)


def image_energy(
    gray: np.ndarray,
    w_line: float = 0.04,
    w_edge: float = 2.0,
    w_term: float = 0.01,
    sigma: float = 10.0,
) -> np.ndarray:
    """Weighted image energy; each term is min-max normalized to [0, 1] first.

    Normalization makes the published weights meaningful across images with
    different dynamic ranges.
    """
    e_line, e_edge, e_term = image_energy_terms(gray, sigma)
    return w_line * _minmax(e_line) + w_edge * _minmax(e_edge) + w_term * _minmax(e_term)


def _laplacian(f: np.ndarray) -> np.ndarray:
    """5-point Laplacian with edge-replicated borders."""
    p = np.pad(f, 1, mode="edge")
    return p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * f


def gvf_residual(field: GvfField, e_img: np.ndarray) -> float:
    """Max-abs residual of the GVF Euler equations over interior pixels."""
    f = -np.asarray(e_img, dtype=float)
    fx, fy = gradient(f)
    g = fx * fx + fy * fy
    ru = field.mu * _laplacian(field.u) - (field.u - fx) * g
    rv = field.mu * _laplacian(field.v) - (field.v - fy) * g
    return float(max(np.abs(ru[1:-1, 1:-1]).max(), np.abs(rv[1:-1, 1:-1]).max()))


def compute_gvf(
    e_img: np.ndarray,
    mu: float = 0.2,
    iters: int = 200,
    residual_factor: float = 1e-4,
) -> GvfField:
    """Diffuse the edge force of f = -e_img into a gradient vector flow field.

    Explicit time stepping of u_t = mu lap(u) - (u - f_x)(f_x^2 + f_y^2)
    (and the v analogue), stopping after `iters` steps or when the max-abs
    residual over all pixels falls below residual_factor * max|grad f|. The
    step size obeys the full stability bound dt < 2/(8 mu + max g): the
    diffusion-only CFL value 0.25/mu sits exactly on the boundary and lets
    the reaction term amplify checkerboard noise on strong-gradient inputs.

    The `iters` cap of 200 is the operating point: on the benchmark scenes the
    residual ends near 1.1e-4 against a tolerance of 1.8e-5, so the stop test
    does not fire. Each Jacobi step updates u and v in place, one cache-sized
    strip of rows at a time, from the kept old value of the row above the
    strip; every pixel gets the same floating-point operations in the same
    order as in a whole-image step, so the field is the same bit for bit.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    f = -np.asarray(e_img, dtype=float)
    if not np.isfinite(f).all():
        raise ValueError("e_img must be finite")
    fx, fy = gradient(f)
    g = fx * fx + fy * fy
    f_xy = np.stack((fx, fy))  # (2, H, W): the edge force, f_x then f_y
    del f, fx, fy
    w_uv = f_xy.copy()  # (2, H, W): u then v, updated in place
    g_max = float(g.max())
    if not np.isfinite(g_max):
        raise ValueError("the gradient of e_img overflows")
    dt = 1.9 / (8.0 * mu + g_max)
    tol = residual_factor * float(np.sqrt(g_max))

    h, w = g.shape
    rows = max(1, STRIP_ELEMS // w)
    lap = np.empty((2, rows, w))
    tmp = np.empty((2, rows, w))
    prev = np.empty((2, w))  # old value of the row above the current strip
    done = 0
    for done in range(1, iters + 1):
        r_max = 0.0
        for r0 in range(0, h, rows):
            r1 = min(r0 + rows, h)
            n = r1 - r0
            s = w_uv[:, r0:r1]
            a = lap[:, :n]
            b = tmp[:, :n]
            # up + down, edge-replicated at the top and bottom rows
            a[:, 0] = prev if r0 > 0 else s[:, 0]
            a[:, 1:] = s[:, :-1]
            a[:, :-1] += s[:, 1:]
            a[:, -1] += w_uv[:, min(r1, h - 1)]
            # + left, + right, edge-replicated at the first and last columns
            a[:, :, 1:] += s[:, :, :-1]
            a[:, :, 0] += s[:, :, 0]
            a[:, :, :-1] += s[:, :, 1:]
            a[:, :, -1] += s[:, :, -1]
            np.multiply(s, 4.0, out=b)
            a -= b
            # r = mu lap - (w - f) g
            a *= mu
            np.subtract(s, f_xy[:, r0:r1], out=b)
            b *= g[r0:r1]
            a -= b
            r_max = max(r_max, float(a.max()), -float(a.min()))
            prev[...] = s[:, -1]
            a *= dt
            s += a
        if r_max < tol:
            break
    return GvfField(u=w_uv[0], v=w_uv[1], mu=mu, iters=done)
