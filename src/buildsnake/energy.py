"""Image energy and gradient vector flow fields for contour evolution."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import BOUNDS, SnakeConfig, as_number
from .raster import gaussian_smooth, row_strips

__all__ = ["GvfField", "image_energy", "edge_force", "compute_gvf", "gvf_residual"]

# Regularizer for the termination-term denominator on flat regions.
TERM_EPS = 1e-6


@dataclass
class GvfField:
    """Per-pixel external force field (u, v) with its solver settings."""

    u: np.ndarray
    v: np.ndarray
    mu: float
    iters: int


def _strip_terms(c: np.ndarray, inner: slice, e_edge: np.ndarray, e_term: np.ndarray) -> None:
    """The edge and termination terms of rows `inner` of block `c`, into e_edge and e_term."""
    cy, cx = np.gradient(c)
    cxy = np.gradient(cx, axis=0)[inner]
    cyy = np.gradient(cy, axis=0)[inner]
    cx, cy = cx[inner], cy[inner]
    cxx = np.gradient(cx, axis=1)
    grad_sq = np.multiply(cx, cx, out=e_edge)
    grad_sq += cy * cy
    # (cyy cx cx - 2 cxy cx cy + cxx cy cy) / (grad_sq^1.5 + eps), built in
    # place with the operations in that order.
    np.multiply(cyy, cx, out=e_term)
    e_term *= cx
    cxy *= 2.0
    cxy *= cx
    cxy *= cy
    e_term -= cxy
    cxx *= cy
    cxx *= cy
    e_term += cxx
    den = grad_sq**1.5
    den += TERM_EPS
    e_term /= den
    np.negative(grad_sq, out=grad_sq)


def _edge_term(c: np.ndarray, inner: slice, e_edge: np.ndarray) -> None:
    """The edge term -(c_x^2 + c_y^2) of rows `inner` of block `c`, into e_edge,
    with `_strip_terms`' operations: c_y needs one halo row on each side."""
    cy = np.gradient(c, axis=0)[inner]
    cx = np.gradient(c[inner], axis=1)
    np.multiply(cx, cx, out=e_edge)
    e_edge += cy * cy
    np.negative(e_edge, out=e_edge)


def _weigh(field: np.ndarray, weight: float, lo: float, hi: float) -> np.ndarray:
    """weight times `field` min-max normalized to [0, 1] (0 if flat) over the
    range [lo, hi] of the whole term, in place."""
    if hi - lo <= 0:
        field[...] = 0.0
    else:
        field -= lo
        field /= hi - lo
    field *= weight
    return field


def image_energy(
    gray: np.ndarray,
    w_line: float = SnakeConfig.w_line,
    w_edge: float = SnakeConfig.w_edge,
    w_term: float = SnakeConfig.w_term,
    sigma: float = SnakeConfig.sigma,
) -> np.ndarray:
    """Weighted image energy; each term is min-max normalized to [0, 1] first.

    Normalization makes the published weights meaningful across images with
    different dynamic ranges. Raises ValueError if weights near the end of
    float range make the sum overflow.

    Only two image-sized arrays are held: C, the smoothed image, and the
    energy. Two passes run over C one `raster.row_strips` strip at a time.
    The first writes each strip's termination term into the energy's array
    and keeps only the edge term's min and max. The second recomputes each
    strip's edge term on a block with one halo row, weighs the three terms
    and adds them as ((line + edge) + term), the order of the whole-image
    sum. Every pixel gets the floating-point operations of the whole-image
    terms (line = C, edge = -|grad C|^2, termination = the level-set
    curvature of C) weighed and summed, so the bits are the same.
    """
    c = gaussian_smooth(gray, sigma)
    energy = np.empty(c.shape)
    strips = row_strips(c.shape, 2)
    edge = np.empty((strips[0][0].stop, c.shape[1]))  # the first strip is the tallest
    # A running min and max have the whole-image reduction's values. Only a
    # zero's sign may differ, and the edge term (<= 0) is then flat either way.
    edge_lo, edge_hi = np.inf, -np.inf
    for rows, block, inner in strips:
        e_edge = edge[: rows.stop - rows.start]
        _strip_terms(c[block], inner, e_edge, energy[rows])
        edge_lo, edge_hi = np.minimum(edge_lo, e_edge.min()), np.maximum(edge_hi, e_edge.max())
    line_range, term_range = (c.min(), c.max()), (energy.min(), energy.max())
    line = np.empty_like(edge)
    for rows, block, inner in row_strips(c.shape, 1):
        n = rows.stop - rows.start
        e_line, e_edge, e_term = line[:n], edge[:n], energy[rows]
        _edge_term(c[block], inner, e_edge)
        np.copyto(e_line, c[rows])
        _weigh(e_line, w_line, *line_range)
        with np.errstate(over="ignore"):  # reported by the check below
            e_line += _weigh(e_edge, w_edge, edge_lo, edge_hi)
            _weigh(e_term, w_term, *term_range)
            e_term += e_line  # (line + edge) + term: addition commutes bit for bit
    if not (np.isfinite(energy.min()) and np.isfinite(energy.max())):
        raise ValueError(f"w_line={w_line!r}, w_edge={w_edge!r} and w_term={w_term!r} give a non-finite image energy")
    return energy


def edge_force(e_img: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The edge force (f_x, f_y) = grad f of f = -e_img, each (H, W): `basic`
    mode's external force, and the field the GVF diffuses.

    One strip of rows at a time, each strip's gradient taken on its block of
    f with one halo row on each side (`raster.row_strips`): whole-image
    np.gradient's bits, with no whole-image copy of f or of its gradient.
    Raises ValueError on a non-finite e_img.

    f_x is written into `out` if given, a float64 array of e_img's shape,
    and else into a new array; e_img is left untouched unless it is `out`.
    `out` may be e_img itself, so the force holds only two image-sized
    arrays, e_img's and f_y's: each strip keeps its last row of e_img,
    before f_x overwrites it, as the next strip's upper halo row.
    """
    e_img = np.asarray(e_img, dtype=float)
    if out is None:
        out = np.empty(e_img.shape)
    elif out.shape != e_img.shape or out.dtype != float:
        raise ValueError(f"out must be a float64 array of shape {e_img.shape}, got {out.dtype} {out.shape}")
    f_y = np.empty(e_img.shape)
    above = None
    for rows, block, inner in row_strips(e_img.shape, 1):
        f = np.negative(e_img[block])
        if above is not None:
            np.negative(above, out=f[0])
        if not np.isfinite(f).all():
            raise ValueError("e_img must be finite")
        above = e_img[rows.stop - 1].copy()
        fy, fx = np.gradient(f)
        out[rows], f_y[rows] = fx[inner], fy[inner]
    return out, f_y


def _gvf_forces(e_img: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(f_x, f_y, g = f_x^2 + f_y^2, max g) of `edge_force(e_img)`, g a strip at a time.

    Raises ValueError on an overflowing g, whose NaN residual would read as converged.
    """
    f_x, f_y = edge_force(e_img)
    g = np.empty(f_x.shape)
    with np.errstate(over="ignore"):  # reported by the check on max g
        for rows, _, _ in row_strips(g.shape, 0):
            np.multiply(f_x[rows], f_x[rows], out=g[rows])
            g[rows] += f_y[rows] * f_y[rows]
    g_max = float(g.max())
    if not np.isfinite(g_max):
        raise ValueError("the gradient of e_img overflows")
    return f_x, f_y, g, g_max


def _step(
    field: np.ndarray, f: np.ndarray, g: np.ndarray, buffers: tuple, mu: float, dt: float, tol: float
) -> float:
    """One Jacobi step on one component `field`, in place, a strip at a time.

    Each `raster.row_strips` strip is copied into the middle of a padded
    window, between the kept old row above it and the row below it (the
    strip's own edge row at the image's top and bottom) and one replicated
    column on each side. On that window the step is the whole-image
    expression: lap = ((up + down) + left) + right - 4 w, then
    r = mu lap - (w - f) g, so every pixel gets its floating-point
    operations in the same order.

    Returns the step's max |r|, exact below `tol`: once it reaches `tol` the
    step cannot stop, so the rest of the strips skip the reduction.
    """
    h = field.shape[0]
    window, lap, tmp = buffers
    window[0, 1:-1] = field[0]
    r_max = 0.0
    for rows, _, _ in row_strips(field.shape, 0):
        n = rows.stop - rows.start
        p = window[: n + 2]
        s = field[rows]
        p[1:-1, 1:-1] = s
        p[-1, 1:-1] = field[min(rows.stop, h - 1)]
        p[1:-1, 0] = s[:, 0]
        p[1:-1, -1] = s[:, -1]
        a, b = lap[:n], tmp[:n]
        np.add(p[:-2, 1:-1], p[2:, 1:-1], out=a)
        a += p[1:-1, :-2]
        a += p[1:-1, 2:]
        np.multiply(s, 4.0, out=b)
        a -= b
        a *= mu
        np.subtract(s, f[rows], out=b)
        b *= g[rows]
        a -= b
        if r_max < tol:
            r_max = max(r_max, float(a.max()), -float(a.min()))
        a *= dt
        s += a
        window[0] = p[-2]  # the strip's last row, old, is the next strip's row above
    return r_max


def _jacobi(
    fields: tuple, forces: tuple, g: np.ndarray, mu: float, dt: float, tol: float, iters: int
) -> tuple[int, float]:
    """Up to `iters` steps w += dt r, r = mu lap(w) - (w - f) g, on each of
    `fields` (u, v) in place, against its force in `forces` (f_x, f_y).

    Stops after the first step whose max |r| over both components and all
    pixels is below `tol`. Returns the steps taken and the last step's max
    |r| (exact below `tol`).

    The two components never read each other, so each step runs as two
    one-component steps (`_step`), u and then v, on the caller's thread;
    the step's max |r| is the larger of the two. Both share one padded
    window and two strip buffers, sized for the tallest strip.
    """
    (u, v), (f_x, f_y) = fields, forces
    rows = row_strips(g.shape, 0)[0][0].stop
    w = g.shape[1]
    buffers = np.empty((rows + 2, w + 2)), np.empty((rows, w)), np.empty((rows, w))
    done, r_max = 0, 0.0
    for done in range(1, iters + 1):
        r_u = _step(u, f_x, g, buffers, mu, dt, tol)
        r_max = max(r_u, _step(v, f_y, g, buffers, mu, dt, tol))
        if r_max < tol:
            break
    return done, r_max


def compute_gvf(
    e_img: np.ndarray,
    mu: float = SnakeConfig.mu,
    iters: int = SnakeConfig.gvf_iters,
    residual_factor: float = 1e-4,
) -> GvfField:
    """Diffuse the edge force of f = -e_img into a gradient vector flow field.

    Explicit time stepping of u_t = mu lap(u) - (u - f_x)(f_x^2 + f_y^2)
    (and the v analogue) from (u, v) = (f_x, f_y), stopping after `iters`
    steps or when the max-abs residual over all pixels (`gvf_residual`'s)
    falls below residual_factor * max|grad f|. The step size obeys the full
    stability bound dt < 2/(8 mu + max g): the diffusion-only CFL value
    0.25/mu sits exactly on the boundary and lets the reaction term amplify
    checkerboard noise on strong-gradient inputs.

    `iters` is a diffusion time, not a solver cap: the field spreads the
    edge force about sqrt(iters) cells. At the default sigma the extract
    calls it on the energy of the image's 4 x 4 block mean, built at
    sigma / 4, with 200 // 16 = 12 steps, which spread as far in pixels as
    200 full-resolution steps. On the benchmark scenes those 12 steps end
    with a residual near 7.0e-3 against a tolerance near 6.2e-5, so the
    stop test does not fire. Only below sigma 5 (k = 1) does the extract
    solve the full image. Each step
    updates u and then v on the calling thread, one `raster.row_strips`
    strip at a time on a padded window, with the bits of a whole-image step
    (see `_step`).
    """
    as_number("mu", mu, bound=BOUNDS["mu"])
    f_x, f_y, g, g_max = _gvf_forces(e_img)
    u, v = f_x.copy(), f_y.copy()  # updated in place
    dt = 1.9 / (8.0 * mu + g_max)
    tol = residual_factor * float(np.sqrt(g_max))
    done, _ = _jacobi((u, v), (f_x, f_y), g, mu, dt, tol, iters)
    return GvfField(u=u, v=v, mu=mu, iters=done)


def gvf_residual(field: GvfField, e_img: np.ndarray) -> float:
    """Max-abs GVF residual over all pixels, as `compute_gvf`'s stop test takes it.

    One solver step with dt = 0 on copies; field.u and field.v stay untouched.
    Raises ValueError if e_img's shape is not the field's.
    """
    if np.shape(e_img) != field.u.shape:
        raise ValueError(f"e_img has shape {np.shape(e_img)} but the field has shape {field.u.shape}")
    f_x, f_y, g, _ = _gvf_forces(e_img)
    _, r_max = _jacobi((field.u.copy(), field.v.copy()), (f_x, f_y), g, field.mu, 0.0, np.inf, 1)
    return r_max
