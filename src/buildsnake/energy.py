"""Image energy and gradient vector flow fields for contour evolution."""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .raster import STRIP_ELEMS, gaussian_smooth, row_strips

__all__ = ["GvfField", "image_energy", "image_energy_terms", "compute_gvf", "gvf_residual"]

# Regularizer for the termination-term denominator on flat regions.
TERM_EPS = 1e-6


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

    The derivatives and terms run one strip of rows at a time, each strip's
    derivatives taken on a block with two halo rows on each side
    (`raster.row_strips`), so the bits are those of whole-image np.gradient
    calls while only C, the two other terms and one block's temporaries are
    held at once.
    """
    c = gaussian_smooth(gray, sigma)
    strips = row_strips(c.shape, 2)
    e_edge, e_term = np.empty(c.shape), np.empty(c.shape)
    for rows, block, inner in strips:
        _strip_terms(c[block], inner, e_edge[rows], e_term[rows])
    return c, e_edge, e_term


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


def _weigh(field: np.ndarray, weight: float) -> np.ndarray:
    """weight times `field` min-max normalized to [0, 1] (0 if flat), in place."""
    lo, hi = field.min(), field.max()
    if hi - lo <= 0:
        field[...] = 0.0
    else:
        field -= lo
        field /= hi - lo
    field *= weight
    return field


def image_energy(
    gray: np.ndarray,
    w_line: float = 0.04,
    w_edge: float = 2.0,
    w_term: float = 0.01,
    sigma: float = 10.0,
) -> np.ndarray:
    """Weighted image energy; each term is min-max normalized to [0, 1] first.

    Normalization makes the published weights meaningful across images with
    different dynamic ranges. The terms are weighed in their own arrays and
    summed into the line term's, so the energy holds no array beyond
    `image_energy_terms`' three.
    """
    energy, e_edge, e_term = image_energy_terms(gray, sigma)
    _weigh(energy, w_line)
    energy += _weigh(e_edge, w_edge)
    energy += _weigh(e_term, w_term)
    return energy


def _edge_force(e_img: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(f_x, f_y, g = f_x^2 + f_y^2, max g) of f = -e_img, each (H, W).

    Runs one strip of rows at a time, each strip's gradient taken on its
    block of f with one halo row on each side (`raster.row_strips`), so the
    bits are whole-image np.gradient's while no whole-image copy of f or
    of its gradient is made. Raises ValueError where a NaN residual would
    read as converged: on a non-finite e_img or an overflowing g.
    """
    e_img = np.asarray(e_img, dtype=float)
    strips = row_strips(e_img.shape, 1)
    f_x, f_y, g = np.empty(e_img.shape), np.empty(e_img.shape), np.empty(e_img.shape)
    for rows, block, inner in strips:
        f = np.negative(e_img[block])
        if not np.isfinite(f).all():
            raise ValueError("e_img must be finite")
        fy, fx = np.gradient(f)
        fx, fy = fx[inner], fy[inner]
        np.multiply(fx, fx, out=g[rows])
        g[rows] += fy * fy
        f_x[rows], f_y[rows] = fx, fy
    g_max = float(g.max())
    if not np.isfinite(g_max):
        raise ValueError("the gradient of e_img overflows")
    return f_x, f_y, g, g_max


# Pixels per array in one row strip of a GVF step: twice raster.STRIP_ELEMS.
# 200 steps on the 1024x1024 sparse-gvf energy (seed 7, 2-vCPU Xeon, median
# of the faster of two solves in each of 5-7 interleaved processes): one
# thread (taskset -c 0) took 2.76 / 2.33 / 2.50 s at 16k / 32k / 64k, two
# threads 1.73 s at 32k and 1.54 s at 64k; 64k doubles the strip buffers.
GVF_STRIP_ELEMS = 2 * STRIP_ELEMS


def _strip_rows(w: int) -> int:
    """Rows per strip of a GVF step on a field `w` pixels wide."""
    return max(1, GVF_STRIP_ELEMS // w)


def _thread_count() -> int:
    """Threads per Jacobi step: one per usable CPU, at most one per component."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def _strip_buffers(w: int) -> tuple:
    """One component's work buffers for steps on a field `w` pixels wide: a
    strip's lap and tmp, a strip's first or last column, and the old value of
    the row above the current strip."""
    rows = _strip_rows(w)
    return np.empty(rows * w), np.empty(rows * w), np.empty(rows), np.empty(w)


def _step(
    field: np.ndarray, f: np.ndarray, g: np.ndarray, buffers: tuple, mu: float, dt: float, tol: float
) -> float:
    """One Jacobi step on one component `field`, in place, a strip at a time.

    Returns the step's max |r|, exact below `tol`: once it reaches `tol` the
    step cannot stop, so the rest of the strips skip the reduction.
    """
    h, w = g.shape
    rows = _strip_rows(w)
    lap, tmp, edge, up = buffers
    flat = field.reshape(h * w)  # a strip is a slice of these flat views
    flat_f = f.reshape(h * w)
    flat_g = g.reshape(h * w)
    r_max = 0.0
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        n = r1 - r0
        s = flat[r0 * w : r1 * w]
        a = lap[: n * w]
        b = tmp[: n * w]
        s2 = s.reshape(n, w)
        a2 = a.reshape(n, w)
        col = edge[:n]
        # up + down, edge-replicated at the top and bottom rows
        above = s2[0] if r0 == 0 else up
        below = field[min(r1, h - 1)]
        if n == 1:
            np.add(above, below, out=a2[0])
        else:
            np.add(above, s2[1], out=a2[0])
            np.add(s2[:-2], s2[2:], out=a2[1:-1])
            np.add(s2[-2], below, out=a2[-1])
        # + left, + right as shifts along the flat strip; the first and
        # last columns, which took a value from the next row over, are
        # redone from their saved sums, edge-replicated
        np.copyto(col, a2[:, 0])
        a[1:] += s[:-1]
        np.add(col, s2[:, 0], out=a2[:, 0])
        np.copyto(col, a2[:, -1])
        a[:-1] += s[1:]
        np.add(col, s2[:, -1], out=a2[:, -1])
        np.multiply(s, 4.0, out=b)
        a -= b
        # r = mu lap - (w - f) g
        a *= mu
        np.subtract(s, flat_f[r0 * w : r1 * w], out=b)
        b *= flat_g[r0 * w : r1 * w]
        a -= b
        if r_max < tol:
            r_max = max(r_max, float(a.max()), -float(a.min()))
        np.copyto(up, s2[-1])
        a *= dt
        s += a
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
    one-component steps: the caller's thread updates u and, with two usable
    CPUs, one worker thread updates v; with one, the caller runs both in
    turn. The step's max |r| is the larger of the two.

    A component's step runs one cache-sized strip of rows at a time, from
    the kept old value of the row above the strip; every pixel gets the
    same floating-point operations in the same order as in a whole-image
    step, so the field is the same bit for bit on one thread or two. Within
    a strip, up + down is one add of the rows above and below each inner
    row, plus one row add each for the strip's first and last rows (or a
    single add of the row above and the row below for a strip one row
    high). Left and right are added as shifts along the flat strip, so a
    row's first column first takes the previous row's last value; that
    column is redone from its saved up + down sum plus its own
    (edge-replicated) value, and the last column likewise around the right
    shift.
    """
    (u, v), (f_x, f_y) = fields, forces
    w = g.shape[1]
    u_buffers, v_buffers = _strip_buffers(w), _strip_buffers(w)
    two = _thread_count() == 2
    # Imported here, off the package's import path; the pool starts its
    # thread on the first submit, so one thread runs without one.
    from concurrent.futures import ThreadPoolExecutor

    done, r_max = 0, 0.0
    with ThreadPoolExecutor(max_workers=1) as pool:
        for done in range(1, iters + 1):
            v_step = pool.submit(_step, v, f_y, g, v_buffers, mu, dt, tol) if two else None
            r_u = _step(u, f_x, g, u_buffers, mu, dt, tol)
            r_v = v_step.result() if two else _step(v, f_y, g, v_buffers, mu, dt, tol)
            r_max = max(r_u, r_v)
            if r_max < tol:
                break
    return done, r_max


def compute_gvf(
    e_img: np.ndarray,
    mu: float = 0.2,
    iters: int = 200,
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

    `iters` = 200 is the operating point, a diffusion time that sets how far
    the edge force spreads rather than a solver cap: on the benchmark scenes
    the residual ends near 1.1e-4 against a tolerance of 1.8e-5, so the stop
    test does not fire. Each step updates u and v on up to two threads of this
    process, one component each, strip by strip; the field is the same bit
    for bit on one thread or two (see `_jacobi`).
    """
    if not 0 < mu < np.inf:
        raise ValueError(f"mu must be a positive finite number, got {mu!r}")
    f_x, f_y, g, g_max = _edge_force(e_img)
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
    f_x, f_y, g, _ = _edge_force(e_img)
    _, r_max = _jacobi((field.u.copy(), field.v.copy()), (f_x, f_y), g, field.mu, 0.0, np.inf, 1)
    return r_max
