"""Active-contour evolution with GVF external force and a LiDAR shape prior.

The contour is a closed (N, 2) array of pixel coordinates, advanced with the
semi-implicit scheme (gamma I + A) x_new = gamma x_old + F(x_old), where A is
the cyclic pentadiagonal operator of the tension/rigidity terms.

gamma I + A is circulant and symmetric, so `system_inverse` builds its inverse
in closed form from one real FFT pair of its first row. A dense LAPACK
inversion goes through threaded BLAS, whose thread start-up can cost far more
than the inversion itself and whose bits change with the thread count; the
closed form needs no BLAS call and gives the same bits on any thread count.
"""
from __future__ import annotations

import math

import numpy as np

from .config import SnakeConfig
from .energy import compute_gvf, edge_force, image_energy
from .geometry import hausdorff_distance, polygon_perimeter

__all__ = [
    "prepare_fields",
    "resample_closed",
    "system_inverse",
    "evolve_step",
    "sample_force",
    "shape_sim_energy",
    "shape_force",
    "run_snake",
]


def _rescale_force(fx: np.ndarray, fy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide in place by the global max magnitude so the strongest force is 1.

    Keeps relative strengths intact while making the step size implied by
    gamma independent of the image's dynamic range.
    """
    peak = float(np.hypot(fx, fy).max())
    if peak > 0:
        fx /= peak
        fy /= peak
    return fx, fy


def _gvf_scale(shape: tuple[int, int], sigma: float) -> int:
    """Block size k of the grid the GVF is solved on: int(sigma / 2.5),
    lowered until the coarse grid has at least 3 cells a side, and at least 1.

    A k x k block mean loses little of an energy already smoothed over
    sigma, and at sigma < 5 k is 1, the full-resolution grid.
    ceil(m / k) >= 3 cells on a side of m pixels means k <= (m - 1) // 2.
    """
    return max(1, min(int(sigma / 2.5), (min(shape) - 1) // 2))


def _block_mean(e_img: np.ndarray, k: int) -> np.ndarray:
    """Mean of each k x k block of `e_img`, edge-replicated to a multiple of
    k; `e_img` itself at k = 1.

    Each value enters divided by k^2, which no sum of them can overflow; for
    a power-of-two k that is the bits of the sum divided. The sum runs over
    the block rows, then the block columns, in order. Only one band of
    ceil(H / k) rows is gathered at a time.
    """
    if k == 1:
        return e_img
    h, w = e_img.shape
    rows = np.minimum(np.arange(-(-h // k) * k), h - 1).reshape(-1, k)
    cols = np.minimum(np.arange(-(-w // k) * k), w - 1).reshape(-1, k)
    coarse = np.zeros((len(rows), len(cols)))
    for i in range(k):
        band = e_img[rows[:, i]]
        band /= k * k
        for j in range(k):
            coarse += band[:, cols[:, j]]
    return coarse


def _bilinear_axis(n: int, m: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For n fine pixels over m coarse cells of k pixels, each pixel's lower
    cell and the weights (1 - t, t) of that cell and the next.

    Cell i's centre is at pixel k i + (k - 1) / 2; a pixel beyond the first
    or last centre takes that cell's value.
    """
    c = (np.arange(n) - (k - 1) / 2) / k
    np.clip(c, 0, m - 1, out=c)
    lower = np.minimum(c.astype(np.intp), m - 2)
    t = c - lower
    return lower, 1 - t, t


def _upsample(coarse: np.ndarray, k: int, shape: tuple[int, int]) -> np.ndarray:
    """Bilinear upsample of `coarse`, one value per k x k block, to a
    C-contiguous array of `shape`; a copy of `coarse` at k = 1.

    Columns first on the coarse rows, then rows, in place on the full-size
    gather, so one component holds two full-size arrays at its peak.
    """
    if k == 1:
        return coarse.copy()
    (y0, sy, ty), (x0, sx, tx) = (_bilinear_axis(n, m, k) for n, m in zip(shape, coarse.shape))
    wide = np.take(coarse, x0, axis=1)
    wide *= sx
    wide += np.take(coarse, x0 + 1, axis=1) * tx
    out = wide[y0]
    out *= sy[:, None]
    lower = wide[y0 + 1]
    lower *= ty[:, None]
    out += lower
    return out


def prepare_fields(gray: np.ndarray, cfg: SnakeConfig) -> tuple[np.ndarray, np.ndarray]:
    """The mode's external force on `gray` as a pair (f_x, f_y) of
    C-contiguous (H, W) arrays.

    Every mode starts from the one edge force -grad(E_img) of
    `energy.edge_force`: basic uses it as the raw potential force, and gvf
    and proposed diffuse it into a GVF field. Either is rescaled to unit
    peak magnitude. One pair serves every snake on the image.

    The GVF is solved on a grid k = `_gvf_scale` times coarser: on the k x k
    block mean of the energy, with gvf_iters // k^2 steps (at least one).
    Diffusion spreads about sqrt(steps) cells, so the coarse solve reaches
    the same distance in pixels as gvf_iters fine steps. u and v are then
    upsampled bilinearly to full size. At k = 1 the field is `compute_gvf`'s
    on the full image, rescaled on copies, so the solved field stays as it
    returned it.

    The energy and the edge force are taken one strip of rows at a time
    (`raster.row_strips`), with the bits of whole-image np.gradient calls:
    in basic mode at most three image-sized arrays are held beyond `gray`.
    At k > 1 the energy is freed before the GVF solve, so once it is built
    at most the force pair and one more image-sized array are held.
    """
    e_img = image_energy(gray, cfg.w_line, cfg.w_edge, cfg.w_term, cfg.sigma)
    if cfg.mode == "basic":
        f_x, f_y = edge_force(e_img)
        del e_img
        return _rescale_force(f_x, f_y)
    shape = e_img.shape
    k = _gvf_scale(shape, cfg.sigma)
    coarse = _block_mean(e_img, k)
    del e_img
    field = compute_gvf(coarse, mu=cfg.mu, iters=max(1, cfg.gvf_iters // (k * k)))
    del coarse
    f_x = _upsample(field.u, k, shape)
    f_y = _upsample(field.v, k, shape)
    return _rescale_force(f_x, f_y)


def resample_closed(points: np.ndarray, n: int) -> np.ndarray:
    """Resample a closed contour to n points equally spaced by arc length."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        raise ValueError("contour needs at least 3 points")
    ring = np.vstack([pts, pts[:1]])
    seg = np.linalg.norm(np.diff(ring, axis=0), axis=1)
    total = seg.sum()
    if total <= 0:
        raise ValueError("contour has zero perimeter")
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s = np.arange(n) * (total / n)
    k = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg) - 1)
    t = (s - cum[k]) / np.where(seg[k] > 0, seg[k], 1.0)
    return ring[k] + t[:, None] * (ring[k + 1] - ring[k])


def _system_row(n: int, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """First row r of the circulant gamma I + A, whose entry (i, j) is r[(j - i) % n].

    Bands that wrap onto the same offset (n < 5) add up in band order.
    """
    row = np.zeros(n)
    for off, coef in (
        (0, gamma + 2.0 * alpha + 6.0 * beta),
        (1, -alpha - 4.0 * beta),
        (-1, -alpha - 4.0 * beta),
        (2, beta),
        (-2, beta),
    ):
        row[off % n] += coef
    return row


def _circulant(row: np.ndarray) -> np.ndarray:
    """Dense circulant matrix with entry (i, j) = row[(j - i) % n]."""
    idx = np.arange(len(row))
    return row[idx - idx[:, None]]  # j - i > -n, and negative indices wrap


def system_inverse(n: int, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Dense (gamma I + A)^-1 in closed form.

    gamma I + A is circulant and symmetric, so its eigenvalues are the real
    DFT of its first row, gamma + 2 alpha (1 - cos t) + 4 beta (1 - cos t)^2
    >= gamma > 0, and its inverse is the circulant whose first row is the
    inverse DFT of their reciprocals.

    Raises ValueError if weights at the ends of float range break that bound
    in floating point. The t = 0 eigenvalue is the row's sum, which cancels
    to rounding residue of alpha and beta, of either sign, once gamma is
    lost next to them: gamma must exceed n rounding units of the largest
    eigenvalue, gamma + 4 alpha + 16 beta, which bounds the summation error.
    Huge weights overflow to inf or NaN. numpy's warnings on the way are
    silenced, since the check reports the same cases.
    """
    with np.errstate(all="ignore"):
        eig = np.fft.rfft(_system_row(n, alpha, beta, gamma)).real
        row = np.fft.irfft(1.0 / eig, n)
        resolved = gamma > n * np.finfo(float).eps * (abs(gamma) + 4.0 * abs(alpha) + 16.0 * abs(beta))
    if not (resolved and np.all(eig > 0) and np.isfinite(eig).all() and np.isfinite(row).all()):
        raise ValueError(
            f"alpha={alpha!r}, beta={beta!r} and gamma={gamma!r} give a contour system of {n} points "
            "whose eigenvalues are not all positive and finite or whose inverse overflows"
        )
    return _circulant(row)


def evolve_step(points: np.ndarray, force: np.ndarray, cfg: SnakeConfig, inv_system: np.ndarray) -> np.ndarray:
    """One semi-implicit step, x_new = `inv_system` (gamma x + F), where
    `inv_system` is `system_inverse` for the contour's size and cfg's weights."""
    return inv_system @ (cfg.gamma * np.asarray(points, dtype=float) + force)


def sample_force(force: tuple[np.ndarray, np.ndarray], points: np.ndarray) -> np.ndarray:
    """Bilinear (f_x, f_y) of the force pair at each point inside the image.

    Both components share the corner indices and weights, and the corners are
    gathered from each flattened component. `run_snake` keeps every point in
    [0, W - 1] x [0, H - 1]; a point outside uses its nearest border cell, so
    its value is that cell's bilinear form extrapolated.

    The flattening is a view only for a C-contiguous component; any other
    is copied whole on every call, which `prepare_fields` avoids by
    returning C-contiguous pairs.
    """
    pts = np.asarray(points, dtype=float)
    h, w = force[0].shape
    if h < 2 or w < 2:
        raise ValueError(f"force field must be at least 2x2, got {h}x{w}")
    # Truncation is floor for points >= 0; the lower bound keeps any other
    # point off a wrapped index.
    corner = pts.astype(np.intp)
    np.minimum(corner, (w - 2, h - 2), out=corner)
    np.maximum(corner, 0, out=corner)
    t = pts - corner
    s = 1 - t
    tx, ty = t[:, 0], t[:, 1]
    sx, sy = s[:, 0], s[:, 1]
    i00 = corner[:, 1] * w + corner[:, 0]
    i01, i10, i11 = i00 + 1, i00 + w, i00 + w + 1
    out = np.empty((len(pts), 2))
    for k, field in enumerate(force):
        flat = field.reshape(-1)
        out[:, k] = flat[i00] * sx * sy + flat[i01] * tx * sy + flat[i10] * sx * ty + flat[i11] * tx * ty
    return out


def shape_sim_energy(snake: np.ndarray, boundary: np.ndarray, delta: float) -> float:
    """Shape dissimilarity 1 - exp(-d_H^2 / delta), in [0, 1)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    d = hausdorff_distance(snake, boundary)
    return float(1.0 - np.exp(-(d * d) / delta))


def _square_up(t):
    """An upper bound on t * t: every q whose rounded root is <= t has q <= it.

    The relative 1e-12 is far above the rounding of the square and of a root.
    """
    return t * t * (1.0 + 1e-12)


def shape_force(
    snake: np.ndarray,
    boundary: np.ndarray,
    delta: float,
    weight: float = SnakeConfig.shape_weight,
    step: float = 1.0,
) -> np.ndarray:
    """Central finite-difference force of the shape-similarity energy.

    Each snake point i is moved by +-step along x and along y, and the
    Hausdorff distance to the boundary is taken for each of the four moved
    contours. A move of point i changes only row i of the distance matrix
    d[i, j] = |a_i - b_j|, and by the triangle inequality changes each entry
    by at most step. Let reach = step plus a slack far above the rounding
    error of the distances, and hd = max(rowmin.max(), colmin.max()) the
    unmoved Hausdorff distance.

    Row i is active if rowmin[i] >= hd - reach, or if d[i, j] < colmin[j] +
    reach for a column with colmin[j] >= hd - reach. An inactive row cannot
    move the distance. Its moved row minimum stays below rowmin[i] + reach
    < hd. A column it holds the minimum of has colmin[j] < hd - reach, so
    it stays below hd. Every other column keeps a value <= colmin[j] <= hd,
    and keeps colmin[j] exactly if colmin[j] >= hd - reach, since the move
    cannot bring row i below it. The row or column that attains hd is
    therefore left at hd. All four moves give hd, bit for bit, and the force
    is the zero difference -weight * 0.0 / (2 step), sign included, that the
    full computation gives.

    Only the active rows are moved. The moved row's minimum can only come
    from pairs with d[i, j] <= rowmin[i] + 2 reach, and column j can only
    fall below colmin[j] at pairs with d[i, j] < colmin[j] + reach. Moved
    distances are computed only on those pairs; every other column
    contributes exactly colmin[j] to the directed distance boundary -> snake.
    Min and max are exact, and a pair or row admitted needlessly cannot
    change them, so the result is the same, bit for bit, as moving every
    pair of every row.

    Only minima of the squared distances q = dx * dx + dy * dy are rooted:
    sqrt is monotone and correctly rounded, so the root of a minimum is the
    minimum of the roots. Where rows tie on a rooted column minimum but not
    on q, colarg may pick another of them than an argmin on d would; colmin2
    then equals colmin, so the column minima with row i removed are the same.
    Each test d <= t is made as q <= `_square_up(t)`, a bound squared from
    above, so it admits a superset of the pairs and rows the test on d admits.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if step <= 0:
        raise ValueError("step must be positive")
    a = np.asarray(snake, dtype=float)
    b = np.asarray(boundary, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise ValueError("snake and boundary must be non-empty")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("snake and boundary must be finite")
    n, m = len(a), len(b)
    # q = dx * dx + dy * dy, built in place to skip n x m temporaries.
    q = np.subtract.outer(a[:, 0], b[:, 0])
    q *= q
    dy = np.subtract.outer(a[:, 1], b[:, 1])
    dy *= dy
    q += dy

    rowmin = np.sqrt(q.min(axis=1))
    colarg = q.argmin(axis=0)
    colmin = np.sqrt(q[colarg, np.arange(m)])
    hd = max(rowmin.max(), colmin.max())
    # Distances round off by ~1e-16 of the coordinate scale; the slack is ample.
    reach = step + 1e-9 * (1.0 + step + max(np.abs(a).max(), np.abs(b).max()))
    # The rows whose moves can change hd; every other row's force is an exact zero.
    active = rowmin >= hd - reach
    top = np.flatnonzero(colmin >= hd - reach)
    active |= (q[:, top] <= _square_up(colmin[top] + reach)).any(axis=1)
    rows = np.flatnonzero(active)

    i1 = int(np.argmax(rowmin))
    masked = rowmin.copy()
    masked[i1] = -np.inf
    second = masked.max() if n > 1 else -np.inf
    excl_rowmax = np.where(rows == i1, second, rowmin[i1])

    qr = q[rows]
    near = (qr <= _square_up(rowmin[rows] + 2.0 * reach)[:, None]) | (qr <= _square_up(colmin + reach))
    # Largest column minimum among the columns row i's move cannot lower.
    outside = np.where(near, -np.inf, colmin).max(axis=1)
    # Second-smallest entry of each column, needed only where colarg[j] moves.
    held = np.flatnonzero(active[colarg])
    rest = q[:, held]
    rest[colarg[held], np.arange(len(held))] = np.inf
    colmin2 = colmin.copy()
    colmin2[held] = np.sqrt(rest.min(axis=0))

    # Each row keeps at least its own minimum, so every reduceat run is non-empty.
    k, jj = np.divmod(np.flatnonzero(near), m)
    starts = np.searchsorted(k, np.arange(len(rows)))
    ii = rows[k]
    # Column minima as seen with row i removed.
    excl_colmin = np.where(colarg[jj] == ii, colmin2[jj], colmin[jj])

    offsets = np.array([[step, 0.0], [-step, 0.0], [0.0, step], [0.0, -step]])
    px = a[ii, 0] + offsets[:, 0:1]  # (4, pairs)
    py = a[ii, 1] + offsets[:, 1:2]
    ndx = px - b[jj, 0]
    ndy = py - b[jj, 1]
    newrows = np.sqrt(ndx * ndx + ndy * ndy)

    d_ab = np.maximum(excl_rowmax, np.minimum.reduceat(newrows, starts, axis=1))
    d_ba = np.maximum(outside, np.maximum.reduceat(np.minimum(excl_colmin, newrows), starts, axis=1))
    dh = np.maximum(d_ab, d_ba)
    e = 1.0 - np.exp(-(dh * dh) / delta)
    force = np.full((n, 2), -weight * 0.0 / (2.0 * step), dtype=float)
    force[rows, 0] = -weight * (e[0] - e[1]) / (2.0 * step)
    force[rows, 1] = -weight * (e[2] - e[3]) / (2.0 * step)
    return force


def run_snake(init: np.ndarray, force: tuple[np.ndarray, np.ndarray], cfg: SnakeConfig) -> np.ndarray:
    """Evolve a snake from the projected boundary until convergence.

    `init` is the (M, 2) pixel array of the boundary; it provides both the
    initial contour and the shape-similarity reference in proposed mode.
    `force` is the image's `prepare_fields` pair, whose (H, W) bounds the
    contour: the initial resample, each evolve step and each periodic
    resample are clipped to [0, W - 1] x [0, H - 1], so every point that
    `sample_force` sees lies in the image. Returns the final closed contour
    as (N, 2) pixels.
    """
    boundary = np.asarray(init, dtype=float)
    if len(boundary) < 3:
        raise ValueError("initial boundary needs at least 3 points")
    h, w = force[0].shape
    n = max(32, int(round(polygon_perimeter(boundary) / 2.0)))
    bounds = (w - 1, h - 1)
    pts = np.clip(resample_closed(boundary, n), 0, bounds)
    # Shape reference: the boundary polygon densified by the same resampling,
    # so the Hausdorff term is not dominated by gaps between hull vertices.
    shape_ref = pts.copy()
    inv_system = system_inverse(n, cfg.alpha, cfg.beta, cfg.gamma)

    for it in range(1, cfg.max_iters + 1):
        f = sample_force(force, pts)
        if cfg.mode == "proposed":
            f += shape_force(pts, shape_ref, cfg.delta, cfg.shape_weight)
        new = np.clip(evolve_step(pts, f, cfg, inv_system=inv_system), 0, bounds)
        # sqrt is monotone, so this is the largest point displacement exactly.
        step = new - pts
        step *= step
        disp = math.sqrt((step[:, 0] + step[:, 1]).max())
        pts = new
        if disp < cfg.epsilon:
            break
        if it % cfg.resample_every == 0:
            pts = np.clip(resample_closed(pts, n), 0, bounds)
    return pts
