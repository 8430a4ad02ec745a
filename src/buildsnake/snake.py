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

from dataclasses import dataclass

import numpy as np

from .config import BOUNDS, SnakeConfig, as_number
from .energy import compute_gvf, edge_force, image_energy
from .geometry import hausdorff_distance, polygon_perimeter
from .raster import STRIP_ELEMS, row_strips

__all__ = [
    "ForceField",
    "prepare_fields",
    "force_magnitude",
    "resample_closed",
    "system_inverse",
    "evolve_step",
    "sample_force",
    "shape_sim_energy",
    "ShapeReference",
    "shape_force",
    "run_snake",
]


@dataclass(frozen=True)
class ForceField:
    """The force of one image of (H, W) `shape`: components u and v on a grid
    k times coarser, whose cell (i, j) is centred on pixel (x, y) =
    (k j + (k - 1) / 2, k i + (k - 1) / 2). At k = 1 it is the pixel grid.
    u and v share one 2-D shape of at least 2 x 2, which bilinear sampling
    needs, and k is an integer >= 1."""

    u: np.ndarray
    v: np.ndarray
    k: int
    shape: tuple[int, int]

    def __post_init__(self):
        if self.u.shape != self.v.shape or self.u.ndim != 2 or min(self.u.shape) < 2:
            raise ValueError(f"u and v must share one 2-D shape of at least 2x2, got {self.u.shape} and {self.v.shape}")
        as_number("k", self.k, integer=True, bound=">= 1")


def _peak_lines(n: int, m: int, k: int) -> np.ndarray:
    """The pixel lines of an axis of n pixels next to one of its m grid
    centres k i + (k - 1) / 2 (the floor and ceil of each), clipped to the
    image: a centre past the last pixel gives the image's edge line."""
    centres = k * np.arange(m) + (k - 1) / 2
    v = np.sort(np.clip(np.concatenate([np.floor(centres), np.ceil(centres)]), 0, n - 1))
    # np.unique's own mask over the sorted values: its first call would import numpy.ma.
    return v[np.concatenate(([True], v[1:] != v[:-1]))]


def _magnitudes(force: ForceField, ys: np.ndarray, xs: np.ndarray):
    """|F| as `sample_force` gives it at the pixels ys x xs, one block of
    rows of about STRIP_ELEMS / 2 pixels at a time: `sample_force` holds
    about 20 eight-byte values per point, so a block takes ~1.3 MB."""
    step = max(1, STRIP_ELEMS // (2 * len(xs)))
    for r0 in range(0, len(ys), step):
        pts = np.stack(np.broadcast_arrays(xs, ys[r0 : r0 + step, None]), axis=-1)
        f = sample_force(force, pts.reshape(-1, 2))
        yield np.hypot(f[:, 0], f[:, 1]).reshape(-1, len(xs))


def force_magnitude(force: ForceField) -> np.ndarray:
    """|F| at every pixel of the image, as an (H, W) array."""
    return np.vstack(list(_magnitudes(force, *(np.arange(n) for n in force.shape))))


def _force_peak(force: ForceField) -> float:
    """Max |F| over the image's pixels, as `sample_force` gives F there.

    At k = 1 the pixels are the grid, and the max is taken one
    `raster.row_strips` strip at a time: a max is exact, so it is the
    whole-image max with no image-sized |F| array. Otherwise F is affine
    along each axis between neighbouring grid centres and constant past the
    end ones, so |F| is convex on each such stretch of a pixel row or
    column, and peaks on an end pixel: on a `_peak_lines` line.

    Of those pixels only the ones near a few grid cells are sampled. A
    pixel samples the 2 x 2 nodes of its `sample_force` corner cell as a sum
    with non-negative weights that add up to 1, so its |F| is at most the
    largest node |F| of that cell, times 1 + 1e-12 for the rounding of the
    sum and of the hypot (the slack of `_square_up`). The pixels of the cell
    with the largest such bound give a lower bound on the peak, and a cell
    whose bound is below it cannot hold the peak. So only the lattice of
    the lines through the other cells is sampled: it holds every pixel of
    those cells and no pixel off the peak lines, and its max is the same
    `sample_force` sample, bit for bit, as over every line pixel. The field
    must be finite.
    """
    if force.k == 1:
        strips = (rows for rows, _, _ in row_strips(force.u.shape, 0))
        # np.max, not max(): a NaN strip max must win, as in the whole-image max.
        return float(np.max([np.hypot(force.u[s], force.v[s]).max() for s in strips]))
    (m_y, m_x), k = force.u.shape, force.k
    ys, xs = _peak_lines(force.shape[0], m_y, k), _peak_lines(force.shape[1], m_x, k)
    # Each line's corner cell, with `sample_force`'s operations.
    cy, cx = (np.clip(((p + (1 - k) / 2) / k).astype(np.intp), 0, m - 2) for p, m in ((ys, m_y), (xs, m_x)))
    mag = np.hypot(force.u, force.v)
    mag = np.maximum(mag[:-1], mag[1:])  # the larger node |F| of each vertical pair
    bound = np.maximum(mag[:, :-1], mag[:, 1:])
    bound *= 1.0 + 1e-12
    i, j = np.unravel_index(np.argmax(bound), bound.shape)
    cells = bound >= _lattice_peak(force, ys[cy == i], xs[cx == j])
    return _lattice_peak(force, ys[cells.any(axis=1)[cy]], xs[cells.any(axis=0)[cx]])


def _lattice_peak(force: ForceField, ys: np.ndarray, xs: np.ndarray) -> float:
    """Max |F| as `sample_force` gives it at the pixels ys x xs."""
    return max(float(mag.max()) for mag in _magnitudes(force, ys, xs))


def _rescale_force(force: ForceField) -> ForceField:
    """Divide u and v in place by `_force_peak`, so the strongest force on
    the image is 1 whatever the image's dynamic range."""
    peak = _force_peak(force)
    if peak > 0:
        for component in (force.u, force.v):
            component /= peak
    return force


def _gvf_scale(shape: tuple[int, int], sigma: float) -> int:
    """Block size k of the grid the GVF is solved on: int(sigma / 2.5),
    lowered until the coarse grid has at least 3 cells a side, and at least 1.

    A k x k block mean loses little of an image that the energy smooths
    over sigma, and at sigma < 5 k is 1, the full-resolution grid.
    ceil(m / k) >= 3 cells on a side of m pixels means k <= (m - 1) // 2.
    """
    return max(1, min(int(sigma / 2.5), (min(shape) - 1) // 2))


def _block_mean(img: np.ndarray, k: int) -> np.ndarray:
    """Mean of each k x k block of `img`, edge-replicated to a multiple of
    k; `img` itself at k = 1.

    Each value enters divided by k^2, which no sum of them can overflow; for
    a power-of-two k that is the bits of the sum divided. Each block's sum
    starts from 0 and runs over its rows, then its columns, in order. The
    whole blocks are read through strided views of `img`; only a trailing
    partial block row or column is copied, with its last row or column
    replicated up to k.
    """
    if k == 1:
        return img
    h, w = img.shape
    hk, wk = h - h % k, w - w % k
    coarse = np.zeros((-(-h // k), -(-w // k)))
    _add_blocks(img[:hk, :wk], k, coarse[: hk // k, : wk // k])
    if hk < h:
        _add_blocks(np.pad(img[hk:], ((0, -h % k), (0, -w % k)), mode="edge"), k, coarse[-1:])
    if wk < w:
        _add_blocks(np.pad(img[:hk, wk:], ((0, 0), (0, -w % k)), mode="edge"), k, coarse[: hk // k, -1:])
    return coarse


def _add_blocks(img: np.ndarray, k: int, out: np.ndarray) -> None:
    """Add to `out` each value of its k x k block of `img` divided by k^2,
    the block's rows, then its columns, in order, through one term buffer."""
    term = np.empty_like(out)
    for i in range(k):
        for j in range(k):
            np.divide(img[i::k, j::k], float(k * k), out=term)
            out += term


def prepare_fields(gray: np.ndarray, cfg: SnakeConfig) -> ForceField:
    """The mode's external force on `gray`, rescaled to unit peak magnitude
    over the image's pixels; one field serves every snake on the image.

    Basic mode uses the edge force -grad(E_img) of `energy.edge_force` on
    the full image (k = 1). Gvf and proposed stay on a grid k = `_gvf_scale`
    times coarser: the energy is built on the k x k block mean of `gray` at
    sigma / k, and its edge force is diffused there into a GVF field with
    gvf_iters // k^2 steps (at least one), which spread as far in pixels as
    gvf_iters fine steps. The field is rescaled on copies, so the solved one
    stays as `compute_gvf` returned it.

    The energy and the edge force are taken one strip of rows at a time
    (`raster.row_strips`), with the bits of whole-image np.gradient calls.
    In basic mode at most two image-sized float arrays are held beyond
    `gray`, the floor for the two returned components: the energy's two
    (`energy.image_energy`), then the edge force, whose f_x overwrites the
    energy (`energy.edge_force` with out=e_img), and the peak magnitude is
    taken a strip at a time (`_force_peak`).
    """
    shape = np.shape(gray)
    k = 1 if cfg.mode == "basic" else _gvf_scale(shape, cfg.sigma)
    e_img = image_energy(_block_mean(gray, k), cfg.w_line, cfg.w_edge, cfg.w_term, cfg.sigma / k)
    if cfg.mode == "basic":
        u, v = edge_force(e_img, out=e_img)
    else:
        field = compute_gvf(e_img, mu=cfg.mu, iters=max(1, cfg.gvf_iters // (k * k)))
        u, v = field.u.copy(), field.v.copy()
        del field
    del e_img
    return _rescale_force(ForceField(u, v, k, shape))


def resample_closed(points: np.ndarray, n: int) -> np.ndarray:
    """Resample a closed contour to n points equally spaced by arc length.

    Raises ValueError for fewer than 3 points in or out, and for a perimeter
    that is zero or not finite: a NaN or infinite point makes it so.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3 or n < 3:
        raise ValueError(f"a closed contour needs at least 3 points, got {len(pts)} resampled to {n}")
    # d[i] runs from point i to the next one, the last to the first.
    d = np.empty_like(pts)
    np.subtract(pts[1:], pts[:-1], out=d[:-1])
    np.subtract(pts[0], pts[-1], out=d[-1])
    sq = d * d
    seg = np.sqrt(sq[:, 0] + sq[:, 1])
    total = seg.sum()
    if not 0.0 < total < np.inf:
        raise ValueError(f"contour perimeter must be positive and finite, got {total!r}")
    cum = np.empty(len(seg) + 1)
    cum[0] = 0.0
    np.cumsum(seg, out=cum[1:])
    s = np.arange(n) * (total / n)
    # s >= 0 = cum[0] keeps k >= 0. The bound keeps k on a segment should the
    # sequential cumsum end below the pairwise total by more than total / n.
    k = np.searchsorted(cum, s, side="right")
    k -= 1
    np.minimum(k, len(seg) - 1, out=k)
    seg_k = seg[k]
    t = (s - cum[k]) / np.where(seg_k > 0, seg_k, 1.0)
    return pts[k] + t[:, None] * d[k]


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


def sample_force(force: ForceField, points: np.ndarray) -> np.ndarray:
    """Bilinear (f_x, f_y) of the force field at each point of the image.

    A point p samples the grid at c = (p - (k - 1) / 2) / k, clamped to the
    grid, so past the first or last grid centre the field is constant along
    that axis; at k = 1, c = p. Both components share the corner indices and
    weights. Each component's four corners are gathered from its flattened
    array with one fancy index over a (4, n) index array, whose rows are the
    flat offsets 0, 1, w and w + 1 of the corners f00, f01, f10 and f11, and
    are weighed as rows: by sx, tx, sx, tx, then by sy, sy, ty, ty. The rows
    are summed in order, so each sample is
    ((f00 sx sy + f01 tx sy) + f10 sx ty) + f11 tx ty, evaluated left to right.

    The flattening is a view only for a C-contiguous component; any other
    is copied whole on every call, which `prepare_fields` avoids by
    returning C-contiguous components.
    """
    pts = np.asarray(points, dtype=float)
    h, w = force.u.shape
    n = len(pts)
    # weights[0] holds the weights (sx, sy) of the low corners, weights[1]
    # those (tx, ty) of the high ones, each as x and y rows; c is weights[1].
    weights = np.empty((2, 2, n))
    c = weights[1]
    # Adding (1 - k) / 2 turns a -0.0 point into +0.0, so no weight is -0.0.
    np.add(pts.T, (1 - force.k) / 2, out=c)
    c /= force.k
    corner = c.astype(np.intp)  # truncation is floor for c >= 0; the bounds catch the rest
    # Scalar bounds per axis: a length-2 bound array makes numpy loop in pairs.
    np.minimum(corner[0], w - 2, out=corner[0])
    np.minimum(corner[1], h - 2, out=corner[1])
    np.maximum(corner, 0, out=corner)
    # With the corner on the grid, a weight clamped to [0, 1] is c clamped to the grid.
    c -= corner
    np.maximum(c, 0.0, out=c)
    np.minimum(c, 1.0, out=c)
    np.subtract(1.0, c, out=weights[0])
    index = (corner[1] * w + corner[0]) + np.array([[0], [1], [w], [w + 1]])
    wx, wy = weights[:, 0], weights[:, 1, None]
    out = np.empty((n, 2))
    for col, field in enumerate((force.u, force.v)):
        corners = field.reshape(-1)[index]
        # by_axis[a, b] is the corner a rows down and b columns right: it is
        # weighed by wx[b], then by wy[a], as in f * sx * sy.
        by_axis = corners.reshape(2, 2, n)
        by_axis *= wx
        by_axis *= wy
        # Added row by row: np.add.reduce would start from +0.0 and lose a -0.0 sum.
        total = out[:, col]
        np.add(corners[0], corners[1], out=total)
        total += corners[2]
        total += corners[3]
    return out


def shape_sim_energy(snake: np.ndarray, boundary: np.ndarray, delta: float) -> float:
    """Shape dissimilarity 1 - exp(-d_H^2 / delta), in [0, 1)."""
    as_number("delta", delta, bound=BOUNDS["delta"])
    d = hausdorff_distance(snake, boundary)
    return float(1.0 - np.exp(-(d * d) / delta))


def _square_up(t):
    """An upper bound on t * t: every q whose rounded root is <= t has q <= it.

    The relative 1e-12 is far above the rounding of the square and of a root.
    """
    return t * t * (1.0 + 1e-12)


@dataclass(frozen=True)
class ShapeReference:
    """The shape-similarity reference of one snake of n points, as
    `shape_force` uses it: the (M, 2) reference `points`, checked finite
    once, their coordinates again as contiguous rows `xs` and `ys`, their
    largest absolute coordinate `extent`, and two (n, M) float buffers `q`
    and `dy` that every call overwrites. So it holds 2 n M floats for as
    long as it lives; `run_snake` builds one per snake."""

    points: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    extent: float
    q: np.ndarray
    dy: np.ndarray

    @classmethod
    def build(cls, boundary: np.ndarray, n: int) -> "ShapeReference":
        b = np.ascontiguousarray(boundary, dtype=float)
        if n < 1 or len(b) == 0:
            raise ValueError("snake and boundary must be non-empty")
        if not np.isfinite(b).all():
            raise ValueError("snake and boundary must be finite")
        xs, ys = b.T.copy()
        return cls(b, xs, ys, float(np.abs(b).max()), np.empty((n, len(b))), np.empty((n, len(b))))


def shape_force(
    snake: np.ndarray,
    boundary: np.ndarray | ShapeReference,
    delta: float,
    weight: float = SnakeConfig.shape_weight,
    step: float = 1.0,
) -> np.ndarray:
    """Central finite-difference force of the shape-similarity energy.

    `boundary` is a `ShapeReference` built for the snake's length, or an
    (M, 2) array, which is wrapped in a new one for this call only.

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
    minimum of the roots. With colq = q.min(axis=0) and colmin its root,
    column j's minimum with row i removed is colmin[j] where q[i, j] >
    colq[j]. Where q[i, j] == colq[j], it is colmin2[j], the root of the
    smallest entry left once the first row r attaining colq[j] is taken out.
    If row i ties with r, both that and the minimum over the other rows are
    colmin[j]; if row i is the unique argmin, r is i, and both are the second
    minimum. So no argmin over the full matrix is needed: colmin2 is taken
    only on the columns that some active row attains. Each test d <= t is
    made as q <= `_square_up(t)`, a bound squared from above, so it admits a
    superset of the pairs and rows the test on d admits.

    q is built in the reference's two (n, M) buffers, which a prepared
    reference holds, 2 n M floats, for the life of its snake. A call on it
    allocates only arrays over the active rows and their pairs.
    """
    as_number("delta", delta, bound=BOUNDS["delta"])
    as_number("step", step, bound="> 0")
    a = np.ascontiguousarray(snake, dtype=float)
    ref = boundary if isinstance(boundary, ShapeReference) else ShapeReference.build(boundary, len(a))
    b, q, dy = ref.points, ref.q, ref.dy
    n, m = q.shape
    if len(a) != n:
        raise ValueError(f"snake has {len(a)} points, but its shape reference was built for {n}")
    if not np.isfinite(a).all():
        raise ValueError("snake and boundary must be finite")
    # q = dx * dx + dy * dy, built in the reference's buffers. Each snake
    # coordinate is copied across its row first: a ufunc with one operand
    # broadcast down the rows runs faster than one with both broadcast.
    np.copyto(q, a[:, 0:1])
    q -= ref.xs
    q *= q
    np.copyto(dy, a[:, 1:2])
    dy -= ref.ys
    dy *= dy
    q += dy

    rowmin = np.sqrt(q.min(axis=1))
    colq = q.min(axis=0)
    colmin = np.sqrt(colq)
    hd = max(rowmin.max(), colmin.max())
    # Distances round off by ~1e-16 of the coordinate scale; the slack is ample.
    reach = step + 1e-9 * (1.0 + step + max(np.abs(a).max(), ref.extent))
    # The rows whose moves can change hd; every other row's force is an exact zero.
    active = rowmin >= hd - reach
    colcap = _square_up(colmin + reach)
    top = np.flatnonzero(colmin >= hd - reach)
    active |= (q[:, top] <= colcap[top]).any(axis=1)
    rows = np.flatnonzero(active)

    i1 = int(np.argmax(rowmin))
    masked = rowmin.copy()
    masked[i1] = -np.inf
    second = masked.max() if n > 1 else -np.inf
    excl_rowmax = np.where(rows == i1, second, rowmin[i1])

    qr = q[rows]
    near = (qr <= _square_up(rowmin[rows] + 2.0 * reach)[:, None]) | (qr <= colcap)
    # Largest column minimum among the columns row i's move cannot lower.
    outside = np.where(near, -np.inf, colmin).max(axis=1)
    attains = qr == colq
    held = np.flatnonzero(attains.any(axis=0))
    rest = q[:, held]
    rest[rest.argmin(axis=0), np.arange(len(held))] = np.inf
    colmin2 = colmin.copy()
    colmin2[held] = np.sqrt(rest.min(axis=0))
    # Column minima as seen with row i removed, at each near pair in row order.
    excl_colmin = np.where(attains, colmin2, colmin)[near]

    # Each row keeps at least its own minimum, so every reduceat run is non-empty.
    k, jj = np.divmod(np.flatnonzero(near), m)
    starts = np.searchsorted(k, np.arange(len(rows)))

    # Points as complex x + iy: the four moves are one add, componentwise, so
    # each moved coordinate and difference has the bits of the real ones.
    offsets = np.array([[step, 0.0], [-step, 0.0], [0.0, step], [0.0, -step]]).view(complex)
    dd = a.view(complex)[rows[k], 0] + offsets - b.view(complex)[jj, 0]  # (4, pairs)
    dd = dd.view(float)
    dd *= dd
    newrows = np.sqrt(dd[:, 0::2] + dd[:, 1::2])  # (4, pairs)

    d_ab = np.maximum(excl_rowmax, np.minimum.reduceat(newrows, starts, axis=1))
    d_ba = np.maximum(outside, np.maximum.reduceat(np.minimum(excl_colmin, newrows), starts, axis=1))
    dh = np.maximum(d_ab, d_ba)
    e = 1.0 - np.exp(-(dh * dh) / delta)
    force = np.full((n, 2), -weight * 0.0 / (2.0 * step), dtype=float)
    # Rows 0 and 1 of e are the +-x moves, rows 2 and 3 the +-y moves.
    force[rows] = (-weight * (e[0::2] - e[1::2]) / (2.0 * step)).T
    return force


def _clip_to_image(pts: np.ndarray, w: int, h: int) -> np.ndarray:
    """Clip the (N, 2) contour `pts` in place to [0, w - 1] x [0, h - 1],
    the bits of np.clip(pts, 0, (w - 1, h - 1)) without its Python wrapper
    and its pairwise bound loop."""
    np.maximum(pts, 0.0, out=pts)
    np.minimum(pts[:, 0], w - 1, out=pts[:, 0])
    np.minimum(pts[:, 1], h - 1, out=pts[:, 1])
    return pts


def _settled(old: np.ndarray, new: np.ndarray, eps2: float) -> bool:
    """The stop test of `run_snake` for a step from the closed contour `old`
    to `new`: (mv x t)^2 <= eps2 |t|^2 at every point, where mv = new - old
    and t is the central difference of the point's neighbours on `new`."""
    mv = new - old
    # The contour with its last point before it and its first after.
    ring = np.concatenate((new[-1:], new, new[:1]))
    t = ring[2:] - ring[:-2]
    cross = mv[:, 0] * t[:, 1]
    cross -= mv[:, 1] * t[:, 0]
    cross *= cross
    t *= t
    bound = t[:, 0] + t[:, 1]
    bound *= eps2
    return bool((cross <= bound).all())


def run_snake(init: np.ndarray, force: ForceField, cfg: SnakeConfig) -> np.ndarray:
    """Evolve a snake from the projected boundary until it settles.

    `init` is the (M, 2) pixel array of the boundary; it provides both the
    initial contour and the shape-similarity reference in proposed mode.
    `force` is the image's `prepare_fields` field, whose image shape (H, W)
    bounds the contour: the initial resample, each evolve step and each
    periodic resample are clipped to [0, W - 1] x [0, H - 1], so every point
    that `sample_force` sees lies in the image. Returns the final closed contour
    as (N, 2) pixels.

    The snake stops after the first step whose largest normal displacement
    is at most `cfg.epsilon`, or after `cfg.max_iters` steps. A point's normal
    displacement is |mv x t| / |t|, where mv is its move in the step and t
    the central difference of its neighbours on the new contour. Sliding
    along the contour does not count: the snake energy does not depend on
    where the points sit along it. The test is made as (mv x t)^2 <=
    epsilon^2 |t|^2, with no divide. A point whose neighbours coincide
    (t = 0) has no normal and counts as settled, so a snake collapsed onto
    one point stops there instead of resampling a contour of zero length.

    In proposed mode the snake holds one `ShapeReference` to the initial
    resampled contour, built once next to the system inverse, and each
    iteration calls the module's `shape_force` once with it. Its two n x n
    buffers are the snake's only n x n arrays besides the system inverse.
    """
    boundary = np.asarray(init, dtype=float)
    if len(boundary) < 3:
        raise ValueError("initial boundary needs at least 3 points")
    h, w = force.shape
    n = max(32, int(round(polygon_perimeter(boundary) / 2.0)))
    pts = _clip_to_image(resample_closed(boundary, n), w, h)
    # Shape reference: the boundary polygon densified by the same resampling,
    # so the Hausdorff term is not dominated by gaps between hull vertices.
    shape_ref = ShapeReference.build(pts.copy(), n) if cfg.mode == "proposed" else None
    inv_system = system_inverse(n, cfg.alpha, cfg.beta, cfg.gamma)
    eps2 = cfg.epsilon * cfg.epsilon

    for it in range(1, cfg.max_iters + 1):
        f = sample_force(force, pts)
        if cfg.mode == "proposed":
            f += shape_force(pts, shape_ref, cfg.delta, cfg.shape_weight)
        new = _clip_to_image(evolve_step(pts, f, cfg, inv_system=inv_system), w, h)
        settled = _settled(pts, new, eps2)
        pts = new
        if settled:
            break
        if it % cfg.resample_every == 0:
            pts = _clip_to_image(resample_closed(pts, n), w, h)
    return pts
