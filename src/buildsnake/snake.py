"""Active-contour evolution with GVF external force and a LiDAR shape prior.

The contour is a closed (N, 2) array of pixel coordinates, advanced with the
semi-implicit scheme (gamma I + A) x_new = gamma x_old + F(x_old), where A is
the cyclic pentadiagonal operator of the tension/rigidity terms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SnakeConfig
from .energy import GvfField, compute_gvf, image_energy
from .geometry import hausdorff_distance, polygon_perimeter
from .raster import gradient

__all__ = [
    "ExternalFields",
    "prepare_fields",
    "resample_closed",
    "system_matrix",
    "evolve_step",
    "sample_force",
    "shape_sim_energy",
    "shape_force",
    "run_snake",
]


@dataclass
class ExternalFields:
    """Precomputed per-image fields shared by every snake on that image."""

    e_img: np.ndarray
    force_x: np.ndarray
    force_y: np.ndarray
    gvf: GvfField | None = None


def _rescale_force(fx: np.ndarray, fy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide by the global max magnitude so the strongest force is 1.

    Keeps relative strengths intact while making the step size implied by
    gamma independent of the image's dynamic range.
    """
    peak = float(np.hypot(fx, fy).max())
    if peak <= 0:
        return fx, fy
    return fx / peak, fy / peak


def prepare_fields(gray: np.ndarray, cfg: SnakeConfig) -> ExternalFields:
    """Image energy plus the mode's external force field.

    basic uses the raw potential force -grad(E_img); gvf and proposed use
    the diffused GVF field in its place. Either field is rescaled to unit
    peak magnitude before driving the contour.
    """
    e_img = image_energy(gray, cfg.w_line, cfg.w_edge, cfg.w_term, cfg.sigma)
    if cfg.mode == "basic":
        ex, ey = gradient(e_img)
        fx, fy = _rescale_force(-ex, -ey)
        return ExternalFields(e_img=e_img, force_x=fx, force_y=fy)
    field = compute_gvf(e_img, mu=cfg.mu, iters=cfg.gvf_iters)
    fx, fy = _rescale_force(field.u, field.v)
    return ExternalFields(e_img=e_img, force_x=fx, force_y=fy, gvf=field)


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


def system_matrix(n: int, alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Dense gamma I + A for the closed contour's internal-energy operator."""
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


def evolve_step(
    points: np.ndarray,
    force: np.ndarray,
    cfg: SnakeConfig,
    inv_system: np.ndarray | None = None,
) -> np.ndarray:
    """One semi-implicit step; the linear system is solved exactly."""
    pts = np.asarray(points, dtype=float)
    if inv_system is None:
        inv_system = np.linalg.inv(system_matrix(len(pts), cfg.alpha, cfg.beta, cfg.gamma))
    return inv_system @ (cfg.gamma * pts + force)


def sample_force(fields: ExternalFields, points: np.ndarray) -> np.ndarray:
    """Bilinear force at each point; zero outside the image bounds.

    The corner indices and weights are shared by both force components, and
    the corners are gathered from the flattened fields.
    """
    pts = np.asarray(points, dtype=float)
    h, w = fields.force_x.shape
    x, y = pts[:, 0], pts[:, 1]
    inside = (x >= 0) & (x <= w - 1) & (y >= 0) & (y <= h - 1)
    xc = np.clip(x, 0.0, w - 1.0)
    yc = np.clip(y, 0.0, h - 1.0)
    x0 = np.clip(np.floor(xc).astype(int), 0, w - 2) if w > 1 else np.zeros_like(xc, int)
    y0 = np.clip(np.floor(yc).astype(int), 0, h - 2) if h > 1 else np.zeros_like(yc, int)
    tx = xc - x0
    ty = yc - y0
    sx = 1 - tx
    sy = 1 - ty
    # Flat offsets of the right, lower and diagonal corners. A field one pixel
    # wide or high has no second column or row; those corners reuse i00.
    dx = 1 if w > 1 else 0
    dy = w if h > 1 else 0
    dxy = dx + dy if dx and dy else 0
    i00 = y0 * w + x0
    i01 = i00 + dx
    i10 = i00 + dy
    i11 = i00 + dxy
    out = np.empty((len(pts), 2))
    for k, field in enumerate((fields.force_x, fields.force_y)):
        flat = field.reshape(-1)
        f = flat[i00] * sx * sy + flat[i01] * tx * sy + flat[i10] * sx * ty + flat[i11] * tx * ty
        np.multiply(f, inside, out=out[:, k])
    return out


def shape_sim_energy(snake: np.ndarray, boundary: np.ndarray, delta: float) -> float:
    """Shape dissimilarity 1 - exp(-d_H^2 / delta), in [0, 1)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    d = hausdorff_distance(snake, boundary)
    return float(1.0 - np.exp(-(d * d) / delta))


def shape_force(
    snake: np.ndarray,
    boundary: np.ndarray,
    delta: float,
    weight: float = 1.0,
    step: float = 1.0,
) -> np.ndarray:
    """Central finite-difference force of the shape-similarity energy.

    Each snake point i is moved by +-step along x and along y, and the
    Hausdorff distance to the boundary is taken for each of the four moved
    contours. A move of point i changes only row i of the distance matrix
    d[i, j] = |a_i - b_j|, and by the triangle inequality changes each entry
    by at most step. So the moved row's minimum can only come from pairs with
    d[i, j] <= rowmin[i] + 2 reach, and column j can only fall below its
    minimum colmin[j] at pairs with d[i, j] < colmin[j] + reach, where
    reach = step plus a slack far above the rounding error of the distances.
    Moved distances are computed only on those pairs; every other column
    contributes exactly colmin[j] to the directed distance boundary -> snake.
    Min and max are exact, and a pair admitted needlessly cannot change them,
    so the result is the same, bit for bit, as moving every pair.
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
    cols = np.arange(m)
    # d = sqrt(dx * dx + dy * dy), built in place to skip n x m temporaries.
    d = np.subtract.outer(a[:, 0], b[:, 0])
    d *= d
    dy = np.subtract.outer(a[:, 1], b[:, 1])
    dy *= dy
    d += dy
    np.sqrt(d, out=d)

    rowmin = d.min(axis=1)
    i1 = int(np.argmax(rowmin))
    masked = rowmin.copy()
    masked[i1] = -np.inf
    second = masked.max() if n > 1 else -np.inf
    excl_rowmax = np.full(n, rowmin[i1])
    excl_rowmax[i1] = second

    colarg = d.argmin(axis=0)
    colmin = d[colarg, cols]
    # Distances round off by ~1e-16 of the coordinate scale; the slack is ample.
    reach = step + 1e-9 * (1.0 + step + max(np.abs(a).max(), np.abs(b).max()))
    near = (d <= (rowmin + 2.0 * reach)[:, None]) | (d < colmin + reach)
    # Largest column minimum among the columns row i's move cannot lower.
    outside = np.where(near, -np.inf, colmin).max(axis=1)
    # Second-smallest entry of each column; d is not needed after this.
    d[colarg, cols] = np.inf
    colmin2 = d.min(axis=0)

    # Each row keeps at least its own minimum, so every reduceat run is non-empty.
    ii, jj = np.divmod(np.flatnonzero(near), m)
    starts = np.searchsorted(ii, np.arange(n))
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
    fx = -weight * (e[0] - e[1]) / (2.0 * step)
    fy = -weight * (e[2] - e[3]) / (2.0 * step)
    return np.column_stack([fx, fy])


def run_snake(
    init,
    gray: np.ndarray,
    cfg: SnakeConfig,
    fields: ExternalFields | None = None,
) -> np.ndarray:
    """Evolve a snake from the projected boundary until convergence.

    `init` is a ProjectedBoundary or plain (M, 2) pixel array; it provides
    both the initial contour and the shape-similarity reference in
    proposed mode. Returns the final closed contour as (N, 2) pixels.
    """
    boundary = np.asarray(getattr(init, "pixels", init), dtype=float)
    if len(boundary) < 3:
        raise ValueError("initial boundary needs at least 3 points")
    if fields is None:
        fields = prepare_fields(gray, cfg)
    h, w = gray.shape
    n = max(32, int(round(polygon_perimeter(boundary) / 2.0)))
    pts = resample_closed(boundary, n)
    np.clip(pts[:, 0], 0, w - 1, out=pts[:, 0])
    np.clip(pts[:, 1], 0, h - 1, out=pts[:, 1])
    # Shape reference: the boundary polygon densified by the same resampling,
    # so the Hausdorff term is not dominated by gaps between hull vertices.
    shape_ref = pts.copy()
    inv_system = np.linalg.inv(system_matrix(n, cfg.alpha, cfg.beta, cfg.gamma))

    for it in range(1, cfg.max_iters + 1):
        force = sample_force(fields, pts)
        if cfg.mode == "proposed":
            force += shape_force(pts, shape_ref, cfg.delta, cfg.shape_weight)
        new = evolve_step(pts, force, cfg, inv_system=inv_system)
        np.clip(new[:, 0], 0, w - 1, out=new[:, 0])
        np.clip(new[:, 1], 0, h - 1, out=new[:, 1])
        disp = float(np.linalg.norm(new - pts, axis=1).max())
        pts = new
        if disp < cfg.epsilon:
            break
        if it % cfg.resample_every == 0:
            pts = resample_closed(pts, n)
    return pts
