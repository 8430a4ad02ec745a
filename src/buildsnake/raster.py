"""Netpbm I/O, smoothing, row strips for derivative stencils and binary-grid ops.

The image derivatives themselves live in `energy`: the energy terms, and the
one edge-force pass, `energy.edge_force`, that drives every snake mode.

Gray images are (H, W) arrays of intensities in [0, 255], indexed
[row, col] = [y, x]: float64, or uint8 as `load_pnm` returns an 8-bit file.
Every consumer converts to float64, which holds each uint8 value exactly.
Morphology and labelling work on (H, W) bool arrays; their metric frame,
where one is needed, is a `geometry.GridSpec`.
"""
from __future__ import annotations

import math
import re

import numpy as np

from .config import BOUNDS, as_number, check_connectivity

__all__ = [
    "load_pnm",
    "save_pgm",
    "rgb_to_gray",
    "gaussian_smooth",
    "row_strips",
    "morphological_open",
    "connected_components",
    "disk_element",
]

# Pixels per array in one row strip of the Gaussian blur, so a strip's buffers
# stay in L2 cache. The derivative stages (`row_strips`) use it too: the
# energy terms past the blur on a 1536x1536 image took 0.130 / 0.129 / 0.120 s
# at 16k / 32k / 64k (medians of seven runs on a 2-vCPU Xeon), a tie within
# the runs' spread. The GVF step (`energy._step`) runs on these strips too:
# 12 steps on the 256x256 coarse grid of the 1024x1024 benchmark scene took
# 6.59 / 6.71 ms at 16k / 32k (medians of 40 alternating solves, seed 7,
# 2-vCPU host), a tie.
STRIP_ELEMS = 16384


# ---------------------------------------------------------------------------
# Netpbm parsing / writing


# A # comment to the end of its line, or a token: a run of bytes that are
# neither ASCII whitespace nor #.
_PNM_TOKEN = re.compile(rb"#[^\n]*|[^\s#]+")


def _pnm_tokens(data: bytes):
    """Yield (position, token) for the whitespace-separated header/ASCII tokens, skipping # comments."""
    for match in _PNM_TOKEN.finditer(data):
        if data[match.start()] != ord("#"):
            yield match.start(), match[0]


def load_pnm(data: bytes):
    """Parse PGM (P2/P5) or PPM (P3/P6) bytes.

    Returns a gray image for PGM, or an (r, g, b) triple for PPM, with
    values in [0, 255]: at maxval 255 the uint8 samples themselves, at any
    other maxval float64 samples rescaled by 255 / maxval. A sample outside
    0..maxval raises ValueError.
    """
    tokens = _pnm_tokens(data)
    try:
        _, magic = next(tokens)
    except StopIteration:
        raise ValueError("empty PNM data") from None
    magic = magic.decode("ascii", "replace")
    if magic not in ("P2", "P3", "P5", "P6"):
        raise ValueError(f"unsupported PNM magic {magic!r}")
    try:
        _, w = next(tokens)
        _, h = next(tokens)
        maxpos, maxtok = next(tokens)
    except StopIteration:
        raise ValueError("truncated PNM header") from None
    width, height, maxval = int(w), int(h), int(maxtok)
    if width <= 0 or height <= 0:
        raise ValueError("PNM dimensions must be positive")
    if not 0 < maxval <= 65535:
        raise ValueError(f"PNM maxval {maxval} out of range (1..65535)")
    channels = 3 if magic in ("P3", "P6") else 1
    count = width * height * channels

    if magic in ("P2", "P3"):
        values = []
        for _, tok in tokens:
            values.append(int(tok))
            if not 0 <= values[-1] <= maxval:
                raise ValueError(f"PNM sample {values[-1]} out of range (0..{maxval})")
            if len(values) == count:
                break
        if len(values) < count:
            raise ValueError("truncated PNM payload")
        raw = np.array(values, dtype=np.uint8 if maxval == 255 else float)
    else:
        # Raw formats: payload starts after exactly one whitespace byte
        # following the maxval token.
        start = maxpos + len(maxtok) + 1
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        if len(data) - start < count * dtype.itemsize:
            raise ValueError("truncated PNM payload")
        samples = np.frombuffer(data, dtype=dtype, count=count, offset=start)
        if samples.max() > maxval:
            raise ValueError(f"PNM sample {samples.max()} out of range (0..{maxval})")
        raw = samples.copy() if maxval == 255 else samples.astype(float)

    if maxval != 255:
        raw *= 255.0 / maxval
    if channels == 1:
        return raw.reshape(height, width)
    rgb = raw.reshape(height, width, 3)
    return rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2]


def _quantize(img: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(np.asarray(img, dtype=float)), 0, 255).astype(np.uint8)


def save_pgm(img: np.ndarray) -> bytes:
    """Encode a gray image as binary PGM (P5, maxval 255)."""
    q = _quantize(img)
    h, w = q.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + q.tobytes()


def rgb_to_gray(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ITU-R 601 luminance: 0.299 R + 0.587 G + 0.114 B, as float64.

    Each channel is multiplied as float64 straight into the output or one
    scratch array, and the products are summed in that order, so uint8
    channels need no float copies.
    """
    r, g, b = (np.asarray(c) for c in (r, g, b))
    if not (r.shape == g.shape == b.shape):
        raise ValueError("channel dimensions differ")
    gray = np.multiply(r, 0.299, dtype=float)
    part = np.multiply(g, 0.587, dtype=float)
    gray += part
    gray += np.multiply(b, 0.114, out=part, dtype=float)
    return gray


# ---------------------------------------------------------------------------
# Filtering


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Normalized 1D Gaussian, radius ceil(3*sigma).

    The one-tap identity [1.0] where 2 sigma^2 is below the smallest normal
    float (sigma = 0 included), whose exponents would divide by zero or
    overflow; every radius-1 or wider kernel has a finite exponent.
    """
    two_var = 2.0 * sigma * sigma
    if two_var < np.finfo(float).tiny:
        return np.ones(1)
    radius = int(math.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-(x * x) / two_var)
    return k / k.sum()


def gaussian_smooth(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge-replicated borders.

    The same bytes as scipy.ndimage.correlate1d on axis 0, then axis 1, with
    mode="nearest": the centre tap first, then (x[i-j] + x[i+j]) * k[j] from
    the outermost tap inward. Both passes run on flat buffers, one strip of
    rows at a time; the row pass drops its outputs that straddle two rows.
    """
    img = np.asarray(img, dtype=float)
    as_number("sigma", sigma, bound=BOUNDS["sigma"])
    k = gaussian_kernel(sigma)
    r = len(k) // 2
    h, w = img.shape
    rows = min(h, max(1, STRIP_ELEMS // w))
    out = np.empty((h, w))
    src = np.empty((rows + 2 * r, w))  # the strip and r clamped rows on each side
    pad = np.empty((rows, w + 2 * r))  # the column pass, edge-padded by r
    res, tmp = np.empty(pad.size), np.empty(pad.size)

    def correlate(x, step, n):  # res[i] = sum over j of k[j] * x[i + j*step]
        acc, t = res[:n], tmp[:n]
        np.multiply(x[r * step : r * step + n], k[r], out=acc)
        for j in range(r):
            np.add(x[j * step : j * step + n], x[(2 * r - j) * step : (2 * r - j) * step + n], out=t)
            t *= k[j]
            acc += t
    for r0 in range(0, h, rows):
        n = min(rows, h - r0)
        np.take(img, np.arange(r0 - r, r0 + n + r), axis=0, out=src[: n + 2 * r], mode="clip")
        correlate(src.ravel(), w, n * w)
        p = pad[:n]
        p[:, r : r + w] = res[: n * w].reshape(n, w)
        p[:, :r], p[:, r + w :] = p[:, r : r + 1], p[:, r + w - 1 : r + w]
        correlate(p.ravel(), 1, p.size - 2 * r)
        out[r0 : r0 + n] = res[: p.size].reshape(n, -1)[:, :w]
    return out


def row_strips(shape: tuple[int, ...], halo: int) -> list[tuple[slice, slice, slice]]:
    """Row strips of an (H, W) image for derivative stencils, as (rows, block, inner).

    `rows` is a strip of about STRIP_ELEMS pixels, `block` the same rows with
    up to `halo` more on each side, clipped to the image, and `inner` the
    strip's rows within the block. np.gradient along axis 0 of a block has
    the whole image's bits on every row one row or more inside the block's
    edge, and on the image's own edge rows, so `halo` successive axis-0
    derivatives of a block are exact on `inner`. Raises ValueError below 3x3.
    """
    if len(shape) != 2 or shape[0] < 3 or shape[1] < 3:
        raise ValueError("image must be at least 3x3 for gradients")
    h, w = shape
    rows = max(1, STRIP_ELEMS // w)
    strips = []
    for r0 in range(0, h, rows):
        r1, lo = min(r0 + rows, h), max(0, r0 - halo)
        strips.append((slice(r0, r1), slice(lo, min(h, r1 + halo)), slice(r0 - lo, r1 - lo)))
    return strips


# ---------------------------------------------------------------------------
# Binary morphology and labeling


def disk_element(radius: int) -> np.ndarray:
    """Disk structuring element: cells with dx^2 + dy^2 <= radius^2."""
    r = as_number("radius", radius, integer=True, bound=BOUNDS["opening_radius"])
    y, x = np.mgrid[-r : r + 1, -r : r + 1]
    return (x * x + y * y) <= r * r


def _disk_reduce(cells: np.ndarray, radius: int, op) -> np.ndarray:
    """Erode (op=np.logical_and) or dilate (np.logical_or) by a disk; outside is empty."""
    se = disk_element(radius)
    h, w = cells.shape
    p = np.pad(cells, se.shape[0] // 2)
    return op.reduce([p[dy : dy + h, dx : dx + w] for dy, dx in np.argwhere(se)])


def morphological_open(cells: np.ndarray, radius: int) -> np.ndarray:
    """Erosion followed by dilation with a disk element; outside is empty."""
    eroded = _disk_reduce(np.asarray(cells, dtype=bool), radius, np.logical_and)
    return _disk_reduce(eroded, radius, np.logical_or)


def connected_components(cells: np.ndarray, connectivity: int) -> tuple[np.ndarray, int]:
    """Label connected true cells; labels 1..K in raster-scan first-touch order.

    Row runs of true cells, numbered in raster order, are joined to the runs
    they touch in the row above by a union-find whose roots are the lowest
    runs, so numbering the roots in order numbers the components by first cell.
    """
    check_connectivity(connectivity)
    cells = np.asarray(cells, dtype=bool)
    h, w = cells.shape
    # Run starts and ends (one past the last cell) at flat index row * (w + 1) + col.
    edges = np.diff(cells.astype(np.int8), axis=1, prepend=0, append=0).ravel()
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    # The runs one row up that end after a run's start and start before its
    # end, with one column of slack for 8-connectivity.
    slack = int(connectivity == 8)
    lo = np.searchsorted(ends, starts - (w + 1) - slack, side="right")
    touch = np.maximum(np.searchsorted(starts, ends - (w + 1) + slack) - lo, 0)
    below = np.repeat(np.arange(len(starts)), touch)
    above = np.repeat(lo - np.cumsum(touch) + touch, touch) + np.arange(len(below))
    parent = list(range(len(starts)))

    def root(i):  # path halving
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i
    for a, b in zip(above.tolist(), below.tolist()):
        a, b = root(a), root(b)
        parent[max(a, b)] = min(a, b)
    roots = np.array([root(i) for i in range(len(parent))], dtype=np.int64)
    run_label = np.cumsum(roots == np.arange(len(roots)), dtype=np.int32)[roots]
    marks = np.zeros(h * (w + 1), dtype=np.int32)
    marks[starts] = run_label
    marks[ends] -= run_label
    labels = np.cumsum(marks, dtype=np.int32).reshape(h, w + 1)[:, :w]
    return np.ascontiguousarray(labels), int(run_label.max(initial=0))
