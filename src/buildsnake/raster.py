"""Netpbm I/O, smoothing, gradients and binary-grid ops.

Gray images are (H, W) float64 arrays with intensities in [0, 255],
indexed [row, col] = [y, x]. Morphology and labelling work on (H, W) bool
arrays; their metric frame, where one is needed, is a `geometry.GridSpec`.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "load_pnm",
    "save_pgm",
    "rgb_to_gray",
    "gaussian_smooth",
    "gradient",
    "row_strips",
    "morphological_open",
    "connected_components",
    "disk_element",
]

# Pixels per array in one row strip of the Gaussian blur, so a strip's buffers
# stay in L2 cache. 60 serial GVF iterations on a 1024x1024 energy took 1.5 /
# 1.1 / 0.9 / 0.9 / 1.1 s at 4k / 8k / 16k / 32k / 64k (medians of four runs on
# a 2-vCPU Xeon); 16k and 32k tie. The derivative stages (`row_strips`) use
# it too: the energy terms past the blur on a 1536x1536 image took 0.130 /
# 0.129 / 0.120 s at 16k / 32k / 64k (medians of seven runs, same host), a
# tie within the runs' spread. The GVF solve, which runs in two bands on two
# threads, uses its own strip size (energy.GVF_STRIP_ELEMS).
STRIP_ELEMS = 16384


# ---------------------------------------------------------------------------
# Netpbm parsing / writing


def _pnm_tokens(data: bytes):
    """Yield whitespace-separated header/ASCII tokens, skipping # comments."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i : i + 1]
        if c == b"#":
            j = data.find(b"\n", i)
            i = n if j < 0 else j + 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < n and not data[j : j + 1].isspace() and data[j : j + 1] != b"#":
                j += 1
            yield i, data[i:j]
            i = j


def load_pnm(data: bytes):
    """Parse PGM (P2/P5) or PPM (P3/P6) bytes.

    Returns a gray image for PGM, or an (r, g, b) triple for PPM.
    Sample values are rescaled to [0, 255] floats; a sample outside
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
        raw = np.asarray(values, dtype=float)
    else:
        # Raw formats: payload starts after exactly one whitespace byte
        # following the maxval token.
        start = maxpos + len(maxtok) + 1
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        payload = data[start : start + count * dtype.itemsize]
        if len(payload) < count * dtype.itemsize:
            raise ValueError("truncated PNM payload")
        samples = np.frombuffer(payload, dtype=dtype, count=count)
        if samples.max() > maxval:
            raise ValueError(f"PNM sample {samples.max()} out of range (0..{maxval})")
        raw = samples.astype(float)

    raw = raw * (255.0 / maxval)
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
    """ITU-R 601 luminance: 0.299 R + 0.587 G + 0.114 B."""
    r, g, b = (np.asarray(c, dtype=float) for c in (r, g, b))
    if not (r.shape == g.shape == b.shape):
        raise ValueError("channel dimensions differ")
    return 0.299 * r + 0.587 * g + 0.114 * b


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
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    k = gaussian_kernel(sigma)
    if len(k) == 1:  # sigma 0, or too small for a finite kernel
        return img.copy()
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


def gradient(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy), central differences inside, one-sided at borders.

    np.gradient's bits, one strip of rows at a time with one halo row on
    each side (`row_strips`): it holds the two outputs and one block's
    temporaries, not np.gradient's whole-image ones.
    """
    img = np.asarray(img, dtype=float)
    strips = row_strips(img.shape, 1)
    gx, gy = np.empty(img.shape), np.empty(img.shape)
    for rows, block, inner in strips:
        by, bx = np.gradient(img[block])
        gx[rows], gy[rows] = bx[inner], by[inner]
    return gx, gy


# ---------------------------------------------------------------------------
# Binary morphology and labeling


def disk_element(radius: int) -> np.ndarray:
    """Disk structuring element: cells with dx^2 + dy^2 <= radius^2."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    r = int(radius)
    y, x = np.mgrid[-r : r + 1, -r : r + 1]
    return (x * x + y * y) <= r * r


def _disk_reduce(cells: np.ndarray, radius: int, op) -> np.ndarray:
    """Erode (op=np.logical_and) or dilate (np.logical_or) by a disk; outside is empty."""
    se = disk_element(radius)
    h, w = cells.shape
    p = np.pad(cells, se.shape[0] // 2)
    return op.reduce([p[dy : dy + h, dx : dx + w] for dy, dx in np.argwhere(se)])


def morphological_open(cells: np.ndarray, radius: int = 1) -> np.ndarray:
    """Erosion followed by dilation with a disk element; outside is empty."""
    eroded = _disk_reduce(np.asarray(cells, dtype=bool), radius, np.logical_and)
    return _disk_reduce(eroded, radius, np.logical_or)


def connected_components(cells: np.ndarray, connectivity: int = 8) -> tuple[np.ndarray, int]:
    """Label connected true cells; labels 1..K in raster-scan first-touch order.

    Row runs of true cells, numbered in raster order, are joined to the runs
    they touch in the row above by a union-find whose roots are the lowest
    runs, so numbering the roots in order numbers the components by first cell.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
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
