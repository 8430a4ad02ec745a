"""Image containers, Netpbm I/O, smoothing, gradients and binary-grid ops.

Gray images are (H, W) float64 arrays with intensities in [0, 255],
indexed [row, col] = [y, x]. Binary grids carry a georeferenced frame.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

__all__ = [
    "BinaryGrid",
    "load_pnm",
    "save_pgm",
    "rgb_to_gray",
    "gaussian_smooth",
    "gradient",
    "morphological_open",
    "connected_components",
    "disk_element",
]


@dataclass
class BinaryGrid:
    """Boolean occupancy raster with metric georeferencing.

    Cell (i, j) covers x in [origin[0] + j*cell_size, +cell_size) and
    y in [origin[1] + i*cell_size, +cell_size).
    """

    cells: np.ndarray
    cell_size: float
    origin: tuple[float, float]

    def __post_init__(self):
        if self.cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.cells = np.asarray(self.cells, dtype=bool)

    @property
    def width(self) -> int:
        return self.cells.shape[1]

    @property
    def height(self) -> int:
        return self.cells.shape[0]

    def cell_index(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map (N, 2) metric coordinates to (row, col) indices (unclipped)."""
        xy = np.asarray(xy, dtype=float)
        col = np.floor((xy[:, 0] - self.origin[0]) / self.cell_size).astype(int)
        row = np.floor((xy[:, 1] - self.origin[1]) / self.cell_size).astype(int)
        return row, col


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
    Sample values are rescaled to [0, 255] floats.
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
            if len(values) == count:
                break
        if len(values) < count:
            raise ValueError("truncated PNM payload")
        raw = np.asarray(values, dtype=float)
    else:
        # Raw formats: payload starts after exactly one whitespace byte
        # following the maxval token.
        start = maxpos + len(maxtok) + 1
        if maxval < 256:
            need = count
            payload = data[start : start + need]
            if len(payload) < need:
                raise ValueError("truncated PNM payload")
            raw = np.frombuffer(payload, dtype=np.uint8, count=count).astype(float)
        else:
            need = count * 2
            payload = data[start : start + need]
            if len(payload) < need:
                raise ValueError("truncated PNM payload")
            raw = np.frombuffer(payload, dtype=">u2", count=count).astype(float)

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
    """Normalized 1D Gaussian, radius ceil(3*sigma)."""
    radius = int(math.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    return k / k.sum()


def gaussian_smooth(img: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur with edge-replicated borders."""
    img = np.asarray(img, dtype=float)
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return img.copy()
    k = gaussian_kernel(sigma)
    out = ndimage.correlate1d(img, k, axis=0, mode="nearest")
    return ndimage.correlate1d(out, k, axis=1, mode="nearest")


def gradient(img: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d/dx, d/dy), central differences inside, one-sided at borders."""
    img = np.asarray(img, dtype=float)
    if img.shape[0] < 3 or img.shape[1] < 3:
        raise ValueError("image must be at least 3x3 for gradients")
    gy, gx = np.gradient(img)
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


def morphological_open(grid: BinaryGrid, radius: int = 1) -> BinaryGrid:
    """Erosion followed by dilation with a disk element; outside is empty."""
    se = disk_element(radius)
    eroded = ndimage.binary_erosion(grid.cells, structure=se, border_value=0)
    opened = ndimage.binary_dilation(eroded, structure=se, border_value=0)
    return BinaryGrid(cells=opened, cell_size=grid.cell_size, origin=grid.origin)


def connected_components(grid: BinaryGrid, connectivity: int = 8) -> tuple[np.ndarray, int]:
    """Label connected true cells; labels 1..K in raster-scan first-touch order."""
    if connectivity == 4:
        structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    elif connectivity == 8:
        structure = np.ones((3, 3), dtype=bool)
    else:
        raise ValueError("connectivity must be 4 or 8")
    labels, count = ndimage.label(grid.cells, structure=structure)
    if count == 0:
        return labels, 0
    flat = labels.ravel()
    nz = np.flatnonzero(flat)
    # Relabel so label k is the k-th component touched in raster order.
    first = np.full(count + 1, flat.size, dtype=np.int64)
    np.minimum.at(first, flat[nz], nz)
    order = np.argsort(first[1:], kind="stable")
    remap = np.zeros(count + 1, dtype=labels.dtype)
    remap[order + 1] = np.arange(1, count + 1)
    return remap[labels], count
