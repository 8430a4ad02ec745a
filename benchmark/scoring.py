"""Score extracted footprints against the scene truth.

Pairing is the greedy one-to-one centroid pairing of `buildsnake evaluate`;
IoU is measured with the library's pixel metrics on the image's own pixel
grid, as the acceptance suite does.
"""
from __future__ import annotations

import numpy as np

from buildsnake import metrics
from buildsnake.geometry import GridSpec, rasterize_polygon, wkt_to_polygon

FOUND_IOU_PCT = 50.0


def read_wkt(text: str) -> list[np.ndarray]:
    return [wkt_to_polygon(line) for line in text.splitlines() if line.strip()]


def pair_by_centroid(extracted, truth) -> list[tuple[int, int]]:
    """Greedy one-to-one (extracted, truth) index pairs on centroid distance."""
    ce = [np.asarray(p).mean(axis=0) for p in extracted]
    ct = [np.asarray(p).mean(axis=0) for p in truth]
    dist = np.array([[np.linalg.norm(a - b) for b in ct] for a in ce]).reshape(len(extracted), len(truth))
    pairs = []
    while dist.size and np.isfinite(dist).any():
        i, j = np.unravel_index(np.argmin(dist), dist.shape)
        pairs.append((int(i), int(j)))
        dist[i, :] = np.inf
        dist[:, j] = np.inf
    return sorted(pairs)


def pixel_grid(polygons, size: tuple[int, int]) -> GridSpec:
    """The image's unit pixel grid, grown by whole pixels to cover polygons."""
    pts = np.vstack([np.asarray(p, dtype=float) for p in polygons])
    x0, y0 = np.floor(np.minimum(pts.min(axis=0), 0.0))
    x1, y1 = np.ceil(np.maximum(pts.max(axis=0), size))
    return GridSpec(origin=(float(x0), float(y0)), cell_size=1.0, width=int(x1 - x0), height=int(y1 - y0))


def score(extracted, truth, size: tuple[int, int]) -> dict:
    """Per-scene accuracy of one extract run.

    `size` is the image (width, height). Returns the IoU of every pair, the
    IoU of the union of all footprints against the union of all truth, the
    truth buildings not found at FOUND_IOU_PCT and the footprints paired
    with no truth building.
    """
    grid = pixel_grid(extracted + truth, size)
    pairs = pair_by_centroid(extracted, truth)
    ious = {j: metrics.iou(*metrics.confusion_counts(extracted[i], truth[j], grid)) for i, j in pairs}
    union_e = np.zeros((grid.height, grid.width), dtype=bool)
    union_t = union_e.copy()
    for p in extracted:
        union_e |= rasterize_polygon(p, grid)
    for p in truth:
        union_t |= rasterize_polygon(p, grid)
    tp = int(np.sum(union_e & union_t))
    return {
        "pairs": pairs,
        "ious": [ious[j] for _, j in pairs],
        "scene_iou": metrics.iou(tp, int(np.sum(union_e)) - tp, int(np.sum(union_t)) - tp),
        "missed": sum(1 for j in range(len(truth)) if ious.get(j, 0.0) < FOUND_IOU_PCT),
        "spurious": len(extracted) - len(pairs),
        "truth": len(truth),
        "extracted": len(extracted),
    }
