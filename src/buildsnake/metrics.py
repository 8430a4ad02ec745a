"""Pixel-based evaluation of extracted footprints against ground truth."""
from __future__ import annotations

import numpy as np

from .geometry import (
    GridSpec,
    dominant_angle,
    polygon_centroid,
    rasterize_polygon,
)

__all__ = [
    "confusion_counts",
    "iou",
    "completeness",
    "correctness",
    "edc",
    "dare",
    "evaluate_pairs",
    "grid_covering",
    "pair_by_centroid",
]

# Clear space, in polygon units, that `grid_covering` keeps around the polygons.
GRID_MARGIN = 1.0


def grid_covering(polygons, cell_size: float) -> GridSpec:
    """Smallest grid on the cell_size lattice covering all polygons plus `GRID_MARGIN`.

    The origin and the far edge are whole multiples of cell_size, so at
    cell_size 1 the cells are the image's pixels.
    """
    pts = np.vstack([np.asarray(p, dtype=float) for p in polygons])
    lo = np.floor((pts.min(axis=0) - GRID_MARGIN) / cell_size)
    hi = np.ceil((pts.max(axis=0) + GRID_MARGIN) / cell_size)
    return GridSpec(
        origin=(float(lo[0] * cell_size), float(lo[1] * cell_size)),
        cell_size=cell_size,
        width=int(hi[0] - lo[0]),
        height=int(hi[1] - lo[1]),
    )


def _check_covers(grid: GridSpec, polygon: np.ndarray):
    pts = np.asarray(polygon, dtype=float)
    x1 = grid.origin[0] + grid.width * grid.cell_size
    y1 = grid.origin[1] + grid.height * grid.cell_size
    if (
        pts[:, 0].min() < grid.origin[0]
        or pts[:, 1].min() < grid.origin[1]
        or pts[:, 0].max() > x1
        or pts[:, 1].max() > y1
    ):
        raise ValueError("evaluation grid does not cover the polygons")


def confusion_counts(extracted, reference, grid: GridSpec) -> tuple[int, int, int]:
    """(TP, FP, FN) pixel counts from rasterizing both polygons on grid."""
    e = np.asarray(extracted, dtype=float)
    r = np.asarray(reference, dtype=float)
    _check_covers(grid, e)
    _check_covers(grid, r)
    em = rasterize_polygon(e, grid)
    rm = rasterize_polygon(r, grid)
    tp = int(np.sum(em & rm))
    fp = int(np.sum(em & ~rm))
    fn = int(np.sum(~em & rm))
    return tp, fp, fn


def iou(tp: int, fp: int, fn: int) -> float:
    """Intersection over union, in percent."""
    denom = tp + fp + fn
    if denom <= 0:
        raise ValueError("IoU undefined: TP + FP + FN is zero")
    return 100.0 * tp / denom


def completeness(tp: int, fn: int) -> float:
    """Recall over building pixels, in percent."""
    if tp + fn <= 0:
        raise ValueError("completeness undefined: no reference pixels")
    return 100.0 * tp / (tp + fn)


def correctness(tp: int, fp: int) -> float:
    """Precision over extracted pixels, in percent."""
    if tp + fp <= 0:
        raise ValueError("correctness undefined: no extracted pixels")
    return 100.0 * tp / (tp + fp)


def edc(extracted, reference) -> float:
    """Euclidean distance between area centroids (input units)."""
    ce = np.asarray(polygon_centroid(extracted))
    cr = np.asarray(polygon_centroid(reference))
    return float(np.linalg.norm(ce - cr))


def dare(extracted, reference) -> float:
    """Dominant-angle rotation error folded into [0, 90] degrees.

    Dominant angles live on a 180-degree circle, so the raw absolute
    difference is folded as min(d, 180 - d).
    """
    d = abs(dominant_angle(extracted) - dominant_angle(reference))
    return float(min(d, 180.0 - d))


def pair_by_centroid(extracted, truth) -> list[tuple[int, int]]:
    """Greedy one-to-one (extracted, truth) index pairs on vertex-centroid distance.

    The closest remaining pair is taken first; of equal distances, the one
    with the lowest extracted, then truth, index. Returned sorted.
    """
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


def evaluate_pairs(
    pairs,
    cell_size: float = 1.0,
    distance_scale: float = 1.0,
) -> dict:
    """Per-building and aggregate metrics for (id, extracted, truth) triples.

    distance_scale converts EDC from polygon units (pixels in the normal
    pipeline) into meters.
    """
    per_building = []
    for bid, e, r in pairs:
        grid = grid_covering([e, r], cell_size)
        tp, fp, fn = confusion_counts(e, r, grid)
        per_building.append(
            {
                "id": int(bid),
                "iou": iou(tp, fp, fn),
                "cp": completeness(tp, fn),
                "cr": correctness(tp, fp),
                "edc": edc(e, r) * distance_scale,
                "dare": dare(e, r),
            }
        )
    report = {"per_building": per_building, "aggregate": {}}
    if per_building:
        for key in ("iou", "cp", "cr", "edc", "dare"):
            report["aggregate"][key] = float(np.mean([b[key] for b in per_building]))
    return report
