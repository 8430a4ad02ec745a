from __future__ import annotations

import numpy as np
import pytest

from buildsnake.geometry import GridSpec, rotate_points
from buildsnake.metrics import (
    completeness,
    confusion_counts,
    correctness,
    dare,
    edc,
    evaluate_pairs,
    grid_covering,
    iou,
    pair_by_centroid,
)

from conftest import pixel_iou

SQUARE10 = np.array([[0, 0], [10, 0], [10, 10], [0, 10]], dtype=float)


# ---------------------------------------------------------------------------
# confusion counts


def test_confusion_identical_squares():
    grid = GridSpec((-1.0, -1.0), 1.0, 13, 13)
    assert confusion_counts(SQUARE10, SQUARE10, grid) == (100, 0, 0)


def test_confusion_disjoint_squares():
    grid = GridSpec((-1.0, -1.0), 1.0, 40, 14)
    other = SQUARE10 + np.array([20.0, 0.0])
    assert confusion_counts(SQUARE10, other, grid) == (0, 100, 100)


def test_confusion_half_overlap_analytic():
    # E = [0,1]^2, R = [0.5,1.5]x[0,1]: analytic IoU = 0.5/1.5 = 33.33%.
    e = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    r = np.array([[0.5, 0], [1.5, 0], [1.5, 1], [0.5, 1]], dtype=float)
    grid = GridSpec((-0.25, -0.25), 0.05, 40, 30)
    tp, fp, fn = confusion_counts(e, r, grid)
    assert iou(tp, fp, fn) == pytest.approx(100.0 / 3.0, abs=1.0)


def test_confusion_swap_symmetry():
    rng = np.random.default_rng(3)
    a = rng.uniform(0, 10, (3, 2)) * [1, 1]
    b = a + rng.uniform(-2, 2, (3, 2))
    grid = grid_covering([a, b], 0.25)
    tp1, fp1, fn1 = confusion_counts(a, b, grid)
    tp2, fp2, fn2 = confusion_counts(b, a, grid)
    assert tp1 == tp2 and fp1 == fn2 and fn1 == fp2


def test_confusion_requires_coverage():
    grid = GridSpec((0.0, 0.0), 1.0, 5, 5)
    with pytest.raises(ValueError):
        confusion_counts(SQUARE10, SQUARE10, grid)


def test_pixel_iou_converges_with_cell_size():
    e = np.array([[0.13, 0.21], [7.4, 0.21], [7.4, 5.6], [0.13, 5.6]])
    r = e + np.array([1.3, 0.9])
    inter_w, inter_h = 7.27 - 1.3, 5.39 - 0.9
    inter = inter_w * inter_h
    area = 7.27 * 5.39
    analytic = 100.0 * inter / (2 * area - inter)
    gaps = []
    for cell in (0.2, 0.1, 0.05):
        grid = grid_covering([e, r], cell)
        tp, fp, fn = confusion_counts(e, r, grid)
        gaps.append(abs(iou(tp, fp, fn) - analytic))
    assert gaps[2] <= gaps[0] / 2 + 1e-9


# ---------------------------------------------------------------------------
# scalar metrics


def test_rates_perfect_match():
    assert iou(100, 0, 0) == 100.0
    assert completeness(100, 0) == 100.0
    assert correctness(100, 0) == 100.0


def test_rates_subset_inflates_correctness():
    # E strictly inside R: correctness 100%, completeness below 100%.
    tp, fp, fn = 50, 0, 50
    assert correctness(tp, fp) == 100.0
    assert completeness(tp, fn) < 100.0


def test_rates_arithmetic():
    assert iou(50, 25, 25) == 50.0
    assert completeness(50, 25) == pytest.approx(200.0 / 3.0)
    assert correctness(50, 25) == pytest.approx(200.0 / 3.0)


def test_rates_zero_denominators():
    with pytest.raises(ValueError):
        iou(0, 0, 0)
    with pytest.raises(ValueError):
        completeness(0, 0)
    with pytest.raises(ValueError):
        correctness(0, 0)


def test_iou_bounded_by_rates_random():
    rng = np.random.default_rng(8)
    for _ in range(500):
        tp, fp, fn = (int(v) for v in rng.integers(0, 1000, 3))
        if tp + fp + fn == 0 or tp + fn == 0 or tp + fp == 0:
            continue
        assert iou(tp, fp, fn) <= min(completeness(tp, fn), correctness(tp, fp)) + 1e-12


# ---------------------------------------------------------------------------
# EDC / DARE


def test_edc_identical_zero():
    assert edc(SQUARE10, SQUARE10) == 0.0


def test_edc_translation():
    assert edc(SQUARE10, SQUARE10 + np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_edc_l_vs_mbr_decomposition():
    # L = [0,2]^2 minus [1,2]^2 has centroid (5/6, 5/6); its MBR [0,2]^2
    # has centroid (1, 1).
    l_shape = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)
    mbr = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
    expected = np.hypot(1 - 5 / 6, 1 - 5 / 6)
    assert edc(l_shape, mbr) == pytest.approx(expected, rel=1e-12)


def test_edc_rigid_motion():
    a, b = SQUARE10, SQUARE10 + np.array([3.0, 4.0])
    d0 = edc(a, b)
    ra, rb = rotate_points(a, 31.0), rotate_points(b, 31.0)
    assert edc(ra, rb) == pytest.approx(d0, rel=1e-9)
    assert edc(a + 7, b + 7) == pytest.approx(d0, rel=1e-9)


def test_dare_zero_and_wraparound():
    assert dare(SQUARE10, SQUARE10) == 0.0
    a = rotate_points(np.array([[0, 0], [10, 0], [10, 4], [0, 4]], float), 10.0)
    b = rotate_points(np.array([[0, 0], [10, 0], [10, 4], [0, 4]], float), 170.0)
    assert dare(a, b) == pytest.approx(20.0, abs=1e-6)
    assert 0.0 <= dare(a, b) <= 90.0


def test_dare_on_extracted_rectangle(mode_results, quebec_scene):
    # Pipeline-extracted rectangle vs its ground truth stays within a degree.
    from conftest import match_truth

    _, _, _, truth, _ = quebec_scene
    rect_idx = 0  # spec order: rect first
    for r in mode_results["proposed"]:
        if match_truth(r.footprint, truth) == rect_idx:
            assert dare(r.footprint, truth[rect_idx]) <= 1.0
            return
    raise AssertionError("rectangle building not extracted")


# ---------------------------------------------------------------------------
# report


def test_evaluate_pairs_report_shape():
    pairs = [(0, SQUARE10, SQUARE10), (1, SQUARE10 + 30.0, SQUARE10 + 30.5)]
    report = evaluate_pairs(pairs, cell_size=0.25, distance_scale=0.15)
    assert {b["id"] for b in report["per_building"]} == {0, 1}
    assert set(report["aggregate"]) == {"iou", "cp", "cr", "edc", "dare"}
    assert report["per_building"][0]["iou"] == 100.0
    assert report["per_building"][1]["edc"] == pytest.approx(
        np.hypot(0.5, 0.5) * 0.15, rel=1e-9
    )


def test_evaluate_pairs_scores_on_the_pixel_lattice(mode_results, quebec_scene):
    # At cell size 1 every pair's grid cells are image pixels, so evaluate
    # scores as the acceptance suite does.
    truth = quebec_scene[3]
    footprints = [r.footprint for r in mode_results["proposed"]]
    pairs = [(i, footprints[i], truth[j]) for i, j in pair_by_centroid(footprints, truth)]
    assert len(pairs) == len(truth)
    report = evaluate_pairs(pairs)
    assert [b["iou"] for b in report["per_building"]] == [pixel_iou(e, r) for _, e, r in pairs]


# ---------------------------------------------------------------------------
# centroid pairing


def test_pair_by_centroid_empty_sides():
    assert pair_by_centroid([], []) == []
    assert pair_by_centroid([SQUARE10], []) == []
    assert pair_by_centroid([], [SQUARE10, SQUARE10 + 50]) == []


def test_pair_by_centroid_more_extracted_than_truth():
    truth = [SQUARE10 + 100, SQUARE10]
    extracted = [SQUARE10 + 1, SQUARE10 + 300, SQUARE10 + 98]
    assert pair_by_centroid(extracted, truth) == [(0, 1), (2, 0)]


def test_pair_by_centroid_closest_first_is_not_per_row_nearest():
    # Extracted 0 is nearest truth 0, but extracted 1 is nearer still, so
    # extracted 0 takes truth 1.
    truth = [SQUARE10, SQUARE10 + [30, 0]]
    extracted = [SQUARE10 + [5, 0], SQUARE10 + [-1, 0]]
    assert pair_by_centroid(extracted, truth) == [(0, 1), (1, 0)]


def test_pair_by_centroid_equal_distances_take_lowest_indices():
    # Every distance is equal: pairs go in order of extracted, then truth index.
    extracted = [SQUARE10 + [0, 5], SQUARE10 + [0, -5]]
    truth = [SQUARE10 + [5, 0], SQUARE10 + [-5, 0]]
    assert pair_by_centroid(extracted, truth) == [(0, 0), (1, 1)]
    assert pair_by_centroid(extracted[:1], truth) == [(0, 0)]
