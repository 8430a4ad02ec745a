from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from scipy import ndimage

from buildsnake.raster import (
    STRIP_ELEMS,
    connected_components,
    disk_element,
    gaussian_kernel,
    gaussian_smooth,
    gradient,
    load_pnm,
    morphological_open,
    rgb_to_gray,
    row_strips,
    save_pgm,
)


def flood_fill_count(cells: np.ndarray, connectivity: int) -> int:
    """Independent BFS component counter."""
    h, w = cells.shape
    seen = np.zeros_like(cells, dtype=bool)
    if connectivity == 4:
        nbrs = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    else:
        nbrs = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
    count = 0
    for i in range(h):
        for j in range(w):
            if cells[i, j] and not seen[i, j]:
                count += 1
                q = deque([(i, j)])
                seen[i, j] = True
                while q:
                    ci, cj = q.popleft()
                    for di, dj in nbrs:
                        ni, nj = ci + di, cj + dj
                        if 0 <= ni < h and 0 <= nj < w and cells[ni, nj] and not seen[ni, nj]:
                            seen[ni, nj] = True
                            q.append((ni, nj))
    return count


# ---------------------------------------------------------------------------
# PNM I/O


def test_load_plain_pgm():
    img = load_pnm(b"P2\n# a comment\n2 2\n255\n0 255 128 64\n")
    assert img.shape == (2, 2)
    assert img.tolist() == [[0.0, 255.0], [128.0, 64.0]]


def test_p5_round_trip_bit_exact():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 256, (7, 5)).astype(float)
    data = save_pgm(img)
    again = load_pnm(data)
    assert np.array_equal(again, img)
    assert save_pgm(again) == data


def test_p6_round_trip_bit_exact():
    rng = np.random.default_rng(3)
    chans = [rng.integers(0, 256, (4, 6)).astype(float) for _ in range(3)]
    pixels = np.stack(chans, axis=-1).astype(np.uint8)
    data = b"P6\n6 4\n255\n" + pixels.tobytes()
    r, g, b = load_pnm(data)
    for got, want in zip((r, g, b), chans):
        assert np.array_equal(got, want)


def test_plain_ppm_luminance_matches_formula():
    text = b"P3\n2 1\n255\n10 20 30  200 100 50\n"
    r, g, b = load_pnm(text)
    gray = rgb_to_gray(r, g, b)
    expected = [[0.299 * 10 + 0.587 * 20 + 0.114 * 30, 0.299 * 200 + 0.587 * 100 + 0.114 * 50]]
    assert np.allclose(gray, expected)


def test_pnm_maxval_rescaled():
    img = load_pnm(b"P2\n1 1\n100\n50\n")
    assert img[0, 0] == pytest.approx(127.5)


def test_pnm_sixteen_bit_raw():
    payload = (1000).to_bytes(2, "big") + (65535).to_bytes(2, "big")
    img = load_pnm(b"P5\n2 1\n65535\n" + payload)
    assert img[0, 1] == pytest.approx(255.0)
    assert img[0, 0] == pytest.approx(1000 * 255.0 / 65535)


def test_pnm_errors():
    with pytest.raises(ValueError):
        load_pnm(b"P7\n1 1\n255\n0")
    with pytest.raises(ValueError):
        load_pnm(b"P2\n2 2\n255\n0 1 2\n")  # truncated payload
    with pytest.raises(ValueError):
        load_pnm(b"P5\n2 2\n70000\n" + bytes(8))  # maxval too large
    with pytest.raises(ValueError):
        load_pnm(b"P2\n2\n")  # truncated header


# Samples outside 0..maxval: a byte over maxval, a negative plain sample, a
# 16-bit sample over maxval, and a plain sample far beyond any maxval.
OUT_OF_RANGE_PNM = [
    b"P5\n2 1\n100\n" + bytes([100, 200]),
    b"P2\n2 1\n255\n-5 3\n",
    b"P5\n1 1\n1000\n" + (5000).to_bytes(2, "big"),
    b"P2\n1 1\n255\n" + str(10**26).encode() + b"\n",
]


@pytest.mark.parametrize("data", OUT_OF_RANGE_PNM, ids=["raw-byte", "plain-negative", "raw-16-bit", "plain-huge"])
def test_pnm_rejects_samples_outside_maxval(data):
    with pytest.raises(ValueError, match=r"PNM sample -?\d+ out of range \(0\.\.\d+\)"):
        load_pnm(data)


def test_pnm_samples_at_maxval_load_as_255():
    for data in [
        b"P5\n2 1\n100\n" + bytes([0, 100]),
        b"P2\n2 1\n7\n0 7\n",
        b"P5\n2 1\n1000\n" + (0).to_bytes(2, "big") + (1000).to_bytes(2, "big"),
        b"P3\n1 1\n9\n9 0 9\n",
    ]:
        img = load_pnm(data)
        assert (img[0] if isinstance(img, tuple) else img).max() == pytest.approx(255.0)


# ---------------------------------------------------------------------------
# rgb_to_gray


def test_gray_white_and_green():
    white = np.full((2, 2), 255.0)
    assert np.allclose(rgb_to_gray(white, white, white), 255.0)
    zeros = np.zeros((2, 2))
    green = rgb_to_gray(zeros, np.full((2, 2), 255.0), zeros)
    assert np.allclose(green, 149.685)


def test_gray_identity_on_gray_input():
    img = np.arange(12.0).reshape(3, 4)
    assert np.allclose(rgb_to_gray(img, img, img), img)


def test_gray_dimension_mismatch():
    with pytest.raises(ValueError):
        rgb_to_gray(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# gaussian_smooth


def test_smooth_constant_unchanged():
    img = np.full((10, 10), 42.0)
    assert np.allclose(gaussian_smooth(img, 3.0), 42.0)


def test_smooth_sigma_zero_identity():
    rng = np.random.default_rng(0)
    img = rng.uniform(0, 255, (6, 6))
    assert np.array_equal(gaussian_smooth(img, 0.0), img)


@pytest.mark.parametrize("sigma", [1e-170, 1e-160, 5e-324])
def test_smooth_sigma_with_underflowing_variance_is_identity(sigma):
    # 2 sigma^2 is 0 or subnormal: the kernel's exponents would divide by
    # zero or overflow (RuntimeWarnings, which pytest makes errors) and give
    # a NaN kernel; the blur is sigma = 0's copy instead.
    img = np.random.default_rng(1).uniform(0, 255, (7, 9))
    assert gaussian_kernel(sigma).tobytes() == gaussian_kernel(0.0).tobytes() == np.ones(1).tobytes()
    out = gaussian_smooth(img, sigma)
    assert out.tobytes() == gaussian_smooth(img, 0.0).tobytes() == img.tobytes()
    assert out is not img and not np.shares_memory(out, img)


def test_smallest_sigma_with_normal_variance_has_a_finite_kernel():
    tiny = np.finfo(float).tiny
    sigma = np.sqrt(tiny / 2.0)
    while 2.0 * sigma * sigma < tiny:
        sigma = np.nextafter(sigma, np.inf)
    k = gaussian_kernel(sigma)
    assert k.tolist() == [0.0, 1.0, 0.0]
    assert gaussian_kernel(np.nextafter(sigma, 0.0)).tolist() == [1.0]


@pytest.mark.parametrize("sigma", [1e-150, 0.2, 0.7, 2.5, 10.0])
def test_gaussian_kernel_keeps_its_bits(sigma):
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1, dtype=float)
    k = np.exp(-(x * x) / (2.0 * sigma * sigma))
    assert gaussian_kernel(sigma).tobytes() == (k / k.sum()).tobytes()


def test_smooth_impulse_peak_is_kernel_peak():
    k = gaussian_kernel(2.0)
    assert k.sum() == pytest.approx(1.0, abs=1e-6)
    img = np.zeros((31, 31))
    img[15, 15] = 1.0
    out = gaussian_smooth(img, 2.0)
    peak = k[len(k) // 2]
    assert out[15, 15] == pytest.approx(peak * peak, rel=1e-9)


def test_smooth_step_profile_monotone():
    img = np.zeros((40, 80))
    img[:, 40:] = 100.0
    out = gaussian_smooth(img, 10.0)
    row = out[20]
    assert (np.diff(row) >= -1e-9).all()


def test_smooth_preserves_mean_on_ramp():
    # Symmetric normalized kernel leaves a linear ramp unchanged away from
    # the borders; replication only bends a border band.
    img = np.tile(np.linspace(0, 255, 64), (64, 1))
    out = gaussian_smooth(img, 2.0)
    interior = slice(8, -8)
    assert np.allclose(out[interior, interior], img[interior, interior], atol=1e-9)
    assert out.mean() == pytest.approx(img.mean(), rel=1e-3)


# ---------------------------------------------------------------------------
# gradient


def test_gradient_ramp():
    x = np.tile(np.arange(8.0), (6, 1))
    gx, gy = gradient(x)
    assert np.allclose(gx, 1.0)
    assert np.allclose(gy, 0.0)


def test_gradient_constant():
    gx, gy = gradient(np.full((5, 5), 3.0))
    assert np.allclose(gx, 0.0) and np.allclose(gy, 0.0)


def test_gradient_central_difference_value():
    x = np.tile(np.arange(12.0) ** 2, (4, 1))
    gx, _ = gradient(x)
    assert gx[1, 5] == pytest.approx((36.0 - 16.0) / 2.0)


def test_gradient_too_small():
    with pytest.raises(ValueError):
        gradient(np.zeros((2, 5)))


@pytest.mark.parametrize("shape", [(5, 2), (1, 1), (9,), (4, 4, 4)])
def test_gradient_rejects_other_than_3x3_or_larger_images(shape):
    with pytest.raises(ValueError, match="at least 3x3"):
        gradient(np.zeros(shape))


SEAM_W = 40
SEAM_ROWS = STRIP_ELEMS // SEAM_W  # rows per strip at this width

# (H, W) at the seams of row_strips: the three smallest heights, where one
# strip's halo reaches both image edges; one strip, and one row fewer or
# more; two strips and a one-row third; and one row per strip (W above
# STRIP_ELEMS), three and seven rows high, where a middle strip's block
# touches both image edges or neither.
STRIP_SEAM_SHAPES = [
    (3, 41),
    (4, 41),
    (5, 41),
    (SEAM_ROWS - 1, SEAM_W),
    (SEAM_ROWS, SEAM_W),
    (SEAM_ROWS + 1, SEAM_W),
    (2 * SEAM_ROWS + 1, SEAM_W),
    (3, STRIP_ELEMS + 3),
    (7, STRIP_ELEMS + 3),
]
SEAM_CASES = ["random", "strided", "constant"]


def seam_image(shape, case):
    """A random image of `shape`, the same values in a strided view, or a constant image."""
    if case == "constant":
        return np.full(shape, 77.0)
    img = np.random.default_rng(shape[0] * 7919 + shape[1]).uniform(0.0, 255.0, shape)
    if case == "strided":
        wide = np.zeros((shape[0], 2 * shape[1]))
        wide[:, ::2] = img
        img = wide[:, ::2]
        assert not img.flags.c_contiguous
    return img


@pytest.mark.parametrize("halo", [1, 2])
@pytest.mark.parametrize("shape", STRIP_SEAM_SHAPES)
def test_row_strips_tile_the_rows_with_clipped_halos(shape, halo):
    h, w = shape
    strips = row_strips(shape, halo)
    assert [rows.start for rows, _, _ in strips] == list(range(0, h, max(1, STRIP_ELEMS // w)))
    assert strips[-1][0].stop == h
    for (rows, _, _), (after, _, _) in zip(strips, strips[1:]):
        assert rows.stop == after.start
    for rows, block, inner in strips:
        assert (block.start, block.stop) == (max(0, rows.start - halo), min(h, rows.stop + halo))
        assert np.arange(h)[block][inner].tolist() == list(range(rows.start, rows.stop))


@pytest.mark.parametrize("case", SEAM_CASES)
@pytest.mark.parametrize("shape", STRIP_SEAM_SHAPES)
def test_gradient_equals_whole_image_np_gradient(shape, case):
    img = seam_image(shape, case)
    gy, gx = np.gradient(img)
    got_x, got_y = gradient(img)
    assert got_x.tobytes() == gx.tobytes()
    assert got_y.tobytes() == gy.tobytes()


# ---------------------------------------------------------------------------
# morphology


def test_open_removes_isolated_cell():
    cells = np.zeros((9, 9), dtype=bool)
    cells[4, 4] = True
    assert morphological_open(cells, 1).sum() == 0


def test_open_preserves_block_interior():
    cells = np.zeros((24, 24), dtype=bool)
    cells[2:22, 2:22] = True
    out = morphological_open(cells, 1)
    assert out[3:21, 3:21].all()
    assert out.sum() >= 20 * 20 - 4  # at most the four corners differ
    assert not out[~cells].any()  # anti-extensive


def test_open_idempotent():
    rng = np.random.default_rng(12)
    cells = rng.uniform(size=(40, 40)) < 0.55
    once = morphological_open(cells, 1)
    twice = morphological_open(once, 1)
    assert once.dtype == bool
    assert np.array_equal(once, twice)


def test_disk_element_radius_one_is_cross():
    assert disk_element(1).tolist() == [[False, True, False], [True, True, True], [False, True, False]]


# ---------------------------------------------------------------------------
# connected components


def test_cc_diagonal_connectivity():
    cells = np.zeros((4, 4), dtype=bool)
    cells[1, 1] = cells[2, 2] = True
    _, n8 = connected_components(cells, 8)
    _, n4 = connected_components(cells, 4)
    assert n8 == 1 and n4 == 2


def test_cc_empty():
    labels, n = connected_components(np.zeros((5, 5)), 8)
    assert n == 0 and labels.sum() == 0


def test_cc_matches_flood_fill():
    rng = np.random.default_rng(31)
    for conn in (4, 8):
        cells = rng.uniform(size=(64, 64)) < 0.45
        _, n = connected_components(cells, conn)
        assert n == flood_fill_count(cells, conn)


def test_cc_labels_compact_and_raster_ordered():
    cells = np.zeros((6, 10), dtype=bool)
    cells[0, 7] = True   # touched first in raster order
    cells[2, 1] = True
    cells[5, 5] = True
    labels, n = connected_components(cells, 8)
    assert n == 3
    assert labels[0, 7] == 1 and labels[2, 1] == 2 and labels[5, 5] == 3
    assert set(np.unique(labels)) == {0, 1, 2, 3}


def test_cc_count_invariant_under_transpose():
    rng = np.random.default_rng(40)
    cells = rng.uniform(size=(30, 50)) < 0.5
    _, n = connected_components(cells, 8)
    _, nt = connected_components(cells.T, 8)
    assert n == nt


# ---------------------------------------------------------------------------
# scipy.ndimage oracles: the numpy code gives the same bytes


def _smooth_inputs(preset_img):
    rng = np.random.default_rng(3)
    w = 40
    rows = STRIP_ELEMS // w  # rows per strip at this width
    yield preset_img
    for shape in [(3, 3), (1, 57), (57, 1), (37, 53), (2 * rows + 7, w)]:
        yield rng.uniform(0.0, 255.0, shape)


@pytest.mark.parametrize("sigma", [10.0, 2.5, 0.7])
def test_smooth_matches_ndimage_bit_for_bit(quebec_scene, sigma):
    k = gaussian_kernel(sigma)
    for img in _smooth_inputs(quebec_scene[1]):
        ref = ndimage.correlate1d(img, k, axis=0, mode="nearest")
        ref = ndimage.correlate1d(ref, k, axis=1, mode="nearest")
        assert gaussian_smooth(img, sigma).tobytes() == ref.tobytes(), img.shape


def _oracle_masks():
    rng = np.random.default_rng(11)
    yield np.ones((1, 1), dtype=bool)
    yield np.zeros((1, 1), dtype=bool)
    yield rng.uniform(size=(1, 60)) < 0.6
    yield rng.uniform(size=(60, 1)) < 0.6
    yield np.zeros((23, 31), dtype=bool)
    yield np.ones((23, 31), dtype=bool)
    for p in (0.3, 0.5, 0.7):
        for _ in range(30):
            yield rng.uniform(size=tuple(rng.integers(2, 48, 2))) < p


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_open_matches_ndimage_bit_for_bit(radius):
    se = disk_element(radius)
    for cells in _oracle_masks():
        eroded = ndimage.binary_erosion(cells, structure=se, border_value=0)
        ref = ndimage.binary_dilation(eroded, structure=se, border_value=0)
        assert np.array_equal(morphological_open(cells, radius), ref), cells.shape


@pytest.mark.parametrize("connectivity", [4, 8])
def test_cc_matches_ndimage_label(connectivity):
    structure = ndimage.generate_binary_structure(2, 1 if connectivity == 4 else 2)
    for cells in _oracle_masks():
        ref, ref_count = ndimage.label(cells, structure=structure)
        labels, count = connected_components(cells, connectivity)
        assert count == ref_count
        assert labels.dtype == ref.dtype
        assert np.array_equal(labels, ref), cells.shape
