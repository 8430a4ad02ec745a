from __future__ import annotations

import os
import re
import warnings

import numpy as np
import pytest

from buildsnake.geometry import convex_hull, convex_hull_indices, points_in_polygon
from buildsnake.lidar import (
    PointCloud3D,
    _ground_elevations_fallback,
    extract_boundaries,
    extract_building_segments,
    parse_xyz,
    project_to_grid,
    separate_ground,
    write_xyz,
)
from buildsnake.synthetic import generate_scene, quebec_like_spec

from conftest import traced_peak


def make_cloud(xy, z, classes=None) -> PointCloud3D:
    xyz = np.column_stack([np.asarray(xy, float), np.full(len(xy), float(z))])
    return PointCloud3D(xyz, classes)


# ---------------------------------------------------------------------------
# parsing


def test_parse_xyz_with_comments_and_classes():
    text = "# header\n1.0 2.0 3.0 2\n4 5 6 6  # trailing comment\n"
    cloud = parse_xyz(text)
    assert len(cloud) == 2
    assert cloud.classes.tolist() == [2, 6]
    assert cloud.xyz[1].tolist() == [4.0, 5.0, 6.0]


def test_parse_xyz_round_trip():
    rng = np.random.default_rng(1)
    cloud = PointCloud3D(rng.uniform(0, 50, (20, 3)), rng.integers(2, 7, 20))
    again = parse_xyz(write_xyz(cloud))
    assert np.array_equal(again.xyz, cloud.xyz)
    assert np.array_equal(again.classes, cloud.classes)


def test_parse_xyz_errors():
    with pytest.raises(ValueError):
        parse_xyz("1 2\n")
    with pytest.raises(ValueError):
        parse_xyz("# only comments\n")
    with pytest.raises(ValueError):
        parse_xyz("1 2 3\n1 2 3 4\n")  # inconsistent columns


def reader_lines(text: str) -> list[str]:
    """The lines of `text` as a universal-newline reader breaks them: at LF, CRLF or CR only."""
    lines = re.split("\r\n|\r|\n", text)
    return lines[:-1] if lines[-1] == "" else lines


def reference_parse_xyz(text: str) -> PointCloud3D:
    """Line-by-line parser: str.split per line, float() per coordinate, int() per class."""
    rows = []
    classes = []
    has_class = None
    for lineno, line in enumerate(reader_lines(text), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) not in (3, 4):
            raise ValueError(f"line {lineno}: expected 'x y z [class]', got {line!r}")
        if has_class is None:
            has_class = len(parts) == 4
        elif has_class != (len(parts) == 4):
            raise ValueError(f"line {lineno}: inconsistent column count")
        rows.append([float(parts[0]), float(parts[1]), float(parts[2])])
        if has_class:
            classes.append(int(parts[3]))
    if not rows:
        raise ValueError("point cloud file contains no points")
    return PointCloud3D(np.asarray(rows), np.asarray(classes) if has_class else None)


def _assert_same_cloud(a: PointCloud3D, b: PointCloud3D):
    assert a.xyz.tobytes() == b.xyz.tobytes() and a.xyz.shape == b.xyz.shape
    assert (a.classes is None) == (b.classes is None)
    if a.classes is not None:
        assert a.classes.dtype == b.classes.dtype
        assert a.classes.tobytes() == b.classes.tobytes()


PARSE_CASES = [
    "# header\n1.0 2.0 3.0 2\n4 5 6 6  # trailing comment\n",
    "\n\n# a\n   \n1 2 3\n\t\n# b\n-4.5e3 +.5 6e-310\n#\n",
    "1 2 3 2\r\n4 5 6 6\r\n\r\n# c\r\n7 8 9 2",
    "1 2 3\r4 5 6\r",
    "1\t2\t3\t6\n  4   5   6   +2  \n7 8 9 0003#x\n",
    "0.1 0.2 0.30000000000000004\n1e308 -1e-308 2.2250738585072014e-308\n",
    "1 2 3 -1\n4 5 6 9223372036854775807\n",
    "1 2 3",
    # Form feed, NEL, U+2028 and the separators \x1c-\x1e end no line, so a comment keeps them.
    "# x\x85 1 2 3 2\u2028 7\x1c 8\x0c\n4 5 6\n",
]


@pytest.mark.parametrize("text", PARSE_CASES)
def test_parse_xyz_equals_reference(text):
    _assert_same_cloud(parse_xyz(text), reference_parse_xyz(text))


def test_parse_xyz_equals_reference_on_random_clouds():
    rng = np.random.default_rng(4)
    xyz = rng.uniform(-1e4, 1e4, (500, 3)) * rng.choice([1e-9, 1.0, 1e6], (500, 3))
    for classes in (None, rng.integers(0, 20, 500)):
        text = write_xyz(PointCloud3D(xyz, classes))
        cloud = parse_xyz(text)
        _assert_same_cloud(cloud, reference_parse_xyz(text))
        assert cloud.xyz.flags.c_contiguous
        assert np.array_equal(cloud.xyz, xyz)


COLUMN_ERRORS = [
    ("# h\n1 2 3\n\n1 2 3 4\n", "line 4: inconsistent column count"),
    ("1 2 3 2\n# x\n4 5 6\n", "line 3: inconsistent column count"),
    ("1 2 3\n1 2\n", "line 2: expected 'x y z \\[class\\]'"),
    ("# h\n1 2 3 4 5\n", "line 2: expected 'x y z \\[class\\]'"),
    ("1 2 3\r\n# x\r1 2\r\n", "line 3: expected 'x y z \\[class\\]', got '1 2'$"),
    ("1 2 3\x0c4 5 6\n", "line 1: expected 'x y z \\[class\\]', got '1 2 3\\\\x0c4 5 6'$"),
]
VALUE_ERRORS = [
    ("1 2 3 2\n4 5 6 2.5\n", "invalid literal for int"),
    ("1 2 3 2.0\n", "invalid literal for int"),
    ("1 2 3\n4 abc 6\n", "could not convert string to float"),
]
EMPTY_CLOUDS = ["", "# only comments\n", "\n  \n# a\r\n#b"]


@pytest.mark.parametrize("text, message", COLUMN_ERRORS)
def test_parse_xyz_column_errors_equal_reference(text, message):
    for parse in (parse_xyz, reference_parse_xyz):
        with pytest.raises(ValueError, match=message):
            parse(text)


@pytest.mark.parametrize("text, message", VALUE_ERRORS)
def test_parse_xyz_value_errors_name_their_line(text, message):
    with pytest.raises(ValueError, match=message):
        reference_parse_xyz(text)
    lineno = len(reader_lines(text))
    with pytest.raises(ValueError, match=f"line {lineno}: {message}"):
        parse_xyz(text)


@pytest.mark.parametrize("text", EMPTY_CLOUDS)
def test_parse_xyz_without_points_raises_without_warning(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="contains no points"):
            parse_xyz(text)


def cloud_file(tmp_path, text: str):
    """`text` written to a file byte for byte, line endings included."""
    path = tmp_path / "cloud.xyz"
    path.write_bytes(text.encode("utf-8"))
    return path


def parse_file(path) -> PointCloud3D:
    """parse_xyz of the file at `path`, opened as `extract` opens the cloud."""
    with path.open(encoding="utf-8") as f:
        return parse_xyz(f)


@pytest.mark.parametrize("text", PARSE_CASES)
def test_parse_xyz_file_equals_text(tmp_path, text):
    _assert_same_cloud(parse_file(cloud_file(tmp_path, text)), parse_xyz(text))


def test_parse_xyz_file_equals_text_on_write_xyz_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    xyz = rng.uniform(-1e4, 1e4, (3000, 3)) * rng.choice([1e-9, 1.0, 1e6], (3000, 3))
    for classes in (None, rng.integers(0, 20, 3000)):
        text = write_xyz(PointCloud3D(xyz, classes))
        cloud = parse_file(cloud_file(tmp_path, text))
        _assert_same_cloud(cloud, parse_xyz(text))
        assert cloud.xyz.flags.c_contiguous
        assert np.array_equal(cloud.xyz, xyz)


@pytest.mark.parametrize("text", [text for text, _ in COLUMN_ERRORS + VALUE_ERRORS])
def test_parse_xyz_file_errors_equal_text_errors(tmp_path, text):
    with pytest.raises(ValueError) as from_text:
        parse_xyz(text)
    with pytest.raises(ValueError) as from_file:
        parse_file(cloud_file(tmp_path, text))
    assert str(from_file.value) == str(from_text.value)
    assert str(from_file.value).startswith("line ")


def pipe_of(text: str):
    """A text file that reads `text` from a pipe, which cannot seek; `text` fits the pipe's buffer."""
    read_end, write_end = os.pipe()
    with open(write_end, "wb") as f:
        f.write(text.encode("utf-8"))
    return open(read_end, encoding="utf-8")


@pytest.mark.parametrize("text", PARSE_CASES)
def test_parse_xyz_pipe_equals_text(text):
    with pipe_of(text) as f:
        assert not f.seekable()
        _assert_same_cloud(parse_xyz(f), parse_xyz(text))


@pytest.mark.parametrize("text", [text for text, _ in COLUMN_ERRORS + VALUE_ERRORS])
def test_parse_xyz_pipe_error_is_numpys_message(text):
    # A pipe cannot be read again to name the line, so numpy's own row and column stand.
    with pipe_of(text) as f:
        with pytest.raises(ValueError, match=" at row ") as error:
            parse_xyz(f)
    assert not isinstance(error.value, OSError)


@pytest.mark.parametrize("text", EMPTY_CLOUDS)
def test_parse_xyz_file_without_points_raises_without_warning(tmp_path, text):
    path = cloud_file(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="contains no points"):
            parse_file(path)


def test_parse_xyz_file_peak_memory_is_bounded(tmp_path):
    # Read in place, the file costs no whole-file str and no list of lines:
    # the peak is the parsed rows plus the returned arrays (2.1x measured).
    rng = np.random.default_rng(7)
    n = 20_000
    cloud = PointCloud3D(rng.uniform(-1e4, 1e4, (n, 3)), rng.integers(0, 10, n))
    path = cloud_file(tmp_path, write_xyz(cloud))
    assert traced_peak(parse_file, path) <= 2.5 * (cloud.xyz.nbytes + cloud.classes.nbytes)


# ---------------------------------------------------------------------------
# separate_ground


def test_threshold_with_zero_std():
    # Ground at z=10 exactly: T_e = 10 + max(2.5, 0) = 12.5.
    pts = [(i, 0.0) for i in range(10)]
    ground = make_cloud(pts, 10.0, classes=[2] * 10)
    roof = make_cloud([(20.0, 20.0)], 13.0, classes=[6])
    cloud = PointCloud3D(
        np.vstack([ground.xyz, roof.xyz]), np.concatenate([ground.classes, roof.classes])
    )
    low, high = separate_ground(cloud)
    assert len(high) == 1 and high.xyz[0, 2] == 13.0
    assert len(low) == 10


def test_threshold_uses_std_when_large():
    rng = np.random.default_rng(5)
    z = rng.normal(0.0, 4.0, 4000)
    xy = rng.uniform(0, 100, (4000, 2))
    cloud = PointCloud3D(np.column_stack([xy, z]), np.full(4000, 2))
    te = float(z.mean() + max(2.5, z.std()))
    low, high = separate_ground(cloud)
    assert len(high) == int((z > te).sum())


def test_flat_cloud_all_ground():
    cloud = make_cloud([(i, i) for i in range(20)], 1.0, classes=[2] * 20)
    low, high = separate_ground(cloud)
    assert len(high) == 0 and len(low) == 20


def test_partition_is_disjoint_cover():
    rng = np.random.default_rng(6)
    xyz = rng.uniform(0, 30, (500, 3)) * np.array([1, 1, 10])
    cloud = PointCloud3D(xyz, np.where(xyz[:, 2] < 2, 2, 6))
    low, high = separate_ground(cloud)
    assert len(low) + len(high) == len(cloud)


def test_fallback_decile_without_classes():
    # Terrain at z ~ 0, one 30 m tower: fallback statistics must come from
    # the low decile so the tower lands in non-ground.
    rng = np.random.default_rng(9)
    ground_xy = rng.uniform(0, 40, (2000, 2))
    ground = np.column_stack([ground_xy, rng.uniform(0, 0.3, 2000)])
    tower = np.array([[20.0, 20.0, 30.0]] * 50)
    cloud = PointCloud3D(np.vstack([ground, tower]))
    low, high = separate_ground(cloud)
    assert len(high) == 50


def reference_ground_elevations_fallback(cloud, tile):
    """The fallback as one whole-cloud mask per tile, in ascending key order."""
    xyz = cloud.xyz
    col = np.floor((xyz[:, 0] - xyz[:, 0].min()) / tile).astype(int)
    row = np.floor((xyz[:, 1] - xyz[:, 1].min()) / tile).astype(int)
    key = row * (col.max() + 1) + col
    samples = []
    for k in np.unique(key):
        z = np.sort(xyz[key == k, 2])
        samples.append(z[: max(1, int(np.ceil(0.1 * len(z))))])
    return np.concatenate(samples)


def test_fallback_elevations_equal_unique_reference():
    rng = np.random.default_rng(10)
    cloud = PointCloud3D(rng.uniform(0, 95, (3000, 3)) * np.array([1, 0.6, 0.1]))
    got = _ground_elevations_fallback(cloud)
    assert got.tobytes() == reference_ground_elevations_fallback(cloud, 10.0).tobytes()


@pytest.mark.parametrize("case", ["random-small", "one-tile", "one-point-per-tile", "tiled"])
def test_fallback_elevations_equal_mask_reference(case, quebec_scene):
    rng = np.random.default_rng(11)
    if case == "random-small":
        cloud = PointCloud3D(rng.uniform(0, 40, (7, 3)))
    elif case == "one-tile":
        cloud = PointCloud3D(rng.uniform(0, 9.5, (500, 3)))
    elif case == "one-point-per-tile":
        xy = np.stack(np.meshgrid(np.arange(12.0), np.arange(7.0)), -1).reshape(-1, 2) * 10.0 + 3.0
        cloud = PointCloud3D(np.column_stack([rng.permutation(xy), rng.uniform(0, 5, len(xy))]))
    else:  # a 3 x 3 tiling of the preset cloud at a 512 px pitch, classes dropped
        spec, _, preset, _, _ = quebec_scene
        pitch = 512 * spec.resolution
        offsets = [(c * pitch, r * pitch, 0.0) for r in range(3) for c in range(3)]
        cloud = PointCloud3D(np.vstack([preset.xyz + off for off in offsets]))
    got = _ground_elevations_fallback(cloud)
    assert got.tobytes() == reference_ground_elevations_fallback(cloud, 10.0).tobytes()


def test_missing_ground_class_is_error():
    cloud = make_cloud([(0, 0), (1, 1), (2, 2)], 5.0, classes=[6, 6, 6])
    with pytest.raises(ValueError):
        separate_ground(cloud)


# ---------------------------------------------------------------------------
# projection grid


def test_cell_size_from_density():
    cloud = make_cloud([(0, 0), (10, 10)], 5.0)
    assert project_to_grid(cloud, 2.0)[0].cell_size == pytest.approx(1.0)
    assert project_to_grid(cloud, 8.0)[0].cell_size == pytest.approx(0.5)


def test_single_point_single_cell():
    g, cells = project_to_grid(make_cloud([(3.0, 4.0)], 1.0), 2.0)
    assert cells.dtype == bool and cells.shape == (g.height, g.width)
    assert cells.sum() == 1


def test_segments_area_filter():
    cloud_small = make_cloud([(x + 0.5, y + 0.5) for x in range(3) for y in range(3)], 5.0)
    g, cells = project_to_grid(cloud_small, 2.0)  # 1 m cells -> 9 m^2 blob
    labels, n = extract_building_segments(cells, g.cell_size, opening_radius=1, min_area_m2=10.0)
    assert n == 0

    cloud_big = make_cloud([(x + 0.5, y + 0.5) for x in range(4) for y in range(4)], 5.0)
    g, cells = project_to_grid(cloud_big, 2.0)  # 16 m^2 blob
    labels, n = extract_building_segments(cells, g.cell_size, opening_radius=1, min_area_m2=10.0)
    assert n == 1
    assert (labels > 0).sum() * g.cell_size**2 >= 10.0


def test_segments_empty_grid():
    _, n = extract_building_segments(np.zeros((5, 5), dtype=bool), 1.0)
    assert n == 0


def with_ground(cloud: PointCloud3D) -> PointCloud3D:
    """`cloud` as class 6, plus three class-2 points at z = 0 (T_e = 2.5)."""
    ground = [[-50.0, -50.0, 0.0], [-40.0, -50.0, 0.0], [-50.0, -40.0, 0.0]]
    return PointCloud3D(np.vstack([cloud.xyz, ground]), [6] * len(cloud) + [2, 2, 2])


def test_select_building_points_bookkeeping():
    # Diamond blobs (one point per 1 m cell center) are invariant under the
    # radius-1 opening, so per-building counts match the generator exactly.
    def diamond(cx, cy, r=4):
        return [
            (cx + i + 0.5, cy + j + 0.5)
            for i in range(-r, r + 1)
            for j in range(-r, r + 1)
            if abs(i) + abs(j) <= r
        ]

    blob1 = diamond(5, 5)
    blob2 = diamond(35, 5)
    stray = [(20.0, 20.0)]
    cloud = make_cloud(blob1 + blob2 + stray, 5.0)
    hulls, cells, labels = extract_boundaries(with_ground(cloud), density=2.0)  # 1 m cells
    assert [bid for bid, _ in hulls] == [1, 2]
    assert (labels == 1).sum() == len(blob1) and (labels == 2).sum() == len(blob2)
    assert hulls[0][1].tobytes() == convex_hull(blob1).tobytes()
    assert hulls[1][1].tobytes() == convex_hull(blob2).tobytes()
    # Stray point sits on a background cell and is absent from every segment.
    assert cells.sum() == len(cloud) and (labels > 0).sum() == len(cloud) - 1


# ---------------------------------------------------------------------------
# boundaries


def test_boundary_corners_of_box():
    xy = [(x, y) for x in range(5) for y in range(4)]
    b = convex_hull(make_cloud(xy, 7.0).xyz[:, :2])
    assert b.shape == (4, 2)
    got = {tuple(p) for p in b}
    assert got == {(0.0, 0.0), (4.0, 0.0), (4.0, 3.0), (0.0, 3.0)}


def test_boundary_idempotent_and_contains_points():
    rng = np.random.default_rng(14)
    xyz = np.column_stack([rng.uniform(0, 20, (80, 2)), rng.uniform(5, 6, 80)])
    hull_xy = convex_hull(xyz[:, :2])
    again = convex_hull(make_cloud(hull_xy, 5.0).xyz[:, :2])
    assert np.array_equal(np.sort(again, axis=0), np.sort(hull_xy, axis=0))
    center = hull_xy.mean(axis=0)
    grown = center + (hull_xy - center) * (1 + 1e-9)
    assert points_in_polygon(xyz[:, :2], grown).all()


def test_boundary_xy_convex():
    rng = np.random.default_rng(15)
    xyz = np.column_stack([rng.uniform(0, 10, (50, 2)), rng.uniform(0, 1, 50)])
    h = convex_hull(xyz[:, :2])
    n = len(h)
    for i in range(n):
        o, a, c = h[i], h[(i + 1) % n], h[(i + 2) % n]
        assert (a[0] - o[0]) * (c[1] - o[1]) - (a[1] - o[1]) * (c[0] - o[0]) > 0


def test_every_opened_segment_has_a_hull():
    # One point in each cell of a plus, the least a radius-1 opening keeps,
    # with a point at the grid origin that the opening removes. The points
    # of the plus's column and of its row never lie on one line, so
    # extract_boundaries needs no skip for collinear segments.
    plus = np.array([[1, 1], [1, 0], [1, 2], [0, 1], [2, 1]])  # (x, y) cells
    rng = np.random.default_rng(21)
    for _ in range(500):
        shift = rng.integers(-10**6, 10**6, 2)
        # Binary fractions, on cell edges too, keep every point in its cell.
        xy = shift + np.vstack([plus + rng.integers(0, 1024, (5, 2)) / 1024, [0.0, 0.0]])
        hulls, _, _ = extract_boundaries(with_ground(make_cloud(xy, 5.0)), density=2.0, min_area_m2=0.0)
        assert len(hulls) == 1
        assert len(hulls[0][1]) >= 3


def reference_boundaries(nonground: PointCloud3D, grid, labels) -> list[tuple[int, np.ndarray]]:
    """The grouping as one masked cloud per label, each hulled in xy."""
    row, col = grid.cell_index(nonground.xyz[:, :2])
    inside = (row >= 0) & (row < grid.height) & (col >= 0) & (col < grid.width)
    point_label = np.zeros(len(nonground), dtype=int)
    point_label[inside] = labels[row[inside], col[inside]]
    hulls = []
    for lbl in np.flatnonzero(np.bincount(point_label)):
        if lbl == 0:
            continue
        points = nonground.subset(point_label == lbl)
        if len(points) < 3:
            continue
        xy = points.xyz[:, :2]
        try:
            hulls.append((int(lbl), xy[convex_hull_indices(xy)]))
        except ValueError:
            continue
    return hulls


def _assert_equal_reference(cloud: PointCloud3D, density: float, **kwargs):
    hulls, _, labels = extract_boundaries(cloud, density=density, **kwargs)
    _, nonground = separate_ground(cloud)
    grid, _ = project_to_grid(nonground, density)
    expected = reference_boundaries(nonground, grid, labels)
    assert [bid for bid, _ in hulls] == [bid for bid, _ in expected]
    for (_, got), (_, ref) in zip(hulls, expected):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
    return hulls


@pytest.mark.parametrize("seed", [7, 13, 3])
def test_extract_boundaries_equals_mask_reference_on_preset(seed):
    spec = quebec_like_spec(seed=seed)
    _, cloud, _, _ = generate_scene(spec)
    assert len(_assert_equal_reference(cloud, spec.lidar_density)) == len(spec.buildings)


def test_extract_boundaries_equals_mask_reference_with_duplicate_points():
    # Two 4 x 3 lattices at the 1 m cell pitch, every point given twice. The
    # grid origin is the points' minimum, so the first lattice lies on column
    # edges and the second on row edges. The first lattice's copy has -0.0
    # for 0.0, which only the order of the points can tell apart from 0.0.
    # The opening removes a lone point.
    cols = [(float(x), y + 0.5) for x in range(4) for y in range(3)]
    rows = [(x + 10.25, float(y)) for x in range(4) for y in range(3)]
    xy = cols + rows * 2 + [(x or -0.0, y) for x, y in cols] + [(20.5, 20.5)]
    hulls = _assert_equal_reference(with_ground(make_cloud(xy, 5.0)), 2.0, min_area_m2=0.0)
    assert [bid for bid, _ in hulls] == [1, 2]


def test_end_to_end_building_count(quebec_scene):
    spec, _, cloud, truth, _ = quebec_scene
    hulls, cells, labels = extract_boundaries(cloud, density=spec.lidar_density)
    assert len(hulls) == len(spec.buildings)
    assert cells.dtype == bool and labels.shape == cells.shape
    ids = [bid for bid, _ in hulls]
    assert ids == sorted(ids) == list(range(1, labels.max() + 1))
    for _, hull in hulls:
        assert hull.ndim == 2 and hull.shape[1] == 2 and len(hull) >= 3


def test_extract_boundaries_estimates_density_from_whole_cloud(quebec_scene):
    cloud = quebec_scene[2]
    xy = cloud.xyz[:, :2]
    density = len(cloud) / float(np.prod(xy.max(axis=0) - xy.min(axis=0)))
    auto = extract_boundaries(cloud)
    given = extract_boundaries(cloud, density=density)
    assert [b for b, _ in auto[0]] == [b for b, _ in given[0]]
    for (_, a), (_, g) in zip(auto[0], given[0]):
        assert a.tobytes() == g.tobytes()
    assert np.array_equal(auto[1], given[1]) and np.array_equal(auto[2], given[2])

