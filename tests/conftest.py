from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from buildsnake.cli import extract_buildings
from buildsnake.config import SnakeConfig
from buildsnake.geometry import GridSpec, rasterize_polygon
from buildsnake.synthetic import generate_scene, quebec_like_spec

SCENE_GRID = GridSpec(origin=(0.0, 0.0), cell_size=1.0, width=512, height=512)


def pixel_iou(poly_a, poly_b, grid: GridSpec = SCENE_GRID) -> float:
    """Percent IoU of two polygons rasterized on a common grid."""
    a = rasterize_polygon(poly_a, grid)
    b = rasterize_polygon(poly_b, grid)
    union = (a | b).sum()
    return 100.0 * (a & b).sum() / union if union else 0.0


def match_truth(polygon, truth_polys) -> int:
    """Index of the truth polygon with the nearest centroid."""
    c = np.asarray(polygon).mean(axis=0)
    dists = [np.linalg.norm(np.asarray(tp).mean(axis=0) - c) for tp in truth_polys]
    return int(np.argmin(dists))


def traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc counts while fn(*args) runs; numpy reports its buffers."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def quebec_scene():
    spec = quebec_like_spec()
    img, cloud, truth, t = generate_scene(spec)
    return spec, img, cloud, truth, t


@pytest.fixture(scope="session")
def mode_results(quebec_scene):
    """Pipeline outputs for each solver mode on the bundled scene."""
    _, img, cloud, truth, t = quebec_scene
    out = {}
    for mode in ("proposed", "gvf", "basic"):
        out[mode] = extract_buildings(img, cloud, t, SnakeConfig(mode=mode))
    return out


@pytest.fixture(scope="session")
def scene_dir(tmp_path_factory, quebec_scene):
    """Bundled scene written to disk in the pipeline's file formats."""
    from buildsnake import lidar, raster
    from buildsnake.geometry import polygon_to_wkt

    _, img, cloud, truth, t = quebec_scene
    d = tmp_path_factory.mktemp("scene")
    (d / "scene.pgm").write_bytes(raster.save_pgm(img))
    (d / "cloud.xyz").write_text(lidar.write_xyz(cloud), encoding="utf-8")
    (d / "transform.txt").write_text(t.to_line() + "\n", encoding="utf-8")
    (d / "truth.wkt").write_text(
        "".join(polygon_to_wkt(p) + "\n" for p in truth), encoding="utf-8"
    )
    return d
