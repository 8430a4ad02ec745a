"""Extract on buildings that touch the image border.

The footprints are not required to lie inside the image: a tilted MBR frame
can carry a border building's footprint a few pixels past the edge. A LiDAR
segment that lies wholly outside the image is skipped with a warning.
"""
from __future__ import annotations

import json

import numpy as np
import pytest

from buildsnake import snake as snake_module
from buildsnake.cli import extract_buildings, main
from buildsnake.config import GROUND_CLASS, SnakeConfig
from buildsnake.geometry import points_in_polygon, polygon_is_simple, rotate_points, wkt_to_polygon
from buildsnake.lidar import PointCloud3D
from buildsnake.snake import sample_force
from buildsnake.synthetic import BuildingSpec, SceneSpec, generate_scene, quebec_like_spec

VERTICES = {"rectangle": 4, "LTZ": 6, "U": 8}


def border_spec(seed: int) -> SceneSpec:
    """The preset's survey conditions with one rect on the left edge and one in the top-right corner."""
    side = 512 * 0.15
    return SceneSpec(
        size=(512, 512),
        resolution=0.15,
        buildings=[
            BuildingSpec(shape="rect", footprint=[(0.0, 30.0), (14.0, 30.0), (14.0, 42.0), (0.0, 42.0)],
                         gray=170.0, height=6.0),
            BuildingSpec(shape="rect", footprint=[(side - 14.0, 0.0), (side, 0.0), (side, 10.0), (side - 14.0, 10.0)],
                         gray=190.0, height=7.0),
        ],
        background_gray=80.0,
        noise_sigma=5.0,
        lidar_density=2.0,
        misalignment=(0.3, -0.4),
        seed=seed,
    )


@pytest.fixture(scope="module")
def run_border(tmp_path_factory):
    """extract(seed, mode) -> (exit code, footprints, buildings.json), each run once."""
    runs = {}

    def run(seed, mode):
        if (seed, mode) not in runs:
            d = tmp_path_factory.mktemp(f"border_{seed}_{mode}")
            (d / "spec.json").write_text(json.dumps(border_spec(seed).to_dict()), encoding="utf-8")
            assert main(["synth", "--spec", str(d / "spec.json"), "--outdir", str(d)]) == 0
            out = d / "out"
            rc = main(
                [
                    "extract",
                    "--image", str(d / "scene.pgm"),
                    "--cloud", str(d / "cloud.xyz"),
                    "--transform", str(d / "transform.txt"),
                    "--outdir", str(out),
                    "--mode", mode,
                ]
            )
            footprints = [wkt_to_polygon(line) for line in (out / "footprints.wkt").read_text().splitlines()]
            runs[seed, mode] = rc, footprints, json.loads((out / "buildings.json").read_text())
        return runs[seed, mode]

    return run


MODES = ["basic", "proposed"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", [7, 13, 3])
def test_border_footprints_simple_and_rectilinear(run_border, seed, mode):
    rc, footprints, buildings = run_border(seed, mode)
    assert rc == 0
    assert len(footprints) == len(buildings) >= 2
    for poly, b in zip(footprints, buildings):
        assert polygon_is_simple(poly)
        assert len(poly) == VERTICES[b["shape_level"]]
        local = rotate_points(poly, -b["orientation_deg"])
        edges = np.roll(local, -1, axis=0) - local
        assert np.abs(edges).min(axis=1).max() <= 1e-4  # each edge runs along one frame axis


# At seed 13 the opening around empty grid cells splits the left building
# into two segments: a LiDAR-stage defect, not a border effect.
SPLIT = pytest.mark.xfail(strict=True, reason="the LiDAR stage splits the left building into two segments")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("seed", [7, pytest.param(13, marks=SPLIT), 3])
def test_border_one_footprint_per_building(run_border, seed, mode):
    assert len(run_border(seed, mode)[1]) == 2


@pytest.mark.parametrize("seed", [7, 13, 3])
def test_snake_samples_only_points_inside_the_image(monkeypatch, seed):
    img, cloud, _, t = generate_scene(border_spec(seed))
    h, w = img.shape
    sampled = []

    def recording(force, points):
        sampled.append(points.copy())
        return sample_force(force, points)

    monkeypatch.setattr(snake_module, "sample_force", recording)
    extract_buildings(img, cloud, t, SnakeConfig(mode="basic"))
    pts = np.vstack(sampled)
    assert ((pts >= 0) & (pts <= (w - 1, h - 1))).all()
    assert (pts == 0).any() or (pts == (w - 1, h - 1)).any()  # the border clip was reached


@pytest.mark.parametrize("mode", MODES)
def test_segment_outside_the_image_is_skipped(capsys, mode):
    # The preset plus a copy of the rect building's roof points moved 200 m
    # in x and y, past the image's bottom-right corner. Its snake used to
    # collapse onto the corner and leave the LiDAR MBR as a sixth footprint.
    spec = quebec_like_spec(seed=7)
    img, cloud, _, t = generate_scene(spec)
    roof = (cloud.classes != GROUND_CLASS) & points_in_polygon(cloud.xyz[:, :2], spec.buildings[0].footprint)
    cloud = PointCloud3D(
        np.vstack([cloud.xyz, cloud.xyz[roof] + (200.0, 200.0, 0.0)]),
        np.concatenate([cloud.classes, cloud.classes[roof]]),
    )
    results = extract_buildings(img, cloud, t, SnakeConfig(mode=mode))
    assert len(results) == 5
    assert "warning: building 6: LiDAR segment lies outside the image, skipped" in capsys.readouterr().err
    h, w = img.shape
    for r in results:
        assert (r.footprint.max(axis=0) >= 0).all() and (r.footprint.min(axis=0) <= (w - 1, h - 1)).all()
