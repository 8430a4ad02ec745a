from __future__ import annotations

import json

import numpy as np
import pytest

from buildsnake.geometry import GridSpec, points_in_polygon, rasterize_polygon
from buildsnake.metrics import confusion_counts, grid_covering, iou
from buildsnake.synthetic import (
    BuildingSpec,
    SceneSpec,
    generate_scene,
    quebec_like_spec,
)


def small_spec(**overrides) -> SceneSpec:
    params = dict(
        size=(128, 128),
        resolution=0.15,
        buildings=[
            BuildingSpec(
                shape="rect",
                footprint=[(3.0, 3.0), (12.0, 3.0), (12.0, 9.0), (3.0, 9.0)],
                gray=180.0,
                height=6.0,
            )
        ],
        background_gray=80.0,
        noise_sigma=0.0,
        lidar_density=2.0,
        misalignment=(0.0, 0.0),
        seed=1,
    )
    params.update(overrides)
    return SceneSpec(**params)


def test_same_seed_bit_identical():
    a_img, a_cloud, a_truth, a_t = generate_scene(quebec_like_spec(seed=5))
    b_img, b_cloud, b_truth, b_t = generate_scene(quebec_like_spec(seed=5))
    assert np.array_equal(a_img, b_img)
    assert np.array_equal(a_cloud.xyz, b_cloud.xyz)
    assert np.array_equal(a_cloud.classes, b_cloud.classes)
    assert a_t == b_t
    for pa, pb in zip(a_truth, b_truth):
        assert np.array_equal(pa, pb)


def test_different_seed_differs():
    a_img, *_ = generate_scene(quebec_like_spec(seed=5))
    b_img, *_ = generate_scene(quebec_like_spec(seed=6))
    assert not np.array_equal(a_img, b_img)


def test_truth_round_trips_through_metrics():
    _, _, truth, _ = generate_scene(quebec_like_spec())
    for poly in truth:
        grid = grid_covering([poly], 0.5)
        tp, fp, fn = confusion_counts(poly, poly, grid)
        assert iou(tp, fp, fn) == 100.0


def test_zero_noise_render_matches_rasterization():
    spec = small_spec()
    img, _, truth, _ = generate_scene(spec)
    grid = GridSpec((0.0, 0.0), 1.0, 128, 128)
    mask = rasterize_polygon(truth[0], grid)
    assert (img[mask] == 180.0).all()
    assert (img[~mask] == 80.0).all()
    assert int((img == 180.0).sum()) == int(mask.sum())


def test_point_count_tracks_density():
    spec = small_spec(lidar_density=2.0)
    _, cloud, _, _ = generate_scene(spec)
    area = 128 * 0.15 * 128 * 0.15
    assert len(cloud) == pytest.approx(2.0 * area, rel=0.05)


def test_building_points_have_height_and_class():
    spec = small_spec()
    _, cloud, truth, _ = generate_scene(spec)
    fp_m = spec.buildings[0].footprint
    inside = points_in_polygon(cloud.xyz[:, :2], fp_m)
    assert (cloud.xyz[inside, 2] == 6.0).all()
    assert (cloud.classes[inside] == 6).all()
    assert (cloud.classes[~inside] == 2).all()
    assert cloud.xyz[~inside, 2].max() <= 0.3


def test_misalignment_offset_in_transform():
    spec = small_spec(misalignment=(1.41, 0.0))
    _, _, _, t = generate_scene(spec)
    assert t.tx == pytest.approx(1.41 / 0.15)
    assert t.ty == 0.0
    # Truth stays aligned to the image: only the cloud transform shifts.
    assert t.a == pytest.approx(1.0 / 0.15)


def test_gabled_two_tone_split():
    spec = small_spec(
        buildings=[
            BuildingSpec(
                shape="gabled",
                footprint=[(3.0, 3.0), (15.0, 3.0), (15.0, 9.0), (3.0, 9.0)],
                gray=(160.0, 200.0),
                height=7.0,
            )
        ]
    )
    img, _, truth, _ = generate_scene(spec)
    grid = GridSpec((0.0, 0.0), 1.0, 128, 128)
    mask = rasterize_polygon(truth[0], grid)
    vals = set(np.unique(img[mask]))
    assert vals == {160.0, 200.0}


RECT = [[3, 3], [12, 3], [12, 9], [3, 9]]


@pytest.mark.parametrize(
    "spec",
    [
        quebec_like_spec(),
        # No shadows key, every number an int.
        SceneSpec.from_dict(
            {"size": [96, 64], "resolution": 1, "buildings": [{"shape": "rect", "footprint": RECT, "gray": 180, "height": 6}],
             "background_gray": 80, "noise_sigma": 3, "lidar_density": 1, "misalignment": [1, -2], "seed": 4}
        ),
        SceneSpec.from_dict(
            {"size": [128, 96], "resolution": 0.15,
             "buildings": [{"shape": "gabled", "footprint": RECT, "gray": [160.0, 200.0], "height": 7.5}]}
        ),
    ],
    ids=["preset", "int-values-no-shadows", "gabled"],
)
def test_spec_json_round_trip(spec):
    text = json.dumps(spec.to_dict(), sort_keys=True)
    again = SceneSpec.from_json(text)
    assert json.dumps(again.to_dict(), sort_keys=True) == text
    d = json.loads(text)
    assert {type(d[k]) for k in ("resolution", "background_gray", "noise_sigma", "lidar_density")} == {float}
    (a_img, a_cloud, a_truth, a_t), (b_img, b_cloud, b_truth, b_t) = generate_scene(spec), generate_scene(again)
    assert a_img.tobytes() == b_img.tobytes()
    assert a_cloud.xyz.tobytes() == b_cloud.xyz.tobytes()
    assert a_cloud.classes.tobytes() == b_cloud.classes.tobytes()
    assert [p.tobytes() for p in a_truth] == [p.tobytes() for p in b_truth]
    assert a_t == b_t


def test_out_of_scene_footprint_rejected():
    with pytest.raises(ValueError):
        small_spec(
            buildings=[
                BuildingSpec(
                    shape="rect",
                    footprint=[(-5.0, 0.0), (5.0, 0.0), (5.0, 5.0), (-5.0, 5.0)],
                    gray=180.0,
                    height=6.0,
                )
            ]
        )


def test_gabled_requires_two_tones():
    with pytest.raises(ValueError):
        BuildingSpec(shape="gabled", footprint=[(0, 0), (1, 0), (1, 1)], gray=150.0, height=5.0)
