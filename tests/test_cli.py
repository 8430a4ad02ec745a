from __future__ import annotations

import json

import numpy as np
import pytest

from buildsnake import cli, raster
from buildsnake.cli import main
from buildsnake.geometry import polygon_to_wkt, wkt_to_polygon
from buildsnake.polygonize import building_mbr
from buildsnake.synthetic import BuildingSpec, SceneSpec, quebec_like_spec

from conftest import pixel_iou


@pytest.fixture(scope="module")
def small_scene_dir(tmp_path_factory):
    """Two-building scene written via the synth subcommand."""
    spec = SceneSpec(
        size=(224, 224),
        resolution=0.15,
        buildings=[
            BuildingSpec(
                shape="rect",
                footprint=[(3.0, 3.0), (15.0, 3.0), (15.0, 12.0), (3.0, 12.0)],
                gray=180.0,
                height=6.0,
            ),
            BuildingSpec(
                shape="rect",
                footprint=[(18.0, 16.0), (28.0, 16.0), (28.0, 26.0), (18.0, 26.0)],
                gray=150.0,
                height=5.0,
            ),
        ],
        background_gray=80.0,
        noise_sigma=3.0,
        lidar_density=8.0,
        misalignment=(0.3, 0.0),
        seed=2,
    )
    d = tmp_path_factory.mktemp("cli_scene")
    (d / "spec.json").write_text(json.dumps(spec.to_dict()), encoding="utf-8")
    assert main(["synth", "--spec", str(d / "spec.json"), "--outdir", str(d)]) == 0
    return d


def read_wkts(path):
    return [wkt_to_polygon(line) for line in path.read_text().splitlines() if line.strip()]


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_all_files(small_scene_dir):
    for name in ("scene.pgm", "cloud.xyz", "transform.txt", "truth.wkt", "scene_spec.json"):
        assert (small_scene_dir / name).exists()
    img = raster.load_pnm((small_scene_dir / "scene.pgm").read_bytes())
    assert img.shape == (224, 224)


def test_synth_preset_and_repeatability(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--preset", "quebec-like", "--outdir", str(a)]) == 0
    assert main(["synth", "--preset", "quebec-like", "--outdir", str(b)]) == 0
    for name in ("scene.pgm", "cloud.xyz", "transform.txt", "truth.wkt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_invalid_json_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["synth", "--spec", str(bad), "--outdir", str(tmp_path / "out")]) == 2


# ---------------------------------------------------------------------------
# extract


def test_extract_two_buildings_accurate(small_scene_dir, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "extract",
            "--image", str(small_scene_dir / "scene.pgm"),
            "--cloud", str(small_scene_dir / "cloud.xyz"),
            "--transform", str(small_scene_dir / "transform.txt"),
            "--outdir", str(out),
            "--workers", "1",
        ]
    )
    assert rc == 0
    footprints = read_wkts(out / "footprints.wkt")
    truth = read_wkts(small_scene_dir / "truth.wkt")
    assert len(footprints) == 2
    from buildsnake.geometry import GridSpec

    grid = GridSpec((0.0, 0.0), 0.5, 320, 320)
    for fp in footprints:
        best = max(pixel_iou(fp, tp, grid) for tp in truth)
        assert best >= 90.0
    buildings = json.loads((out / "buildings.json").read_text())
    assert [b["id"] for b in buildings] == [1, 2]
    assert all(set(b) == {"id", "shape_level", "orientation_deg"} for b in buildings)
    assert (out / "run.json").exists()


def test_extract_missing_transform_exits_2(small_scene_dir, tmp_path, capsys):
    rc = main(
        [
            "extract",
            "--image", str(small_scene_dir / "scene.pgm"),
            "--cloud", str(small_scene_dir / "cloud.xyz"),
            "--transform", str(tmp_path / "nope.txt"),
            "--outdir", str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert "nope.txt" in capsys.readouterr().err


def test_extract_empty_nonground_warns_and_succeeds(small_scene_dir, tmp_path, capsys):
    flat = tmp_path / "flat.xyz"
    rng = np.random.default_rng(0)
    lines = [
        f"{x} {y} {z} 2"
        for x, y, z in zip(
            rng.uniform(0, 24, 300), rng.uniform(0, 24, 300), rng.uniform(0, 0.2, 300)
        )
    ]
    flat.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main(
        [
            "extract",
            "--image", str(small_scene_dir / "scene.pgm"),
            "--cloud", str(flat),
            "--transform", str(small_scene_dir / "transform.txt"),
            "--outdir", str(out),
        ]
    )
    assert rc == 0
    assert "warning" in capsys.readouterr().err.lower()
    assert (out / "footprints.wkt").read_text() == ""
    assert json.loads((out / "buildings.json").read_text()) == []


def test_extract_rerun_from_run_json_is_byte_identical(small_scene_dir, tmp_path):
    first = tmp_path / "first"
    rc = main(
        [
            "extract",
            "--image", str(small_scene_dir / "scene.pgm"),
            "--cloud", str(small_scene_dir / "cloud.xyz"),
            "--transform", str(small_scene_dir / "transform.txt"),
            "--outdir", str(first),
            "--workers", "2",
        ]
    )
    assert rc == 0
    second = tmp_path / "second"
    rc = main(["extract", "--config", str(first / "run.json"), "--outdir", str(second)])
    assert rc == 0
    for name in ("footprints.wkt", "buildings.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_extract_degenerate_snake_falls_back_to_boundary_mbr(tmp_path, capsys, monkeypatch):
    # Preset seed 11, proposed mode: building 6's snake collapses, so the
    # run keeps going with that building's LiDAR boundary MBR.
    (tmp_path / "spec.json").write_text(json.dumps(quebec_like_spec(seed=11).to_dict()), encoding="utf-8")
    assert main(["synth", "--spec", str(tmp_path / "spec.json"), "--outdir", str(tmp_path)]) == 0
    extract = cli.extract_buildings
    extracted = []

    def recording(*args, **kwargs):
        results = extract(*args, **kwargs)
        extracted.extend(results)
        return results

    monkeypatch.setattr(cli, "extract_buildings", recording)
    out = tmp_path / "out"
    rc = main(
        [
            "extract",
            "--image", str(tmp_path / "scene.pgm"),
            "--cloud", str(tmp_path / "cloud.xyz"),
            "--transform", str(tmp_path / "transform.txt"),
            "--outdir", str(out),
            "--mode", "proposed",
            "--workers", "1",
        ]
    )
    assert rc == 0
    assert "building 6: snake degenerate" in capsys.readouterr().err
    buildings = json.loads((out / "buildings.json").read_text())
    k = [b["id"] for b in buildings].index(6)
    assert buildings[k]["shape_level"] == "rectangle"
    b6 = extracted[k]
    assert b6.building_id == 6
    mbr = building_mbr(b6.init_pixels).corners()
    assert np.array_equal(b6.footprint, mbr)
    assert (out / "footprints.wkt").read_text().splitlines()[k] == polygon_to_wkt(mbr)


def test_extract_debug_and_svg_outputs(small_scene_dir, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "extract",
            "--image", str(small_scene_dir / "scene.pgm"),
            "--cloud", str(small_scene_dir / "cloud.xyz"),
            "--transform", str(small_scene_dir / "transform.txt"),
            "--outdir", str(out),
            "--svg",
            "--truth", str(small_scene_dir / "truth.wkt"),
            "--debug-dir", str(out / "debug"),
        ]
    )
    assert rc == 0
    assert (out / "overlay.svg").read_text().startswith("<svg")
    for name in ("binary_grid.pgm", "labels.pgm", "gvf_magnitude.pgm", "snake_1.wkt", "init_1.wkt"):
        assert (out / "debug" / name).exists()


def test_extract_bad_config_value_exits_2(small_scene_dir, tmp_path):
    rc = main(
        [
            "extract",
            "--image", str(small_scene_dir / "scene.pgm"),
            "--cloud", str(small_scene_dir / "cloud.xyz"),
            "--transform", str(small_scene_dir / "transform.txt"),
            "--outdir", str(tmp_path / "out"),
            "--gamma", "0",
        ]
    )
    assert rc == 2


def test_extract_snake_mbr_baseline_flag(small_scene_dir, tmp_path):
    out = tmp_path / "out"
    rc = main(
        [
            "extract",
            "--image", str(small_scene_dir / "scene.pgm"),
            "--cloud", str(small_scene_dir / "cloud.xyz"),
            "--transform", str(small_scene_dir / "transform.txt"),
            "--outdir", str(out),
            "--mbr-source", "snake",
            "--workers", "1",
        ]
    )
    assert rc == 0
    assert len(read_wkts(out / "footprints.wkt")) == 2


def test_evaluate_degenerate_polygon_exits_1(small_scene_dir, tmp_path, capsys):
    bad = tmp_path / "bad.wkt"
    # Zero-area sliver: rasterizes to nothing, so the rates are undefined.
    bad.write_text(
        "POLYGON((0.000000 0.000000, 10.000000 0.000000, "
        "5.000000 0.000000, 0.000000 0.000000))\n",
        encoding="utf-8",
    )
    rc = main(["evaluate", "--extracted", str(bad), "--truth", str(bad)])
    assert rc == 1
    assert "metrics" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_self_is_perfect(small_scene_dir, tmp_path):
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "evaluate",
            "--extracted", str(small_scene_dir / "truth.wkt"),
            "--truth", str(small_scene_dir / "truth.wkt"),
            "--out", str(report_path),
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert set(report["aggregate"]) == {"iou", "cp", "cr", "edc", "dare"}
    assert report["aggregate"]["iou"] == 100.0
    assert report["aggregate"]["edc"] == 0.0
    assert report["unmatched"] == {"extracted": [], "truth": []}


def test_evaluate_shifted_truth_edc(small_scene_dir, tmp_path):
    truth = read_wkts(small_scene_dir / "truth.wkt")
    shifted = tmp_path / "shifted.wkt"
    from buildsnake.geometry import polygon_to_wkt

    shifted.write_text(
        "".join(polygon_to_wkt(p + np.array([2.0, 0.0])) + "\n" for p in truth),
        encoding="utf-8",
    )
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "evaluate",
            "--extracted", str(shifted),
            "--truth", str(small_scene_dir / "truth.wkt"),
            "--cell-size", "0.5",
            "--out", str(report_path),
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["aggregate"]["edc"] == pytest.approx(2.0, abs=0.5)


def test_evaluate_unmatched_listed(small_scene_dir, tmp_path):
    truth = read_wkts(small_scene_dir / "truth.wkt")
    one = tmp_path / "one.wkt"
    from buildsnake.geometry import polygon_to_wkt

    one.write_text(polygon_to_wkt(truth[0]) + "\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    rc = main(
        [
            "evaluate",
            "--extracted", str(one),
            "--truth", str(small_scene_dir / "truth.wkt"),
            "--out", str(report_path),
        ]
    )
    assert rc == 0
    report = json.loads(report_path.read_text())
    assert report["unmatched"]["truth"] == [1]
    assert len(report["per_building"]) == 1


# ---------------------------------------------------------------------------
# fit-transform


def test_fit_transform_round_trip(tmp_path):
    from buildsnake.transform import AffineTransform2D

    truth = AffineTransform2D(1.0 / 0.15, 0.0, 0.0, 1.0 / 0.15, 2.0, -3.0)
    rng = np.random.default_rng(4)
    src = rng.uniform(0, 50, (6, 2))
    dst = truth.apply(src)
    pairs = tmp_path / "pairs.txt"
    pairs.write_text(
        "# sx sy tx ty\n"
        + "\n".join(f"{s[0]} {s[1]} {d[0]} {d[1]}" for s, d in zip(src, dst))
        + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "t.txt"
    assert main(["fit-transform", "--pairs", str(pairs), "--out", str(out)]) == 0
    fitted = AffineTransform2D.from_line(out.read_text())
    assert fitted.a == pytest.approx(truth.a, abs=1e-9)
    assert fitted.tx == pytest.approx(truth.tx, abs=1e-7)


def test_fit_transform_collinear_exits_2(tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 0 0 0\n1 1 1 1\n2 2 2 2\n", encoding="utf-8")
    assert main(["fit-transform", "--pairs", str(pairs)]) == 2
