from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from buildsnake import cli, lidar, raster
from buildsnake.cli import main
from buildsnake.config import SnakeConfig
from buildsnake.geometry import polygon_to_wkt, wkt_to_polygon
from buildsnake.polygonize import building_mbr
from buildsnake.synthetic import BuildingSpec, SceneSpec, quebec_like_spec

from conftest import pixel_iou
from test_raster import OUT_OF_RANGE_PNM

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


def synth_spec_dict(tmp_path, capsys, d) -> tuple[int, str]:
    """Run `synth --spec` on the JSON of `d`: (exit code, stderr)."""
    (tmp_path / "spec.json").write_text(json.dumps(d), encoding="utf-8")
    rc = main(["synth", "--spec", str(tmp_path / "spec.json"), "--outdir", str(tmp_path / "out")])
    return rc, capsys.readouterr().err


def preset_dict_with(path, value) -> dict:
    """The preset's spec dict with the entry at `path` (keys and list indices) set to `value`."""
    d = quebec_like_spec().to_dict()
    *parents, last = path
    node = d
    for key in parents:
        node = node[key]
    node[last] = value
    return d


@pytest.mark.parametrize(
    "path, key",
    [
        (("lidar_densty",), "lidar_densty"),
        (("buildings", 0, "roof"), "roof"),
        (("shadows", 0, "opacity"), "opacity"),
    ],
    ids=["scene", "building", "shadow"],
)
def test_synth_unknown_spec_key_exits_2(tmp_path, capsys, path, key):
    rc, err = synth_spec_dict(tmp_path, capsys, preset_dict_with(path, 5))
    assert rc == 2
    assert "[spec]" in err and repr(key) in err
    assert not (tmp_path / "out").exists()


NAN = float("nan")


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("size",), [256.5, 256], "size"),
        (("resolution",), NAN, "resolution"),
        (("lidar_density",), NAN, "lidar_density"),
        (("seed",), -1, "seed"),
        (("misalignment",), [NAN, 0], "misalignment"),
        (("buildings", 0, "height"), NAN, "height"),
        (("buildings", 0, "footprint"), [[6.0, 8.0], [22.0, 8.0]], "footprint"),
        (("shadows", 0, "polygon"), [[53.5, 40.0], [56.5, 40.0]], "polygon"),
        (("noise_sigma",), -1, "noise_sigma"),
        (("noise_sigma",), NAN, "noise_sigma"),
        (("buildings", 0, "gray"), NAN, "gray"),
        (("shadows", 0, "gray"), NAN, "gray"),
        (("buildings", 4, "gray"), [160.0, 200.0, 220.0], "gray"),
        (("noise_sigma",), 10**400, "noise_sigma"),
        (("buildings",), 5, "buildings"),
        (("shadows",), None, "shadows"),
        (("shadows",), quebec_like_spec().to_dict()["shadows"][0], "shadows"),
        (("size",), [10**400, 256], "size"),
        (("size",), [1000000, 1000000], "size"),
    ],
    ids=["size-fraction", "resolution-nan", "lidar_density-nan", "seed-negative", "misalignment-nan",
         "height-nan", "footprint-2-vertices", "shadow-2-vertices", "noise_sigma-negative", "noise_sigma-nan",
         "building-gray-nan", "shadow-gray-nan", "gray-3-tones", "noise_sigma-401-digits",
         "buildings-int", "shadows-null", "shadows-object", "size-401-digits", "size-million"],
)
def test_synth_malformed_spec_value_exits_2(tmp_path, capsys, path, value, field):
    rc, err = synth_spec_dict(tmp_path, capsys, preset_dict_with(path, value))
    assert rc == 2
    assert f"[spec] {tmp_path / 'spec.json'}: {field} " in err
    assert "[internal]" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "d, text",
    [
        ({k: v for k, v in quebec_like_spec().to_dict().items() if k != "resolution"}, "'resolution'"),
        (preset_dict_with(("resolution",), "fine"), "resolution must be a number, got 'fine'"),
    ],
    ids=["missing-key", "non-numeric-string"],
)
def test_synth_missing_key_or_string_value_exits_2(tmp_path, capsys, d, text):
    rc, err = synth_spec_dict(tmp_path, capsys, d)
    assert rc == 2
    assert "[spec]" in err and text in err


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


@pytest.mark.parametrize("mode", ["basic", "gvf"])
def test_extract_with_underflowing_sigma_runs_as_sigma_zero(small_scene_dir, tmp_path, capsys, mode):
    # 2 sigma^2 is 0 at 1e-170: the blur used to build a NaN kernel, so gvf
    # mode exited 1 on a non-finite energy and basic mode fell back to MBRs.
    outputs = []
    for sigma in ("1e-170", "0"):
        out = tmp_path / sigma
        rc = main(
            [
                "extract",
                "--image", str(small_scene_dir / "scene.pgm"),
                "--cloud", str(small_scene_dir / "cloud.xyz"),
                "--transform", str(small_scene_dir / "transform.txt"),
                "--outdir", str(out),
                "--mode", mode,
                "--sigma", sigma,
            ]
        )
        assert rc == 0
        assert "warning" not in capsys.readouterr().err
        outputs.append((out / "footprints.wkt").read_bytes())
    assert outputs[0] == outputs[1]


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
        ]
    )
    assert rc == 0
    second = tmp_path / "second"
    rc = main(["extract", "--config", str(first / "run.json"), "--outdir", str(second)])
    assert rc == 0
    # A run.json written before the fan-out and the unused keys were removed.
    old_format = json.loads((first / "run.json").read_text())
    old_format.update(workers=2, mbr_source="lidar", eval_cell_size=1.0)
    (tmp_path / "old_run.json").write_text(json.dumps(old_format), encoding="utf-8")
    third = tmp_path / "third"
    rc = main(["extract", "--config", str(tmp_path / "old_run.json"), "--outdir", str(third)])
    assert rc == 0
    for name in ("footprints.wkt", "buildings.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
        assert (first / name).read_bytes() == (third / name).read_bytes()
    for out in (first, second, third):
        assert not {"workers", "mbr_source", "eval_cell_size"} & set(json.loads((out / "run.json").read_text()))


def test_extract_calls_stages_through_cli_globals(small_scene_dir, tmp_path, monkeypatch):
    # The benchmark tracer patches these names on `cli`; extract must look
    # them up there, not through its own references.
    calls = {}
    for name in ("prepare_fields", "run_snake", "building_mbr", "fit_rectilinear"):
        def counting(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
    rc = main(
        [
            "extract",
            "--image", str(small_scene_dir / "scene.pgm"),
            "--cloud", str(small_scene_dir / "cloud.xyz"),
            "--transform", str(small_scene_dir / "transform.txt"),
            "--outdir", str(tmp_path / "out"),
            "--mode", "basic",
        ]
    )
    assert rc == 0
    assert calls == {"prepare_fields": 1, "run_snake": 2, "building_mbr": 2, "fit_rectilinear": 2}


def test_extract_degenerate_snake_falls_back_to_boundary_mbr(small_scene_dir, tmp_path, capsys, monkeypatch):
    # The second building's snake is flattened onto one line, a contour with
    # no area that fit_rectilinear rejects, so the run keeps going with that
    # building's LiDAR boundary MBR.
    run = cli.run_snake
    snakes = []

    def collapsing(*args, **kwargs):
        contour = run(*args, **kwargs)
        if len(snakes) == 1:
            contour[:, 1] = contour[0, 1]
        snakes.append(contour)
        return contour

    extract = cli.extract_buildings
    extracted = []

    def recording(*args, **kwargs):
        results = extract(*args, **kwargs)
        extracted.extend(results)
        return results

    monkeypatch.setattr(cli, "run_snake", collapsing)
    monkeypatch.setattr(cli, "extract_buildings", recording)
    out = tmp_path / "out"
    rc = main(
        [
            "extract",
            "--image", str(small_scene_dir / "scene.pgm"),
            "--cloud", str(small_scene_dir / "cloud.xyz"),
            "--transform", str(small_scene_dir / "transform.txt"),
            "--outdir", str(out),
            "--mode", "proposed",
        ]
    )
    assert rc == 0
    assert len(snakes) == len(extracted) == 2
    flat = extracted[1]
    assert flat.snake is snakes[1]
    assert f"building {flat.building_id}: snake degenerate" in capsys.readouterr().err
    buildings = json.loads((out / "buildings.json").read_text())
    assert [b["shape_level"] for b in buildings] == [extracted[0].shape_level, "rectangle"]
    mbr = building_mbr(flat.init_pixels).corners()
    assert np.array_equal(flat.footprint, mbr)
    assert (out / "footprints.wkt").read_text().splitlines()[1] == polygon_to_wkt(mbr)


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
    # The force lives on a coarse grid; its magnitude is sampled at every pixel of the image.
    magnitude = raster.load_pnm((out / "debug" / "gvf_magnitude.pgm").read_bytes())
    assert magnitude.shape == raster.load_pnm((small_scene_dir / "scene.pgm").read_bytes()).shape


def test_extract_bad_config_value_exits_2(small_scene_dir, tmp_path, capsys):
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
    assert "error: [config] gamma must be > 0, got 0.0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "source, key, value",
    [
        (source, key, value)
        for source in ("flag", "config")
        for key, value in [("connectivity", 5), ("opening_radius", 0), ("density", -1.0)]
    ]
    # argparse itself rejects a non-integer integer flag, so these come from JSON only.
    + [("config", "max_iters", 2.5), ("config", "ground_class", 2.5)]
    + [("flag", "sym_diff_tol", -1), ("flag", "min_segment_area_m2", "nan")]
    + [("flag", "mu", "inf"), ("flag", "sigma", "inf")]
    # One value past each lower bound that no other case reaches.
    + [("flag", key, 0) for key in ("epsilon", "mu", "delta", "max_iters", "gvf_iters", "resample_every")]
    + [("flag", key, -1) for key in ("sigma", "alpha", "beta")]
    # Float keys from JSON must be real numbers: no strings, null or booleans.
    + [("config", "w_line", "abc"), ("config", "shape_weight", None), ("config", "epsilon", True)]
    + [("config", "density", True), ("config", "alpha", "0.5")]
    + [pytest.param("config", "alpha", 10**400, id="config-alpha-401-digits")],
)
def test_extract_invalid_pipeline_value_exits_2(small_scene_dir, tmp_path, capsys, source, key, value):
    argv = [
        "extract",
        "--image", str(small_scene_dir / "scene.pgm"),
        "--cloud", str(small_scene_dir / "cloud.xyz"),
        "--transform", str(small_scene_dir / "transform.txt"),
        "--outdir", str(tmp_path / "out"),
    ]
    if source == "flag":
        argv += [f"--{key.replace('_', '-')}", str(value)]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}), encoding="utf-8")
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "[config]" in err and key in err
    assert not (tmp_path / "out" / "run.json").exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ({"conectivity": 4}, "unknown key 'conectivity'"),
        ([4], "{cfg} must hold a JSON object"),
        # argparse guards only the --mode flag's choices.
        ({"mode": "fast"}, "mode must be one of"),
    ],
)
def test_extract_unknown_config_key_exits_2(small_scene_dir, tmp_path, capsys, config, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    rc = main(
        [
            "extract",
            "--image", str(small_scene_dir / "scene.pgm"),
            "--cloud", str(small_scene_dir / "cloud.xyz"),
            "--transform", str(small_scene_dir / "transform.txt"),
            "--outdir", str(tmp_path / "out"),
            "--config", str(cfg),
        ]
    )
    assert rc == 2
    assert "[config] " + message.format(cfg=cfg) in capsys.readouterr().err
    assert not (tmp_path / "out" / "run.json").exists()


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("image", 5, "image must be a path string, got 5"),
        ("cloud", [1, 2], "cloud must be a path string, got [1, 2]"),
        ("transform", {"path": "t.txt"}, "transform must be a path string, got {'path': 't.txt'}"),
        ("truth", 5, "truth must be a path string, got 5"),
        ("outdir", 1.5, "outdir must be a path string, got 1.5"),
        ("image", None, "missing required input: --image"),
        ("cloud", None, "missing required input: --cloud"),
        ("transform", None, "missing required input: --transform"),
    ],
    ids=["image-number", "cloud-list", "transform-object", "truth-number", "outdir-number",
         "image-null", "cloud-null", "transform-null"],
)
def test_extract_bad_config_input_exits_2_without_outdir(
    small_scene_dir, tmp_path, monkeypatch, capsys, key, value, message
):
    monkeypatch.chdir(tmp_path)  # "." is the default outdir
    config = {k: str(small_scene_dir / name) for k, name in
              (("image", "scene.pgm"), ("cloud", "cloud.xyz"), ("transform", "transform.txt"))}
    config["outdir"] = "out"
    config[key] = value
    (tmp_path / "cfg.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["extract", "--config", "cfg.json"]) == 2
    assert f"error: [config] {message}\n" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


# A value of the field's default type that differs from the default and passes validation.
NON_DEFAULT = {"mode": "basic", "connectivity": 4, "density": 2.5}


def test_extract_flags_match_config_fields_one_to_one():
    fields = dataclasses.fields(SnakeConfig)
    dests = set(vars(cli.build_parser().parse_args(["extract"])))
    other = {"command", "func", "config", "debug_dir", "svg", *cli.IO_KEYS}
    assert dests - other == {f.name for f in fields}
    assert len(fields) == 21
    for f in fields:
        value = NON_DEFAULT[f.name] if f.name in NON_DEFAULT else f.default + 1
        assert value != f.default and type(value) is (float if f.default is None else type(f.default))
        args = cli.build_parser().parse_args(["extract", f"--{f.name.replace('_', '-')}", str(value)])
        cfg, _ = cli._resolve_config(args)
        assert getattr(cfg, f.name) == value
        assert type(getattr(cfg, f.name)) is type(value)
        assert cfg == dataclasses.replace(SnakeConfig(), **{f.name: value})


TRUNCATED_PGM = b"P5\n4 4\n255\n" + bytes(5)
BAD_WKT = b"POLYGON((0 0, 1 x, 1 1, 0 0))\n"
NAN_WKT = b"POLYGON((0 0, 1 0, 1 nan, 0 1, 0 0))\n"
BAD_TRANSFORM_ARGV = ["extract", "--image", "{scene}/scene.pgm", "--cloud", "{scene}/cloud.xyz",
                      "--transform", "{bad}", "--outdir", "{out}"]
BAD_IMAGE_ARGV = ["extract", "--image", "{bad}", "--cloud", "{scene}/cloud.xyz",
                  "--transform", "{scene}/transform.txt", "--outdir", "{out}"]
BAD_CLOUD_ARGV = ["extract", "--image", "{scene}/scene.pgm", "--cloud", "{bad}",
                  "--transform", "{scene}/transform.txt", "--outdir", "{out}"]
# A byte that is not UTF-8, in the first block the reader decodes and past it.
NON_UTF8_CLOUDS = [b"0 0 0 2\n1 \xff 0 2\n", b"0 0 0 2\n" * 2000 + b"1 \xff 0 2\n"]
# The message after the stage tag and path, for the inputs whose message no other test pins.
MALFORMED_MESSAGES = {
    b"": "empty PNM data",
    b"P5\n0 4\n255\n": "PNM dimensions must be positive",
    b"0 0 0\n": "line 1: expected 'sx sy tx ty'",
}


@pytest.mark.parametrize(
    "stage, content, argv",
    [
        ("image", TRUNCATED_PGM, BAD_IMAGE_ARGV),
        ("truth", BAD_WKT, ["extract", "--image", "{scene}/scene.pgm", "--cloud", "{scene}/cloud.xyz",
                            "--transform", "{scene}/transform.txt", "--outdir", "{out}", "--truth", "{bad}"]),
        ("extracted", BAD_WKT, ["evaluate", "--extracted", "{bad}", "--truth", "{scene}/truth.wkt"]),
        ("truth", BAD_WKT, ["evaluate", "--extracted", "{scene}/truth.wkt", "--truth", "{bad}"]),
        ("pairs", b"0 0 0 0\n1 0 one 0\n", ["fit-transform", "--pairs", "{bad}"]),
        ("cloud", b"0 0 0 2\n1 nan 0 2\n", ["extract", "--image", "{scene}/scene.pgm", "--cloud", "{bad}",
                                             "--transform", "{scene}/transform.txt", "--outdir", "{out}"]),
        ("transform", b"1 0 0 1 nan 0\n", BAD_TRANSFORM_ARGV),
        ("transform", b"inf 0 0 1 0 0\n", BAD_TRANSFORM_ARGV),
        ("pairs", b"0 0 0 0\n1 0 1 nan\n0 1 0 1\n", ["fit-transform", "--pairs", "{bad}"]),
        ("pairs", b"0 0 0 0\nnan 0 1 0\n0 1 0 1\n", ["fit-transform", "--pairs", "{bad}"]),
        ("extracted", NAN_WKT, ["evaluate", "--extracted", "{bad}", "--truth", "{scene}/truth.wkt"]),
        ("truth", NAN_WKT, ["evaluate", "--extracted", "{scene}/truth.wkt", "--truth", "{bad}"]),
        ("truth", NAN_WKT, ["extract", "--image", "{scene}/scene.pgm", "--cloud", "{scene}/cloud.xyz",
                            "--transform", "{scene}/transform.txt", "--outdir", "{out}", "--truth", "{bad}"]),
        *[("image", data, BAD_IMAGE_ARGV) for data in OUT_OF_RANGE_PNM],
        ("image", b"", BAD_IMAGE_ARGV),
        ("image", b"P5\n0 4\n255\n", BAD_IMAGE_ARGV),
        ("pairs", b"0 0 0\n", ["fit-transform", "--pairs", "{bad}"]),
        *[("cloud", data, BAD_CLOUD_ARGV) for data in NON_UTF8_CLOUDS],
    ],
)
def test_malformed_input_file_exits_2_with_stage(small_scene_dir, tmp_path, capsys, stage, content, argv):
    bad = tmp_path / "bad_input"
    bad.write_bytes(content)
    out = tmp_path / "out"
    argv = [a.format(bad=bad, scene=small_scene_dir, out=out) for a in argv]
    assert main(argv) == 2
    assert f"error: [{stage}] {bad}: {MALFORMED_MESSAGES.get(content, '')}" in capsys.readouterr().err
    assert not out.exists()


def extract_from_fifo(scene: Path, cloud: bytes, tmp_path: Path) -> tuple[int, Path]:
    """`extract`'s exit code and outdir, with the cloud read from a FIFO that a thread fills."""
    fifo = tmp_path / "cloud.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as f:  # blocks until extract opens the cloud
            f.write(cloud)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    out = tmp_path / "out"
    rc = main(["extract", "--image", str(scene / "scene.pgm"), "--cloud", str(fifo),
               "--transform", str(scene / "transform.txt"), "--outdir", str(out)])
    writer.join(timeout=10)
    assert not writer.is_alive()
    return rc, out


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_extract_reads_cloud_from_a_fifo(small_scene_dir, tmp_path):
    rc, out = extract_from_fifo(small_scene_dir, (small_scene_dir / "cloud.xyz").read_bytes(), tmp_path)
    assert rc == 0
    expected = tmp_path / "expected"
    assert main(["extract", "--image", str(small_scene_dir / "scene.pgm"),
                 "--cloud", str(small_scene_dir / "cloud.xyz"),
                 "--transform", str(small_scene_dir / "transform.txt"), "--outdir", str(expected)]) == 0
    for name in ("footprints.wkt", "buildings.json"):
        assert (out / name).read_bytes() == (expected / name).read_bytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_extract_bad_cloud_from_a_fifo_exits_2_with_numpys_message(small_scene_dir, tmp_path, capsys):
    rc, out = extract_from_fifo(small_scene_dir, b"0 0 0 2\n1 2 3\n", tmp_path)
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: [cloud] {tmp_path / 'cloud.fifo'}: the dtype passed requires 4 columns but 3 were found at row 2" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda cloud: cloud.classes.fill(6), "no points with ground class 2"),
        (lambda cloud: cloud.xyz[:, 0].fill(5.0), "cloud has zero planar extent"),
    ],
    ids=["no-ground-class", "constant-x"],
)
def test_extract_degenerate_cloud_exits_1(small_scene_dir, tmp_path, capsys, edit, message):
    cloud = lidar.parse_xyz((small_scene_dir / "cloud.xyz").read_text(encoding="utf-8"))
    edit(cloud)
    bad = tmp_path / "cloud.xyz"
    bad.write_text(lidar.write_xyz(cloud), encoding="utf-8")
    out = tmp_path / "out"
    rc = main(
        [
            "extract",
            "--image", str(small_scene_dir / "scene.pgm"),
            "--cloud", str(bad),
            "--transform", str(small_scene_dir / "transform.txt"),
            "--outdir", str(out),
        ]
    )
    assert rc == 1
    assert f"error: [lidar] {message}" in capsys.readouterr().err
    assert not (out / "run.json").exists()


def test_extract_unexpected_stage_error_exits_1_as_internal(small_scene_dir, tmp_path, capsys, monkeypatch):
    # An exception no stage maps to its tag ends the run as [internal], not as a traceback.
    def fail(*args):
        raise RuntimeError("stage broke")

    monkeypatch.setattr(cli, "prepare_fields", fail)
    out = tmp_path / "out"
    rc = main(
        [
            "extract",
            "--image", str(small_scene_dir / "scene.pgm"),
            "--cloud", str(small_scene_dir / "cloud.xyz"),
            "--transform", str(small_scene_dir / "transform.txt"),
            "--outdir", str(out),
        ]
    )
    assert rc == 1
    assert "error: [internal] RuntimeError: stage broke\n" in capsys.readouterr().err
    assert not (out / "run.json").exists()


@pytest.mark.parametrize("mode", ["basic", "gvf", "proposed"])
@pytest.mark.parametrize("shape", [(2, 2), (1, 300)], ids=["2x2", "1x300"])
def test_extract_image_below_3x3_exits_1(scene_dir, tmp_path, capsys, shape, mode):
    tiny = tmp_path / "tiny.pgm"
    tiny.write_bytes(raster.save_pgm(np.full(shape, 128.0)))
    out = tmp_path / "out"
    rc = main(
        [
            "extract",
            "--image", str(tiny),
            "--cloud", str(scene_dir / "cloud.xyz"),
            "--transform", str(scene_dir / "transform.txt"),
            "--outdir", str(out),
            "--mode", mode,
        ]
    )
    assert rc == 1
    assert "error: [snake] image must be at least 3x3 for gradients" in capsys.readouterr().err
    assert not (out / "run.json").exists()


@pytest.mark.parametrize(
    "flag, value", [("--alpha", "1e308"), ("--beta", "1e308"), ("--gamma", "1e-300"), ("--gamma", "1e-17")]
)
def test_extract_weights_without_a_snake_system_exit_1(scene_dir, tmp_path, capsys, flag, value):
    # These weights overflow, or cancel gamma out of, the closed-form
    # inverse (at 1e-17 the cancelled eigenvalue may still be positive):
    # the run must stop with a [snake] error naming them, not run on
    # degenerate snakes or report a zero perimeter.
    out = tmp_path / "out"
    rc = main(
        [
            "extract",
            "--image", str(scene_dir / "scene.pgm"),
            "--cloud", str(scene_dir / "cloud.xyz"),
            "--transform", str(scene_dir / "transform.txt"),
            "--outdir", str(out),
            "--mode", "basic",
            flag, value,
        ]
    )
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: [snake] alpha=" in err and "gamma=" in err and "not all positive and finite" in err
    assert "warning" not in err
    assert not (out / "run.json").exists()


OVERFLOWING_SUM = (["--w-line", "1e308", "--w-edge", "1e308"], "w_line=1e+308, w_edge=1e+308 and w_term=0.01 give")
OVERFLOWING_GVF = (["--w-edge", "1e200"], "the gradient of e_img overflows")


@pytest.mark.parametrize(
    "mode, weights, message",
    [pytest.param(mode, *OVERFLOWING_SUM, id=f"{mode}-energy") for mode in ("basic", "gvf", "proposed")]
    + [pytest.param(mode, *OVERFLOWING_GVF, id=f"{mode}-gvf-step") for mode in ("gvf", "proposed")],
)
def test_extract_energy_weights_that_overflow_exit_1(scene_dir, tmp_path, capsys, mode, weights, message):
    # Weighted energy terms that sum past float range, or a finite energy
    # whose squared edge force overflows the GVF's step: every mode must
    # stop with a [snake] error, not run NaN snakes or end on a warning.
    out = tmp_path / "out"
    rc = main(
        [
            "extract",
            "--image", str(scene_dir / "scene.pgm"),
            "--cloud", str(scene_dir / "cloud.xyz"),
            "--transform", str(scene_dir / "transform.txt"),
            "--outdir", str(out),
            "--mode", mode,
            *weights,
        ]
    )
    assert rc == 1
    assert f"error: [snake] {message}" in capsys.readouterr().err
    assert not (out / "run.json").exists()


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


def test_evaluate_self_is_perfect(small_scene_dir, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    argv = [
        "evaluate",
        "--extracted", str(small_scene_dir / "truth.wkt"),
        "--truth", str(small_scene_dir / "truth.wkt"),
    ]
    assert main(argv + ["--out", str(report_path)]) == 0
    # Without --out the same report goes to stdout.
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == report_path.read_text()
    report = json.loads(report_path.read_text())
    assert set(report["aggregate"]) == {"iou", "cp", "cr", "edc", "dare"}
    assert report["aggregate"]["iou"] == 100.0
    assert report["aggregate"]["edc"] == 0.0
    assert report["unmatched"] == {"extracted": [], "truth": []}


@pytest.mark.parametrize("flag", ["--cell-size", "--distance-scale"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "-inf"])
def test_evaluate_rejects_non_positive_or_non_finite_scale(scene_dir, tmp_path, capsys, flag, value):
    # A zero, infinite or NaN cell size used to crash with [internal] or
    # [metrics]; a bad distance scale used to print NaN or Infinity, which
    # is not JSON, or a negative EDC.
    out = tmp_path / "report.json"
    truth = str(scene_dir / "truth.wkt")
    rc = main(["evaluate", "--extracted", truth, "--truth", truth, f"{flag}={value}", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: [config] {flag} must be " in err and f", got {float(value)!r}" in err
    assert not out.exists()


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


def test_evaluate_pairing_index_pairs_by_position(tmp_path):
    # Truth squares A, B, C; extracted [A, C]. Index pairing takes (0, 0) and
    # (1, 1), so C meets B; centroid pairing would take (1, 2).
    square = np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])
    squares = [square + (20 * k, 0) for k in range(3)]
    truth = tmp_path / "truth.wkt"
    truth.write_text("".join(polygon_to_wkt(p) + "\n" for p in squares), encoding="utf-8")
    extracted = tmp_path / "extracted.wkt"
    extracted.write_text("".join(polygon_to_wkt(squares[k]) + "\n" for k in (0, 2)), encoding="utf-8")
    reports = {}
    for pairing in ("index", "centroid"):
        out = tmp_path / f"{pairing}.json"
        argv = ["evaluate", "--extracted", str(extracted), "--truth", str(truth), "--out", str(out)]
        assert main(argv + ["--pairing", pairing]) == 0
        reports[pairing] = json.loads(out.read_text())
    by_index = reports["index"]
    assert [b["id"] for b in by_index["per_building"]] == [0, 1]
    assert [b["iou"] for b in by_index["per_building"]] == [100.0, 0.0]
    assert by_index["unmatched"] == {"extracted": [], "truth": [2]}
    assert [b["iou"] for b in reports["centroid"]["per_building"]] == [100.0, 100.0]
    assert reports["centroid"]["unmatched"]["truth"] == [1]


# ---------------------------------------------------------------------------
# fit-transform


def test_fit_transform_round_trip(tmp_path, capsys):
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
    # Without --out the same line goes to stdout.
    capsys.readouterr()
    assert main(["fit-transform", "--pairs", str(pairs)]) == 0
    assert capsys.readouterr().out == out.read_text()
    fitted = AffineTransform2D.from_line(out.read_text())
    assert fitted.a == pytest.approx(truth.a, abs=1e-9)
    assert fitted.tx == pytest.approx(truth.tx, abs=1e-7)


def test_fit_transform_collinear_exits_2(tmp_path):
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("0 0 0 0\n1 1 1 1\n2 2 2 2\n", encoding="utf-8")
    assert main(["fit-transform", "--pairs", str(pairs)]) == 2


# ---------------------------------------------------------------------------
# scipy is a test oracle only


def test_cli_import_loads_no_scipy():
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import buildsnake.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_synth_and_extract_basic_run_without_scipy(small_scene_dir, tmp_path):
    scene, out = tmp_path / "scene", tmp_path / "out"
    synth = ["synth", "--spec", str(small_scene_dir / "spec.json"), "--outdir", str(scene)]
    extract = [
        "extract", "--mode", "basic",
        "--image", str(scene / "scene.pgm"),
        "--cloud", str(scene / "cloud.xyz"),
        "--transform", str(scene / "transform.txt"),
        "--outdir", str(out),
    ]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None  # every scipy import now raises ImportError\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "from buildsnake.cli import main\n"
        f"sys.exit(main({synth!r}) or main({extract!r}))\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert len(read_wkts(out / "footprints.wkt")) == 2


@pytest.mark.parametrize("mode", ["basic", "gvf", "proposed"])
def test_extract_on_preset_does_not_import_numpy_ma(tmp_path, mode):
    # np.unique imports numpy.ma on its first call; the extract path avoids it in every mode.
    scene = tmp_path / "scene"
    assert main(["synth", "--preset", "quebec-like", "--outdir", str(scene)]) == 0
    extract = [
        "extract", "--mode", mode,
        "--image", str(scene / "scene.pgm"),
        "--cloud", str(scene / "cloud.xyz"),
        "--transform", str(scene / "transform.txt"),
        "--outdir", str(tmp_path / "out"),
    ]
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); from buildsnake.cli import main; "
        f"assert main({extract!r}) == 0; print('numpy.ma' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
