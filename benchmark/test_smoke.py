"""Smoke test of the benchmark runner on a tiny scene.

    python3 -m pytest benchmark/test_smoke.py

Run from the repository root, which the worker processes take as theirs.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import scenes  # noqa: E402
from buildsnake import synthetic  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_scene(directory: Path, mode: str) -> tuple[Path, dict]:
    """Four 12 m x 9 m rectangles on a 256 x 256 px canvas."""
    rects = [[(x, y), (x + 12.0, y), (x + 12.0, y + 9.0), (x, y + 9.0)] for x in (3.0, 21.0) for y in (3.0, 21.0)]
    spec = synthetic.SceneSpec(
        size=(256, 256),
        resolution=0.15,
        buildings=[synthetic.BuildingSpec("rect", r, 180.0, 6.0) for r in rects],
        noise_sigma=5.0,
        lidar_density=2.0,
        seed=3,
    )
    scene = directory / "scene"
    facts = scenes.write_scene(spec, scene) | {"mode": mode}
    (scene / "facts.json").write_text(json.dumps(facts), encoding="utf-8")
    return scene, facts


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


@pytest.fixture
def bench_run(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    return run.Run(tmp_path)


def test_end_to_end_emits_every_metric(bench_run):
    scene, facts = tiny_scene(bench_run.work, "proposed")
    metrics, details = run.end_to_end(bench_run, scene, facts, seconds=0)
    assert {k: v["unit"] for k, v in metrics.items()} == declared("end_to_end")
    assert details["correct"] and details["byte_identical_repeats"]
    assert bench_run.attempted == run.MIN_SAMPLES and bench_run.failed == 0
    assert details["fail_ratio"] == 0.0 and metrics["mean_iou_pct"]["value"] > 80.0


def test_per_layer_emits_every_metric(bench_run):
    scene, facts = tiny_scene(bench_run.work, "proposed")
    metrics, details = run.per_layer(bench_run, scene, facts, fan=(scene, facts))
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    assert details["correct"] and details["traced_matches_untraced"]
    assert metrics["snake.shape_force_calls"]["value"] == metrics["snake.iters"]["value"] > 0
    assert metrics["energy.gvf_iters"]["value"] > 0


def test_fail_ratio_counts_a_run_that_exits_nonzero(bench_run):
    # An unknown mode is rejected by the config check: extract exits 2.
    scene, facts = tiny_scene(bench_run.work, "no-such-mode")
    metrics, details = run.end_to_end(bench_run, scene, facts, seconds=0)
    assert details["exits"] == [2] * run.MIN_SAMPLES
    assert bench_run.failed == bench_run.attempted == run.MIN_SAMPLES
    assert details["fail_ratio"] == 1.0 and not details["correct"]
    assert metrics["mean_iou_pct"]["value"] == 0.0


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(48)]) == (37.0, 100.0 * 38 / 48)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "tiled-basic"]) == 2
    assert capsys.readouterr().out == ""
