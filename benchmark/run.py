"""Extract benchmark: end-to-end and per-layer metrics of `buildsnake extract`.

    python3 benchmark/run.py --workload preset-proposed --seed 7 --seconds 20 --trace 0

Run from the repository root. The scene comes from the seed; each extract
runs in a fresh child process (benchmark/worker.py) through the public
`buildsnake.cli.main(["extract", ...])` with the shipped defaults except
`mode` and `workers: 1`. The last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Earlier lines carry the
details (samples, sample counts, footprint sha256, scene facts).

The end-to-end extract time is reported as `extract_cal`: the extract's wall
time over the time of a fixed calibration kernel run in the same process,
which cancels most of the host's speed drift (see benchmark/README.md).

This process imports nothing from numpy or buildsnake: children inherit its
resident set across exec, and it must stay below their own peak.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("preset-proposed", "sparse-gvf", "tiled-basic")  # built by scenes.WORKLOADS
FANOUT_WORKLOAD = "preset-proposed"
MIN_SAMPLES = 3  # extracts per untraced run, even past --seconds
MIN_SETUP_SAMPLES = 9  # every worker's start counts, scene and score too
# A run is correct only if at least half the truth buildings are found.
MAX_FAIL_RATIO = 0.5
MIN_SNAKE_SPANS = 11  # traced repeats give at least this many snake runs
# Modelled whole-array passes per GVF iteration, counted from compute_gvf's
# numpy expressions for one component (pad 2, laplacian 14, reaction 11,
# update 5, residual max 3), times the two components u and v.
GVF_ARRAY_PASSES = 2 * 35
FLOAT_BYTES = 8
CHILD_TIMEOUT_S = 170
IMPORT_RE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*)$")
# Modules whose cumulative import time is reported; scipy.stats is pulled in
# by polygonize for trim_mean alone.
IMPORT_MODULES = (
    "buildsnake", "buildsnake.config", "buildsnake.geometry", "buildsnake.raster",
    "buildsnake.energy", "buildsnake.lidar", "buildsnake.transform", "buildsnake.polygonize",
    "buildsnake.snake", "buildsnake.synthetic", "buildsnake.metrics", "buildsnake.cli",
    "scipy.stats",
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Run:
    """One benchmark run: a scene directory and the child processes on it."""

    def __init__(self, work: Path, timeout: float = CHILD_TIMEOUT_S):
        self.work = work
        self.deadline = time.perf_counter() + timeout
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []  # seconds from spawn to 'ready', every worker

    def spawn(self, *args: str) -> dict:
        """Run one worker job and return its result."""
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, text=True) as proc:
            timer = threading.Timer(max(1.0, self.deadline - time.perf_counter()), proc.kill)
            timer.start()
            try:
                first = proc.stdout.readline()
                ready = time.perf_counter() - start
                lines = proc.stdout.read().strip().splitlines()
                proc.wait()
            finally:
                timer.cancel()
        if first.strip() != "ready" or proc.returncode != 0 or not lines:
            raise BenchError(f"worker {args[0]} failed with exit code {proc.returncode}")
        self.setups.append(ready)
        return json.loads(lines[-1])

    def scene(self, workload: str, seed: int) -> tuple[Path, dict]:
        scene = self.work / f"{workload}-scene"
        facts = self.spawn("scene", "--workload", workload, "--seed", str(seed), "--dir", str(scene))
        (scene / "facts.json").write_text(json.dumps(facts), encoding="utf-8")
        return scene, facts

    def config(self, name: str, settings: dict) -> Path:
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(settings), encoding="utf-8")
        return path

    def extract(self, scene: Path, config: Path, out: Path) -> dict:
        """One untraced extract in a fresh process; adds the footprints."""
        result = self.spawn("extract", "--dir", str(scene), "--config", str(config), "--out", str(out))
        self.attempted += 1
        self.failed += result["exit"] != 0
        result["wkt"] = (out / "footprints.wkt").read_bytes() if result["exit"] == 0 else None
        return result

    def score(self, scene: Path, out: Path) -> dict:
        return self.spawn("score", "--dir", str(scene), "--out", str(out))

    def import_times(self) -> dict:
        """Cumulative import seconds per module from `python -X importtime`."""
        code = "import sys; sys.path.insert(0, 'src'); import buildsnake.cli"
        try:
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", code],
                capture_output=True, text=True, timeout=max(1.0, self.deadline - time.perf_counter()),
            )
        except subprocess.TimeoutExpired:
            raise BenchError("importing buildsnake.cli timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"importing buildsnake.cli failed: {proc.stderr.strip()[-200:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            m = IMPORT_RE.match(line)
            if m:
                cumulative[m.group(3).strip()] = int(m.group(2)) / 1e6
        return {f"import.{name}_s": metric(cumulative.get(name, 0.0), "s") for name in IMPORT_MODULES}


def accuracy(score: dict | None, truth: int, runs: int, failed_runs: int) -> dict:
    """Accuracy of `runs` extracts of one scene, `failed_runs` of them exiting non-zero.

    A failed run misses every truth building. `score` is the worker's score
    of the successful runs' (identical) footprints, or None if none succeeded.
    """
    missed = truth * failed_runs + (score["missed"] * (runs - failed_runs) if score else 0)
    ious = score["ious"] if score else []
    return {
        # Over truth buildings: one with no footprint counts as IoU 0.
        "mean_iou_pct": sum(ious) / truth,
        "scene_iou_pct": score["scene_iou"] if score else 0.0,
        "min_iou_pct": min(ious) if len(ious) == truth else 0.0,
        "fail_ratio": missed / (truth * runs),
        "spurious_ratio": score["spurious"] / score["extracted"] if score and score["extracted"] else 0.0,
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def end_to_end(run: Run, scene: Path, facts: dict, seconds: float) -> tuple[dict, dict]:
    """Untraced extracts for `seconds`: end-to-end metrics and details."""
    config = run.config("config", {"mode": facts["mode"], "workers": 1})
    samples = []
    start = time.perf_counter()
    last = 0.0
    while len(samples) < MIN_SAMPLES or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        samples.append(run.extract(scene, config, run.work / f"out{len(samples)}"))
        last = time.perf_counter() - t0
    outputs = {s["wkt"] for s in samples if s["wkt"] is not None}
    ok = [i for i, s in enumerate(samples) if s["wkt"] is not None]
    score = run.score(scene, run.work / f"out{ok[0]}") if ok else None
    while len(run.setups) < MIN_SETUP_SAMPLES:
        run.spawn("import")
    acc = accuracy(score, facts["buildings"], len(samples), len(samples) - len(ok))
    extract_s = [s["extract_s"] for s in samples]
    metrics = {
        "extract_cal": metric(statistics.median(s["extract_s"] / s["calibration_s"] for s in samples), "cal"),
        "setup_s": metric(statistics.median(run.setups), "s"),
        "peak_rss_mb": metric(statistics.median(s["peak_rss_mb"] for s in samples), "MB"),
        "mean_iou_pct": metric(acc["mean_iou_pct"], "%"),
        "scene_iou_pct": metric(acc["scene_iou_pct"], "%"),
    }
    details = {
        "correct": len(ok) == len(samples) and len(outputs) == 1 and acc["fail_ratio"] <= MAX_FAIL_RATIO,
        "extract_s": statistics.median(extract_s),
        "extract_s_samples": extract_s,
        "calibration_s_samples": [s["calibration_s"] for s in samples],
        "setup_s_samples": run.setups,
        "peak_rss_mb_samples": [s["peak_rss_mb"] for s in samples],
        "exits": [s["exit"] for s in samples],
        "footprints_sha256": sorted(sha256(o) for o in outputs),
        "byte_identical_repeats": len(outputs) == 1,
        **{k: acc[k] for k in ("min_iou_pct", "fail_ratio", "spurious_ratio")},
        "score": score,
    }
    return metrics, details


def tail(values: list[float]) -> tuple[float, float]:
    """The sample with ten samples beyond it, and its percentile rank.

    With ten samples or fewer no such sample exists; the maximum is returned
    with rank 100.
    """
    ordered = sorted(values)
    i = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def layer_metrics(traced: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from traced extracts of one scene, and details.

    Self times are medians over the extracts; snake runs are pooled over
    buildings x extracts; counts come from the first extract.
    """
    def self_s(layer: str) -> float:
        return statistics.median(t["self_s"][layer] for t in traced)

    counts = traced[0]["counts"]
    runs = [r for t in traced for r in t["runs"]]
    run_s = [r[0] for r in runs]
    run_tail, tail_pct = tail(run_s)
    pixels, gvf_iters, gvf_s = counts["energy.pixels"], counts["energy.gvf_iters"], self_s("energy.gvf")
    values = {
        "lidar.parse_s": (self_s("lidar.parse"), "s"),
        "lidar.points": (counts["lidar.points"], "count"),
        "raster.load_s": (self_s("raster.load"), "s"),
        "lidar.segment_s": (self_s("lidar.segment"), "s"),
        "lidar.segments": (counts["lidar.segments"], "count"),
        "energy.image_energy_s": (self_s("energy.image_energy"), "s"),
        "energy.pixels": (pixels, "count"),
        "energy.gvf_s": (gvf_s, "s"),
        "energy.gvf_iters": (gvf_iters, "count"),
        "energy.gvf_residual": (traced[0]["gvf_residual"], "max-abs"),
        "energy.gvf_mpx_iters_per_s": (pixels * gvf_iters / 1e6 / gvf_s if gvf_s > 0 else 0.0, "Mpx/s"),
        "energy.gvf_bytes_computed": (gvf_iters * pixels * GVF_ARRAY_PASSES * FLOAT_BYTES, "B"),
        "snake.prepare_s": (self_s("snake.prepare"), "s"),
        "snake.shape_force_s": (self_s("snake.shape_force"), "s"),
        "snake.shape_force_calls": (counts["snake.shape_force_calls"], "count"),
        "snake.run_s.p50": (statistics.median(run_s), "s"),
        "snake.run_s.tail": (run_tail, "s"),
        "snake.iters": (sum(r[1] for r in traced[0]["runs"]), "count"),
        "snake.converged_ratio": (sum(r[2] for r in runs) / len(runs), "ratio"),
        "snake.sample_force_s": (self_s("snake.sample_force"), "s"),
        "snake.evolve_s": (self_s("snake.evolve"), "s"),
        "snake.self_s": (self_s("snake.run"), "s"),
        "polygonize.mbr_s": (self_s("polygonize.mbr"), "s"),
        "polygonize.fit_s": (self_s("polygonize.fit"), "s"),
        "polygonize.fallbacks": (counts["polygonize.fallbacks"], "count"),
        "cli.self_s": (self_s("cli"), "s"),
    }
    details = {"snake_runs": len(runs), "snake_run_s_tail_pct": tail_pct}
    return {name: metric(value, unit) for name, (value, unit) in values.items()}, details


def per_layer(run: Run, scene: Path, facts: dict, fan: tuple[Path, dict]) -> tuple[dict, dict]:
    """One untraced and repeated traced extracts, each in a fresh process, one
    extract of the `fan` (scene, facts) with `workers` unset, and import times."""
    config = run.config("config", {"mode": facts["mode"], "workers": 1})
    repeats = -(-MIN_SNAKE_SPANS // max(1, facts["buildings"]))
    untraced = run.extract(scene, config, run.work / "untraced")
    traced = []
    for k in range(repeats):
        out = run.work / f"traced{k}"
        result = run.spawn("trace", "--dir", str(scene), "--config", str(config), "--out", str(out))
        run.attempted += 1
        run.failed += result["exit"] != 0
        result["wkt"] = (out / "footprints.wkt").read_bytes() if result["exit"] == 0 else None
        traced.append(result)
    if any(r["wkt"] is None for r in [untraced, *traced]):
        raise BenchError(f"extract failed: exit codes {[r['exit'] for r in [untraced, *traced]]}")
    outputs = {r["wkt"] for r in [untraced, *traced]}

    fan_config = run.config("fanout", {"mode": fan[1]["mode"]})
    fanout = run.extract(fan[0], fan_config, run.work / "fanout")

    score = run.score(scene, run.work / "untraced")
    acc = accuracy(score, facts["buildings"], 1, 0)
    traced_s = statistics.median(r["extract_s"] for r in traced)
    untraced_s = untraced["extract_s"]
    layers, layer_details = layer_metrics(traced)
    metrics = {
        **layers,
        "polygonize.level_ok_ratio": metric(score["level_ok"] / len(score["pairs"]) if score["pairs"] else 0.0, "ratio"),
        "score.min_iou_pct": metric(acc["min_iou_pct"], "%"),
        "score.fail_ratio": metric(acc["fail_ratio"], "ratio"),
        "score.spurious_ratio": metric(acc["spurious_ratio"], "ratio"),
        "cli.fanout_extract_s": metric(fanout["extract_s"], "s"),
        "trace.untraced_extract_s": metric(untraced_s, "s"),
        "trace.traced_extract_s": metric(traced_s, "s"),
        "trace.overhead_s": metric(traced_s - untraced_s, "s"),
        "trace.calibration_s": metric(untraced["calibration_s"], "s"),
        **run.import_times(),
    }
    details = {
        "correct": len(outputs) == 1 and fanout["exit"] == 0 and acc["fail_ratio"] <= MAX_FAIL_RATIO,
        "traced_matches_untraced": len(outputs) == 1,
        "repeats": repeats,
        **layer_details,
        "traced_extract_s_samples": [r["extract_s"] for r in traced],
        "fanout_exit": fanout["exit"],
        "footprints_sha256": sorted(sha256(w) for w in outputs),
        "score": score,
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "buildsnake" / "cli.py").is_file():
        print("error: run from the repository root; src/buildsnake/cli.py not found", file=sys.stderr)
        return 2
    work = root / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(work)
    try:
        scene, facts = run.scene(args.workload, args.seed)
        if args.trace:
            fan = (scene, facts) if args.workload == FANOUT_WORKLOAD else run.scene(FANOUT_WORKLOAD, args.seed)
            metrics, details = per_layer(run, scene, facts, fan)
        else:
            metrics, details = end_to_end(run, scene, facts, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    facts = {k: facts[k] for k in ("pixels", "points", "buildings", "mode")}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "scene": facts, **details}))
    print(json.dumps({
        "correct": details["correct"],
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
