"""Child process of the extract benchmark; one job per process.

    python3 benchmark/worker.py scene   --workload W --seed N --dir D
    python3 benchmark/worker.py import
    python3 benchmark/worker.py extract --dir D --config C --out O
    python3 benchmark/worker.py trace   --dir D --config C --out O
    python3 benchmark/worker.py score   --dir D --out O

Run from the repository root; `src/` is put first on the import path. Every
job first imports `buildsnake.cli` and prints `ready`, so the parent times a
fresh interpreter's set-up up to that line. The job's result is the last
stdout line, as JSON.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import buildsnake.cli  # noqa: E402  (set-up cost, timed by the parent)
import numpy as np  # noqa: E402  (already imported by buildsnake)

print("ready", flush=True)


def extract_argv(scene: Path, config: Path, out: Path) -> list[str]:
    return [
        "extract",
        "--image", str(scene / "scene.pgm"),
        "--cloud", str(scene / "cloud.xyz"),
        "--transform", str(scene / "transform.txt"),
        "--config", str(config),
        "--outdir", str(out),
    ]


def job_scene(args) -> dict:
    import scenes

    build, mode = scenes.WORKLOADS[args.workload]
    return scenes.write_scene(build(args.seed), Path(args.dir)) | {"mode": mode}


def calibrate() -> float:
    """Seconds for a fixed numpy workload shaped like the extract's hot loops.

    A 5-point stencil swept over a 512x512 image (the GVF solve) and bilinear
    sampling of 200 points (the snake force). Timed in the extract's process
    just before and after it, it gauges how fast the host runs meanwhile. It
    uses no buildsnake code.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    img = rng.random((512, 512))
    for _ in range(100):
        p = np.pad(img, 1, mode="edge")
        img = img + 0.1 * (p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * img)
    pts = rng.random((200, 2)) * 510.0
    for _ in range(1000):
        x0, y0 = pts.astype(int).T
        fx, fy = pts[:, 0] - x0, pts[:, 1] - y0
        v = img[y0, x0] * (1 - fx) * (1 - fy) + img[y0 + 1, x0 + 1] * fx * fy
        pts = np.clip(pts + 0.01 * v[:, None], 0.0, 510.0)
    return time.perf_counter() - start


def job_extract(args) -> dict:
    argv = extract_argv(Path(args.dir), Path(args.config), Path(args.out))
    before = calibrate()
    start = time.perf_counter()
    code = buildsnake.cli.main(argv)
    elapsed = time.perf_counter() - start
    # ru_maxrss is in KiB on Linux; the parent stays small, so the value
    # inherited across exec never exceeds this process's own peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "exit": code,
        "extract_s": elapsed,
        "calibration_s": (before + calibrate()) / 2.0,
        "peak_rss_mb": peak_rss_mb,
    }


def job_trace(args) -> dict:
    import tracing

    config = Path(args.config)
    cfg = buildsnake.cli.SnakeConfig.from_dict(json.loads(config.read_text(encoding="utf-8")))
    return tracing.traced_extract(extract_argv(Path(args.dir), config, Path(args.out)), cfg)


def job_score(args) -> dict:
    import scenes
    import scoring

    scene, out = Path(args.dir), Path(args.out)
    facts = json.loads((scene / "facts.json").read_text(encoding="utf-8"))
    extracted = scoring.read_wkt((out / "footprints.wkt").read_text(encoding="utf-8"))
    truth = scoring.read_wkt((scene / "truth.wkt").read_text(encoding="utf-8"))
    result = scoring.score(extracted, truth, tuple(facts["size"]))
    levels = [b["shape_level"] for b in json.loads((out / "buildings.json").read_text(encoding="utf-8"))]
    expected = [scenes.EXPECTED_LEVEL[s] for s in facts["shapes"]]
    result["level_ok"] = sum(levels[i] == expected[j] for i, j in result["pairs"])
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("job", choices=("scene", "import", "extract", "trace", "score"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--dir")
    parser.add_argument("--config")
    parser.add_argument("--out")
    args = parser.parse_args()
    jobs = {"scene": job_scene, "extract": job_extract, "trace": job_trace, "score": job_score}
    result = jobs[args.job](args) if args.job in jobs else {}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
