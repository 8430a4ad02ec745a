"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s / -rA) and
asserts the same condition.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from buildsnake.cli import extract_buildings, main
from buildsnake.config import SnakeConfig
from buildsnake.energy import compute_gvf, gvf_residual, image_energy
from buildsnake.geometry import (
    convex_hull,
    hausdorff_distance,
    min_area_rect,
    rotate_points,
)
from buildsnake.metrics import completeness, confusion_counts, correctness, iou
from buildsnake.polygonize import building_mbr, fit_rectilinear
from buildsnake.raster import connected_components, gaussian_smooth
from buildsnake.snake import (
    evolve_step,
    shape_force,
    shape_sim_energy,
    system_inverse,
)

from conftest import match_truth, pixel_iou
from test_geometry import hausdorff_oracle, mbr_area_sweep
from test_polygonize import L_SHAPE, angle_error_mod90, noisy_outline
from test_raster import flood_fill_count
from test_snake import reference_system_matrix


@pytest.fixture
def report(capsys):
    """One always-visible PASS/FAIL line per criterion."""

    def _report(num: int, name: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {num} ({name}): {status} {detail}", flush=True)
        assert ok, f"criterion {num} ({name}) failed: {detail}"

    return _report


def mode_ious(results, truth):
    vals = []
    for r in results:
        k = match_truth(r.footprint, truth)
        vals.append(pixel_iou(r.footprint, truth[k]))
    return np.asarray(vals)


def test_criterion_1_pipeline_accuracy(quebec_scene, report):
    _, img, cloud, truth, t = quebec_scene
    start = time.perf_counter()
    results = extract_buildings(img, cloud, t, SnakeConfig(mode="proposed"))
    elapsed = time.perf_counter() - start
    ious = mode_ious(results, truth)
    ok = (
        len(results) == 5
        and ious.mean() >= 90.0
        and ious.min() >= 75.0
        and elapsed <= 60.0
    )
    report(
        1,
        "synthetic pipeline accuracy",
        ok,
        f"mean={ious.mean():.2f}% min={ious.min():.2f}% runtime={elapsed:.1f}s",
    )


def test_criterion_2_mode_ordering(mode_results, quebec_scene, report):
    _, _, _, truth, _ = quebec_scene
    means = {m: mode_ious(res, truth).mean() for m, res in mode_results.items()}
    ok = means["proposed"] > means["gvf"] > means["basic"]
    report(
        2,
        "mode ordering",
        ok,
        f"proposed={means['proposed']:.2f} > gvf={means['gvf']:.2f} > basic={means['basic']:.2f}",
    )


def test_criterion_3_orientation(report):
    theta = 23.0
    outline = noisy_outline(L_SHAPE, 180, noise=1.0, seed=4)
    snake = rotate_points(outline, theta)
    # LiDAR boundary: hull of a noisy sampling of the footprint outline.
    lidar = convex_hull(rotate_points(noisy_outline(L_SHAPE, 80, noise=0.3, seed=8), theta))
    good = fit_rectilinear(snake, building_mbr(lidar))
    err_lidar = angle_error_mod90(good.orientation_deg, theta)

    sheared = noisy_outline(L_SHAPE, 180, noise=0.3, seed=3) @ np.array([[1.0, 0.12], [0.0, 1.0]])
    adversarial = rotate_points(sheared, theta)
    bad = fit_rectilinear(adversarial, building_mbr(adversarial))
    err_snake = angle_error_mod90(bad.orientation_deg, theta)

    ok = err_lidar <= 1.0 and err_snake >= 2.0
    report(
        3,
        "orientation",
        ok,
        f"lidar-mbr err={err_lidar:.2f} deg, snake-mbr err={err_snake:.2f} deg",
    )


def test_criterion_4_gvf_correctness(report):
    # Fixture 1: strong blurred step (also checked against grad f).
    step = np.zeros((48, 48))
    step[:, 24:] = 40.0
    f1 = gaussian_smooth(step, 3.0)

    # Fixture 2: strong blurred quadrant corner.
    quad = np.full((48, 48), 0.0)
    quad[24:, 24:] = 35.0
    f2 = gaussian_smooth(quad, 2.5)

    # Fixture 3: bright disk through the image-energy path.
    yy, xx = np.mgrid[0:48, 0:48]
    disk_img = (np.hypot(xx - 24, yy - 24) <= 10).astype(float) * 100.0
    e3 = image_energy(disk_img, sigma=2.0)

    oks, details = [], []
    for name, e_img in (("step", -f1), ("corner", -f2), ("disk", e3)):
        field = compute_gvf(e_img, mu=0.2, iters=60_000)
        fy, fx = np.gradient(-e_img)
        g = fx * fx + fy * fy
        resid = gvf_residual(field, e_img)
        oks.append(resid <= 1e-3 * g.max())
        details.append(f"{name}: {resid:.2e}<={1e-3 * g.max():.2e}")
        if name == "step":
            mag = np.hypot(fx, fy)
            strong = mag >= 0.5 * mag.max()
            rel = np.hypot(field.u - fx, field.v - fy)[strong] / mag[strong]
            oks.append(rel.max() <= 0.05)
            details.append(f"step match {rel.max() * 100:.2f}%<=5%")
    report(4, "GVF correctness", all(oks), "; ".join(details))


def test_criterion_5_oracle_equivalence(report):
    rng = np.random.default_rng(17)
    hausdorff_exact = all(
        hausdorff_distance(a, b) == hausdorff_oracle(a, b)
        for a, b in (
            (rng.uniform(-20, 20, (rng.integers(3, 25), 2)),
             rng.uniform(-20, 20, (rng.integers(3, 25), 2)))
            for _ in range(200)
        )
    )

    mbr_ok = True
    worst = 0.0
    for _ in range(50):
        pts = rng.normal(0, 8, (rng.integers(5, 40), 2))
        hull = convex_hull(pts)
        area = min_area_rect(hull).area
        sweep = mbr_area_sweep(hull, step_deg=0.01)
        rel = abs(area - sweep) / sweep
        worst = max(worst, rel)
        mbr_ok &= rel <= 0.005

    cc_ok = True
    for _ in range(100):
        cells = rng.uniform(size=(32, 32)) < rng.uniform(0.3, 0.6)
        conn = int(rng.choice([4, 8]))
        _, n = connected_components(cells, conn)
        cc_ok &= n == flood_fill_count(cells, conn)

    ok = hausdorff_exact and mbr_ok and cc_ok
    report(
        5,
        "oracle equivalence",
        ok,
        f"hausdorff exact={hausdorff_exact}, mbr worst rel={worst:.2e}, cc={cc_ok}",
    )


def test_criterion_6_metric_identities(report):
    rng = np.random.default_rng(23)
    identity_ok = True
    checked = 0
    while checked < 1000:
        tp, fp, fn = (int(v) for v in rng.integers(0, 500, 3))
        if tp + fp + fn == 0 or tp + fn == 0 or tp + fp == 0:
            continue
        checked += 1
        identity_ok &= iou(tp, fp, fn) <= min(completeness(tp, fn), correctness(tp, fp)) + 1e-12

    from buildsnake.geometry import GridSpec

    e = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    r = np.array([[0.5, 0], [1.5, 0], [1.5, 1], [0.5, 1]], dtype=float)
    grid = GridSpec((-0.25, -0.25), 0.05, 40, 30)
    tp, fp, fn = confusion_counts(e, r, grid)
    pix = iou(tp, fp, fn)
    overlap_ok = abs(pix - 100.0 / 3.0) <= 1.0
    report(
        6,
        "metric identities",
        identity_ok and overlap_ok,
        f"identities on {checked} triples, rect-pair IoU={pix:.3f}% vs 33.333%",
    )


def test_criterion_7_determinism(scene_dir, tmp_path, report):
    runs = [tmp_path / "first", tmp_path / "second"]
    for out in runs:
        rc = main(
            [
                "extract",
                "--image", str(scene_dir / "scene.pgm"),
                "--cloud", str(scene_dir / "cloud.xyz"),
                "--transform", str(scene_dir / "transform.txt"),
                "--outdir", str(out),
            ]
        )
        assert rc == 0
    runs.append(tmp_path / "rerun")
    rc = main(["extract", "--config", str(runs[0] / "run.json"), "--outdir", str(runs[2])])
    assert rc == 0
    same = all(
        (runs[0] / name).read_bytes() == (out / name).read_bytes()
        for out in runs[1:]
        for name in ("footprints.wkt", "buildings.json")
    )
    report(7, "determinism", same, "byte-identical WKT and JSON over two runs and a run.json replay")


def test_criterion_8_solver_numerics(report):
    rng = np.random.default_rng(29)
    cfg = SnakeConfig(alpha=0.01, beta=0.01, gamma=1.0)
    n = 64
    th = np.linspace(0, 2 * np.pi, n, endpoint=False)
    contour = np.column_stack([32 + 20 * np.cos(th), 32 + 20 * np.sin(th)])
    force = rng.normal(0, 1.0, (n, 2))
    new = evolve_step(contour, force, cfg, system_inverse(n, cfg.alpha, cfg.beta, cfg.gamma))
    m = reference_system_matrix(n, cfg.alpha, cfg.beta, cfg.gamma)
    resid = float(np.abs(m @ new - (cfg.gamma * contour + force)).max())
    solve_ok = resid <= 1e-8

    ref = contour
    snake = ref.copy()
    snake[10] += np.array([5.5, 2.0])
    f = shape_force(snake, ref, 50.0)
    i = int(np.argmax(np.hypot(f[:, 0], f[:, 1])))
    direction = f[i] / np.linalg.norm(f[i])
    h = 0.1
    plus, minus = snake.copy(), snake.copy()
    plus[i] += h * direction
    minus[i] -= h * direction
    directional = -(
        shape_sim_energy(plus, ref, 50.0) - shape_sim_energy(minus, ref, 50.0)
    ) / (2 * h)
    force_ok = abs(directional - np.linalg.norm(f[i])) <= 0.05 * abs(directional)

    r = math.sqrt(50.0)
    th8 = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    ring = np.column_stack([r * np.cos(th8), r * np.sin(th8)])
    e = shape_sim_energy(ring, np.array([[0.0, 0.0]]), 50.0)
    energy_ok = abs(e - (1.0 - math.exp(-1.0))) <= 1e-12

    report(
        8,
        "solver numerics",
        solve_ok and force_ok and energy_ok,
        f"system resid={resid:.1e}, force FD agreement, E(d^2=delta) err={abs(e - (1 - math.exp(-1))):.1e}",
    )
