"""Command-line pipeline: synth, extract, evaluate, fit-transform."""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import lidar, metrics, raster, synthetic
from .config import MODES, SnakeConfig, as_number
from .geometry import polygon_to_wkt, wkt_to_polygon
from .polygonize import building_mbr, fit_rectilinear
from .snake import force_magnitude, prepare_fields, run_snake
from .transform import AffineTransform2D, fit_least_squares

EXIT_OK = 0
EXIT_PIPELINE = 1
EXIT_CONFIG = 2


class ConfigError(Exception):
    """Bad usage, unreadable inputs, or invalid parameter values."""


class StageError(Exception):
    """A pipeline stage failed on valid-looking inputs."""


IO_KEYS = ("image", "cloud", "transform", "outdir", "truth")


@dataclass
class ExtractedBuilding:
    building_id: int
    init_pixels: np.ndarray
    snake: np.ndarray
    footprint: np.ndarray
    shape_level: str
    orientation_deg: float


def extract_buildings(
    gray: np.ndarray,
    cloud: lidar.PointCloud3D,
    t: AffineTransform2D,
    cfg: SnakeConfig,
    debug: dict | None = None,
) -> list[ExtractedBuilding]:
    """Run the full LiDAR -> snake -> polygonize pipeline on one scene."""
    try:
        hulls, cells, labels = lidar.extract_boundaries(
            cloud,
            density=cfg.density,
            ground_class=cfg.ground_class,
            opening_radius=cfg.opening_radius,
            min_area_m2=cfg.min_segment_area_m2,
            connectivity=cfg.connectivity,
        )
    except ValueError as exc:
        raise StageError(f"[lidar] {exc}") from exc
    if debug is not None and cells is not None:
        debug["binary_grid"] = cells
        debug["labels"] = labels
    if not hulls:
        return []

    results = []
    h, w = gray.shape
    try:
        force = prepare_fields(gray, cfg)
        if debug is not None and cfg.mode != "basic":
            debug["gvf_magnitude"] = force_magnitude(force)
        for building_id, hull in hulls:
            init = t.apply(hull)
            if np.any(init.max(axis=0) < 0) or np.any(init.min(axis=0) > (w - 1, h - 1)):
                print(f"warning: building {building_id}: LiDAR segment lies outside the image, skipped",
                      file=sys.stderr)
                continue
            contour = run_snake(init, force, cfg)
            mbr = building_mbr(init)
            try:
                poly = fit_rectilinear(contour, mbr, sym_diff_tol=cfg.sym_diff_tol)
                footprint, level, orientation = poly.polygon, poly.shape_level, poly.orientation_deg
            except ValueError:
                # Collapsed snake (degenerate sliver segment): fall back to the
                # boundary MBR so one bad building does not abort the run.
                print(
                    f"warning: building {building_id}: snake degenerate, using boundary MBR",
                    file=sys.stderr,
                )
                footprint, level, orientation = mbr.corners(), "rectangle", mbr.angle_deg
            results.append(ExtractedBuilding(
                building_id=building_id, init_pixels=init, snake=contour,
                footprint=footprint, shape_level=level, orientation_deg=orientation,
            ))
    except ValueError as exc:
        raise StageError(f"[snake] {exc}") from exc
    return results


# ---------------------------------------------------------------------------
# Subcommand helpers


def _parse_file(path: str, stage: str, parse):
    """Return `parse(Path(path))`; a read or parse failure is a `[stage]` config error."""
    try:
        return parse(Path(path))
    except OSError as exc:
        raise ConfigError(f"[{stage}] cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ConfigError(f"[{stage}] {path}: {exc}") from exc


def _text(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _cloud(path: Path) -> lidar.PointCloud3D:
    with path.open(encoding="utf-8") as f:
        return lidar.parse_xyz(f)


def _gray(path: Path) -> np.ndarray:
    img = raster.load_pnm(path.read_bytes())
    return raster.rgb_to_gray(*img) if isinstance(img, tuple) else img


def _wkts(path: Path) -> list[np.ndarray]:
    return [wkt_to_polygon(line) for line in _text(path).splitlines() if line.strip()]


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _resolve_config(args) -> tuple[SnakeConfig, dict]:
    """Merge config file values with CLI flag overrides; a null input key counts as absent."""
    merged: dict = {}
    if args.config:
        merged = _parse_file(args.config, "config", lambda p: json.loads(_text(p)))
        if not isinstance(merged, dict):
            raise ConfigError(f"[config] {args.config} must hold a JSON object")
    for key in SnakeConfig.field_names() + IO_KEYS:
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
    for key in IO_KEYS:
        val = merged.get(key, "")
        if val is None:
            del merged[key]
        elif not isinstance(val, str):
            raise ConfigError(f"[config] {key} must be a path string, got {val!r}")
    try:
        cfg = SnakeConfig.from_dict({k: v for k, v in merged.items() if k not in IO_KEYS})
    except ValueError as exc:
        raise ConfigError(f"[config] {exc}") from exc
    return cfg, merged


def _write_svg(path: Path, size, results, truth=None):
    w, h = size
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">'
    ]

    def path_for(poly, color, dash=""):
        d = "M " + " L ".join(f"{p[0]:.3f} {p[1]:.3f}" for p in poly) + " Z"
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        return f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1"{extra}/>'

    for r in results:
        parts.append(path_for(r.init_pixels, "#e08020", dash="4 2"))
        parts.append(path_for(r.footprint, "#2060e0"))
    for poly in truth or []:
        parts.append(path_for(poly, "#20a040"))
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def cmd_extract(args) -> int:
    cfg, merged = _resolve_config(args)
    for key in ("image", "cloud", "transform"):
        if key not in merged:
            raise ConfigError(f"[config] missing required input: --{key}")
    gray = _parse_file(merged["image"], "image", _gray)
    cloud = _parse_file(merged["cloud"], "cloud", _cloud)
    t = _parse_file(merged["transform"], "transform", lambda p: AffineTransform2D.from_line(_text(p)))
    truth_polys = _parse_file(merged["truth"], "truth", _wkts) if merged.get("truth") else None
    # Made only once every input is read, so a bad input leaves no directory behind.
    outdir = Path(merged.get("outdir", "."))
    outdir.mkdir(parents=True, exist_ok=True)

    debug: dict | None = {} if args.debug_dir else None
    results = extract_buildings(gray, cloud, t, cfg, debug=debug)
    if not results:
        print("warning: no building segments extracted from the cloud", file=sys.stderr)

    run_config = {k: merged.get(k) for k in ("image", "cloud", "transform", "truth")}
    run_config["outdir"] = str(outdir)
    run_config.update(cfg.to_dict())
    (outdir / "run.json").write_text(_json_dump(run_config), encoding="utf-8")

    wkt_lines = [polygon_to_wkt(r.footprint) for r in results]
    (outdir / "footprints.wkt").write_text("".join(line + "\n" for line in wkt_lines), encoding="utf-8")
    buildings = [
        {
            "id": r.building_id,
            "shape_level": r.shape_level,
            "orientation_deg": round(r.orientation_deg, 6),
        }
        for r in results
    ]
    (outdir / "buildings.json").write_text(_json_dump(buildings), encoding="utf-8")

    if args.svg:
        _write_svg(outdir / "overlay.svg", (gray.shape[1], gray.shape[0]), results, truth_polys)

    if debug is not None:
        ddir = Path(args.debug_dir)
        ddir.mkdir(parents=True, exist_ok=True)
        for name, grid in debug.items():
            mx = grid.max()
            (ddir / f"{name}.pgm").write_bytes(raster.save_pgm(grid * (255.0 / mx if mx > 0 else 0.0)))
        for r in results:
            (ddir / f"snake_{r.building_id}.wkt").write_text(polygon_to_wkt(r.snake) + "\n", encoding="utf-8")
            (ddir / f"init_{r.building_id}.wkt").write_text(polygon_to_wkt(r.init_pixels) + "\n", encoding="utf-8")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    for flag, val in (("--cell-size", args.cell_size), ("--distance-scale", args.distance_scale)):
        try:
            as_number(flag, val, bound="> 0")
        except ValueError as exc:
            raise ConfigError(f"[config] {exc}") from exc
    extracted = _parse_file(args.extracted, "extracted", _wkts)
    truth = _parse_file(args.truth, "truth", _wkts)
    if args.pairing == "index":
        n = min(len(extracted), len(truth))
        matches = [(i, i) for i in range(n)]
    else:
        matches = metrics.pair_by_centroid(extracted, truth)
    pairs = [(i, extracted[i], truth[j]) for i, j in matches]
    try:
        report = metrics.evaluate_pairs(
            pairs, cell_size=args.cell_size, distance_scale=args.distance_scale
        )
    except ValueError as exc:
        raise StageError(f"[metrics] {exc}") from exc
    matched_e = {i for i, _ in matches}
    matched_t = {j for _, j in matches}
    report["unmatched"] = {
        "extracted": [i for i in range(len(extracted)) if i not in matched_e],
        "truth": [j for j in range(len(truth)) if j not in matched_t],
    }
    text = _json_dump(report)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.preset:
        spec = synthetic.PRESETS[args.preset]()
    else:
        try:
            spec = _parse_file(args.spec, "spec", lambda p: synthetic.SceneSpec.from_json(_text(p)))
        except TypeError as exc:  # a missing or unknown key, or a non-object where one belongs
            raise ConfigError(f"[spec] {args.spec}: invalid scene spec: {exc}") from exc
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    img, cloud, truth, t = synthetic.generate_scene(spec)
    (outdir / "scene.pgm").write_bytes(raster.save_pgm(img))
    (outdir / "cloud.xyz").write_text(lidar.write_xyz(cloud), encoding="utf-8")
    (outdir / "transform.txt").write_text(t.to_line() + "\n", encoding="utf-8")
    (outdir / "truth.wkt").write_text(
        "".join(polygon_to_wkt(p) + "\n" for p in truth), encoding="utf-8"
    )
    (outdir / "scene_spec.json").write_text(_json_dump(spec.to_dict()), encoding="utf-8")
    return EXIT_OK


def _fit_pairs(path: Path) -> AffineTransform2D:
    pairs = []
    for lineno, line in enumerate(_text(path).splitlines(), 1):
        parts = line.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != 4:
            raise ValueError(f"line {lineno}: expected 'sx sy tx ty'")
        sx, sy, tx, ty = (float(p) for p in parts)
        pairs.append(((sx, sy), (tx, ty)))
    return fit_least_squares(pairs)


def cmd_fit_transform(args) -> int:
    t = _parse_file(args.pairs, "pairs", _fit_pairs)
    line = t.to_line() + "\n"
    if args.out:
        Path(args.out).write_text(line, encoding="utf-8")
    else:
        print(line, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _add_extract_flags(p: argparse.ArgumentParser):
    p.add_argument("--image", help="orthophoto (PGM or PPM)")
    p.add_argument("--cloud", help="LiDAR point cloud (xyz text)")
    p.add_argument("--transform", help="meters-to-pixels transform file")
    p.add_argument("--truth", help="optional truth WKT for the SVG overlay")
    p.add_argument("--outdir", help="output directory (default .)")
    p.add_argument("--config", help="JSON config; flags override its values")
    p.add_argument("--debug-dir", dest="debug_dir", help="dump stage rasters and raw snakes")
    p.add_argument("--svg", action="store_true", help="write overlay.svg")
    for f in dataclasses.fields(SnakeConfig):
        p.add_argument(
            f"--{f.name.replace('_', '-')}",
            dest=f.name,
            type=float if f.default is None else type(f.default),
            choices=MODES if f.name == "mode" else None,
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="buildsnake",
        description="Building footprint extraction from an orthophoto and airborne LiDAR",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="run the full extraction pipeline")
    _add_extract_flags(p_extract)
    p_extract.set_defaults(func=cmd_extract)

    p_eval = sub.add_parser("evaluate", help="compare extracted footprints to ground truth")
    p_eval.add_argument("--extracted", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--cell-size", dest="cell_size", type=float, default=1.0)
    p_eval.add_argument(
        "--distance-scale",
        dest="distance_scale",
        type=float,
        default=1.0,
        help="meters per polygon unit, applied to EDC",
    )
    p_eval.add_argument(
        "--pairing",
        choices=("centroid", "index"),
        default="centroid",
        help="how extracted and truth polygons are matched",
    )
    p_eval.add_argument("--out", help="report path (default: stdout)")
    p_eval.set_defaults(func=cmd_evaluate)

    p_synth = sub.add_parser("synth", help="generate a synthetic scene")
    group = p_synth.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="scene spec JSON file")
    group.add_argument("--preset", choices=sorted(synthetic.PRESETS))
    p_synth.add_argument("--outdir", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_fit = sub.add_parser("fit-transform", help="least-squares affine fit from point pairs")
    p_fit.add_argument("--pairs", required=True, help="lines of 'sx sy tx ty'")
    p_fit.add_argument("--out")
    p_fit.set_defaults(func=cmd_fit_transform)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except Exception as exc:  # unexpected -> pipeline failure, not a traceback
        print(f"error: [internal] {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
