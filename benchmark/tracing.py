"""Outside-in per-layer trace of `buildsnake extract`.

Each layer is a public function, wrapped from here and patched where its
caller looks the name up. A wrapper records one span (layer, duration, the
child spans it caused) plus the layer's work counts; spans stay in memory
until the extract ends. A layer's self time is its span's duration minus
the time its child spans cover.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import buildsnake.cli as cli
from buildsnake import energy, lidar, raster, snake

# layer -> (module whose attribute is looked up by the caller, attribute)
LAYERS = {
    "cli": (cli, "main"),
    "raster.load": (raster, "load_pnm"),
    "lidar.parse": (lidar, "parse_xyz"),
    "lidar.segment": (lidar, "extract_boundaries"),
    "snake.prepare": (cli, "prepare_fields"),
    "energy.image_energy": (snake, "image_energy"),
    "energy.gvf": (snake, "compute_gvf"),
    "snake.run": (cli, "run_snake"),
    "snake.sample_force": (snake, "sample_force"),
    "snake.shape_force": (snake, "shape_force"),
    "snake.evolve": (snake, "evolve_step"),
    "polygonize.mbr": (cli, "building_mbr"),
    "polygonize.fit": (cli, "fit_rectilinear"),
}

# Layers a mode must reach; a refactor that bypasses a patched name fails the
# trace instead of reporting zeros.
MODE_SKIPS = {"basic": {"energy.gvf", "snake.shape_force"}, "gvf": {"snake.shape_force"}, "proposed": set()}


@dataclass
class Span:
    layer: str
    duration: float = 0.0
    failed: bool = False
    children: list["Span"] = field(default_factory=list)

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)


class Tracer:
    """Installs the layer wrappers and keeps every span of the run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.last_gvf = None  # (field, e_img) of the latest GVF solve
        self._stack: list[Span] = []
        self._originals = []

    def install(self):
        for layer, (module, name) in LAYERS.items():
            original = getattr(module, name)
            self._originals.append((module, name, original))
            setattr(module, name, self._wrap(layer, original))

    def uninstall(self):
        for module, name, original in reversed(self._originals):
            setattr(module, name, original)
        self._originals.clear()

    def _wrap(self, layer, fn):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(layer)
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                span.failed = True
                raise
            finally:
                span.duration = time.perf_counter() - start
                self._stack.pop()
                self.spans.append(span)
                if parent is not None:
                    parent.children.append(span)
            self._count(layer, args, result)
            return result

        return wrapper

    def _count(self, layer, args, result):
        if layer == "lidar.parse":
            self.counts["lidar.points"] = len(result)
        elif layer == "lidar.segment":
            self.counts["lidar.segments"] = len(result[0])
        elif layer == "energy.image_energy":
            self.counts["energy.pixels"] = int(args[0].size)
        elif layer == "energy.gvf":
            self.counts["energy.gvf_iters"] = int(result.iters)
            self.last_gvf = (result, args[0])


def traced_extract(argv: list[str], cfg) -> dict:
    """One traced `cli.main(argv)` extract; `cfg` is the resolved SnakeConfig.

    Returns the exit code and wall time and, for a successful extract, each
    layer's self time, every snake run as [seconds, iterations, converged]
    and the work counts. Raises if a layer the mode needs was never called.
    """
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    finally:
        elapsed = time.perf_counter() - start
        tracer.uninstall()
    result = {"exit": code, "extract_s": elapsed}
    if code != 0:
        return result
    missing = sorted(set(LAYERS) - MODE_SKIPS[cfg.mode] - {s.layer for s in tracer.spans})
    if missing:
        raise RuntimeError(f"traced layers never called in {cfg.mode} mode: {', '.join(missing)}")
    self_s = dict.fromkeys(LAYERS, 0.0)
    for span in tracer.spans:
        self_s[span.layer] += span.self_time
    runs = []
    for span in tracer.spans:
        if span.layer == "snake.run":
            iters = sum(c.layer == "snake.sample_force" for c in span.children)
            runs.append([span.duration, iters, iters < cfg.max_iters])
    counts = {
        "energy.gvf_iters": 0,
        **tracer.counts,
        "snake.shape_force_calls": sum(s.layer == "snake.shape_force" for s in tracer.spans),
        "polygonize.fallbacks": sum(s.layer == "polygonize.fit" and s.failed for s in tracer.spans),
    }
    # Outside every span: the residual is not part of the extract.
    residual = energy.gvf_residual(*tracer.last_gvf) if tracer.last_gvf else 0.0
    return result | {"self_s": self_s, "runs": runs, "counts": counts, "gvf_residual": residual}
