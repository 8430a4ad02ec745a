"""Solver and pipeline configuration with published defaults."""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

MODES = ("basic", "gvf", "proposed")
# The pixel connectivities `raster.connected_components` labels with.
CONNECTIVITIES = (4, 8)
# The LAS class code of ground points.
GROUND_CLASS = 2
# Keys an older config or run.json may hold; they are accepted and ignored.
RETIRED_KEYS = ("workers", "mbr_source", "eval_cell_size")
# The lower bound of each bounded key, as `as_number` takes it.
BOUNDS = {
    **dict.fromkeys(("alpha", "beta", "sigma", "sym_diff_tol", "min_segment_area_m2"), ">= 0"),
    **dict.fromkeys(("gamma", "epsilon", "mu", "delta", "density"), "> 0"),
    **dict.fromkeys(("max_iters", "gvf_iters", "resample_every", "opening_radius"), ">= 1"),
}


def as_number(name: str, value, integer: bool = False, bound: str | None = None) -> float | int:
    """Real, non-bool, finite `value` as a float, or as an int if `integer` (40.0 -> 40); else ValueError.

    `bound` is a lower bound, ">= x" or "> x"; a value past it raises `<name> must be <bound>, got <value>`.
    """
    if integer:
        integral = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
        if isinstance(value, bool) or not integral:
            raise ValueError(f"{name} must be an integer, got {value!r}")
        number = int(value)
    elif isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    else:
        try:
            number = float(value)
        except OverflowError:  # an integer beyond float range
            number = math.inf
        if math.isnan(number):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if not math.isfinite(number):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if bound is not None:
        op, limit = bound.split()
        if not (number > float(limit) if op == ">" else number >= float(limit)):
            raise ValueError(f"{name} must be {bound}, got {value!r}")
    return number


def check_connectivity(value) -> None:
    """ValueError unless `value` is one of CONNECTIVITIES."""
    if value not in CONNECTIVITIES:
        raise ValueError(f"connectivity must be 4 or 8, got {value!r}")


@dataclass
class SnakeConfig:
    """Every `extract` parameter, with empirically tuned defaults."""

    alpha: float = 0.01       # tension weight
    beta: float = 0.01        # rigidity weight
    gamma: float = 1.0        # implicit step weight
    max_iters: int = 400
    epsilon: float = 0.01     # largest normal displacement (px) below which a snake stops
    resample_every: int = 10
    w_line: float = 0.04
    w_edge: float = 2.0
    w_term: float = 0.01
    sigma: float = 10.0       # px, image smoothing
    mu: float = 0.2           # GVF smoothing weight
    gvf_iters: int = 200
    delta: float = 50.0       # px^2, shape-similarity scale
    shape_weight: float = 1.0
    mode: str = "proposed"
    opening_radius: int = 1
    min_segment_area_m2: float = 10.0
    connectivity: int = 8
    ground_class: int = GROUND_CLASS
    density: float | None = None  # points/m^2; None = estimate from cloud extent
    sym_diff_tol: float = 0.10

    def __post_init__(self):
        self.validate()

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, int):
                setattr(self, f.name, as_number(f.name, value, integer=True, bound=BOUNDS.get(f.name)))
            elif isinstance(f.default, float) or f.default is None and value is not None:
                as_number(f.name, value, bound=BOUNDS.get(f.name))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        check_connectivity(self.connectivity)

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_dict(cls, d: dict) -> "SnakeConfig":
        """The config of `d`'s keys; retired keys are dropped, and any other unknown key raises ValueError."""
        for key in d:
            if key not in cls.field_names() + RETIRED_KEYS:
                raise ValueError(f"unknown key {key!r}")
        return cls(**{k: v for k, v in d.items() if k not in RETIRED_KEYS})

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)
