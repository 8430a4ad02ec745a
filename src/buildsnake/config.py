"""Solver and pipeline configuration with published defaults."""
from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

MODES = ("basic", "gvf", "proposed")


def as_number(name: str, value, integer: bool = False) -> float | int:
    """Real, non-bool, finite `value` as a float, or as an int if `integer` (40.0 -> 40); else ValueError."""
    if integer:
        integral = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
        if isinstance(value, bool) or not integral:
            raise ValueError(f"{name} must be an integer, got {value!r}")
        return int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        number = math.inf
    if math.isnan(number):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return number


@dataclass
class SnakeConfig:
    """Every `extract` parameter, with empirically tuned defaults."""

    alpha: float = 0.01       # tension weight
    beta: float = 0.01        # rigidity weight
    gamma: float = 1.0        # implicit step weight
    max_iters: int = 400
    epsilon: float = 0.01     # px convergence threshold
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
    ground_class: int = 2
    density: float | None = None  # points/m^2; None = estimate from cloud extent
    sym_diff_tol: float = 0.10

    def __post_init__(self):
        self.validate()

    def validate(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, int):
                setattr(self, f.name, as_number(f.name, value, integer=True))
            elif isinstance(f.default, float) or f.default is None and value is not None:
                as_number(f.name, value)
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.max_iters < 1 or self.gvf_iters < 1 or self.resample_every < 1:
            raise ValueError("iteration counts must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.connectivity not in (4, 8):
            raise ValueError(f"connectivity must be 4 or 8, got {self.connectivity!r}")
        if self.opening_radius < 1:
            raise ValueError(f"opening_radius must be an integer >= 1, got {self.opening_radius!r}")
        for name in ("sym_diff_tol", "min_segment_area_m2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)!r}")
        if self.density is not None and self.density <= 0:
            raise ValueError(f"density must be a positive number, got {self.density!r}")

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))

    @classmethod
    def from_dict(cls, d: dict) -> "SnakeConfig":
        known = {k: v for k, v in d.items() if k in cls.field_names()}
        return cls(**known)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)
