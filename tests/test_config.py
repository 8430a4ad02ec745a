from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from buildsnake.config import BOUNDS, SnakeConfig
from buildsnake.energy import image_energy
from buildsnake.geometry import GridSpec
from buildsnake.lidar import PointCloud3D, project_to_grid
from buildsnake.raster import disk_element, gaussian_smooth


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("connectivity", 5, "connectivity must be 4 or 8, got 5"),
        ("opening_radius", 0, "opening_radius must be >= 1, got 0"),
        ("max_iters", 0.0, "max_iters must be >= 1, got 0.0"),
        ("density", -1.0, "density must be > 0, got -1.0"),
        ("gamma", -0.0, "gamma must be > 0, got -0.0"),
        ("max_iters", 2.5, "max_iters must be an integer, got 2.5"),
        ("ground_class", 2.5, "ground_class must be an integer, got 2.5"),
        ("opening_radius", 1.5, "opening_radius must be an integer, got 1.5"),
        ("gvf_iters", float("inf"), "gvf_iters must be an integer, got inf"),
        ("resample_every", True, "resample_every must be an integer, got True"),
        ("connectivity", "8", "connectivity must be an integer, got '8'"),
        ("sym_diff_tol", -1.0, "sym_diff_tol must be >= 0, got -1.0"),
        ("min_segment_area_m2", -5, "min_segment_area_m2 must be >= 0, got -5"),
        ("w_line", "abc", "w_line must be a number, got 'abc'"),
        ("shape_weight", None, "shape_weight must be a number, got None"),
        ("epsilon", True, "epsilon must be a number, got True"),
        ("density", True, "density must be a number, got True"),
        ("alpha", "0.5", "alpha must be a number, got '0.5'"),
        ("density", "2", "density must be a number, got '2'"),
        pytest.param("alpha", 10**400, f"alpha must be finite, got {10**400}", id="alpha-401-digits"),
    ],
)
def test_invalid_value_raises(key, value, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SnakeConfig(**{key: value})


FLOAT_FIELDS = [f.name for f in dataclasses.fields(SnakeConfig) if not isinstance(f.default, (int, str))]


@pytest.mark.parametrize("key", FLOAT_FIELDS)
def test_nan_float_value_raises(key):
    with pytest.raises(ValueError, match=f"^{key} must be a number, got nan$"):
        SnakeConfig(**{key: float("nan")})


@pytest.mark.parametrize("value", [float("inf"), float("-inf")])
@pytest.mark.parametrize("key", FLOAT_FIELDS)
def test_infinite_float_value_raises(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be finite, got {value!r}$"):
        SnakeConfig(**{key: value})


def test_integral_float_is_stored_as_int():
    cfg = SnakeConfig.from_dict({"max_iters": 40.0, "connectivity": 4.0, "ground_class": 6.0})
    assert (cfg.max_iters, cfg.connectivity, cfg.ground_class) == (40, 4, 6)
    assert all(type(v) is int for v in (cfg.max_iters, cfg.connectivity, cfg.ground_class))


# Every bounded key with its lower bound.
LOWER_BOUNDS = {
    **dict.fromkeys(("alpha", "beta", "sigma", "sym_diff_tol", "min_segment_area_m2"), ">= 0"),
    **dict.fromkeys(("gamma", "epsilon", "mu", "delta", "density"), "> 0"),
    **dict.fromkeys(("max_iters", "gvf_iters", "resample_every", "opening_radius"), ">= 1"),
}
# bound -> (the first value past it, the first value that passes)
EDGES = {">= 0": (-math.ulp(0.0), 0.0), "> 0": (0.0, math.ulp(0.0)), ">= 1": (0, 1)}


def test_bound_table_is_the_documented_one():
    assert BOUNDS == LOWER_BOUNDS


@pytest.mark.parametrize("key, bound", LOWER_BOUNDS.items())
def test_value_past_bound_raises_and_first_value_within_passes(key, bound):
    past, within = EDGES[bound]
    with pytest.raises(ValueError, match=f"^{key} must be {bound}, got {past!r}$"):
        SnakeConfig(**{key: past})
    assert getattr(SnakeConfig(**{key: within}), key) == within


def test_negative_zero_passes_an_inclusive_zero_bound():
    assert SnakeConfig(alpha=-0.0, sigma=-0.0).alpha == 0.0


def test_from_dict_rejects_unknown_keys_and_drops_retired_ones():
    with pytest.raises(ValueError, match="^unknown key 'conectivity'$"):
        SnakeConfig.from_dict({"workers": 2, "conectivity": 4})
    assert SnakeConfig.from_dict({"workers": 2, "mbr_source": "lidar", "eval_cell_size": 1.0}) == SnakeConfig()


CLOUD = PointCloud3D(np.array([[0.0, 0.0, 5.0], [3.0, 2.0, 5.0]]))


# A library function checks a setting with `as_number` and the key's bound,
# so a direct call rejects what SnakeConfig rejects, in the same words.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: gaussian_smooth(np.zeros((4, 4)), math.inf), "sigma must be finite, got inf"),
        (lambda: gaussian_smooth(np.zeros((4, 4)), math.nan), "sigma must be a number, got nan"),
        (lambda: image_energy(np.zeros((4, 4)), sigma=math.inf), "sigma must be finite, got inf"),
        (lambda: project_to_grid(CLOUD, math.inf), "density must be finite, got inf"),
        (lambda: project_to_grid(CLOUD, math.nan), "density must be a number, got nan"),
        (lambda: disk_element(1.5), "radius must be an integer, got 1.5"),
        (lambda: GridSpec((0.0, 0.0), math.nan, 2, 2), "cell_size must be a number, got nan"),
        (lambda: GridSpec((0.0, 0.0), math.inf, 2, 2), "cell_size must be finite, got inf"),
    ],
    ids=["smooth-inf", "smooth-nan", "energy-inf", "grid-inf", "grid-nan", "disk-1.5", "cell-nan", "cell-inf"],
)
def test_library_setting_checks_use_the_config_rule(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
