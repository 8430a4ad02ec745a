from __future__ import annotations

import dataclasses

import pytest

from buildsnake.config import SnakeConfig


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("connectivity", 5, "connectivity must be 4 or 8, got 5"),
        ("opening_radius", 0, "opening_radius must be an integer >= 1, got 0"),
        ("density", -1.0, "density must be a positive number, got -1.0"),
        ("max_iters", 2.5, "max_iters must be an integer, got 2.5"),
        ("ground_class", 2.5, "ground_class must be an integer, got 2.5"),
        ("opening_radius", 1.5, "opening_radius must be an integer, got 1.5"),
        ("gvf_iters", float("inf"), "gvf_iters must be an integer, got inf"),
        ("resample_every", True, "resample_every must be an integer, got True"),
        ("connectivity", "8", "connectivity must be an integer, got '8'"),
        ("sym_diff_tol", -1.0, "sym_diff_tol must be non-negative, got -1.0"),
        ("min_segment_area_m2", -5, "min_segment_area_m2 must be non-negative, got -5"),
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


def test_from_dict_ignores_unknown_keys():
    assert SnakeConfig.from_dict({"workers": 2, "conectivity": 4}) == SnakeConfig()
