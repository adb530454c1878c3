import dataclasses
import typing

import numpy as np
import pytest

from nfgopt.baselines import ChompConfig, MppiConfig, StompConfig
from nfgopt.environment import BoxObstacle, ScoreConfig
from nfgopt.errors import ConfigError, check_bool, check_integer, check_number
from nfgopt.nfg import NfgConfig
from nfgopt.sampling import SEKernel
from nfgopt.trajectory import TimeGrid

# Every config dataclass, with init arguments it accepts.
CONFIGS = {
    NfgConfig: {},
    StompConfig: {},
    ChompConfig: {},
    MppiConfig: {},
    SEKernel: {},
    ScoreConfig: {},
    TimeGrid: {},
    BoxObstacle: {"t_lo": 0.0, "t_hi": 1.0, "y_lo": -1.0, "y_hi": 1.0},
}

# Values of the wrong type for a field, by its annotation. A field of a
# type missing here fails collection, so a new field gets cases too.
WRONG = {
    float: (True, np.bool_(True), "1", None),
    int: (True, 2.5, 3.0, np.float64(3.0), "1", None),
    bool: ("false", 1, None),
    float | None: (True, "1"),
    str: (True, None),
}


def wrong_constructions():
    for cls, base in CONFIGS.items():
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            if field.init:
                for value in WRONG[hints[field.name]]:
                    yield pytest.param(cls, base, field.name, value, id=f"{cls.__name__}.{field.name}={value!r}")


@pytest.mark.parametrize("cls, base, name, value", wrong_constructions())
def test_wrong_type_rejected_naming_the_field(cls, base, name, value):
    # the same rule as a JSON config: never coerced, and no bare TypeError
    with pytest.raises(ConfigError, match=rf"^{name} "):
        cls(**{**base, name: value})


def test_ints_and_numpy_numbers_accepted():
    cfg = NfgConfig(sigma=1, n_pow=np.float32(50.0), batch=np.int64(10), iterations=np.uint8(3), step_size=1)
    assert (cfg.sigma, cfg.batch, cfg.step_size) == (1, 10, 1)
    assert BoxObstacle(0, 1, np.int32(-1), 1).y_lo == -1
    assert TimeGrid(1, 100).steps == 100


class TestCheckInteger:
    @pytest.mark.parametrize("value", [0, 7, np.int8(3), np.uint64(2**64 - 1), 2**64 - 1])
    def test_accepts_integers_in_range(self, value):
        check_integer(value, "n", 0, 2**64 - 1)

    @pytest.mark.parametrize("value", [True, np.bool_(False), 1.0, np.float64(1.0), "1", None, 1 + 0j])
    def test_rejects_non_integers(self, value):
        with pytest.raises(ConfigError, match="^n must be an integer"):
            check_integer(value, "n", 0)

    def test_bounds_named(self):
        with pytest.raises(ConfigError, match="^n must be at least 2, got 1$"):
            check_integer(1, "n", 2)
        with pytest.raises(ConfigError, match=r"^n must be in \[0, 5\], got 6$"):
            check_integer(6, "n", 0, 5)
        check_integer(10**30, "n", 0)


class TestCheckNumber:
    @pytest.mark.parametrize("value", [0, 0.0, -1.5, np.float32(2.0), np.int64(-3), 10**300])
    def test_accepts_finite_numbers(self, value):
        check_number(value, "x")

    @pytest.mark.parametrize("value", [True, np.bool_(True), "1", None, [1.0], 1 + 0j, np.complex128(1)])
    def test_rejects_non_numbers(self, value):
        with pytest.raises(ConfigError, match="^x must be a number"):
            check_number(value, "x")

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, np.float32("inf"), 10**400])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ConfigError, match="^x must be finite"):
            check_number(value, "x")

    def test_sign(self):
        check_number(0.0, "x", "non-negative")
        check_number(1e-300, "x", "positive")
        with pytest.raises(ConfigError, match="^x must be positive, got 0.0$"):
            check_number(0.0, "x", "positive")
        with pytest.raises(ConfigError, match="^x must be non-negative, got -1$"):
            check_number(-1, "x", "non-negative")


def test_check_bool():
    check_bool(True, "flag")
    check_bool(False, "flag")
    for value in ("false", 0, 1, None, np.bool_(True)):
        with pytest.raises(ConfigError, match="^flag must be a bool"):
            check_bool(value, "flag")
