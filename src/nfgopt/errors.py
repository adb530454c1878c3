"""Exception types shared across the package, and the type checks every
config value goes through."""

import math
import sys

import numpy as np

_INTEGER = (int, np.integer)


class ConfigError(ValueError):
    """Invalid configuration: bad parameter values, malformed config files,
    unknown method names, or mismatched grid/path combinations.

    The CLI maps this to exit code 2.
    """


def check_integer(value, name: str, low: int, high: int | None = None) -> None:
    """Reject anything but an int or numpy integer (not a bool) in [low, high], or >= low if high is None."""
    if isinstance(value, bool) or not isinstance(value, _INTEGER):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"{name} must be {bound}, got {value}")


def check_number(value, name: str, sign: str | None = None) -> None:
    """Reject anything but a finite int, float or numpy number (not a bool, nor an int beyond the
    float range); ``sign`` "positive" or "non-negative" also bounds it below by zero."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not (abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if (sign == "positive" and value <= 0) or (sign == "non-negative" and value < 0):
        raise ConfigError(f"{name} must be {sign}, got {value!r}")


def check_bool(value, name: str) -> None:
    """Reject anything but ``True`` or ``False``."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be a bool, got {value!r}")


class DegeneratePathError(ValueError):
    """A waypoint path with zero total arc length (or a zero-length segment)
    cannot be mapped onto a time axis."""


class DegenerateBatchError(RuntimeError):
    """Every sample in a Monte-Carlo batch received zero weight, so no update
    direction can be formed. The optimizer loop catches it and skips that
    iteration's update."""


class NonFiniteStepError(RuntimeError):
    """An optimizer update left the iterate NaN or infinite.

    ``iteration`` is where it happened; the benchmark fills in the
    ``method`` and ``seed`` of the run.
    """

    def __init__(self, iteration: int, method: str | None = None, seed: int | None = None):
        # the arguments are the exception's args, so it pickles across processes
        super().__init__(iteration, method, seed)
        self.iteration = iteration
        self.method = method
        self.seed = seed

    def __str__(self) -> str:
        run = "" if self.method is None else f"{self.method} seed {self.seed}, "
        return f"non-finite update at {run}iteration {self.iteration}"
