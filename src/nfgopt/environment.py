"""Axis-aligned box environment and trajectory scoring.

A 1-D trajectory y(t) is scored against rectangular obstacle regions in
the (t, y) plane. Each grid point inside a box contributes a non-positive
penetration value; a trajectory that touches no box interior earns a
smoothness bonus in (0, 1] instead. The two regimes never overlap, so any
collision-free trajectory outscores every colliding one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigError, check_number

EXP_CLAMP = 700.0


@dataclass(frozen=True)
class BoxObstacle:
    """Rectangle [t_lo, t_hi] x [y_lo, y_hi]; containment is closed on all faces."""

    t_lo: float
    t_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self) -> None:
        for name in ("t_lo", "t_hi", "y_lo", "y_hi"):
            check_number(getattr(self, name), name)
        if not (self.t_lo < self.t_hi and self.y_lo < self.y_hi):
            raise ConfigError(f"need t_lo < t_hi and y_lo < y_hi, got {self}")


@dataclass(frozen=True)
class BoxEnvironment:
    """A set of box obstacles; empty means free space."""

    boxes: tuple[BoxObstacle, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", tuple(self.boxes))
        if not all(isinstance(box, BoxObstacle) for box in self.boxes):
            raise ConfigError(f"boxes must be BoxObstacles, got {self.boxes!r}")
        # Box tables by the bytes of their grid times; not a field, so
        # equality, hashing and repr see only the boxes.
        object.__setattr__(self, "_tables", {})

    def __reduce__(self):
        # Pickle the boxes alone: a worker process builds its own tables.
        return BoxEnvironment, (self.boxes,)

    def as_array(self) -> np.ndarray:
        """Boxes as an (n, 4) array with columns t_lo, t_hi, y_lo, y_hi."""
        return np.array(
            [[b.t_lo, b.t_hi, b.y_lo, b.y_hi] for b in self.boxes], dtype=np.float64
        ).reshape(len(self.boxes), 4)

    def box_table(self, times: np.ndarray) -> _kernels.BoxTable:
        """The boxes over grid ``times`` as the scoring kernels read them,
        built on the first call for that grid and reused after."""
        times = np.asarray(times, dtype=np.float64)
        key = times.tobytes()
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = _kernels.box_table(times, self.as_array())
        return table


def narrow_passage_v1() -> BoxEnvironment:
    """Four-box benchmark environment.

    The boxes leave a low corridor through the first wall, a squeeze above
    the second, and a terminal slot around y = 0, so a feasible trajectory
    must thread three passages while most random perturbations collide.
    """
    return BoxEnvironment(
        (
            BoxObstacle(0.2, 0.25, -1.0, 4.0),
            BoxObstacle(0.4, 0.6, -2.0, 2.0),
            BoxObstacle(0.7, 1.0, 0.5, 5.0),
            BoxObstacle(0.7, 1.0, -5.0, -0.5),
        )
    )


_PRESETS = {
    "narrow-passage-v1": narrow_passage_v1,
    "free-space": lambda: BoxEnvironment(()),
}


def load_preset(name: str) -> BoxEnvironment:
    try:
        return _PRESETS[name]()
    except KeyError:
        known = ", ".join(sorted(_PRESETS))
        raise ConfigError(f"unknown environment preset {name!r}; known presets: {known}") from None


@dataclass(frozen=True)
class ScoreConfig:
    """Scoring parameters: ``lambda_jerk`` scales the smoothness penalty in
    the collision-free branch."""

    lambda_jerk: float = 1e-4

    def __post_init__(self) -> None:
        check_number(self.lambda_jerk, "lambda_jerk", "non-negative")


def penetration_step(env: BoxEnvironment, t: float, y: float) -> float:
    """Penetration value at a single point: 0 outside all boxes, otherwise
    the negated distance to the nearest horizontal face, most negative over
    containing boxes."""
    s = 0.0
    for b in env.boxes:
        if b.t_lo <= t <= b.t_hi and b.y_lo <= y <= b.y_hi:
            s = min(s, -min(y - b.y_lo, b.y_hi - y))
    return s


def penetration_profile(env: BoxEnvironment, values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Per-grid-point penetration values of one 1-D path: (steps,) values at (steps,) grid times."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or np.shape(times) != values.shape:
        raise ValueError(f"need a 1-D path with one value per grid time, got shapes {values.shape} and {np.shape(times)}")
    return _kernels.penetration_profile_batch(values[None, :], env.box_table(times))[0]


def batch_scores(
    env: BoxEnvironment,
    values: np.ndarray,
    times: np.ndarray,
    dt: float,
    cfg: ScoreConfig,
    *,
    work: _kernels.Workspace | None = None,
) -> np.ndarray:
    """Score a batch of 1-D trajectories, shape (B, steps) -> (B,).

    Colliding rows score the mean penetration (non-positive); collision-free
    rows score exp(-lambda_jerk * average absolute jerk), in (0, 1].

    ``work`` is a run's :class:`~nfgopt._kernels.Workspace`, built for a
    (B, steps) batch and for ``env.box_table(times)``; the scoring passes
    then write into its buffers instead of allocating (B, steps) arrays.
    Another shape or table is a ConfigError. The scores are the same
    either way.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D (batch, steps), got shape {values.shape}")
    if values.shape[1] < 4:
        raise ValueError(f"scoring needs at least 4 grid points, got {values.shape[1]}")
    if np.shape(times) != values.shape[1:]:
        raise ValueError(f"need one time per grid point, got {np.shape(times)} for {values.shape[1]} points")
    return _kernels.batch_scores(values, env.box_table(times), cfg.lambda_jerk, dt, work=work)
