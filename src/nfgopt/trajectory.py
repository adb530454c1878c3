"""Trajectory and time-grid types plus the waypoint resampling pipeline.

A :class:`Trajectory` is a dense sampling of a 1-D path y(t) on a uniform
:class:`TimeGrid`. A :class:`WaypointPath` is a sparse ordered list of
values, typically produced by an external planner, that can be mapped onto
a grid through the pipeline

    unwrap_angles (angles only) -> dedupe -> arc_length_times -> resample

after which it is scored exactly like any internally optimized trajectory.
Both types hold their values as one column of shape (n, 1) and reject a
second column on construction.

All operations here are pure functions of immutable inputs and are safe to
call concurrently.
"""

from __future__ import annotations

import csv
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from ._kernels import mean_abs_jerk
from .errors import ConfigError, DegeneratePathError, check_number

@dataclass(frozen=True)
class TimeGrid:
    """Uniform time discretization of a fixed horizon.

    Parameters
    ----------
    horizon_seconds : float
        Total duration covered by the grid.
    rate_hz : float
        Sampling frequency. ``steps = horizon_seconds * rate_hz`` must be a
        whole number (within one part in 1e9) and at least 4, since the jerk
        operator needs four consecutive points.

    Grid points are ``t_i = i * dt`` for ``i = 0 .. steps-1``, so the last
    sample sits at ``horizon_seconds - dt``.
    """

    horizon_seconds: float = 1.0
    rate_hz: float = 100.0
    steps: int = field(init=False)
    dt: float = field(init=False)

    def __post_init__(self) -> None:
        check_number(self.horizon_seconds, "horizon_seconds", "positive")
        check_number(self.rate_hz, "rate_hz", "positive")
        raw = self.horizon_seconds * self.rate_hz
        if not raw <= sys.float_info.max:  # inf, or an integer product beyond the float range
            raise ConfigError(f"horizon_seconds * rate_hz must be finite, got {raw!r}")
        steps = int(round(raw))
        if abs(raw - steps) > 1e-9 * max(1.0, abs(raw)):
            raise ConfigError(
                f"horizon_seconds * rate_hz = {raw!r} is not a whole number of steps"
            )
        if steps < 4:
            raise ConfigError(f"grid needs at least 4 steps, got {steps}")
        dt = 1.0 / self.rate_hz
        if abs(dt * steps - self.horizon_seconds) > 1e-9 * self.horizon_seconds:
            raise ConfigError(
                f"dt * steps = {dt * steps!r} does not reproduce horizon {self.horizon_seconds!r}"
            )
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "dt", dt)

    def times(self) -> np.ndarray:
        """Grid timestamps, shape ``(steps,)``."""
        return np.arange(self.steps) * self.dt


def _value_column(array, name: str) -> np.ndarray:
    """A flat (n,) or (n, 1) ``array`` of finite values as a read-only
    (n, 1) copy; anything else is a :class:`ConfigError`, as box
    environments score only 1-D paths."""
    column = np.asarray(array, dtype=np.float64)
    if column.ndim == 1:
        column = column[:, None]
    if column.ndim != 2 or column.shape[1] != 1:
        raise ConfigError(f"{name} must be 1-D: one value column, got shape {np.shape(array)}")
    if not np.isfinite(column).all():
        raise ConfigError(f"{name} must be finite")
    column = column.copy()
    column.flags.writeable = False
    return column


@dataclass(frozen=True)
class Trajectory:
    """Dense 1-D trajectory: the value y(t_i) at every grid point.

    ``values`` is one column of shape ``(grid.steps, 1)``; a flat
    ``(grid.steps,)`` array is taken as that column. Every entry must be
    finite. The array is copied and marked read-only on construction.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = _value_column(self.values, "trajectory values")
        if values.shape[0] != self.grid.steps:
            raise ValueError(
                f"values has {values.shape[0]} rows but grid has {self.grid.steps} steps"
            )
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class WaypointPath:
    """Ordered list of the values of a 1-D path.

    Parameters
    ----------
    waypoints : array-like, shape (L, 1) or (L,)
        At least two values, held as one column of shape (L, 1).
    """

    waypoints: np.ndarray

    def __post_init__(self) -> None:
        pts = _value_column(self.waypoints, "waypoints")
        if pts.shape[0] < 2:
            raise DegeneratePathError(f"need at least 2 waypoints, got {pts.shape[0]}")
        object.__setattr__(self, "waypoints", pts)

    def dedupe(self) -> WaypointPath:
        """Drop consecutive duplicate waypoints.

        Zero-length segments would make the arc-length time mapping
        degenerate, so they are merged away before resampling. Raises
        :class:`DegeneratePathError` when fewer than two distinct waypoints
        remain (all waypoints identical).
        """
        y = self.waypoints[:, 0]
        keep = np.concatenate(([True], y[1:] != y[:-1]))
        if keep.sum() < 2:
            raise DegeneratePathError("all waypoints identical: path has zero arc length")
        if keep.all():
            return self
        return WaypointPath(y[keep])


def average_abs_jerk(traj: Trajectory) -> float:
    """Mean absolute third finite difference divided by dt^3.

    The stencil (:func:`~nfgopt._kernels.third_difference`) has
    ``steps - 3`` valid windows; the average runs over them, with no
    padding. Units are value/s^3. Scoring computes the same figure with
    the same helper, :func:`~nfgopt._kernels.mean_abs_jerk`.
    """
    return float(mean_abs_jerk(traj.values[:, 0], traj.grid.dt))


def path_length(traj: Trajectory) -> float:
    """Sum of absolute per-step increments."""
    return float(np.abs(np.diff(traj.values, axis=0)).sum())


def unwrap_angles(path: WaypointPath) -> WaypointPath:
    """Remove 2*pi jumps from a path of angles (radians).

    The values are shifted by integer multiples of 2*pi so that
    consecutive increments have magnitude at most pi.
    """
    # A difference that overflows makes a non-finite value, which
    # WaypointPath rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        unwrapped = np.unwrap(path.waypoints[:, 0])
    return WaypointPath(unwrapped)


def arc_length_times(path: WaypointPath, duration: float) -> np.ndarray:
    """Timestamps proportional to cumulative arc length.

    Waypoint ``i`` is placed at ``t_i = (s_i / S) * duration`` where ``s_i``
    is the cumulative distance ``sum |y_j - y_(j-1)|`` along the path and
    ``S`` the total. The first timestamp is exactly 0 and the last exactly
    ``duration``.

    Raises
    ------
    DegeneratePathError
        If any segment has zero length (dedupe the path first) or the total
        arc length is zero.
    ConfigError
        If ``duration`` is not positive, or the total arc length overflows
        to infinity.
    """
    check_number(duration, "duration", "positive")
    with np.errstate(over="ignore"):
        seg = np.abs(np.diff(path.waypoints[:, 0]))
        s = np.concatenate(([0.0], np.cumsum(seg)))
    if (seg == 0.0).any():
        raise DegeneratePathError(
            "zero-length segment between consecutive waypoints; dedupe the path first"
        )
    total = s[-1]
    if not np.isfinite(total):
        raise ConfigError("total arc length overflows to infinity")
    if total <= 0.0:
        raise DegeneratePathError("all waypoints identical: path has zero arc length")
    t = (s / total) * duration
    t[0] = 0.0
    t[-1] = duration
    return t


def resample(path: WaypointPath, timestamps: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Linearly interpolate a timestamped path onto a uniform grid.

    ``timestamps`` must be non-decreasing, start at 0, carry one entry per
    waypoint, and end within ``[grid last sample, grid horizon]``: the grid
    samples at ``i * dt`` up to ``horizon - dt``, so a path whose final
    timestamp equals either the horizon or the last grid time is accepted.
    Grid times at or past the final timestamp take the last waypoint value
    exactly (closed right endpoint).
    """
    t = np.asarray(timestamps, dtype=np.float64)
    if t.ndim != 1 or t.shape[0] != path.waypoints.shape[0]:
        raise ConfigError(
            f"got {t.shape[0] if t.ndim == 1 else t.shape} timestamps for {path.waypoints.shape[0]} waypoints"
        )
    if (np.diff(t) < 0.0).any():
        raise ConfigError("timestamps must be non-decreasing")
    if abs(t[0]) > 1e-12:
        raise ConfigError(f"first timestamp must be 0, got {t[0]!r}")
    grid_times = grid.times()
    tol = 1e-9 * max(1.0, grid.horizon_seconds)
    if not (grid_times[-1] - tol <= t[-1] <= grid.horizon_seconds + tol):
        raise ConfigError(
            f"final timestamp {t[-1]!r} does not match grid horizon {grid.horizon_seconds!r}"
        )
    return Trajectory(grid, np.interp(grid_times, t, path.waypoints[:, 0]))


def write_csv(path: str, header, lines) -> None:
    """Write a CSV file of the ``header`` cells and ``lines``, each one
    rendered row, every line ended by CRLF as :mod:`csv` ends it.

    The whole text is rendered before ``<path>.tmp`` is opened, so a cell
    that fails to format raises first; it is then written in one call and
    renamed onto ``path`` (no fsync). A failure keeps the previous file and
    removes the temporary."""
    text = "\r\n".join([",".join(header), *lines, ""])
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def csv_cell(text: str) -> str:
    """``text`` as one CSV cell, quoted where :mod:`csv` quotes it: when it
    holds a comma, a double quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def read_csv(path: str) -> list[list[str]]:
    """Every row of the CSV file at ``path``; an unreadable file is a :class:`ConfigError`."""
    try:
        with open(path, newline="") as fh:
            return list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


TRAJECTORY_HEADER = ("t", "dim0")


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    rows = zip(traj.grid.times().tolist(), traj.values[:, 0].tolist())
    write_csv(path, TRAJECTORY_HEADER, [f"{t:.17g},{v:.17g}" for t, v in rows])


def read_trajectory_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a trajectory CSV back as ``(times, values)`` arrays.

    Expects the header ``t,dim0`` written by :func:`write_trajectory_csv`;
    the values come back as one column of shape (m, 1). Full double
    precision survives the round trip.
    """
    rows = read_csv(path)
    if not rows or tuple(rows[0]) != TRAJECTORY_HEADER:
        raise ConfigError(f"{path}: expected trajectory header t,dim0")
    body = rows[1:]
    if not body or any(len(row) != 2 for row in body):
        raise ConfigError(f"{path}: expected rows of two cells, t and dim0")
    try:
        data = np.array([[float(t), float(v)] for t, v in body])
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric trajectory row: {exc}") from exc
    return data[:, 0], data[:, 1:]


def load_waypoints(path: str) -> np.ndarray:
    """Read a waypoint CSV: one waypoint per row, optional header.

    The first row is skipped when any of its cells fails to parse as a
    number. All remaining rows must share one column count; the result has
    one column per CSV column, and :class:`WaypointPath` accepts only one.
    """
    rows = [row for row in read_csv(path) if row]
    if not rows:
        raise ConfigError(f"{path}: empty waypoint file")

    def parse(row: list[str]) -> list[float] | None:
        try:
            return [float(cell) for cell in row]
        except ValueError:
            return None

    first = parse(rows[0])
    body = rows if first is not None else rows[1:]
    parsed = []
    for i, row in enumerate(body):
        vals = parse(row)
        if vals is None:
            raise ConfigError(f"{path}: non-numeric value in row {i + 1}: {row}")
        parsed.append(vals)
    if not parsed:
        raise ConfigError(f"{path}: no data rows")
    width = len(parsed[0])
    if any(len(r) != width for r in parsed):
        raise ConfigError(f"{path}: inconsistent column count across rows")
    return np.array(parsed, dtype=np.float64)
