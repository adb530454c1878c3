"""Trajectory and time-grid types plus the waypoint resampling pipeline.

A :class:`Trajectory` is a dense sampling of a path on a uniform
:class:`TimeGrid`. A :class:`WaypointPath` is a sparse ordered list of
configurations, typically produced by an external planner, that can be
mapped onto a grid through the pipeline

    unwrap_angles -> dedupe -> arc_length_times -> resample

after which it is scored exactly like any internally optimized trajectory.

All operations here are pure functions of immutable inputs and are safe to
call concurrently.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegeneratePathError

_TWO_PI = 2.0 * np.pi


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
        if not (self.horizon_seconds > 0.0 and np.isfinite(self.horizon_seconds)):
            raise ConfigError(f"horizon_seconds must be positive and finite, got {self.horizon_seconds}")
        if not (self.rate_hz > 0.0 and np.isfinite(self.rate_hz)):
            raise ConfigError(f"rate_hz must be positive and finite, got {self.rate_hz}")
        raw = self.horizon_seconds * self.rate_hz
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


@dataclass(frozen=True)
class Trajectory:
    """Dense trajectory: one row of ``values`` per grid point.

    ``values`` has shape ``(grid.steps, dims)`` and every entry must be
    finite. The array is copied and marked read-only on construction.
    """

    grid: TimeGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise ValueError(f"values must be 1-D or 2-D, got shape {values.shape}")
        if values.shape[0] != self.grid.steps:
            raise ValueError(
                f"values has {values.shape[0]} rows but grid has {self.grid.steps} steps"
            )
        if not np.isfinite(values).all():
            raise ValueError("trajectory values must be finite")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    def times(self) -> np.ndarray:
        return self.grid.times()


@dataclass(frozen=True)
class WaypointPath:
    """Ordered list of configurations with optional per-dimension angle flags.

    Parameters
    ----------
    waypoints : array-like, shape (L, d)
        At least two configurations. A 1-D array is treated as a single
        dimension.
    angular : tuple of bool, optional
        Marks which dimensions hold angles (radians); only those are
        adjusted by :func:`unwrap_angles`. Default: none.
    """

    waypoints: np.ndarray
    angular: tuple[bool, ...] | None = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.waypoints, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise ValueError(f"waypoints must be 1-D or 2-D, got shape {pts.shape}")
        if pts.shape[0] < 2:
            raise DegeneratePathError(f"need at least 2 waypoints, got {pts.shape[0]}")
        if not np.isfinite(pts).all():
            raise ValueError("waypoints must be finite")
        if self.angular is not None and len(self.angular) != pts.shape[1]:
            raise ValueError(
                f"angular has {len(self.angular)} flags for {pts.shape[1]} dimensions"
            )
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "waypoints", pts)

    @property
    def dims(self) -> int:
        return self.waypoints.shape[1]

    def dedupe(self) -> WaypointPath:
        """Drop consecutive duplicate waypoints.

        Zero-length segments would make the arc-length time mapping
        degenerate, so they are merged away before resampling. Raises
        :class:`DegeneratePathError` when fewer than two distinct waypoints
        remain (all waypoints identical).
        """
        pts = self.waypoints
        keep = np.ones(pts.shape[0], dtype=bool)
        keep[1:] = (pts[1:] != pts[:-1]).any(axis=1)
        kept = pts[keep]
        if kept.shape[0] < 2:
            raise DegeneratePathError("all waypoints identical: path has zero arc length")
        if kept.shape[0] == pts.shape[0]:
            return self
        return WaypointPath(kept, self.angular)


def average_abs_jerk(traj: Trajectory) -> float:
    """Mean absolute third finite difference divided by dt^3.

    The third-order stencil ``y[t+3] - 3 y[t+2] + 3 y[t+1] - y[t]`` has
    ``steps - 3`` valid windows; the average runs over valid windows times
    dimensions, with no padding. Units are value/s^3.
    """
    y = traj.values
    if y.shape[0] < 4:
        raise ValueError(f"jerk needs at least 4 grid points, got {y.shape[0]}")
    d3 = y[3:] - 3.0 * y[2:-1] + 3.0 * y[1:-2] - y[:-3]
    return float(np.abs(d3).mean() / traj.grid.dt**3)


def path_length(traj: Trajectory) -> float:
    """Sum of absolute per-step increments over all dimensions."""
    y = traj.values
    if y.shape[0] < 2:
        raise ValueError(f"path length needs at least 2 grid points, got {y.shape[0]}")
    return float(np.abs(np.diff(y, axis=0)).sum())


def unwrap_angles(path: WaypointPath) -> WaypointPath:
    """Remove 2*pi jumps along the dimensions flagged angular.

    Each flagged dimension is shifted by integer multiples of 2*pi so that
    consecutive increments have magnitude at most pi. Unflagged dimensions
    pass through untouched; a path with no flags is returned as-is.
    """
    if path.angular is None or not any(path.angular):
        return path
    pts = path.waypoints.copy()
    for d, is_angle in enumerate(path.angular):
        if is_angle:
            pts[:, d] = np.unwrap(pts[:, d])
    return WaypointPath(pts, path.angular)


def arc_length_times(path: WaypointPath, duration: float) -> np.ndarray:
    """Timestamps proportional to cumulative Euclidean arc length.

    Waypoint ``i`` is placed at ``t_i = (s_i / S) * duration`` where ``s_i``
    is the cumulative joint-space distance along the path and ``S`` the
    total. The first timestamp is exactly 0 and the last exactly
    ``duration``.

    Raises
    ------
    DegeneratePathError
        If any segment has zero length (dedupe the path first) or the total
        arc length is zero.
    ConfigError
        If ``duration`` is not positive.
    """
    if not (duration > 0.0 and np.isfinite(duration)):
        raise ConfigError(f"duration must be positive and finite, got {duration}")
    seg = np.linalg.norm(np.diff(path.waypoints, axis=0), axis=1)
    if (seg == 0.0).any():
        raise DegeneratePathError(
            "zero-length segment between consecutive waypoints; dedupe the path first"
        )
    s = np.concatenate(([0.0], np.cumsum(seg)))
    total = s[-1]
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
    values = np.empty((grid.steps, path.dims))
    for d in range(path.dims):
        values[:, d] = np.interp(grid_times, t, path.waypoints[:, d])
    return Trajectory(grid, values)


def write_csv(path: str, header, rows) -> None:
    """Write ``header`` and ``rows`` as CSV to ``<path>.tmp``, then rename it
    onto ``path`` (no fsync). A failure, such as a cell that fails to format
    as ``rows`` is consumed, keeps the previous file and removes the temporary."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def write_trajectory_csv(traj: Trajectory, path: str) -> None:
    write_csv(
        path,
        ["t"] + [f"dim{d}" for d in range(traj.dims)],
        ([f"{t:.17g}"] + [f"{v:.17g}" for v in row] for t, row in zip(traj.times(), traj.values)),
    )


def read_trajectory_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a trajectory CSV back as ``(times, values)`` arrays.

    Expects the header written by :func:`write_trajectory_csv`. Full
    double precision survives the round trip.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or rows[0][0] != "t":
        raise ConfigError(f"{path}: expected header starting with 't'")
    dims = len(rows[0]) - 1
    if dims < 1 or rows[0][1:] != [f"dim{d}" for d in range(dims)]:
        raise ConfigError(f"{path}: malformed trajectory header {rows[0]}")
    try:
        data = np.array([[float(cell) for cell in row] for row in rows[1:]])
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric trajectory row: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != dims + 1:
        raise ConfigError(f"{path}: inconsistent column count")
    return data[:, 0], data[:, 1:]


def load_waypoints(path: str) -> np.ndarray:
    """Read a waypoint CSV: one configuration per row, optional header.

    The first row is skipped when any of its cells fails to parse as a
    number. All remaining rows must share one column count.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
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
