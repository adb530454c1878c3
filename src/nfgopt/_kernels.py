"""Hot numeric kernels: the third-difference stencil and its mean, per-step
box penetration and batched trajectory scoring.

The kernels vectorize over the batch axis with numpy. They read the boxes
from a :class:`BoxTable`, which :func:`box_table` builds once per time grid
from a float64 array of shape ``(n_boxes, 4)`` with columns ``t_lo, t_hi,
y_lo, y_hi``. Per grid column the table holds the y-intervals of the boxes
whose closed t-range covers that column, in J slots (J is the most boxes
covering one column), so a penetration call costs a few array operations
per slot, each over (B, w) values for the w covered columns, whatever the
number of boxes. Containment is
closed on all faces and the penetration depth at a face is 0, which keeps
the score continuous. Batch scoring computes the jerk stencil only for the
rows it scores by jerk, the collision-free ones.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

BACKEND = "numpy"


class BoxTable(NamedTuple):
    """Boxes over one time grid.

    Slot j of grid column ``c0 + k`` holds the interval ``[lo[j, k], hi[j, k]]``
    of one box whose t-range covers that column; slots no box uses hold an
    empty interval. Columns outside ``[c0, c1)`` lie in no box.
    """

    c0: int
    c1: int
    lo: np.ndarray
    hi: np.ndarray


def box_table(times: np.ndarray, boxes: np.ndarray) -> BoxTable:
    """The :class:`BoxTable` of ``boxes`` (n, 4) over grid ``times`` (m,)."""
    covers = (times >= boxes[:, 0:1]) & (times <= boxes[:, 1:2])
    columns = np.flatnonzero(covers.any(axis=0))
    if columns.size == 0:
        return BoxTable(0, 0, np.empty((0, 0)), np.empty((0, 0)))
    c0, c1 = int(columns[0]), int(columns[-1]) + 1
    covers = covers[:, c0:c1]
    slot = np.cumsum(covers, axis=0) - 1
    box, col = np.nonzero(covers)
    # Unused slots hold the empty interval [1, -1]: min(v - 1, -1 - v) <= -1
    # for every finite v, and finite ends never give inf - inf.
    lo = np.full((int(slot.max()) + 1, c1 - c0), 1.0)
    hi = np.full_like(lo, -1.0)
    lo[slot[box, col], col] = boxes[box, 2]
    hi[slot[box, col], col] = boxes[box, 3]
    lo.flags.writeable = hi.flags.writeable = False
    return BoxTable(c0, c1, lo, hi)


def penetration_profile_batch(values: np.ndarray, table: BoxTable) -> np.ndarray:
    """Per-step penetration score for a batch of 1-D trajectories.

    ``values`` has shape (B, m) on the grid ``table`` was built for; returns
    (B, m) with entries <= 0. A point inside several boxes takes the most
    negative per-box depth; NaN and infinite values lie in no box.
    """
    c0, c1, lo, hi = table
    if c1 == c0:
        return np.zeros(values.shape)
    # One slot at a time on a contiguous copy of the covered columns, with
    # (B, w) temporaries: the deepest containment per point, negative in no
    # box and NaN for a NaN value. The maximum over slots is exact, so the
    # order of the slots does not change it.
    v = values[:, c0:c1].copy()
    depth = np.minimum(v - lo[0], hi[0] - v)
    for j in range(1, lo.shape[0]):
        np.maximum(depth, np.minimum(v - lo[j], hi[j] - v), out=depth)
    # Allocated after the slot temporaries are freed, so it reuses their
    # heap space: without bench's 1 MiB warm-up block (bench._warm_kernels),
    # a packaged sweep takes about 150 minor page faults in this order and
    # 180 with the result allocated first (2-core VM).
    s = np.zeros(values.shape)
    # fmax maps negative depths and NaN to 0.
    np.negative(np.fmax(depth, 0.0, out=depth), out=s[:, c0:c1])
    return s


def third_difference(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``v[t+3] - 3 v[t+2] + 3 v[t+1] - v[t]`` along the last axis, which
    has ``n - 3`` windows for ``n`` points: the jerk stencil every method
    scores with. Evaluated as ``((v3 - 3 v2) + 3 v1) - v0`` into one output
    buffer, ``out`` if given."""
    out = np.multiply(values[..., 2:-1], 3.0, out=out)
    np.subtract(values[..., 3:], out, out=out)
    out += np.multiply(values[..., 1:-2], 3.0)
    return np.subtract(out, values[..., :-3], out=out)


# Scoring keeps its own reference, so rebinding the public name (as a
# per-layer profiler does) counts only the direct penetration checks.
_profile = penetration_profile_batch


def batch_scores(values: np.ndarray, table: BoxTable, lambda_jerk: float, dt: float) -> np.ndarray:
    """Mean penetration for colliding rows, exp(-lambda_jerk * mean
    |third finite difference| / dt^3) for collision-free ones; (B, m) -> (B,).

    The jerk is computed only for the collision-free rows, and a table that
    covers no column skips the penetration pass. Each row reduces along the
    contiguous last axis on its own, so a row scores the same in any batch.
    """
    if table.c1 == table.c0:
        return _jerk_bonus(values, lambda_jerk, dt)
    s = _profile(values, table)
    # add.reduce / n is what .mean computes, without its Python wrapper.
    # A sum of finite entries <= 0 is negative exactly when one entry is:
    # adding zeros is exact, and a sum of negatives never rounds to 0.
    total = np.add.reduce(s, axis=1)
    free = total == 0.0
    scores = total / s.shape[1]
    if np.logical_or.reduce(free):
        scores[free] = _jerk_bonus(values[free], lambda_jerk, dt)
    return scores


def mean_abs_jerk(values: np.ndarray, dt: float) -> np.ndarray | np.float64:
    """Mean |third difference| / dt^3 along the last axis: the sum over the
    ``n - 3`` windows, divided by their count, then by dt^3, which is what
    ``np.abs(d3).mean() / dt**3`` computes. A float for one path, an array
    of shape (B,) for a (B, m) batch."""
    total = None
    if values.ndim == 2 and values.shape[1] > 3 and values.dtype == np.float64 and values.flags.c_contiguous:
        total = _flat_abs_jerk_sums(values)
    if total is None or not np.isfinite(total).all():  # 1-D, strided, or a window overflowed
        d3 = third_difference(values)
        total = np.add.reduce(np.abs(d3, out=d3), axis=-1)
    jerk = total / (values.shape[-1] - 3)
    jerk /= dt**3
    return jerk


def _flat_abs_jerk_sums(values: np.ndarray) -> np.ndarray:
    """Row sums of |third difference| for a C-contiguous float64 (B, m)
    batch, m > 3.

    The stencil and |.| run as 1-D passes over the flattened batch, which
    numpy does about 3x faster per element than over (B, m - 3) row slices.
    Each window within a row gets the same operations as in
    :func:`third_difference`, and the sum reduces the same contiguous
    (m - 3) values per row, so every finite sum is bit-identical. The
    windows that straddle two rows are computed too and never read; they
    may overflow, so the passes ignore floating-point errors. A window
    within a row that overflows or is invalid leaves its row's sum inf or
    NaN, and the caller then recomputes the batch row by row, which raises
    the same warnings as ever.
    """
    n = values.size
    buf = np.empty(n)
    with np.errstate(all="ignore"):
        d3 = third_difference(values.reshape(n), out=buf[: n - 3])
        np.abs(d3, out=d3)
        return np.add.reduce(buf.reshape(values.shape)[:, :-3], axis=1)


def _jerk_bonus(values: np.ndarray, lambda_jerk: float, dt: float) -> np.ndarray:
    """exp(-lambda_jerk * mean |third difference| / dt^3) per row, evaluated
    in place in that order."""
    jerk = mean_abs_jerk(values, dt)
    jerk *= -lambda_jerk
    return np.exp(jerk, out=jerk)
