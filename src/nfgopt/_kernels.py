"""Hot numeric kernels: the third-difference stencil, per-step box
penetration and batched trajectory scoring.

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


def third_difference(values: np.ndarray) -> np.ndarray:
    """``v[t+3] - 3 v[t+2] + 3 v[t+1] - v[t]`` along the last axis, which
    has ``n - 3`` windows for ``n`` points: the jerk stencil every method
    scores with. Evaluated as ``((v3 - 3 v2) + 3 v1) - v0`` into one output
    buffer."""
    out = np.multiply(values[..., 2:-1], 3.0)
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


def _jerk_bonus(values: np.ndarray, lambda_jerk: float, dt: float) -> np.ndarray:
    """exp(-lambda_jerk * mean |third difference| / dt^3) per row, evaluated
    in place in that order."""
    d3 = third_difference(values)
    jerk = np.add.reduce(np.abs(d3, out=d3), axis=1) / d3.shape[1]
    jerk /= dt**3
    jerk *= -lambda_jerk
    return np.exp(jerk, out=jerk)
