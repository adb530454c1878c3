"""Hot numeric kernels: the third-difference stencil, per-step box
penetration and batched trajectory scoring.

The kernels vectorize over the batch axis with numpy. They read the boxes
from a :class:`BoxTable`, which :func:`box_table` builds once per time grid
from a float64 array of shape ``(n_boxes, 4)`` with columns ``t_lo, t_hi,
y_lo, y_hi``. Per grid column the table holds the y-intervals of the boxes
whose closed t-range covers that column, so a penetration call costs a
fixed few array operations whatever the number of boxes. Containment is
closed on all faces and the penetration depth at a face is 0, which keeps
the score continuous.
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
        return np.zeros_like(values)
    v = values[:, None, c0:c1]
    # Deepest containment per point: negative in no box, NaN for a NaN
    # value, and fmax maps both to 0.
    depth = np.minimum(v - lo, hi - v).max(axis=1)
    # Allocated after the (B, J, w) temporaries are freed. Allocated before
    # them, it leaves them at the top of the heap, where glibc's malloc
    # returns their pages on free and faults them back in on the next call:
    # 82 page faults and 2.7x the time per B=100 call on a 2-core VM.
    s = np.zeros_like(values)
    np.negative(np.fmax(depth, 0.0, out=depth), out=s[:, c0:c1])
    return s


def third_difference(values: np.ndarray) -> np.ndarray:
    """``v[t+3] - 3 v[t+2] + 3 v[t+1] - v[t]`` along the last axis, which
    has ``n - 3`` windows for ``n`` points: the jerk stencil every method
    scores with."""
    return values[..., 3:] - 3.0 * values[..., 2:-1] + 3.0 * values[..., 1:-2] - values[..., :-3]


# Scoring keeps its own reference, so rebinding the public name (as a
# per-layer profiler does) counts only the direct penetration checks.
_profile = penetration_profile_batch


def batch_scores(values: np.ndarray, table: BoxTable, lambda_jerk: float, dt: float) -> np.ndarray:
    """Mean penetration for colliding rows, exp(-lambda_jerk * mean
    |third finite difference| / dt^3) for collision-free ones; (B, m) -> (B,)."""
    s = _profile(values, table)
    colliding = (s < 0.0).any(axis=1)
    penalty = s.mean(axis=1)
    bonus = np.exp(-lambda_jerk * (np.abs(third_difference(values)).mean(axis=1) / dt**3))
    return np.where(colliding, penalty, bonus)
