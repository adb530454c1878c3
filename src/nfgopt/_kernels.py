"""Hot numeric kernels: the third-difference stencil and its mean, per-step
box penetration and batched trajectory scoring.

The kernels vectorize over the batch axis with numpy. They read the boxes
from a :class:`BoxTable`, which :func:`box_table` builds once per time grid
from a float64 array of shape ``(n_boxes, 4)`` with columns ``t_lo, t_hi,
y_lo, y_hi``. The table splits the covered grid columns into segments, the
maximal runs of columns that the same boxes cover, and penetration runs one
pass per box of a segment over a contiguous copy of its columns, with the
box's y-interval as two scalars. Containment is closed on all faces and the
penetration depth at a face is 0, which keeps the score continuous. Batch
scoring computes the jerk stencil only for the rows it scores by jerk, the
collision-free ones.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

BACKEND = "numpy"


class BoxTable(NamedTuple):
    """Boxes over one time grid.

    Columns outside ``[c0, c1)`` lie in no box. ``segments`` lists, in
    column order, the maximal runs of columns that one set of boxes
    covers, as ``(columns, slots)``: ``columns`` is the run's ``slice`` of
    the grid and ``slots`` the ``(y_lo, y_hi)`` of its boxes, as floats in
    the order the boxes were given. The columns of ``[c0, c1)`` in no
    segment lie in no box either.

    ``lo`` and ``hi`` hold the same intervals densely, for rules that read
    one column or one path at a time: slot j of column ``c0 + k`` holds
    ``[lo[j, k], hi[j, k]]``, the j-th box covering that column, and slots
    no box uses hold an empty interval.
    """

    c0: int
    c1: int
    lo: np.ndarray
    hi: np.ndarray
    segments: tuple[tuple[slice, tuple[tuple[float, float], ...]], ...]


def box_table(times: np.ndarray, boxes: np.ndarray) -> BoxTable:
    """The :class:`BoxTable` of ``boxes`` (n, 4) over grid ``times`` (m,)."""
    covers = (times >= boxes[:, 0:1]) & (times <= boxes[:, 1:2])
    columns = np.flatnonzero(covers.any(axis=0))
    if columns.size == 0:
        return BoxTable(0, 0, np.empty((0, 0)), np.empty((0, 0)), ())
    c0, c1 = int(columns[0]), int(columns[-1]) + 1
    covers = covers[:, c0:c1]
    slot = np.cumsum(covers, axis=0) - 1
    box, col = np.nonzero(covers)
    # Unused slots hold the empty interval [1, -1]: min(v - 1, -1 - v) <= -1
    # for every finite v, and finite ends never give inf - inf.
    lo = np.full((int(slot.max()) + 1, c1 - c0), 1.0)
    hi = np.full_like(lo, -1.0)
    # A zero face is stored as -0.0 below and +0.0 above. Then neither
    # v - lo nor hi - v is ever -0.0, nor is any depth, and the penetration
    # pass's fmax never meets -0.0 and +0.0, for which numpy returns either
    # zero depending on the element's position in the array.
    lo[slot[box, col], col] = np.where(boxes[box, 2] == 0.0, -0.0, boxes[box, 2])
    hi[slot[box, col], col] = boxes[box, 3] + 0.0
    lo.flags.writeable = hi.flags.writeable = False
    # A run starts at c0 and wherever the covering boxes change; the runs
    # some box covers are the segments, and their slots are the used
    # dense slots of their first column.
    starts = np.flatnonzero(np.concatenate(([True], (covers[:, 1:] != covers[:, :-1]).any(axis=0))))
    runs = zip(
        starts.tolist(),
        [*starts[1:].tolist(), c1 - c0],
        covers[:, starts].sum(axis=0).tolist(),
        lo[:, starts].T.tolist(),
        hi[:, starts].T.tolist(),
    )
    segments = tuple(
        (slice(c0 + start, c0 + stop), tuple(zip(los[:n], his[:n]))) for start, stop, n, los, his in runs if n
    )
    return BoxTable(c0, c1, lo, hi, segments)


def penetration_profile_batch(values: np.ndarray, table: BoxTable) -> np.ndarray:
    """Per-step penetration score for a batch of 1-D trajectories.

    ``values`` has shape (B, m) on the grid ``table`` was built for; returns
    (B, m) with entries <= 0. A point inside several boxes takes the most
    negative per-box depth; NaN and infinite values lie in no box. A point
    in no box's interior scores -0.0 in the columns ``[c0, c1)`` and 0.0 in
    the others.
    """
    s = np.zeros(values.shape)
    if table.c1 == table.c0:
        return s
    # The segments overwrite all but the columns in no box.
    s[:, table.c0 : table.c1] = -0.0
    for columns, slots in table.segments:
        # One box at a time over the segment's columns, contiguous (a copy
        # unless B is 1): the deepest containment per point, negative in
        # no box and NaN for a NaN value.
        v = np.ascontiguousarray(values[:, columns])
        depth = None
        for lo, hi in slots:
            d = np.minimum(v - lo, hi - v)
            depth = d if depth is None else np.maximum(depth, d, out=depth)
        # fmax maps negative depths and NaN to 0.
        np.negative(np.fmax(depth, 0.0, out=depth), out=s[:, columns])
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
