"""Hot numeric kernels: the third-difference stencil and its mean, per-step
box penetration and batched trajectory scoring.

The kernels vectorize over the batch axis with numpy. They read the boxes
from a :class:`BoxTable`, which :func:`box_table` builds once per time grid
from a float64 array of shape ``(n_boxes, 4)`` with columns ``t_lo, t_hi,
y_lo, y_hi``. The table splits the covered grid columns into segments, the
maximal runs of columns that the same boxes cover. A batch's penetration
runs one pass per box of a segment over a contiguous copy of its columns,
with the box's y-interval as two scalars; one path's runs one pass over the
table's dense slots, which costs about half as much for a single row.
Containment is closed on all faces and the penetration depth at a face is
0, which keeps the score continuous. Batch scoring computes the jerk
stencil only for the rows it scores by jerk, the collision-free ones.

A :class:`Workspace` holds 64-byte-aligned buffers for one run's hot
passes. Given as ``work``, the batch passes write into it and allocate no
(B, m) array; without it they allocate their arrays through the same
statements.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

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
    one column or one path at a time (the one-path penetration pass, the
    baselines' feasibility comparison and CHOMP's outward normal): slot j
    of column ``c0 + k`` holds ``[lo[j, k], hi[j, k]]``, the j-th box
    covering that column, and slots no box uses hold an empty interval.
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


def _aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized float64 array of ``shape`` whose data starts on a
    64-byte boundary: a view into a block 7 values longer."""
    n = math.prod(shape)
    block = np.empty(n + 7)
    start = -block.__array_interface__["data"][0] % 64 // 8
    return block[start : start + n].reshape(shape)


class Workspace:
    """The buffers of one run's hot passes over a (rows, steps) batch, each
    float64 and starting on a 64-byte boundary.

    A run builds one before its first iteration and hands it to every
    batch pass as ``work``; each pass overwrites what it reads, so no value
    carries from one batch to the next. It is not shared between runs or
    threads. A numpy pass into a buffer that is not 64-byte aligned takes
    about twice as long, and a fresh array lands at whatever 16-byte offset
    the allocator returns.

    - ``normals`` (rows, width): the sampler's standard normals, for a
      width-r factor; width 0 when the normals are drawn straight into
      ``perturbations`` (MPPI's Wiener increments);
    - ``perturbations`` and ``candidates`` (rows, steps);
    - ``profile`` (rows, steps): the penetration profile, built with 0.0
      outside ``[c0, c1)`` of ``table`` and -0.0 inside, which the batch
      pass keeps, so that it writes only the segments' columns; it is the
      array the pass returns, so callers only read it;
    - ``segments``: per segment of ``table``, the (rows, w) views for its
      contiguous copy and its depth and two differences, w its width;
    - ``selected`` (rows, steps): the collision-free rows batch scoring
      scores by jerk; ``stencil`` and ``stencil_tmp`` (rows * steps,): the
      flattened jerk pass's windows and its one temporary.

    ``table`` None means no box covers the grid. Raises MemoryError naming
    the bytes when the buffers do not fit in memory.
    """

    def __init__(self, rows: int, steps: int, width: int = 0, table: BoxTable | None = None):
        segments = () if table is None else table.segments
        wide = max((columns.stop - columns.start for columns, _ in segments), default=0)
        self.shape = (rows, steps)
        self.table = table
        # the (rows, steps) buffers first: the largest fails soonest
        shapes = [self.shape] * 4 + [(rows * steps,)] * 2 + [(rows, width)] + [(rows * wide,)] * 4
        self.nbytes = 8 * sum(math.prod(shape) for shape in shapes)
        try:
            buffers = [_aligned(shape) for shape in shapes]
        except MemoryError:
            raise MemoryError(
                f"a workspace of {self.nbytes} bytes for {rows} rows of {steps} values does not fit in memory"
            ) from None
        self.perturbations, self.candidates, self.profile, self.selected = buffers[:4]
        self.stencil, self.stencil_tmp, self.normals = buffers[4:7]
        self.profile[...] = 0.0
        if table is not None:
            self.profile[:, table.c0 : table.c1] = -0.0
        self.segments = tuple(
            tuple(buf[: rows * (columns.stop - columns.start)].reshape(rows, -1) for buf in buffers[7:])
            for columns, _ in segments
        )

    def check(self, values: np.ndarray, table: BoxTable | None) -> None:
        """Raise ConfigError unless this workspace serves a batch of
        ``values``' shape over ``table``."""
        if values.shape != self.shape or table is not self.table:
            other = "" if table is self.table else " over another box table"
            raise ConfigError(f"a workspace built for a {self.shape} batch got a {values.shape} batch{other}")


_NO_SEGMENT_WORK = (None, None, None, None)


def _contiguous(x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``x`` if it is C-contiguous, else a C-contiguous copy, into ``out``
    if given."""
    if x.flags.c_contiguous:
        return x
    if out is None:
        return x.copy()
    out[...] = x
    return out


def plus_rows(row: np.ndarray, batch: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``row[None, :] + batch``, into ``out`` if given: the row copied into
    every row of the result, then the batch added in place. The sums are
    the same; a ufunc that broadcasts the row allocates a buffer of up to
    64 KiB on every call instead, and takes longer."""
    if out is None:
        out = np.empty(batch.shape)
    out[...] = row
    out += batch
    return out


def penetration_profile_batch(values: np.ndarray, table: BoxTable, *, work: Workspace | None = None) -> np.ndarray:
    """Per-step penetration score for a batch of 1-D trajectories.

    ``values`` has shape (B, m) on the grid ``table`` was built for; returns
    (B, m) with entries <= 0. A point inside several boxes takes the most
    negative per-box depth; NaN and infinite values lie in no box. A point
    in no box's interior scores -0.0 in the columns ``[c0, c1)`` and 0.0 in
    the others.

    One row (B = 1) takes one pass over the dense slots of ``[c0, c1)``, a
    batch the per-segment passes. The segments cost a few numpy calls per
    box whatever B is, which one row cannot amortize: on the narrow
    passage the dense pass makes 7 numpy calls against the segments' 24
    and takes about half their time for one row, while a 100-row batch
    runs faster through the segments. Both passes take the same maximum
    of the same per-box depths, which is exact in any order, so a row
    scores the same byte for byte alone or in any batch.

    ``work``, a :class:`Workspace` built for ``values``' shape and
    ``table`` (else ConfigError), takes every (B, m) array of the call: the
    result is its ``profile``, which the next call overwrites. Without it
    the call allocates them.
    """
    if work is None:
        s = np.zeros(values.shape)
    else:
        work.check(values, table)
        s = work.profile
    if table.c1 == table.c0:
        return s
    if values.shape[0] == 1:
        # One path: one pass over the dense slots of [c0, c1), where the
        # empty slots give depths <= -1 and the gap columns come out -0.0.
        v = values[0, table.c0 : table.c1]
        depth = np.maximum.reduce(np.minimum(v - table.lo, table.hi - v), axis=0)
        np.negative(np.fmax(depth, 0.0, out=depth), out=s[0, table.c0 : table.c1])
        return s
    # The segments overwrite all but the columns in no box; a workspace's
    # profile holds these zeros from its build.
    if work is None:
        s[:, table.c0 : table.c1] = -0.0
    buffers = [_NO_SEGMENT_WORK] * len(table.segments) if work is None else work.segments
    for (columns, slots), (copy, deepest, a, b) in zip(table.segments, buffers):
        # One box at a time over the segment's columns, contiguous (a copy
        # unless the segment spans the row): the deepest containment per
        # point, negative in no box and NaN for a NaN value.
        v = _contiguous(values[:, columns], copy)
        lo, hi = slots[0]
        depth = np.minimum(np.subtract(v, lo, out=deepest), np.subtract(hi, v, out=a), out=deepest)
        for lo, hi in slots[1:]:
            np.maximum(depth, np.minimum(np.subtract(v, lo, out=a), np.subtract(hi, v, out=b), out=a), out=depth)
        # fmax maps negative depths and NaN to 0. Negated in place, then
        # copied: a ufunc writing into the strided columns would allocate a
        # buffer of their size.
        s[:, columns] = np.negative(np.fmax(depth, 0.0, out=depth), out=depth)
    return s


def third_difference(values: np.ndarray, out: np.ndarray | None = None, *, tmp: np.ndarray | None = None) -> np.ndarray:
    """``v[t+3] - 3 v[t+2] + 3 v[t+1] - v[t]`` along the last axis, which
    has ``n - 3`` windows for ``n`` points: the jerk stencil every method
    scores with. Evaluated as ``((v3 - 3 v2) + 3 v1) - v0`` into one output
    buffer, ``out`` if given; ``tmp``, of the output's shape, takes the
    ``3 v1`` term, which is allocated without it."""
    out = np.multiply(values[..., 2:-1], 3.0, out=out)
    np.subtract(values[..., 3:], out, out=out)
    out += np.multiply(values[..., 1:-2], 3.0, out=tmp)
    return np.subtract(out, values[..., :-3], out=out)


# Scoring keeps its own reference, so rebinding the public name (as a
# per-layer profiler does) counts only the direct penetration checks.
_profile = penetration_profile_batch


def batch_scores(
    values: np.ndarray, table: BoxTable, lambda_jerk: float, dt: float, *, work: Workspace | None = None
) -> np.ndarray:
    """Mean penetration for colliding rows, exp(-lambda_jerk * mean
    |third finite difference| / dt^3) for collision-free ones; (B, m) -> (B,).

    The jerk is computed only for the collision-free rows, and a table that
    covers no column skips the penetration pass. Each row reduces along the
    contiguous last axis on its own, so a row scores the same in any batch.
    ``work``, a :class:`Workspace` built for ``values``' shape and
    ``table`` (else ConfigError), takes every (B, m) array of the call;
    the scores are a new array either way.
    """
    if table.c1 == table.c0:
        if work is not None:
            work.check(values, table)
        return _jerk_bonus(values, lambda_jerk, dt, work)
    s = _profile(values, table, work=work)  # checks the workspace
    # add.reduce / n is what .mean computes, without its Python wrapper.
    # A sum of finite entries <= 0 is negative exactly when one entry is:
    # adding zeros is exact, and a sum of negatives never rounds to 0.
    total = np.add.reduce(s, axis=1)
    free = total == 0.0
    scores = total / s.shape[1]
    if np.logical_or.reduce(free):
        rows = free.nonzero()[0]
        # mode "clip" (the rows are in range anyway) copies straight into
        # the output; the default mode copies through a buffer of its size.
        selected = values.take(rows, axis=0, out=None if work is None else work.selected[: rows.size], mode="clip")
        scores[free] = _jerk_bonus(selected, lambda_jerk, dt, work)
    return scores


def mean_abs_jerk(values: np.ndarray, dt: float, *, work: Workspace | None = None) -> np.ndarray | np.float64:
    """Mean |third difference| / dt^3 along the last axis: the sum over the
    ``n - 3`` windows, divided by their count, then by dt^3, which is what
    ``np.abs(d3).mean() / dt**3`` computes. A float for one path, an array
    of shape (B,) for a (B, m) batch. ``work``, a :class:`Workspace` with
    at least as many values as the batch, holds the flattened pass."""
    total = None
    if values.ndim == 2 and values.shape[1] > 3 and values.dtype == np.float64 and values.flags.c_contiguous:
        total = _flat_abs_jerk_sums(values, work)
    if total is None or not np.isfinite(total).all():  # 1-D, strided, or a window overflowed
        d3 = third_difference(values)
        total = np.add.reduce(np.abs(d3, out=d3), axis=-1)
    jerk = total / (values.shape[-1] - 3)
    jerk /= dt**3
    return jerk


def _flat_abs_jerk_sums(values: np.ndarray, work: Workspace | None) -> np.ndarray:
    """Row sums of |third difference| for a C-contiguous float64 (B, m)
    batch, m > 3, in ``work``'s stencil buffers if given.

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
    buf, tmp = (np.empty(n), None) if work is None else (work.stencil[:n], work.stencil_tmp[: n - 3])
    with np.errstate(all="ignore"):
        d3 = third_difference(values.reshape(n), out=buf[: n - 3], tmp=tmp)
        np.abs(d3, out=d3)
        return np.add.reduce(buf.reshape(values.shape)[:, :-3], axis=1)


def _jerk_bonus(values: np.ndarray, lambda_jerk: float, dt: float, work: Workspace | None = None) -> np.ndarray:
    """exp(-lambda_jerk * mean |third difference| / dt^3) per row, evaluated
    in place in that order."""
    jerk = mean_abs_jerk(values, dt, work=work)
    jerk *= -lambda_jerk
    return np.exp(jerk, out=jerk)
