"""Hot numeric kernels: the third-difference stencil and its mean, per-step
box penetration and batched trajectory scoring.

The kernels vectorize over the batch axis with numpy. They read the boxes
from a :class:`BoxTable`, which :func:`box_table` builds once per time grid
from a float64 array of shape ``(n_boxes, 4)`` with columns ``t_lo, t_hi,
y_lo, y_hi``. The table splits the grid columns that some box covers into
segments, the maximal runs of columns that the same boxes cover. A batch's
penetration runs one pass per box of a segment over a contiguous copy of
its columns, with the box's y-interval as two 0-d views of the dense
slots; one path's runs one pass over all the dense slots, which costs
about half as much for a single row. Containment is closed on all faces
and the penetration depth at a face is 0, which keeps the score
continuous. Both passes score every point as
``environment.penetration_step`` does, byte for byte: +0.0 in no box's
interior. Batch scoring computes the jerk stencil only for the rows it
scores by jerk, the collision-free ones.

One row and a batch take separate paths, selected by B = 1. A batch of
B >= 2 rows runs its passes in a :class:`Workspace` of 64-byte-aligned
buffers and allocates no (B, m) array: a run builds one and hands it down
as ``work``; a batch that arrives without one builds one at its entry,
but a jerk pass takes the row slices. One row uses no workspace.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError

BACKEND = "numpy"

# The penetration passes' zero, 0-d like the box faces: numpy converts a
# Python float operand on every ufunc call, and takes a 0-d array as is.
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


class BoxTable(NamedTuple):
    """Boxes over one time grid.

    ``lo`` and ``hi`` are the only store of the box faces, dense over the
    grid's columns: slot j of column k holds ``[lo[j, k], hi[j, k]]``, the
    j-th box covering that column, and slots no box uses hold the empty
    interval [1, -1]. The rules that read one path or column at a time
    index them: the one-path penetration pass, the baselines' feasibility
    comparison and CHOMP's outward normal.

    ``segments`` lists, in column order, the maximal runs of columns that
    one set of boxes covers, as ``(columns, slots)``: ``columns`` is the
    run's ``slice`` of the grid and ``slots`` the ``(y_lo, y_hi)`` of its
    boxes in box order, as read-only 0-d views of the used dense slots of
    its first column. Columns in no segment lie in no box.
    """

    lo: np.ndarray
    hi: np.ndarray
    segments: tuple[tuple[slice, tuple[tuple[np.ndarray, np.ndarray], ...]], ...]


def box_table(times: np.ndarray, boxes: np.ndarray) -> BoxTable:
    """The :class:`BoxTable` of ``boxes`` (n, 4) over grid ``times`` (m,)."""
    covers = (times >= boxes[:, 0:1]) & (times <= boxes[:, 1:2])
    slot = np.cumsum(covers, axis=0) - 1
    box, col = np.nonzero(covers)
    # Unused slots hold the empty interval [1, -1]: min(v - 1, -1 - v) <= -1
    # for every finite v, and finite ends never give inf - inf.
    lo = np.full((int(slot.max(initial=-1)) + 1, times.size), 1.0)
    hi = np.full_like(lo, -1.0)
    lo[slot[box, col], col] = boxes[box, 2]
    hi[slot[box, col], col] = boxes[box, 3]
    lo.flags.writeable = hi.flags.writeable = False
    # A run starts at column 0 and wherever the covering boxes change; the
    # runs some box covers are the segments, whose slots view the used
    # dense slots of their first column.
    starts = np.flatnonzero(np.concatenate(([True], (covers[:, 1:] != covers[:, :-1]).any(axis=0))))
    runs = zip(starts.tolist(), [*starts[1:].tolist(), times.size], covers[:, starts].sum(axis=0).tolist())
    segments = tuple(
        (slice(start, stop), tuple((lo[j, start, ...], hi[j, start, ...]) for j in range(n)))
        for start, stop, n in runs
        if n
    )
    return BoxTable(lo, hi, segments)


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
    batch pass as ``work``, and a batch pass called without one builds its
    own, but a jerk pass takes the row slices; each pass overwrites what
    it reads, so no value carries from one batch to the next. It is not
    shared between runs or threads. A numpy pass into a buffer that is not
    64-byte aligned takes about twice as long, and a fresh array lands at
    whatever 16-byte offset the allocator returns.

    - ``normals`` (rows, width): the sampler's standard normals, for a
      width-r factor; width 0 when the normals are drawn straight into
      ``perturbations`` (MPPI's Wiener increments);
    - ``perturbations`` and ``candidates`` (rows, steps);
    - ``profile`` (rows, steps): the penetration profile, built with 0.0,
      which the batch pass keeps in the columns of no segment, so that it
      writes only the segments' columns; it is the array the pass returns,
      so callers only read it;
    - ``segments``: per segment of ``table``, the (rows, w) views for its
      contiguous copy and its depth and two differences, w its width;
    - ``selected`` (rows, steps): the collision-free rows batch scoring
      scores by jerk; ``stencil`` and ``stencil_tmp`` (rows * steps,): the
      flattened jerk pass's windows and its one temporary.

    ``table`` None serves a batch that no box covers or that runs no
    penetration pass. Raises MemoryError naming the bytes when the buffers
    do not fit in memory.
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


def plus_rows(row: np.ndarray, batch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``row[None, :] + batch`` into ``out``: the row copied into every row
    of ``out``, then the batch added in place. The sums are the same; a
    ufunc that broadcasts the row allocates a buffer of up to 64 KiB on
    every call instead, and takes longer."""
    out[...] = row
    out += batch
    return out


def penetration_profile_batch(values: np.ndarray, table: BoxTable, *, work: Workspace | None = None) -> np.ndarray:
    """Per-step penetration score for a batch of 1-D trajectories.

    ``values`` has shape (B, m) on the grid ``table`` was built for; returns
    (B, m) with entries <= 0. A point inside several boxes takes the most
    negative per-box depth; NaN and infinite values lie in no box. Every
    entry is ``environment.penetration_step`` of its point byte for byte:
    a point in no box's interior scores +0.0.

    One row (B = 1) takes one pass over the dense slots into a new array
    and reads no ``work``; a batch takes the per-segment passes in its
    workspace. The segments cost a few numpy calls per box whatever B is,
    which one row cannot amortize: on the narrow passage the dense pass
    makes 6 numpy calls against the segments' 24 and takes about half
    their time for one row, while a 100-row batch runs faster through the
    segments. Both passes take the same maximum of the same per-box
    depths, which is exact in any order, and score it ``0 - fmax(depth,
    0)``, which is +0.0 whichever zero ``fmax`` returns, so a row scores
    the same byte for byte alone or in any batch.

    A batch's result is ``work.profile``, which the next call overwrites.
    ``work`` must be built for ``values``' shape and ``table`` (else
    ConfigError); without it the call builds one.
    """
    if values.shape[0] == 1:
        # One path: one pass over the dense slots, where the empty slots
        # give depths <= -1.
        if not table.segments:
            return np.zeros(values.shape)
        v = values[0]
        depth = np.maximum.reduce(np.minimum(v - table.lo, table.hi - v), axis=0)
        return np.subtract(_ZERO, np.fmax(depth, _ZERO, out=depth), out=depth)[None]
    work = Workspace(*values.shape, table=table) if work is None else work
    work.check(values, table)
    # The segments overwrite all but the columns in no box, which hold
    # the profile's zeros from its build.
    for (columns, slots), (copy, deepest, a, b) in zip(table.segments, work.segments):
        # One box at a time over the segment's columns, contiguous (a copy
        # unless the segment spans the row): the deepest containment per
        # point, negative in no box and NaN for a NaN value.
        v = values[:, columns]
        if not v.flags.c_contiguous:
            copy[...] = v
            v = copy
        lo, hi = slots[0]
        depth = np.minimum(np.subtract(v, lo, out=deepest), np.subtract(hi, v, out=a), out=deepest)
        for lo, hi in slots[1:]:
            np.maximum(depth, np.minimum(np.subtract(v, lo, out=a), np.subtract(hi, v, out=b), out=a), out=depth)
        # fmax maps negative depths and NaN to 0. Subtracted from zero in
        # place, then copied: a ufunc writing into the strided columns would
        # allocate a buffer of their size.
        work.profile[:, columns] = np.subtract(_ZERO, np.fmax(depth, _ZERO, out=depth), out=depth)
    return work.profile


def third_difference(values: np.ndarray, out: np.ndarray | None = None, *, tmp: np.ndarray | None = None) -> np.ndarray:
    """``v[t+3] - 3 v[t+2] + 3 v[t+1] - v[t]`` along the last axis, which
    has ``n - 3`` windows for ``n`` points: the jerk stencil every method
    scores with. Evaluated as ``((v3 - 3 v2) + 3 v1) - v0`` into one output
    buffer, ``out`` if given, from one pass ``t = 3 v`` into ``tmp`` (or
    a new array) over the ``n - 2`` interior points, the only ones a 3 v
    term reads, so the end points cannot overflow."""
    t = np.multiply(values[..., 1:-1], 3.0, out=tmp)
    out = np.subtract(values[..., 3:], t[..., 1:], out=out)
    out += t[..., :-1]
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
    A batch runs every (B, m) pass in ``work``, built for ``values``' shape
    and ``table`` (else ConfigError), or in one the call builds; one row
    reads no ``work``. The scores are a new array either way.
    """
    one = values.shape[0] == 1
    if not one:
        work = Workspace(*values.shape, table=table) if work is None else work
        work.check(values, table)
    if not table.segments:
        return _jerk_bonus(values, lambda_jerk, dt, work)
    s = _profile(values, table, work=work)
    # add.reduce / n is what .mean computes, without its Python wrapper.
    # A sum of finite entries <= 0 is negative exactly when one entry is:
    # adding zeros is exact, and a sum of negatives never rounds to 0.
    total = np.add.reduce(s, axis=1)
    free = total == 0.0
    scores = total / s.shape[1]
    if np.logical_or.reduce(free):
        if not one:
            rows = free.nonzero()[0]
            # mode "clip" (the rows are in range anyway) copies straight into
            # the output; the default mode copies through a buffer of its size.
            values = values.take(rows, axis=0, out=work.selected[: rows.size], mode="clip")
        scores[free] = _jerk_bonus(values, lambda_jerk, dt, work)
    return scores


def mean_abs_jerk(values: np.ndarray, dt: float, *, work: Workspace | None = None) -> np.ndarray | np.float64:
    """Mean |third difference| / dt^3 along the last axis: the sum over the
    ``n - 3`` windows, divided by their count, then by dt^3, which is what
    ``np.abs(d3).mean() / dt**3`` computes. A float for one path, an array
    of shape (B,) for a (B, m) batch. A C-contiguous float64 batch of B >= 2
    rows runs the flattened pass in ``work``, a :class:`Workspace` with at
    least as many values as the batch; without ``work``, and for one row,
    it takes the stencil over the row slices."""
    total = None
    batch = work is not None and values.ndim == 2 and values.shape[0] > 1 and values.shape[1] > 3
    if batch and values.dtype == np.float64 and values.flags.c_contiguous:
        total = _flat_abs_jerk_sums(values, work)
    if total is None or not np.isfinite(total).all():  # no work, one row, strided, or a window overflowed
        d3 = third_difference(values)
        total = np.add.reduce(np.abs(d3, out=d3), axis=-1)
    jerk = total / (values.shape[-1] - 3)
    jerk /= dt**3
    return jerk


def _flat_abs_jerk_sums(values: np.ndarray, work: Workspace) -> np.ndarray:
    """Row sums of |third difference| for a C-contiguous float64 (B, m)
    batch, m > 3, in ``work``'s stencil buffers.

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
    with np.errstate(all="ignore"):
        d3 = third_difference(values.reshape(n), out=work.stencil[: n - 3], tmp=work.stencil_tmp[: n - 2])
        np.abs(d3, out=d3)
        return np.add.reduce(work.stencil[:n].reshape(values.shape)[:, :-3], axis=1)


def _jerk_bonus(values: np.ndarray, lambda_jerk: float, dt: float, work: Workspace | None = None) -> np.ndarray:
    """exp(-lambda_jerk * mean |third difference| / dt^3) per row, evaluated
    in place in that order; ``work`` goes to :func:`mean_abs_jerk`."""
    jerk = mean_abs_jerk(values, dt, work=work)
    jerk *= -lambda_jerk
    return np.exp(jerk, out=jerk)
