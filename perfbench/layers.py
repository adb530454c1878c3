"""Per-layer tracing of nfgopt from outside the package.

The tracer wraps nfgopt's public functions at every place their name is
bound, so a call made through any of those bindings records one span
(name, start, end, parent). Spans and counters stay in memory. A span's
self time is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import csv
import functools
import os
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """In-memory spans and counters of one traced interval."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = {}
        self._open: list[int] = []

    def wrap(self, fn, name: str, observe=None):
        """``fn`` recording a span per call; ``observe(tracer, result, args, seconds)``
        runs after the span has ended."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else None])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.spans[index][2] = perf_counter()
                self._open.pop()
            if observe is not None:
                observe(self, result, args, end - self.spans[index][1])
            return result

        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total_s and self_s."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - children
        return out


@contextmanager
def installed(tracer: Tracer, sites):
    """Patch every (owner, attribute) of ``sites`` with a traced wrapper and
    restore the originals on exit. ``sites`` holds (span name, observe,
    [(owner, attribute), ...])."""
    originals = []
    try:
        for name, observe, bindings in sites:
            for owner, attr in bindings:
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, tracer.wrap(fn, name, observe))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


def _run_time_by_method(tracer, result, args, seconds):
    tracer.counts[f"run_s.{args[0].name}"] += seconds


def run_timer_sites():
    """The one site timed in untraced sweeps: each run's wall time, summed
    per method."""
    from nfgopt import bench

    return [("bench.run_single", _run_time_by_method, [(bench, "run_single")])]


def _rows(counter):
    def observe(tracer, result, args, seconds):
        tracer.counts[counter] += result.shape[0]

    return observe


def _smoothing_flops(tracer, result, args, seconds):
    count, m = result.shape
    tracer.counts["sampling.smooth.flop"] += 2 * count * m * m


def _scored_rows(tracer, result, args, seconds):
    tracer.counts["environment.batch_scores.rows"] += result.shape[0]
    # collision-free rows score in (0, 1]; colliding rows score <= 0
    tracer.counts["environment.batch_scores.feasible_rows"] += int((result > 0.0).sum())


def _effective_sample_size(tracer, result, args, seconds):
    total = float(result.sum())
    tracer.samples.setdefault("nfg.ess_frac", []).append(
        total * total / float((result * result).sum()) / result.shape[0]
    )


def _bytes_written(counter, path_arg):
    def observe(tracer, result, args, seconds):
        tracer.counts[counter] += os.path.getsize(args[path_arg])

    return observe


def layer_sites():
    """Every traced layer with the places its function is bound."""
    from nfgopt import _kernels, baselines, bench, environment, nfg, sampling, trajectory

    sampler = sampling.PerturbationSampler
    return [
        ("sampling.normals", _rows("sampling.normals.rows"), [(sampler, "normals")]),
        ("sampling.sample", _smoothing_flops, [(sampler, "sample")]),
        ("sampling.factorize", None, [(sampling, "factorize"), (bench, "factorize")]),
        (
            "environment.batch_scores",
            _scored_rows,
            [(environment, "batch_scores"), (nfg, "batch_scores"), (baselines, "batch_scores"), (bench, "batch_scores")],
        ),
        (
            "kernels.penetration_profile_batch",
            _rows("kernels.penetration_profile_batch.rows"),
            [(_kernels, "penetration_profile_batch")],
        ),
        (
            "environment.penetration_profile",
            None,
            [(environment, "penetration_profile"), (nfg, "penetration_profile"), (bench, "penetration_profile")],
        ),
        ("nfg.optimize_objective", None, [(nfg, "optimize_objective")]),
        ("nfg.estimate_direction", None, [(nfg, "estimate_direction")]),
        ("nfg.batch_weights", _effective_sample_size, [(nfg, "batch_weights")]),
        ("baselines.stomp_optimize", None, [(baselines, "stomp_optimize"), (bench, "stomp_optimize")]),
        ("baselines.chomp_optimize", None, [(baselines, "chomp_optimize"), (bench, "chomp_optimize")]),
        ("baselines.mppi_optimize", None, [(baselines, "mppi_optimize"), (bench, "mppi_optimize")]),
        ("baselines.wiener_noise", None, [(baselines, "wiener_noise")]),
        ("baselines.chomp_gradient", None, [(baselines, "chomp_gradient")]),
        (
            "trajectory.write_trajectory_csv",
            _bytes_written("trajectory.write_trajectory_csv.bytes", 1),
            [(trajectory, "write_trajectory_csv"), (bench, "write_trajectory_csv")],
        ),
        ("bench.write_trace_csv", _bytes_written("bench.write_trace_csv.bytes", 0), [(bench, "write_trace_csv")]),
        ("bench.write_records_csv", None, [(bench, "write_records_csv")]),
    ] + run_timer_sites()


def first_feasible_iter(trace_path: str) -> int:
    """Iteration of the first trace row whose mean was feasible; a run that
    never became feasible counts as its number of rows."""
    with open(trace_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        if row["feasible"] == "true":
            return int(row["iter"])
    return len(rows)


def layer_metrics(tracer: Tracer, out_dir: str, seeds) -> dict[str, float]:
    """Per-layer metrics of one traced sweep whose artifacts are in ``out_dir``."""
    spans = tracer.summary()
    counts = tracer.counts

    def self_s(name):
        return spans[name]["self_s"]

    def total_s(name):
        return spans[name]["total_s"]

    return {
        "sampling.normals.rows": counts["sampling.normals.rows"],
        "sampling.normals.self_s": self_s("sampling.normals"),
        "sampling.sample.total_s": total_s("sampling.sample"),
        "sampling.smooth.self_s": self_s("sampling.sample"),
        "sampling.smooth.gflop": counts["sampling.smooth.flop"] / 1e9,
        "sampling.factorize_s": total_s("sampling.factorize"),
        "environment.batch_scores.rows": counts["environment.batch_scores.rows"],
        "environment.batch_scores.self_s": self_s("environment.batch_scores"),
        "environment.batch_scores.feasible_frac": counts["environment.batch_scores.feasible_rows"]
        / counts["environment.batch_scores.rows"],
        "kernels.penetration_profile_batch.rows": counts["kernels.penetration_profile_batch.rows"],
        "kernels.penetration_profile_batch.self_s": self_s("kernels.penetration_profile_batch"),
        "environment.penetration_profile.calls": spans["environment.penetration_profile"]["calls"],
        "nfg.estimate_direction.self_s": self_s("nfg.estimate_direction"),
        "nfg.batch_weights.self_s": self_s("nfg.batch_weights"),
        "nfg.optimize_objective.self_s": self_s("nfg.optimize_objective"),
        "nfg.ess_frac": statistics.median(tracer.samples["nfg.ess_frac"]),
        "nfg.first_feasible_iter": statistics.median(
            first_feasible_iter(os.path.join(out_dir, "nfg", str(seed), "trace.csv")) for seed in seeds
        ),
        "baselines.stomp_optimize.self_s": self_s("baselines.stomp_optimize"),
        "baselines.mppi_optimize.self_s": self_s("baselines.mppi_optimize"),
        "baselines.wiener_noise.self_s": self_s("baselines.wiener_noise"),
        "baselines.chomp_optimize.total_s": total_s("baselines.chomp_optimize"),
        "baselines.chomp_gradient.self_s": self_s("baselines.chomp_gradient"),
        "trajectory.write_trajectory_csv.s": total_s("trajectory.write_trajectory_csv"),
        "trajectory.write_trajectory_csv.bytes": counts["trajectory.write_trajectory_csv.bytes"],
        "bench.write_trace_csv.s": total_s("bench.write_trace_csv"),
        "bench.write_trace_csv.bytes": counts["bench.write_trace_csv.bytes"],
        "bench.write_records_csv.s": total_s("bench.write_records_csv"),
        "bench.run_single.self_s": self_s("bench.run_single"),
    }
