"""Workloads, timed sweeps, output checks and machine facts for the nfgopt benchmark.

A workload is the packaged ``configs/narrow_passage.json`` with a few keys
overridden. An operation is one (method, seed) run; a sweep is one
``nfgopt.run_benchmark`` call over every method and seed of the workload.
"""

from __future__ import annotations

import copy
import csv
import hashlib
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

SEEDS_PER_SWEEP = 5

# Each entry overrides keys of the packaged config. Why each workload is here:
WORKLOADS = {
    # What users run: 4 methods x 5 seeds x 100 iterations, B=100, m=100.
    # Per-row Philox construction in the sampler dominates it.
    "narrow_passage": {},
    # Every scored row takes the collision-free jerk/exp branch of
    # batch_scores and CHOMP takes its smoothness-gradient branch; a
    # penetration-only change should not move it.
    "free_space": {"environment": "free-space"},
}

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

REL_TOL = 1e-9


def pin_blas_threads() -> None:
    """Make BLAS single-threaded in this process and every process it starts.

    Call before numpy is imported. With OpenBLAS's default of one thread per
    core, the (B, m) @ (m, m) smoothing product at m=100 runs either fast or
    about four times slower, chosen once per process, which moved whole runs.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def sweep_seeds(seed: int) -> list[int]:
    """Seed list of one sweep: seed 0 gives the packaged [0, 1, 2, 3, 4],
    any other seed a disjoint held-out set."""
    return [SEEDS_PER_SWEEP * seed + i for i in range(SEEDS_PER_SWEEP)]


def workload_config(name: str, seed: int, base: dict, output_dir: str) -> dict:
    """Raw JSON config of a workload, ready for ``nfgopt.parse_config``."""
    raw = copy.deepcopy(base)
    for key, value in WORKLOADS[name].items():
        if isinstance(value, dict):
            raw[key] = {**raw.get(key, {}), **value}
        else:
            raw[key] = value
    raw["seeds"] = sweep_seeds(seed)
    raw["output_dir"] = output_dir
    return raw


def timed_sweep(nfgopt, cfg, out_dir: str, parallel: int = 1) -> float:
    """Wall time of one ``run_benchmark`` call writing its artifacts to a
    fresh ``out_dir``."""
    shutil.rmtree(out_dir, ignore_errors=True)
    start = time.perf_counter()
    nfgopt.run_benchmark(cfg, parallel=parallel, out_dir=out_dir)
    return time.perf_counter() - start


@dataclass
class SweepCheck:
    """Outcome of checking every operation of one sweep."""

    attempted: int
    failures: list[str]
    records: list
    fingerprint: str
    nfg_points: int
    nfg_clear_points: int


def _record_mismatch(record, reference, rel_tol: float) -> str | None:
    def close(a, b):
        return abs(a - b) <= rel_tol * max(abs(a), abs(b))

    if record.success != reference.success:
        return f"success {record.success} != reference {reference.success}"
    if record.iterations_used != reference.iterations_used:
        return f"iterations_used {record.iterations_used} != reference {reference.iterations_used}"
    if not close(record.path_length, reference.path_length):
        return f"path_length {record.path_length!r} != reference {reference.path_length!r}"
    if (record.avg_jerk is None) != (reference.avg_jerk is None) or (
        record.avg_jerk is not None and not close(record.avg_jerk, reference.avg_jerk)
    ):
        return f"avg_jerk {record.avg_jerk!r} != reference {reference.avg_jerk!r}"
    return None


def records_fingerprint(path: str) -> str:
    """SHA-256 of records.csv with the runtime_s column dropped."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index("runtime_s")
    text = "\n".join(",".join(row[:col] + row[col + 1 :]) for row in rows) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def check_sweep(nfgopt, cfg, out_dir: str, reference: list | None, rel_tol: float = REL_TOL) -> SweepCheck:
    """Check every (method, seed) operation of a finished sweep.

    An operation fails when its record or trajectory is missing or
    non-finite, its start point is not 0, a point-by-point recheck of its
    ``final_trajectory.csv`` with ``penetration_step`` disagrees with its
    ``success`` flag, or its record differs from ``reference`` (``success``
    and ``iterations_used`` exactly, ``path_length`` and ``avg_jerk`` to a
    relative ``rel_tol``).
    """
    records_path = os.path.join(out_dir, "records.csv")
    records = nfgopt.read_records_csv(records_path)
    by_key = {(r.method, r.seed): r for r in records}
    ref = None if reference is None else {(r.method, r.seed): r for r in reference}
    failures = []
    attempted = 0
    nfg_points = nfg_clear = 0
    for spec in cfg.methods:
        for seed in cfg.seeds:
            attempted += 1
            problem, clear, points = _check_operation(nfgopt, cfg, out_dir, spec.name, seed, by_key, ref, rel_tol)
            if problem is not None:
                failures.append(f"{spec.name}/{seed}: {problem}")
            if spec.name == "nfg":
                nfg_points += points
                nfg_clear += clear
    return SweepCheck(
        attempted=attempted,
        failures=failures,
        records=records,
        fingerprint=records_fingerprint(records_path),
        nfg_points=nfg_points,
        nfg_clear_points=nfg_clear,
    )


def _check_operation(nfgopt, cfg, out_dir, method, seed, by_key, ref, rel_tol) -> tuple[str | None, int, int]:
    """Returns (problem or None, collision-free points, points)."""
    record = by_key.get((method, seed))
    if record is None:
        return "no record", 0, 0
    numbers = [record.runtime, record.path_length] + ([] if record.avg_jerk is None else [record.avg_jerk])
    if not all(math.isfinite(v) for v in numbers):
        return f"non-finite record {record}", 0, 0
    path = os.path.join(out_dir, method, str(seed), "final_trajectory.csv")
    try:
        times, values = nfgopt.read_trajectory_csv(path)
    except (OSError, nfgopt.ConfigError) as exc:
        return f"unreadable trajectory: {exc}", 0, 0
    if values.shape != (cfg.grid.steps, 1):
        return f"trajectory shape {values.shape}, expected ({cfg.grid.steps}, 1)", 0, 0
    if not (all(math.isfinite(t) for t in times) and all(math.isfinite(v) for v in values[:, 0])):
        return "non-finite trajectory value", 0, 0
    if values[0, 0] != 0.0:
        return f"start point {values[0, 0]!r} is not 0", 0, 0
    clear = sum(
        nfgopt.penetration_step(cfg.environment, float(t), float(y)) == 0.0
        for t, y in zip(times, values[:, 0])
    )
    points = len(times)
    if (clear == points) != record.success:
        return f"recheck says collision-free={clear == points}, record says success={record.success}", clear, points
    if ref is not None:
        reference = ref.get((method, seed))
        if reference is None:
            return "no reference record", clear, points
        mismatch = _record_mismatch(record, reference, rel_tol)
        if mismatch is not None:
            return mismatch, clear, points
    return None, clear, points


SETUP_PROBE = """
import sys, time
start = time.perf_counter()
import numpy as np
import nfgopt
cfg = nfgopt.load_config(sys.argv[1])
nfgopt.factorize(nfgopt.kernel_matrix(cfg.grid, cfg.kernel), cfg.reg)
nfgopt.batch_scores(cfg.environment, np.zeros((1, cfg.grid.steps)), cfg.grid.times(), cfg.grid.dt, cfg.score)
print(repr(time.perf_counter() - start))
"""


def setup_seconds(src_dir: str, config_path: str) -> float:
    """Time, inside a fresh interpreter, to import nfgopt, parse the config,
    build and factorize the kernel matrix and make the first scoring call."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src_dir, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, config_path],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def machine_facts(nfgopt) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "backend": nfgopt.BACKEND,
    }


def describe(values: list[float]) -> dict:
    """Median, upper percentile and sample count of a list of samples.

    The upper percentile is the highest one with at least ten samples
    beyond it; with ten samples or fewer there is none, and the maximum is
    reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        pct = 100.0 * (1.0 - 10.0 / n)
        upper = ordered[max(0, math.ceil(pct / 100.0 * n) - 1)]
        label = f"p{pct:.0f}"
    else:
        upper = ordered[-1]
        label = "max"
    return {"median": statistics.median(ordered), "upper": upper, "upper_label": label, "n": n}
