"""Seeded multi-method benchmark orchestration.

A single JSON config fully determines a benchmark: environment, grid,
kernel, scoring, methods with their parameters, and seeds. Every
(method, seed) pair runs independently with its own derived RNG lineage,
so runs may execute in any order or in parallel without changing results;
wall-clock runtime is the only nondeterministic output.

Outputs under the configured directory:

* ``records.csv``: one row per run.
* ``summary.csv``: per-method aggregates (success rate, mean/std runtime,
  path length and jerk over successful runs).
* ``<method>/<seed>/trace.csv`` and ``final_trajectory.csv`` per run.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
import time
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .baselines import (
    ChompConfig,
    MppiConfig,
    StompConfig,
    chomp_optimize,
    mppi_optimize,
    stomp_optimize,
)
from .environment import (
    BoxEnvironment,
    ScoreConfig,
    batch_scores,
    penetration_profile,
    trajectory_score,
)
from .errors import ConfigError, DegeneratePathError
from .nfg import IterationTrace, NfgConfig, optimize
from .sampling import CovarianceFactor, PerturbationSampler, SEKernel, factorize, kernel_matrix
from .trajectory import (
    TimeGrid,
    Trajectory,
    WaypointPath,
    arc_length_times,
    average_abs_jerk,
    load_waypoints,
    path_length,
    resample,
    unwrap_angles,
    write_trajectory_csv,
)

RECORD_FIELDS = ("method", "seed", "success", "runtime_s", "path_length", "avg_jerk", "iterations_used")

SUMMARY_FIELDS = (
    "method",
    "success_rate",
    "time_mean",
    "time_std",
    "path_length_mean",
    "path_length_std",
    "avg_jerk_mean",
    "avg_jerk_std",
)


@dataclass(frozen=True)
class MethodSpec:
    name: str
    params: dict

    def __post_init__(self) -> None:
        if self.name not in METHODS:
            raise ConfigError(f"unknown method {self.name!r}; known methods: {', '.join(METHODS)}")


@dataclass(frozen=True)
class BenchConfig:
    environment: BoxEnvironment
    grid: TimeGrid
    kernel: SEKernel
    reg: float
    score: ScoreConfig
    methods: tuple[MethodSpec, ...]
    seeds: tuple[int, ...]
    output_dir: str

    def __post_init__(self) -> None:
        if not self.methods:
            raise ConfigError("config needs at least one method")
        if not self.seeds:
            raise ConfigError("config needs at least one seed")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate method names in config: {names}")


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one (method, seed) run.

    ``avg_jerk`` is present exactly when the run succeeded: jerk of a
    colliding trajectory is not a meaningful smoothness figure.
    """

    method: str
    seed: int
    success: bool
    runtime: float
    path_length: float
    avg_jerk: float | None
    iterations_used: int

    def __post_init__(self) -> None:
        if self.success != (self.avg_jerk is not None):
            raise ValueError("avg_jerk must be present exactly for successful runs")


def _require(mapping: dict, allowed: dict, where: str) -> dict:
    """Pick known keys with defaults; reject unknown ones."""
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")
    merged = dict(allowed)
    merged.update(mapping)
    return merged


def _typed(value, hint, where: str):
    """``value`` checked against the type ``hint``, never coerced except
    that an int is accepted, as a float, where a float is expected. JSON
    lists stand for tuples."""
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    options = typing.get_args(hint) if union else (hint,)
    for option in options:
        if option is type(None) and value is None:
            return None
        if option is bool and isinstance(value, bool):
            return value
        if option is str and isinstance(value, str):
            return value
        if option in (int, float) and isinstance(value, int) and not isinstance(value, bool):
            return option(value)
        if option is float and isinstance(value, float):
            return value
        if typing.get_origin(option) is tuple and isinstance(value, (list, tuple)):
            item = typing.get_args(option)[0]
            return tuple(_typed(v, item, f"{where}[{i}]") for i, v in enumerate(value))
    name = hint.__name__ if isinstance(hint, type) else str(hint)
    raise ConfigError(f"{where} must be {name}, got {value!r}")


def _from_fields(cls, params: dict, where: str, defaults: dict | None = None):
    """Build dataclass ``cls`` from JSON ``params``: its init fields are the
    allowed keys, ``defaults`` and then its own defaults fill the missing
    ones, and each value must have its field's type."""
    if not isinstance(params, dict):
        raise ConfigError(f"{where} must be an object, got {params!r}")
    params = {**(defaults or {}), **params}
    hints = typing.get_type_hints(cls)
    allowed = sorted(f.name for f in dataclasses.fields(cls) if f.init)
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed: {allowed}")
    return cls(**{key: _typed(value, hints[key], f"{where}.{key}") for key, value in params.items()})


def parse_config(raw: dict) -> BenchConfig:
    """Build a validated BenchConfig from a parsed JSON document."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config root must be an object, got {type(raw).__name__}")
    top = _require(
        raw,
        {
            "environment": "narrow-passage-v1",
            "grid": {},
            "kernel": {},
            "reg_scale": 1e-6,
            "reg": None,
            "score": {},
            "methods": None,
            "seeds": [0, 1, 2, 3, 4],
            "output_dir": "results",
        },
        "config",
    )
    env = BoxEnvironment.from_config(top["environment"])
    grid = _from_fields(TimeGrid, top["grid"], "grid", {"horizon_seconds": 1.0, "rate_hz": 100.0})
    kernel = _from_fields(SEKernel, top["kernel"], "kernel", {"variance": 0.29, "length_scale": 0.22})
    reg = _typed(top["reg"], float | None, "reg")
    if reg is None:
        reg = _typed(top["reg_scale"], float, "reg_scale") * kernel.variance
    score = _from_fields(ScoreConfig, top["score"], "score")
    if not isinstance(top["methods"], list) or not top["methods"]:
        raise ConfigError("config requires a non-empty 'methods' list")
    methods = []
    for i, spec in enumerate(top["methods"]):
        if not isinstance(spec, dict) or "name" not in spec:
            raise ConfigError(f"methods[{i}] must be an object with a 'name' key")
        params = {k: v for k, v in spec.items() if k != "name"}
        methods.append(MethodSpec(_typed(spec["name"], str, f"methods[{i}].name"), params))
    return BenchConfig(
        environment=env,
        grid=grid,
        kernel=kernel,
        reg=reg,
        score=score,
        methods=tuple(methods),
        seeds=_typed(top["seeds"], tuple[int, ...], "seeds"),
        output_dir=_typed(top["output_dir"], str, "output_dir"),
    )


def load_config(path: str) -> BenchConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(raw)


def derive_seed(method: str, seed: int) -> int:
    """Stable 64-bit seed for one (method, seed) run.

    Hash-derived so that every run owns an independent RNG lineage and
    adding or removing a method never shifts another method's streams.
    """
    digest = hashlib.blake2s(f"{method}:{seed}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# Runners: (method config, start trajectory, bench config, covariance
# factor, run seed) -> (final trajectory, trace). Each builds the method's
# random source from the run seed.


def _run_nfg(cfg, mu0, bench, factor, run_seed):
    sampler = PerturbationSampler(factor, cfg.sigma, run_seed)
    return optimize(mu0, bench.environment, bench.score, sampler, cfg)


def _run_stomp(cfg, mu0, bench, factor, run_seed):
    sampler = PerturbationSampler(factor, cfg.sigma, run_seed)
    return stomp_optimize(mu0, bench.environment, bench.score, cfg, sampler)


def _run_chomp(cfg, mu0, bench, factor, run_seed):
    rng = Generator(Philox(key=np.array([run_seed, 0], dtype=np.uint64)))
    return chomp_optimize(mu0, bench.environment, bench.score, cfg, rng)


def _run_mppi(cfg, mu0, bench, factor, run_seed):
    sampler = PerturbationSampler(factor, 1.0, run_seed)
    return mppi_optimize(mu0, bench.environment, cfg, sampler)


@dataclass(frozen=True)
class Method:
    """A benchmark method: the config dataclass whose fields are its JSON
    keys, types and defaults, its runner, and the fields that default to
    the score config's value of the same name."""

    config: type
    run: typing.Callable
    score_defaults: tuple[str, ...] = ()


METHODS = {
    "nfg": Method(NfgConfig, _run_nfg, score_defaults=("n_pow",)),
    "stomp": Method(StompConfig, _run_stomp),
    "chomp": Method(ChompConfig, _run_chomp),
    "mppi": Method(MppiConfig, _run_mppi),
}


def _method_config(spec: MethodSpec, bench: BenchConfig):
    """The validated config dataclass of one configured method."""
    method = METHODS[spec.name]
    defaults = {name: getattr(bench.score, name) for name in method.score_defaults}
    return _from_fields(method.config, spec.params, f"methods[{spec.name}]", defaults)


def _warm_kernels(env: BoxEnvironment, grid: TimeGrid, score: ScoreConfig) -> None:
    # The first scoring call pays one-time costs; keep them out of the
    # timed run.
    dummy = np.zeros((1, grid.steps))
    batch_scores(env, dummy, grid.times(), grid.dt, score)


def run_single(
    spec: MethodSpec,
    seed: int,
    bench: BenchConfig,
    factor: CovarianceFactor,
    out_dir: str | None,
) -> RunRecord:
    """Run one (method, seed) pair and write its artifacts.

    The initial trajectory is all zeros for every method and seed. Runtime
    covers the method's runner: building its random source and the
    optimizer loop.
    """
    cfg = _method_config(spec, bench)
    mu0 = Trajectory(bench.grid, np.zeros((bench.grid.steps, 1)))
    run_seed = derive_seed(spec.name, seed)
    _warm_kernels(bench.environment, bench.grid, bench.score)
    t0 = time.perf_counter()
    traj, traces = METHODS[spec.name].run(cfg, mu0, bench, factor, run_seed)
    runtime = time.perf_counter() - t0
    success = bool((penetration_profile(bench.environment, traj) == 0.0).all())
    record = RunRecord(
        method=spec.name,
        seed=seed,
        success=success,
        runtime=runtime,
        path_length=path_length(traj),
        avg_jerk=average_abs_jerk(traj) if success else None,
        iterations_used=len(traces),
    )
    if out_dir is not None:
        run_dir = os.path.join(out_dir, spec.name, str(seed))
        os.makedirs(run_dir, exist_ok=True)
        write_trace_csv(os.path.join(run_dir, "trace.csv"), traces, spec.name)
        write_trajectory_csv(traj, os.path.join(run_dir, "final_trajectory.csv"))
    return record


def _run_task(args) -> tuple[int, int, RunRecord]:
    mi, si, spec, seed, bench, factor, out_dir = args
    return mi, si, run_single(spec, seed, bench, factor, out_dir)


def run_benchmark(bench: BenchConfig, parallel: int = 1, out_dir: str | None = "") -> list[RunRecord]:
    """Run every (method, seed) pair and write records.csv plus summary.csv.

    ``parallel`` > 1 spreads runs over worker processes; record content is
    identical at any level because each run's randomness is fixed by
    (method, seed) alone. ``out_dir`` of "" uses the config's output_dir;
    None disables artifact writing and returns records only.
    """
    if out_dir == "":
        out_dir = bench.output_dir
    K = kernel_matrix(bench.grid, bench.kernel)
    factor = factorize(K, bench.reg)
    for spec in bench.methods:
        _method_config(spec, bench)  # validate every method before any run
    tasks = [
        (mi, si, spec, seed, bench, factor, out_dir)
        for mi, spec in enumerate(bench.methods)
        for si, seed in enumerate(bench.seeds)
    ]
    results: dict[tuple[int, int], RunRecord] = {}
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            for mi, si, record in pool.map(_run_task, tasks):
                results[(mi, si)] = record
    else:
        for task in tasks:
            mi, si, record = _run_task(task)
            results[(mi, si)] = record
    records = [results[key] for key in sorted(results)]
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_records_csv(os.path.join(out_dir, "records.csv"), records)
        write_summary_csv(os.path.join(out_dir, "summary.csv"), aggregate(records))
    return records


def aggregate(records: list[RunRecord]) -> list[dict]:
    """Per-method summary rows.

    Success rate is a percentage over all runs; runtime aggregates over all
    runs; path length and jerk aggregate over successful runs only and are
    None when a method never succeeded. Standard deviations use the n-1
    denominator, with a single sample reported as 0.0. Rows are sorted by
    method name, so any permutation of the records yields the same table.
    """
    if not records:
        raise ValueError("no records to aggregate")
    rows = []
    for name in sorted({r.method for r in records}):
        runs = [r for r in records if r.method == name]
        wins = [r for r in runs if r.success]
        row = {
            "method": name,
            "success_rate": 100.0 * len(wins) / len(runs),
            "time_mean": _mean([r.runtime for r in runs]),
            "time_std": _std([r.runtime for r in runs]),
            "path_length_mean": _mean([r.path_length for r in wins]),
            "path_length_std": _std([r.path_length for r in wins]),
            "avg_jerk_mean": _mean([r.avg_jerk for r in wins]),
            "avg_jerk_std": _std([r.avg_jerk for r in wins]),
        }
        rows.append(row)
    return rows


def _mean(values: list) -> float | None:
    if not values:
        return None
    return float(np.mean(values))


def _std(values: list) -> float | None:
    if not values:
        return None
    if len(values) == 1:
        return 0.0
    return float(np.std(values, ddof=1))


def _fmt(value: float | None) -> str:
    return "-" if value is None else f"{value:.17g}"


def write_records_csv(path: str, records: list[RunRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RECORD_FIELDS)
        for r in records:
            writer.writerow(
                [
                    r.method,
                    r.seed,
                    "true" if r.success else "false",
                    f"{r.runtime:.17g}",
                    f"{r.path_length:.17g}",
                    "" if r.avg_jerk is None else f"{r.avg_jerk:.17g}",
                    r.iterations_used,
                ]
            )


def read_records_csv(path: str) -> list[RunRecord]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != RECORD_FIELDS:
        raise ConfigError(f"{path}: expected records header {','.join(RECORD_FIELDS)}")
    records = []
    for i, row in enumerate(rows[1:]):
        if len(row) != len(RECORD_FIELDS):
            raise ConfigError(f"{path}: row {i + 1} has {len(row)} fields, expected {len(RECORD_FIELDS)}")
        try:
            records.append(
                RunRecord(
                    method=row[0],
                    seed=int(row[1]),
                    success=row[2] == "true",
                    runtime=float(row[3]),
                    path_length=float(row[4]),
                    avg_jerk=None if row[5] == "" else float(row[5]),
                    iterations_used=int(row[6]),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{path}: row {i + 1}: {exc}") from exc
    return records


def write_summary_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_FIELDS)
        for row in rows:
            writer.writerow(
                [row["method"]] + [_fmt(row[field]) for field in SUMMARY_FIELDS[1:]]
            )


def format_summary(rows: list[dict]) -> str:
    """Human-readable mean +- std table."""

    def pm(mean, std):
        if mean is None:
            return "-"
        return f"{mean:.2f} +- {std:.2f}"

    lines = [f"{'method':<8} {'success %':>9}  {'time (s)':>16}  {'path length':>16}  {'avg jerk':>18}"]
    for row in rows:
        lines.append(
            f"{row['method']:<8} {row['success_rate']:>9.1f}  "
            f"{pm(row['time_mean'], row['time_std']):>16}  "
            f"{pm(row['path_length_mean'], row['path_length_std']):>16}  "
            f"{pm(row['avg_jerk_mean'], row['avg_jerk_std']):>18}"
        )
    return "\n".join(lines)


TRACE_FIELDS = ("method", "iter", "best_score", "mean_weight", "grad_norm", "feasible", "wall_time_s")


def write_trace_csv(path: str, traces: list[IterationTrace], method: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_FIELDS)
        for t in traces:
            writer.writerow(
                [
                    method,
                    t.iteration,
                    f"{t.best_score:.17g}",
                    f"{t.mean_weight:.17g}",
                    f"{t.estimator_norm:.17g}",
                    "true" if t.feasible else "false",
                    f"{t.wall_time:.17g}",
                ]
            )


@dataclass(frozen=True)
class ExternalEvaluation:
    """Result of scoring an externally produced waypoint path."""

    source: str
    success: bool
    path_length: float
    avg_jerk: float | None
    first_collision_time: float | None
    score: float
    trajectory: Trajectory


def evaluate_external(
    path_file: str,
    env: BoxEnvironment,
    grid: TimeGrid,
    score_cfg: ScoreConfig | None = None,
    angular_dims: tuple[int, ...] = (),
) -> ExternalEvaluation:
    """Score a waypoint file exactly like an internally optimized run.

    Pipeline: unwrap flagged angular dimensions, drop duplicate waypoints,
    assign arc-length-proportional timestamps over the grid horizon,
    linearly resample onto the grid, then validate penetration at every
    grid point. Parse failures and degenerate paths raise ConfigError or
    DegeneratePathError.
    """
    score_cfg = score_cfg or ScoreConfig()
    waypoints = load_waypoints(path_file)
    dims = waypoints.shape[1]
    bad = [d for d in angular_dims if not 0 <= d < dims]
    if bad:
        raise ConfigError(f"angular dims {bad} out of range for {dims}-dimensional waypoints")
    angular = tuple(d in angular_dims for d in range(dims)) if angular_dims else None
    path = WaypointPath(waypoints, angular)
    path = unwrap_angles(path).dedupe()
    timestamps = arc_length_times(path, grid.horizon_seconds)
    traj = resample(path, timestamps, grid)
    if traj.dims != 1:
        raise ConfigError(
            f"box environments score 1-D trajectories, waypoint file has {traj.dims} dimensions"
        )
    profile = penetration_profile(env, traj)
    colliding = np.flatnonzero(profile < 0.0)
    success = colliding.size == 0
    first_hit = None if success else float(traj.times()[colliding[0]])
    return ExternalEvaluation(
        source=path_file,
        success=success,
        path_length=path_length(traj),
        avg_jerk=average_abs_jerk(traj) if success else None,
        first_collision_time=first_hit,
        score=trajectory_score(env, traj, score_cfg),
        trajectory=traj,
    )
