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

Every file is written to a temporary file and renamed into place.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import time
import types
import typing
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
    BoxObstacle,
    ScoreConfig,
    batch_scores,
    load_preset,
    penetration_profile,
    trajectory_score,
)
from .errors import ConfigError, DegeneratePathError, NonFiniteStepError, check_integer, check_number
from .nfg import IterationTrace, NfgConfig, optimize
from .sampling import PerturbationSampler, SEKernel, factorize, kernel_matrix, principal_factor
from .trajectory import (
    TimeGrid,
    Trajectory,
    WaypointPath,
    arc_length_times,
    average_abs_jerk,
    load_waypoints,
    path_length,
    read_csv,
    resample,
    unwrap_angles,
    write_csv,
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
    """A configured method: its name in :data:`METHODS` and its parsed
    config dataclass."""

    name: str
    config: object


# The kernel's jitter as a share of its variance: K + REG_SCALE*variance*I
# is factorized.
REG_SCALE = 1e-6


@dataclass(frozen=True)
class BenchConfig:
    environment: BoxEnvironment
    grid: TimeGrid
    kernel: SEKernel
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
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"duplicate seeds in config: {list(self.seeds)}")

    @property
    def reg(self) -> float:
        """The jitter added to the kernel matrix's diagonal."""
        return REG_SCALE * self.kernel.variance


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


def _typed(value, hint, where: str):
    """``value`` checked against the type ``hint``, never coerced except
    that an int is accepted, as a float, where a float is expected. JSON
    lists stand for tuples and JSON objects for dataclasses."""
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
        if option is dict and isinstance(value, dict):
            return value
        if dataclasses.is_dataclass(option) and isinstance(value, dict):
            return _from_fields(option, value, where)
        if typing.get_origin(option) is tuple and isinstance(value, (list, tuple)):
            item = typing.get_args(option)[0]
            return tuple(_typed(v, item, f"{where}[{i}]") for i, v in enumerate(value))
    name = hint.__name__ if isinstance(hint, type) else str(hint)
    raise ConfigError(f"{where} must be {name}, got {value!r}")


def _checked(params, schema: dict, where: str) -> dict:
    """The JSON object ``params`` checked against ``schema``, which maps
    each allowed key to its (type, default), a default of MISSING marking a
    required key. Every allowed key is in the result: a given value checked
    by :func:`_typed`, an absent one as its default."""
    if not isinstance(params, dict):
        raise ConfigError(f"{where} must be an object, got {params!r}")
    unknown = set(params) - set(schema)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed: {sorted(schema)}")
    missing = [key for key, (_, default) in schema.items() if key not in params and default is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    return {
        key: _typed(params[key], hint, f"{where}.{key}") if key in params else default
        for key, (hint, default) in schema.items()
    }


def _from_fields(cls, params, where: str):
    """Dataclass ``cls`` built from the JSON object ``params``: its init
    fields are the keys, with their types and defaults."""
    hints = typing.get_type_hints(cls)
    schema = {f.name: (hints[f.name], f.default) for f in dataclasses.fields(cls) if f.init}
    return cls(**_checked(params, schema, where))


# The top-level keys of a benchmark config with their types and defaults.
CONFIG_FIELDS = {
    "environment": (str | tuple[BoxObstacle, ...], "narrow-passage-v1"),
    "grid": (TimeGrid, TimeGrid()),
    "kernel": (SEKernel, SEKernel()),
    "score": (ScoreConfig, ScoreConfig()),
    "methods": (tuple[dict, ...], dataclasses.MISSING),
    "seeds": (tuple[int, ...], (0, 1, 2, 3, 4)),
    "output_dir": (str, "results"),
}


def _method_spec(params: dict, where: str) -> MethodSpec:
    """One ``methods`` entry: a ``name`` from :data:`METHODS` and that
    method's config fields."""
    params = dict(params)
    if "name" not in params:
        raise ConfigError(f"{where}: missing keys ['name']")
    name = _typed(params.pop("name"), str, f"{where}.name")
    method = METHODS.get(name)
    if method is None:
        raise ConfigError(f"unknown method {name!r}; known methods: {', '.join(METHODS)}")
    return MethodSpec(name, _from_fields(method.config, params, f"methods[{name}]"))


def parse_config(raw: dict) -> BenchConfig:
    """Build a validated BenchConfig from a parsed JSON document."""
    top = _checked(raw, CONFIG_FIELDS, "config")
    env = top["environment"]
    return BenchConfig(
        environment=load_preset(env) if isinstance(env, str) else BoxEnvironment(env),
        grid=top["grid"],
        kernel=top["kernel"],
        score=top["score"],
        methods=tuple(_method_spec(params, f"methods[{i}]") for i, params in enumerate(top["methods"])),
        seeds=top["seeds"],
        output_dir=top["output_dir"],
    )


def load_config(path: str) -> BenchConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
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
    sampler = PerturbationSampler(factor, run_seed)
    return optimize(mu0, bench.environment, bench.score, sampler, cfg)


def _run_stomp(cfg, mu0, bench, factor, run_seed):
    sampler = PerturbationSampler(factor, run_seed)
    return stomp_optimize(mu0, bench.environment, bench.score, cfg, sampler)


def _run_chomp(cfg, mu0, bench, factor, run_seed):
    rng = Generator(Philox(key=np.array([run_seed, 0], dtype=np.uint64)))
    return chomp_optimize(mu0, bench.environment, bench.score, cfg, rng)


def _run_mppi(cfg, mu0, bench, factor, run_seed):
    sampler = PerturbationSampler(factor, run_seed)
    return mppi_optimize(mu0, bench.environment, cfg, sampler)


@dataclass(frozen=True)
class Method:
    """A benchmark method: the config dataclass whose fields are its JSON
    keys, types and defaults, and its runner."""

    config: type
    run: typing.Callable


METHODS = {
    "nfg": Method(NfgConfig, _run_nfg),
    "stomp": Method(StompConfig, _run_stomp),
    "chomp": Method(ChompConfig, _run_chomp),
    "mppi": Method(MppiConfig, _run_mppi),
}


def _warm_kernels(env: BoxEnvironment, grid: TimeGrid, score: ScoreConfig) -> None:
    # Free one 1 MiB block, which glibc's malloc maps and unmaps: that raises
    # its trim threshold to 2 MiB (mallopt(3), dynamic mmap threshold), so
    # the loop's few hundred kB of temporaries stay in the heap. Otherwise a
    # process that never freed such a block returns them to the OS and
    # faults them back in every iteration: about 130k page faults, or
    # 0.2-0.3 s of a 1.8-1.9 s packaged sweep on a 2-core VM.
    np.empty(1 << 17)
    # The first scoring call pays one-time costs; keep them out of the
    # timed run.
    dummy = np.zeros((1, grid.steps))
    batch_scores(env, dummy, grid.times(), grid.dt, score)


def run_single(
    spec: MethodSpec,
    seed: int,
    bench: BenchConfig,
    factor: np.ndarray,
    out_dir: str,
) -> RunRecord:
    """Run one (method, seed) pair and write its artifacts under
    ``out_dir/<method>/<seed>``.

    The initial trajectory is all zeros for every method and seed. Runtime
    covers the method's runner: building its random source and the
    optimizer loop. A non-finite update is raised as
    :class:`NonFiniteStepError` naming the method, seed and iteration.
    """
    mu0 = Trajectory(bench.grid, np.zeros((bench.grid.steps, 1)))
    run_seed = derive_seed(spec.name, seed)
    _warm_kernels(bench.environment, bench.grid, bench.score)
    t0 = time.perf_counter()
    try:
        traj, traces = METHODS[spec.name].run(spec.config, mu0, bench, factor, run_seed)
    except NonFiniteStepError as exc:
        raise NonFiniteStepError(exc.iteration, spec.name, seed) from None
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
    run_dir = os.path.join(out_dir, spec.name, str(seed))
    os.makedirs(run_dir, exist_ok=True)
    write_trace_csv(os.path.join(run_dir, "trace.csv"), traces, spec.name)
    write_trajectory_csv(traj, os.path.join(run_dir, "final_trajectory.csv"))
    return record


def run_benchmark(bench: BenchConfig, parallel: int = 1, out_dir: str | None = None) -> list[RunRecord]:
    """Run every (method, seed) pair and write records.csv, summary.csv and
    each run's artifacts under ``out_dir``, the config's output_dir when None.

    ``parallel`` > 1 spreads runs over worker processes (at most one per
    run); anything but an integer of at least 1, a bool included, is a
    :class:`ConfigError` raised before any run starts, and so is an empty
    directory name. Record content is identical at any level because each
    run's randomness is fixed by (method, seed) alone. Every run samples
    from one :func:`principal_factor` of the kernel, built here.
    """
    check_integer(parallel, "parallel", 1)
    if out_dir is None:
        out_dir = bench.output_dir
    if not out_dir:
        raise ConfigError("the output directory must not be empty")
    K = kernel_matrix(bench.grid, bench.kernel)
    factor = principal_factor(factorize(K, bench.reg), bench.reg)
    specs, seeds = zip(*itertools.product(bench.methods, bench.seeds))
    args = (specs, seeds, itertools.repeat(bench), itertools.repeat(factor), itertools.repeat(out_dir))
    if parallel > 1:
        # Imported here, so that importing nfgopt skips multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        # A fork-started pool forks all its workers at the first submit.
        with ProcessPoolExecutor(max_workers=min(parallel, len(specs))) as pool:
            records = list(pool.map(run_single, *args))
    else:
        records = list(map(run_single, *args))
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
    write_csv(
        path,
        RECORD_FIELDS,
        (
            [
                r.method,
                r.seed,
                "true" if r.success else "false",
                f"{r.runtime:.17g}",
                f"{r.path_length:.17g}",
                "" if r.avg_jerk is None else f"{r.avg_jerk:.17g}",
                r.iterations_used,
            ]
            for r in records
        ),
    )


def read_records_csv(path: str) -> list[RunRecord]:
    rows = read_csv(path)
    if len(rows) < 2 or tuple(rows[0]) != RECORD_FIELDS:
        raise ConfigError(f"{path}: expected the records header {','.join(RECORD_FIELDS)} and at least one record")
    records = []
    for i, row in enumerate(rows[1:]):
        if len(row) != len(RECORD_FIELDS):
            raise ConfigError(f"{path}: row {i + 1} has {len(row)} fields, expected {len(RECORD_FIELDS)}")
        if row[2] not in ("true", "false"):
            raise ConfigError(f"{path}: row {i + 1}: success must be true or false, got {row[2]!r}")
        try:
            record = RunRecord(
                method=row[0],
                seed=int(row[1]),
                success=row[2] == "true",
                runtime=float(row[3]),
                path_length=float(row[4]),
                avg_jerk=None if row[5] == "" else float(row[5]),
                iterations_used=int(row[6]),
            )
            check_number(record.runtime, "runtime_s", "non-negative")
            check_number(record.path_length, "path_length", "non-negative")
            if record.avg_jerk is not None:
                check_number(record.avg_jerk, "avg_jerk", "non-negative")
            check_integer(record.iterations_used, "iterations_used", 0)
        except ValueError as exc:
            raise ConfigError(f"{path}: row {i + 1}: {exc}") from exc
        records.append(record)
    return records


def write_summary_csv(path: str, rows: list[dict]) -> None:
    write_csv(
        path,
        SUMMARY_FIELDS,
        ([row["method"]] + [_fmt(row[field]) for field in SUMMARY_FIELDS[1:]] for row in rows),
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
    write_csv(
        path,
        TRACE_FIELDS,
        (
            [
                method,
                t.iteration,
                f"{t.best_score:.17g}",
                f"{t.mean_weight:.17g}",
                f"{t.estimator_norm:.17g}",
                "true" if t.feasible else "false",
                f"{t.wall_time:.17g}",
            ]
            for t in traces
        ),
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


def evaluate_external(
    path_file: str,
    env: BoxEnvironment,
    grid: TimeGrid,
    score_cfg: ScoreConfig | None = None,
    angular: bool = False,
) -> ExternalEvaluation:
    """Score a waypoint file exactly like an internally optimized run.

    Pipeline: load one value per row (a file with more columns is rejected
    here), unwrap the values as angles when ``angular`` is set, drop
    duplicate waypoints, assign arc-length-proportional timestamps over the
    grid horizon, linearly resample onto the grid, then validate
    penetration at every grid point. Parse failures and degenerate paths
    raise ConfigError or DegeneratePathError, and so does a resampled path
    whose average jerk is not finite.
    """
    score_cfg = score_cfg or ScoreConfig()
    path = WaypointPath(load_waypoints(path_file))
    if angular:
        path = unwrap_angles(path)
    path = path.dedupe()
    timestamps = arc_length_times(path, grid.horizon_seconds)
    traj = resample(path, timestamps, grid)
    with np.errstate(over="ignore", invalid="ignore"):
        jerk = average_abs_jerk(traj)
    if not np.isfinite(jerk):
        raise ConfigError("the resampled path's average jerk overflows; the waypoints are too large")
    profile = penetration_profile(env, traj)
    colliding = np.flatnonzero(profile < 0.0)
    success = colliding.size == 0
    first_hit = None if success else float(traj.times()[colliding[0]])
    return ExternalEvaluation(
        source=path_file,
        success=success,
        path_length=path_length(traj),
        avg_jerk=jerk if success else None,
        first_collision_time=first_hit,
        score=trajectory_score(env, traj, score_cfg),
    )
