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
import itertools
import json
import os
import time
import typing
from dataclasses import dataclass

import numpy as np

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
    narrow_passage_v1,
    penetration_profile,
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
    csv_cell,
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
    """A configured method: its name in :data:`METHODS` and an instance of
    that method's config dataclass."""

    name: str
    config: object

    def __post_init__(self) -> None:
        method = _method(self.name)
        if not isinstance(self.config, method.config):
            raise ConfigError(f"method {self.name} needs a {method.config.__name__}, got {self.config!r}")


# The kernel's jitter as a share of its variance: K + REG_SCALE*variance*I
# is factorized.
REG_SCALE = 1e-6


@dataclass(frozen=True, kw_only=True)
class BenchConfig:
    """A benchmark. Its fields are the top-level keys of a JSON config, with
    their types and defaults; each is checked against its type."""

    environment: BoxEnvironment = dataclasses.field(default_factory=narrow_passage_v1)
    grid: TimeGrid = TimeGrid()
    kernel: SEKernel = SEKernel()
    score: ScoreConfig = ScoreConfig()
    methods: tuple[MethodSpec, ...]
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    output_dir: str = "results"

    def __post_init__(self) -> None:
        hints = typing.get_type_hints(BenchConfig)
        for f in dataclasses.fields(self):
            kind = typing.get_origin(hints[f.name]) or hints[f.name]
            if not isinstance(getattr(self, f.name), kind):
                raise ConfigError(f"{f.name} must be a {kind.__name__}, got {getattr(self, f.name)!r}")
        if not self.methods:
            raise ConfigError("methods must not be empty")
        if not all(isinstance(spec, MethodSpec) for spec in self.methods):
            raise ConfigError(f"methods must hold MethodSpecs, got {self.methods!r}")
        if not self.seeds:
            raise ConfigError("seeds must not be empty")
        for i, seed in enumerate(self.seeds):
            check_integer(seed, f"seeds[{i}]", -np.inf)  # any integer: derive_seed hashes its text
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate method names: {names}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"duplicate seeds: {list(self.seeds)}")
        limit = np.iinfo(np.intp).max  # bytes in numpy's largest array
        for spec in self.methods:
            field = METHODS[spec.name].rows
            rows = 0 if field is None else getattr(spec.config, field)
            if rows * self.grid.steps * 8 > limit:
                raise ConfigError(
                    f"methods[{spec.name}]: {field} = {rows} rows of {self.grid.steps} float64 values"
                    f" exceed numpy's largest array of {limit} bytes"
                )

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


def _from_json(value, hint, where: str):
    """``value`` from a JSON document, at path ``where``, mapped onto the type
    ``hint``: by the function :data:`_TRANSLATIONS` holds for ``hint``, if
    any; a JSON object (and nothing else) onto a dataclass, whose init fields
    are its keys; a JSON list onto a tuple of the item type; any other value
    unchanged, so an integer stays an integer. The dataclass checks its
    fields itself, and ``where`` prefixes any ConfigError it raises."""
    if hint in _TRANSLATIONS:
        return _TRANSLATIONS[hint](value, where)
    if isinstance(value, list) and typing.get_origin(hint) is tuple:
        return tuple(_from_json(v, typing.get_args(hint)[0], f"{where}[{i}]") for i, v in enumerate(value))
    if not dataclasses.is_dataclass(hint):
        return value
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {value!r}")
    fields = {f.name: f for f in dataclasses.fields(hint) if f.init}
    unknown = set(value) - set(fields)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed: {sorted(fields)}")
    missing = [k for k, f in fields.items() if k not in value and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    hints = typing.get_type_hints(hint)
    kwargs = {k: _from_json(v, hints[k], f"{where}.{k}") for k, v in value.items()}
    try:
        return hint(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _environment(value, where: str):
    """A preset name or a JSON list of boxes as a BoxEnvironment; any other value is left for BenchConfig."""
    if isinstance(value, str):
        return load_preset(value)
    return BoxEnvironment(_from_json(value, tuple[BoxObstacle, ...], where)) if isinstance(value, list) else value


def _method_spec(params, where: str) -> MethodSpec:
    """A ``methods`` entry: a ``name`` from :data:`METHODS` and that method's config fields."""
    if not isinstance(params, dict) or "name" not in params:
        raise ConfigError(f"{where} must be an object with a name, got {params!r}")
    name, fields = params["name"], {k: v for k, v in params.items() if k != "name"}
    return MethodSpec(name, _from_json(fields, _method(name).config, f"methods[{name}]"))


# The types a JSON config gives in its own form rather than field by field.
_TRANSLATIONS = {BoxEnvironment: _environment, MethodSpec: _method_spec}


def parse_config(raw: dict) -> BenchConfig:
    """Build a validated BenchConfig from a parsed JSON document."""
    return _from_json(raw, BenchConfig, "config")


def load_config(path: str) -> BenchConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON, or an integer past Python's digit limit
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    return parse_config(raw)


def derive_seed(method: str, seed: int) -> int:
    """Stable 64-bit seed for one (method, seed) run.

    Hash-derived so that every run owns an independent RNG lineage and
    adding or removing a method never shifts another method's streams.
    """
    import hashlib  # here, so that importing nfgopt skips it

    digest = hashlib.blake2s(f"{method}:{seed}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


# Runners: (method config, start trajectory, bench config, covariance
# factor, run seed) -> (final trajectory, trace). Each builds the method's
# random source from the run seed; numpy.random is imported where it is
# built, so that importing nfgopt skips it.


def _run_nfg(cfg, mu0, bench, factor, run_seed):
    sampler = PerturbationSampler(factor, run_seed)
    return optimize(mu0, bench.environment, bench.score, sampler, cfg)


def _run_stomp(cfg, mu0, bench, factor, run_seed):
    sampler = PerturbationSampler(factor, run_seed)
    return stomp_optimize(mu0, bench.environment, bench.score, cfg, sampler)


def _run_chomp(cfg, mu0, bench, factor, run_seed):
    from numpy.random import Generator, Philox

    rng = Generator(Philox(key=np.array([run_seed, 0], dtype=np.uint64)))
    return chomp_optimize(mu0, bench.environment, bench.score, cfg, rng)


def _run_mppi(cfg, mu0, bench, factor, run_seed):
    sampler = PerturbationSampler(factor, run_seed)
    return mppi_optimize(mu0, bench.environment, cfg, sampler)


@dataclass(frozen=True)
class Method:
    """A benchmark method: the config dataclass whose fields are its JSON
    keys, types and defaults, its runner, and the config field holding the
    row count of the (rows, grid steps) batch it samples, if it samples one."""

    config: type
    run: typing.Callable
    rows: str | None


METHODS = {
    "nfg": Method(NfgConfig, _run_nfg, "batch"),
    "stomp": Method(StompConfig, _run_stomp, "batch"),
    "chomp": Method(ChompConfig, _run_chomp, None),
    "mppi": Method(MppiConfig, _run_mppi, "rollouts"),
}


def _method(name) -> Method:
    """The :data:`METHODS` entry called ``name``."""
    if isinstance(name, str) and name in METHODS:
        return METHODS[name]
    raise ConfigError(f"unknown method {name!r}; known methods: {', '.join(METHODS)}")


def _warm_kernels(env: BoxEnvironment, grid: TimeGrid, score: ScoreConfig) -> None:
    # Free one 1 MiB block, which glibc's malloc maps and unmaps: that raises
    # its trim threshold to 2 MiB (mallopt(3), dynamic mmap threshold), so
    # each run's workspace and the loop's few kB of temporaries stay in the
    # heap. Otherwise a process that never freed such a block returns pages
    # to the OS and faults them back in: a packaged sweep takes 0-5 minor
    # page faults with the free and about 77 without it (BENCH_10.json).
    # Under other allocators the block is only allocated and freed.
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
    :class:`NonFiniteStepError` naming the method, seed and iteration. A
    run's workspace, built from its batch's row count, that does not fit
    in memory is a :class:`ConfigError` naming the method's row field,
    the rows and the bytes.
    """
    mu0 = Trajectory(bench.grid, np.zeros((bench.grid.steps, 1)))
    run_seed = derive_seed(spec.name, seed)
    method = METHODS[spec.name]
    _warm_kernels(bench.environment, bench.grid, bench.score)
    t0 = time.perf_counter()
    try:
        traj, traces = method.run(spec.config, mu0, bench, factor, run_seed)
    except NonFiniteStepError as exc:
        raise NonFiniteStepError(exc.iteration, spec.name, seed) from None
    except MemoryError as exc:
        if method.rows is None:
            raise
        rows = getattr(spec.config, method.rows)
        raise ConfigError(f"methods[{spec.name}].{method.rows} = {rows} rows: {exc}") from None
    runtime = time.perf_counter() - t0
    success = bool((penetration_profile(bench.environment, traj.values[:, 0], traj.grid.times()) == 0.0).all())
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
    directory name or one that cannot be created. Record content is
    identical at any level because each run's randomness is fixed by
    (method, seed) alone. Every run samples from one
    :func:`principal_factor` of the kernel, built here.
    """
    # Every run's random source needs numpy.random: load it here, so that no
    # run's runtime includes the import and pool workers inherit it.
    import numpy.random  # noqa: F401

    check_integer(parallel, "parallel", 1)
    if out_dir is None:
        out_dir = bench.output_dir
    if not out_dir:
        raise ConfigError("the output directory must not be empty")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory {out_dir}: {exc.strerror}") from exc
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
        [
            f"{csv_cell(r.method)},{r.seed},{'true' if r.success else 'false'},{r.runtime:.17g},"
            f"{r.path_length:.17g},{'' if r.avg_jerk is None else format(r.avg_jerk, '.17g')},{r.iterations_used}"
            for r in records
        ],
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
    """Write the summary ``rows`` to ``path``; a path that cannot be
    written is a :class:`ConfigError` that names it."""
    lines = [",".join([csv_cell(row["method"]), *(_fmt(row[field]) for field in SUMMARY_FIELDS[1:])]) for row in rows]
    try:
        write_csv(path, SUMMARY_FIELDS, lines)
    except OSError as exc:
        raise ConfigError(f"cannot write the summary {path}: {exc.strerror}") from exc


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
    method = csv_cell(method)
    write_csv(
        path,
        TRACE_FIELDS,
        [
            f"{method},{t.iteration},{t.best_score:.17g},{t.mean_weight:.17g},{t.estimator_norm:.17g},"
            f"{'true' if t.feasible else 'false'},{t.wall_time:.17g}"
            for t in traces
        ],
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
    values = traj.values[:, 0]
    times = grid.times()
    colliding = np.flatnonzero(penetration_profile(env, values, times) < 0.0)
    success = colliding.size == 0
    first_hit = None if success else float(times[colliding[0]])
    return ExternalEvaluation(
        source=path_file,
        success=success,
        path_length=path_length(traj),
        avg_jerk=jerk if success else None,
        first_collision_time=first_hit,
        score=float(batch_scores(env, values[None, :], times, grid.dt, score_cfg)[0]),
    )
