"""Comparison optimizers: stochastic reweighting, analytic gradient descent,
and rollout reweighting with Wiener noise.

All three run the main optimizer's loop (:func:`nfgopt.nfg._iterate`) and
share its trajectory representation, environment scoring, start pinning,
feasibility rule and per-iteration substream discipline, so performance
differences come from the update rules alone. The stochastic
baseline draws its perturbations from the same covariance factor as the
natural-gradient optimizer; the rollout baseline uses unsmoothed
Wiener-process noise by design.

Trace rows reuse :class:`~nfgopt.nfg.IterationTrace`. ``best_score`` holds
each method's own objective (trajectory score for the two score-driven
methods, negated minimum rollout cost for the rollout method) and
``mean_weight`` the mean unnormalized sample weight, or 0 for the
deterministic gradient method.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import Workspace, plus_rows
from .environment import BoxEnvironment, ScoreConfig, batch_scores
from .errors import ConfigError, check_bool, check_buffer, check_integer, check_number
from .nfg import IterationTrace, _draw, _iterate, _norm, _Step
from .sampling import PerturbationSampler
from .trajectory import Trajectory

_DELTA = 1e-12


def _collision_free(env: BoxEnvironment, times: np.ndarray):
    """Feasibility rule of the baselines: no grid point lies strictly inside
    a box. Equal to a zero penetration profile: a point on a face is clear,
    and empty table slots and NaN or infinite values lie in no box."""
    table = env.box_table(times)
    lo, hi = table.lo, table.hi

    def feasible(values: np.ndarray) -> bool:
        return not np.logical_or.reduce((lo < values) & (values < hi), axis=None)

    return feasible


def _reweighted(raw: np.ndarray, eps: np.ndarray, best_score: float) -> _Step:
    """Step along the perturbations averaged with normalized ``raw`` weights.
    Calls the ufunc reductions directly: add.reduce / n is what .mean
    computes."""
    total = np.add.reduce(raw)
    update = (raw / total) @ eps
    return _Step(update, best_score, float(total / raw.shape[0]), _norm(update))


# ---------------------------------------------------------------------------
# stochastic reweighting (STOMP-style)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StompConfig:
    """Settings for the stochastic reweighting baseline.

    The method minimizes the cost J(y) = 1 - f(y) by averaging the smooth
    perturbations with weights exp(-h (J_s - J_min) / (J_max - J_min + delta)).
    ``temperature`` is h; the perturbation covariance comes from the sampler
    passed at run time (shared with the natural-gradient optimizer), and
    ``sigma`` scales its unit-scale draws.
    """

    sigma: float = 1.0
    batch: int = 100
    iterations: int = 100
    temperature: float = 10.0
    early_stop: bool = False

    def __post_init__(self) -> None:
        check_number(self.sigma, "sigma", "non-negative")
        check_integer(self.batch, "batch", 2, np.iinfo(np.intp).max)  # reweighting needs two samples
        check_integer(self.iterations, "iterations", 1)
        check_number(self.temperature, "temperature", "positive")
        check_bool(self.early_stop, "early_stop")


def _stomp_raw(costs: np.ndarray, temperature: float) -> np.ndarray:
    """Unnormalized exponential weights over per-sample costs (lower is better)."""
    costs = np.asarray(costs, dtype=np.float64)
    lowest = np.minimum.reduce(costs, axis=None)
    spread = np.maximum.reduce(costs, axis=None) - lowest
    return np.exp(-temperature * (costs - lowest) / (spread + _DELTA))


def stomp_optimize(
    y0: Trajectory,
    env: BoxEnvironment,
    score_cfg: ScoreConfig,
    cfg: StompConfig,
    sampler: PerturbationSampler,
) -> tuple[Trajectory, list[IterationTrace]]:
    """Reweighting updates y + sum_s w_s eps_s with the start pinned. The
    run's :class:`~nfgopt._kernels.Workspace` holds every (batch, m) array
    of its iterations."""
    values0 = y0.values[:, 0]
    times = y0.grid.times()
    dt = y0.grid.dt
    work = Workspace(cfg.batch, values0.shape[0], sampler.factor.shape[1], env.box_table(times))

    def reweight(values: np.ndarray, k: int) -> _Step:
        eps, candidates = _draw(values, sampler, cfg, k, work)
        scores = batch_scores(env, candidates, times, dt, score_cfg, work=work)
        return _reweighted(_stomp_raw(1.0 - scores, cfg.temperature), eps, float(np.maximum.reduce(scores)))

    values, traces = _iterate(values0, cfg.iterations, cfg.early_stop, _collision_free(env, times), reweight)
    return Trajectory(y0.grid, values), traces


# ---------------------------------------------------------------------------
# analytic gradient descent (CHOMP-style)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChompConfig:
    """Settings for the gradient baseline; the smoothness weight
    ``lambda_jerk`` comes from the score config it is run with."""

    iterations: int = 100
    step: float = 0.05
    early_stop: bool = False

    def __post_init__(self) -> None:
        check_integer(self.iterations, "iterations", 1)
        check_number(self.step, "step", "positive")
        check_bool(self.early_stop, "early_stop")


def _deepest_region(profile: np.ndarray) -> tuple[int, np.ndarray]:
    """Index of deepest penetration and the contiguous colliding run holding it."""
    deepest = int(np.argmin(profile))
    lo = deepest
    while lo > 0 and profile[lo - 1] < 0.0:
        lo -= 1
    hi = deepest
    while hi + 1 < profile.shape[0] and profile[hi + 1] < 0.0:
        hi += 1
    return deepest, np.arange(lo, hi + 1)


def _outward_sign(table: _kernels.BoxTable, column: int, y: float, rng: np.random.Generator) -> float:
    """Sign of the outward normal at value ``y`` in grid column ``column``,
    which lies inside a box of ``table``: toward the nearer horizontal face
    of the deepest containing box (the first listed at equal depth), random
    at an exact midpoint tie."""
    lo = table.lo[:, column]
    hi = table.hi[:, column]
    box = int(np.argmax(np.minimum(y - lo, hi - y)))
    d_lo = y - lo[box]
    d_hi = hi[box] - y
    if d_hi < d_lo:
        return 1.0
    if d_lo < d_hi:
        return -1.0
    return float(rng.choice((-1.0, 1.0)))


def chomp_gradient(
    env: BoxEnvironment,
    values: np.ndarray,
    times: np.ndarray,
    dt: float,
    score_cfg: ScoreConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Ascent direction on the score of the path ``values`` on grid ``times``.

    Colliding: unit push along the outward normal on every grid point of
    the deepest-penetration region (the contiguous colliding run containing
    the global minimum), zero elsewhere. Collision-free: the exact gradient
    of exp(-lambda_jerk * mean |third difference| / dt^3), formed through
    the adjoint of the third-difference stencil: the full convolution of
    the window signs with the reversed stencil. The only randomness is the
    tie-break at an exact midpoint.
    """
    table = env.box_table(times)
    profile = _kernels.penetration_profile_batch(values[None, :], table)[0]
    m = values.shape[0]
    if (profile < 0.0).any():
        deepest, region = _deepest_region(profile)
        direction = np.zeros(m)
        direction[region] = _outward_sign(table, deepest, float(values[deepest]), rng)
        return direction
    dt3 = dt**3
    windows = m - 3
    d3 = _kernels.third_difference(values)
    # Not _kernels.mean_abs_jerk: one division by windows*dt3 rounds
    # differently from dividing by windows, then by dt3, and the gradient's
    # last bits move CHOMP's path_length and the records fingerprint.
    mean_jerk = np.abs(d3).sum() / (windows * dt3)
    # sums of the integers +-1 and +-3 only, so exact in any order
    adjoint = np.convolve(np.sign(d3), (-1.0, 3.0, -3.0, 1.0))
    grad_mean_jerk = adjoint / (windows * dt3)
    lambda_jerk = score_cfg.lambda_jerk
    return np.exp(-lambda_jerk * mean_jerk) * (-lambda_jerk) * grad_mean_jerk


def chomp_optimize(
    y0: Trajectory,
    env: BoxEnvironment,
    score_cfg: ScoreConfig,
    cfg: ChompConfig,
    rng: np.random.Generator,
) -> tuple[Trajectory, list[IterationTrace]]:
    """Fixed-size steps along :func:`chomp_gradient`, the deterministic
    update rule; ``rng`` only breaks midpoint ties."""
    values0 = y0.values[:, 0]
    times = y0.grid.times()
    dt = y0.grid.dt

    def descend(values: np.ndarray, k: int) -> _Step:
        score = float(batch_scores(env, values[None, :], times, dt, score_cfg)[0])
        direction = chomp_gradient(env, values, times, dt, score_cfg, rng)
        return _Step(cfg.step * direction, score, 0.0, _norm(direction))

    values, traces = _iterate(values0, cfg.iterations, cfg.early_stop, _collision_free(env, times), descend)
    return Trajectory(y0.grid, values), traces


# ---------------------------------------------------------------------------
# rollout reweighting with Wiener noise (MPPI-style)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MppiConfig:
    """Settings for the rollout reweighting baseline.

    Rollout s perturbs the whole horizon with a Wiener path: i.i.d. normal
    increments scaled by ``noise_scale``, cumulatively summed, first
    increment zeroed so rollouts share the pinned start. ``noise_scale``
    defaults to 0.1 * sqrt(dt) when left unset. Costs are
    weight_obs * sum(-s_t) + weight_goal * sum((y_t - goal)^2), combined by
    softmin weights at the configured temperature.
    """

    rollouts: int = 100
    iterations: int = 100
    temperature: float = 1.0
    noise_scale: float | None = None
    goal: float = 0.0
    weight_obs: float = 1.0
    weight_goal: float = 1.0
    early_stop: bool = False

    def __post_init__(self) -> None:
        check_integer(self.rollouts, "rollouts", 2, np.iinfo(np.intp).max)  # reweighting needs two samples
        check_integer(self.iterations, "iterations", 1)
        check_number(self.temperature, "temperature", "positive")
        if self.noise_scale is not None:
            # zero is allowed: it degenerates to a fixed point, useful in tests
            check_number(self.noise_scale, "noise_scale", "non-negative")
        check_number(self.goal, "goal")
        check_number(self.weight_obs, "weight_obs", "non-negative")
        check_number(self.weight_goal, "weight_goal", "non-negative")
        check_bool(self.early_stop, "early_stop")

    def resolved_noise_scale(self, dt: float) -> float:
        if self.noise_scale is not None:
            return self.noise_scale
        return 0.1 * np.sqrt(dt)


def _softmin_raw(costs: np.ndarray, temperature: float) -> np.ndarray:
    """Unnormalized exp(-(J - J_min) / temperature); the lowest cost weighs most."""
    costs = np.asarray(costs, dtype=np.float64)
    return np.exp(-(costs - np.minimum.reduce(costs, axis=None)) / temperature)


def _rollout_costs(candidates: np.ndarray, pen: np.ndarray, cfg: MppiConfig) -> np.ndarray:
    """weight_obs * sum(-pen) + weight_goal * sum((candidates - goal)^2) per
    row, squaring in place in ``candidates``, which it overwrites. The
    obstacle term negates the sum of ``pen``: rounding to nearest commutes
    with negation, and the goal term, never -0, absorbs the sign of a zero
    sum, so the costs equal the term-by-term formula bit for bit."""
    obstacle = np.negative(np.add.reduce(pen, axis=1))
    np.square(np.subtract(candidates, cfg.goal, out=candidates), out=candidates)
    return cfg.weight_obs * obstacle + cfg.weight_goal * np.add.reduce(candidates, axis=1)


def wiener_noise(increments: np.ndarray, scale: float) -> np.ndarray:
    """Wiener-process perturbations from the standard normals ``increments``,
    shape (count, steps), in place.

    Row s becomes the cumulative sum of its increments scaled by ``scale``,
    with the first increment zeroed, so every path starts at 0 and
    var(eps_t) grows linearly in t. ``increments``, a writeable
    C-contiguous float64 2-D array (else ConfigError), is returned.
    """
    check_buffer(increments, "increments", getattr(increments, "shape", ()))
    if increments.ndim != 2:
        raise ConfigError(f"increments must be a (count, steps) array, got shape {increments.shape}")
    increments *= scale
    increments[:, 0] = 0.0
    return np.add.accumulate(increments, axis=1, out=increments)


class _Inline:
    """The draw helper where the process may run on one CPU only, where a
    helper thread would only contend with the caller: ``submit`` runs the
    call at once and returns its completed future."""

    def __enter__(self) -> _Inline:
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def submit(self, fn, /, *args, **kwargs):
        from concurrent.futures import Future

        future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def _draw_helper():
    """A one-thread executor for MPPI's draws, or an :class:`_Inline` where
    the process may run on one CPU only. The platform decides, through the
    CPUs the process may run on (their count where that call is missing).
    Each ``--parallel`` worker process starts its own helper per MPPI run,
    so N workers use up to 2N threads."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else os.cpu_count() or 1
    if cpus < 2:
        return _Inline()
    # Imported here, so that importing nfgopt skips concurrent.futures.
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=1)


def mppi_optimize(
    y0: Trajectory,
    env: BoxEnvironment,
    cfg: MppiConfig,
    sampler: PerturbationSampler,
) -> tuple[Trajectory, list[IterationTrace]]:
    """Whole-horizon iterated rollout optimization.

    Each iteration perturbs the full current trajectory with Wiener noise,
    scores every rollout's cost, and applies the softmin-weighted mean
    perturbation. The trace's ``best_score`` column holds the negated
    minimum rollout cost. The run's :class:`~nfgopt._kernels.Workspace`
    holds every (rollouts, m) array of its iterations.

    Iteration k's increments are ``sampler.normals(rollouts, m, k)``, a
    pure function of (seed, k), so they can be drawn early: one helper
    thread draws iteration k + 2's while the caller integrates and scores
    iteration k's (numpy releases the GIL during the fill), into a ring of
    three buffers, ``work.perturbations`` and two more. A buffer goes to
    the helper only once the iteration that read it has returned its step,
    and the helper is shut down, its pending draws finished, on every exit.
    Where the process may run on one CPU only, the draws run inline, in
    the same order. The results are the same either way.
    """
    values0 = y0.values[:, 0]
    times = y0.grid.times()
    table = env.box_table(times)
    scale = cfg.resolved_noise_scale(y0.grid.dt)
    m = values0.shape[0]
    work = Workspace(cfg.rollouts, m, table=table)
    # iteration k reads ring[k % 3] while the helper fills ring[(k + 2) % 3]
    ring = (work.perturbations, _kernels._aligned(work.shape), _kernels._aligned(work.shape))
    pending = []

    def draw(k: int) -> None:
        if k < cfg.iterations:
            pending.append(helper.submit(sampler.normals, cfg.rollouts, m, k, out=ring[k % 3]))

    def rollout(values: np.ndarray, k: int) -> _Step:
        increments = pending.pop(0).result()
        draw(k + 2)  # into the buffer iteration k - 1 read
        eps = wiener_noise(increments, scale)
        candidates = plus_rows(values, eps, work.candidates)
        pen = _kernels.penetration_profile_batch(candidates, table, work=work)
        costs = _rollout_costs(candidates, pen, cfg)
        return _reweighted(_softmin_raw(costs, cfg.temperature), eps, float(-np.minimum.reduce(costs)))

    with _draw_helper() as helper:
        draw(0)
        draw(1)
        values, traces = _iterate(values0, cfg.iterations, cfg.early_stop, _collision_free(env, times), rollout)
    return Trajectory(y0.grid, values), traces
