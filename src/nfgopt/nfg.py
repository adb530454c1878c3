"""Natural functional gradient ascent in a discretized function space.

Each iteration draws smooth Gaussian perturbations eps = sigma * F z around
the current mean trajectory mu, where F is the sampler's (m, r) covariance
factor and z holds r standard normals, scores mu + eps in batch, and moves
mu along the weighted perturbation average

    direction = (1 / (B sigma^2)) * sum_s exp(n_pow * f_s) * eps_s,

which estimates the natural gradient of the smoothed, exponentially
transformed objective. The update stays in the span of the sampled
perturbations, so every iterate inherits the kernel's smoothness.

Weight modes: ``raw`` uses exp(n_pow * f_s) as written (exponent clamped to
keep doubles finite); ``shifted`` subtracts the batch maximum inside the
exponent first, rescaling the direction by a positive per-batch constant.
The shift prevents overflow at large n_pow and leaves the normalized step
unchanged.

The iteration loop here (:func:`_iterate`) is the one every optimizer in
the package runs; the baselines supply only their update rules.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._kernels import Workspace, plus_rows
from .environment import EXP_CLAMP, BoxEnvironment, ScoreConfig, batch_scores, penetration_profile
from .errors import ConfigError, DegenerateBatchError, NonFiniteStepError, check_bool, check_integer, check_number
from .sampling import PerturbationSampler
from .trajectory import Trajectory

_NORM_EPS = 1e-12

WEIGHT_MODES = ("raw", "shifted")


@dataclass(frozen=True)
class NfgConfig:
    """Optimizer settings.

    The update direction is scaled to unit norm before each step of
    ``step_size``, which makes a constant step usable even though raw
    weights can span hundreds of orders of magnitude.
    """

    sigma: float = 1.0
    n_pow: float = 100.0
    batch: int = 100
    iterations: int = 100
    step_size: float = 0.1
    early_stop: bool = False
    weight_mode: str = "shifted"

    def __post_init__(self) -> None:
        check_number(self.sigma, "sigma", "positive")
        check_number(self.n_pow, "n_pow", "positive")
        check_integer(self.batch, "batch", 1, np.iinfo(np.intp).max)  # numpy's longest axis
        check_integer(self.iterations, "iterations", 1)
        check_number(self.step_size, "step_size", "positive")
        check_bool(self.early_stop, "early_stop")
        if self.weight_mode not in WEIGHT_MODES:
            raise ConfigError(f"weight_mode must be one of {WEIGHT_MODES}, got {self.weight_mode!r}")


@dataclass(frozen=True)
class IterationTrace:
    iteration: int
    best_score: float
    mean_weight: float
    estimator_norm: float
    feasible: bool
    wall_time: float


class _Step(NamedTuple):
    """What one update rule returns: the change to the values (None for no
    change) and the trace columns it reports."""

    delta: np.ndarray | None
    best_score: float
    mean_weight: float
    norm: float


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a 1-D array: the path ``np.linalg.norm`` takes for
    one, without its checks."""
    return math.sqrt(x.dot(x))


def batch_weights(scores: np.ndarray, n_pow: float, weight_mode: str) -> np.ndarray:
    """Per-sample weights exp(n_pow * score) in the requested mode.

    Scores of -inf map to weight 0 exactly. Raises
    :class:`DegenerateBatchError` when every sample weighs 0, which can
    only happen when the whole batch scored -inf.
    """
    scores = np.asarray(scores, dtype=np.float64)
    finite_max = np.maximum.reduce(scores, axis=None)
    if finite_max == -np.inf:
        raise DegenerateBatchError("every sample in the batch scored -inf")
    if weight_mode == "shifted":
        args = n_pow * (scores - finite_max)
    elif weight_mode == "raw":
        args = np.clip(n_pow * scores, -EXP_CLAMP, EXP_CLAMP)
    else:
        raise ConfigError(f"weight_mode must be one of {WEIGHT_MODES}, got {weight_mode!r}")
    weights = np.exp(args)
    weights[scores == -np.inf] = 0.0
    return weights


def _draw(values: np.ndarray, sampler: PerturbationSampler, cfg, stream: int, work: Workspace | None):
    """The draw NFG and STOMP share, for ``cfg`` an NfgConfig or a
    StompConfig: the perturbations ``cfg.sigma * sampler.sample(cfg.batch,
    stream)`` and the candidates ``values + perturbations``, in ``work``'s
    ``normals``, ``perturbations`` and ``candidates``, or without it in
    new arrays. The draws and sums are the same either way."""
    if work is None:
        eps = sampler.sample(cfg.batch, stream)
        candidates = np.empty_like(eps)
    else:
        eps = sampler.sample(cfg.batch, stream, out=work.perturbations, normals_out=work.normals)
        candidates = work.candidates
    eps *= cfg.sigma
    return eps, plus_rows(values, eps, candidates)


def estimate_direction(
    mu_values: np.ndarray,
    objective: Callable[[np.ndarray], np.ndarray],
    sampler: PerturbationSampler,
    cfg: NfgConfig,
    stream: int,
    *,
    work: Workspace | None = None,
) -> tuple[np.ndarray, dict]:
    """Monte-Carlo natural-gradient direction for a generic batch objective.

    Parameters
    ----------
    mu_values : ndarray, shape (m,)
        Current mean in grid coordinates.
    objective : callable
        Maps a (B, m) batch of candidate vectors to (B,) scores; -inf marks
        hard infeasibility.
    sampler : PerturbationSampler
        Source of the unit-scale perturbations, which ``cfg.sigma`` scales.
    stream : int
        Substream of the sampler to draw from; the optimizer passes its
        iteration.
    work : Workspace, optional
        Buffers for a (``cfg.batch``, m) batch and the sampler's rank: the
        normals, perturbations and candidates are drawn and summed into its
        ``normals``, ``perturbations`` and ``candidates``, so ``objective``
        receives ``work.candidates``, overwritten by the next call that
        uses ``work``. Without it they are new arrays, and ``objective``
        receives the new candidates. The direction is the same either way.

    Returns
    -------
    direction : ndarray, shape (m,)
        ``(1 / (B sigma^2)) * sum_s w_s eps_s``.
    stats : dict
        ``best_score`` and ``mean_weight`` of the batch.

    Raises :class:`DegenerateBatchError` when every sample scored -inf.
    """
    mu_values = np.asarray(mu_values, dtype=np.float64)
    if mu_values.ndim != 1 or mu_values.shape[0] != sampler.factor.shape[0]:
        raise ConfigError(
            f"mu has shape {mu_values.shape} but the covariance factor is {sampler.factor.shape}"
        )
    eps, candidates = _draw(mu_values, sampler, cfg, stream, work)
    scores = np.asarray(objective(candidates), dtype=np.float64)
    if scores.shape != (cfg.batch,):
        raise ValueError(f"objective returned shape {scores.shape}, expected ({cfg.batch},)")
    weights = batch_weights(scores, cfg.n_pow, cfg.weight_mode)
    direction = (weights @ eps) / (cfg.batch * cfg.sigma**2)
    # The ufunc reductions without the ndarray methods' Python wrappers.
    stats = {
        "best_score": float(np.maximum.reduce(scores)),
        "mean_weight": float(np.add.reduce(weights) / cfg.batch),
    }
    return direction, stats


def _iterate(
    values0: np.ndarray,
    iterations: int,
    early_stop: bool,
    feasibility: Callable[[np.ndarray], bool] | None,
    update: Callable[[np.ndarray, int], _Step],
) -> tuple[np.ndarray, list[IterationTrace]]:
    """The optimizer loop every method runs; only ``update`` differs.

    Iteration k checks feasibility of the current values (False without a
    ``feasibility`` callable), stops before updating when ``early_stop`` is
    set and the values are feasible, then applies ``update(values, k)``.
    The step it returns is added with the start point pinned; a step of
    None leaves the values unchanged, and a step that leaves them NaN or
    infinite raises :class:`NonFiniteStepError`. One trace row is written
    per completed iteration.
    """
    values = np.asarray(values0, dtype=np.float64).copy()
    if values.ndim != 1:
        raise ConfigError(f"values0 must be 1-D, got shape {values.shape}")
    start = values[0]
    traces: list[IterationTrace] = []
    for k in range(iterations):
        t0 = time.perf_counter()
        feasible = bool(feasibility(values)) if feasibility is not None else False
        if early_stop and feasible:
            break
        step = update(values, k)
        if step.delta is not None:
            values = values + step.delta
            values[0] = start
            if not np.logical_and.reduce(np.isfinite(values)):
                raise NonFiniteStepError(k)
        traces.append(
            IterationTrace(
                k, step.best_score, step.mean_weight, step.norm, feasible,
                time.perf_counter() - t0,
            )
        )
    return values, traces


def optimize_objective(
    values0: np.ndarray,
    objective: Callable[[np.ndarray], np.ndarray],
    sampler: PerturbationSampler,
    cfg: NfgConfig,
    feasibility: Callable[[np.ndarray], bool] | None = None,
    *,
    work: Workspace | None = None,
) -> tuple[np.ndarray, list[IterationTrace]]:
    """Run the ascent loop on a generic batch objective.

    Iteration k draws from substream k of the sampler, so results do not
    depend on how many iterations ran before or after. Feasibility of the
    current mean is checked at the top of each iteration; with
    ``cfg.early_stop`` the loop exits before sampling once the mean is
    feasible, leaving no trace row for the aborted iteration.

    A degenerate batch (every sample at -inf) skips the update, records a
    zero-direction trace row, and continues with fresh samples.

    ``work`` goes to every :func:`estimate_direction` call. Without it,
    each iteration draws into new arrays, so ``objective`` gets a fresh
    batch each iteration, which it may keep; with it, the batch is
    ``work.candidates``, which the next iteration overwrites, so an
    objective that keeps its batch must copy it.
    """

    def ascent(values: np.ndarray, k: int) -> _Step:
        try:
            direction, stats = estimate_direction(values, objective, sampler, cfg, k, work=work)
        except DegenerateBatchError:
            return _Step(None, -np.inf, 0.0, 0.0)
        norm = _norm(direction)
        direction = direction / (norm + _NORM_EPS)
        return _Step(cfg.step_size * direction, stats["best_score"], stats["mean_weight"], norm)

    return _iterate(values0, cfg.iterations, cfg.early_stop, feasibility, ascent)


def optimize(
    mu0: Trajectory,
    env: BoxEnvironment,
    score_cfg: ScoreConfig,
    sampler: PerturbationSampler,
    cfg: NfgConfig,
) -> tuple[Trajectory, list[IterationTrace]]:
    """Optimize a trajectory against a box environment.

    Returns the final mean trajectory and one trace row per completed
    iteration. The trace's ``feasible`` flag reports whether the mean was
    collision-free when the iteration started. The run builds one
    :class:`~nfgopt._kernels.Workspace` before its first iteration, so no
    iteration allocates a (batch, m) array.
    """
    values0 = mu0.values[:, 0]
    times = mu0.grid.times()
    dt = mu0.grid.dt
    work = Workspace(cfg.batch, values0.shape[0], sampler.factor.shape[1], env.box_table(times))

    def objective(batch_values: np.ndarray) -> np.ndarray:
        return batch_scores(env, batch_values, times, dt, score_cfg, work=work)

    def feasibility(values: np.ndarray) -> bool:
        return bool((penetration_profile(env, values, times) == 0.0).all())

    final_values, traces = optimize_objective(values0, objective, sampler, cfg, feasibility=feasibility, work=work)
    return Trajectory(mu0.grid, final_values), traces
