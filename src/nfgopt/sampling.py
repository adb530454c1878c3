"""Squared-exponential kernel, regularized Cholesky factor, and smooth
Gaussian perturbation sampling.

Perturbations are ``eps = sigma * L @ z`` with ``L L^T = K + reg*I`` and
``z ~ N(0, I_m)``, so every sample is a smooth function drawn from the
kernel's function space. Randomness is counter-based: draw ``s`` of stream
``(seed, stream_id)`` is generated by a Philox engine keyed on
``(seed, stream_id)`` with its counter set to ``s``, which makes each draw a
pure function of ``(seed, stream_id, s)``. Any partition of a batch across
workers concatenates to the single-threaded result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigError

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class SEKernel:
    """Squared-exponential kernel k(x, x') = variance * exp(-|x-x'|^2 / (2 l^2))."""

    variance: float
    length_scale: float

    def __post_init__(self) -> None:
        if not (self.variance > 0.0 and np.isfinite(self.variance)):
            raise ConfigError(f"kernel variance must be positive, got {self.variance}")
        if not (self.length_scale > 0.0 and np.isfinite(self.length_scale)):
            raise ConfigError(f"kernel length_scale must be positive, got {self.length_scale}")


def kernel_matrix(grid, kernel: SEKernel) -> np.ndarray:
    """Kernel matrix K_ij = k(t_i, t_j) on the grid's timestamps.

    Built from the antisymmetric pairwise time differences, so the result
    is exactly symmetric and the diagonal is exactly ``variance``.
    """
    t = grid.times()
    diff = t[:, None] - t[None, :]
    return kernel.variance * np.exp(-(diff * diff) / (2.0 * kernel.length_scale**2))


@dataclass(frozen=True)
class CovarianceFactor:
    """Lower-triangular L with L L^T = K + reg*I."""

    size: int
    reg: float
    factor: np.ndarray

    def __post_init__(self) -> None:
        factor = np.asarray(self.factor, dtype=np.float64).copy()
        factor.flags.writeable = False
        object.__setattr__(self, "factor", factor)

    def covariance(self) -> np.ndarray:
        """Reconstruct the regularized covariance L L^T."""
        return self.factor @ self.factor.T


def factorize(K: np.ndarray, reg: float) -> CovarianceFactor:
    """Cholesky-factor the regularized kernel matrix K + reg*I.

    Raises
    ------
    ConfigError
        If K is not square and exactly symmetric, reg is not positive, or
        the factorization fails (K not positive semidefinite).
    """
    K = np.asarray(K, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ConfigError(f"kernel matrix must be square, got shape {K.shape}")
    if not np.array_equal(K, K.T):
        raise ConfigError("kernel matrix must be exactly symmetric")
    if not (reg > 0.0 and np.isfinite(reg)):
        raise ConfigError(f"regularization must be positive, got {reg}")
    try:
        L = np.linalg.cholesky(K + reg * np.eye(K.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise ConfigError(f"Cholesky factorization failed: {exc}") from exc
    return CovarianceFactor(size=K.shape[0], reg=reg, factor=L)


@dataclass(frozen=True)
class PerturbationSampler:
    """Deterministic stream of smooth perturbations eps = sigma * L @ z.

    ``stream_id`` partitions the seed into independent substreams (one per
    optimizer iteration); within a stream, draw ``s`` is fixed by its index
    alone. Two calls with the same (seed, stream_id) return identical
    output; the sampler holds no mutable state.
    """

    factor: CovarianceFactor
    sigma: float
    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        if not (self.sigma >= 0.0 and np.isfinite(self.sigma)):
            raise ConfigError(f"sigma must be non-negative, got {self.sigma}")
        if not (0 <= self.seed <= _UINT64_MAX):
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")
        if not (0 <= self.stream_id <= _UINT64_MAX):
            raise ConfigError(f"stream_id must fit in 64 bits, got {self.stream_id}")

    def with_stream(self, stream_id: int) -> PerturbationSampler:
        """Same seed and covariance, different substream."""
        return replace(self, stream_id=stream_id)

    def normals(self, count: int, width: int) -> np.ndarray:
        """Raw standard-normal block of shape (count, width).

        Draw ``s`` comes from a Philox engine keyed on (seed, stream_id)
        with counter ``s``, independent of evaluation order or batching.
        This is the i.i.d. source underlying :meth:`sample`; consumers that
        need unsmoothed noise (Wiener-process rollouts) use it directly.
        """
        if count < 1:
            raise ConfigError(f"count must be at least 1, got {count}")
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        out = np.empty((count, width))
        counter = np.zeros(4, dtype=np.uint64)
        for s in range(count):
            counter[2] = s
            out[s] = Generator(Philox(counter=counter, key=key)).standard_normal(width)
        return out

    def sample(self, count: int) -> np.ndarray:
        """Draw ``count`` smooth perturbations, shape (count, m)."""
        z = self.normals(count, self.factor.size)
        return self.sigma * z @ self.factor.factor.T
