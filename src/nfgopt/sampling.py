"""Squared-exponential kernel, regularized Cholesky factor, and smooth
Gaussian perturbation sampling.

:func:`factorize` returns the read-only lower-triangular ``L`` with
``L L^T = K + reg*I``. The sampler draws unit-scale perturbations
``L @ z`` with ``z ~ N(0, I_m)``, so every sample is a smooth function
drawn from the kernel's function space; an optimizer scales them by the
``sigma`` of its own config. Randomness is counter-based: draw ``s`` of
substream ``stream`` is generated by a Philox engine keyed on
``(seed, stream)`` with its counter set to ``s``, which makes each draw a
pure function of ``(seed, stream, s)``. The optimizers use iteration k's
substream for iteration k. Any partition of a batch across workers
concatenates to the single-threaded result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigError

_UINT64_MAX = 2**64 - 1


@dataclass(frozen=True)
class SEKernel:
    """Squared-exponential kernel k(x, x') = variance * exp(-|x-x'|^2 / (2 l^2))."""

    variance: float = 0.29
    length_scale: float = 0.22

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


def factorize(K: np.ndarray, reg: float) -> np.ndarray:
    """Read-only lower-triangular Cholesky factor L of K + reg*I.

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
    L.flags.writeable = False
    return L


@dataclass(frozen=True)
class PerturbationSampler:
    """Deterministic source of unit-scale smooth perturbations L @ z.

    ``stream`` partitions the seed into independent substreams; within a
    substream, draw ``s`` is fixed by its index alone. Two calls with the
    same stream return identical output; the sampler holds no mutable
    state.
    """

    factor: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        if not (0 <= self.seed <= _UINT64_MAX):
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")

    def normals(self, count: int, width: int, stream: int) -> np.ndarray:
        """Raw standard-normal block of shape (count, width).

        Draw ``s`` comes from a Philox engine keyed on (seed, stream) with
        counter ``s``, independent of evaluation order or batching. This is
        the i.i.d. source underlying :meth:`sample`; consumers that need
        unsmoothed noise (Wiener-process rollouts) use it directly.
        """
        if count < 1:
            raise ConfigError(f"count must be at least 1, got {count}")
        if not (0 <= stream <= _UINT64_MAX):
            raise ConfigError(f"stream must fit in 64 bits, got {stream}")
        key = np.array([self.seed, stream], dtype=np.uint64)
        out = np.empty((count, width))
        counter = np.zeros(4, dtype=np.uint64)
        for s in range(count):
            counter[2] = s
            out[s] = Generator(Philox(counter=counter, key=key)).standard_normal(width)
        return out

    def sample(self, count: int, stream: int) -> np.ndarray:
        """Draw ``count`` unit-scale smooth perturbations, shape (count, m)."""
        z = self.normals(count, self.factor.shape[0], stream)
        return z @ self.factor.T
