"""Squared-exponential kernel, regularized Cholesky factor, and smooth
Gaussian perturbation sampling.

:func:`factorize` returns the read-only lower-triangular ``L`` with
``L L^T = K + reg*I``. The sampler draws unit-scale perturbations
``L @ z`` with ``z ~ N(0, I_m)``, so every sample is a smooth function
drawn from the kernel's function space; an optimizer scales them by the
``sigma`` of its own config. Randomness is counter-based: substream
``stream`` is a Philox engine keyed on ``(seed, stream)``, and a batch of
``count`` rows is one ``standard_normal((count, width))`` draw from it,
filled row by row. A batch is thus a pure function of
``(seed, stream, count, width)``, and a smaller batch of the same width
is a prefix of a larger one. The optimizers use iteration k's substream
for iteration k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigError

_UINT64_MAX = 2**64 - 1


def _check_uint64(value, name: str) -> None:
    """Reject anything but a Python or numpy integer (not a bool) in
    [0, 2**64): Philox would silently truncate a float key."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if not (0 <= value <= _UINT64_MAX):
        raise ConfigError(f"{name} must fit in 64 bits, got {value}")


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

    ``stream`` partitions the seed into independent substreams, each read
    from its start by every call. Two calls with the same stream return
    identical output, and a call for fewer rows returns a prefix of a call
    for more; the sampler holds no mutable state.
    """

    factor: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        _check_uint64(self.seed, "seed")

    def normals(self, count: int, width: int, stream: int) -> np.ndarray:
        """Raw standard-normal block of shape (count, width).

        One ``standard_normal((count, width))`` call on a fresh Philox
        engine keyed on (seed, stream), so row ``s`` holds the stream's
        draws ``s*width`` to ``(s+1)*width - 1``. This is the i.i.d. source
        underlying :meth:`sample`; consumers that need unsmoothed noise
        (Wiener-process rollouts) use it directly.
        """
        if count < 1:
            raise ConfigError(f"count must be at least 1, got {count}")
        if width < 1:
            raise ConfigError(f"width must be at least 1, got {width}")
        _check_uint64(stream, "stream")
        key = np.array([self.seed, stream], dtype=np.uint64)
        return Generator(Philox(key=key)).standard_normal((count, width))

    def sample(self, count: int, stream: int) -> np.ndarray:
        """Draw ``count`` unit-scale smooth perturbations, shape (count, m)."""
        z = self.normals(count, self.factor.shape[0], stream)
        return z @ self.factor.T
