"""Squared-exponential kernel, its regularized factors, and smooth
Gaussian perturbation sampling.

:func:`factorize` returns the read-only lower-triangular ``L`` with
``L L^T = K + reg*I``. :func:`principal_factor` keeps from it the r
principal components whose kernel eigenvalue exceeds the jitter ``reg``:
an (m, r) factor ``F`` with ``F F^T`` within ``2*reg`` of ``K + reg*I``
entrywise. The sampler draws unit-scale perturbations ``F @ z`` with
``z ~ N(0, I_r)`` for any factor of shape (m, r), so every sample is a
smooth function drawn from the kernel's function space; an optimizer
scales them by the ``sigma`` of its own config. A square Cholesky factor
is the case r = m. Randomness is counter-based: substream ``stream`` is a
Philox engine keyed on ``(seed, stream)``, and a batch of ``count`` rows
is one ``standard_normal((count, width))`` draw from it, filled row by
row. A batch is thus a pure function of ``(seed, stream, count, width)``,
and a smaller batch of the same width is a prefix of a larger one. The
optimizers use iteration k's substream for iteration k. Each sampler holds
one engine and resets it to a new engine's state on every call, which gives
the same stream without building an engine per call.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConfigError

_UINT64_MAX = 2**64 - 1


def _check_integer(value, name: str) -> None:
    """Reject anything but a Python or numpy integer (not a bool): Philox
    would silently truncate a float key, and numpy raises a bare TypeError
    on a float shape."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_uint64(value, name: str) -> None:
    """Reject anything but an integer in [0, 2**64)."""
    _check_integer(value, name)
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


def principal_factor(L: np.ndarray, reg: float) -> np.ndarray:
    """Read-only (m, r) factor of the principal components of ``L L^T``
    whose kernel eigenvalue exceeds the jitter ``reg``.

    With ``L = U S V^T``, ``S**2`` are the eigenvalues of ``K + reg*I``;
    the columns ``U[:, j] * S[j]`` with ``S[j]**2 > 2*reg`` are kept, each
    with its sign flipped so that its largest-magnitude entry is positive.
    Every dropped eigenvalue of ``K + reg*I`` is at most ``2*reg``, so the
    product of the result with its transpose is within ``2*reg`` of
    ``L L^T`` entrywise.

    Raises
    ------
    ConfigError
        If no eigenvalue exceeds the jitter.
    """
    U, S, _ = np.linalg.svd(L)
    keep = S * S > 2.0 * reg
    if not keep.any():
        raise ConfigError(f"no kernel eigenvalue exceeds the jitter reg={reg}; lower reg_scale")
    U = U[:, keep]
    signs = np.sign(U[np.abs(U).argmax(axis=0), np.arange(U.shape[1])])
    F = U * (signs * S[keep])
    F.flags.writeable = False
    return F


@dataclass(frozen=True, eq=False)
class PerturbationSampler:
    """Deterministic source of unit-scale smooth perturbations F @ z.

    ``factor`` F has shape (m, r): each perturbation is m grid values
    drawn from r standard normals, with covariance F F^T. ``stream``
    partitions the seed into independent substreams, each read from its
    start by every call. Two calls with the same stream return identical
    output, and a call for fewer rows returns a prefix of a call for more.
    The sampler's one Philox engine is reset on every call, behind a lock;
    it is not a field, so equality, hashing, repr and pickling see only
    ``factor`` and ``seed``. Two samplers are equal when their seeds are
    equal and their factors have the same shape and entries.
    """

    factor: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        _check_uint64(self.seed, "seed")
        object.__setattr__(self, "_engine", Generator(Philox(0)))
        object.__setattr__(self, "_lock", threading.Lock())

    def __eq__(self, other):
        if not isinstance(other, PerturbationSampler):
            return NotImplemented
        return self.seed == other.seed and np.array_equal(self.factor, other.factor)

    def __hash__(self):
        # Equal samplers have equal seeds and factor shapes.
        return hash((self.seed, np.shape(self.factor)))

    def __reduce__(self):
        # Pickle the fields alone: the copy builds its own engine and lock.
        return PerturbationSampler, (self.factor, self.seed)

    def normals(self, count: int, width: int, stream: int) -> np.ndarray:
        """Raw standard-normal block of shape (count, width).

        One ``standard_normal((count, width))`` call on the sampler's
        Philox engine, set first to the state a new engine keyed on
        (seed, stream) starts from, so row ``s`` holds the stream's draws
        ``s*width`` to ``(s+1)*width - 1``. A private lock spans the reset
        and the draw, so a sampler shared between threads returns the same
        draws. This is the i.i.d. source underlying :meth:`sample`;
        consumers that need unsmoothed noise (Wiener-process rollouts) use
        it directly.
        """
        _check_integer(count, "count")
        _check_integer(width, "width")
        if count < 1:
            raise ConfigError(f"count must be at least 1, got {count}")
        if width < 1:
            raise ConfigError(f"width must be at least 1, got {width}")
        _check_uint64(stream, "stream")
        key = np.array([self.seed, stream], dtype=np.uint64)
        state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        # Not the bit generator's own lock: standard_normal takes that one.
        with self._lock:
            self._engine.bit_generator.state = state
            return self._engine.standard_normal((count, width))

    def sample(self, count: int, stream: int) -> np.ndarray:
        """Draw ``count`` unit-scale smooth perturbations, shape (count, m):
        ``normals(count, r, stream) @ factor.T``."""
        z = self.normals(count, self.factor.shape[1], stream)
        return z @ self.factor.T
