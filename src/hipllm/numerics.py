"""Special functions and seeded random sampling.

Everything downstream (grid posteriors, Monte Carlo propagation, baselines)
is built on the functions here.  Special functions delegate to scipy.special;
sampling wraps numpy's PCG64 generator behind an explicit substream-derivation
scheme so that results never depend on scheduling order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import special as sp

__all__ = [
    "ln_beta",
    "beta_cdf",
    "derive_substream",
    "RngState",
    "sample_categorical",
]

_MASK64 = (1 << 64) - 1


class DomainError(ValueError):
    """Input outside the mathematical domain of a special function."""


def ln_beta(x: float, y: float) -> float:
    """Natural log of the Beta function B(x, y) for x, y > 0."""
    xa, ya = np.asarray(x), np.asarray(y)
    if (
        not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya)))
        or np.any(xa <= 0.0)
        or np.any(ya <= 0.0)
    ):
        raise DomainError(f"ln_beta requires finite positive arguments, got {x!r}, {y!r}")
    return sp.betaln(x, y)


def beta_cdf(t, alpha, beta):
    """Regularized incomplete beta function I_t(alpha, beta).

    Accepts scalars or arrays; t must lie in [0, 1] and alpha, beta must be
    finite and > 0.
    """
    ta = np.asarray(t, dtype=float)
    aa, ba = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    if not np.all((0.0 <= ta) & (ta <= 1.0)):
        raise DomainError("beta_cdf requires t in [0, 1]")
    if not (np.all((0.0 < aa) & (aa < np.inf)) and np.all((0.0 < ba) & (ba < np.inf))):
        raise DomainError("beta_cdf requires finite alpha, beta > 0")
    return sp.betainc(alpha, beta, t)


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_substream(master: int, path: Sequence[int]) -> int:
    """Derive a substream seed from a master seed and an index path.

    Pure function of (master, path); distinct paths give distinct seeds so
    parallel scheduling can never change results.  Mixing is splitmix64-style
    64-bit finalization applied per path element.
    """
    seed = _splitmix64(master & _MASK64)
    for idx in path:
        seed = _splitmix64(seed ^ _splitmix64((int(idx) + 0x632BE59BD9B4E019) & _MASK64))
    return seed


class RngState:
    """Seeded random stream (numpy PCG64) with substream derivation.

    Same seed and draw sequence give bit-identical outputs on one build.
    Each thread must own its own RngState; instances are not shared.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.gen = np.random.Generator(np.random.PCG64(self.seed))

    def substream(self, *path: int) -> "RngState":
        return RngState(derive_substream(self.seed, path))

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed})"


def sample_categorical(rng: RngState, weights, size=None):
    """Draw indices with the given probabilities.

    Weights must be nonnegative and sum to 1 within 1e-9.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0):
        raise DomainError("categorical weights must be nonnegative")
    if abs(w.sum() - 1.0) > 1e-9:
        raise DomainError(f"categorical weights sum to {w.sum()!r}, not 1 within 1e-9")
    cum = np.cumsum(w)
    cum[-1] = 1.0
    u = rng.gen.random(size=size)
    return np.searchsorted(cum, u, side="right")
