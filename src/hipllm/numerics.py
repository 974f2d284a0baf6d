"""Special functions, seeded random sampling, and `NumericalError` (exit 3).

Everything downstream (grid posteriors, Monte Carlo propagation, baselines)
is built on the functions here.  The Beta CDF delegates to scipy's betainc;
sampling wraps numpy's PCG64 generator behind an explicit substream-derivation
scheme so that results never depend on scheduling order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import special as sp

__all__ = [
    "beta_cdf",
    "derive_substream",
    "NumericalError",
    "RngState",
    "sample_categorical",
]

_MASK64 = (1 << 64) - 1

# scipy's betainc can be off by up to 0.5 once alpha + beta falls below
# about 1e-150.  With both parameters below this bound, Beta(alpha, beta)
# holds all but about 745 (alpha + beta) of its mass at 0 and 1, so I_t is
# beta / (alpha + beta) on (0, 1) within a relative 1e-97.
TINY_BETA = 1e-100


class NumericalError(ArithmeticError):
    """A refused numerical input or result: the CLI's exit 3."""


def beta_cdf(t, alpha, beta):
    """Regularized incomplete beta function I_t(alpha, beta).

    Accepts scalars or arrays; t must lie in [0, 1] and alpha, beta must be
    finite and > 0.  Both parameters below TINY_BETA give the two-point
    limit.  A nan from scipy's betainc, which it gives near the mean once
    alpha + beta passes about 1e16, raises NumericalError.
    """
    ta = np.asarray(t, dtype=float)
    aa, ba = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    if not np.all((0.0 <= ta) & (ta <= 1.0)):
        raise NumericalError("beta_cdf requires t in [0, 1]")
    if not (np.all((0.0 < aa) & (aa < np.inf)) and np.all((0.0 < ba) & (ba < np.inf))):
        raise NumericalError("beta_cdf requires finite alpha, beta > 0")
    out = sp.betainc(alpha, beta, t)
    tiny = (aa < TINY_BETA) & (ba < TINY_BETA) & (0.0 < ta) & (ta < 1.0)
    if tiny.any():
        with np.errstate(over="ignore", invalid="ignore"):  # used only where tiny
            out = np.where(tiny, ba / (aa + ba), out)[()]
    if np.isnan(out).any():
        raise NumericalError(f"beta_cdf: betainc gave nan, at alpha up to {np.max(aa):.3g}, beta up to {np.max(ba):.3g}")
    return out


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
        self._gen = None

    @property
    def gen(self) -> np.random.Generator:
        """The stream's generator, built on first use: a state that only
        derives substreams builds none."""
        if self._gen is None:
            self._gen = np.random.Generator(np.random.PCG64(self.seed))
        return self._gen

    def substream(self, *path: int) -> "RngState":
        return RngState(derive_substream(self.seed, path))

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed})"


def sample_categorical(rng: RngState, weights, size=None):
    """Draw indices with the given probabilities: index i for a uniform u
    in [cum[i - 1], cum[i]), cum the cumulative weights with cum[-1] = 1,
    i.e. `np.searchsorted(cum, u, side="right")`.

    Weights must be finite, nonnegative and sum to 1 within 1e-9.

    A guide table (Chen & Asau 1974; Devroye 1986, section III.2.4) finds
    most indices in O(1) and gives exactly the same ones.  With m the power
    of two >= 4G for G weights, u * m and cum * m are exact (u is a multiple
    of 2**-53 below 1), so a draw's bucket b = floor(u * m) and each entry's
    bucket floor(cum[i] * m) are exact: every cum[i] in a bucket below b is
    <= u and every one in a bucket above b is > u.  A draw whose bucket holds
    no cum[i] therefore gets the count of the entries below its bucket; the
    draws whose bucket holds one, at most G / m <= 1/4 of them in
    expectation, go through `np.searchsorted`.
    """
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0.0):
        raise NumericalError("categorical weights must be nonnegative")
    total = w.sum()
    # written so that a nan or infinite sum fails it too
    if not abs(total - 1.0) <= 1e-9:
        raise NumericalError(f"categorical weights sum to {total!r}, not 1 within 1e-9")
    cum = np.cumsum(w)
    np.minimum(cum, 1.0, out=cum)  # moves no index: no u reaches 1
    cum[-1] = 1.0
    m = 1 << (4 * w.size - 1).bit_length()
    cum *= m  # exact: the cumulative weights in bucket units, 0 to m
    edges = cum.astype(np.intp)
    # guide[b] counts the cum[i] in buckets below b: the index of every draw
    # in bucket b when b holds no cum[i], and -1 when it holds some.  Its
    # type is the smallest that holds -1 and G - 1, which keeps it in cache.
    steps = np.empty_like(edges)
    steps[0] = edges[0] + 1
    np.subtract(edges[1:], edges[:-1], out=steps[1:])
    guide = np.repeat(np.arange(w.size, dtype=np.min_scalar_type(-w.size)), steps)
    guide[edges] = -1
    u = rng.gen.random(size=size)
    scaled = np.ravel(u)
    scaled *= m  # exact, like cum
    idx = guide[scaled.astype(np.intp)].astype(np.intp)
    mixed = np.flatnonzero(idx < 0)
    idx[mixed] = np.searchsorted(cum, scaled[mixed], side="right")
    return idx.reshape(np.shape(u))[()]
