"""Precise-prior Beta-Binomial baselines.

Closed-form conjugate updates, exact expected future reliability, the
interval envelope of the posterior mean over a prior box, and a sampler
that aggregates independent subdomain posteriors through the operational
profile.  Used standalone and as comparators in the synthetic harness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .model import SystemSpec
from .numerics import RngState, ln_beta

__all__ = [
    "BetaPosterior",
    "bb_update",
    "bb_expected_future_reliability",
    "bb_mean_envelope",
    "bb_system_samples",
    "informative_prior",
]

# Beyond this horizon the telescoping product is replaced by log-Beta
# differences (same value, bounded cost).
_PRODUCT_HORIZON_LIMIT = 10_000


@dataclass(frozen=True)
class BetaPosterior:
    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ValueError(f"Beta parameters must be positive, got ({self.alpha}, {self.beta})")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


def bb_update(c: int, n: int, prior_alpha: float, prior_beta: float) -> BetaPosterior:
    """Conjugate update: Beta(a, b) prior + C successes of N trials."""
    if not (0 <= c <= n):
        raise ValueError(f"need 0 <= correct <= total, got {c}/{n}")
    return BetaPosterior(prior_alpha + c, prior_beta + n - c)


def bb_expected_future_reliability(post: BetaPosterior, n_f: int) -> float:
    """Posterior mean probability of n_F consecutive failure-free tasks.

    Equals B(alpha + n_F, beta) / B(alpha, beta); evaluated as the exact
    telescoping product prod_k (alpha + k) / (alpha + beta + k) at small
    horizons, within 1e-12 relative of it up to n_F = 10,000.  Beyond, it is
    the exp of a log-Beta difference, whose rounding grows with n_F and
    beta: against mpmath it measured 1.2e-11 to 4.7e-11 relative at
    n_F = 10,001, 1.7e-10 at n_F = 10**6 for Beta(1.5, 2.5), and at most
    9.7e-9 in a scan of alpha <= 2000, beta <= 50 and n_F <= 2 * 10**6.
    """
    if n_f < 0:
        raise ValueError("n_F must be >= 0")
    a, b = post.alpha, post.beta
    if n_f <= _PRODUCT_HORIZON_LIMIT:
        out = 1.0
        for k in range(n_f):
            out *= (a + k) / (a + b + k)
        return out
    return math.exp(ln_beta(a + n_f, b) - ln_beta(a, b))


def bb_mean_envelope(
    c: int,
    n: int,
    alpha_range: Tuple[float, float],
    beta_range: Tuple[float, float],
) -> Tuple[float, float]:
    """[min, max] of the posterior mean (alpha + C) / (alpha + beta + N)
    over a prior box; the mean is monotone in each parameter separately,
    so the extremes sit at corners."""
    if min(alpha_range) <= 0.0 or min(beta_range) <= 0.0:
        raise ValueError("prior interval bounds must be positive")
    corners = [
        (a + c) / (a + b + n)
        for a in alpha_range
        for b in beta_range
    ]
    return (min(corners), max(corners))


def informative_prior(theta_gt: float, kappa: float) -> BetaPosterior:
    """Beta prior with mean exactly theta_gt and concentration kappa."""
    if not (0.0 < theta_gt < 1.0):
        raise ValueError("theta_gt must lie strictly inside (0, 1)")
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    return BetaPosterior(kappa * theta_gt, kappa * (1.0 - theta_gt))


def bb_system_samples(
    system: SystemSpec,
    priors: Sequence[BetaPosterior],
    s: int,
    seed: int,
) -> np.ndarray:
    """System-level samples under independent per-subdomain posteriors.

    `priors` is flattened in domain-major order, one per subdomain; each
    accuracy is drawn from its conjugate posterior and aggregated by the
    flattened operational weights W_i * Omega_ij.
    """
    n_subs = sum(len(d.subdomains) for d in system.domains)
    if len(priors) != n_subs:
        raise ValueError(f"expected {n_subs} priors, got {len(priors)}")
    rng = RngState(seed)
    p_l = np.zeros(s)
    k = 0
    for w_i, domain in zip(system.domain_weights, system.domains):
        for omega, sub in zip(domain.op_weights, domain.subdomains):
            post = bb_update(sub.correct, sub.total, priors[k].alpha, priors[k].beta)
            theta = rng.gen.beta(post.alpha, post.beta, size=s)
            p_l += w_i * omega * theta
            k += 1
    return p_l
