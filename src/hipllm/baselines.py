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

from .model import EPS, ConfigError, SystemSpec, aggregate
from .numerics import NumericalError, RngState

__all__ = [
    "BetaPosterior",
    "bb_update",
    "bb_expected_future_reliability",
    "bb_mean_envelope",
    "bb_system_samples",
    "informative_prior",
]

# Beyond this horizon the telescoping product stops: the rest of log E is
# one closed form (same value, bounded cost).
_PRODUCT_HORIZON_LIMIT = 10_000

# E[theta ** n_F] past the product is refused where the rounding of its log,
# which is its relative error, may exceed this.
ROUNDING_BOUND = 1e-10


@dataclass(frozen=True)
class BetaPosterior:
    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0.0 or self.beta <= 0.0:
            raise ValueError(f"Beta parameters must be positive, got ({self.alpha}, {self.beta})")

    @property
    def mean(self) -> float:
        """alpha / (alpha + beta); 1 / (1 + beta / alpha) where the sum overflows."""
        a, b = self.alpha, self.beta
        return a / (a + b) if a + b < math.inf else 1.0 / (1.0 + b / a)


def bb_update(c: int, n: int, prior_alpha: float, prior_beta: float) -> BetaPosterior:
    """Conjugate update: Beta(a, b) prior + C successes of N trials."""
    if not (0 <= c <= n):
        raise ConfigError(f"need 0 <= correct <= total, got {c}/{n}")
    return BetaPosterior(prior_alpha + c, prior_beta + (n - c))


def _log_tail(x: float, b: float, m: int) -> Tuple[float, float]:
    """S = sum_{k < m} log1p(b / (x + k)) for x >= 10,000, and a bound on
    its rounding.

    S = G(x + m) - G(x), where G(y) = ln Gamma(y + b) - ln Gamma(y)
    = (y - 1/2) log1p(b / y) + b ln(y + b) - b + R(y + b) - R(y) and
    R(z) = 1/(12 z) - 1/(360 z**3) is Stirling's series to its z**-3 term,
    whose rest is below 1e-23 at z >= 10,000.  Each term is at most b + S,
    so nothing of the size of ln Gamma(x) cancels.
    """

    def r(z):
        return (1.0 / z) * (1.0 / 12.0 - (1.0 / z) ** 2 / 360.0)

    y = x + m
    terms = ((y - 0.5) * math.log1p(b / y), -(x - 0.5) * math.log1p(b / x), b * math.log1p(m / (x + b)))
    return math.fsum(terms) + (r(y + b) - r(y) - r(x + b) + r(x)), 4.0 * EPS * sum(map(abs, terms))


def bb_expected_future_reliability(post: BetaPosterior, n_f: int) -> float:
    """Posterior mean probability of n_F consecutive failure-free tasks.

    E = B(alpha + n_F, beta) / B(alpha, beta) = prod_{k < n_F} (alpha + k)
    / (alpha + beta + k), a value in [0, 1], and log E = -sum_k
    log1p(beta / (alpha + k)).
    - Up to n_F = 10,000, E is that product, within 1e-12 relative; each
      factor is 1 / (1 + beta / (alpha + k)) where alpha + beta overflows.
    - Beyond, E is the product to 10,000 times the exp of `_log_tail` for
      the rest, within 2e-12 relative of mpmath in random scans.  A
      product below the smallest normal float gives 0, as E lies below it
      too.  A tail whose rounding may pass ROUNDING_BOUND raises
      NumericalError, unless E rounds to 0 all the same.
    - Where n_F**2 / (2 alpha) * min(1, beta / alpha), a bound on how far
      log E sits above -n_F log1p(beta / alpha), is below the unit
      roundoff, E is exp(-n_F log1p(beta / alpha)), with no product.
    """
    if n_f < 0:
        raise ValueError("n_F must be >= 0")
    a, b = post.alpha, post.beta
    if n_f > _PRODUCT_HORIZON_LIMIT and n_f * n_f / (2.0 * a) * min(1.0, b / a) <= EPS / 2:
        return math.exp(-n_f * math.log1p(b / a))
    out = 1.0
    for k in range(min(n_f, _PRODUCT_HORIZON_LIMIT)):
        out *= (a + k) / (a + b + k) if a + b < math.inf else 1.0 / (1.0 + b / (a + k))
    if n_f <= _PRODUCT_HORIZON_LIMIT:
        return out
    if out < np.finfo(float).tiny:  # E lies below it too, so 0 errs by less
        return 0.0
    log_tail, rounding = _log_tail(a + _PRODUCT_HORIZON_LIMIT, b, n_f - _PRODUCT_HORIZON_LIMIT)
    if not (rounding <= ROUNDING_BOUND or log_tail - rounding - math.log(out) > 746.0):  # E < e**-746 rounds to 0
        raise NumericalError(
            f"E[theta^{n_f}] under Beta({a!r}, {b!r}): its log rounds by up to {rounding:.3g},"
            f" above {ROUNDING_BOUND:g}"
        )
    return out * math.exp(-max(log_tail, 0.0))


def bb_mean_envelope(
    c: int,
    n: int,
    alpha_range: Tuple[float, float],
    beta_range: Tuple[float, float],
) -> Tuple[float, float]:
    """[min, max] of the posterior mean (alpha + C) / (alpha + beta + N)
    over a prior box; the mean is monotone in each parameter separately,
    so the extremes sit at corners.  Each corner is its posterior's `mean`,
    so a sum past the float range does not read 0."""
    if min(alpha_range) <= 0.0 or min(beta_range) <= 0.0:
        raise ValueError("prior interval bounds must be positive")
    corners = [bb_update(c, n, a, b).mean for a in alpha_range for b in beta_range]
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
    accuracy is drawn in that order from its conjugate posterior, and
    `aggregate` makes each p_i by Omega_i, then p_L by W.
    """
    n_subs = sum(len(d.subdomains) for d in system.domains)
    if len(priors) != n_subs:
        raise ValueError(f"expected {n_subs} priors, got {len(priors)}")
    rng = RngState(seed)
    priors_of = iter(priors)
    domain_p = []
    for domain in system.domains:
        posts = [bb_update(sub.correct, sub.total, pr.alpha, pr.beta) for sub, pr in zip(domain.subdomains, priors_of)]
        theta = np.stack([rng.gen.beta(post.alpha, post.beta, size=s) for post in posts])
        domain_p.append(aggregate(theta.T, domain.op_weights))
    return aggregate(np.stack(domain_p).T, system.domain_weights)
