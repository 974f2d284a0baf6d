"""Grid posterior over the domain-level latent parameters (mu, nu).

The joint posterior of a domain's subdomain accuracies decomposes into
independent conditional Betas given (mu, nu), with (mu, nu) weighted by
the product of the Beta-Binomial marginal likelihood and the
Beta(a,b) x Gamma(c, rate=d) prior.  This module discretizes (mu, nu) on
a midpoint/log-cell product grid and computes those weights in log space.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy import special as sp

from .model import DomainSpec, GridSpec, HyperConfig
from .numerics import DomainError

__all__ = [
    "HyperGrid",
    "NumericalError",
    "build_grid",
    "log_prior_density",
    "log_marginal_likelihood",
    "log_marginal_likelihood_grid",
    "hyper_posterior",
]


class NumericalError(ArithmeticError):
    """Catastrophic underflow or non-finite result in grid normalization."""


@dataclass
class HyperGrid:
    """Product grid of (mu, nu) nodes with cell measures and, once a
    posterior has been computed, normalized weights.

    mu nodes are midpoints of equal cells on (0,1); nu nodes are geometric
    midpoints of log-spaced cells, with linear (d nu) cell measures.

    The node logs log(mu), log(1 - mu) and log(nu) that every config's prior
    density needs are computed once, when the grid is made (after checking
    0 < mu < 1 and nu > 0), and `dataclasses.replace` carries them into each
    posterior.
    """

    mu: np.ndarray            # (G,) node values, mu varies fastest
    nu: np.ndarray            # (G,)
    log_measure: np.ndarray   # (G,) log of mu-width * nu-width
    weights: Optional[np.ndarray] = None      # (G,) posterior mass, sums to 1
    log_evidence: Optional[float] = None      # log Pr(counts | config)
    log_mu: Optional[np.ndarray] = field(default=None, repr=False)    # (G,) log(mu)
    log1m_mu: Optional[np.ndarray] = field(default=None, repr=False)  # (G,) log1p(-mu)
    log_nu: Optional[np.ndarray] = field(default=None, repr=False)    # (G,) log(nu)

    def __post_init__(self):
        if self.log_mu is None:
            if np.any(self.mu <= 0.0) or np.any(self.mu >= 1.0) or np.any(self.nu <= 0.0):
                raise DomainError("grid nodes need 0 < mu < 1 and nu > 0")
            self.log_mu, self.log1m_mu = np.log(self.mu), np.log1p(-self.mu)
            self.log_nu = np.log(self.nu)

    @property
    def size(self) -> int:
        return self.mu.size


def build_grid(spec: GridSpec) -> HyperGrid:
    """Build the unweighted quadrature grid from its spec."""
    mu_width = 1.0 / spec.n_mu
    mu_nodes = (np.arange(spec.n_mu) + 0.5) * mu_width

    log_edges = np.linspace(np.log(spec.nu_min), np.log(spec.nu_max), spec.n_nu + 1)
    edges = np.exp(log_edges)
    nu_nodes = np.sqrt(edges[:-1] * edges[1:])
    nu_widths = np.diff(edges)

    mu = np.tile(mu_nodes, spec.n_nu)
    nu = np.repeat(nu_nodes, spec.n_mu)
    measure = np.repeat(nu_widths, spec.n_mu) * mu_width
    return HyperGrid(mu=mu, nu=nu, log_measure=np.log(measure))


def log_prior_density(mu, nu, h: HyperConfig):
    """Log density of Beta(mu | a, b) * Gamma(nu | c, rate=d).

    Vectorized over mu/nu arrays; mu must lie strictly inside (0, 1).
    """
    mu_a = np.asarray(mu, dtype=float)
    nu_a = np.asarray(nu, dtype=float)
    if np.any(mu_a <= 0.0) or np.any(mu_a >= 1.0):
        raise DomainError("log_prior_density requires 0 < mu < 1")
    if np.any(nu_a <= 0.0):
        raise DomainError("log_prior_density requires nu > 0")
    return _log_prior(np.log(mu_a), np.log1p(-mu_a), np.log(nu_a), nu_a, h)


def _log_prior(log_mu, log1m_mu, log_nu, nu, h: HyperConfig):
    """`log_prior_density` from the node logs log(mu), log(1 - mu), log(nu)."""
    log_beta_part = (h.a - 1.0) * log_mu + (h.b - 1.0) * log1m_mu - sp.betaln(h.a, h.b)
    log_gamma_part = h.c * np.log(h.d) - sp.gammaln(h.c) + (h.c - 1.0) * log_nu - h.d * nu
    return log_beta_part + log_gamma_part


def log_marginal_likelihood(domain: DomainSpec, mu, nu):
    """Log of the product over subdomains of the Beta-Binomial likelihood
    binom(N, C) * B(C + mu*nu, N - C + (1-mu)*nu) / B(mu*nu, (1-mu)*nu).

    Evaluated wholly in log space; vectorized over mu/nu arrays.
    """
    mu_a = np.asarray(mu, dtype=float)
    nu_a = np.asarray(nu, dtype=float)
    a0 = mu_a * nu_a
    b0 = (1.0 - mu_a) * nu_a
    total = np.zeros(np.broadcast(mu_a, nu_a).shape)
    for sub in domain.subdomains:
        c, n = sub.correct, sub.total
        if n == 0:
            continue
        log_binom = sp.gammaln(n + 1) - sp.gammaln(c + 1) - sp.gammaln(n - c + 1)
        total = total + log_binom + sp.betaln(c + a0, n - c + b0) - sp.betaln(a0, b0)
    return total


def log_marginal_likelihood_grid(domain: DomainSpec, grid: HyperGrid) -> np.ndarray:
    """Marginal likelihood on every grid node; config-independent, so compute
    once per domain and reuse across hyperparameter configurations."""
    return log_marginal_likelihood(domain, grid.mu, grid.nu)


def hyper_posterior(
    domain: DomainSpec,
    h: HyperConfig,
    grid: HyperGrid,
    log_lik: Optional[np.ndarray] = None,
) -> HyperGrid:
    """Posterior weights over the (mu, nu) grid for one precise config.

    Returns a new HyperGrid whose weights sum to 1 and whose log_evidence
    is the quadrature estimate of log Pr(counts | config).  Normalization
    subtracts the max log-weight before exponentiating to guard underflow.
    """
    if log_lik is None:
        log_lik = log_marginal_likelihood_grid(domain, grid)
    log_prior = _log_prior(grid.log_mu, grid.log1m_mu, grid.log_nu, grid.nu, h)
    log_w = log_lik + log_prior + grid.log_measure
    m = np.max(log_w)
    if not np.isfinite(m):
        raise NumericalError(f"all grid log-weights non-finite (max={float(m)})")
    w = np.exp(log_w - m)
    z = w.sum()
    if z <= 0.0 or not np.isfinite(z):
        raise NumericalError(f"grid weights underflowed (max log-weight {m:.6g})")
    return replace(grid, weights=w / z, log_evidence=float(m + np.log(z)))
