"""Grid posterior over the domain-level latent parameters (mu, nu).

The joint posterior of a domain's subdomain accuracies decomposes into
independent conditional Betas given (mu, nu), with (mu, nu) weighted by
the product of the Beta-Binomial marginal likelihood and the
Beta(a,b) x Gamma(c, rate=d) prior.  This module discretizes (mu, nu) on
a midpoint/log-cell product grid and computes those weights in log space,
for a block of configs at once: one (B, G) array, a row per config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from scipy import special as sp

from .model import DomainSpec, GridSpec, HyperConfig
from .numerics import DomainError

__all__ = [
    "HyperGrid",
    "NumericalError",
    "Posterior",
    "build_grid",
    "log_prior_density",
    "log_marginal_likelihood",
    "log_marginal_likelihood_grid",
    "hyper_posterior",
]


class NumericalError(ArithmeticError):
    """Non-finite result in grid normalization."""


class Posterior(NamedTuple):
    """Grid posteriors of a block of configs, row b for config b."""

    weights: np.ndarray       # (B, G) posterior mass, each row sums to 1
    log_evidence: np.ndarray  # (B,) log Pr(counts | config)


@dataclass
class HyperGrid:
    """Product grid of (mu, nu) nodes with their cell measures.

    mu nodes are midpoints of equal cells on (0,1); nu nodes are geometric
    midpoints of log-spaced cells, with linear (d nu) cell measures.

    The node logs log(mu), log(1 - mu) and log(nu) that every config's prior
    density needs are computed once, when the grid is made, after checking
    0 < mu < 1 and nu > 0.
    """

    mu: np.ndarray            # (G,) node values, mu varies fastest
    nu: np.ndarray            # (G,)
    log_measure: np.ndarray   # (G,) log of mu-width * nu-width
    log_mu: np.ndarray = field(init=False, repr=False)    # (G,) log(mu)
    log1m_mu: np.ndarray = field(init=False, repr=False)  # (G,) log1p(-mu)
    log_nu: np.ndarray = field(init=False, repr=False)    # (G,) log(nu)

    def __post_init__(self):
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
    out = np.empty(np.broadcast(mu_a, nu_a).shape)
    return _log_prior(np.log(mu_a), np.log1p(-mu_a), np.log(nu_a), nu_a, *h.as_tuple(), out)[()]


def _log_prior(log_mu, log1m_mu, log_nu, nu, a, b, c, d, out):
    """`log_prior_density` from the node logs log(mu), log(1 - mu), log(nu),
    written into `out` with one scratch array and the product d * nu; a,
    b, c, d may be (B, 1) columns, one row of `out` per config."""
    scratch = np.multiply(b - 1.0, log1m_mu, out=np.empty_like(out))
    np.add(np.multiply(a - 1.0, log_mu, out=out), scratch, out=out)
    out -= sp.betaln(a, b)
    # the Gamma part, (c log d - gammaln(c) + (c - 1) log nu) - d nu
    np.multiply(c - 1.0, log_nu, out=scratch)
    scratch += c * np.log(d) - sp.gammaln(c)
    scratch -= d * nu
    out += scratch
    return out


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


def hyper_posterior(domain: DomainSpec, configs: Sequence[HyperConfig], grid: HyperGrid, log_lik: np.ndarray) -> Posterior:
    """Posterior weights over the (mu, nu) grid for a block of precise
    configs from `log_lik = log_marginal_likelihood_grid(domain, grid)`:
    row b is config b's, made by its operations alone, in the same order.

    Each row's weights sum to 1 and its log_evidence is the quadrature
    estimate of log Pr(counts | config).  Normalization subtracts each row's
    max log-weight before exponentiating, so a row with a finite max sums
    to between 1 and G before dividing; a row without one raises
    NumericalError naming its config.
    """
    a, b, c, d = np.array([h.as_tuple() for h in configs], dtype=float).T[:, :, None]
    log_w = _log_prior(grid.log_mu, grid.log1m_mu, grid.log_nu, grid.nu, a, b, c, d, np.empty((len(configs), grid.size)))
    log_w += log_lik
    log_w += grid.log_measure
    m = log_w.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(m)):
        r = int(np.argmin(np.isfinite(m[:, 0])))
        raise NumericalError(f"all grid log-weights non-finite (max={float(m[r, 0])}) at config (a, b, c, d) = {configs[r].as_tuple()}")
    log_w -= m
    w = np.exp(log_w, out=log_w)
    z = w.sum(axis=1, keepdims=True)
    w /= z
    return Posterior(w, (m + np.log(z))[:, 0])
