"""Grid posterior over the domain-level latent parameters (mu, nu).

The joint posterior of a domain's subdomain accuracies decomposes into
independent conditional Betas given (mu, nu), with (mu, nu) weighted by
the product of the Beta-Binomial marginal likelihood and the
Beta(a,b) x Gamma(c, rate=d) prior.  `HyperGrid.conditional` is the one
place that writes a cell's conditional Beta; the likelihood, the
quadrature and the draws all read it.  This module discretizes (mu, nu) on
a midpoint/log-cell product grid and computes those weights in log space,
for a block of (B, 4) config rows (a, b, c, d) at once: one (B, G) array,
a row per config.  The priors of a box are one exponential family, so a
block's log-priors are its natural parameters eta (B, 4) times the grid's
statistics T (4, G), plus a log-normaliser per config.  The grid forms T
once, when it is made; `hyper_posterior` is the one place that forms eta
and the normaliser, so the prior density is evaluated nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Tuple

import numpy as np
from scipy import special as sp

from .model import DomainSpec, GridSpec, SubdomainData, ValidationError
from .numerics import NumericalError

__all__ = [
    "HyperGrid",
    "Posterior",
    "build_grid",
    "log_marginal_likelihood_grid",
    "hyper_posterior",
]


class Posterior(NamedTuple):
    """Grid posteriors of a block of configs, row b for config b."""

    weights: np.ndarray       # (B, G) posterior mass, each row sums to 1
    log_evidence: np.ndarray  # (B,) log Pr(counts | config)


@dataclass
class HyperGrid:
    """Product grid of (mu, nu) nodes with their cell measures.

    mu nodes are midpoints of equal cells on (0,1); nu nodes are geometric
    midpoints of log-spaced cells, with linear (d nu) cell measures.

    The statistics T = (log mu, log(1 - mu), log nu, nu) of the prior
    family are made once, when the grid is made, after checking 0 < mu < 1
    and finite nu > 0.  `conditional` gives each cell's conditional Betas.
    """

    mu: np.ndarray            # (G,) node values, mu varies fastest
    nu: np.ndarray            # (G,)
    log_measure: np.ndarray   # (G,) log of mu-width * nu-width
    T: np.ndarray = field(init=False, repr=False)  # (4, G) sufficient statistics

    def __post_init__(self):
        mu_inside = np.all((self.mu > 0.0) & (self.mu < 1.0))
        if not (mu_inside and np.all((self.nu > 0.0) & (self.nu < np.inf))):
            raise NumericalError("grid nodes need 0 < mu < 1 and finite nu > 0")
        self.T = np.stack([np.log(self.mu), np.log1p(-self.mu), np.log(self.nu), self.nu])

    @property
    def size(self) -> int:
        return self.mu.size

    def conditional(self, sub: SubdomainData) -> Tuple[np.ndarray, np.ndarray]:
        """Each cell's conditional Beta(C + mu nu, N - C + (1 - mu) nu) of
        the accuracy of a subdomain with C correct of N: (alpha, beta), (G,) each."""
        return sub.correct + self.mu * self.nu, sub.total - sub.correct + (1.0 - self.mu) * self.nu


def build_grid(spec: GridSpec) -> HyperGrid:
    """Build the unweighted quadrature grid from its spec; a nu range whose
    cells would get a zero or non-finite node or width is a `grid` error."""
    mu_width = 1.0 / spec.n_mu
    mu_nodes = (np.arange(spec.n_mu) + 0.5) * mu_width

    with np.errstate(all="ignore"):  # overflow and underflow are refused below
        edges = np.exp(np.linspace(np.log(spec.nu_min), np.log(spec.nu_max), spec.n_nu + 1))
        nu_nodes = np.sqrt(edges[:-1] * edges[1:])
        nu_measure = np.diff(edges) * mu_width
    cells = np.concatenate([nu_nodes, nu_measure])
    if not np.all((cells > 0.0) & (cells < np.inf)):
        why = "gives nu cells with a zero or non-finite node or width"
        raise ValidationError([("grid", f"nu range [{spec.nu_min}, {spec.nu_max}] {why}")])

    mu = np.tile(mu_nodes, spec.n_nu)
    nu = np.repeat(nu_nodes, spec.n_mu)
    return HyperGrid(mu=mu, nu=nu, log_measure=np.log(np.repeat(nu_measure, spec.n_mu)))


def log_marginal_likelihood_grid(domain: DomainSpec, grid: HyperGrid) -> np.ndarray:
    """Log of the product over subdomains of the Beta-Binomial likelihood
    binom(N, C) B(alpha, beta) / B(alpha0, beta0) on every grid node, in log
    space: (alpha, beta) is the cell's `grid.conditional` Beta for the
    subdomain, and the prior's (alpha0, beta0) that of an empty subdomain.
    Config-independent, so computed once per domain and shared by its configs."""
    log_prior_beta = sp.betaln(*grid.conditional(SubdomainData(0, 0)))
    total = np.zeros(grid.size)
    for sub in domain.subdomains:
        c, n = sub.correct, sub.total
        if n == 0:
            continue
        log_binom = sp.gammaln(n + 1) - sp.gammaln(c + 1) - sp.gammaln(n - c + 1)
        total = total + log_binom + sp.betaln(*grid.conditional(sub)) - log_prior_beta
    return total


def hyper_posterior(configs, grid: HyperGrid, log_lik: np.ndarray) -> Posterior:
    """Posterior weights over the (mu, nu) grid for a block of precise
    configs, the (B, 4) rows (a, b, c, d) of `configs`, from
    `log_lik = log_marginal_likelihood_grid(domain, grid)`.
    Row b's log-weights are eta_b . T (one einsum, whose rows do not depend
    on the block) with eta_b = (a - 1, b - 1, c - 1, -d), its log-normaliser
    c log d - ln Gamma(c) - ln B(a, b), log_lik and the log cell measure.

    Each row's weights sum to 1 and its log_evidence is the quadrature
    estimate of log Pr(counts | config).  Normalization subtracts each row's
    max log-weight before exponentiating, so a row with a finite max sums
    to between 1 and G before dividing; a row without one raises
    NumericalError naming its config.  A log-weight that overflows to -inf
    under a finite max gets weight 0, as would any log-weight of that size:
    floats near 1.8e308 lie about 1e292 apart.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # checked by the max below
        configs = np.asarray(configs, dtype=float)
        a, b, c, d = configs.T
        eta = np.stack([a - 1.0, b - 1.0, c - 1.0, -d], axis=1)
        log_norm = c * np.log(d) - sp.gammaln(c) - sp.betaln(a, b)
        log_w = np.einsum("bk,kg->bg", eta, grid.T)
        log_w += log_norm[:, None]
        log_w += log_lik
        log_w += grid.log_measure
    m = log_w.max(axis=1, keepdims=True)
    if not np.all(np.isfinite(m)):
        r = int(np.argmin(np.isfinite(m[:, 0])))
        config = tuple(configs[r].tolist())
        raise NumericalError(f"all grid log-weights non-finite (max={float(m[r, 0])}) at config (a, b, c, d) = {config}")
    log_w -= m
    w = np.exp(log_w, out=log_w)
    z = w.sum(axis=1, keepdims=True)
    w /= z
    return Posterior(w, (m + np.log(z))[:, 0])
