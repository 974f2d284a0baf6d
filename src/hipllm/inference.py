"""The imprecise-inference engine.

Each domain draws K hyperparameter configurations from its admissible box.
One work unit per (domain, config) computes the config's grid
hyper-posterior over (mu, nu) and its Monte Carlo draws of the subdomain
accuracies and the domain aggregate p, and reduces them where they are
made: `infer` to one row per entity (each subdomain, then the domain):
its CDF on the evaluation grid (quadrature for a subdomain, empirical for
the domain), then its expected reliability at every horizon.  Only p
outlives the unit; capped cross-domain config pairings combine it into the
system aggregate p_L, one pairing at a time, which `infer` reduces to one
such row in turn and `system_sample_arrays` returns.

The report is one table keyed (level, entity name): every subdomain,
domain and the system has one band, the pointwise min-max of its members'
rows, and the grid t and the horizons are stored once.

All randomness flows through substreams derived from (master seed, stage,
domain index, config index), so results are identical under any parallel
schedule.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .hyperposterior import (
    HyperGrid,
    build_grid,
    hyper_posterior,
    log_marginal_likelihood_grid,
)
from .model import (
    DomainSpec,
    GridSpec,
    HyperBox,
    HyperConfig,
    McSpec,
    ReliabilityQuery,
    SystemSpec,
    entity_keys,
    validate,
)
from .numerics import RngState, beta_cdf, sample_categorical

__all__ = [
    "eval_grid",
    "CdfEnvelope",
    "Band",
    "SampleSet",
    "InferenceReport",
    "generate_configs",
    "subdomain_marginal_cdf",
    "sample_domain",
    "empirical_cdf",
    "generate_pairings",
    "sample_system",
    "envelope",
    "expected_reliability",
    "infer",
    "system_sample_arrays",
]

# Sizes the quadrature's blocks: a block holds at most QUAD_BLOCK * T // 8
# in-window Beta-CDF evaluations, so its eight or so flat per-evaluation
# arrays take about the bytes of one (QUAD_BLOCK, T) matrix.
QUAD_BLOCK = 256

# Bound on the quadrature's error against the full grid mixture: each of
# the G cells may drop QUAD_EPS / G of it outside its window.
QUAD_EPS = 1e-12

# Substream stage tags (first path element after the master seed).
_STAGE_CONFIGS = 1
_STAGE_SAMPLES = 2
_STAGE_PAIRINGS = 3


def eval_grid(t_grid_size: int) -> np.ndarray:
    """Uniform inclusive CDF evaluation grid on [0, 1]."""
    if t_grid_size < 2:
        raise ValueError("t grid needs at least 2 points")
    return np.linspace(0.0, 1.0, t_grid_size)


@dataclass
class CdfEnvelope:
    """Pointwise lower/upper CDF bounds over a family of member CDFs."""

    t: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass
class Band:
    """One entity's CDF bounds on the report's t and its expected-reliability
    bounds at the report's horizons."""

    lower: np.ndarray
    upper: np.ndarray
    expected_lower: np.ndarray
    expected_upper: np.ndarray


@dataclass
class SampleSet:
    """Monte Carlo draws for one (domain, config) unit."""

    theta: np.ndarray   # (S, n_subdomains)
    p: np.ndarray       # (S,) domain aggregate


@dataclass
class InferenceReport:
    """One band per (level, entity name): subdomains domain by domain, then
    domains, then ("system", "system")."""

    t: np.ndarray
    horizons: Tuple[int, ...]
    bands: Dict[Tuple[str, str], Band]
    master_seed: int
    live_array_bytes: int = 0  # array-size tally, not a measured peak


def generate_configs(box: HyperBox, k: int, seed: int) -> List[HyperConfig]:
    """Deterministic set of k configs inside the box.

    The 16 corner points of the 4-D box come first (envelope extremes tend
    to sit at extreme prior settings); the remainder is a seeded uniform
    fill of the interior.
    """
    corners = [
        HyperConfig(a, b, c, d)
        for a, b, c, d in itertools.product(*[(lo, hi) for lo, hi in box.ranges()])
    ]
    if k <= len(corners):
        return corners[:k]
    rng = RngState(seed)
    lows = np.array([r[0] for r in box.ranges()])
    highs = np.array([r[1] for r in box.ranges()])
    fill = rng.gen.uniform(lows, highs, size=(k - len(corners), 4))
    return corners + [HyperConfig(*row) for row in fill]


def subdomain_marginal_cdf(
    domain: DomainSpec, j: int, post: HyperGrid, t: np.ndarray
) -> np.ndarray:
    """Deterministic quadrature CDF of one subdomain accuracy on the
    ascending grid t in [0, 1].

    Mixture over the G grid cells of conditional Beta CDFs
    I_t(C + mu*nu, N - C + (1-mu)*nu) with the posterior cell weights w.

    Beta(alpha, beta) is sub-Gaussian with variance proxy
    1/(4(alpha + beta + 1)) (Marchal & Arbel 2017), so its CDF is at most
    eps below mean - h and at least 1 - eps from mean + h on, where
    h = sqrt(ln(1/eps) / (2(alpha + beta + 1))).  Each cell gets the tail
    budget eps = QUAD_EPS / (G w), is evaluated only at the t inside its
    window [mean - h, mean + h) and is taken as 0 below it and 1 above it.
    A cell with G w <= QUAD_EPS gets h = 0: a step at its mean, with no
    evaluation.  Either way a cell errs by at most w * min(1, eps) <=
    QUAD_EPS / G, so the result differs from the full (cells, T) mat-vec by
    at most QUAD_EPS = 1e-12 plus rounding.
    """
    if post.weights is None:
        raise ValueError("grid posterior weights missing; run hyper_posterior first")
    t = np.asarray(t, dtype=float)
    if not (np.all((t >= 0.0) & (t <= 1.0)) and np.all(np.diff(t) >= 0.0)):
        raise ValueError("quadrature t must ascend within [0, 1]")
    w = post.weights
    sub = domain.subdomains[j]
    alpha = sub.correct + post.mu * post.nu
    beta = sub.total - sub.correct + (1.0 - post.mu) * post.nu
    # each cell's window [lo, hi) of t indices: its mean -/+ h for the tail
    # budget QUAD_EPS / (G w), empty where G w <= QUAD_EPS
    h = np.sqrt(np.log(np.maximum(w.size * w / QUAD_EPS, 1.0)) / (2.0 * (alpha + beta + 1.0)))
    mean = alpha / (alpha + beta)
    lo, hi = np.searchsorted(t, [mean - h, mean + h])
    # a cell adds its whole weight at every t past its window
    cdf = np.cumsum(np.bincount(hi, weights=w, minlength=t.size + 1)[: t.size])
    # flat evaluation e of cell c sits at t index e - shift[c]
    ends = np.cumsum(hi - lo)
    shift = ends - hi
    del h, mean, lo, hi  # freed before the blocks: keeps the measured peak down
    evals, budget = int(ends[-1]), QUAD_BLOCK * t.size // 8
    for first in range(0, evals, budget):
        e = np.arange(first, min(first + budget, evals))
        c = np.searchsorted(ends, e, side="right")
        k = e - shift[c]
        cdf += np.bincount(k, weights=w[c] * beta_cdf(t[k], alpha[c], beta[c]), minlength=t.size)
    return cdf


def sample_domain(
    domain: DomainSpec,
    post: HyperGrid,
    s: int,
    rng: RngState,
) -> SampleSet:
    """Monte Carlo draws of subdomain accuracies and the domain aggregate.

    Each draw picks a grid cell from the posterior weights, then draws every
    subdomain accuracy from its conditional Beta, then aggregates with the
    within-domain operational weights.  The cells come from substream 0 and
    subdomain j's Beta draws from substream j + 1.
    """
    if post.weights is None:
        raise ValueError("grid posterior weights missing; run hyper_posterior first")
    cells = sample_categorical(rng.substream(0), post.weights, size=s)
    mu, nu = post.mu[cells], post.nu[cells]
    theta = np.empty((s, len(domain.subdomains)))
    for j, sub in enumerate(domain.subdomains):
        alpha = sub.correct + mu * nu
        beta = sub.total - sub.correct + (1.0 - mu) * nu
        theta[:, j] = rng.substream(j + 1).gen.beta(alpha, beta)
    p = theta @ np.asarray(domain.op_weights)
    return SampleSet(theta=theta, p=p)


def empirical_cdf(samples: np.ndarray, t: np.ndarray) -> np.ndarray:
    """F(t_k) = #(samples <= t_k) / S on the evaluation grid."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("empirical_cdf requires at least one sample")
    return np.searchsorted(np.sort(samples), t, side="right") / samples.size


def generate_pairings(
    counts: Sequence[int], cap: int, seed: int
) -> List[Tuple[int, ...]]:
    """Cross-domain config index tuples: the full Cartesian product when it
    fits under the cap, otherwise a seeded uniform sample without
    replacement of exactly `cap` distinct tuples."""
    if math.prod(counts) <= cap:
        return list(itertools.product(*[range(c) for c in counts]))
    # One index per domain, so no flat index has to fit in int64; a batch
    # draws only the missing count, and the dict keeps draw order.
    rng = RngState(seed)
    chosen: Dict[Tuple[int, ...], None] = {}
    while len(chosen) < cap:
        draws = rng.gen.integers(0, counts, size=(cap - len(chosen), len(counts)))
        chosen.update((tuple(row), None) for row in draws.tolist())
    return list(chosen)


def sample_system(
    system: SystemSpec,
    pairing: Tuple[int, ...],
    domain_p: Sequence[Sequence[np.ndarray]],
) -> np.ndarray:
    """Index-aligned system aggregate p_L for one config pairing, where
    domain_p[i][k] holds domain i's aggregate draws under config k."""
    slices = [domain_p[i][k] for i, k in enumerate(pairing)]
    sizes = {p.size for p in slices}
    if len(sizes) != 1:
        raise ValueError(f"mismatched sample counts across domains: {sorted(sizes)}")
    w = np.asarray(system.domain_weights)
    return sum(wi * p for wi, p in zip(w, slices))


def envelope(members: Sequence[np.ndarray], t: np.ndarray) -> CdfEnvelope:
    """Pointwise min-max over a family of CDFs on a common grid."""
    stack = np.asarray(members)
    if stack.ndim != 2 or stack.shape[0] < 1:
        raise ValueError("envelope requires at least one member CDF")
    return CdfEnvelope(t=t, lower=stack.min(axis=0), upper=stack.max(axis=0))


def expected_reliability(samples: np.ndarray, horizons: Sequence[int]) -> np.ndarray:
    """Monte Carlo mean of each horizon's power n_F of the sampled
    probabilities: the (H,) row of E[p ** n_F]."""
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("expected_reliability requires at least one sample")
    return np.array([np.mean(samples ** n_f) for n_f in horizons])


def _map(fn, n: int, threads: int) -> list:
    """[fn(0), ..., fn(n - 1)], computed on a pool of `threads` workers
    when threads > 1.  The only thread pool of the engine."""
    if threads <= 1:
        return [fn(k) for k in range(n)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, range(n)))


def _domain(domain, i, grid, mc, master, threads, unit) -> list:
    """Domain i's K work units, one per config: the config's grid posterior
    and its Monte Carlo draws on substream (samples, i, k), handed to
    `unit(post, draws)`.  Returns the units' results in config order."""
    configs = generate_configs(
        domain.box, mc.configs_per_domain, master.substream(_STAGE_CONFIGS, i).seed
    )
    log_lik = log_marginal_likelihood_grid(domain, grid)

    def work(k):
        post = hyper_posterior(domain, configs[k], grid, log_lik=log_lik)
        rng = master.substream(_STAGE_SAMPLES, i, k)
        return unit(post, sample_domain(domain, post, mc.samples_per_config, rng))

    return _map(work, len(configs), threads)


def _pair(system, domain_p, mc, master) -> Iterator[np.ndarray]:
    """System aggregate p_L of each cross-domain config pairing, made one
    at a time as the caller iterates."""
    pairings = generate_pairings(
        [len(p) for p in domain_p],
        mc.pairing_cap,
        master.substream(_STAGE_PAIRINGS).seed,
    )
    return (sample_system(system, pairing, domain_p) for pairing in pairings)


def system_sample_arrays(
    system: SystemSpec,
    grid_spec: Optional[GridSpec] = None,
    mc: Optional[McSpec] = None,
    threads: int = 1,
) -> List[np.ndarray]:
    """Per-pairing arrays of system-level samples p_L: the work units and
    pairings of `infer` without quadrature, with the same seeds and draws."""
    system, grid_spec, mc, _ = validate(system, grid_spec, mc, None)
    grid = build_grid(grid_spec)
    master = RngState(mc.master_seed)
    domain_p = [
        _domain(domain, i, grid, mc, master, threads, lambda post, draws: draws.p)
        for i, domain in enumerate(system.domains)
    ]
    return list(_pair(system, domain_p, mc, master))


def infer(
    system: SystemSpec,
    grid_spec: Optional[GridSpec] = None,
    mc: Optional[McSpec] = None,
    query: Optional[ReliabilityQuery] = None,
    threads: int = 1,
) -> InferenceReport:
    """Full envelope report at subdomain, domain, and system levels.

    Deterministic given the master seed; `threads` only affects speed
    because every work unit owns a substream derived from its indices.
    """
    system, grid_spec, mc, query = validate(system, grid_spec, mc, query)
    t = eval_grid(mc.t_grid_size)
    grid = build_grid(grid_spec)
    master = RngState(mc.master_seed)
    horizons = tuple(query.horizons)

    def bands(keys, blocks):
        """(key, band) of each key from its members' (E, T + H) blocks of
        CDF rows then reliability rows, for E keys, and the bytes of the
        stacked rows."""
        stack = np.array(list(blocks))
        lower, upper = stack.min(axis=0), stack.max(axis=0)
        n = t.size
        return [
            (key, Band(lo[:n], hi[:n], lo[n:], hi[n:]))
            for key, lo, hi in zip(keys, lower, upper)
        ], stack.nbytes

    domain_p: List[List[np.ndarray]] = []
    subdomains, domains = [], []
    # grid mu, nu and log-measure, plus the log-likelihood of the domain in hand
    retained = 4 * grid.mu.nbytes

    for i, domain in enumerate(system.domains):

        def unit(post, draws):
            """This config's rows, each subdomain's then the domain's: CDF,
            then expected reliability; and its domain draws p."""
            cdf = [subdomain_marginal_cdf(domain, j, post, t) for j in range(draws.theta.shape[1])]
            cdf.append(empirical_cdf(draws.p, t))
            rel = [expected_reliability(x, horizons) for x in (*draws.theta.T, draws.p)]
            return np.hstack([cdf, rel]), draws.p

        units = _domain(domain, i, grid, mc, master, threads, unit)
        domain_p.append([p for _, p in units])
        entries, nbytes = bands(entity_keys(domain, i), [rows for rows, _ in units])
        subdomains += entries[:-1]
        domains.append(entries[-1])
        retained += sum(p.nbytes for p in domain_p[-1]) + nbytes

    # one member per pairing, with a block of one row each
    system_rows = (
        np.hstack([empirical_cdf(p, t), expected_reliability(p, horizons)])[None]
        for p in _pair(system, domain_p, mc, master)
    )
    top, nbytes = bands([("system", "system")], system_rows)
    return InferenceReport(
        t=t,
        horizons=horizons,
        bands=dict(subdomains + domains + top),
        master_seed=mc.master_seed,
        live_array_bytes=retained + nbytes,
    )
