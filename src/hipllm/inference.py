"""The imprecise-inference engine.

Each domain draws K hyperparameter configurations from its admissible box,
the rows (a, b, c, d) of one (K, 4) array, and walks them in blocks of
CONFIG_BLOCK; one work unit per (domain, block) makes its configs' grid
hyper-posteriors over (mu, nu) first, in one call whose weights are one
(B, G) array, and then each config's Monte Carlo draws of the subdomain
accuracies theta, one config at a time, reducing each where it is made.
`infer`'s unit first runs one quadrature per subdomain for the block, which
evaluates each (cell, t) Beta CDF once for all its configs, and reduces
each config to one row per entity (each subdomain, then the domain): its
CDF on the evaluation grid (quadrature for a subdomain, empirical for the
domain), then its expected reliability at every horizon.  Only the domain
aggregate p, which `model.aggregate` forms from theta, outlives the unit;
capped cross-domain config pairings combine it into the system aggregate
p_L, one pairing at a time.  `infer` walks the pairings in chunks of
PAIRING_CHUNK, one work unit each: a chunk makes one such row per pairing
and returns only the rows' pointwise min and max.  `system_sample_arrays`
returns the p_L themselves.  `profile_samples` serves systems that
differ only in their operational profiles: one domain stage without
quadrature, whose units keep one p per system and let the theta go.

The report is one table keyed (level, entity name): every subdomain,
domain and the system has one `Band`, which `envelope` makes as the
pointwise min-max of its members' rows (for the system, of its pairing
chunks' min and max rows), and the grid t and the horizons are stored once.
`envelope` makes every band.

All randomness flows through substreams derived from (master seed, stage,
domain index, config index), so results are identical under any parallel
schedule.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .hyperposterior import HyperGrid, build_grid, hyper_posterior, log_marginal_likelihood_grid
from .model import (
    DomainSpec,
    GridSpec,
    HyperBox,
    McSpec,
    ReliabilityQuery,
    SystemSpec,
    aggregate,
    entity_keys,
    validate,
)
from .numerics import RngState, beta_cdf, sample_categorical

__all__ = [
    "eval_grid",
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
    "profile_samples",
    "system_sample_arrays",
]

# Sizes the quadrature's chunks: a chunk holds whole cells, at most
# QUAD_BLOCK of them and at most QUAD_BLOCK * T // 8 in-window Beta-CDF
# evaluations, so its (cells, T) values and its few flat per-evaluation
# arrays take about the bytes of one (QUAD_BLOCK, T) matrix, for any number
# of configs.
QUAD_BLOCK = 256

# Configs per work unit: a block's quadrature evaluates each (cell, t) once
# for all its configs.  Block 0 is the box's 16 corners, which
# `generate_configs` places first.
CONFIG_BLOCK = 16

# Pairings per work unit of the system stage: a unit makes its pairings'
# rows and returns only their pointwise min and max, so the stage holds one
# chunk of rows per worker and two rows per chunk, however large the cap.
PAIRING_CHUNK = 64

# Bound on the quadrature's error against the full grid mixture: each of
# the G cells may drop QUAD_EPS / G of it outside its window.
QUAD_EPS = 1e-12

# expected_reliability counts a term exp(n_F * log p) below e**LOG_TINY as 0:
# numpy's `exp` is fast down to about -708 and slow below.
LOG_TINY = -700.0

# expected_reliability takes its horizons in blocks of at most this many
# (horizon, sample) terms, at least one horizon a block: a 1 MiB temporary
# per call, which holds 43 horizons at S = 3000.
RELIABILITY_BLOCK = 1 << 17

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
class Band:
    """One entity's CDF bounds on the report's t and its expected-reliability
    bounds at the report's horizons (empty where the members carry none)."""

    lower: np.ndarray
    upper: np.ndarray
    expected_lower: np.ndarray
    expected_upper: np.ndarray


@dataclass
class SampleSet:
    """Monte Carlo draws for one (domain, config) unit."""

    theta: np.ndarray   # (S, n_subdomains)


@dataclass
class InferenceReport:
    """One band per (level, entity name): subdomains domain by domain, then
    domains, then ("system", "system")."""

    t: np.ndarray
    horizons: Tuple[int, ...]
    bands: Dict[Tuple[str, str], Band]
    master_seed: int
    live_array_bytes: int = 0  # array-size tally, not a measured peak; two system rows per pairing chunk


def generate_configs(box: HyperBox, k: int, seed: int) -> np.ndarray:
    """Deterministic k configs inside the box, the (k, 4) rows (a, b, c, d)
    of one float array.

    The 16 corner points of the 4-D box come first (envelope extremes tend
    to sit at extreme prior settings), row 0 its lows and row 15 its highs;
    the remainder is a seeded uniform fill of the interior.
    """
    corners = np.array(list(itertools.product(*box.ranges())), dtype=float)
    if k <= len(corners):
        return corners[:k]
    fill = RngState(seed).gen.uniform(corners[0], corners[-1], size=(k - len(corners), 4))
    return np.concatenate([corners, fill])


def subdomain_marginal_cdf(domain: DomainSpec, j: int, grid: HyperGrid, t: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Deterministic quadrature CDF of one subdomain accuracy on the
    ascending grid t in [0, 1], for a block of posteriors.

    Mixture over the G grid cells of their conditional Beta CDFs
    I_t(alpha, beta), from `grid.conditional`, with the posterior cell
    weights w.  `weights` is (B, G), one row per config of a block
    (`hyper_posterior`'s weights), giving (B, T): the rows share the grid,
    so a cell's conditional Beta, and its CDF values, are the same for all
    of them.

    Beta(alpha, beta) is sub-Gaussian with variance proxy
    1/(4(alpha + beta + 1)) (Marchal & Arbel 2017), so its CDF is at most
    eps below mean - h and at least 1 - eps from mean + h on, where
    h = sqrt(ln(1/eps) / (2(alpha + beta + 1))).  Under weight w a cell gets
    the tail budget eps = QUAD_EPS / (G w) and the window [mean - h,
    mean + h), which widens as w grows.  The cell is evaluated once at each
    t inside the union of its rows' windows, the window of its largest
    weight, and taken as 0 below it and 1 above it in every row.  A cell
    with G w <= QUAD_EPS in every row gets h = 0: a step at its mean, with
    no evaluation.  Either way a cell errs in a row by at most
    w * min(1, eps) <= QUAD_EPS / G, so each row differs from its full
    (cells, T) mat-vec by at most QUAD_EPS = 1e-12 plus rounding, and is
    clipped at 1.

    The evaluated cells run in chunks of whole cells, at most QUAD_BLOCK of
    them and at most QUAD_BLOCK * T // 8 evaluations; a window holds at most
    T, so a cell always fits.  A chunk's values form one (cells, T) matrix,
    zero outside the windows, which reaches all B rows in one product with
    the chunk's (B, cells) weights, so no chunk grows or shrinks with B.
    """
    t = np.asarray(t, dtype=float)
    if not (np.all((t >= 0.0) & (t <= 1.0)) and np.all(np.diff(t) >= 0.0)):
        raise ValueError("quadrature t must ascend within [0, 1]")
    (n_rows, n_cells), n_t = weights.shape, t.size
    alpha, beta = grid.conditional(domain.subdomains[j])
    # each cell's window [lo, hi) of t indices: its mean -/+ h for the tail
    # budget QUAD_EPS / (G w) of its largest weight w, so the union of its
    # rows' windows; empty where G w <= QUAD_EPS
    w_max = weights.max(axis=0)
    h = np.sqrt(np.log(np.maximum(n_cells * w_max / QUAD_EPS, 1.0)) / (2.0 * (alpha + beta + 1.0)))
    mean = alpha / (alpha + beta)
    lo, hi = np.searchsorted(t, [mean - h, mean + h])
    # a cell adds its whole weight at every t past its window: row r's bins
    # are r * (T + 1) .. r * (T + 1) + T of one flat bincount
    row = np.arange(n_rows)[:, None]
    past = np.bincount((row * (n_t + 1) + hi).ravel(), weights=weights.ravel(), minlength=n_rows * (n_t + 1))
    cdf = np.cumsum(past.reshape(n_rows, n_t + 1)[:, :n_t], axis=1)
    del w_max, h, mean, past  # freed before the chunks: keeps the measured peak down
    live = np.flatnonzero(hi > lo)
    lo, hi = lo[live], hi[live]
    ends = np.cumsum(hi - lo)
    budget, span = QUAD_BLOCK * n_t // 8, np.arange(n_t)
    c0 = 0
    while c0 < live.size:
        # whole cells, up to QUAD_BLOCK of them and `budget` evaluations
        done = ends[c0 - 1] if c0 else 0
        c1 = min(int(np.searchsorted(ends, done + budget, side="right")), c0 + QUAD_BLOCK)
        cells = live[c0:c1]
        inside = (span >= lo[c0:c1, None]) & (span < hi[c0:c1, None])
        r, k = np.nonzero(inside)
        block = np.zeros(inside.shape)
        block[r, k] = beta_cdf(t[k], alpha[cells][r], beta[cells][r])
        cdf += weights[:, cells] @ block
        c0 = c1
    return np.minimum(cdf, 1.0, out=cdf)  # a row's weights sum to 1 only within rounding


def sample_domain(domain: DomainSpec, grid: HyperGrid, weights: np.ndarray, s: int, rng: RngState) -> SampleSet:
    """Monte Carlo draws of subdomain accuracies under one config's (G,)
    posterior weights on the grid.

    Each draw picks a grid cell from the weights, then draws every
    subdomain accuracy from its conditional Beta, the grid's per-cell
    `conditional` gathered by the drawn cells.  The cells come from
    substream 0 and subdomain j's Beta draws from substream j + 1.
    """
    cells = sample_categorical(rng.substream(0), weights, size=s)
    theta = np.empty((s, len(domain.subdomains)))
    for j, sub in enumerate(domain.subdomains):
        alpha, beta = grid.conditional(sub)
        theta[:, j] = rng.substream(j + 1).gen.beta(alpha[cells], beta[cells])
    return SampleSet(theta=theta)


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
    """Index-aligned system aggregate p_L, clipped at 1, for one config
    pairing, where domain_p[i][k] holds domain i's (S,) draws under config k."""
    rows = np.stack([domain_p[i][k] for i, k in enumerate(pairing)])
    return aggregate(rows.T, system.domain_weights)


def envelope(members: Sequence[np.ndarray], t: np.ndarray) -> Band:
    """Pointwise min-max over a family of member rows: each row is a CDF on
    the grid t, then any expected-reliability values, which bound the
    band's expected reliability (none for CDF-only rows)."""
    stack, n = np.asarray(members), len(t)
    if stack.ndim != 2 or stack.shape[0] < 1:
        raise ValueError("envelope requires at least one member row")
    if stack.shape[1] < n:
        raise ValueError(f"member rows hold {stack.shape[1]} values, fewer than the {n} of t")
    lower, upper = stack.min(axis=0), stack.max(axis=0)
    return Band(lower[:n], upper[:n], lower[n:], upper[n:])


def expected_reliability(samples: np.ndarray, horizons: Sequence[int]) -> np.ndarray:
    """Monte Carlo mean of each horizon's power n_F >= 1 of the sampled
    probabilities in [0, 1]: the (H,) row of E[p ** n_F].

    n_F = 1 gives the plain sample mean E[p], with no log or exp.  Every
    other power is exp(n_F * log p), one `exp` pass over an (H, S) block of
    at most RELIABILITY_BLOCK terms (one horizon when S is larger), so the
    temporary stays bounded however many horizons there are.  A term whose
    exponent lies below LOG_TINY (p ** n_F < e**-700, about 1e-304; p = 0
    among them) counts as exactly 0, which moves a mean by less than
    1e-304 and keeps `exp` off its slow underflow path.  Rounding log p,
    the product and exp give a term x = p ** n_F an absolute error of order
    u * x * (1 + |ln x|), at most about 2u since x * |ln x| <= 1/e, for any
    n_F up to 2**53 (u = 2**-53, the unit roundoff); p = 1 gives exactly 1.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("expected_reliability requires at least one sample")
    n_f = np.asarray(horizons, dtype=float)
    # every row starts as E[p], the n_F = 1 value; the others are overwritten
    out = np.full(n_f.size, samples.mean())
    powers = np.flatnonzero(n_f != 1.0)
    if powers.size:
        with np.errstate(divide="ignore"):
            log_p = np.log(samples)
        step = max(RELIABILITY_BLOCK // samples.size, 1)
        for first in range(0, powers.size, step):
            rows = powers[first : first + step]
            x = np.multiply.outer(n_f[rows], log_p)
            tiny = x < LOG_TINY
            np.maximum(x, LOG_TINY, out=x)
            np.exp(x, out=x)
            x[tiny] = 0.0
            out[rows] = x.mean(axis=1)
            del x, tiny  # freed before the next block is made
    return out


def _map(fn, n: int, threads: int) -> list:
    """[fn(0), ..., fn(n - 1)], computed on a pool of `threads` workers
    when threads > 1.  The only thread pool of the engine."""
    if threads <= 1:
        return [fn(k) for k in range(n)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, range(n)))


def _domain(domain, i, grid, mc, master, threads, unit) -> list:
    """Domain i's K configs, walked in blocks of CONFIG_BLOCK; a block is one
    work unit of the pool.  A block makes its configs' (B, G) posterior
    weights in one `hyper_posterior` call and returns `unit(weights,
    draws)`: `draws(b)` makes its config b's Monte Carlo draws under
    `weights[b]` on substream (samples, i, k).  The unit returns one result
    per config, and must let each config's draws go before it asks for the
    next.  Returns the results in config order."""
    configs = generate_configs(
        domain.box, mc.configs_per_domain, master.substream(_STAGE_CONFIGS, i).seed
    )
    log_lik = log_marginal_likelihood_grid(domain, grid)

    def work(n):
        first = n * CONFIG_BLOCK
        weights = hyper_posterior(configs[first : first + CONFIG_BLOCK], grid, log_lik).weights

        def draws(b):
            rng = master.substream(_STAGE_SAMPLES, i, first + b)
            return sample_domain(domain, grid, weights[b], mc.samples_per_config, rng)

        return unit(weights, draws)

    blocks = _map(work, math.ceil(len(configs) / CONFIG_BLOCK), threads)
    return [result for block in blocks for result in block]


def _pairings(domain_p, mc, master) -> List[Tuple[int, ...]]:
    """The capped cross-domain config pairings of domain_p[i][k], drawn on
    the pairings substream."""
    return generate_pairings(
        [len(p) for p in domain_p],
        mc.pairing_cap,
        master.substream(_STAGE_PAIRINGS).seed,
    )


def _system_p(system, pairings, domain_p) -> Iterator[np.ndarray]:
    """System aggregate p_L of each of `pairings`, made one at a time as the
    caller iterates."""
    return (sample_system(system, pairing, domain_p) for pairing in pairings)


def profile_samples(
    systems: Sequence[SystemSpec],
    grid_spec: Optional[GridSpec] = None,
    mc: Optional[McSpec] = None,
    threads: int = 1,
) -> Iterator[Iterator[np.ndarray]]:
    """Per-pairing system samples p_L of each of `systems`, in order, as
    `system_sample_arrays` makes them one system at a time.

    The systems may differ only in their operational profiles
    (`op_weights` and `domain_weights`); other differences raise
    ValueError.  The profile leaves the posteriors and the subdomain draws
    alone, so the work units run once, when the first system's pairings are
    asked for, and keep one p per system: the draws under its within-domain
    weights.  Each system's pairings are made one at a time as the caller
    iterates.
    """
    if not systems:
        raise ValueError("profile_samples needs at least one system; the system list is empty")
    checked = [validate(system, grid_spec, mc, None) for system in systems]
    systems = [system for system, _, _, _ in checked]
    _, grid_spec, mc, _ = checked[0]

    def shared(system):
        """The system without its profile: counts, labels and boxes."""
        return [replace(d, op_weights=()) for d in system.domains]

    if any(shared(system) != shared(systems[0]) for system in systems[1:]):
        raise ValueError("systems may differ only in op_weights and domain_weights")
    grid = build_grid(grid_spec)
    master = RngState(mc.master_seed)

    def profiles(i, draws):
        """Domain i's p under each system's within-domain weights."""
        return [aggregate(draws.theta, s.domains[i].op_weights) for s in systems]

    # domain_p[i][k][n]: domain i, config k, system n
    domain_p = [
        _domain(
            domain, i, grid, mc, master, threads,
            lambda weights, draws, i=i: [profiles(i, draws(b)) for b in range(len(weights))],
        )
        for i, domain in enumerate(systems[0].domains)
    ]
    for n, system in enumerate(systems):
        system_p = [[p[n] for p in units] for units in domain_p]
        yield _system_p(system, _pairings(system_p, mc, master), system_p)


def system_sample_arrays(
    system: SystemSpec,
    grid_spec: Optional[GridSpec] = None,
    mc: Optional[McSpec] = None,
    threads: int = 1,
) -> List[np.ndarray]:
    """Per-pairing arrays of system-level samples p_L: the work units and
    pairings of `infer` without quadrature, with the same seeds and draws."""
    return list(next(profile_samples([system], grid_spec, mc, threads)))


def infer(
    system: SystemSpec,
    grid_spec: Optional[GridSpec] = None,
    mc: Optional[McSpec] = None,
    query: Optional[ReliabilityQuery] = None,
    threads: int = 1,
) -> InferenceReport:
    """Full envelope report at subdomain, domain, and system levels.

    The system band's members, the capped pairings' rows, fold in chunks of
    PAIRING_CHUNK on the pool; min and max are exact, so the band equals the
    envelope of every pairing's row.

    Deterministic given the master seed; `threads` only affects speed
    because every work unit owns a substream derived from its indices.
    """
    system, grid_spec, mc, query = validate(system, grid_spec, mc, query)
    t = eval_grid(mc.t_grid_size)
    grid = build_grid(grid_spec)
    master = RngState(mc.master_seed)
    horizons = tuple(query.horizons)

    def row(cdf, samples):
        """One member's row: its CDF on t, then E[x ** n] of its samples x
        at each horizon n."""
        return np.concatenate([cdf, expected_reliability(samples, horizons)])

    domain_p: List[List[np.ndarray]] = []
    subdomains, domains = [], []
    # grid mu, nu and log-measure, plus the log-likelihood of the domain in hand
    retained = 4 * grid.mu.nbytes

    for i, domain in enumerate(system.domains):

        def config_rows(cdfs, draws):
            """One config's rows, each subdomain's then the domain's; and its
            domain draws p."""
            subs = [row(cdf, theta) for cdf, theta in zip(cdfs, draws.theta.T)]
            p = aggregate(draws.theta, domain.op_weights)
            return subs + [row(empirical_cdf(p, t), p)], p

        def unit(weights, draws):
            """The block's quadrature, one (B, T) CDF per subdomain; then each
            config's rows, its draws made inside the call that reduces them."""
            cdfs = zip(*(subdomain_marginal_cdf(domain, j, grid, t, weights) for j in range(len(domain.subdomains))))
            return [config_rows(row_cdfs, draws(b)) for b, row_cdfs in enumerate(cdfs)]

        units = _domain(domain, i, grid, mc, master, threads, unit)
        domain_p.append([p for _, p in units])
        # entity e's members: row e of every config
        members = list(zip(*(rows for rows, _ in units)))
        entries = [(key, envelope(rows, t)) for key, rows in zip(entity_keys(domain, i), members)]
        subdomains += entries[:-1]
        domains.append(entries[-1])
        retained += sum(p.nbytes for p in domain_p[-1]) + sum(r.nbytes for rows in members for r in rows)

    pairings = _pairings(domain_p, mc, master)

    def fold(n):
        """Chunk n's pairings, one row each, reduced to the rows' pointwise
        min and max."""
        chunk = pairings[n * PAIRING_CHUNK : (n + 1) * PAIRING_CHUNK]
        rows = np.array([row(empirical_cdf(p, t), p) for p in _system_p(system, chunk, domain_p)])
        return rows.min(axis=0), rows.max(axis=0)

    bounds = [r for pair in _map(fold, math.ceil(len(pairings) / PAIRING_CHUNK), threads) for r in pair]
    top = (("system", "system"), envelope(bounds, t))
    return InferenceReport(
        t=t,
        horizons=horizons,
        bands=dict(subdomains + domains + [top]),
        master_seed=mc.master_seed,
        live_array_bytes=retained + sum(r.nbytes for r in bounds),
    )
