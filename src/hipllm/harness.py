"""Synthetic ground-truth comparison and scalability benchmarks.

The synthetic study draws binomial counts from known subdomain accuracies,
builds three operational-profile scenarios (dataset-proportional, noisy,
exact), runs each estimation method, and summarizes medians, errors, and
90% intervals against the known system reliability.  The scaling sweep
times the full engine while varying one parameter at a time and fits
power laws to the wall-clock measurements.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .baselines import BetaPosterior, bb_system_samples, informative_prior
from .inference import infer, profile_samples
from .model import (
    DomainSpec,
    GridSpec,
    McSpec,
    ReliabilityQuery,
    SubdomainData,
    SystemSpec,
    aggregate,
    default_grid,
    default_mc,
)
from .numerics import RngState, derive_substream

__all__ = [
    "GroundTruth",
    "MethodSummary",
    "Rq5Row",
    "ScalingRecord",
    "default_ground_truth",
    "generate_counts",
    "op_scenarios",
    "build_system",
    "summarize_method",
    "run_rq5",
    "run_scaling_sweep",
    "fit_power_law",
]

# Concentration of the informative baseline prior: comparable weight to the
# smallest synthetic sample size without dominating it.
INFORMATIVE_KAPPA = 50.0

# Posterior sample count for the closed-form baselines.
BASELINE_SAMPLES = 20_000

# Warm timed passes per scaling-sweep point; a point's time is their median.
SWEEP_PASSES = 3


@dataclass(frozen=True)
class GroundTruth:
    """Known subdomain accuracies and flattened operational weights."""

    theta: Tuple[float, ...]
    op: Tuple[float, ...]              # flattened W_i * Omega_ij, sums to 1
    sample_sizes: Tuple[int, ...]
    domain_sizes: Tuple[int, ...] = (2, 2)   # subdomains per domain

    def __post_init__(self):
        if not (len(self.theta) == len(self.op) == len(self.sample_sizes)):
            raise ValueError("theta, op, and sample_sizes must have equal length")
        if sum(self.domain_sizes) != len(self.theta):
            raise ValueError("domain_sizes must partition the subdomain list")
        if abs(sum(self.op) - 1.0) > 1e-9:
            raise ValueError("ground-truth weights must sum to 1")

    @property
    def p_system(self) -> float:
        return float(aggregate(self.theta, self.op))


def default_ground_truth() -> GroundTruth:
    """Reference configuration for the synthetic study (system reliability
    0.5860 exactly)."""
    return GroundTruth(
        theta=(0.75, 0.65, 0.58, 0.45),
        op=(0.30, 0.10, 0.20, 0.40),
        sample_sizes=(100, 500, 1000, 300),
    )


def generate_counts(gt: GroundTruth, seed: int) -> List[SubdomainData]:
    """Seeded binomial counts from the ground-truth accuracies."""
    rng = RngState(seed)
    out = []
    for j, (theta, n) in enumerate(zip(gt.theta, gt.sample_sizes)):
        c = int(rng.substream(j).gen.binomial(n, theta))
        out.append(SubdomainData(correct=c, total=n, label=f"synth{j+1}"))
    return out


def op_scenarios(
    gt: GroundTruth, noise: float, seed: int
) -> Dict[str, Tuple[float, ...]]:
    """Three flattened weight vectors: dataset-size proportional ("data"),
    ground truth perturbed by multiplicative uniform noise and renormalized
    ("approx"), and exact ground truth ("gt")."""
    if not (0.0 <= noise < 1.0):
        raise ValueError("noise must lie in [0, 1)")
    sizes = np.asarray(gt.sample_sizes, dtype=float)
    if not sizes.sum() > 0.0:
        raise ValueError(f"sample sizes {gt.sample_sizes} have no positive total")
    data = sizes / sizes.sum()
    u = RngState(seed).gen.uniform(-noise, abs(noise), size=len(gt.op))  # abs: uniform(0.0, -0.0) raises
    approx = np.asarray(gt.op) * (1.0 + u)
    approx = approx / approx.sum()
    return {
        "data": tuple(data),
        "approx": tuple(approx),
        "gt": tuple(gt.op),
    }


def build_system(
    gt: GroundTruth,
    counts: Sequence[SubdomainData],
    op_flat: Sequence[float],
) -> SystemSpec:
    """Assemble the two-level hierarchy of `gt.domain_sizes` from
    per-subdomain counts and flattened weights; every domain takes
    `DomainSpec`'s default box.

    Domain weights are the per-domain sums of the flattened weights; the
    within-domain weights are the renormalized remainders.
    """
    domains = []
    weights = []
    k = 0
    for i, size in enumerate(gt.domain_sizes):
        chunk = np.asarray(op_flat[k : k + size], dtype=float)
        w_i = chunk.sum()
        if w_i <= 0.0:
            raise ValueError(f"domain {i} has zero total weight")
        domains.append(
            DomainSpec(
                subdomains=tuple(counts[k : k + size]),
                op_weights=tuple(chunk / w_i),
                label=f"synth-dom{i+1}",
            )
        )
        weights.append(w_i)
        k += size
    return SystemSpec(domains=tuple(domains), domain_weights=tuple(weights))


@dataclass(frozen=True)
class MethodSummary:
    """Median, absolute error, and 90% interval for one method.

    Envelope-valued methods report [min, max] bounds over their config
    family; single-posterior methods report degenerate bounds.
    """

    method: str
    median: Tuple[float, float]
    error: Tuple[float, float]
    interval_90: Tuple[float, float]

    @property
    def median_mid(self) -> float:
        return 0.5 * (self.median[0] + self.median[1])


def summarize_method(
    method: str,
    samples: Iterable[np.ndarray],
    p_gt: float,
) -> MethodSummary:
    """Summarize a family of per-config posterior sample arrays, read once
    in order; a single-posterior method passes a family of one."""
    triples = [np.quantile(s, [0.05, 0.5, 0.95]).tolist() for s in samples]
    if not triples:
        raise ValueError("envelope summary requires at least one config")
    meds = [m for _, m, _ in triples]
    errs = [abs(m - p_gt) for m in meds]
    return MethodSummary(
        method,
        (min(meds), max(meds)),
        (min(errs), max(errs)),
        (min(q for q, _, _ in triples), max(q for _, _, q in triples)),
    )


@dataclass(frozen=True)
class Rq5Row:
    regime: str
    scenario: str
    summary: MethodSummary


def run_rq5(
    gt: GroundTruth,
    regimes: Dict[str, Sequence[int]],
    noise: float = 0.2,
    seed: int = 0,
    grid: Optional[GridSpec] = None,
    mc: Optional[McSpec] = None,
) -> List[Rq5Row]:
    """Synthetic comparison of the estimation methods.

    One row per (sample-size regime x weight scenario x method); counts are
    drawn once per regime and shared by every scenario and method.  Each
    method's seed is keyed by (regime, method), so the scenarios, which
    differ only in their weights, share its draws too: HIP-LLM's
    posteriors and draws are made once per regime and released before the
    next one.
    """
    grid = grid if grid is not None else default_grid()
    mc = mc if mc is not None else default_mc()
    rows: List[Rq5Row] = []
    for r_idx, (regime, sizes) in enumerate(regimes.items()):
        regime_gt = replace(gt, sample_sizes=tuple(int(n) for n in sizes))
        counts = generate_counts(regime_gt, derive_substream(seed, (10, r_idx)))
        scenarios = op_scenarios(regime_gt, noise, derive_substream(seed, (20, r_idx)))
        systems = {name: build_system(regime_gt, counts, op) for name, op in scenarios.items()}
        priors = {  # the closed-form methods; each method's position seeds its samples
            "bb-uninf": [BetaPosterior(1.0, 1.0)] * len(regime_gt.theta),
            "bb-inf": [informative_prior(th, INFORMATIVE_KAPPA) for th in regime_gt.theta],
        }
        # one pairing stream per scenario, in scenario order; rebinding frees the last regime's draws
        streams = profile_samples(
            list(systems.values()),
            grid,
            replace(mc, master_seed=derive_substream(seed, (30, r_idx, len(priors)))),
        )
        for (scenario, system), hip_llm in zip(systems.items(), streams):
            methods = {
                name: [bb_system_samples(system, prior, BASELINE_SAMPLES, derive_substream(seed, (30, r_idx, m_idx)))]
                for m_idx, (name, prior) in enumerate(priors.items())
            }
            methods["hip-llm"] = hip_llm
            for method, samples in methods.items():
                rows.append(
                    Rq5Row(
                        regime=regime,
                        scenario=scenario,
                        summary=summarize_method(method, samples, regime_gt.p_system),
                    )
                )
    return rows


@dataclass(frozen=True)
class ScalingRecord:
    parameter: str
    value: float
    seconds: float
    peak_bytes: int


def _bench_system(m: int, n_bar: int) -> SystemSpec:
    """Synthetic hierarchy for timing runs: m domains of n_bar subdomains,
    uniform weights, and the reference accuracies cycled over the
    subdomains with deterministic counts out of 500 trials."""
    theta, size = default_ground_truth().theta, m * n_bar
    gt = GroundTruth(
        theta=tuple(theta[k % len(theta)] for k in range(size)),
        op=(1.0 / size,) * size,
        sample_sizes=(500,) * size,
        domain_sizes=(n_bar,) * m,
    )
    counts = [SubdomainData(round(th * n), n) for th, n in zip(gt.theta, gt.sample_sizes)]
    return build_system(gt, counts, gt.op)


def _grid_for_size(g: int) -> GridSpec:
    """The default grid scaled to about g nodes, keeping its aspect ratio."""
    grid = default_grid()
    r = np.sqrt(g / grid.size)
    return replace(grid, n_mu=max(1, round(grid.n_mu * r)), n_nu=max(1, round(grid.n_nu * r)))


def run_scaling_sweep(
    parameter: str,
    values: Sequence[float],
    seed: int = 0,
) -> List[ScalingRecord]:
    """Time the full engine while sweeping one parameter around a baseline
    of m=2 domains of n_bar=2 subdomains (`_bench_system`), `default_mc()`
    and `default_grid()`; a G value scales the default grid
    (`_grid_for_size`).

    The timed runs are single-threaded so fitted exponents are independent
    of scheduling.  Peak memory is the tracemalloc peak of an untimed run of
    each point, because tracing slows every allocation (by 14-18% of CPU
    time at G=500 and G=4000); those runs also warm the points, so no point
    is timed cold.  A point's time is the median of SWEEP_PASSES warm timed
    runs, taken in interleaved rounds over the points after every point's
    traced run: host drift lasts tens of seconds, so each point sees the
    same spread of it.
    """
    if parameter not in {"m", "n", "K", "S", "G"}:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    if any(v <= 0 for v in values) or list(values) != sorted(values):
        raise ValueError("sweep values must be positive and increasing")
    base_mc = replace(default_mc(), master_seed=seed)
    query = ReliabilityQuery(horizons=(1,))
    points, peaks = [], []
    for v in values:
        m, n_bar, grid, mc = 2, 2, default_grid(), base_mc
        v = int(v)
        if parameter == "m":
            m = v
        elif parameter == "n":
            n_bar = v
        elif parameter == "K":
            mc = replace(mc, configs_per_domain=v)
        elif parameter == "S":
            mc = replace(mc, samples_per_config=v)
        elif parameter == "G":
            grid = _grid_for_size(v)
        points.append((_bench_system(m, n_bar), grid, mc, query))
        tracemalloc.start()
        try:
            infer(*points[-1], threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    seconds = [[] for _ in points]
    for _ in range(SWEEP_PASSES):
        for point, times in zip(points, seconds):
            start = time.perf_counter()
            infer(*point, threads=1)
            times.append(time.perf_counter() - start)
    return [
        ScalingRecord(parameter=parameter, value=float(int(v)), seconds=float(np.median(times)), peak_bytes=peak)
        for v, times, peak in zip(values, seconds, peaks)
    ]


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit of y = c * x**alpha on log-log axes; returns
    (c, alpha)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size < 3:
        raise ValueError("power-law fit needs at least 3 points")
    if np.any(x <= 0.0) or np.any(y <= 0.0):
        raise ValueError("power-law fit needs positive data")
    if np.allclose(x, x[0]):
        raise ValueError("power-law fit is degenerate for constant x")
    alpha, log_c = np.polyfit(np.log(x), np.log(y), 1)
    return float(np.exp(log_c)), float(alpha)
