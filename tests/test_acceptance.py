"""End-to-end acceptance checks.

Each test exercises one released behavior at full scale and prints a single
pass/fail line (bypassing capture) so the run log doubles as a checklist.
"""

import time

import numpy as np
import pytest

from hipllm.baselines import (
    BetaPosterior,
    bb_expected_future_reliability,
    bb_update,
)
from hipllm.config import parse_config
from hipllm.harness import (
    default_ground_truth,
    fit_power_law,
    run_rq5,
    run_scaling_sweep,
)
from hipllm.hyperposterior import (
    build_grid,
    hyper_posterior,
    log_marginal_likelihood_grid,
)
from hipllm.inference import (
    empirical_cdf,
    envelope,
    eval_grid,
    generate_configs,
    infer,
    sample_domain,
    sample_system,
    subdomain_marginal_cdf,
    system_sample_arrays,
)
from hipllm.model import (
    DomainSpec,
    GridSpec,
    HyperBox,
    McSpec,
    ReliabilityQuery,
    SubdomainData,
    SystemSpec,
    aggregate,
    default_box,
)
from hipllm.numerics import RngState, beta_cdf

CONFIG_PATH = __file__.rsplit("/", 2)[0] + "/configs/gpt4o_mini.json"


_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {num}] {desc}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def _point_domain(correct: int, total: int) -> DomainSpec:
    box = HyperBox((1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
    return DomainSpec((SubdomainData(correct, total),), (1.0,), box)


def test_criterion_1_conjugate_baseline():
    start = time.perf_counter()
    post = bb_update(3, 10, 2.0, 2.0)
    elapsed = time.perf_counter() - start
    ok = (
        (post.alpha, post.beta) == (5.0, 9.0)
        and f"{post.mean:.6f}" == "0.357143"
        and elapsed < 1e-3
    )
    _report(
        1,
        "conjugate Beta(2,2)+3/10 update",
        ok,
        f"posterior Beta({post.alpha:g},{post.beta:g}), mean {post.mean:.6f}, {elapsed*1e6:.0f}us",
    )


def test_criterion_2_degenerate_hierarchy():
    start = time.perf_counter()
    domain = _point_domain(3, 10)
    # single node at (mu, nu) = (0.5, 2); posterior there is exactly Beta(4, 8)
    grid = build_grid(GridSpec(n_mu=1, n_nu=1, nu_min=1.0, nu_max=4.0))
    config = (1.0, 1.0, 1.0, 1.0)
    weights = hyper_posterior([config], grid, log_marginal_likelihood_grid(domain, grid)).weights[0]

    t = eval_grid(201)
    exact = beta_cdf(t, 4.0, 8.0)
    quad = subdomain_marginal_cdf(domain, 0, grid, t, weights[None])[0]
    quad_err = float(np.max(np.abs(quad - exact)))

    dkw = 0.0163
    failures = 0
    sups = []
    for seed in range(5):
        draws = sample_domain(domain, grid, weights, 10_000, RngState(seed))
        sup = float(np.max(np.abs(empirical_cdf(draws.theta[:, 0], t) - exact)))
        sups.append(sup)
        if sup > dkw:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = quad_err <= 1e-9 and failures <= 1 and elapsed < 5.0
    _report(
        2,
        "degenerate hierarchy reduces to conjugate posterior",
        ok,
        f"quad err {quad_err:.2e}, DKW sup {max(sups):.4f} with {failures}/5 over 0.0163, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_textbook_future_reliability():
    exact_ok = True
    for n in (0, 10, 100):
        post = BetaPosterior(1.0 + n, 1.0)
        for n_f in (1, 10, 100):
            got = bb_expected_future_reliability(post, n_f)
            want = (1 + n) / (1 + n + n_f)
            if abs(got - want) > 1e-12 * want:
                exact_ok = False

    rng = RngState(200)
    s = 100_000
    worst = 0.0
    mc_ok = True
    for _ in range(20):
        a = float(rng.gen.uniform(0.5, 20))
        b = float(rng.gen.uniform(0.5, 20))
        n_f = int(rng.gen.integers(1, 20))
        vals = rng.gen.beta(a, b, size=s) ** n_f
        se = vals.std() / np.sqrt(s)
        z = abs(vals.mean() - bb_expected_future_reliability(BetaPosterior(a, b), n_f)) / se
        worst = max(worst, z)
        if z > 3.0:
            mc_ok = False
    _report(
        3,
        "closed-form future reliability vs telescoping identity and Monte Carlo",
        exact_ok and mc_ok,
        f"worst MC deviation {worst:.2f} standard errors",
    )


def test_criterion_4_synthetic_small_sample():
    start = time.perf_counter()
    gt = default_ground_truth()
    rows = run_rq5(gt, {"small": (100, 500, 1000, 300)}, noise=0.2, seed=9)
    elapsed = time.perf_counter() - start
    by_method = {
        r.summary.method: r.summary for r in rows if r.scenario == "gt"
    }
    bb_med = by_method["bb-uninf"].median[0]
    hip = by_method["hip-llm"]
    width = hip.median[1] - hip.median[0]
    max_err = hip.error[1]
    ok = (
        abs(bb_med - 0.5782) <= 0.02
        and width <= 0.02
        and max_err <= 0.03
        and elapsed < 300.0
    )
    _report(
        4,
        "small-sample synthetic comparison",
        ok,
        f"BB-UnInf median {bb_med:.4f} (target 0.5782+/-0.02), envelope median width "
        f"{width:.4f}, max envelope error {max_err:.4f}, {elapsed:.0f}s",
    )


def test_criterion_5_synthetic_large_sample_convergence():
    gt = default_ground_truth()
    rows = run_rq5(gt, {"large": (1000, 5000, 10000, 3000)}, noise=0.2, seed=0)
    mids = {
        r.summary.method: r.summary.median_mid for r in rows if r.scenario == "gt"
    }
    spread = max(mids.values()) - min(mids.values())
    ok = spread <= 0.04  # every median within +/-0.02 of the common center
    _report(
        5,
        "large-sample method convergence",
        ok,
        "medians "
        + ", ".join(f"{k} {v:.4f}" for k, v in sorted(mids.items()))
        + f", spread {spread:.4f}",
    )


def test_criterion_6_benchmark_system_reliability():
    cfg = parse_config(CONFIG_PATH)
    query = ReliabilityQuery(horizons=tuple(range(1, 101)))
    report = infer(cfg.system, cfg.grid, cfg.mc, query, threads=2)
    curve = report.bands[("system", "system")]
    lo1, hi1 = curve.expected_lower[0], curve.expected_upper[0]
    monotone = bool(
        np.all(np.diff(curve.expected_lower) < 0)
        and np.all(np.diff(curve.expected_upper) < 0)
    )
    ok = 0.78 <= lo1 <= hi1 <= 0.82 and hi1 <= 0.88 and monotone
    _report(
        6,
        "benchmark-count system reliability",
        ok,
        f"E[R(1)] envelope [{lo1:.4f}, {hi1:.4f}] in [0.78, 0.82], "
        f"decay strictly decreasing: {monotone}",
    )


def test_criterion_7_extra_successes_shift_right():
    grid = build_grid(GridSpec())
    t = eval_grid(201)
    configs = generate_configs(default_box(), 160, seed=12345)
    uppers, mean_ranges = {}, {}
    for c in (121, 127):
        domain = DomainSpec((SubdomainData(c, 257),), (1.0,), default_box())
        log_lik = log_marginal_likelihood_grid(domain, grid)
        members, means = [], []
        for h in configs:
            weights = hyper_posterior([h], grid, log_lik).weights[0]
            cdf = subdomain_marginal_cdf(domain, 0, grid, t, weights[None])[0]
            members.append(cdf)
            # mixture mean of the conditional Beta components
            alpha = c + grid.mu * grid.nu
            beta = (257 - c) + (1 - grid.mu) * grid.nu
            means.append(float(weights @ (alpha / (alpha + beta))))
        uppers[c] = np.max(np.asarray(members), axis=0)
        mean_ranges[c] = (min(means), max(means))
    means_up = (
        mean_ranges[127][0] > mean_ranges[121][0]
        and mean_ranges[127][1] > mean_ranges[121][1]
    )
    cdf_dominates = bool(np.all(uppers[127] <= uppers[121] + 1e-9))
    _report(
        7,
        "higher pass rate dominates",
        means_up and cdf_dominates,
        f"mean bounds {mean_ranges[121][0]:.4f}-{mean_ranges[121][1]:.4f} -> "
        f"{mean_ranges[127][0]:.4f}-{mean_ranges[127][1]:.4f}, upper CDF nowhere higher: "
        f"{cdf_dominates}",
    )


def test_criterion_8_scaling():
    start = time.perf_counter()
    sweeps = {
        "G": [500, 1000, 2000, 4000],
        "m": [1, 2, 4, 8],
        "K": [40, 80, 160, 320],
    }
    exponents, mem_dev = {}, 0.0
    for param, values in sweeps.items():
        records = run_scaling_sweep(param, values, seed=0)
        _, alpha = fit_power_law(
            [r.value for r in records], [r.seconds for r in records]
        )
        exponents[param] = alpha
        if param == "G":
            mem = np.asarray([r.peak_bytes for r in records], dtype=float)
            mem_dev = float(np.max(np.abs(mem / mem.mean() - 1.0)))
    elapsed = time.perf_counter() - start
    ok = (
        all(0.7 <= a <= 1.3 for a in exponents.values())
        and mem_dev <= 0.10
        and elapsed < 900.0
    )
    _report(
        8,
        "near-linear time scaling with flat memory",
        ok,
        "exponents "
        + ", ".join(f"{k} {v:.2f}" for k, v in exponents.items())
        + f"; grid-size memory deviation {mem_dev:.1%}; {elapsed:.0f}s",
    )


def test_criterion_9_structural_properties():
    cfg = parse_config(CONFIG_PATH)
    mc = McSpec(
        samples_per_config=500, configs_per_domain=16, master_seed=7, t_grid_size=101
    )
    grid = GridSpec(n_mu=20, n_nu=16)
    report = infer(cfg.system, grid, mc, threads=1)

    issues = []
    for (level, entity), env in report.bands.items():
        for name, curve in (("lower", env.lower), ("upper", env.upper)):
            if np.any(np.diff(curve) < -1e-12):
                issues.append(f"{level}/{entity} {name} not nondecreasing")
            if abs(curve[-1] - 1.0) > 1e-12:
                issues.append(f"{level}/{entity} {name} does not end at 1")
        if np.any(env.lower > env.upper + 1e-15):
            issues.append(f"{level}/{entity} lower exceeds upper")

    # an envelope over more configs can only widen
    members = [empirical_cdf(p, report.t) for p in system_sample_arrays(cfg.system, grid, mc)]
    sub = envelope(members[: len(members) // 2], report.t)
    sup = envelope(members, report.t)
    if np.any(sup.lower > sub.lower + 1e-15) or np.any(sup.upper < sub.upper - 1e-15):
        issues.append("superset envelope narrower than subset envelope")

    # aggregates stay inside the convex hull of their components
    system = cfg.system
    hgrid = build_grid(grid)
    domain_sets = []
    for i, domain in enumerate(system.domains):
        config = generate_configs(domain.box, 4, seed=i)[0]
        weights = hyper_posterior([config], hgrid, log_marginal_likelihood_grid(domain, hgrid)).weights[0]
        ds = sample_domain(domain, hgrid, weights, 1000, RngState(50 + i))
        p = aggregate(ds.theta, domain.op_weights)
        if np.any(p < ds.theta.min(axis=1) - 1e-12) or np.any(
            p > ds.theta.max(axis=1) + 1e-12
        ):
            issues.append(f"domain {i} aggregate outside subdomain hull")
        domain_sets.append([p])
    p_l = sample_system(system, (0, 0), domain_sets)
    stack = np.stack([ds[0] for ds in domain_sets])
    if np.any(p_l < stack.min(axis=0) - 1e-12) or np.any(p_l > stack.max(axis=0) + 1e-12):
        issues.append("system aggregate outside domain hull")

    # thread count must not change a single bit of the result
    threaded = infer(cfg.system, grid, mc, threads=4)
    for ((l1, e1), env1), ((l2, e2), env2) in zip(
        report.bands.items(), threaded.bands.items()
    ):
        if not (
            np.array_equal(env1.lower, env2.lower)
            and np.array_equal(env1.upper, env2.upper)
        ):
            issues.append(f"{l1}/{e1} differs across thread counts")
    for key, curve in report.bands.items():
        other = threaded.bands[key]
        if not (
            np.array_equal(curve.expected_lower, other.expected_lower)
            and np.array_equal(curve.expected_upper, other.expected_upper)
        ):
            issues.append(f"reliability {key} differs across thread counts")

    _report(
        9,
        "structural properties of every emitted result",
        not issues,
        "; ".join(issues) if issues else "monotone, nested, hull-bounded, thread-invariant",
    )
