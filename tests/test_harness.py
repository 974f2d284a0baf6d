"""Synthetic-study and scaling-harness tests."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import hipllm.inference as inference
from hipllm.baselines import BetaPosterior, bb_system_samples, informative_prior
from hipllm.harness import (
    BASELINE_SAMPLES,
    INFORMATIVE_KAPPA,
    GroundTruth,
    Rq5Row,
    build_system,
    default_ground_truth,
    fit_power_law,
    generate_counts,
    op_scenarios,
    run_rq5,
    run_scaling_sweep,
    summarize_method,
)
from hipllm.inference import system_sample_arrays
from hipllm.model import GridSpec, McSpec, default_box, default_grid, validate
from hipllm.numerics import RngState, derive_substream

FAST_GRID = GridSpec(n_mu=16, n_nu=12)
FAST_MC = McSpec(samples_per_config=500, configs_per_domain=16, master_seed=0, t_grid_size=101)
TWO_REGIMES = {"small": (100, 500, 1000, 300), "large": (1000, 5000, 10000, 3000)}


def rq5_rows_one_run_each(gt, regimes, noise, seed):
    """`run_rq5`'s rows from one `system_sample_arrays` or
    `bb_system_samples` call per (regime, scenario, method), with the seeds
    keyed by (regime, method)."""
    rows = []
    for r_idx, (regime, sizes) in enumerate(regimes.items()):
        regime_gt = replace(gt, sample_sizes=sizes)
        counts = generate_counts(regime_gt, derive_substream(seed, (10, r_idx)))
        priors = {
            "bb-uninf": [BetaPosterior(1.0, 1.0)] * len(sizes),
            "bb-inf": [informative_prior(th, INFORMATIVE_KAPPA) for th in regime_gt.theta],
        }
        for scenario, op in op_scenarios(regime_gt, noise, derive_substream(seed, (20, r_idx))).items():
            system = build_system(regime_gt, counts, op)
            for m_idx, method in enumerate([*priors, "hip-llm"]):
                m_seed = derive_substream(seed, (30, r_idx, m_idx))
                if method in priors:
                    samples = [bb_system_samples(system, priors[method], BASELINE_SAMPLES, m_seed)]
                else:
                    samples = system_sample_arrays(system, FAST_GRID, replace(FAST_MC, master_seed=m_seed))
                summary = summarize_method(method, samples, regime_gt.p_system)
                rows.append(Rq5Row(regime=regime, scenario=scenario, summary=summary))
    return rows


class TestGroundTruth:
    def test_reference_system_reliability(self):
        gt = default_ground_truth()
        assert gt.p_system == pytest.approx(0.5860, abs=1e-12)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            GroundTruth(theta=(0.5, 0.5), op=(0.6, 0.6), sample_sizes=(10, 10), domain_sizes=(2,))


class TestGenerateCounts:
    def test_certain_success(self):
        gt = GroundTruth((1.0, 1.0), (0.5, 0.5), (50, 70), domain_sizes=(2,))
        counts = generate_counts(gt, seed=1)
        assert [c.correct for c in counts] == [50, 70]

    def test_certain_failure(self):
        gt = GroundTruth((0.0, 0.0), (0.5, 0.5), (50, 70), domain_sizes=(2,))
        counts = generate_counts(gt, seed=1)
        assert [c.correct for c in counts] == [0, 0]

    def test_three_sigma_binomial(self):
        gt = GroundTruth((0.75,), (1.0,), (100_000,), domain_sizes=(1,))
        counts = generate_counts(gt, seed=5)
        assert abs(counts[0].correct / counts[0].total - 0.75) <= 0.004

    def test_deterministic(self):
        gt = default_ground_truth()
        a = generate_counts(gt, seed=2)
        b = generate_counts(gt, seed=2)
        assert a == b


class TestOpScenarios:
    def test_dataset_proportional(self):
        gt = default_ground_truth()
        scen = op_scenarios(gt, noise=0.2, seed=0)
        np.testing.assert_allclose(
            scen["data"], np.array([100, 500, 1000, 300]) / 1900, atol=1e-10
        )
        assert scen["data"][0] == pytest.approx(0.0526, abs=5e-5)

    def test_zero_noise_recovers_ground_truth(self):
        gt = default_ground_truth()
        scen = op_scenarios(gt, noise=0.0, seed=0)
        np.testing.assert_allclose(scen["approx"], gt.op, atol=1e-15)

    def test_negative_zero_noise_is_zero_noise(self):
        gt = default_ground_truth()
        assert op_scenarios(gt, noise=-0.0, seed=3) == op_scenarios(gt, noise=0.0, seed=3)

    def test_all_sum_to_one(self):
        gt = default_ground_truth()
        scen = op_scenarios(gt, noise=0.2, seed=9)
        for vec in scen.values():
            assert sum(vec) == pytest.approx(1.0, abs=1e-12)

    def test_zero_total_sample_size_rejected(self):
        # refused before the data scenario divides by the total, so no nan
        # weights reach the baselines
        gt = default_ground_truth()
        with pytest.raises(ValueError, match="no positive total"):
            run_rq5(gt, {"r": (0, 0, 0, 0)}, seed=3, grid=FAST_GRID, mc=FAST_MC)


class TestSummarizeMethod:
    def test_scalar_median_interpolation(self):
        samples = np.arange(1, 11) / 10.0
        s = summarize_method("x", [samples], p_gt=0.5)
        assert s.median == (pytest.approx(0.55), pytest.approx(0.55))

    def test_single_config_collapses(self):
        samples = [np.arange(1, 11) / 10.0]
        s = summarize_method("x", samples, p_gt=0.5)
        assert s.median[0] == s.median[1]

    def test_two_config_bounds(self):
        a = np.full(11, 0.57)
        b = np.full(11, 0.58)
        s = summarize_method("x", [a, b], p_gt=0.586)
        assert s.median == (pytest.approx(0.57), pytest.approx(0.58))
        assert s.error[0] == pytest.approx(0.006)
        assert s.error[1] == pytest.approx(0.016)

    def test_permutation_invariant(self):
        rng = RngState(1)
        samples = rng.gen.random(101)
        shuffled = samples.copy()
        rng.gen.shuffle(shuffled)
        a = summarize_method("x", [samples], 0.5)
        b = summarize_method("x", [shuffled], 0.5)
        assert a == b


class TestRunRq5:
    def test_fast_smoke(self):
        gt = default_ground_truth()
        rows = run_rq5(gt, {"small": (100, 500, 1000, 300)}, seed=3, grid=FAST_GRID, mc=FAST_MC)
        assert len(rows) == 9  # 3 scenarios x 3 methods
        for row in rows:
            lo, hi = row.summary.median
            assert 0.0 <= lo <= hi <= 1.0
            # sanity: everything lands near the ground truth
            assert abs(row.summary.median_mid - 0.586) < 0.1

    def test_scenarios_identical_when_op_matches_data(self):
        # sizes proportional to the true weights and zero noise make all
        # three scenarios the same system, hence identical tables
        gt = GroundTruth(
            theta=(0.75, 0.65, 0.58, 0.45),
            op=(0.30, 0.10, 0.20, 0.40),
            sample_sizes=(300, 100, 200, 400),
        )
        rows = run_rq5(
            gt, {"r": (300, 100, 200, 400)}, noise=0.0, seed=4, grid=FAST_GRID, mc=FAST_MC
        )
        by_scenario = {}
        for row in rows:
            by_scenario.setdefault(row.summary.method, {})[row.scenario] = row.summary
        for method, summaries in by_scenario.items():
            vals = list(summaries.values())
            assert vals[0] == vals[1] == vals[2]

    def test_rows_match_one_run_per_scenario(self):
        # sharing a regime's domain stage across the scenarios changes no row
        gt = default_ground_truth()
        rows = run_rq5(gt, TWO_REGIMES, noise=0.2, seed=5, grid=FAST_GRID, mc=FAST_MC)
        assert len(rows) == 18
        assert rows == rq5_rows_one_run_each(gt, TWO_REGIMES, noise=0.2, seed=5)

    def test_domain_stage_runs_once_per_regime(self, monkeypatch):
        calls = []
        real = inference.sample_domain
        monkeypatch.setattr(inference, "sample_domain", lambda *a: calls.append(a) or real(*a))
        gt = default_ground_truth()
        run_rq5(gt, TWO_REGIMES, seed=5, grid=FAST_GRID, mc=FAST_MC)
        # regimes x domains x configs, not three times that
        assert len(calls) == 2 * len(gt.domain_sizes) * FAST_MC.configs_per_domain


class TestScaling:
    def test_power_law_exact(self):
        c, a = fit_power_law([1, 2, 4, 8], [2, 4, 8, 16])
        assert c == pytest.approx(2.0, rel=1e-9)
        assert a == pytest.approx(1.0, abs=1e-9)

    def test_power_law_quadratic(self):
        xs = [1.0, 2.0, 3.0, 5.0]
        c, a = fit_power_law(xs, [3 * x ** 2 for x in xs])
        assert c == pytest.approx(3.0, rel=1e-9)
        assert a == pytest.approx(2.0, abs=1e-9)

    def test_power_law_with_noise(self):
        rng = RngState(6)
        xs = np.linspace(1, 50, 20)
        ys = 5 * xs ** 1.5 * (1 + rng.gen.uniform(-0.01, 0.01, size=xs.size))
        _, a = fit_power_law(xs, ys)
        assert 1.4 <= a <= 1.6

    def test_power_law_degenerate(self):
        with pytest.raises(ValueError):
            fit_power_law([2, 2, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1, 2])

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            run_scaling_sweep("bogus", [1, 2, 3])
        with pytest.raises(ValueError):
            run_scaling_sweep("m", [4, 2, 1])

    def test_tiny_sweep_records(self):
        # minimal end-to-end run; acceptance covers the full-scale exponents
        import hipllm.harness as harness

        orig_mc, orig_grid = harness.default_mc, harness.default_grid
        harness.default_mc = lambda: FAST_MC
        harness.default_grid = lambda: FAST_GRID
        try:
            records = run_scaling_sweep("m", [1, 2], seed=1)
        finally:
            harness.default_mc, harness.default_grid = orig_mc, orig_grid
        assert [r.value for r in records] == [1.0, 2.0]
        assert all(r.seconds > 0 and r.peak_bytes > 0 for r in records)

    def test_timed_run_untraced(self, monkeypatch):
        # tracemalloc slows every allocation, so it must stay off the clock
        import hipllm.harness as harness

        tracing, clock = [], []
        monkeypatch.setattr(
            harness, "infer", lambda *a, **k: tracing.append(tracemalloc.is_tracing())
        )
        real_clock = harness.time.perf_counter
        monkeypatch.setattr(
            harness.time, "perf_counter", lambda: clock.append(tracemalloc.is_tracing()) or real_clock()
        )
        run_scaling_sweep("m", [1, 2], seed=1)
        # each point's traced run, then three interleaved rounds of timed runs
        assert tracing == [True, True] + [False] * 6
        assert clock == [False] * 12

    def test_timed_run_follows_traced_run_of_its_point(self, monkeypatch):
        # every point's traced run warms it, the first one too, before any
        # timed run; the timed runs then go round the points three times,
        # so host drift spreads over every point alike
        import hipllm.harness as harness

        calls = []
        monkeypatch.setattr(
            harness, "infer", lambda *a, **k: calls.append((tracemalloc.is_tracing(), a, k))
        )
        run_scaling_sweep("G", [500, 1000, 2000])
        assert [traced for traced, _, _ in calls] == [True] * 3 + [False] * 9
        traced = [call[1:] for call in calls[:3]]
        assert [call[1:] for call in calls[3:]] == traced * 3
        assert len({str(a) for _, a, _ in calls}) == 3

    def test_point_time_is_median_of_timed_runs(self, monkeypatch):
        import hipllm.harness as harness

        monkeypatch.setattr(harness, "infer", lambda *a, **k: None)
        # one (start, stop) pair per timed run, round by round: point 1 takes
        # 5, 2 and 3 s, point 2 takes 1, 9 and 4 s
        durations = iter([5.0, 1.0, 2.0, 9.0, 3.0, 4.0])
        ticks = iter(t for d in durations for t in (0.0, d))
        monkeypatch.setattr(harness.time, "perf_counter", lambda: next(ticks))
        records = run_scaling_sweep("m", [1, 2], seed=1)
        assert [r.seconds for r in records] == [3.0, 4.0]

    def test_sweep_inputs(self, monkeypatch):
        # the systems and grids handed to the engine, recorded without running it
        import hipllm.harness as harness

        calls = []
        monkeypatch.setattr(
            harness, "infer", lambda system, grid, *a, **k: calls.append((system, grid))
        )
        # the first runs are the points' traced runs, one per point in order
        run_scaling_sweep("n", [1, 3])
        systems = [validate(system)[0] for system, _ in calls[:2]]
        assert [[len(d.subdomains) for d in s.domains] for s in systems] == [[1, 1], [3, 3]]
        cycle = [375, 325, 290, 225]
        for s in systems:
            subs = [sub for d in s.domains for sub in d.subdomains]
            assert [(sub.correct, sub.total) for sub in subs] == [
                (cycle[k % 4], 500) for k in range(len(subs))
            ]
            assert s.domain_weights == (0.5, 0.5)
            for d in s.domains:
                assert d.op_weights == (1.0 / len(d.subdomains),) * len(d.subdomains)
                assert d.box == default_box()

        calls.clear()
        run_scaling_sweep("G", [500, 2000, 4000])
        grids = [(g.n_mu, g.n_nu) for _, g in calls[:3]]
        assert grids == [(25, 20), (50, 40), (71, 57)]
        assert calls[1][1] == default_grid()
