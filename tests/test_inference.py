"""Engine tests: configs, quadrature CDFs, sampling, pairings, envelopes,
and the reliability transforms."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hipllm.inference as inference
from hipllm.hyperposterior import HyperGrid, build_grid, hyper_posterior
from hipllm.inference import (
    QUAD_BLOCK,
    QUAD_EPS,
    empirical_cdf,
    envelope,
    eval_grid,
    expected_reliability,
    generate_configs,
    generate_pairings,
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
    HyperConfig,
    McSpec,
    ReliabilityQuery,
    SubdomainData,
    SystemSpec,
    default_box,
)
from hipllm.numerics import RngState, beta_cdf


def dense_shapes(post, correct, total):
    """Conditional Beta shapes of every grid cell."""
    return correct + post.mu * post.nu, total - correct + (1.0 - post.mu) * post.nu


def dense_cdf(post, correct, total, t):
    """The quadrature mixture as one full (cells, T) mat-vec."""
    alpha, beta = dense_shapes(post, correct, total)
    return post.weights @ beta_cdf(t[None, :], alpha[:, None], beta[:, None])


# single-node grid whose unique cell sits at (mu=0.5, nu=2)
POINT_GRID = GridSpec(n_mu=1, n_nu=1, nu_min=1.0, nu_max=4.0)


def point_box(a=2.0, b=2.0, c=2.0, d=2.0):
    return HyperBox((a, a), (b, b), (c, c), (d, d))


def one_subdomain_system(c=3, n=10, box=None):
    dom = DomainSpec(
        subdomains=(SubdomainData(c, n, "only"),),
        op_weights=(1.0,),
        box=box if box is not None else default_box(),
        label="d1",
    )
    return SystemSpec(domains=(dom,), domain_weights=(1.0,))


class TestGenerateConfigs:
    def test_sixteen_corners(self):
        box = default_box()
        configs = generate_configs(box, 16, seed=1)
        corner_vals = {
            tuple(h.as_tuple()) for h in configs
        }
        assert len(configs) == 16
        expected = {
            (a, b, c, d)
            for a in (1.0, 12.0)
            for b in (1.0, 12.0)
            for c in (1.0, 25.0)
            for d in (1.0, 25.0)
        }
        assert corner_vals == expected

    def test_degenerate_box(self):
        configs = generate_configs(point_box(), 20, seed=3)
        assert all(h.as_tuple() == (2.0, 2.0, 2.0, 2.0) for h in configs)

    def test_membership_at_k160(self):
        box = default_box()
        configs = generate_configs(box, 160, seed=9)
        assert len(configs) == 160
        assert all(box.contains(h) for h in configs)

    def test_deterministic(self):
        a = generate_configs(default_box(), 50, seed=4)
        b = generate_configs(default_box(), 50, seed=4)
        assert a == b


class TestSubdomainMarginalCdf:
    def test_single_node_conjugacy(self):
        # one cell at (0.5, 2): mixture collapses to I_t(C+1, N-C+1)
        dom = one_subdomain_system().domains[0]
        grid = build_grid(POINT_GRID)
        post = hyper_posterior(dom, HyperConfig(2, 2, 2, 2), grid)
        t = eval_grid(201)
        vals = subdomain_marginal_cdf(dom, 0, post, t)
        np.testing.assert_allclose(vals, beta_cdf(t, 4.0, 8.0), atol=1e-9)

    def test_prior_mixture_vs_direct_sampling(self):
        # no data: mixture of prior-predictive Betas; cross-check at t=0.5
        dom = DomainSpec(
            subdomains=(SubdomainData(0, 0),), op_weights=(1.0,), box=default_box()
        )
        grid = build_grid(GridSpec(n_mu=10, n_nu=8, nu_min=0.5, nu_max=20.0))
        h = HyperConfig(2, 2, 2, 2)
        post = hyper_posterior(dom, h, grid)
        t = np.array([0.5])
        quad = subdomain_marginal_cdf(dom, 0, post, t)[0]
        rng = RngState(404)
        s = 100_000
        sl = sample_domain(dom, post, s, rng)
        mc = np.mean(sl.theta[:, 0] <= 0.5)
        assert quad == pytest.approx(mc, abs=0.01)

    def test_terminal_value_is_one(self):
        dom = one_subdomain_system(90, 100).domains[0]
        grid = build_grid(GridSpec(n_mu=20, n_nu=10))
        post = hyper_posterior(dom, HyperConfig(3, 2, 4, 4), grid)
        t = eval_grid(51)
        vals = subdomain_marginal_cdf(dom, 0, post, t)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(vals) >= -1e-12)

    @staticmethod
    def block_rows(monkeypatch):
        """Rows of every beta_cdf block the quadrature evaluates, in order."""
        rows = []

        def spy(t, alpha, beta):
            rows.append(len(alpha))
            return beta_cdf(t, alpha, beta)

        monkeypatch.setattr(inference, "beta_cdf", spy)
        return rows

    @pytest.mark.parametrize(
        "cells",
        [QUAD_BLOCK // 2, QUAD_BLOCK, 2 * QUAD_BLOCK, 3 * QUAD_BLOCK + 17],
        ids=["below-one-block", "one-block", "two-blocks", "several-blocks"],
    )
    def test_blocked_sum_matches_single_matvec(self, monkeypatch, cells):
        # every cell weighs about 1/G, so each is evaluated inside its window
        rng = np.random.default_rng(cells)
        weights = rng.uniform(0.5, 1.5, cells)
        post = HyperGrid(
            mu=rng.uniform(0.05, 0.95, cells),
            nu=rng.uniform(1.0, 50.0, cells),
            log_measure=np.zeros(cells),
            weights=weights / weights.sum(),
        )
        dom = one_subdomain_system(30, 50).domains[0]
        t = eval_grid(201)
        rows = self.block_rows(monkeypatch)
        vals = subdomain_marginal_cdf(dom, 0, post, t)
        assert rows and max(rows) <= QUAD_BLOCK * t.size // 8
        np.testing.assert_allclose(vals, dense_cdf(post, 30, 50, t), rtol=0, atol=1e-14)

    @staticmethod
    def spread_grid(mu, nu):
        """Evenly weighted cells at the given (mu, nu): G w = 1, so each
        cell's window is mean -/+ sqrt(ln(1/QUAD_EPS) / (2(alpha + beta + 1)))."""
        mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
        return HyperGrid(
            mu=mu,
            nu=nu,
            log_measure=np.zeros(mu.size),
            weights=np.full(mu.size, 1.0 / mu.size),
        )

    def test_window_covers_unit_interval_without_data(self, monkeypatch):
        # no data and nu near the default grid's nu_min: h is far above 1,
        # so every cell is evaluated at every t
        nu_min = GridSpec().nu_min
        post = self.spread_grid(np.linspace(0.02, 0.98, 40), nu_min * np.linspace(1.0, 3.0, 40))
        dom = one_subdomain_system(0, 0).domains[0]
        t = eval_grid(201)
        rows = self.block_rows(monkeypatch)
        vals = subdomain_marginal_cdf(dom, 0, post, t)
        assert sum(rows) == post.mu.size * t.size
        np.testing.assert_allclose(vals, dense_cdf(post, 0, 0, t), rtol=0, atol=1e-15 + 1e-14)

    @pytest.mark.parametrize("correct", [0, 5000], ids=["all-wrong", "all-right"])
    def test_window_at_extreme_means(self, monkeypatch, correct):
        # C = 0 or C = N at N = 5000 puts every mean within 0.01 of 0 or 1
        post = self.spread_grid(np.linspace(0.01, 0.99, 50), np.geomspace(1e-5, 150.0, 50))
        dom = one_subdomain_system(correct, 5000).domains[0]
        t = eval_grid(201)
        rows = self.block_rows(monkeypatch)
        vals = subdomain_marginal_cdf(dom, 0, post, t)
        assert sum(rows) < post.mu.size * t.size // 4
        np.testing.assert_allclose(vals, dense_cdf(post, correct, 5000, t), rtol=0, atol=1e-15 + 1e-14)

    def test_t_on_window_edges(self, monkeypatch):
        # grid points placed exactly on each cell's mean -/+ h
        post = self.spread_grid([0.3, 0.5, 0.8], [5.0, 40.0, 120.0])
        dom = one_subdomain_system(700, 1000).domains[0]
        alpha, beta = dense_shapes(post, 700, 1000)
        h = np.sqrt(math.log(1.0 / QUAD_EPS) / (2.0 * (alpha + beta + 1.0)))
        mean = alpha / (alpha + beta)
        edges = np.concatenate([mean - h, mean + h])
        t = np.unique(np.concatenate([eval_grid(101), edges]))
        assert np.all(np.isin(edges, t))
        rows = self.block_rows(monkeypatch)
        vals = subdomain_marginal_cdf(dom, 0, post, t)
        assert sum(rows) < post.mu.size * t.size
        np.testing.assert_allclose(vals, dense_cdf(post, 700, 1000, t), rtol=0, atol=1e-15 + 1e-14)

    def test_error_against_full_grid_within_quad_eps(self):
        # MBPP counts on the default grid at the box corner where dropping
        # the lightest cells' mass erred most (2.2e-11)
        dom = one_subdomain_system(113, 257).domains[0]
        post = hyper_posterior(dom, HyperConfig(1, 12, 25, 1), build_grid(GridSpec()))
        t = eval_grid(201)
        vals = subdomain_marginal_cdf(dom, 0, post, t)
        assert np.max(np.abs(vals - dense_cdf(post, 113, 257, t))) <= QUAD_EPS

    def test_negligible_cell_is_a_step_at_its_mean(self, monkeypatch):
        # the light cell has G w <= QUAD_EPS: no evaluation, and its whole
        # weight counts from its mean on, below the heavy cell's window
        post = self.spread_grid([0.5, 0.05], [5.0, 5000.0])
        post.weights = np.array([1.0 - QUAD_EPS / 2, QUAD_EPS / 2])
        dom = one_subdomain_system(700, 1000).domains[0]
        alpha, beta = dense_shapes(post, 700, 1000)
        light_mean = alpha[1] / (alpha[1] + beta[1])  # 0.158; the heavy window starts at 0.58
        evaluated = []

        def spy(t, a, b):
            evaluated.append(a)
            return beta_cdf(t, a, b)

        monkeypatch.setattr(inference, "beta_cdf", spy)
        t = eval_grid(101)
        vals = subdomain_marginal_cdf(dom, 0, post, t)
        assert evaluated and not np.any(np.concatenate(evaluated) == alpha[1])
        assert np.all(vals[t < light_mean] == 0.0)
        np.testing.assert_array_equal(vals[(t >= light_mean) & (t < 0.5)], QUAD_EPS / 2)
        assert vals[-1] == pytest.approx(1.0, abs=1e-15)

    def test_unsorted_t_rejected(self):
        dom = one_subdomain_system().domains[0]
        post = hyper_posterior(dom, HyperConfig(2, 2, 2, 2), build_grid(POINT_GRID))
        with pytest.raises(ValueError):
            subdomain_marginal_cdf(dom, 0, post, np.array([0.5, 0.2]))
        with pytest.raises(ValueError):
            subdomain_marginal_cdf(dom, 0, post, np.array([0.5, 1.5]))

    def test_peak_bounded_by_block_not_kept_cells(self, monkeypatch):
        # two trials leave the posterior close to the diffuse prior, so most
        # of the 8000 cells are evaluated: one (evaluated, T) matrix would
        # take about 11 MB, a block 0.4 MB
        dom = one_subdomain_system(1, 2).domains[0]
        post = hyper_posterior(dom, HyperConfig(1, 1, 1, 1), build_grid(GridSpec(n_mu=100, n_nu=80)))
        t = eval_grid(201)
        rows = self.block_rows(monkeypatch)
        tracemalloc.start()
        try:
            subdomain_marginal_cdf(dom, 0, post, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(rows) > 20 * QUAD_BLOCK
        # the block in flight, betainc's temporaries and the per-cell arrays
        assert peak < 3 * QUAD_BLOCK * t.size * 8


class TestSampleDomain:
    def test_single_subdomain_identity(self):
        dom = one_subdomain_system().domains[0]
        grid = build_grid(POINT_GRID)
        post = hyper_posterior(dom, HyperConfig(2, 2, 2, 2), grid)
        sl = sample_domain(dom, post, 500, RngState(5))
        np.testing.assert_array_equal(sl.p, sl.theta[:, 0])

    def test_convex_combination(self):
        dom = DomainSpec(
            subdomains=(SubdomainData(1, 2), SubdomainData(1, 2)),
            op_weights=(0.5, 0.5),
            box=default_box(),
        )
        grid = build_grid(POINT_GRID)
        post = hyper_posterior(dom, HyperConfig(2, 2, 2, 2), grid)
        sl = sample_domain(dom, post, 2000, RngState(6))
        np.testing.assert_allclose(sl.p, 0.5 * sl.theta[:, 0] + 0.5 * sl.theta[:, 1])
        assert np.all(sl.p <= sl.theta.max(axis=1) + 1e-15)
        assert np.all(sl.p >= sl.theta.min(axis=1) - 1e-15)

    def test_dkw_bound_against_conjugate(self):
        # degenerate grid: p samples are Beta(4,8); DKW at S=1e4, 99%
        dom = one_subdomain_system().domains[0]
        grid = build_grid(POINT_GRID)
        post = hyper_posterior(dom, HyperConfig(2, 2, 2, 2), grid)
        s = 10_000
        bound = math.sqrt(math.log(2 / 0.01) / (2 * s))
        failures = 0
        for seed in range(5):
            sl = sample_domain(dom, post, s, RngState(seed))
            t = eval_grid(201)
            emp = empirical_cdf(sl.p, t)
            if np.max(np.abs(emp - beta_cdf(t, 4.0, 8.0))) > bound:
                failures += 1
        assert failures <= 1

    def test_permutation_equivariance(self):
        # permuting subdomains together with their weights leaves the law of
        # the aggregate unchanged: the two empirical CDFs lie within twice
        # the DKW half-width at confidence 1 - 1e-6 of each other
        sub_a, sub_b = SubdomainData(30, 50, "a"), SubdomainData(10, 40, "b")
        box = default_box()
        dom = DomainSpec((sub_a, sub_b), (0.3, 0.7), box)
        dom_perm = DomainSpec((sub_b, sub_a), (0.7, 0.3), box)
        grid = build_grid(GridSpec(n_mu=10, n_nu=8))
        h = HyperConfig(2, 3, 2, 2)
        post = hyper_posterior(dom, h, grid)
        post_perm = hyper_posterior(dom_perm, h, grid)
        s = 4000
        sl = sample_domain(dom, post, s, RngState(11))
        sl_perm = sample_domain(dom_perm, post_perm, s, RngState(12))
        t = eval_grid(201)
        gap = np.max(np.abs(empirical_cdf(sl.p, t) - empirical_cdf(sl_perm.p, t)))
        assert gap <= 2 * math.sqrt(math.log(2 / 1e-6) / (2 * s))

    def test_data_dominance(self):
        # more successes strictly raise the posterior mean of theta
        grid = build_grid(GridSpec(n_mu=20, n_nu=10))
        h = HyperConfig(2, 2, 2, 2)
        s = 10_000
        means = []
        for c in (40, 45):
            dom = one_subdomain_system(c, 100).domains[0]
            post = hyper_posterior(dom, h, grid)
            sl = sample_domain(dom, post, s, RngState(21))
            means.append(sl.theta[:, 0].mean())
        se = 1.0 / math.sqrt(12 * s)  # crude bound on the SE of a [0,1] mean
        assert means[1] - means[0] > 3 * se


class TestEmpiricalCdf:
    def test_single_sample(self):
        np.testing.assert_allclose(
            empirical_cdf(np.array([0.5]), np.array([0.0, 0.5, 1.0])), [0, 1, 1]
        )

    def test_two_samples(self):
        assert empirical_cdf(np.array([0.25, 0.75]), np.array([0.5]))[0] == 0.5

    def test_matches_naive_counting(self):
        rng = RngState(31)
        samples = rng.gen.random(500)
        t = eval_grid(41)
        fast = empirical_cdf(samples, t)
        naive = np.array([(samples <= tk).sum() / samples.size for tk in t])
        np.testing.assert_array_equal(fast, naive)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf(np.array([]), eval_grid(5))


class TestPairings:
    def test_full_product(self):
        pairs = generate_pairings([3, 3], cap=512, seed=0)
        assert len(pairs) == 9
        assert len(set(pairs)) == 9

    def test_capped_sampling(self):
        pairs = generate_pairings([160, 160], cap=512, seed=7)
        assert len(pairs) == 512
        assert len(set(pairs)) == 512
        assert all(0 <= i < 160 and 0 <= k < 160 for i, k in pairs)

    def test_capped_sampling_beyond_int64(self):
        # 160**9 ~ 6.9e19 tuples: more than a flat int64 index can address
        pairs = generate_pairings([160] * 9, cap=512, seed=7)
        assert len(pairs) == 512
        assert len(set(pairs)) == 512
        assert all(len(p) == 9 and all(0 <= k < 160 for k in p) for p in pairs)

    def test_single_domain(self):
        pairs = generate_pairings([4], cap=512, seed=0)
        assert pairs == [(0,), (1,), (2,), (3,)]

    def test_deterministic(self):
        assert generate_pairings([100, 100], 64, seed=5) == generate_pairings(
            [100, 100], 64, seed=5
        )


class TestSampleSystem:
    def test_single_domain_identity(self):
        sys_ = one_subdomain_system()
        grid = build_grid(POINT_GRID)
        h = HyperConfig(2, 2, 2, 2)
        post = hyper_posterior(sys_.domains[0], h, grid)
        sl = sample_domain(sys_.domains[0], post, 300, RngState(2))
        p_l = sample_system(sys_, (0,), [[sl.p]])
        np.testing.assert_array_equal(p_l, sl.p)

    def test_constant_mixture(self):
        sys_ = SystemSpec(
            domains=(
                one_subdomain_system().domains[0],
                one_subdomain_system().domains[0],
            ),
            domain_weights=(0.5, 0.5),
        )
        p_l = sample_system(sys_, (0, 0), [[np.full(10, 0.4)], [np.full(10, 0.6)]])
        np.testing.assert_allclose(p_l, 0.5)

    def test_mismatched_sizes_rejected(self):
        sys_ = SystemSpec(
            domains=(
                one_subdomain_system().domains[0],
                one_subdomain_system().domains[0],
            ),
            domain_weights=(0.5, 0.5),
        )
        with pytest.raises(ValueError):
            sample_system(sys_, (0, 0), [[np.zeros(10)], [np.zeros(20)]])


class TestEnvelope:
    def test_single_member(self):
        t = eval_grid(11)
        env = envelope([t], t)
        np.testing.assert_array_equal(env.lower, env.upper)

    def test_ordered_members(self):
        t = eval_grid(11)
        f, g = t ** 2, np.sqrt(t)
        env = envelope([f, g], t)
        np.testing.assert_array_equal(env.lower, f)
        np.testing.assert_array_equal(env.upper, g)

    @given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_superset_widens(self, n_total, n_subset, seed):
        rng = RngState(seed)
        t = eval_grid(21)
        members = [np.sort(rng.gen.random(21)) for _ in range(n_total)]
        n_subset = min(n_subset, n_total)
        sub_env = envelope(members[:n_subset], t)
        full_env = envelope(members, t)
        assert np.all(full_env.lower <= sub_env.lower + 1e-15)
        assert np.all(full_env.upper >= sub_env.upper - 1e-15)


class TestReliabilityTransforms:
    def test_expected_reliability_examples(self):
        assert expected_reliability(np.ones(10), [50])[0] == 1.0
        assert expected_reliability(np.array([0.5]), [2])[0] == 0.25

    def test_expected_reliability_beta_moment(self):
        draws = RngState(17).gen.beta(5, 9, size=100_000)
        assert expected_reliability(draws, [3])[0] == pytest.approx(0.0625, abs=0.005)

    def test_horizon_monotonicity(self):
        draws = RngState(19).gen.random(1000)
        vals = expected_reliability(draws, (1, 2, 5, 10, 100))
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestInfer:
    def degenerate_report(self, **kwargs):
        sys_ = one_subdomain_system(box=point_box())
        mc = McSpec(samples_per_config=400, configs_per_domain=3, master_seed=99, t_grid_size=101)
        return infer(sys_, POINT_GRID, mc, ReliabilityQuery((1, 2, 5)), **kwargs)

    def test_degeneracy_chain(self):
        rep = self.degenerate_report()
        t = rep.t
        exact = beta_cdf(t, 4.0, 8.0)
        sub = rep.bands[("subdomain", "only")]
        np.testing.assert_allclose(sub.lower, exact, atol=1e-9)
        np.testing.assert_allclose(sub.upper, exact, atol=1e-9)
        # sampled domain/system envelopes collapse to the same CDF up to MC noise
        assert np.max(np.abs(rep.bands[("system", "system")].lower - exact)) < 0.06

    def test_every_cdf_monotone_ending_at_one(self):
        rep = self.degenerate_report()
        for env in rep.bands.values():
            for curve in (env.lower, env.upper):
                assert np.all(np.diff(curve) >= -1e-12)
                assert curve[-1] == pytest.approx(1.0, abs=1e-12)
            assert np.all(env.lower <= env.upper + 1e-15)

    def test_credal_point_inside_box(self):
        # a degenerate box at a corner of the original box yields an envelope
        # inside the original one (the corner config is among the original 16)
        sys_full = one_subdomain_system(c=30, n=40)
        mc = McSpec(samples_per_config=500, configs_per_domain=16, master_seed=7, t_grid_size=101)
        grid = GridSpec(n_mu=10, n_nu=8)
        rep_full = infer(sys_full, grid, mc, ReliabilityQuery((1,)))
        corner_box = HyperBox((1.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
        rep_point = infer(
            one_subdomain_system(c=30, n=40, box=corner_box),
            grid,
            mc,
            ReliabilityQuery((1,)),
        )
        sub_full = rep_full.bands[("subdomain", "only")]
        sub_point = rep_point.bands[("subdomain", "only")]
        assert np.all(sub_point.lower >= sub_full.lower - 1e-12)
        assert np.all(sub_point.upper <= sub_full.upper + 1e-12)

    def test_thread_count_invariance(self):
        sys_ = SystemSpec(
            domains=(
                DomainSpec(
                    (SubdomainData(8, 20), SubdomainData(15, 25)),
                    (0.4, 0.6),
                    default_box(),
                ),
            ) * 2,
            domain_weights=(0.5, 0.5),
        )
        mc = McSpec(samples_per_config=200, configs_per_domain=20, master_seed=13, t_grid_size=51)
        grid = GridSpec(n_mu=8, n_nu=6)
        rep1 = infer(sys_, grid, mc, ReliabilityQuery((1, 3)), threads=1)
        rep3 = infer(sys_, grid, mc, ReliabilityQuery((1, 3)), threads=3)
        sys1, sys3 = rep1.bands[("system", "system")], rep3.bands[("system", "system")]
        np.testing.assert_array_equal(sys1.lower, sys3.lower)
        np.testing.assert_array_equal(sys1.upper, sys3.upper)
        for key in rep1.bands:
            np.testing.assert_array_equal(
                rep1.bands[key].expected_lower, rep3.bands[key].expected_lower
            )

    def test_system_sample_arrays_matches_infer_seeds(self):
        sys_ = one_subdomain_system(c=30, n=40)
        mc = McSpec(samples_per_config=300, configs_per_domain=4, master_seed=55, t_grid_size=51)
        grid = GridSpec(n_mu=8, n_nu=6)
        arrays = system_sample_arrays(sys_, grid, mc)
        rep = infer(sys_, grid, mc, ReliabilityQuery((1,)))
        # both entry points share the sample stage: E[R(1)] bounds are the
        # exact min/max of the per-config sample means
        means = [a.mean() for a in arrays]
        curve = rep.bands[("system", "system")]
        assert curve.expected_lower[0] == min(means)
        assert curve.expected_upper[0] == max(means)

    def test_system_draws_not_retained(self):
        # 64 x 64 = 4096 pairings of 2000 draws: holding every p_L array at
        # once would take 4096 * 2000 * 8 bytes = 65.5 MB
        dom = one_subdomain_system(c=30, n=40).domains[0]
        dom2 = dataclasses.replace(
            dom, label="d2", subdomains=(dataclasses.replace(dom.subdomains[0], label="only2"),)
        )
        sys_ = SystemSpec(domains=(dom, dom2), domain_weights=(0.5, 0.5))
        mc = McSpec(
            samples_per_config=2000,
            configs_per_domain=64,
            pairing_cap=4096,
            master_seed=3,
            t_grid_size=11,
        )
        tracemalloc.start()
        try:
            infer(sys_, GridSpec(n_mu=4, n_nu=4), mc, ReliabilityQuery((1,)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4096 * 2000 * 8

    def test_domain_theta_not_retained(self):
        # 64 configs x 2000 draws x 8 subdomains: holding every config's
        # subdomain draws at once would take 64 * 2000 * 8 * 8 bytes = 8.2 MB
        k, s, n_sub = 64, 2000, 8
        dom = DomainSpec(
            subdomains=tuple(SubdomainData(20 + j, 40) for j in range(n_sub)),
            op_weights=(1.0 / n_sub,) * n_sub,
            box=default_box(),
            label="d1",
        )
        sys_ = SystemSpec(domains=(dom,), domain_weights=(1.0,))
        mc = McSpec(samples_per_config=s, configs_per_domain=k, master_seed=3, t_grid_size=11)
        tracemalloc.start()
        try:
            infer(sys_, GridSpec(n_mu=4, n_nu=4), mc, ReliabilityQuery((1,)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < k * s * n_sub * 8 / 2
