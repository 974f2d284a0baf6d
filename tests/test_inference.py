"""Engine tests: configs, quadrature CDFs, sampling, pairings, envelopes,
and the reliability transforms."""

import dataclasses
import itertools
import math
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sp

import hipllm.inference as inference
from hipllm.baselines import BetaPosterior, bb_system_samples, bb_update
from hipllm.config import parse_config
from hipllm.hyperposterior import (
    HyperGrid,
    build_grid,
    hyper_posterior,
    log_marginal_likelihood_grid,
)
from hipllm.inference import (
    CONFIG_BLOCK,
    QUAD_BLOCK,
    QUAD_EPS,
    empirical_cdf,
    envelope,
    eval_grid,
    expected_reliability,
    generate_configs,
    generate_pairings,
    infer,
    profile_samples,
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


def dense_shapes(grid, correct, total):
    """Conditional Beta shapes of every grid cell."""
    return correct + grid.mu * grid.nu, total - correct + (1.0 - grid.mu) * grid.nu


def dense_cdf(grid, weights, correct, total, t):
    """The quadrature mixture as one full (cells, T) mat-vec."""
    alpha, beta = dense_shapes(grid, correct, total)
    return weights @ beta_cdf(t[None, :], alpha[:, None], beta[:, None])


def posterior(dom, h, grid):
    """One config's (G,) posterior weights on the grid."""
    return hyper_posterior([h], grid, log_marginal_likelihood_grid(dom, grid)).weights[0]


GPT4O_CONFIG = Path(__file__).parent.parent / "configs" / "gpt4o_mini.json"

# single-node grid whose unique cell sits at (mu=0.5, nu=2)
POINT_GRID = GridSpec(n_mu=1, n_nu=1, nu_min=1.0, nu_max=4.0)


# probabilities at the edges of the reliability kernel: zero, the smallest
# subnormal, the smallest normal, the largest below one, and one
EDGE_P = (0.0, 5e-324, 2.0**-1022, 1.0 - 2.0**-53, 1.0)


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
            tuple(h) for h in configs.tolist()
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
        np.testing.assert_array_equal(configs, np.full((20, 4), 2.0))

    def test_membership_at_k160(self):
        box = default_box()
        configs = generate_configs(box, 160, seed=9)
        assert configs.shape == (160, 4)
        lows, highs = np.array(box.ranges()).T
        assert np.all((lows <= configs) & (configs <= highs))

    def test_deterministic(self):
        a = generate_configs(default_box(), 50, seed=4)
        b = generate_configs(default_box(), 50, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_gpt4o_matches_object_construction(self):
        # both gpt4o domains' K = 160 configs equal the construction they
        # had as one object per config: the corners as product tuples, then
        # one config per row of the same seeded uniform fill
        cfg = parse_config(GPT4O_CONFIG)
        master = RngState(cfg.mc.master_seed)
        for i, dom in enumerate(cfg.system.domains):
            seed, ranges = master.substream(1, i).seed, dom.box.ranges()
            corners = [(a, b, c, d) for a, b, c, d in itertools.product(*[(lo, hi) for lo, hi in ranges])]
            lows = np.array([r[0] for r in ranges])
            highs = np.array([r[1] for r in ranges])
            fill = RngState(seed).gen.uniform(lows, highs, size=(160 - len(corners), 4))
            objects = corners + [tuple(row) for row in fill]
            configs = generate_configs(dom.box, 160, seed)
            assert configs.dtype == np.float64 and configs.shape == (160, 4)
            np.testing.assert_array_equal(configs, np.array(objects, dtype=float))
            np.testing.assert_array_equal(configs[[0, 15]], [lows, highs])


class TestSubdomainMarginalCdf:
    def test_single_node_conjugacy(self):
        # one cell at (0.5, 2): mixture collapses to I_t(C+1, N-C+1)
        dom = one_subdomain_system().domains[0]
        grid = build_grid(POINT_GRID)
        w = posterior(dom, (2, 2, 2, 2), grid)
        t = eval_grid(201)
        vals = subdomain_marginal_cdf(dom, 0, grid, t, w[None])[0]
        np.testing.assert_allclose(vals, beta_cdf(t, 4.0, 8.0), atol=1e-9)

    def test_prior_mixture_vs_direct_sampling(self):
        # no data: mixture of prior-predictive Betas; cross-check at t=0.5
        dom = DomainSpec(
            subdomains=(SubdomainData(0, 0),), op_weights=(1.0,), box=default_box()
        )
        grid = build_grid(GridSpec(n_mu=10, n_nu=8, nu_min=0.5, nu_max=20.0))
        h = (2, 2, 2, 2)
        w = posterior(dom, h, grid)
        t = np.array([0.5])
        quad = subdomain_marginal_cdf(dom, 0, grid, t, w[None])[0, 0]
        rng = RngState(404)
        s = 100_000
        sl = sample_domain(dom, grid, w, s, rng)
        mc = np.mean(sl.theta[:, 0] <= 0.5)
        assert quad == pytest.approx(mc, abs=0.01)

    def test_terminal_value_is_one(self):
        dom = one_subdomain_system(90, 100).domains[0]
        grid = build_grid(GridSpec(n_mu=20, n_nu=10))
        w = posterior(dom, (3, 2, 4, 4), grid)
        t = eval_grid(51)
        vals = subdomain_marginal_cdf(dom, 0, grid, t, w[None])[0]
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
        weights /= weights.sum()
        grid = HyperGrid(
            mu=rng.uniform(0.05, 0.95, cells),
            nu=rng.uniform(1.0, 50.0, cells),
            log_measure=np.zeros(cells),
        )
        dom = one_subdomain_system(30, 50).domains[0]
        t = eval_grid(201)
        rows = self.block_rows(monkeypatch)
        vals = subdomain_marginal_cdf(dom, 0, grid, t, weights[None])[0]
        assert rows and max(rows) <= QUAD_BLOCK * t.size // 8
        np.testing.assert_allclose(vals, dense_cdf(grid, weights, 30, 50, t), rtol=0, atol=1e-14)

    @staticmethod
    def spread_grid(mu, nu):
        """Cells at the given (mu, nu) and their even weights: G w = 1, so each
        cell's window is mean -/+ sqrt(ln(1/QUAD_EPS) / (2(alpha + beta + 1)))."""
        mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
        return HyperGrid(mu=mu, nu=nu, log_measure=np.zeros(mu.size)), np.full(mu.size, 1.0 / mu.size)

    def test_window_covers_unit_interval_without_data(self, monkeypatch):
        # no data and nu near the default grid's nu_min: h is far above 1,
        # so every cell is evaluated at every t
        nu_min = GridSpec().nu_min
        grid, w = self.spread_grid(np.linspace(0.02, 0.98, 40), nu_min * np.linspace(1.0, 3.0, 40))
        dom = one_subdomain_system(0, 0).domains[0]
        t = eval_grid(201)
        rows = self.block_rows(monkeypatch)
        vals = subdomain_marginal_cdf(dom, 0, grid, t, w[None])[0]
        assert sum(rows) == grid.mu.size * t.size
        np.testing.assert_allclose(vals, dense_cdf(grid, w, 0, 0, t), rtol=0, atol=1e-15 + 1e-14)

    @pytest.mark.parametrize("correct", [0, 5000], ids=["all-wrong", "all-right"])
    def test_window_at_extreme_means(self, monkeypatch, correct):
        # C = 0 or C = N at N = 5000 puts every mean within 0.01 of 0 or 1
        grid, w = self.spread_grid(np.linspace(0.01, 0.99, 50), np.geomspace(1e-5, 150.0, 50))
        dom = one_subdomain_system(correct, 5000).domains[0]
        t = eval_grid(201)
        rows = self.block_rows(monkeypatch)
        vals = subdomain_marginal_cdf(dom, 0, grid, t, w[None])[0]
        assert sum(rows) < grid.mu.size * t.size // 4
        np.testing.assert_allclose(vals, dense_cdf(grid, w, correct, 5000, t), rtol=0, atol=1e-15 + 1e-14)

    def test_t_on_window_edges(self, monkeypatch):
        # grid points placed exactly on each cell's mean -/+ h
        grid, w = self.spread_grid([0.3, 0.5, 0.8], [5.0, 40.0, 120.0])
        dom = one_subdomain_system(700, 1000).domains[0]
        alpha, beta = dense_shapes(grid, 700, 1000)
        h = np.sqrt(math.log(1.0 / QUAD_EPS) / (2.0 * (alpha + beta + 1.0)))
        mean = alpha / (alpha + beta)
        edges = np.concatenate([mean - h, mean + h])
        t = np.unique(np.concatenate([eval_grid(101), edges]))
        assert np.all(np.isin(edges, t))
        rows = self.block_rows(monkeypatch)
        vals = subdomain_marginal_cdf(dom, 0, grid, t, w[None])[0]
        assert sum(rows) < grid.mu.size * t.size
        np.testing.assert_allclose(vals, dense_cdf(grid, w, 700, 1000, t), rtol=0, atol=1e-15 + 1e-14)

    def test_error_against_full_grid_within_quad_eps(self):
        # MBPP counts on the default grid at the box corner where dropping
        # the lightest cells' mass erred most (2.2e-11)
        dom = one_subdomain_system(113, 257).domains[0]
        grid = build_grid(GridSpec())
        w = posterior(dom, (1, 12, 25, 1), grid)
        t = eval_grid(201)
        vals = subdomain_marginal_cdf(dom, 0, grid, t, w[None])[0]
        assert np.max(np.abs(vals - dense_cdf(grid, w, 113, 257, t))) <= QUAD_EPS

    def test_negligible_cell_is_a_step_at_its_mean(self, monkeypatch):
        # the light cell has G w <= QUAD_EPS: no evaluation, and its whole
        # weight counts from its mean on, below the heavy cell's window
        grid, _ = self.spread_grid([0.5, 0.05], [5.0, 5000.0])
        w = np.array([1.0 - QUAD_EPS / 2, QUAD_EPS / 2])
        dom = one_subdomain_system(700, 1000).domains[0]
        alpha, beta = dense_shapes(grid, 700, 1000)
        light_mean = alpha[1] / (alpha[1] + beta[1])  # 0.158; the heavy window starts at 0.58
        evaluated = []

        def spy(t, a, b):
            evaluated.append(a)
            return beta_cdf(t, a, b)

        monkeypatch.setattr(inference, "beta_cdf", spy)
        t = eval_grid(101)
        vals = subdomain_marginal_cdf(dom, 0, grid, t, w[None])[0]
        assert evaluated and not np.any(np.concatenate(evaluated) == alpha[1])
        assert np.all(vals[t < light_mean] == 0.0)
        np.testing.assert_array_equal(vals[(t >= light_mean) & (t < 0.5)], QUAD_EPS / 2)
        assert vals[-1] == pytest.approx(1.0, abs=1e-15)

    def test_grid_term_at_default_grid(self):
        # MBPP in its gpt4o domain: the default 50x40 grid mixture against
        # the 100x80 one over the 16 corner configs, 5.4e-4 when measured
        dom = DomainSpec(
            (SubdomainData(113, 257, "MBPP"), SubdomainData(490, 1000, "DS-1000")),
            (0.204, 0.796),
            default_box(),
        )
        t = eval_grid(201)
        grids = [build_grid(GridSpec()), build_grid(GridSpec(n_mu=100, n_nu=80))]
        sup = 0.0
        for h in generate_configs(dom.box, 16, 0):
            f, g = (subdomain_marginal_cdf(dom, 0, grid, t, posterior(dom, h, grid)[None])[0] for grid in grids)
            sup = max(sup, np.max(np.abs(f - g)))
        assert sup <= 1e-3

    def test_unsorted_t_rejected(self):
        dom = one_subdomain_system().domains[0]
        grid = build_grid(POINT_GRID)
        w = posterior(dom, (2, 2, 2, 2), grid)
        with pytest.raises(ValueError):
            subdomain_marginal_cdf(dom, 0, grid, np.array([0.5, 0.2]), w[None])
        with pytest.raises(ValueError):
            subdomain_marginal_cdf(dom, 0, grid, np.array([0.5, 1.5]), w[None])

    def test_peak_bounded_by_block_not_kept_cells(self, monkeypatch):
        # two trials leave the posterior close to the diffuse prior, so most
        # of the 8000 cells are evaluated: one (evaluated, T) matrix would
        # take about 11 MB, a block 0.4 MB
        dom = one_subdomain_system(1, 2).domains[0]
        grid = build_grid(GridSpec(n_mu=100, n_nu=80))
        w = posterior(dom, (1, 1, 1, 1), grid)
        t = eval_grid(201)
        rows = self.block_rows(monkeypatch)
        tracemalloc.start()
        try:
            subdomain_marginal_cdf(dom, 0, grid, t, w[None])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(rows) > 20 * QUAD_BLOCK
        # the block in flight, betainc's temporaries and the per-cell arrays
        assert peak < 3 * QUAD_BLOCK * t.size * 8


def gpt4o_blocks(k=24):
    """Each gpt4o domain with its first k configs' posteriors on the default
    grid, cut into blocks of CONFIG_BLOCK: (domain, [(B, G) weights, ...])."""
    system = parse_config(GPT4O_CONFIG).system
    grid = build_grid(GridSpec())
    out = []
    for i, dom in enumerate(system.domains):
        log_lik = log_marginal_likelihood_grid(dom, grid)
        configs = generate_configs(dom.box, k, RngState(20250817).substream(1, i).seed)
        weights = hyper_posterior(configs, grid, log_lik).weights
        out.append((dom, grid, [weights[n : n + CONFIG_BLOCK] for n in range(0, k, CONFIG_BLOCK)]))
    return out


class TestConfigBlocks:
    T = eval_grid(201)

    def test_block_rows_match_single_calls(self):
        # gpt4o's 16 corners, then a partial block of 8 interior configs.
        # A single call leaves up to 1.02e-14 of a corner's BoolQ row outside
        # that config's own windows, and the block's wider union windows
        # reach the grid mixture within 1.0e-15, so each row is held to the
        # mixture and the block's band to the single calls' band.
        for dom, grid, blocks in gpt4o_blocks():
            for weights in blocks:
                for j, sub in enumerate(dom.subdomains):
                    rows = subdomain_marginal_cdf(dom, j, grid, self.T, weights)
                    assert rows.shape == (len(weights), self.T.size)
                    singles = []
                    for w, got in zip(weights, rows):
                        singles.append(subdomain_marginal_cdf(dom, j, grid, self.T, w[None])[0])
                        mixture = dense_cdf(grid, w, sub.correct, sub.total, self.T)
                        # well inside QUAD_EPS
                        assert np.max(np.abs(got - mixture)) <= 1e-14
                    # the subdomain's band over the block moves by at most 1e-14
                    for bound in (np.min, np.max):
                        assert np.max(np.abs(bound(rows, axis=0) - bound(singles, axis=0))) <= 1e-14

    def test_union_of_windows_evaluated_once(self, monkeypatch):
        # the corners of code-generation's MBPP: each (cell, t) inside the
        # widest window any corner gives the cell is evaluated exactly once
        dom, grid, blocks = gpt4o_blocks(k=CONFIG_BLOCK)[0]
        weights, sub, t = blocks[0], dom.subdomains[0], self.T
        # the chunk in flight, betainc's temporaries and the per-cell arrays
        # take about the bytes of one (QUAD_BLOCK, T) matrix, for any B
        tracemalloc.start()
        try:
            subdomain_marginal_cdf(dom, 0, grid, t, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * QUAD_BLOCK * t.size * 8
        seen, rows = [], []

        def spy(tk, a, b):
            seen.append(np.column_stack([a, b, tk]))
            rows.append(len(a))
            return beta_cdf(tk, a, b)

        monkeypatch.setattr(inference, "beta_cdf", spy)
        subdomain_marginal_cdf(dom, 0, grid, t, weights)
        alpha, beta = dense_shapes(grid, sub.correct, sub.total)
        mean = alpha / (alpha + beta)
        # each config's own window, then the union over the block
        h = np.sqrt(np.log(np.maximum(weights.shape[1] * weights / QUAD_EPS, 1.0)) / (2.0 * (alpha + beta + 1.0)))
        lo = np.searchsorted(t, mean - h).min(axis=0)
        hi = np.searchsorted(t, mean + h).max(axis=0)
        expected = np.array([(alpha[c], beta[c], t[k]) for c in range(alpha.size) for k in range(lo[c], hi[c])])
        got = np.concatenate(seen)
        assert len(got) == len(expected) > 0
        order = lambda x: x[np.lexsort(x.T[::-1])]
        np.testing.assert_array_equal(order(got), order(expected))
        assert max(rows) <= QUAD_BLOCK * t.size // 8

    def test_every_chunk_but_the_last_is_full(self, monkeypatch):
        # a chunk takes whole cells until the next one would pass QUAD_BLOCK
        # cells or QUAD_BLOCK * T // 8 evaluations; a cell holds at most T
        dom, grid, blocks = gpt4o_blocks(k=CONFIG_BLOCK)[0]
        t, chunks = self.T, []

        def spy(tk, a, b):
            chunks.append((len(np.unique(np.column_stack([a, b]), axis=0)), len(a)))
            return beta_cdf(tk, a, b)

        monkeypatch.setattr(inference, "beta_cdf", spy)
        subdomain_marginal_cdf(dom, 0, grid, t, blocks[0])
        budget = QUAD_BLOCK * t.size // 8
        assert len(chunks) > 1
        assert all(cells <= QUAD_BLOCK and evals <= budget for cells, evals in chunks)
        assert all(cells == QUAD_BLOCK or evals > budget - t.size for cells, evals in chunks[:-1])

    @pytest.mark.parametrize("n_t", [2, 3])
    def test_block_beyond_chunk_budget(self, n_t):
        # 100 rows at T <= 3, the smallest chunk budgets (QUAD_BLOCK * T // 8
        # = 64 and 96 evaluations): the chunks do not shrink with the rows
        t = eval_grid(n_t)
        for dom, grid, blocks in gpt4o_blocks(k=100):
            weights = np.concatenate(blocks)
            for j in range(len(dom.subdomains)):
                rows = subdomain_marginal_cdf(dom, j, grid, t, weights)
                assert rows.shape == (len(weights), n_t)
                for w, got in zip(weights, rows):
                    single = subdomain_marginal_cdf(dom, j, grid, t, w[None, :])
                    assert np.max(np.abs(got - single[0])) <= 1e-14

    def test_empty_t(self):
        dom, grid, blocks = gpt4o_blocks(k=4)[0]
        assert subdomain_marginal_cdf(dom, 0, grid, np.array([]), blocks[0]).shape == (4, 0)

    @pytest.mark.parametrize("k", [1, CONFIG_BLOCK, CONFIG_BLOCK + 1, 2 * CONFIG_BLOCK + 1])
    def test_partial_blocks_thread_invariant(self, k):
        sys_ = profile_system()
        mc = McSpec(samples_per_config=200, configs_per_domain=k, pairing_cap=64, master_seed=17, t_grid_size=51)
        grid, query = GridSpec(n_mu=10, n_nu=8), ReliabilityQuery((1, 5))
        rep1 = infer(sys_, grid, mc, query, threads=1)
        rep3 = infer(sys_, grid, mc, query, threads=3)
        assert rep1.bands.keys() == rep3.bands.keys()
        for key, band in rep1.bands.items():
            for a, b in zip(dataclasses.astuple(band), dataclasses.astuple(rep3.bands[key])):
                np.testing.assert_array_equal(a, b)
        # the draws are those of the sampling stage alone
        arrays = system_sample_arrays(sys_, grid, mc)
        rebuilt = envelope(
            [np.concatenate([empirical_cdf(p, rep1.t), expected_reliability(p, query.horizons)]) for p in arrays],
            rep1.t,
        )
        for a, b in zip(dataclasses.astuple(rep1.bands[("system", "system")]), dataclasses.astuple(rebuilt)):
            np.testing.assert_array_equal(a, b)


class TestSampleDomain:
    def test_single_subdomain_identity(self):
        dom = one_subdomain_system().domains[0]
        grid = build_grid(POINT_GRID)
        w = posterior(dom, (2, 2, 2, 2), grid)
        sl = sample_domain(dom, grid, w, 500, RngState(5))
        np.testing.assert_array_equal(aggregate(sl.theta, dom.op_weights), sl.theta[:, 0])

    def test_convex_combination(self):
        dom = DomainSpec(
            subdomains=(SubdomainData(1, 2), SubdomainData(1, 2)),
            op_weights=(0.5, 0.5),
            box=default_box(),
        )
        grid = build_grid(POINT_GRID)
        w = posterior(dom, (2, 2, 2, 2), grid)
        sl = sample_domain(dom, grid, w, 2000, RngState(6))
        p = aggregate(sl.theta, dom.op_weights)
        np.testing.assert_allclose(p, 0.5 * sl.theta[:, 0] + 0.5 * sl.theta[:, 1])
        assert np.all(p <= sl.theta.max(axis=1) + 1e-15)
        assert np.all(p >= sl.theta.min(axis=1) - 1e-15)

    def test_dkw_bound_against_conjugate(self):
        # degenerate grid: p samples are Beta(4,8); DKW at S=1e4, 99%
        dom = one_subdomain_system().domains[0]
        grid = build_grid(POINT_GRID)
        w = posterior(dom, (2, 2, 2, 2), grid)
        s = 10_000
        bound = math.sqrt(math.log(2 / 0.01) / (2 * s))
        failures = 0
        for seed in range(5):
            sl = sample_domain(dom, grid, w, s, RngState(seed))
            t = eval_grid(201)
            emp = empirical_cdf(aggregate(sl.theta, dom.op_weights), t)
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
        h = (2, 3, 2, 2)
        w = posterior(dom, h, grid)
        w_perm = posterior(dom_perm, h, grid)
        s = 4000
        sl = sample_domain(dom, grid, w, s, RngState(11))
        sl_perm = sample_domain(dom_perm, grid, w_perm, s, RngState(12))
        t = eval_grid(201)
        p, p_perm = aggregate(sl.theta, dom.op_weights), aggregate(sl_perm.theta, dom_perm.op_weights)
        gap = np.max(np.abs(empirical_cdf(p, t) - empirical_cdf(p_perm, t)))
        assert gap <= 2 * math.sqrt(math.log(2 / 1e-6) / (2 * s))

    def test_data_dominance(self):
        # more successes strictly raise the posterior mean of theta
        grid = build_grid(GridSpec(n_mu=20, n_nu=10))
        h = (2, 2, 2, 2)
        s = 10_000
        means = []
        for c in (40, 45):
            dom = one_subdomain_system(c, 100).domains[0]
            w = posterior(dom, h, grid)
            sl = sample_domain(dom, grid, w, s, RngState(21))
            means.append(sl.theta[:, 0].mean())
        se = 1.0 / math.sqrt(12 * s)  # crude bound on the SE of a [0,1] mean
        assert means[1] - means[0] > 3 * se


class TestWorkUnitIdentity:
    """A work unit's posterior equals its textbook formula, the prior from
    fresh node logs, within rounding: the block sums eta . T in another
    order.  Its draws equal, bit for bit, the formulas they are computed
    from: the cells by binary search, the Beta parameters from the gathered
    mu and nu."""

    @staticmethod
    def reference_posterior(h, grid, log_lik):
        (a, b, c, d), mu, nu = h, grid.mu, grid.nu
        log_beta_part = (
            (a - 1.0) * np.log(mu) + (b - 1.0) * np.log1p(-mu) - sp.betaln(a, b)
        )
        log_gamma_part = (
            c * np.log(d) - sp.gammaln(c) + (c - 1.0) * np.log(nu) - d * nu
        )
        log_w = log_lik + (log_beta_part + log_gamma_part) + grid.log_measure
        m = np.max(log_w)
        w = np.exp(log_w - m)
        z = w.sum()
        return w / z, float(m + np.log(z))

    @staticmethod
    def reference_draws(domain, grid, weights, s, rng):
        cum = np.cumsum(weights)
        cum[-1] = 1.0
        cells = np.searchsorted(cum, rng.substream(0).gen.random(size=s), side="right")
        mu, nu = grid.mu[cells], grid.nu[cells]
        theta = np.empty((s, len(domain.subdomains)))
        for j, sub in enumerate(domain.subdomains):
            alpha = sub.correct + mu * nu
            beta = sub.total - sub.correct + (1.0 - mu) * nu
            theta[:, j] = rng.substream(j + 1).gen.beta(alpha, beta)
        return theta, np.minimum(theta @ np.asarray(domain.op_weights), 1.0)

    def test_gpt4o_corners_and_interior(self):
        # both gpt4o domains: a block of their 16 corner configs, a partial
        # block of 8 interior ones and a block of one config; every row
        # equals its config's own formula within 1e-14 in each weight and
        # 1e-13 in log_evidence (1.0e-15 and 7.1e-15 measured)
        system = parse_config(GPT4O_CONFIG).system
        grid = build_grid(GridSpec())
        master = RngState(20250817)
        for i, dom in enumerate(system.domains):
            log_lik = log_marginal_likelihood_grid(dom, grid)
            configs = generate_configs(dom.box, 24, master.substream(1, i).seed)
            for first, last in [(0, CONFIG_BLOCK), (CONFIG_BLOCK, 24), (23, 24)]:
                post = hyper_posterior(configs[first:last], grid, log_lik)
                assert post.weights.shape == (last - first, grid.size)
                assert post.log_evidence.shape == (last - first,)
                for b, k in enumerate(range(first, last)):
                    weights, log_evidence = self.reference_posterior(configs[k], grid, log_lik)
                    np.testing.assert_allclose(post.weights[b], weights, rtol=0, atol=1e-14)
                    assert abs(post.log_evidence[b] - log_evidence) <= 1e-13
                    rng = master.substream(2, i, k)
                    draws = sample_domain(dom, grid, post.weights[b], 3000, rng)
                    theta, p = self.reference_draws(dom, grid, post.weights[b], 3000, rng)
                    np.testing.assert_array_equal(draws.theta, theta)
                    np.testing.assert_array_equal(aggregate(draws.theta, dom.op_weights), p)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("k", [4, 16])
    def test_generators_built_per_domain_stage(self, monkeypatch, k, threads):
        # each unit draws cells from one substream and each subdomain's Beta
        # accuracies from one more; its own state only derives substreams
        dom = parse_config(GPT4O_CONFIG).system.domains[0]
        grid = build_grid(GridSpec(n_mu=10, n_nu=8))
        mc = McSpec(samples_per_config=50, configs_per_domain=k)
        master = RngState(mc.master_seed)
        built = []
        real = np.random.PCG64

        def counting(seed=None):
            built.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "PCG64", counting)
        inference._domain(dom, 0, grid, mc, master, threads, lambda weights, draws: [draws(b) for b in range(len(weights))])
        assert len(built) == k * (len(dom.subdomains) + 1)


class TestLiveDraws:
    """A work unit lets each config's draws go before it asks for the
    next config's, so one config's draws are alive at a time."""

    MC = McSpec(samples_per_config=200, configs_per_domain=CONFIG_BLOCK + 3, pairing_cap=16, master_seed=5, t_grid_size=21)

    @pytest.fixture
    def live(self, monkeypatch):
        real, count = inference.sample_domain, {"now": 0, "max": 0}

        def release():
            count["now"] -= 1

        def spy(*args):
            draws = real(*args)
            count["now"] += 1
            count["max"] = max(count["max"], count["now"])
            weakref.finalize(draws, release)
            return draws

        monkeypatch.setattr(inference, "sample_domain", spy)
        return count

    def test_infer(self, live):
        infer(profile_system(), GridSpec(n_mu=8, n_nu=6), self.MC, ReliabilityQuery((1, 5)), threads=1)
        assert live == {"now": 0, "max": 1}

    def test_system_sample_arrays(self, live):
        system_sample_arrays(profile_system(), GridSpec(n_mu=8, n_nu=6), self.MC, threads=1)
        assert live == {"now": 0, "max": 1}


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
        h = (2, 2, 2, 2)
        w = posterior(sys_.domains[0], h, grid)
        sl = sample_domain(sys_.domains[0], grid, w, 300, RngState(2))
        p = aggregate(sl.theta, sys_.domains[0].op_weights)
        p_l = sample_system(sys_, (0,), [[p]])
        np.testing.assert_array_equal(p_l, p)

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


def flattened_bb_system_samples(system, priors, s, seed):
    """`bb_system_samples` as one flattened loop over W_i * Omega_ij,
    unclipped: the reference its per-domain `aggregate` form must match."""
    rng = RngState(seed)
    p_l = np.zeros(s)
    k = 0
    for w_i, domain in zip(system.domain_weights, system.domains):
        for omega, sub in zip(domain.op_weights, domain.subdomains):
            post = bb_update(sub.correct, sub.total, priors[k].alpha, priors[k].beta)
            p_l += w_i * omega * rng.gen.beta(post.alpha, post.beta, size=s)
            k += 1
    return p_l


class TestAggregate:
    def test_clipped_where_weights_round_above_one(self):
        # the two weights sum to 1 + 2**-52 exactly, in either order
        w = (0.5, 0.5 + 2.0**-52)
        x = np.ones((5, 2))
        assert np.all(x @ np.asarray(w) > 1.0)
        out = aggregate(x, w)
        assert out.shape == (5,)
        assert np.all(out == 1.0)

    def test_within_convex_hull_of_each_row(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 7):
            x = rng.random((1000, n))
            w = rng.random(n)
            p = aggregate(x, w / w.sum())
            assert np.all(p >= x.min(axis=1) - 1e-15)
            assert np.all(p <= x.max(axis=1) + 1e-15)

    def test_vector_gives_dot_scalar(self):
        theta, op = (0.75, 0.65, 0.58, 0.45), (0.30, 0.10, 0.20, 0.40)
        p = aggregate(theta, op)
        assert np.ndim(p) == 0
        assert p == np.dot(theta, op)

    def test_sample_system_matches_python_sum(self):
        system = parse_config(GPT4O_CONFIG).system
        rng = np.random.default_rng(5)
        domain_p = [[rng.random(3000), rng.random(3000)] for _ in system.domains]
        w = np.asarray(system.domain_weights)
        for pairing in itertools.product(range(2), repeat=len(system.domains)):
            slices = [domain_p[i][k] for i, k in enumerate(pairing)]
            old = np.minimum(sum(wi * p for wi, p in zip(w, slices)), 1.0)
            np.testing.assert_array_max_ulp(sample_system(system, pairing, domain_p), old, maxulp=1)

    def test_baseline_matches_flattened_loop(self):
        system = parse_config(GPT4O_CONFIG).system
        priors = [BetaPosterior(1.0, 1.0), BetaPosterior(2.0, 5.0), BetaPosterior(30.0, 3.0), BetaPosterior(4.0, 4.0)]
        for seed in range(3):
            new = bb_system_samples(system, priors, 20_000, seed)
            old = flattened_bb_system_samples(system, priors, 20_000, seed)
            np.testing.assert_array_max_ulp(new, old, maxulp=4)


def profile_system(omega=(0.4, 0.6), weights=(0.7, 0.3), correct=8, box=None, label="a"):
    """Two domains, the first with two subdomains; the arguments set the
    profile and the first domain's first count, box and label."""
    first = DomainSpec(
        (SubdomainData(correct, 20, "a1"), SubdomainData(15, 25, "a2")),
        omega,
        box if box is not None else default_box(),
        label=label,
    )
    second = DomainSpec((SubdomainData(30, 40, "b1"),), (1.0,), default_box(), label="b")
    return SystemSpec(domains=(first, second), domain_weights=weights)


class TestProfileSamples:
    GRID = GridSpec(n_mu=8, n_nu=6)
    MC = McSpec(samples_per_config=300, configs_per_domain=5, pairing_cap=16, master_seed=21, t_grid_size=11)

    def test_one_system_is_system_sample_arrays(self):
        sys_ = profile_system()
        (pairings,) = profile_samples([sys_], self.GRID, self.MC)
        shared = list(pairings)
        arrays = system_sample_arrays(sys_, self.GRID, self.MC)
        assert len(shared) == len(arrays) == 16
        for a, b in zip(shared, arrays):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_profile_matches_its_own_run(self, threads):
        systems = [
            profile_system(),
            profile_system(omega=(0.9, 0.1), weights=(0.2, 0.8)),
            profile_system(omega=(0.5, 0.5), weights=(0.5, 0.5)),
        ]
        for sys_, pairings in zip(systems, profile_samples(systems, self.GRID, self.MC, threads)):
            arrays = system_sample_arrays(sys_, self.GRID, self.MC)
            got = list(pairings)
            assert len(got) == len(arrays)
            for a, b in zip(got, arrays):
                np.testing.assert_array_equal(a, b)

    def test_empty_system_list_rejected(self):
        with pytest.raises(ValueError, match="system list is empty"):
            next(profile_samples([], self.GRID, self.MC))

    @pytest.mark.parametrize(
        "other",
        [
            profile_system(correct=9),
            profile_system(box=point_box()),
            profile_system(label="renamed"),
            dataclasses.replace(profile_system(), domains=profile_system().domains[:1], domain_weights=(1.0,)),
        ],
        ids=["counts", "box", "label", "domains"],
    )
    def test_other_differences_rejected(self, other):
        with pytest.raises(ValueError, match="op_weights and domain_weights"):
            next(profile_samples([profile_system(), other], self.GRID, self.MC))


class TestEnvelope:
    def test_single_member(self):
        # a CDF-only row gives zero-length expected bounds
        t = eval_grid(11)
        env = envelope([t], t)
        np.testing.assert_array_equal(env.lower, env.upper)
        assert env.expected_lower.size == env.expected_upper.size == 0

    def test_ordered_members(self):
        # rows longer than t split at t: the CDF bounds, then the expected bounds
        t = eval_grid(11)
        f, g = t ** 2, np.sqrt(t)
        env = envelope([np.append(f, [0.1, 0.3]), np.append(g, [0.2, 0.05])], t)
        np.testing.assert_array_equal(env.lower, f)
        np.testing.assert_array_equal(env.upper, g)
        assert env.expected_lower.tolist() == [0.1, 0.05]
        assert env.expected_upper.tolist() == [0.2, 0.3]

    @pytest.mark.parametrize("n_members,length", [(0, 11), (2, 10), (1, 0)], ids=["none", "short", "empty"])
    def test_rejected(self, n_members, length):
        t = eval_grid(11)
        with pytest.raises(ValueError):
            envelope([t[:length]] * n_members, t)

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

    @given(
        st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_P)), min_size=1, max_size=40),
        st.lists(st.integers(1, 2**53), min_size=1, max_size=8),
    )
    @example(list(EDGE_P), [1, 2, 700, 10**6, 2**53])
    @settings(max_examples=300, deadline=None)
    def test_within_1e_15_of_exact_powers(self, p, horizons):
        vals = expected_reliability(np.array(p), horizons)
        exact = [math.fsum(math.pow(x, n) for x in p) / len(p) for n in horizons]
        np.testing.assert_allclose(vals, exact, rtol=0, atol=1e-15)

    def test_zero_and_one_are_exact_without_warnings(self):
        horizons = (1, 3, 1000, 2**53)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            zeros = expected_reliability(np.zeros(5), horizons)
            ones = expected_reliability(np.ones(5), horizons)
            both = expected_reliability(np.array([0.0, 1.0]), horizons)
        assert zeros.tolist() == [0.0] * 4
        assert ones.tolist() == [1.0] * 4
        assert both.tolist() == [0.5] * 4

    def test_unsorted_and_repeated_horizons(self):
        draws = RngState(23).gen.beta(40, 3, size=500)
        horizons = (100, 1, 5000, 100, 7, 1)
        vals = expected_reliability(draws, horizons)
        for n, val in zip(horizons, vals):
            assert val == expected_reliability(draws, [n])[0]
        assert vals[0] == vals[3] and vals[1] == vals[5]

    @staticmethod
    def unblocked(draws, horizons):
        """Every horizon's powers in one block, each term clamped and masked,
        and n_F = 1 the draws themselves."""
        horizons = np.asarray(horizons)
        with np.errstate(divide="ignore"):
            x = np.multiply.outer(horizons.astype(float), np.log(draws))
        tiny = x < inference.LOG_TINY
        x = np.exp(np.maximum(x, inference.LOG_TINY))
        x[tiny] = 0.0
        x[horizons == 1] = draws
        return x.mean(axis=1)

    def test_many_horizons_blocked_bit_identical_and_bounded(self):
        # 2,000 horizons at S = 3000: one (H, S) block would take 48 MB
        draws = RngState(29).gen.beta(40, 3, size=3000)
        horizons = np.arange(1, 2001)
        tracemalloc.start()
        try:
            vals = expected_reliability(draws, horizons)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(vals, self.unblocked(draws, horizons))
        # the block in flight, its mask and the log draws
        assert peak < 2 * inference.RELIABILITY_BLOCK * 8

    def test_sorted_rows_bit_identical_across_blocks(self):
        # log p in [-1.204, -1.171]: rows up to n_F = 581 hold no tiny term,
        # rows from 598 hold nothing else, and the rows between hold both,
        # with means near e**-700, where a term left unclamped shows
        draws = RngState(31).gen.uniform(0.3, 0.31, size=3000)
        clean = list(range(1, 46)) + [300, 581]
        partly = [582, 585, 590, 597]
        wholly = [598, 10**6, 2**53]
        horizons = RngState(37).gen.permutation(clean + partly + wholly + clean[:6] + partly[:2] + wholly[:2])
        x = np.multiply.outer(horizons.astype(float), np.log(draws))
        n_tiny = (x < inference.LOG_TINY).sum(axis=1)
        assert np.array_equal(np.isin(horizons, partly), (n_tiny > 0) & (n_tiny < draws.size))
        assert np.array_equal(np.isin(horizons, wholly), n_tiny == draws.size)
        # more power rows than one block holds at S = 3000
        assert np.count_nonzero(horizons != 1) > inference.RELIABILITY_BLOCK // draws.size
        np.testing.assert_array_equal(expected_reliability(draws, horizons), self.unblocked(draws, horizons))

    def test_underflowing_horizons_make_no_block(self):
        draws = RngState(41).gen.uniform(0.3, 0.6, size=3000)
        horizons = np.geomspace(10**4, 2**53, 20).astype(np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tracemalloc.start()
            try:
                vals = expected_reliability(draws, horizons)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert vals.tolist() == [0.0] * 20
        # the log draws and a few horizon-sized arrays, no (20, S) block
        assert peak < 2 * draws.size * 8

    def test_horizon_one_is_the_sample_mean(self):
        # seed 33's mean of exp(log p) differs from mean(p) in the last bit
        draws = RngState(33).gen.random(999)
        assert expected_reliability(draws, (3, 1))[1] == np.mean(draws)


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

    @staticmethod
    def all_correct_domain(omega, label="d"):
        """Three subdomains at 1000/1000 with d in [20, 25]: most accuracy
        draws round to 1."""
        box = dataclasses.replace(default_box(), d_range=(20.0, 25.0))
        return DomainSpec(tuple(SubdomainData(1000, 1000, f"{label}{j}") for j in range(3)), omega, box, label=label)

    def test_aggregates_clipped_at_one(self):
        # weights that sum to 1 + 2.2e-16 put an aggregate of 1s just above
        # 1; unclipped, the domain and system CDFs read 0.148 at t = 1 and
        # E[p ** 2**53] reached 6.30
        omega, even = (0.33, 0.56, 0.11), (1 / 3, 1 / 3, 1 / 3)
        assert sum(omega) > 1.0 and sum(even) == 1.0
        query = ReliabilityQuery((1, 10**15, 2**53))
        mc = McSpec(samples_per_config=2000, configs_per_domain=16)
        # the domain aggregate, under omega as op weights
        rep = infer(SystemSpec((self.all_correct_domain(omega),), (1.0,)), None, mc, query)
        # the system aggregate, under omega as domain weights
        system = SystemSpec(tuple(self.all_correct_domain(even, f"d{i}") for i in range(3)), omega)
        rep_system = infer(system, GridSpec(n_mu=10, n_nu=8), dataclasses.replace(mc, configs_per_domain=2), query)
        for band in (rep.bands[("domain", "d")], rep.bands[("system", "system")], rep_system.bands[("system", "system")]):
            assert band.lower[-1] == band.upper[-1] == 1.0
            assert np.all(band.expected_upper <= 1.0)
        # a second profile's domain aggregate is clipped like the first's
        other = DomainSpec((SubdomainData(500, 1000, "x0"),), (1.0,), default_box(), label="x")
        mixed = [SystemSpec((self.all_correct_domain(w), other), (0.5, 0.5)) for w in (even, omega)]
        grid, mc = GridSpec(n_mu=10, n_nu=8), McSpec(samples_per_config=500, configs_per_domain=4)
        profiles = profile_samples(mixed, grid, mc)
        list(next(profiles))
        for a, b in zip(next(profiles), system_sample_arrays(mixed[1], grid, mc)):
            np.testing.assert_array_equal(a, b)

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

    def test_reliability_bands_valid_up_to_2_53(self):
        sys_ = SystemSpec(
            domains=(
                DomainSpec((SubdomainData(18, 20), SubdomainData(90, 100)), (0.3, 0.7), default_box()),
                DomainSpec((SubdomainData(40, 40),), (1.0,), default_box(), label="d2"),
            ),
            domain_weights=(0.6, 0.4),
        )
        mc = McSpec(samples_per_config=300, configs_per_domain=6, master_seed=31, t_grid_size=11)
        horizons = (2**53, 1, 5000, 10**6, 2, 2**30, 100, 2**53 - 1)
        rep = infer(sys_, GridSpec(n_mu=8, n_nu=6), mc, ReliabilityQuery(horizons))
        order = np.argsort(horizons)
        assert len(rep.bands) == 6
        for band in rep.bands.values():
            lo, hi = band.expected_lower[order], band.expected_upper[order]
            assert np.all((lo >= 0.0) & (hi <= 1.0))
            assert np.all(lo <= hi)
            assert np.all(np.diff(lo) <= 0.0) and np.all(np.diff(hi) <= 0.0)

    def test_every_band_is_one_envelope_call(self, monkeypatch):
        returned = []

        def spy(members, t):
            returned.append(envelope(members, t))
            return returned[-1]

        monkeypatch.setattr(inference, "envelope", spy)
        dom = one_subdomain_system(c=30, n=40).domains[0]
        dom2 = DomainSpec(
            (SubdomainData(8, 20, "a"), SubdomainData(15, 25, "b")), (0.4, 0.6), default_box(), label="d2"
        )
        sys_ = SystemSpec(domains=(dom, dom2), domain_weights=(0.5, 0.5))
        mc = McSpec(samples_per_config=100, configs_per_domain=3, master_seed=5, t_grid_size=11)
        rep = infer(sys_, GridSpec(n_mu=4, n_nu=4), mc, ReliabilityQuery((1, 4)))
        # 3 subdomains, 2 domains and the system
        assert len(returned) == len(rep.bands) == 6
        # domain by domain, so the calls list each domain before the next
        # domain's subdomains
        assert sorted(map(id, rep.bands.values())) == sorted(map(id, returned))

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

    @staticmethod
    def fold_system(n_domains):
        """Two or three domains of one or two subdomains each."""
        doms = (
            DomainSpec((SubdomainData(8, 20, "a1"), SubdomainData(15, 25, "a2")), (0.4, 0.6), default_box(), label="a"),
            DomainSpec((SubdomainData(30, 40, "b1"),), (1.0,), default_box(), label="b"),
            DomainSpec((SubdomainData(3, 10, "c1"), SubdomainData(9, 10, "c2")), (0.5, 0.5), default_box(), label="c"),
        )[:n_domains]
        return SystemSpec(doms, tuple(1.0 / n_domains for _ in range(n_domains)))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize(
        "n_domains,cap,chunk",
        [
            (2, 1, 4),  # one sampled pairing
            (2, 3, 4),  # chunk - 1
            (2, 4, 4),  # chunk
            (2, 5, 4),  # chunk + 1
            (2, 17, 4),  # 3 chunks + 5
            (3, 23, 6),  # 3 chunks + 5, of 3 domains
            (2, 25, 8),  # the full product, at the cap: 3 chunks + 1
            (3, 1000, 40),  # the full product, under the cap: 3 chunks + 5
        ],
    )
    def test_system_band_equals_every_row(self, monkeypatch, n_domains, cap, chunk, threads):
        # the chunks' min and max rows bound exactly what every pairing's
        # row, built from the public pieces, bounds; and each chunk makes
        # its pairings' rows once
        monkeypatch.setattr(inference, "PAIRING_CHUNK", chunk)
        seen, real = [], inference.sample_system

        def spy(system, pairing, domain_p):
            seen.append(pairing)
            return real(system, pairing, domain_p)

        monkeypatch.setattr(inference, "sample_system", spy)
        system = self.fold_system(n_domains)
        grid = GridSpec(n_mu=8, n_nu=6)
        mc = McSpec(samples_per_config=200, configs_per_domain=5, pairing_cap=cap, master_seed=41, t_grid_size=21)
        horizons = (1, 10**6, 7, 1)
        t = eval_grid(mc.t_grid_size)
        arrays = system_sample_arrays(system, grid, mc)
        assert len(arrays) == len(seen) == min(cap, 5**n_domains)
        pairings, seen[:] = sorted(seen), []
        rep = infer(system, grid, mc, ReliabilityQuery(horizons), threads=threads)
        assert sorted(seen) == pairings
        rows = [np.concatenate([empirical_cdf(p, t), expected_reliability(p, horizons)]) for p in arrays]
        got, want = rep.bands[("system", "system")], envelope(rows, t)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name

    def test_system_stage_memory_flat_in_pairing_cap(self):
        # 64 x 64 configs: 64 pairings or the full product of 4096; holding
        # every pairing's row (and a stacked copy) would grow the peak by
        # about 2 * 4032 rows, 13 MB.  What may grow with the cap is named:
        # the pairing list, two bound rows per chunk, and two chunks of rows
        # (one per worker, one being freed) for slack
        system = self.fold_system(2)
        query = ReliabilityQuery((1, 10**6))
        peaks = []
        for cap in (64, 4096):
            mc = McSpec(samples_per_config=200, configs_per_domain=64, pairing_cap=cap, master_seed=3, t_grid_size=201)
            tracemalloc.start()
            try:
                infer(system, GridSpec(n_mu=8, n_nu=6), mc, query)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        row = (201 + 2) * 8
        pairings = generate_pairings([64, 64], 4096, 0)
        pairing_list = sys.getsizeof(pairings) + sum(sys.getsizeof(p) for p in pairings)
        bounds = 2 * math.ceil(4096 / inference.PAIRING_CHUNK) * row
        assert peaks[1] - peaks[0] < pairing_list + bounds + 2 * inference.PAIRING_CHUNK * row

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
