"""Grid construction and posterior-weight tests."""

import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special as sp
from scipy import stats

from hipllm.config import parse_config
from hipllm.hyperposterior import (
    HyperGrid,
    build_grid,
    hyper_posterior,
    log_marginal_likelihood_grid,
)
from hipllm.inference import CONFIG_BLOCK, generate_configs
from hipllm.model import (
    DomainSpec,
    GridSpec,
    SubdomainData,
    default_box,
    default_grid,
)
from hipllm.numerics import NumericalError, RngState

GPT4O_CONFIG = Path(__file__).parent.parent / "configs" / "gpt4o_mini.json"


def one_subdomain_domain(c, n):
    return DomainSpec(
        subdomains=(SubdomainData(c, n),), op_weights=(1.0,), box=default_box()
    )


def posterior(dom, h, g):
    """One config's (G,) posterior weights and its log-evidence."""
    post = hyper_posterior([h], g, log_marginal_likelihood_grid(dom, g))
    return post.weights[0], post.log_evidence[0]


class TestBuildGrid:
    def test_mu_midpoints(self):
        g = build_grid(GridSpec(n_mu=2, n_nu=1, nu_min=1.0, nu_max=4.0))
        np.testing.assert_allclose(sorted(set(g.mu)), [0.25, 0.75])

    def test_single_nu_geometric_midpoint(self):
        g = build_grid(GridSpec(n_mu=2, n_nu=1, nu_min=1.0, nu_max=4.0))
        np.testing.assert_allclose(g.nu, 2.0)

    def test_mu_measure_sums_to_one(self):
        g = build_grid(GridSpec(n_mu=7, n_nu=1, nu_min=1.0, nu_max=4.0))
        # with a single nu cell, total measure = nu width * sum of mu widths
        total = np.exp(g.log_measure).sum()
        assert total == pytest.approx(4.0 - 1.0, rel=1e-12)

    def test_node_count(self):
        g = build_grid(default_grid())
        assert g.size == 2000
        assert g.mu.size == g.nu.size == g.log_measure.size == default_grid().size

    def test_node_logs_computed_once(self, monkeypatch):
        calls = []
        real = np.log1p
        monkeypatch.setattr(np, "log1p", lambda *a, **k: calls.append(1) or real(*a, **k))
        g = build_grid(default_grid())
        dom = one_subdomain_domain(6, 10)
        hyper_posterior([(2, 3, 2, 2)] * 3, g, log_marginal_likelihood_grid(dom, g))
        assert len(calls) == 1  # T's log(1 - mu), made with the grid, not per posterior
        np.testing.assert_array_equal(g.T, [np.log(g.mu), np.log1p(-g.mu), np.log(g.nu), g.nu])
        # the grid is its nodes and measures; T is made from them only
        assert [f.name for f in dataclasses.fields(HyperGrid) if f.init] == ["mu", "nu", "log_measure"]
        assert [f.name for f in dataclasses.fields(HyperGrid) if not f.init] == ["T"]
        with pytest.raises(TypeError):
            HyperGrid(mu=g.mu, nu=g.nu, log_measure=g.log_measure, T=g.T)

    @pytest.mark.parametrize(
        "mu,nu",
        [([0.5, 0.0], [1.0, 1.0]), ([0.5, 1.0], [1.0, 1.0]), ([0.5, 0.5], [1.0, 0.0]),
         ([0.5, 0.5], [1.0, np.inf]), ([0.5, 0.5], [1.0, np.nan]), ([0.5, np.nan], [1.0, 1.0])],
    )
    def test_nodes_outside_domain_rejected(self, mu, nu):
        with pytest.raises(NumericalError):
            HyperGrid(mu=np.array(mu), nu=np.array(nu), log_measure=np.zeros(2))


def log_prior_density(mu, nu, h):
    """Log density of Beta(mu | a, b) * Gamma(nu | c, rate=d) from
    scipy.stats, an oracle that shares no code with `hyper_posterior`."""
    a, b, c, d = h
    return stats.beta.logpdf(mu, a, b) + stats.gamma.logpdf(nu, c, scale=1.0 / d)


class TestLogPriorDensity:
    """The prior density as `hyper_posterior` forms it: with no data and
    unit cell measures, a node's weight is its prior density over their sum."""

    def test_flat_config(self):
        # Beta(1,1) density 1, Gamma(1, rate=1) density exp(-nu)
        weights, log_evidence = posterior(one_subdomain_domain(0, 0), (1, 1, 1, 1), nodes((0.3, 2.0), (0.5, 1.0)))
        assert weights[0] / weights[1] == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert log_evidence == pytest.approx(math.log(math.exp(-2.0) + math.exp(-1.0)), abs=1e-12)

    def test_symmetric_beta(self):
        # Beta(2,2) density 6*mu*(1-mu) = 1.5 at mu=0.5
        weights, log_evidence = posterior(one_subdomain_domain(0, 0), (2, 2, 1, 1), nodes((0.5, 1.0), (0.5, 2.0)))
        assert weights[1] / weights[0] == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert log_evidence == pytest.approx(
            math.log(1.5) + math.log(math.exp(-1.0) + math.exp(-2.0)), abs=1e-12
        )

    @pytest.mark.parametrize("h", [(1, 1, 1, 1), (12, 1, 25, 25),
                                   (1, 12, 1, 25), (5, 5, 3, 0.5)])
    def test_integrates_to_one_on_default_grid(self, h):
        # with no data the evidence is the prior's mass on the grid
        _, log_evidence = posterior(one_subdomain_domain(0, 0), h, build_grid(default_grid()))
        assert math.exp(log_evidence) == pytest.approx(1.0, rel=0.02)


def nodes(*mu_nu):
    """A grid of the (mu, nu) nodes given, with unit cell measures."""
    mu, nu = np.array(mu_nu, dtype=float).T
    return HyperGrid(mu=mu, nu=nu, log_measure=np.zeros(mu.size))


def pointwise_log_marginal_likelihood(domain, mu, nu):
    """The likelihood as it was written before it read `HyperGrid.conditional`."""
    a0 = mu * nu
    b0 = (1.0 - mu) * nu
    total = np.zeros(np.broadcast(mu, nu).shape)
    for sub in domain.subdomains:
        c, n = sub.correct, sub.total
        if n == 0:
            continue
        log_binom = sp.gammaln(n + 1) - sp.gammaln(c + 1) - sp.gammaln(n - c + 1)
        total = total + log_binom + sp.betaln(c + a0, n - c + b0) - sp.betaln(a0, b0)
    return total


class TestLogMarginalLikelihood:
    def test_empty_counts(self):
        assert log_marginal_likelihood_grid(one_subdomain_domain(0, 0), nodes((0.5, 2.0)))[0] == 0.0

    def test_single_trial_by_hand(self):
        # C=1, N=1, mu=0.5, nu=2: B(2,1)/B(1,1) = 1/2
        val = log_marginal_likelihood_grid(one_subdomain_domain(1, 1), nodes((0.5, 2.0)))[0]
        assert val == pytest.approx(math.log(0.5), abs=1e-12)

    def test_additive_over_subdomains(self):
        d1 = one_subdomain_domain(3, 10)
        d2 = one_subdomain_domain(7, 9)
        both = DomainSpec(
            subdomains=d1.subdomains + d2.subdomains,
            op_weights=(0.5, 0.5),
            box=default_box(),
        )
        g = nodes((0.4, 3.0))
        assert log_marginal_likelihood_grid(both, g)[0] == pytest.approx(
            log_marginal_likelihood_grid(d1, g)[0]
            + log_marginal_likelihood_grid(d2, g)[0],
            rel=1e-12,
        )

    def test_finite_on_grid_with_large_counts(self):
        g = build_grid(default_grid())
        dom = one_subdomain_domain(9000, 10_000)
        vals = log_marginal_likelihood_grid(dom, g)
        assert np.all(np.isfinite(vals))

    def test_conditional_form_is_the_pointwise_formula(self):
        # reading both Betas from `grid.conditional` gives the bytes of the
        # formula written out: on both gpt4o domains, and on a domain with a
        # 0/0 subdomain, on the default grid and a coarse one
        cfg = parse_config(GPT4O_CONFIG)
        empty = DomainSpec(
            subdomains=(SubdomainData(0, 0), SubdomainData(90, 100), SubdomainData(2**53, 2**53)),
            op_weights=(0.2, 0.3, 0.5),
        )
        for g in (build_grid(cfg.grid), build_grid(GridSpec(n_mu=7, n_nu=5, nu_min=1e-3, nu_max=1e3))):
            for dom in (*cfg.system.domains, empty):
                expected = pointwise_log_marginal_likelihood(dom, g.mu, g.nu)
                assert log_marginal_likelihood_grid(dom, g).tobytes() == expected.tobytes()


class TestHyperPosterior:
    def test_no_data_matches_prior_mass(self):
        g = build_grid(default_grid())
        h = (3, 2, 2, 4)
        weights, _ = posterior(one_subdomain_domain(0, 0), h, g)
        prior = np.exp(log_prior_density(g.mu, g.nu, h) + g.log_measure)
        np.testing.assert_allclose(weights, prior / prior.sum(), rtol=1e-10)

    @pytest.mark.parametrize("h", [
        (1, 1, 1, 1), (12, 12, 25, 25),
        (1, 12, 25, 1), (12, 1, 1, 25),
    ])
    def test_weights_normalized_at_box_corners(self, h):
        g = build_grid(default_grid())
        weights, log_evidence = posterior(one_subdomain_domain(90, 100), h, g)
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(weights >= 0.0)
        assert np.isfinite(log_evidence)

    def test_data_shifts_posterior_mean_up(self):
        g = build_grid(default_grid())
        h = (1, 1, 1, 1)
        weights, _ = posterior(one_subdomain_domain(90, 100), h, g)
        prior = np.exp(log_prior_density(g.mu, g.nu, h) + g.log_measure)
        prior /= prior.sum()
        assert weights @ g.mu > prior @ g.mu

    def test_evidence_matches_brute_force_quadrature(self):
        # direct mass summation without the max-subtraction path
        g = build_grid(GridSpec(n_mu=30, n_nu=25))
        h = (2, 3, 2, 2)
        dom = one_subdomain_domain(6, 10)
        direct = np.log(
            np.sum(
                np.exp(log_marginal_likelihood_grid(dom, g))
                * np.exp(log_prior_density(g.mu, g.nu, h))
                * np.exp(g.log_measure)
            )
        )
        _, log_evidence = posterior(dom, h, g)
        assert log_evidence == pytest.approx(direct, rel=1e-10)

    def test_normalization_shift_invariant(self):
        # adding a constant to all log-weights cannot change the result,
        # exercised via counts large enough to push log-weights below -1000
        g = build_grid(default_grid())
        h = (2, 2, 2, 2)
        small, _ = posterior(one_subdomain_domain(60, 100), h, g)
        big, _ = posterior(one_subdomain_domain(6000, 10_000), h, g)
        for weights in (small, big):
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.isfinite(weights))

    def test_grid_refinement_converges(self):
        h = (2, 2, 2, 2)
        dom = one_subdomain_domain(75, 100)
        coarse = build_grid(default_grid())
        fine = build_grid(GridSpec(n_mu=100, n_nu=80))
        m_coarse = posterior(dom, h, coarse)[0] @ coarse.mu
        m_fine = posterior(dom, h, fine)[0] @ fine.mu
        assert abs(m_coarse - m_fine) < 1e-3

    def test_posterior_mean_vs_reference_grid(self):
        # 10^6-node reference for the 90/100 shift example
        h = (1, 1, 1, 1)
        dom = one_subdomain_domain(90, 100)
        ref_grid = build_grid(GridSpec(n_mu=1000, n_nu=1000))
        ref_mean = posterior(dom, h, ref_grid)[0] @ ref_grid.mu
        g = build_grid(default_grid())
        mean = posterior(dom, h, g)[0] @ g.mu
        assert mean == pytest.approx(ref_mean, abs=2e-3)

    def test_block_rows_are_single_configs(self):
        # each row of a block is its config's posterior on its own, bit for
        # bit, whatever the block's size: extreme configs in a block of 3;
        # all 20 blocks of 16 configs of the gpt4o run, and partial blocks
        # of each gpt4o domain's first 8 and 3 configs
        g = build_grid(GridSpec(n_mu=30, n_nu=25))
        dom = one_subdomain_domain(6, 10)
        configs = [(1, 1, 1, 1), (12, 1, 25, 25), (2, 3, 2, 2)]
        blocks = [(g, log_marginal_likelihood_grid(dom, g), configs)]
        cfg = parse_config(GPT4O_CONFIG)
        g = build_grid(cfg.grid)
        master = RngState(cfg.mc.master_seed)
        for i, dom in enumerate(cfg.system.domains):
            log_lik = log_marginal_likelihood_grid(dom, g)
            configs = generate_configs(dom.box, cfg.mc.configs_per_domain, master.substream(1, i).seed)
            firsts = range(0, len(configs), CONFIG_BLOCK)
            blocks += [(g, log_lik, configs[n : n + CONFIG_BLOCK]) for n in firsts]
            blocks += [(g, log_lik, configs[:size]) for size in (8, 3)]
        for g, log_lik, configs in blocks:
            block = hyper_posterior(configs, g, log_lik)
            assert block.weights.shape == (len(configs), g.size) and block.log_evidence.shape == (len(configs),)
            for b, h in enumerate(configs):
                single = hyper_posterior([h], g, log_lik)
                np.testing.assert_array_equal(block.weights[b], single.weights[0])
                assert block.log_evidence[b] == single.log_evidence[0]

    def test_array_block_is_the_tuple_block(self):
        # a block read from the rows of one array, as the engine passes it,
        # and from a list of tuples gives the same bytes
        g = build_grid(default_grid())
        log_lik = log_marginal_likelihood_grid(one_subdomain_domain(6, 10), g)
        configs = generate_configs(default_box(), 2 * CONFIG_BLOCK, 3)
        rows = hyper_posterior(configs, g, log_lik)
        tuples = hyper_posterior([tuple(h) for h in configs.tolist()], g, log_lik)
        assert rows.weights.tobytes() == tuples.weights.tobytes()
        assert rows.log_evidence.tobytes() == tuples.log_evidence.tobytes()

    def test_block_peak_near_its_weights(self):
        # a block's log-weights are made in place in its (B, G) result, with
        # no second (B, G) array beside it
        g = build_grid(default_grid())
        dom = one_subdomain_domain(6, 10)
        log_lik = log_marginal_likelihood_grid(dom, g)
        configs = generate_configs(default_box(), CONFIG_BLOCK, 0)
        hyper_posterior(configs, g, log_lik)  # first-call setup stays out of the peak
        tracemalloc.start()
        try:
            post = hyper_posterior(configs, g, log_lik)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * CONFIG_BLOCK * g.size * 8 == 1.5 * post.weights.nbytes

    def test_non_finite_row_names_its_config(self):
        # Beta(1e308, 1e308) overflows every log-weight of its row to nan
        g = build_grid(GridSpec(n_mu=10, n_nu=8))
        dom = one_subdomain_domain(6, 10)
        configs = [(2, 2, 2, 2), (1e308, 1e308, 3.0, 4.0)]
        with np.errstate(all="ignore"), pytest.raises(NumericalError) as err:
            hyper_posterior(configs, g, log_marginal_likelihood_grid(dom, g))
        assert "all grid log-weights non-finite (max=nan)" in str(err.value)
        assert "(a, b, c, d) = (1e+308, 1e+308, 3.0, 4.0)" in str(err.value)
