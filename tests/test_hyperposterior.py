"""Grid construction and posterior-weight tests."""

import math

import numpy as np
import pytest

from hipllm.hyperposterior import (
    build_grid,
    hyper_posterior,
    log_marginal_likelihood,
    log_prior_density,
)
from hipllm.model import (
    DomainSpec,
    GridSpec,
    HyperConfig,
    SubdomainData,
    default_box,
    default_grid,
)


def one_subdomain_domain(c, n):
    return DomainSpec(
        subdomains=(SubdomainData(c, n),), op_weights=(1.0,), box=default_box()
    )


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


class TestLogPriorDensity:
    def test_flat_config(self):
        # Beta(1,1) density 1, Gamma(1, rate=1) density exp(-nu)
        h = HyperConfig(1, 1, 1, 1)
        assert log_prior_density(0.3, 2.0, h) == pytest.approx(-2.0, abs=1e-12)

    def test_symmetric_beta(self):
        # Beta(2,2) density 6*mu*(1-mu) = 1.5 at mu=0.5
        h = HyperConfig(2, 2, 1, 1)
        assert log_prior_density(0.5, 1.0, h) == pytest.approx(
            math.log(1.5) - 1.0, abs=1e-12
        )

    @pytest.mark.parametrize("h", [HyperConfig(1, 1, 1, 1), HyperConfig(12, 1, 25, 25),
                                   HyperConfig(1, 12, 1, 25), HyperConfig(5, 5, 3, 0.5)])
    def test_integrates_to_one_on_default_grid(self, h):
        g = build_grid(default_grid())
        mass = np.exp(log_prior_density(g.mu, g.nu, h) + g.log_measure).sum()
        assert mass == pytest.approx(1.0, rel=0.02)

    def test_boundary_rejected(self):
        with pytest.raises(Exception):
            log_prior_density(0.0, 1.0, HyperConfig(1, 1, 1, 1))


class TestLogMarginalLikelihood:
    def test_empty_counts(self):
        assert log_marginal_likelihood(one_subdomain_domain(0, 0), 0.5, 2.0) == 0.0

    def test_single_trial_by_hand(self):
        # C=1, N=1, mu=0.5, nu=2: B(2,1)/B(1,1) = 1/2
        val = log_marginal_likelihood(one_subdomain_domain(1, 1), 0.5, 2.0)
        assert val == pytest.approx(math.log(0.5), abs=1e-12)

    def test_additive_over_subdomains(self):
        d1 = one_subdomain_domain(3, 10)
        d2 = one_subdomain_domain(7, 9)
        both = DomainSpec(
            subdomains=d1.subdomains + d2.subdomains,
            op_weights=(0.5, 0.5),
            box=default_box(),
        )
        assert log_marginal_likelihood(both, 0.4, 3.0) == pytest.approx(
            log_marginal_likelihood(d1, 0.4, 3.0)
            + log_marginal_likelihood(d2, 0.4, 3.0),
            rel=1e-12,
        )

    def test_finite_on_grid_with_large_counts(self):
        g = build_grid(default_grid())
        dom = one_subdomain_domain(9000, 10_000)
        vals = log_marginal_likelihood(dom, g.mu, g.nu)
        assert np.all(np.isfinite(vals))


class TestHyperPosterior:
    def test_no_data_matches_prior_mass(self):
        g = build_grid(default_grid())
        h = HyperConfig(3, 2, 2, 4)
        post = hyper_posterior(one_subdomain_domain(0, 0), h, g)
        prior = np.exp(log_prior_density(g.mu, g.nu, h) + g.log_measure)
        np.testing.assert_allclose(post.weights, prior / prior.sum(), rtol=1e-10)

    @pytest.mark.parametrize("h", [
        HyperConfig(1, 1, 1, 1), HyperConfig(12, 12, 25, 25),
        HyperConfig(1, 12, 25, 1), HyperConfig(12, 1, 1, 25),
    ])
    def test_weights_normalized_at_box_corners(self, h):
        g = build_grid(default_grid())
        post = hyper_posterior(one_subdomain_domain(90, 100), h, g)
        assert post.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(post.weights >= 0.0)
        assert np.isfinite(post.log_evidence)

    def test_data_shifts_posterior_mean_up(self):
        g = build_grid(default_grid())
        h = HyperConfig(1, 1, 1, 1)
        post = hyper_posterior(one_subdomain_domain(90, 100), h, g)
        prior = np.exp(log_prior_density(g.mu, g.nu, h) + g.log_measure)
        prior /= prior.sum()
        assert post.weights @ g.mu > prior @ g.mu

    def test_evidence_matches_brute_force_quadrature(self):
        # direct mass summation without the max-subtraction path
        g = build_grid(GridSpec(n_mu=30, n_nu=25))
        h = HyperConfig(2, 3, 2, 2)
        dom = one_subdomain_domain(6, 10)
        direct = np.log(
            np.sum(
                np.exp(log_marginal_likelihood(dom, g.mu, g.nu))
                * np.exp(log_prior_density(g.mu, g.nu, h))
                * np.exp(g.log_measure)
            )
        )
        post = hyper_posterior(dom, h, g)
        assert post.log_evidence == pytest.approx(direct, rel=1e-10)

    def test_normalization_shift_invariant(self):
        # adding a constant to all log-weights cannot change the result,
        # exercised via counts large enough to push log-weights below -1000
        g = build_grid(default_grid())
        h = HyperConfig(2, 2, 2, 2)
        small = hyper_posterior(one_subdomain_domain(60, 100), h, g)
        big = hyper_posterior(one_subdomain_domain(6000, 10_000), h, g)
        for post in (small, big):
            assert post.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.isfinite(post.weights))

    def test_grid_refinement_converges(self):
        h = HyperConfig(2, 2, 2, 2)
        dom = one_subdomain_domain(75, 100)
        coarse = build_grid(default_grid())
        fine = build_grid(GridSpec(n_mu=100, n_nu=80))
        m_coarse = hyper_posterior(dom, h, coarse).weights @ coarse.mu
        m_fine = hyper_posterior(dom, h, fine).weights @ fine.mu
        assert abs(m_coarse - m_fine) < 1e-3

    def test_posterior_mean_vs_reference_grid(self):
        # 10^6-node reference for the 90/100 shift example
        h = HyperConfig(1, 1, 1, 1)
        dom = one_subdomain_domain(90, 100)
        ref_grid = build_grid(GridSpec(n_mu=1000, n_nu=1000))
        ref_mean = hyper_posterior(dom, h, ref_grid).weights @ ref_grid.mu
        g = build_grid(default_grid())
        mean = hyper_posterior(dom, h, g).weights @ g.mu
        assert mean == pytest.approx(ref_mean, abs=2e-3)
