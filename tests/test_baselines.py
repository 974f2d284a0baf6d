"""Closed-form Beta-Binomial baseline tests."""

import math

import mpmath
import numpy as np
import pytest

from hipllm.baselines import (
    BetaPosterior,
    bb_expected_future_reliability,
    bb_mean_envelope,
    bb_system_samples,
    bb_update,
    informative_prior,
)
from hipllm.model import DomainSpec, SubdomainData, SystemSpec, default_box
from hipllm.numerics import NumericalError, RngState


class TestUpdate:
    def test_worked_example(self):
        post = bb_update(3, 10, 2.0, 2.0)
        assert (post.alpha, post.beta) == (5.0, 9.0)
        assert post.mean == pytest.approx(5 / 14, rel=1e-12)

    def test_no_data(self):
        post = bb_update(0, 0, 1.0, 1.0)
        assert (post.alpha, post.beta) == (1.0, 1.0)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            bb_update(5, 3, 1.0, 1.0)

    def test_batching_commutes(self):
        once = bb_update(3 + 7, 10 + 12, 2.0, 3.0)
        twice = bb_update(3, 10, 2.0, 3.0)
        twice = bb_update(7, 12, twice.alpha, twice.beta)
        assert (once.alpha, once.beta) == (twice.alpha, twice.beta)


class TestFutureReliability:
    def test_zero_horizon(self):
        assert bb_expected_future_reliability(BetaPosterior(3, 4), 0) == 1.0

    def test_flat_prior_one_step(self):
        assert bb_expected_future_reliability(BetaPosterior(1, 1), 1) == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [0, 10, 100])
    @pytest.mark.parametrize("n_f", [1, 10, 100])
    def test_all_passed_telescoping(self, n, n_f):
        # flat prior after N successes: (1+N)/(1+N+n_F)
        post = BetaPosterior(1 + n, 1)
        assert bb_expected_future_reliability(post, n_f) == pytest.approx(
            (1 + n) / (1 + n + n_f), rel=1e-12
        )

    def test_product_and_log_beta_paths_agree(self):
        post = BetaPosterior(7.3, 2.1)
        from scipy.special import betaln

        for n_f in (1, 17, 9_999):
            direct = math.exp(betaln(post.alpha + n_f, post.beta) - betaln(post.alpha, post.beta))
            assert bb_expected_future_reliability(post, n_f) == pytest.approx(direct, rel=1e-9)

    @staticmethod
    def relative_error(a, b, n_f):
        """Distance from B(a + n_F, b) / B(a, b) at 40 digits, relative."""
        import mpmath

        with mpmath.workdps(40):
            exact = mpmath.beta(a + n_f, b) / mpmath.beta(a, b)
            return float(abs(bb_expected_future_reliability(BetaPosterior(a, b), n_f) - exact) / exact)

    @pytest.mark.parametrize("a,b", [(1.5, 2.5), (1.0, 1.0), (0.5, 0.5), (2.0, 2.0), (7.3, 2.1)])
    def test_both_branches_against_mpmath(self, a, b):
        # measured: the product within 2.9e-13 at n_F = 10,000, the product
        # and the closed-form tail within 2.9e-13 at n_F = 10,001
        assert self.relative_error(a, b, 10_000) <= 1e-12
        assert self.relative_error(a, b, 10_001) <= 1e-10

    def test_log_beta_branch_at_a_million(self):
        # measured 5.6e-15; the log-Beta difference it replaced erred 1.7e-10
        assert self.relative_error(1.5, 2.5, 10**6) <= 1e-9

    @pytest.mark.parametrize(
        "a,b,n_f",
        [(1.0, 1.0, 2**53), (4.0, 8.0, 10**9), (777967752.6123285, 9924.979031097586, 18801),
         (54761828382373.36, 9865.316525801405, 252826295), (1e-320, 1.0, 10**6)],
    )
    def test_tail_against_mpmath(self, a, b, n_f):
        # the log-Beta difference erred 1.6e-6 at the third: scipy's betaln
        # took ln Gamma near 1.5e10 apart; the tail measured at most 1.9e-12
        with mpmath.workdps(60):
            exact = mpmath.beta(mpmath.mpf(a) + n_f, b) / mpmath.beta(a, b)
        got = bb_expected_future_reliability(BetaPosterior(a, b), n_f)
        assert abs(got - exact) <= 1e-11 * exact + 1e-300

    def test_unresolvable_tail_refused(self):
        # the tail's terms near 1e7 cancel to a log near -9
        with pytest.raises(NumericalError, match=r"E\[theta\^100000\].*its log rounds by up to"):
            bb_expected_future_reliability(BetaPosterior(1e11, 1e7), 100_000)
        # where the value rounds to 0 whatever the rounding, it is 0
        assert bb_expected_future_reliability(BetaPosterior(1e10, 1e10), 20_000) == 0.0

    def test_overflowing_sum(self):
        # alpha + beta past the float range: every factor is 1 / (1 + beta / (alpha + k))
        post = BetaPosterior(1e308, 1.7e308)
        assert post.mean == pytest.approx(1 / 2.7, rel=1e-15)
        assert bb_expected_future_reliability(post, 2) == pytest.approx((1 / 2.7) ** 2, rel=1e-15)
        assert bb_expected_future_reliability(post, 10**6) == 0.0

    def test_monte_carlo_agreement(self):
        rng = RngState(200)
        s = 100_000
        for _ in range(20):
            a = float(rng.gen.uniform(0.5, 20))
            b = float(rng.gen.uniform(0.5, 20))
            n_f = int(rng.gen.integers(1, 20))
            draws = rng.gen.beta(a, b, size=s)
            vals = draws ** n_f
            mc, se = vals.mean(), vals.std() / math.sqrt(s)
            exact = bb_expected_future_reliability(BetaPosterior(a, b), n_f)
            assert abs(mc - exact) <= 3 * se + 1e-12


class TestMeanEnvelope:
    def test_degenerate_box(self):
        lo, hi = bb_mean_envelope(3, 10, (2.0, 2.0), (2.0, 2.0))
        assert lo == hi == pytest.approx(5 / 14)

    def test_corner_evaluation(self):
        lo, hi = bb_mean_envelope(3, 10, (1.0, 3.0), (1.0, 3.0))
        assert lo == pytest.approx(4 / 14)
        assert hi == pytest.approx(6 / 14)

    def test_contains_interior_means(self):
        rng = RngState(77)
        lo, hi = bb_mean_envelope(3, 10, (1.0, 3.0), (1.0, 3.0))
        for _ in range(100):
            a = float(rng.gen.uniform(1, 3))
            b = float(rng.gen.uniform(1, 3))
            mean = (a + 3) / (a + b + 10)
            assert lo - 1e-12 <= mean <= hi + 1e-12


class TestInformativePrior:
    def test_flat_special_case(self):
        prior = informative_prior(0.5, 2.0)
        assert (prior.alpha, prior.beta) == (1.0, 1.0)

    def test_construction(self):
        prior = informative_prior(0.75, 50.0)
        assert (prior.alpha, prior.beta) == (37.5, 12.5)
        assert prior.mean == pytest.approx(0.75)

    def test_mean_property(self):
        rng = RngState(3)
        for _ in range(100):
            theta = float(rng.gen.uniform(0.01, 0.99))
            kappa = float(rng.gen.uniform(0.1, 200))
            assert informative_prior(theta, kappa).mean == pytest.approx(theta, rel=1e-12)

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            informative_prior(0.0, 10.0)


class TestSystemSamples:
    def two_level_system(self, counts):
        subs = [SubdomainData(c, n) for c, n in counts]
        d1 = DomainSpec(tuple(subs[:2]), (0.5, 0.5), default_box())
        d2 = DomainSpec(tuple(subs[2:]), (0.5, 0.5), default_box())
        return SystemSpec((d1, d2), (0.4, 0.6))

    def test_single_subdomain_matches_posterior(self):
        dom = DomainSpec((SubdomainData(3, 10),), (1.0,), default_box())
        sys_ = SystemSpec((dom,), (1.0,))
        samples = bb_system_samples(sys_, [BetaPosterior(2, 2)], 50_000, seed=8)
        assert samples.mean() == pytest.approx(5 / 14, abs=0.01)

    def test_concentration_with_huge_counts(self):
        counts = [(75_000, 100_000), (65_000, 100_000), (58_000, 100_000), (45_000, 100_000)]
        sys_ = self.two_level_system(counts)
        priors = [BetaPosterior(1, 1)] * 4
        samples = bb_system_samples(sys_, priors, 20_000, seed=9)
        expected = 0.4 * (0.5 * 0.75 + 0.5 * 0.65) + 0.6 * (0.5 * 0.58 + 0.5 * 0.45)
        assert samples.mean() == pytest.approx(expected, abs=0.005)

    def test_shape_mismatch(self):
        sys_ = self.two_level_system([(1, 2)] * 4)
        with pytest.raises(ValueError):
            bb_system_samples(sys_, [BetaPosterior(1, 1)] * 3, 10, seed=1)
