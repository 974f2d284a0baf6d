"""Special-function and sampling tests against independent oracles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp
from scipy.integrate import trapezoid

from hipllm.numerics import (
    NumericalError,
    RngState,
    beta_cdf,
    derive_substream,
    sample_categorical,
)

# Trapezoid integration of the Beta(4,8) density over [0, 0.3] at step 1e-6.
BETA_CDF_4_8_AT_03 = 0.4304376612

# Substream seeds of RngState(20250817): paths (2, 0, 5) and then (3,).
SUBSTREAM_2_0_5 = 15657588716256560548
SUBSTREAM_2_0_5_3 = 16002436057027477400


def trapezoid_beta_cdf(t, alpha, beta, steps=200_000):
    """Independent oracle: trapezoid quadrature of the Beta density.

    Valid for alpha, beta >= 1 (bounded density).
    """
    x = np.linspace(0.0, t, steps + 1)
    log_norm = math.lgamma(alpha + beta) - math.lgamma(alpha) - math.lgamma(beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        la = np.where(alpha == 1.0, 0.0, (alpha - 1) * np.log(x))
        lb = np.where(beta == 1.0, 0.0, (beta - 1) * np.log1p(-x))
    dens = np.exp(log_norm + la + lb)
    dens[~np.isfinite(dens)] = 0.0
    return trapezoid(dens, x)


class TestBetaCdf:
    def test_uniform(self):
        for t in [0.0, 0.17, 0.5, 1.0]:
            assert beta_cdf(t, 1, 1) == pytest.approx(t, abs=1e-12)

    def test_symmetry(self):
        assert beta_cdf(0.5, 2, 2) == pytest.approx(0.5, abs=1e-12)

    def test_endpoints(self):
        assert beta_cdf(0.0, 4, 8) == 0.0
        assert beta_cdf(1.0, 4, 8) == 1.0

    def test_frozen_trapezoid_oracle_value(self):
        assert beta_cdf(0.3, 4, 8) == pytest.approx(BETA_CDF_4_8_AT_03, abs=1e-9)

    @pytest.mark.parametrize("alpha,beta", [(1, 1), (1, 12), (4, 8), (25, 3), (100, 200)])
    def test_trapezoid_oracle_grid(self, alpha, beta):
        t = np.linspace(0, 1, 101)
        vals = beta_cdf(t, alpha, beta)
        assert np.all(np.diff(vals) >= -1e-15)
        for tk in t[1:-1:10]:
            assert beta_cdf(tk, alpha, beta) == pytest.approx(
                trapezoid_beta_cdf(tk, alpha, beta), abs=1e-6
            )

    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (0.2, 3.0), (7.0, 0.9)])
    def test_mpmath_oracle_for_unbounded_densities(self, alpha, beta):
        # shapes below 1 have singular densities; compare against an
        # arbitrary-precision independent evaluation instead of trapezoids
        import mpmath

        for t in [0.1, 0.3, 0.5, 0.9]:
            ref = float(mpmath.betainc(alpha, beta, 0, t, regularized=True))
            assert beta_cdf(t, alpha, beta) == pytest.approx(ref, abs=1e-9)

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.05, 50.0),
        st.floats(0.05, 50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_property(self, t1, t2, alpha, beta):
        lo, hi = min(t1, t2), max(t1, t2)
        assert beta_cdf(lo, alpha, beta) <= beta_cdf(hi, alpha, beta) + 1e-12

    def test_domain_errors(self):
        with pytest.raises(NumericalError):
            beta_cdf(1.5, 2, 2)
        with pytest.raises(NumericalError):
            beta_cdf(0.5, -1, 2)

    @pytest.mark.parametrize(
        "alpha,beta", [(math.nan, 2.0), (math.inf, 2.0), (2.0, math.nan), (2.0, math.inf)]
    )
    def test_non_finite_shapes_rejected(self, alpha, beta):
        # betainc alone returns nan or 0.0
        with pytest.raises(NumericalError):
            beta_cdf(0.5, alpha, beta)
        with pytest.raises(NumericalError):
            beta_cdf(np.array([0.2, 0.5]), np.array([1.0, alpha]), np.array([1.0, beta]))

    @pytest.mark.parametrize("alpha,beta", [(2.5e-156, 7.5e-156), (1e-160, 1e-150), (1e-300, 3e-301), (5e-101, 1e-200)])
    def test_two_point_limit_for_tiny_parameters(self, alpha, beta):
        # betainc read 1.0 at t = 0.25 and 1.4e-159 at t = 0.75 for
        # Beta(2.5e-156, 7.5e-156), whose CDF is 0.75 all through (0, 1)
        import mpmath

        t = np.array([0.0, 1e-300, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 2**-53, 1.0])
        with mpmath.workdps(30):
            ref = [float(mpmath.betainc(alpha, beta, 0, tk, regularized=True)) for tk in t]
        np.testing.assert_allclose(beta_cdf(t, alpha, beta), ref, rtol=1e-15, atol=0)
        assert np.ndim(beta_cdf(0.5, alpha, beta)) == 0

    def test_nan_from_betainc_refused(self):
        # betainc gives nan at the mean of Beta(1e17 m, 1e17 (1 - m)); an
        # exit-0 report once carried it as a subdomain CDF value
        alpha, beta = 0.75e17, 0.25e17
        assert np.isnan(sp.betainc(alpha, beta, 0.75))
        with pytest.raises(NumericalError, match="betainc gave nan"):
            beta_cdf(np.array([0.5, 0.75]), alpha, beta)


class TestSampling:
    def test_categorical_point_mass(self):
        idx = sample_categorical(RngState(1), [1.0, 0.0, 0.0], size=200)
        assert np.all(idx == 0)

    def test_categorical_frequencies(self):
        w = [0.2, 0.5, 0.3]
        idx = sample_categorical(RngState(5), w, size=100_000)
        freqs = np.bincount(idx, minlength=3) / idx.size
        np.testing.assert_allclose(freqs, w, atol=0.01)

    def test_categorical_unnormalized_rejected(self):
        with pytest.raises(NumericalError):
            sample_categorical(RngState(1), [0.5, 0.6])

    @pytest.mark.parametrize(
        "w", [[math.nan, 0.5, 0.5], [0.5, math.nan, 0.5], [math.inf, 0.5], [0.5, -math.inf, 1.5]]
    )
    def test_categorical_non_finite_rejected(self, w):
        # a nan weight made abs(sum - 1) > 1e-9 False and every draw index 0
        with pytest.raises(NumericalError):
            sample_categorical(RngState(1), w, size=10)


def fixed_uniforms(u):
    """A stand-in for an RngState whose generator returns (a copy of) the
    uniforms u."""
    return SimpleNamespace(gen=SimpleNamespace(random=lambda size=None: np.copy(u)[()]))


def reference_cells(w, u):
    cum = np.cumsum(np.asarray(w, dtype=float))
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right")


def edge_uniforms(w):
    """Uniforms on and next to every cumulative weight and every bucket edge
    of the guide table (m the power of two >= 4G), kept inside [0, 1)."""
    cum = np.cumsum(np.asarray(w, dtype=float))
    m = 1 << (4 * len(w) - 1).bit_length()
    points = np.concatenate([cum, np.arange(m + 1) / m, [0.0]])
    u = np.concatenate([points, np.nextafter(points, 0.0), np.nextafter(points, 1.0)])
    return u[(u >= 0.0) & (u < 1.0)]


def dyadic(counts):
    """The counts, the last one padded to a power-of-two total P, over P:
    exact dyadic weights whose cumulative sums sit on bucket edges."""
    total = 1 << max(sum(counts) - 1, 0).bit_length()
    return np.array(counts[:-1] + [counts[-1] + total - sum(counts)]) / total


dyadic_weights = st.lists(st.integers(0, 8), min_size=1, max_size=64).map(dyadic)
float_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-300, 1.0)), min_size=1, max_size=300
).filter(lambda w: sum(w) > 0.0).map(lambda w: np.asarray(w) / np.sum(w))


class TestGuideTable:
    """sample_categorical's guide table gives exactly the indices of
    np.searchsorted(cum, u, side="right") on the same uniforms."""

    @given(st.one_of(dyadic_weights, float_weights), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_matches_searchsorted(self, w, seed):
        u = np.concatenate([edge_uniforms(w), np.random.default_rng(seed).random(200)])
        np.testing.assert_array_equal(
            sample_categorical(fixed_uniforms(u), w, size=u.size), reference_cells(w, u)
        )
        drawn = sample_categorical(RngState(seed), w, size=300)
        np.testing.assert_array_equal(drawn, reference_cells(w, RngState(seed).gen.random(300)))

    @pytest.mark.parametrize(
        "w",
        [
            [1.0],
            [0.0, 0.0, 1.0, 0.0, 0.0],
            [0.25, 0.0, 0.0, 0.25, 0.0, 0.5, 0.0],
            np.full(64, 1.0 / 64),
            [0.5, 0.25, 0.125, 0.0625, 0.0625, 0.0, 0.0, 0.0],
        ],
        ids=["one-cell", "zero-runs", "dyadic-zero-runs", "uniform-power-of-two", "dyadic-power-of-two"],
    )
    def test_edge_cases(self, w):
        u = edge_uniforms(w)
        np.testing.assert_array_equal(
            sample_categorical(fixed_uniforms(u), w, size=u.size), reference_cells(w, u)
        )

    def test_many_cells_inside_one_bucket(self):
        # 10**4 cells below 1e-15 share one bucket with their neighbours'
        # cumulative sums; uniforms in that bucket go to searchsorted
        w = np.concatenate([[0.5 - 5e-12], np.full(10_000, 1e-15), [0.5 - 5e-12]])
        cum = np.cumsum(w)
        u = np.concatenate([cum[:-1], np.nextafter(cum[:-1], 0.0), np.nextafter(cum[:-1], 1.0)])
        idx = sample_categorical(fixed_uniforms(u), w, size=u.size)
        np.testing.assert_array_equal(idx, reference_cells(w, u))
        assert len(np.unique(idx)) > 5_000

    def test_size_none_gives_a_scalar(self):
        w = [0.2, 0.5, 0.3]
        for u in (0.0, 0.2, 0.69999, 0.7, 1.0 - 2**-53):
            got = sample_categorical(fixed_uniforms(u), w)
            assert np.ndim(got) == 0 and got == reference_cells(w, u)
        got = sample_categorical(RngState(9), w)
        assert np.ndim(got) == 0 and got == reference_cells(w, RngState(9).gen.random())

    def test_shaped_size(self):
        w = [0.1, 0.0, 0.6, 0.3]
        got = sample_categorical(RngState(4), w, size=(3, 5))
        np.testing.assert_array_equal(got, reference_cells(w, RngState(4).gen.random((3, 5))))


class TestSubstreams:
    def test_pure_function(self):
        assert derive_substream(42, (1, 2, 3)) == derive_substream(42, (1, 2, 3))

    def test_distinct_paths(self):
        master = 987654321
        paths = [(0,), (1,), (0, 0), (0, 1), (1, 0), (2, 5, 7), (7, 5, 2), ()]
        seeds = [derive_substream(master, p) for p in paths]
        assert len(set(seeds)) == len(paths)

    def test_injective_over_grid(self):
        seeds = {
            derive_substream(3, (i, j, k))
            for i in range(8)
            for j in range(8)
            for k in range(8)
        }
        assert len(seeds) == 512

    def test_replay_reproduces_streams(self):
        r1 = RngState(77).substream(3, 1)
        r2 = RngState(77).substream(3, 1)
        np.testing.assert_array_equal(r1.gen.random(100), r2.gen.random(100))

    def test_substream_seeds_unchanged(self):
        master = RngState(20250817)
        assert master.substream(2, 0, 5).seed == SUBSTREAM_2_0_5
        assert master.substream(2, 0, 5).substream(3).seed == SUBSTREAM_2_0_5_3


class TestLazyGenerator:
    @staticmethod
    def count_pcg64(monkeypatch):
        seeds = []
        real = np.random.PCG64

        def counting(seed=None):
            seeds.append(seed)
            return real(seed)

        monkeypatch.setattr(np.random, "PCG64", counting)
        return seeds

    def test_built_on_first_use_only(self, monkeypatch):
        built = self.count_pcg64(monkeypatch)
        rng = RngState(77)
        child = rng.substream(3, 1)
        assert built == []
        gen = child.gen
        assert built == [child.seed] and child.gen is gen

    def test_same_draws_as_an_eager_generator(self):
        rng = RngState(2**64 + 5).substream(1, 2)
        eager = np.random.Generator(np.random.PCG64(rng.seed))
        np.testing.assert_array_equal(rng.gen.random(50), eager.random(50))
        np.testing.assert_array_equal(rng.gen.beta(2.0, 3.0, 50), eager.beta(2.0, 3.0, 50))
