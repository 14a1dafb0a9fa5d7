"""Tests for seed derivation, Beta-law sampling, and CDF transport."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import betainc, betaincinv, ndtr, ndtri
from scipy.stats import ks_2samp

from pinvreg.design import build_design
from pinvreg.errors import ValidationError
from pinvreg.jacobi import SYMMETRIC, UNIT, JacobiBasis, JacobiParams
from pinvreg.sampling import (
    arcsine_quantile,
    cdf_transform,
    derive_rng,
    derive_seed,
    inverse_beta_cdf,
    make_noise,
    normal_cdf,
    sample_beta_on_I,
    sample_beta_unit,
)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_seed(7, "mc", 3) == derive_seed(7, "mc", 3)

    def test_int_labels_pass_through(self):
        assert derive_seed(0, 3) == (0, 3)

    def test_distinct_labels_distinct_seeds(self):
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a", 1) != derive_seed(0, "a", 2)

    def test_composition_flattens(self):
        # deriving from a derived seed == deriving in one shot
        assert derive_seed(derive_seed(5, "a"), "b") == derive_seed(5, "a", "b")

    def test_rng_streams_reproduce(self):
        a = derive_rng(11, "x").standard_normal(4)
        b = derive_rng(11, "x").standard_normal(4)
        assert_allclose(a, b, rtol=0)

    def test_rng_streams_differ(self):
        a = derive_rng(11, "x").standard_normal(4)
        b = derive_rng(11, "y").standard_normal(4)
        assert not np.allclose(a, b)


class TestBetaSampling:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match=">= 1"):
            sample_beta_on_I(JacobiParams(0.0, 0.0), 0)

    def test_support(self):
        s = sample_beta_on_I(JacobiParams(-0.5, 0.5), 500, seed=1)
        assert np.all(s >= -1.0) and np.all(s <= 1.0)
        u = sample_beta_unit(JacobiParams(-0.5, 0.5), 500, seed=1)
        assert np.all(u >= 0.0) and np.all(u <= 1.0)

    def test_unit_is_affine_image(self):
        sym = sample_beta_on_I(JacobiParams(0.0, 0.5), 100, seed=3)
        unit = sample_beta_unit(JacobiParams(0.0, 0.5), 100, seed=3)
        assert_allclose(unit, (sym + 1.0) / 2.0, rtol=0)

    def test_seed_determinism(self):
        a = sample_beta_on_I(JacobiParams(0.5, 0.5), 50, seed=9)
        b = sample_beta_on_I(JacobiParams(0.5, 0.5), 50, seed=9)
        assert isinstance(a, np.ndarray) and a.shape == (50,)
        assert_allclose(a, b, rtol=0)

    def test_tuple_seed_accepted(self):
        # an int seed and its one-element derived tuple name the same stream
        seed = derive_seed(9, "cell")
        a = sample_beta_on_I(JacobiParams(0.0, 0.0), 20, seed=seed)
        assert not np.allclose(a, sample_beta_on_I(JacobiParams(0.0, 0.0), 20, seed=9))
        assert_allclose(sample_beta_on_I(JacobiParams(0.0, 0.0), 20, seed=(9,)),
                        sample_beta_on_I(JacobiParams(0.0, 0.0), 20, seed=9), rtol=0)

    def test_first_moment(self):
        # u = (x+1)/2 has mean (beta+1)/(alpha+beta+2)
        for a, b in [(-0.5, -0.5), (0.0, 0.5), (0.5, -0.5)]:
            s = sample_beta_on_I(JacobiParams(a, b), 200_000, seed=20240817)
            u = (s + 1.0) / 2.0
            assert abs(u.mean() - (b + 1.0) / (a + b + 2.0)) < 3e-3

    def test_arcsine_ks(self):
        # Kolmogorov-Smirnov against the closed-form arcsine CDF
        s = sample_beta_unit(JacobiParams(-0.5, -0.5), 100_000, seed=4)
        u = np.sort(s)
        cdf = (2.0 / math.pi) * np.arcsin(np.sqrt(u))
        n = len(u)
        ks = max(
            np.max(np.arange(1, n + 1) / n - cdf),
            np.max(cdf - np.arange(n) / n),
        )
        assert ks < 1.36 / math.sqrt(n) * 1.5


class TestNoise:
    def test_sigma_zero_is_zero(self):
        assert_allclose(make_noise(10, 0.0, seed=2), np.zeros(10), rtol=0)

    def test_gaussian_moments(self):
        e = make_noise(200_000, 0.7, family="gaussian", seed=5)
        assert abs(e.mean()) < 5e-3
        assert abs(e.std() - 0.7) < 5e-3

    def test_uniform_bounded_and_scaled(self):
        sigma = 0.4
        e = make_noise(200_000, sigma, family="uniform", seed=6)
        assert np.max(np.abs(e)) <= sigma * math.sqrt(3.0)
        assert abs(e.std() - sigma) < 5e-3

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            make_noise(5, -0.1)

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError, match="family"):
            make_noise(5, 1.0, family="cauchy")


class TestQuantiles:
    def test_arcsine_endpoints(self):
        assert_allclose(arcsine_quantile([0.0, 0.5, 1.0]), [0.0, 0.5, 1.0],
                        atol=1e-15)

    def test_closed_matches_numeric(self):
        # the arcsine closed form against scipy's Beta(1/2, 1/2) inverse
        t = np.linspace(0.01, 0.99, 31)
        closed = inverse_beta_cdf(JacobiParams(-0.5, -0.5), t)
        assert np.max(np.abs(closed - betaincinv(0.5, 0.5, t))) < 1e-10

    def test_numeric_round_trips_through_cdf(self):
        # the quantile, closed form or not, inverts the regularized incomplete
        # Beta function
        t = np.linspace(0.01, 0.99, 49)
        for a, b in [(0.0, 0.0), (0.5, -0.5), (-0.5, 0.5), (0.3, 0.4), (-0.5, -0.5),
                     (3.0, 1.5)]:
            x = inverse_beta_cdf(JacobiParams(a, b), t)
            assert np.all((x > 0.0) & (x < 1.0)) and np.all(np.diff(x) > 0)
            # the law of the basis weight x^b (1-x)^a on [0, 1]
            assert_allclose(betainc(b + 1.0, a + 1.0, x), t, rtol=0, atol=1e-12)

    def test_endpoints_exact(self):
        x = inverse_beta_cdf(JacobiParams(0.5, 0.0), np.array([0.0, 1.0]))
        assert x[0] == 0.0 and x[1] == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="quantile"):
            inverse_beta_cdf(JacobiParams(0.0, 0.0), [1.2])

    def test_uniform_closed_form_is_betaincinv_bit_for_bit(self):
        # the Beta(1, 1) quantile is t itself, which betaincinv returns exactly
        t = np.concatenate([np.random.default_rng(3).random(20_000),
                            np.linspace(0.0, 1.0, 5_001), [5e-324, 1e-300, 1.0 - 2**-53]])
        x = inverse_beta_cdf(JacobiParams(0, 0), t)
        np.testing.assert_array_equal(x, t)
        np.testing.assert_array_equal(x, betaincinv(1.0, 1.0, t))


class TestNormalCdf:
    def test_matches_ndtr(self):
        z = np.linspace(-8.0, 8.0, 100_001)
        assert_allclose(normal_cdf(z), ndtr(z), rtol=4e-15, atol=0)

    def test_tails_are_finite_and_monotone(self):
        z = np.concatenate([-np.logspace(3, -3, 2_001), [0.0], np.logspace(-3, 3, 2_001)])
        u = normal_cdf(z)
        assert np.all(np.isfinite(u)) and np.all((u >= 0.0) & (u <= 1.0))
        assert np.all(np.diff(u) >= 0.0)
        assert u[0] == 0.0 and u[-1] == 1.0 and normal_cdf(0.0) == 0.5

    def test_keeps_the_shape(self):
        z = np.arange(6.0).reshape(2, 3) - 2.5
        assert_allclose(normal_cdf(z), ndtr(z), rtol=4e-15, atol=0)
        assert normal_cdf(z).shape == (2, 3) and normal_cdf(1.0).shape == ()


class TestCdfTransform:
    def test_uniform_to_arcsine(self):
        rng = np.random.default_rng(8)
        raw = rng.uniform(size=50_000)
        out = (cdf_transform(raw, lambda x: np.clip(x, 0, 1),
                             JacobiParams(-0.5, -0.5)) + 1.0) / 2.0
        u = np.sort(out)
        cdf = (2.0 / math.pi) * np.arcsin(np.sqrt(u))
        n = len(u)
        ks = max(
            np.max(np.arange(1, n + 1) / n - cdf),
            np.max(cdf - np.arange(n) / n),
        )
        assert ks < 1.36 / math.sqrt(n) * 1.5

    def test_symmetric_output_range(self):
        raw = np.linspace(0.05, 0.95, 21)
        out = cdf_transform(raw, lambda x: x, JacobiParams(0.0, 0.0))
        assert np.all(out >= -1.0) and np.all(out <= 1.0)

    def test_preserves_order(self):
        raw = np.linspace(0.01, 0.99, 40)
        out = cdf_transform(raw, lambda x: x, JacobiParams(0.5, 0.0))
        assert np.all(np.diff(out) > 0)

    def test_rejects_non_monotone_cdf(self):
        raw = np.linspace(0.0, 1.0, 9)
        with pytest.raises(ValidationError, match="monotone"):
            cdf_transform(raw, lambda x: 0.5 + 0.4 * np.sin(7 * x),
                          JacobiParams(0.0, 0.0))

    def test_rejects_cdf_escaping_unit_interval(self):
        raw = np.linspace(0.0, 1.0, 9)
        with pytest.raises(ValidationError, match="escape"):
            cdf_transform(raw, lambda x: 2.0 * x, JacobiParams(0.0, 0.0))


ASYMMETRIC = [(0.0, 2.0), (1.5, -0.5)]


class TestCdfTransformLaw:
    """Normal draws pushed through the exact-CDF transform follow the law of
    the basis weight, as the direct sampler's draws do, and not its mirror
    image, which differs from it whenever alpha != beta."""

    @pytest.mark.parametrize("domain", [SYMMETRIC, UNIT])
    @pytest.mark.parametrize("a, b", ASYMMETRIC)
    def test_two_sample_ks_against_direct_draws(self, a, b, domain):
        params = JacobiParams(a, b)
        n = 20_000
        direct = (sample_beta_on_I if domain == SYMMETRIC else sample_beta_unit)(
            params, n, seed=1
        )
        z = np.random.default_rng(2).standard_normal(n)
        transformed = cdf_transform(z, ndtr, params)
        if domain == UNIT:
            transformed = (transformed + 1.0) / 2.0
        ks = ks_2samp(transformed, direct).statistic
        assert ks < 1.628 * math.sqrt(2.0 / n)      # the 1% critical value

    @pytest.mark.parametrize("domain", [SYMMETRIC, UNIT])
    @pytest.mark.parametrize("a, b", ASYMMETRIC)
    def test_gram_eigenvalues_near_inverse_gamma(self, a, b, domain):
        # E[Gram] = I / gamma on [-1, 1]; the unit basis carries a further
        # factor 1/2 (its members are the symmetric ones over sqrt(2)).
        # Stratified normal points (the quantiles of a midpoint grid) keep
        # the Monte Carlo spread of a random 5,000-point Gram, often past
        # 10% here, out of the check.
        params = JacobiParams(a, b)
        z = ndtri((np.arange(5_000) + 0.5) / 5_000)
        x = cdf_transform(z, ndtr, params)
        if domain == UNIT:
            x = (x + 1.0) / 2.0
        A = build_design(JacobiBasis(params, 5, domain=domain), x)
        gram = A.T @ A
        expected = 1.0 / params.gamma_ab / (1.0 if domain == SYMMETRIC else 2.0)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert np.all(np.abs(eigenvalues / expected - 1.0) <= 0.1), eigenvalues / expected
