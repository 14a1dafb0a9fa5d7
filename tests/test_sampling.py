"""Tests for seed derivation, Beta-law sampling, and CDF transport."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import betainc

from pinvreg.errors import ValidationError
from pinvreg.jacobi import JacobiParams
from pinvreg.sampling import (
    EmpiricalCdf,
    arcsine_quantile,
    cdf_transform,
    derive_rng,
    derive_seed,
    inverse_beta_cdf,
    make_noise,
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
        params = JacobiParams(-0.5, -0.5)
        t = np.linspace(0.01, 0.99, 31)
        closed = inverse_beta_cdf(params, t, method="closed")
        numeric = inverse_beta_cdf(params, t, method="numeric")
        assert np.max(np.abs(closed - numeric)) < 1e-10

    def test_numeric_round_trips_through_cdf(self):
        # the quantile inverts the regularized incomplete Beta function
        t = np.linspace(0.01, 0.99, 49)
        for a, b in [(0.0, 0.0), (0.5, -0.5), (-0.5, 0.5), (0.3, 0.4), (-0.5, -0.5),
                     (3.0, 1.5)]:
            x = inverse_beta_cdf(JacobiParams(a, b), t, method="numeric")
            assert np.all((x > 0.0) & (x < 1.0)) and np.all(np.diff(x) > 0)
            assert_allclose(betainc(a + 1.0, b + 1.0, x), t, rtol=0, atol=1e-12)

    def test_endpoints_exact(self):
        x = inverse_beta_cdf(JacobiParams(0.5, 0.0), np.array([0.0, 1.0]))
        assert x[0] == 0.0 and x[1] == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="quantile"):
            inverse_beta_cdf(JacobiParams(0.0, 0.0), [1.2])

    def test_closed_unavailable_off_arcsine(self):
        with pytest.raises(ValueError, match="closed"):
            inverse_beta_cdf(JacobiParams(0.0, 0.0), [0.5], method="closed")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            inverse_beta_cdf(JacobiParams(0.0, 0.0), [0.5], method="magic")


class TestEmpiricalCdf:
    def test_step_values(self):
        ecdf = EmpiricalCdf(np.array([1.0, 2.0, 3.0]))
        assert_allclose(ecdf([0.0, 1.0, 1.5, 3.0, 4.0]),
                        [0.0, 1 / 3, 1 / 3, 1.0, 1.0], rtol=0)

    def test_interpolated_values(self):
        ecdf = EmpiricalCdf(np.array([1.0, 2.0, 3.0]), interpolate=True)
        assert_allclose(ecdf([1.0, 1.5, 2.0]), [1 / 3, 0.5, 2 / 3], rtol=1e-14)
        assert ecdf(0.0) == 0.0 and ecdf(9.0) == 1.0

    def test_sorts_input(self):
        ecdf = EmpiricalCdf(np.array([3.0, 1.0, 2.0]))
        assert ecdf(1.5) == 1 / 3


class TestCdfTransform:
    def test_uniform_to_arcsine(self):
        rng = np.random.default_rng(8)
        raw = rng.uniform(size=50_000)
        out = cdf_transform(raw, lambda x: np.clip(x, 0, 1),
                            JacobiParams(-0.5, -0.5), to_symmetric=False)
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
        out = cdf_transform(raw, lambda x: x, JacobiParams(0.5, 0.0),
                            to_symmetric=False)
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
