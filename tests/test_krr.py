"""Tests for the sinc-kernel ridge regression baseline."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pinvreg.krr
from pinvreg.errors import RegularizationError
from pinvreg.jacobi import JacobiParams
from pinvreg.krr import (
    DEFAULT_LAMBDA_GRID,
    cross_validate,
    krr_fit,
    sinc_kernel,
)
from pinvreg.sampling import derive_rng, sample_beta_on_I


EPS = np.finfo(float).eps


def per_fold_cv(x, y, grid, folds, c, seed) -> dict:
    """Each ridge's CV error from one krr_fit per (ridge, fold) pair."""
    parts = np.array_split(derive_rng(seed, "cv-folds").permutation(len(x)), folds)
    expected = {}
    for ridge in grid:
        mse = []
        for k, test in enumerate(parts):
            train = np.concatenate(parts[:k] + parts[k + 1:])
            model = krr_fit(x[train], y[train], ridge, c)
            mse.append(np.mean((model.predict(x[test]) - y[test]) ** 2))
        expected[ridge] = float(np.mean(mse))
    return expected


def kappa(x, c, ridge, folds) -> float:
    """(e_max + m ridge) / (e_min + m ridge) over the kernel's eigenvalues,
    m the fewest training points of any fold: the condition number that
    bounds how far two solves of one fold's system round apart."""
    e = np.linalg.eigvalsh(sinc_kernel(x[:, None], x[None, :], c))
    m = len(x) - -(-len(x) // folds)
    return (e[-1] + m * ridge) / (e[0] + m * ridge)


class TestSincKernel:
    def test_diagonal_value(self):
        # limit of sin(c d)/(pi d) as d -> 0 is c/pi
        for c in (1.0, 10.0, 30.0):
            assert sinc_kernel(0.3, 0.3, c) == pytest.approx(c / math.pi)

    def test_symmetry(self):
        x = np.linspace(-1, 1, 9)
        K = sinc_kernel(x[:, None], x[None, :], 10.0)
        assert_allclose(K, K.T, rtol=0)

    def test_off_diagonal_closed_form(self):
        d = 0.37
        assert sinc_kernel(d, 0.0, 10.0) == pytest.approx(
            math.sin(10.0 * d) / (math.pi * d), rel=1e-14
        )

    def test_continuous_near_diagonal(self):
        # values either side of a tiny offset agree with each other and the limit
        assert sinc_kernel(1e-300, 0.0, 25.0) == pytest.approx(25.0 / math.pi)
        left = sinc_kernel(1e-12 * 0.99, 0.0, 25.0)
        right = sinc_kernel(1e-12 * 1.01, 0.0, 25.0)
        assert left == pytest.approx(right, rel=1e-12)

    def test_zeros_at_multiples_of_pi_over_c(self):
        c = 10.0
        assert abs(sinc_kernel(math.pi / c, 0.0, c)) < 1e-15

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError, match="bandwidth"):
            sinc_kernel(0.0, 0.0, 0.0)

    @pytest.mark.filterwarnings("error")
    def test_rejects_bandwidth_past_the_float_range(self):
        x = np.linspace(-1.0, 1.0, 5)
        assert np.all(np.isfinite(sinc_kernel(x[:, None], x[None, :], 8e307)))
        with pytest.raises(ValueError, match=r"bandwidth c=1e\+308 puts c \(x - y\)"):
            sinc_kernel(x[:, None], x[None, :], 1e308)


class TestKrrFit:
    def test_near_interpolation_at_tiny_ridge(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(-1, 1, 40))
        y = np.sin(3 * x)
        model = krr_fit(x, y, ridge=1e-10, bandwidth=20.0)
        assert np.max(np.abs(model.predict(x) - y)) < 1e-4

    def test_heavy_ridge_shrinks_towards_zero(self):
        x = np.linspace(-1, 1, 30)
        y = np.ones(30)
        strong = krr_fit(x, y, ridge=1e3)
        weak = krr_fit(x, y, ridge=1e-6)
        assert np.max(np.abs(strong.predict(x))) < 0.01
        assert np.max(np.abs(weak.predict(x) - 1.0)) < 0.01

    def test_ridge_validation(self):
        x = np.linspace(-1, 1, 10)
        for bad in (0.0, -1e-3, math.inf, math.nan):
            with pytest.raises(ValueError, match="^ridge must be finite and > 0"):
                krr_fit(x, x, ridge=bad)

    def test_not_positive_definite_raises(self):
        # triplicated points make the kernel singular, and 1e-300 is below
        # round-off, so the regularized Gram fails to factor
        x = np.repeat(np.linspace(-1, 1, 10), 3)
        with pytest.raises(RegularizationError, match="ridge=1e-300"):
            krr_fit(x, np.sin(3 * x), ridge=1e-300)

    def test_y_shape_validation(self):
        with pytest.raises(ValueError, match="shape"):
            krr_fit(np.linspace(-1, 1, 10), np.zeros(9), ridge=1e-3)

    def test_accepts_sample_set(self):
        s = sample_beta_on_I(JacobiParams(-0.5, -0.5), 25, seed=3)
        model = krr_fit(s, np.cos(s), ridge=1e-4)
        assert_allclose(model.anchors, s, rtol=0)

    def test_smooth_target_accuracy(self):
        # band-limited kernel approximates a low-frequency target well
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(-1, 1, 200))
        f = lambda t: np.sin(2 * t) + 0.5 * np.cos(t)
        model = krr_fit(x, f(x), ridge=1e-8, bandwidth=10.0)
        grid = np.linspace(-0.9, 0.9, 301)
        assert np.max(np.abs(model.predict(grid) - f(grid))) < 1e-3


class TestCrossValidate:
    def test_selects_reasonable_ridge_under_noise(self):
        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(-1, 1, 120))
        y = np.sin(2 * x) + 0.1 * rng.standard_normal(120)
        res = cross_validate(x, y, seed=1)
        assert res.ridge in [float(r) for r in DEFAULT_LAMBDA_GRID]
        assert res.cv_errors[res.ridge] == min(res.cv_errors.values())
        grid = np.linspace(-0.9, 0.9, 201)
        assert np.mean((res.model.predict(grid) - np.sin(2 * grid)) ** 2) < 5e-3

    def test_tie_break_prefers_larger_ridge(self):
        # y = 0 makes every ridge a perfect zero predictor: all errors tie
        x = np.linspace(-1, 1, 30)
        res = cross_validate(x, np.zeros(30), seed=0)
        assert res.ridge == pytest.approx(1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, 60)
        y = np.cos(x) + 0.05 * rng.standard_normal(60)
        a = cross_validate(x, y, seed=4)
        b = cross_validate(x, y, seed=4)
        assert a.ridge == b.ridge
        assert a.cv_errors == b.cv_errors

    def test_folds_validation(self):
        x = np.linspace(-1, 1, 10)
        with pytest.raises(ValueError, match="folds"):
            cross_validate(x, x, folds=1)
        with pytest.raises(ValueError, match="folds"):
            cross_validate(x, x, folds=11)

    def test_custom_grid(self):
        x = np.linspace(-1, 1, 40)
        y = np.sin(x)
        res = cross_validate(x, y, grid=(1e-6, 1e-3), seed=2)
        assert set(res.cv_errors) == {1e-6, 1e-3}

    def test_matches_per_fold_krr_fit_loop(self):
        # reference: one krr_fit per (ridge, fold) pair, each rebuilding its kernel
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, 47)
        y = np.sin(4 * x) + 0.1 * rng.standard_normal(47)
        grid, folds, c = (1e-8, 1e-5, 1e-3, 1e-1), 4, 12.0
        res = cross_validate(x, y, grid=grid, folds=folds, bandwidth=c, seed=3)
        expected = per_fold_cv(x, y, grid, folds, c, seed=3)
        assert set(res.cv_errors) == set(expected)
        # the block-inverse shortcut and the per-fold solves round apart by
        # the conditioning of the regularized kernel, no more
        for ridge in grid:
            bound = 10 * kappa(x, c, ridge, folds) * EPS
            assert res.cv_errors[ridge] == pytest.approx(expected[ridge], rel=bound)
        assert res.ridge == min(expected, key=expected.get)

    def test_non_pd_fold_scores_inf_and_next_ridge_wins(self):
        # triplicated points make every training kernel singular; 1e-300 is
        # below round-off, so its regularized fold Gram fails to factor
        x = np.repeat(np.linspace(-1, 1, 10), 3)
        res = cross_validate(x, np.sin(3 * x), grid=(1e-300, 1e-3), seed=0)
        assert res.cv_errors[1e-300] == math.inf
        assert math.isfinite(res.cv_errors[1e-3])
        assert res.ridge == 1e-3

    def test_failed_factorisation_does_not_leak(self):
        # the first ridge is not positive definite and drops out of each
        # fold's solve; every later ridge still matches its own per-fold krr_fit
        x = np.repeat(np.linspace(-1, 1, 10), 3)
        y = np.sin(3 * x)
        grid, folds = (1e-300, 1e-3, 1e-1), 5
        res = cross_validate(x, y, grid=grid, folds=folds, seed=0)
        expected = per_fold_cv(x, y, grid[1:], folds, 10.0, seed=0)
        for ridge in grid[1:]:
            bound = 10 * kappa(x, 10.0, ridge, folds) * EPS
            assert res.cv_errors[ridge] == pytest.approx(expected[ridge], rel=bound)
        assert res.cv_errors[1e-300] == math.inf
        with pytest.raises(RegularizationError):
            krr_fit(x, y, 1e-300)

    def test_matches_a_40_digit_reference(self):
        # every (fold, ridge) system solved in 40-digit arithmetic from the
        # same float inputs; the float kernel's own rounding is inside the bound
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, 20)
        y = np.cos(3 * x) + 0.1 * rng.standard_normal(20)
        grid, folds, c = (1e-6, 1e-3, 1e-1), 4, 10.0
        res = cross_validate(x, y, grid=grid, folds=folds, bandwidth=c, seed=2)
        parts = np.array_split(derive_rng(2, "cv-folds").permutation(20), folds)
        with mpmath.workdps(40):
            def kernel(a, b):
                d = mpmath.mpf(a) - mpmath.mpf(b)
                return c / mpmath.pi if d == 0 else mpmath.sin(c * d) / (mpmath.pi * d)

            for ridge in grid:
                mse = []
                for k, test in enumerate(parts):
                    train = np.concatenate(parts[:k] + parts[k + 1:])
                    m = len(train)
                    G = mpmath.matrix([[kernel(x[i], x[j]) / m + (ridge if i == j else 0)
                                        for j in train] for i in train])
                    w = mpmath.lu_solve(G, mpmath.matrix([y[i] / m for i in train]))
                    mse.append(sum((sum(kernel(x[i], x[j]) * w[q]
                                        for q, j in enumerate(train)) - y[i]) ** 2
                                   for i in test) / len(test))
                exact = float(sum(mse) / folds)
                bound = 10 * kappa(x, c, ridge, folds) * EPS
                assert res.cv_errors[ridge] == pytest.approx(exact, rel=bound)

    def test_ridges_near_the_float_limit_stay_finite(self):
        # m * ridge passes the float range here; the scale-free weights keep
        # S = V_s V_s', so each held-out residual is -y_s: the zero predictor
        rng = np.random.default_rng(8)
        x = rng.uniform(-1, 1, 144)
        y = np.cos(x)
        grid = (6.1e307, 1.28e307, 6.1e307)
        res = cross_validate(x, y, grid=grid, seed=0)
        parts = np.array_split(derive_rng(0, "cv-folds").permutation(144), 5)
        zero = float(np.mean([np.mean(y[test] ** 2) for test in parts]))
        assert set(res.cv_errors) == {6.1e307, 1.28e307}
        for error in res.cv_errors.values():
            assert error == pytest.approx(zero, rel=1e-14)
        assert res.ridge == 6.1e307
        assert np.all(np.isfinite(res.model.weights))
        assert np.max(np.abs(res.model.predict(x))) < 1e-300

    def test_builds_kernel_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return sinc_kernel(*args, **kwargs)

        monkeypatch.setattr(pinvreg.krr, "sinc_kernel", counting)
        x = np.linspace(-1, 1, 40)
        cross_validate(x, np.cos(3 * x), seed=5)
        assert len(calls) == 1

    def test_rejects_nonpositive_ridge_in_grid(self):
        x = np.linspace(-1, 1, 20)
        for bad in (0.0, -1e-3, math.inf, math.nan):
            with pytest.raises(ValueError, match="ridge"):
                cross_validate(x, np.sin(x), grid=(1e-3, bad))

    @pytest.mark.parametrize("where", ["x", "y"])
    @pytest.mark.parametrize("fn", [
        lambda x, y: cross_validate(x, y, seed=0),
        lambda x, y: krr_fit(x, y, ridge=1e-3),
    ], ids=["cross_validate", "krr_fit"])
    def test_rejects_non_finite_inputs(self, fn, where):
        x = np.linspace(-1, 1, 20)
        y = np.sin(x)
        (x if where == "x" else y)[7] = math.nan
        with pytest.raises(ValueError, match="finite"):
            fn(x, y)

    def test_y_length_validation(self):
        x = np.linspace(-1, 1, 20)
        with pytest.raises(ValueError, match="shape"):
            cross_validate(x, np.zeros(19))

    def test_refit_uses_all_data(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-1, 1, 50)
        y = np.sin(3 * x)
        res = cross_validate(x, y, seed=6)
        direct = krr_fit(x, y, res.ridge)
        assert_allclose(res.model.weights, direct.weights, rtol=1e-12)
