"""Tests for dyadic-block linear functional regression: partitioning,
simulation, per-block fitting, error norms, and the printed bounds."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import pinvreg.lfr
from pinvreg.design import spectral_report
from pinvreg.errors import SingularBlockError, ValidationError
from pinvreg.lfr import (
    EXAMPLE3,
    TABLE2,
    LfrModel,
    LfrProblem,
    block_factor,
    block_gram,
    cosine_basis,
    dyadic_partition,
    eval_slope,
    example3_coeffs,
    ineq47_bound,
    lfr_errors,
    lfr_fit,
    lfr_risk_mc,
    simulate_problem,
    theorem7_bound,
)
from pinvreg.sampling import derive_rng


class TestDyadicPartition:
    def test_single_index(self):
        assert dyadic_partition(1).blocks == ((1, 1),)

    def test_eight(self):
        p = dyadic_partition(8)
        assert p.blocks == ((1, 2), (3, 4), (5, 8))
        assert p.K == 3

    def test_fifty(self):
        p = dyadic_partition(50)
        assert p.K == 6
        assert p.blocks[-1] == (33, 50)

    def test_exhaustive_disjoint_cover(self):
        # blocks tile [1, size] exactly for every size up to 200
        for size in range(1, 201):
            p = dyadic_partition(size)
            covered = []
            for lo, hi in p.blocks:
                assert lo <= hi
                covered.extend(range(lo, hi + 1))
            assert covered == list(range(1, size + 1))

    def test_widths_double(self):
        p = dyadic_partition(64)
        widths = [hi - lo + 1 for lo, hi in p.blocks]
        assert widths == [2, 2, 4, 8, 16, 32]

    def test_slices_match_blocks(self):
        p = dyadic_partition(10)
        idx = np.arange(1, 11)
        rebuilt = np.concatenate([idx[sl] for sl in p.slices()])
        assert_allclose(rebuilt, idx, rtol=0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="size"):
            dyadic_partition(0)


class TestSlopeFamily:
    def test_first_function_is_constant(self):
        x = np.linspace(0, 1, 7)
        assert_allclose(cosine_basis(1, x), np.ones(7), rtol=0)

    def test_general_form(self):
        x = np.linspace(0, 1, 7)
        assert_allclose(cosine_basis(3, x), math.sqrt(2) * np.cos(3 * math.pi * x),
                        rtol=1e-15)

    def test_orthonormal_on_unit_interval(self):
        nodes, weights = np.polynomial.legendre.leggauss(200)
        nodes = (nodes + 1) / 2
        weights = weights / 2
        for i in range(1, 7):
            for j in range(i, 7):
                inner = float(np.sum(weights * cosine_basis(i, nodes)
                                     * cosine_basis(j, nodes)))
                assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_index_validation(self):
        with pytest.raises(ValueError, match="index"):
            cosine_basis(0, np.array([0.5]))

    def test_eval_slope_matches_sum(self):
        coeffs = np.array([0.5, -1.0, 0.25])
        x = np.linspace(0, 1, 9)
        manual = (0.5 * cosine_basis(1, x) - 1.0 * cosine_basis(2, x)
                  + 0.25 * cosine_basis(3, x))
        assert_allclose(eval_slope(coeffs, x), manual, rtol=1e-14)

    def test_alternating_quadratic_coeffs(self):
        assert_allclose(example3_coeffs(4), [4.0, -1.0, 4.0 / 9.0, -0.25],
                        rtol=1e-15)


class TestSimulateProblem:
    def test_shapes_and_support(self):
        p = simulate_problem(100, 20, 1.5, 0.3, seed=1)
        assert p.Z.shape == (100, 20)
        assert len(p.y_blocks) == p.partition.K
        assert all(len(y) == 100 for y in p.y_blocks)
        root3 = math.sqrt(3.0)
        assert np.all(np.abs(p.Z) <= root3)

    def test_score_variance_is_one(self):
        p = simulate_problem(10_000, 8, 1.0, 0.0, seed=2)
        col_var = p.Z.var(axis=0)
        assert np.all(np.abs(col_var - 1.0) < 0.05)

    def test_refuses_responses_past_the_float_range(self):
        with pytest.raises(ValueError, match="sigma=1e"):
            simulate_problem(300, 50, 2.0, 1e308, seed=0)

    def test_weight_families(self):
        j = np.arange(1, 7, dtype=float)
        pa = simulate_problem(50, 6, 1.2, 0.0, variant=EXAMPLE3, seed=3)
        assert_allclose(pa.xi, (-1.0) ** (j + 1) * j ** (-0.6), rtol=1e-15)
        pb = simulate_problem(50, 6, 1.2, 0.0, variant=TABLE2, seed=3)
        assert_allclose(pb.xi, j ** (-1.2), rtol=1e-15)

    def test_noiseless_responses_are_exact(self):
        p = simulate_problem(60, 10, 2.0, 0.0, seed=4)
        for k, sl in enumerate(p.partition.slices()):
            expected = p.Z[:, sl] @ (p.xi[sl] * p.true_coeffs[sl])
            assert_allclose(p.y_blocks[k], expected, rtol=1e-14)

    def test_noiseless_draws_no_noise_streams(self, monkeypatch):
        # sigma = 0 keeps the responses of signal + 0 * eps, from the Z stream alone
        calls = []

        def counting(*args):
            calls.append(args)
            return derive_rng(*args)

        monkeypatch.setattr(pinvreg.lfr, "derive_rng", counting)
        p = simulate_problem(60, 10, 2.0, 0.0, seed=4)
        assert calls == [(4, "lfr-z")]
        for k, sl in enumerate(p.partition.slices()):
            eps = derive_rng(4, "lfr-eps", k).standard_normal(60)
            expected = p.Z[:, sl] @ (p.xi[sl] * p.true_coeffs[sl]) + 0.0 * eps
            np.testing.assert_array_equal(p.y_blocks[k], expected)

    def test_deterministic(self):
        a = simulate_problem(40, 12, 1.0, 0.5, seed=9)
        b = simulate_problem(40, 12, 1.0, 0.5, seed=9)
        assert_allclose(a.Z, b.Z, rtol=0)
        for ya, yb in zip(a.y_blocks, b.y_blocks):
            assert_allclose(ya, yb, rtol=0)

    def test_validation(self):
        with pytest.raises(ValueError, match="s must"):
            simulate_problem(50, 10, 0.0, 0.1)
        with pytest.raises(ValueError, match="variant"):
            simulate_problem(50, 10, 1.0, 0.1, variant="table9")
        with pytest.raises(ValueError, match="widest"):
            simulate_problem(15, 50, 1.0, 0.1)   # widest block holds 16 indices


class TestBlockGram:
    def test_factor_values(self):
        p = simulate_problem(30, 8, 1.0, 0.0, seed=5)
        F, G = block_gram(p, 2)
        sl = p.partition.slices()[2]
        assert_allclose(F, p.Z[:, sl] * p.xi[sl] / math.sqrt(30), rtol=1e-15)
        assert_allclose(G, F.T @ F, rtol=1e-14)

    def test_factor_is_block_grams_factor(self):
        p = simulate_problem(30, 8, 1.0, 0.0, seed=5)
        for k in range(p.partition.K):
            F, G = block_gram(p, k)
            np.testing.assert_array_equal(block_factor(p, k), F)
            np.testing.assert_array_equal(G, F.T @ F)

    def test_gram_expectation_is_diagonal(self):
        # unit-variance scores: E[G_k] = diag(xi_j^2) over the block
        p = simulate_problem(100_000, 4, 1.0, 0.0, seed=6)
        _, G = block_gram(p, 1)
        sl = p.partition.slices()[1]
        expected = np.diag(p.xi[sl] ** 2)
        assert np.max(np.abs(G - expected)) < 0.05


class TestLfrFit:
    def test_noiseless_recovery(self):
        p = simulate_problem(80, 16, 1.5, 0.0, seed=7)
        model = lfr_fit(p)
        assert_allclose(model.coeffs, p.true_coeffs, rtol=0, atol=1e-10)

    def test_matches_dense_solve_oracle(self):
        # per-block normal equations and Gram spectra as the reference
        p = simulate_problem(60, 12, 1.0, 0.4, seed=8)
        model = lfr_fit(p)
        kappas = []
        for k, sl in enumerate(p.partition.slices()):
            F, G = block_gram(p, k)
            oracle = np.linalg.solve(G, F.T @ (p.y_blocks[k] / math.sqrt(60)))
            assert_allclose(model.block_coeffs[k], oracle, rtol=1e-8, atol=1e-12)
            report = spectral_report(G)
            assert_allclose(model.block_reports[k].eigenvalues, report.eigenvalues,
                            rtol=1e-10)
            kappas.append(report.kappa2)
        assert_allclose(model.cumulative_kappa, sum(kappas), rtol=1e-10)

    def test_cumulative_kappa_sums_blocks(self):
        p = simulate_problem(60, 12, 1.0, 0.4, seed=8)
        model = lfr_fit(p)
        total = sum(r.kappa2 for r in model.block_reports)
        assert model.cumulative_kappa == pytest.approx(total)

    def test_singular_block_raises_with_index(self):
        # duplicate score columns inside block [3, 4] force a singular Gram
        base = simulate_problem(30, 4, 1.0, 0.0, seed=10)
        Z = base.Z.copy()
        Z[:, 3] = Z[:, 2]
        y_blocks = []
        for sl in base.partition.slices():
            y_blocks.append(Z[:, sl] @ (base.xi[sl] * base.true_coeffs[sl]))
        broken = LfrProblem(
            xi=base.xi, true_coeffs=base.true_coeffs, Z=Z,
            y_blocks=tuple(y_blocks), partition=base.partition,
            sigma=0.0, s=1.0,
        )
        with pytest.raises(SingularBlockError, match="block 1") as err:
            lfr_fit(broken)
        assert err.value.block_index == 1


class TestLfrErrors:
    def test_zero_for_perfect_fit(self):
        p = simulate_problem(80, 16, 2.0, 0.0, seed=11)
        model = lfr_fit(p)
        errs = lfr_errors(model, p)
        assert errs.e2 < 1e-20 and errs.e0 < 1e-20

    def test_single_coordinate_arithmetic(self):
        # a delta at j = 16 with s = 2: e2 = delta^2, e0 = delta^2 / 16^2
        p = simulate_problem(80, 16, 2.0, 0.0, seed=11)
        fitted = lfr_fit(p)
        delta = 0.1
        last = np.array(fitted.block_coeffs[-1], copy=True)
        last[-1] += delta
        crafted = LfrModel(
            partition=fitted.partition,
            block_coeffs=fitted.block_coeffs[:-1] + (last,),
            block_reports=fitted.block_reports,
        )
        errs = lfr_errors(crafted, p)
        assert errs.e2 == pytest.approx(delta**2, rel=1e-6)
        assert errs.e0 == pytest.approx(delta**2 / 256.0, rel=1e-6)

    def test_first_coordinate_norms_agree(self):
        # at j = 1 the weight j^(-s) is 1, so both norms see the same delta
        p = simulate_problem(80, 16, 2.0, 0.0, seed=11)
        fitted = lfr_fit(p)
        first = np.array(fitted.block_coeffs[0], copy=True)
        first[0] += 0.2
        crafted = LfrModel(
            partition=fitted.partition,
            block_coeffs=(first,) + fitted.block_coeffs[1:],
            block_reports=fitted.block_reports,
        )
        errs = lfr_errors(crafted, p)
        assert errs.e2 == pytest.approx(0.04, rel=1e-6)
        assert errs.e0 == pytest.approx(0.04, rel=1e-6)

    @pytest.mark.parametrize("sigma", [1e160, 1e200])
    def test_refuses_errors_past_the_float_range(self, sigma):
        # the responses are finite; the squared coefficient error is not, and
        # the refusal comes without an overflow warning
        p = simulate_problem(300, 50, 2.0, sigma, seed=0)
        model = lfr_fit(p)
        with pytest.raises(ValueError, match=re.escape(f"sigma={sigma} puts the coeff")):
            lfr_errors(model, p)


class TestConditionBounds:
    def test_cumulative_bound_value(self):
        s, size = 1.5, 40
        expected = 2.0**s * 1.72 * math.log(size) / (0.63 * math.log(2.0))
        assert ineq47_bound(s, size) == pytest.approx(expected, rel=1e-15)

    def test_cumulative_bound_validation(self):
        with pytest.raises(ValueError, match="size"):
            ineq47_bound(1.0, 1)

    @pytest.mark.parametrize("s", [1023.9, 1024.0, 2000.0, 1e300])
    def test_cumulative_bound_past_the_float_range_is_inf(self, s):
        assert ineq47_bound(s, 20) == math.inf


class TestTheorem7:
    def test_explicit_two_block_value(self):
        p = simulate_problem(40, 4, 1.0, 0.3, seed=2)
        eta = [0.4, 0.2]
        xi_sq = float(np.sum(p.xi**2))
        manual = (
            xi_sq / 40**2 * (0.09 * 2 / 0.16 + 0.09 * 2 / 0.04)
            + 4.0 * 4.0 * p.partition.K / 40.0
        )
        assert theorem7_bound(p, 2.0, r=1.0, eta_k=eta) == pytest.approx(
            manual, rel=1e-12
        )

    def test_single_block_reduction(self):
        # size 1: bound = ||xi||^2 sigma^2 / (n^2 eta^2) + 4 L^2 / n^r
        p = simulate_problem(25, 1, 1.0, 0.7, seed=3)
        eta = 0.5 * 1.0          # default: half the smallest xi^2
        expected = 0.49 / (25.0**2 * eta**2) + 4.0 * 9.0 / 25.0
        assert theorem7_bound(p, 3.0) == pytest.approx(expected, rel=1e-12)

    def test_eta_k_validation(self):
        p = simulate_problem(40, 4, 1.0, 0.3, seed=2)
        with pytest.raises(ValueError, match="eta_k"):
            theorem7_bound(p, 2.0, eta_k=[0.1])
        with pytest.raises(ValueError, match="eta_k"):
            theorem7_bound(p, 2.0, eta_k=[0.1, -0.2])


class TestLfrRiskMc:
    def test_noiseless_risk_vanishes(self):
        summary = lfr_risk_mc(200, 30, 1.5, 0.0, level=6.0, trials=3, seed=5)
        assert np.all(summary.risks <= 1e-10)
        assert summary.n_singular == 0

    def test_risk_below_bound(self):
        summary = lfr_risk_mc(300, 50, 2.0, 0.5, level=6.0, trials=5, seed=77)
        assert np.all(summary.risks <= summary.bound)

    def test_clamp_never_hurts(self):
        tight = lfr_risk_mc(120, 50, 2.0, 1.5, level=5.5, trials=6, seed=31)
        loose = lfr_risk_mc(120, 50, 2.0, 1.5, level=60.0, trials=6, seed=31)
        assert tight.truncation_active
        assert tight.mean_risk <= loose.mean_risk + 1e-12

    @pytest.mark.filterwarnings("error")
    def test_vacuous_bound_past_the_float_range(self):
        # theorem7_bound reads inf without a warning: its sigma^2 |I_k| / eta_k^2
        # overflows at 1e150 and sigma^2 itself at 1e160, where the trial's
        # coefficient error is refused in turn
        assert lfr_risk_mc(300, 50, 2.0, 1e150, level=6.0, trials=1).bound == math.inf
        with pytest.raises(ValueError, match=re.escape("sigma=1e+160 puts the coeff")):
            lfr_risk_mc(300, 50, 2.0, 1e160, level=6.0, trials=1)

    def test_rejects_clamp_below_target_sup(self):
        # sup |beta_0| is about 5.38 for the alternating quadratic slope
        with pytest.raises(ValidationError, match="clamp"):
            lfr_risk_mc(300, 50, 2.0, 0.5, level=5.0, trials=1)

    def test_deterministic(self):
        a = lfr_risk_mc(150, 20, 1.5, 0.5, level=6.0, trials=4, seed=9)
        b = lfr_risk_mc(150, 20, 1.5, 0.5, level=6.0, trials=4, seed=9)
        assert_allclose(a.risks, b.risks, rtol=0)

    def test_parseval_identity_without_clamp(self):
        # coefficient-space risk equals the integrated squared error
        p = simulate_problem(200, 20, 1.5, 0.3, seed=15)
        model = lfr_fit(p)
        base = float(np.sum((model.coeffs - p.true_coeffs) ** 2))
        nodes, weights = np.polynomial.legendre.leggauss(400)
        nodes = (nodes + 1) / 2
        weights = weights / 2
        diff = eval_slope(model.coeffs, nodes) - eval_slope(p.true_coeffs, nodes)
        integral = float(np.sum(weights * diff**2))
        assert integral == pytest.approx(base, rel=1e-8)
