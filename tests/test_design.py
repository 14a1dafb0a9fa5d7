"""Tests for random design matrices, spectral reports, and stability bounds."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pinvreg import design
from pinvreg.design import (
    build_design,
    least_squares,
    mc_condition_number,
    spectral_report,
    theory_bounds,
)
from pinvreg.jacobi import JacobiBasis, JacobiParams
from pinvreg.sampling import cdf_transform, derive_seed, normal_cdf, sample_beta_on_I


class TestBuildDesign:
    def test_rejects_underdetermined(self):
        basis = JacobiBasis(JacobiParams(0.0, 0.0), 5)
        with pytest.raises(ValueError, match="underdetermined"):
            build_design(basis, np.linspace(-0.9, 0.9, 4))
        with pytest.raises(ValueError, match="underdetermined"):   # 7 trials of 4
            build_design(basis, np.zeros((7, 4)))

    def test_scaling(self):
        basis = JacobiBasis(JacobiParams(0.0, 0.0), 2)
        pts = np.linspace(-0.8, 0.8, 7)
        d = build_design(basis, pts)
        assert_allclose(d.matrix, basis.table(pts) / math.sqrt(7), rtol=1e-15)
        assert d.n == 7 and d.matrix.shape == (7, 3)

    def test_accepts_sample_set(self):
        basis = JacobiBasis(JacobiParams(-0.5, -0.5), 3)
        s = sample_beta_on_I(JacobiParams(-0.5, -0.5), 20, seed=1)
        d = build_design(basis, s)
        assert_allclose(d.matrix, basis.table(s) / np.sqrt(20), rtol=0)

    def test_gram_is_mtm(self):
        basis = JacobiBasis(JacobiParams(0.5, 0.0), 2)
        d = build_design(basis, np.linspace(-0.5, 0.5, 9))
        assert_allclose(d.gram(), d.matrix.T @ d.matrix, rtol=1e-15)

    @pytest.mark.parametrize("alpha, beta, N, n", [
        (-0.5, -0.5, 5, 25), (0.5, 0.0, 10, 40), (2.0, -0.3, 30, 100)])
    def test_stack_matches_per_trial_designs(self, alpha, beta, N, n):
        params = JacobiParams(alpha, beta)
        basis = JacobiBasis(params, N)
        xs = np.stack([sample_beta_on_I(params, n, seed=t) for t in range(7)])
        stack = build_design(basis, xs)
        assert stack.n == n and stack.matrix.shape == (7, n, N + 1)
        grams = stack.gram()
        for t in range(7):
            single = build_design(basis, xs[t])
            np.testing.assert_array_equal(stack.matrix[t], single.matrix)
            np.testing.assert_array_equal(grams[t], single.gram())

    def test_gram_expectation_is_identity_over_gamma(self):
        # the population Gram of the omega-orthonormal system under the
        # matched Beta law is I / gamma_ab
        params = JacobiParams(0.0, 0.0)
        basis = JacobiBasis(params, 4)
        s = sample_beta_on_I(params, 200_000, seed=20240817)
        G = build_design(basis, s).gram()
        assert np.max(np.abs(G - np.eye(5) / params.gamma_ab)) < 0.01


class TestSpectralReport:
    def test_two_by_two(self):
        r = spectral_report(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert_allclose(r.eigenvalues, [1.0, 3.0], rtol=1e-14)
        assert_allclose(r.kappa2, 3.0, rtol=1e-14)
        assert not r.near_singular

    def test_singular_matrix_flagged(self):
        r = spectral_report(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert r.near_singular
        assert r.kappa2 == math.inf

    def test_fixed_rule_boundary(self):
        # near singular means lambda_min <= 1e-12 lambda_max
        assert spectral_report(np.diag([1.0, 1e-13])).near_singular
        assert not spectral_report(np.diag([1.0, 1e-11])).near_singular

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            spectral_report(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            spectral_report(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_symmetrizes_roundoff(self):
        A = np.array([[2.0, 1.0 + 1e-12], [1.0, 2.0]])
        r = spectral_report(A)
        assert_allclose(r.eigenvalues, [1.0, 3.0], rtol=1e-9)


def _stack():
    # six 5x5 Grams: one rank one, one symmetric only up to round-off
    rng = np.random.default_rng(3)
    stack = []
    for _ in range(6):
        F = rng.standard_normal((30, 5))
        stack.append(F.T @ F)
    stack[2] = np.ones((5, 5))                     # rank one: near singular
    stack[4][0, 1] = stack[4][1, 0] + 1e-13        # symmetrized round-off
    return np.stack(stack)


def _stack_reports(stack):
    # per-matrix reports read off the batched eigvalsh that _kappas uses
    return [design._report(e) for e in design._eigenvalues(stack)]


class TestSpectralReports:
    """The batched eigenvalue path against the per-matrix reports."""

    def test_matches_per_matrix_reports_exactly(self):
        stack = _stack()
        reports = _stack_reports(stack)
        assert len(reports) == len(stack)
        for A, r in zip(stack, reports):
            single = spectral_report(A)
            np.testing.assert_array_equal(r.eigenvalues, single.eigenvalues)
            assert r.near_singular == single.near_singular
            assert r.kappa2 == single.kappa2
        assert [r.near_singular for r in reports] == [False, False, True, False, False, False]

    def test_fixed_rule_boundary_applies_to_each(self):
        stack = np.stack([np.diag([1.0, 1e-13]), np.diag([1.0, 1e-11])])
        assert [r.near_singular for r in _stack_reports(stack)] == [True, False]

    def test_rejects_any_asymmetric_member(self):
        stack = _stack()
        stack[5][0, 3] += 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            _stack_reports(stack)
        with pytest.raises(ValueError, match="symmetric"):
            spectral_report(stack[5])

    def test_rejects_non_stack_shapes(self):
        for shape in ((4, 4), (2, 3, 4)):
            with pytest.raises(ValueError, match="square"):
                _stack_reports(np.ones(shape))
        with pytest.raises(ValueError, match="square"):
            spectral_report(np.ones((1, 2, 2)))


class TestKappas:
    """The stacked kappa2 helper against the per-matrix reports."""

    def test_matches_spectral_report_kappa2(self):
        stack = _stack()
        kappas = design._kappas(stack)
        assert kappas.tolist() == [spectral_report(A).kappa2 for A in stack]
        assert [k == math.inf for k in kappas] == [False, False, True, False, False,
                                                   False]

    def test_fixed_rule_boundary(self):
        stack = np.stack([np.diag([1.0, 1e-13]), np.diag([1.0, 1e-11])])
        kappas = design._kappas(stack)
        assert kappas.tolist() == [spectral_report(A).kappa2 for A in stack]
        assert kappas[0] == math.inf and kappas[1] == pytest.approx(1e11)

    def test_nonpositive_spectrum_is_singular(self):
        stack = np.stack([np.zeros((2, 2)), -np.eye(2), np.diag([-1.0, 1.0])])
        assert design._kappas(stack).tolist() == [math.inf] * 3

    def test_checks_like_spectral_reports(self):
        # an asymmetric member fails the stack and its own report alike
        stack = _stack()
        stack[5][0, 3] += 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            design._kappas(stack)
        with pytest.raises(ValueError, match="symmetric"):
            spectral_report(stack[5])
        for shape in ((4, 4), (2, 3, 4)):
            with pytest.raises(ValueError, match="square"):
                design._kappas(np.ones(shape))
        with pytest.raises(ValueError, match="square"):
            spectral_report(np.ones((1, 2, 2)))


class TestTheoryBounds:
    def test_sharp_constant_is_two_over_pi(self):
        tb = theory_bounds(JacobiParams(-0.5, -0.5), 100, 3, chebyshev_sharp=True)
        assert_allclose(tb.m_sq, 2.0 / math.pi, rtol=1e-15)

    def test_sharp_requires_chebyshev(self):
        with pytest.raises(ValueError, match="sharp"):
            theory_bounds(JacobiParams(0.0, 0.0), 100, 3, chebyshev_sharp=True)

    def test_overflowing_power_reads_inf(self):
        # eta_{30,30}^2 is finite, but (N+1)^(2 mu + 2) passes the float range
        tb = theory_bounds(JacobiParams(30.0, 30.0), 10**6, 10**5)
        assert math.isfinite(tb.m_sq)
        assert tb.L_N == math.inf and tb.kappa_bound(0.1) == math.inf
        assert tb.condition1_ok is False

    def test_sharp_chebyshev_l_n(self):
        # mu = -1/2 so (N+1)^(2 mu + 2) = N + 1
        tb = theory_bounds(JacobiParams(-0.5, -0.5), 400, 5, chebyshev_sharp=True)
        assert_allclose(tb.L_N, (2.0 / math.pi) * 6.0, rtol=1e-14)

    def test_condition_flag_monotone_in_n(self):
        params = JacobiParams(0.0, 0.5)
        assert not theory_bounds(params, 30, 4).condition1_ok
        assert theory_bounds(params, 10_000, 4).condition1_ok

    def test_condition_flag_is_a_bool(self):
        tb = theory_bounds(JacobiParams(-0.5, -0.5), 400, 5, chebyshev_sharp=True)
        assert isinstance(tb.condition1_ok, bool)

    def test_kappa_bound_value(self):
        tb = theory_bounds(JacobiParams(-0.5, -0.5), 400, 5, chebyshev_sharp=True)
        assert_allclose(tb.kappa_bound(0.1), 15.161783066535596, rtol=1e-12)

    def test_kappa_bound_vacuous_for_small_n(self):
        tb = theory_bounds(JacobiParams(-0.5, -0.5), 10, 5)
        assert tb.kappa_bound(0.1) == math.inf

    def test_kappa_bound_delta_validation(self):
        tb = theory_bounds(JacobiParams(-0.5, -0.5), 400, 5)
        for bad in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError, match="delta"):
                tb.kappa_bound(bad)

    def test_degree_and_n_validation(self):
        with pytest.raises(ValueError, match="degree_max"):
            theory_bounds(JacobiParams(0.0, 0.0), 100, 1)
        with pytest.raises(ValueError, match="n"):
            theory_bounds(JacobiParams(0.0, 0.0), 0, 3)


class TestMcConditionNumber:
    def test_deterministic(self):
        a = mc_condition_number(JacobiParams(-0.5, -0.5), 30, 3, trials=8,
                                master_seed=5)
        b = mc_condition_number(JacobiParams(-0.5, -0.5), 30, 3, trials=8,
                                master_seed=5)
        assert_allclose(a.kappas, b.kappas, rtol=0)

    def test_seed_changes_draws(self):
        a = mc_condition_number(JacobiParams(-0.5, -0.5), 30, 3, trials=8,
                                master_seed=5)
        b = mc_condition_number(JacobiParams(-0.5, -0.5), 30, 3, trials=8,
                                master_seed=6)
        assert not np.allclose(a.kappas, b.kappas)

    def test_degenerate_degree_zero(self):
        # a single basis function always has condition number one
        mc = mc_condition_number(JacobiParams(0.0, 0.0), 40, 0, trials=5,
                                 master_seed=3)
        assert_allclose(mc.kappas, np.ones(5), rtol=1e-12)

    def test_transform_path_runs(self):
        mc = mc_condition_number(JacobiParams(-0.5, -0.5), 50, 3, trials=4,
                                 transform="standard_normal", master_seed=7)
        assert np.all(np.isfinite(mc.kappas)) and len(mc.kappas) == 4

    def test_kappas_sorted(self):
        mc = mc_condition_number(JacobiParams(0.0, 0.0), 60, 4, trials=10,
                                 master_seed=2)
        assert np.all(np.diff(mc.kappas) >= 0)
        assert mc.mean_kappa2 == pytest.approx(mc.kappas.mean())

    def test_validation(self):
        with pytest.raises(ValueError, match="trials"):
            mc_condition_number(JacobiParams(0.0, 0.0), 30, 3, trials=0)
        with pytest.raises(ValueError, match="transform"):
            mc_condition_number(JacobiParams(0.0, 0.0), 30, 3, trials=2,
                                transform="cauchy")
        for transform in (None, "standard_normal"):
            with pytest.raises(ValueError, match="underdetermined"):
                mc_condition_number(JacobiParams(0.0, 0.0), 3, 3, trials=2,
                                    transform=transform)

    @pytest.mark.parametrize("transform", [None, "standard_normal"])
    @pytest.mark.parametrize("alpha, beta", [(-0.5, -0.5), (0.5, 0.0)])
    def test_matches_per_trial_reference(self, alpha, beta, transform):
        # reference: one design, Gram and spectral report per trial, with the
        # production normal CDF: the subject is batched against per trial
        params = JacobiParams(alpha, beta)
        basis = JacobiBasis(params, 6)
        mc = mc_condition_number(params, 40, 6, trials=9, transform=transform,
                                 master_seed=11)
        tag = "direct" if transform is None else transform
        kappas = []
        for t in range(9):
            seed = derive_seed(11, f"mc-{tag}", t)
            if transform is None:
                samples = sample_beta_on_I(params, 40, seed)
            else:
                z = np.random.default_rng(seed).standard_normal(40)
                samples = cdf_transform(z, normal_cdf, params)
            kappas.append(spectral_report(build_design(basis, samples).gram()).kappa2)
        assert mc.n_singular == 0
        np.testing.assert_array_equal(mc.kappas, np.sort(kappas))

    def test_singular_trial_is_counted(self, monkeypatch):
        draw = design.sample_beta_on_I
        seeds = []

        def sampler(params, n, seed):
            # the second trial draws one point n times: a rank-one Gram
            x = draw(params, n, seed)
            seeds.append(seed)
            return np.full(n, x[0]) if len(seeds) == 2 else x

        params = JacobiParams(0.0, 0.0)
        monkeypatch.setattr(design, "sample_beta_on_I", sampler)
        mc = mc_condition_number(params, 30, 3, trials=4, master_seed=5)
        monkeypatch.undo()
        full = mc_condition_number(params, 30, 3, trials=4, master_seed=5)
        assert mc.n_singular == 1 and full.n_singular == 0
        assert len(mc.kappas) == 3 and set(mc.kappas) < set(full.kappas)


class TestLeastSquares:
    def test_report_matches_gram_spectrum(self):
        params = JacobiParams(0.0, 0.5)
        basis = JacobiBasis(params, 6)
        x = sample_beta_on_I(params, 50, seed=4)
        design = build_design(basis, x)
        y = np.cos(x)
        coeffs, report = least_squares(design.matrix, y)
        direct = spectral_report(design.gram())
        assert_allclose(report.eigenvalues, direct.eigenvalues, rtol=1e-12)
        assert_allclose(report.kappa2, direct.kappa2, rtol=1e-12)
        assert not report.near_singular
        assert_allclose(coeffs, np.linalg.pinv(design.matrix) @ y, rtol=1e-12, atol=1e-13)

    def test_wide_matrix_is_near_singular(self):
        # two rows cannot determine three columns: the missing singular
        # value counts as a zero Gram eigenvalue
        coeffs, report = least_squares(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]]),
                                       np.ones(2))
        assert report.eigenvalues.shape == (3,) and report.eigenvalues[0] == 0.0
        assert report.near_singular and report.kappa2 == math.inf
