"""Tests for the normalized Jacobi basis, quadrature, and the uniform bound."""

import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import binom, eval_jacobi, gammaln

from pinvreg.jacobi import (
    SYMMETRIC,
    UNIT,
    JacobiBasis,
    JacobiParams,
    gauss_jacobi_rule,
    norm_constant,
    norm_constants,
    omega_norm,
    omega_weight,
    uniform_bound,
)

PAIRS = [(-0.5, -0.5), (0.0, 0.0), (0.5, 0.5), (-0.5, 0.5), (0.0, 0.5), (0.5, 0.0)]


class TestJacobiParams:
    def test_rejects_small_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            JacobiParams(-0.6, 0.0)

    def test_rejects_small_beta(self):
        with pytest.raises(ValueError, match="beta"):
            JacobiParams(0.0, -1.0)

    def test_mu_is_max(self):
        assert JacobiParams(0.5, -0.5).mu == 0.5
        assert JacobiParams(-0.5, -0.5).mu == -0.5

    def test_gamma_chebyshev_is_pi(self):
        # 2^0 * B(1/2, 1/2) = pi
        assert_allclose(JacobiParams(-0.5, -0.5).gamma_ab, math.pi, rtol=1e-14)

    def test_gamma_legendre_is_two(self):
        # 2^1 * B(1, 1) = 2
        assert_allclose(JacobiParams(0.0, 0.0).gamma_ab, 2.0, rtol=1e-14)

    def test_gamma_matches_integral(self):
        # gamma_ab is the total mass of the weight
        for a, b in PAIRS:
            params = JacobiParams(a, b)
            mass, _ = quad(lambda x: omega_weight(params, x), -1, 1)
            assert_allclose(params.gamma_ab, mass, rtol=1e-9)


class TestRecurrence:
    """The recurrence evaluator against scipy's independent Jacobi evaluator."""

    def test_matches_scipy_eval_jacobi(self):
        x = np.linspace(-1, 1, 23)
        for a, b in PAIRS:
            params = JacobiParams(a, b)
            basis = JacobiBasis(params, 15)
            sqrt_h = np.sqrt([norm_constant(params, k) for k in range(16)])
            table = basis.table(x) * sqrt_h    # undo the normalization
            for k in range(16):
                assert_allclose(
                    table[:, k], eval_jacobi(k, a, b, x), rtol=1e-12, atol=1e-12
                )

    def test_low_degree_closed_forms(self):
        a, b = 0.5, -0.5
        params = JacobiParams(a, b)
        basis = JacobiBasis(params, 2)
        x = np.linspace(-1, 1, 11)
        sqrt_h = np.sqrt([norm_constant(params, k) for k in range(3)])
        table = basis.table(x) * sqrt_h
        p1 = 0.5 * (a - b) + 0.5 * (a + b + 2) * x
        p2 = (
            0.5 * (a + 1) * (a + 2)
            + (a + 2) * (a + b + 3) * ((x - 1) / 2)
            + 0.5 * (a + b + 3) * (a + b + 4) * ((x - 1) / 2) ** 2
        )
        assert_allclose(table[:, 0], np.ones_like(x), rtol=1e-14)
        assert_allclose(table[:, 1], p1, rtol=1e-13, atol=1e-13)
        assert_allclose(table[:, 2], p2, rtol=1e-12, atol=1e-12)

    def test_value_at_one_is_binomial(self):
        for a, b in PAIRS:
            params = JacobiParams(a, b)
            basis = JacobiBasis(params, 10)
            sqrt_h = np.sqrt([norm_constant(params, k) for k in range(11)])
            row = basis.table(1.0)[0] * sqrt_h
            expected = [binom(k + a, k) for k in range(11)]
            assert_allclose(row, expected, rtol=1e-11)


class TestNormConstants:
    def test_k0_is_gamma(self):
        for a, b in PAIRS:
            params = JacobiParams(a, b)
            assert norm_constant(params, 0) == params.gamma_ab

    def test_matches_numerical_integral(self):
        # h_k = integral of P_k^2 omega, with scipy's evaluator as the oracle
        for a, b in [(-0.5, -0.5), (0.0, 0.5), (0.5, 0.5)]:
            params = JacobiParams(a, b)
            for k in (1, 2, 5, 9):
                val, _ = quad(
                    lambda x: eval_jacobi(k, a, b, x) ** 2 * omega_weight(params, x),
                    -1,
                    1,
                )
                assert_allclose(norm_constant(params, k), val, rtol=1e-8)

    def test_vector_agrees_with_scalar(self):
        params = JacobiParams(0.0, 0.5)
        vec = norm_constants(params, 7)
        assert_allclose(vec, [norm_constant(params, k) for k in range(8)], rtol=1e-15)


class TestOrthonormality:
    def test_gram_is_identity(self):
        for a, b in itertools.product((-0.5, 0.0, 0.5), repeat=2):
            basis = JacobiBasis(JacobiParams(a, b), 12)
            rule = basis.quadrature(20)
            T = basis.table(rule.nodes)
            G = T.T @ (rule.weights[:, None] * T)
            assert np.max(np.abs(G - np.eye(13))) < 1e-12

    def test_unit_domain_gram_is_identity(self):
        # rescaled basis with the folded weight is orthonormal on [0, 1]
        basis = JacobiBasis(JacobiParams(-0.5, -0.5), 10, domain=UNIT)
        rule = basis.quadrature(16)
        assert np.all(rule.nodes >= 0) and np.all(rule.nodes <= 1)
        T = basis.table(rule.nodes)
        G = T.T @ (rule.weights[:, None] * T)
        assert np.max(np.abs(G - np.eye(11))) < 1e-12


class TestUnitDomain:
    def test_affine_relation(self):
        sym = JacobiBasis(JacobiParams(0.0, 0.5), 6)
        unit = JacobiBasis(JacobiParams(0.0, 0.5), 6, domain=UNIT)
        u = np.linspace(0, 1, 9)
        assert_allclose(unit.table(u), sym.table(2 * u - 1) / math.sqrt(2), rtol=1e-13)

    def test_weight_fold(self):
        # the unit basis is orthonormal against the folded weight 4 omega(2u - 1)
        params = JacobiParams(-0.5, 0.0)
        unit = JacobiBasis(params, 3, domain=UNIT)
        gram = [
            [quad(lambda u: (unit.table(u)[0, j] * unit.table(u)[0, k]
                             * 4 * omega_weight(params, 2 * u - 1)), 0, 1)[0]
             for k in range(4)]
            for j in range(4)
        ]
        assert_allclose(gram, np.eye(4), atol=1e-8)

    def test_domain_validation(self):
        basis = JacobiBasis(JacobiParams(0.0, 0.0), 3, domain=UNIT)
        with pytest.raises(ValueError, match="outside"):
            basis.table(np.array([-0.2]))
        sym = JacobiBasis(JacobiParams(0.0, 0.0), 3)
        with pytest.raises(ValueError, match="outside"):
            sym.table(np.array([1.5]))

    @pytest.mark.parametrize("domain", [SYMMETRIC, UNIT])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_points(self, domain, bad):
        basis = JacobiBasis(JacobiParams(0.0, 0.0), 3, domain=domain)
        with pytest.raises(ValueError, match="not finite"):
            basis.table(np.array([0.5, bad]))


class TestQuadrature:
    def test_legendre_order2_nodes(self):
        rule = gauss_jacobi_rule(JacobiParams(0.0, 0.0), 2)
        assert_allclose(np.sort(rule.nodes), [-1 / math.sqrt(3), 1 / math.sqrt(3)],
                        rtol=1e-14)
        assert_allclose(rule.weights, [1.0, 1.0], rtol=1e-14)

    def test_nodes_and_weights_match_the_closed_forms(self):
        # nodes are the zeros of P_n; weights are the Christoffel numbers
        # c / ((1 - x^2) P_n'(x)^2), with P_n' = (n+a+b+1)/2 P_{n-1}^(a+1,b+1)
        n = 14
        for a, b in PAIRS:
            rule = gauss_jacobi_rule(JacobiParams(a, b), n)
            x = rule.nodes
            assert_allclose(eval_jacobi(n, a, b, x), 0.0, atol=1e-13)
            derivative = (n + a + b + 1) / 2 * eval_jacobi(n - 1, a + 1, b + 1, x)
            c = math.exp((a + b + 1) * math.log(2) + gammaln(n + a + 1)
                         + gammaln(n + b + 1) - gammaln(n + a + b + 1) - gammaln(n + 1))
            assert_allclose(rule.weights, c / ((1 - x**2) * derivative**2), rtol=1e-12)

    @pytest.mark.parametrize("domain", [SYMMETRIC, UNIT])
    def test_orthonormalizes_the_basis_at_high_order(self, domain):
        # the estimators integrate at order N + 12; N = 100 is past any default
        for a, b in PAIRS:
            basis = JacobiBasis(JacobiParams(a, b), 100, domain=domain)
            rule = basis.quadrature(112)
            T = basis.table(rule.nodes)
            assert_allclose(T.T @ (rule.weights[:, None] * T), np.eye(101), atol=1e-11)

    def test_exactness_on_monomials(self):
        # an order-n rule integrates x^k omega exactly for k <= 2n-1
        params = JacobiParams(0.5, -0.5)
        rule = gauss_jacobi_rule(params, 6)
        for k in range(12):
            exact, _ = quad(lambda x: x**k * omega_weight(params, x), -1, 1)
            assert_allclose(np.dot(rule.weights, rule.nodes**k), exact, atol=1e-12)

    def test_total_mass(self):
        for a, b in PAIRS:
            params = JacobiParams(a, b)
            rule = gauss_jacobi_rule(params, 5)
            assert_allclose(np.sum(rule.weights), params.gamma_ab, rtol=1e-13)

    def test_order_validation(self):
        with pytest.raises(ValueError, match="order"):
            gauss_jacobi_rule(JacobiParams(0.0, 0.0), 0)

    def test_omega_norm_of_constant(self):
        params = JacobiParams(-0.5, -0.5)
        rule = gauss_jacobi_rule(params, 8)
        assert_allclose(omega_norm(np.ones(8), rule), math.sqrt(math.pi), rtol=1e-13)


class TestUniformBound:
    def test_requires_k_at_least_two(self):
        with pytest.raises(ValueError, match="k"):
            uniform_bound(JacobiParams(0.0, 0.0), 1)

    def test_holds_for_chebyshev_and_legendre(self):
        grid = np.linspace(-1, 1, 20001)
        for a in (-0.5, 0.0):
            params = JacobiParams(a, a)
            basis = JacobiBasis(params, 40)
            T = np.abs(basis.table(grid))
            for k in range(2, 41):
                # equality cases need a relative float slack
                assert T[:, k].max() <= uniform_bound(params, k) * (1 + 1e-12)

    def test_known_failure_at_k2_for_mu_half(self):
        # the printed constant is too small at k=2 when max(alpha,beta)=1/2;
        # the sup exceeds it by 5.85% at alpha=beta=1/2 (see the audit notes)
        params = JacobiParams(0.5, 0.5)
        basis = JacobiBasis(params, 2)
        grid = np.linspace(-1, 1, 20001)
        sup = np.abs(basis.table(grid)[:, 2]).max()
        ratio = sup / uniform_bound(params, 2)
        assert 1.05 < ratio < 1.07

    def test_clean_for_k_three_and_up(self):
        grid = np.linspace(-1, 1, 20001)
        for a, b in [(0.5, 0.5), (0.0, 0.5), (0.5, -0.5)]:
            params = JacobiParams(a, b)
            basis = JacobiBasis(params, 40)
            T = np.abs(basis.table(grid))
            for k in range(3, 41):
                assert T[:, k].max() <= uniform_bound(params, k) * (1 + 1e-12)

    def test_grows_with_k(self):
        params = JacobiParams(0.0, 0.5)
        vals = [uniform_bound(params, k) for k in range(2, 30)]
        assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))
