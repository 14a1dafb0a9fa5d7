"""Tests for the normalized Jacobi basis, quadrature, and the uniform bound."""

import itertools
import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad
from scipy.special import betaln, binom, eval_jacobi, gammaln

from pinvreg import jacobi
from pinvreg.jacobi import (
    SYMMETRIC,
    UNIT,
    JacobiBasis,
    JacobiParams,
    eta_ab,
    gauss_jacobi_rule,
    norm_constant,
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

    @pytest.mark.parametrize("a, b", [(511.0, 511.0), (600.0, 600.0), (900.0, 3.0)])
    def test_gamma_at_large_exponents(self, a, b):
        # 2^(a+b+1) alone passes the float range here; the mass does not
        expected = math.exp((a + b + 1.0) * math.log(2.0) + betaln(a + 1.0, b + 1.0))
        assert_allclose(JacobiParams(a, b).gamma_ab, expected, rtol=1e-12)


    @pytest.mark.parametrize("a, b", [(-0.5, 1e5)])
    def test_gamma_past_the_float_range_is_inf(self, a, b):
        # its log-space rounding bound is 4.8e-10, so the overflow is real
        params = JacobiParams(a, b)
        assert params.gamma_ab == math.inf
        assert norm_constant(params, 3) == math.inf

    @pytest.mark.parametrize("a, b", [(1e8, 1e8), (1e12, 1e12), (1e16, 1e16),
                                      (1e18, 1e18), (1e306, 1e306)])
    def test_digitless_gamma_raises(self, a, b):
        # finite, but its log-space terms cancelled: 3.9e55 for 1.8e-8 at 1e16,
        # an exp overflow for 1.77e-9 at 1e18, an lgamma overflow at 1e306
        with pytest.raises(ValueError, match="not representable"):
            JacobiParams(a, b).gamma_ab
        if a > 1e16:     # the raw value reads inf there
            assert norm_constant(JacobiParams(a, b), 3) == math.inf


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


class TestRepresentableBasis:
    @pytest.mark.parametrize("a, b, N", [
        (-0.5, 1e5, 5),        # h_k overflows
        (1e30, 1e30, 5),
        (1000.0, -0.5, 1000),  # every h_k is finite; P_N(1) = C(2000, 1000) is not
    ])
    def test_unrepresentable_basis_raises(self, a, b, N):
        with pytest.raises(ValueError, match="not representable"):
            JacobiBasis(JacobiParams(a, b), N)

    @pytest.mark.parametrize("build, message", [
        (lambda p: norm_constant(p, -1), "degree must be >= 0, got -1"),
        (lambda p: JacobiBasis(p, -1), "degree_max must be >= 0, got -1"),
        (lambda p: JacobiBasis(p, 3, "disc"), "unknown domain 'disc'"),
    ], ids=["norm_constant", "degree_max", "domain"])
    def test_rejects_bad_arguments(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(JacobiParams(0.0, 0.0))

    @pytest.mark.filterwarnings("error")
    def test_large_symmetric_exponents_still_build(self):
        basis = JacobiBasis(JacobiParams(1e5, 1e5), 40)
        assert np.all(np.isfinite(basis.table(np.linspace(-1, 1, 9))))


class TestExactnessLimit:
    """h_k is the exp of a log-space sum whose terms cancel as alpha and beta
    grow; the basis is refused once 2^-52 sum |terms| passes 1e-7."""

    @staticmethod
    def exact_relative_error(a, b, k):
        # 60-digit log-space h_k: its terms cancel, but not at these digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            a, b = mpmath.mpf(a), mpmath.mpf(b)
            log_h = ((a + b + 1) * mpmath.log(2) + mpmath.loggamma(k + a + 1)
                     + mpmath.loggamma(k + b + 1))
            if k == 0:
                log_h -= mpmath.loggamma(a + b + 2)
            else:
                log_h -= (mpmath.loggamma(k + 1) + mpmath.log(2 * k + a + b + 1)
                          + mpmath.loggamma(k + a + b + 1))
            return float(abs(norm_constant(JacobiParams(float(a), float(b)), k)
                             / mpmath.exp(log_h) - 1))

    @pytest.mark.parametrize("a, b", [(10.0**e, 10.0**e) for e in range(1, 15)]
                             + [(10.0**e, -0.5) for e in (3, 7, 11)]
                             + [(3.0, 10.0**e) for e in (4, 9, 13)])
    @pytest.mark.parametrize("k", [0, 1, 40])
    def test_rounding_bound_covers_the_true_error(self, a, b, k):
        _, bound = jacobi._norm_constant(JacobiParams(a, b), k)
        # plus the final exp's own rounding, a few units in the last place
        assert self.exact_relative_error(a, b, k) <= 2.0 * bound + 1e-15

    def test_digits_lost_past_the_limit(self):
        # gamma_ab is off by 7e-7 at alpha = beta = 1e8 and by about 1e-2 at 1e12
        assert self.exact_relative_error(1e8, 1e8, 0) > 1e-7
        assert self.exact_relative_error(1e12, 1e12, 0) > 1e-3

    @pytest.mark.parametrize("a, b", [(1e7, 1e7), (1e8, 1e8), (1e16, 1e16),
                                      (-0.5, 1e15), (1e12, 3.0)])
    def test_digitless_basis_raises(self, a, b):
        with pytest.raises(ValueError, match="not representable"):
            JacobiBasis(JacobiParams(a, b), 5)

    def test_accepted_basis_keeps_its_digits(self):
        params = JacobiParams(2e6, 2e6)
        JacobiBasis(params, 40)
        for k in (0, 1, 40):
            assert self.exact_relative_error(params.alpha, params.beta, k) < 1e-7


class TestConstantCache:
    """JacobiBasis takes its norm constants from one build per (params, N)."""

    def test_equal_bases_share_one_read_only_array(self):
        params = JacobiParams(0.25, 0.75)
        a = JacobiBasis(params, 9)
        b = JacobiBasis(JacobiParams(0.25, 0.75), 9, domain=UNIT)
        assert a._sqrt_h is b._sqrt_h
        with pytest.raises(ValueError, match="read-only"):
            a._sqrt_h[0] = 1.0
        assert JacobiBasis(params, 8)._sqrt_h is not a._sqrt_h
        assert JacobiBasis(JacobiParams(0.75, 0.25), 9)._sqrt_h is not a._sqrt_h

    def test_refused_basis_is_refused_on_every_construction(self):
        message = "Jacobi basis at alpha=1e+16, beta=-0.5, N=5 is not representable in floats"
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                JacobiBasis(JacobiParams(1e16, -0.5), 5)

    @pytest.mark.parametrize("degree_max, error, message", [
        (5.0, TypeError, "'float' object cannot be interpreted as an integer"),
        (np.float64(5.0), TypeError,
         "'numpy.float64' object cannot be interpreted as an integer"),
        (-1.0, ValueError, "degree_max must be >= 0, got -1.0"),
    ])
    def test_accepted_degrees_do_not_follow_the_cache_key(self, degree_max, error,
                                                          message):
        # 5.0 == 5 with one hash, so an lru_cache would take either for the other
        params = JacobiParams(0.0, 0.0)
        JacobiBasis(params, 5)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            JacobiBasis(params, degree_max)

    def test_numpy_integer_degree_shares_the_int_entry(self):
        params = JacobiParams(0.0, 0.5)
        basis = JacobiBasis(params, np.int64(6))
        assert type(basis.degree_max) is int
        assert basis._sqrt_h is JacobiBasis(params, 6)._sqrt_h


class TestExponentTypes:
    """float32, int and float exponents of equal value give the same bits: they
    are equal JacobiParams with one hash, so they share one cache entry."""

    @pytest.mark.parametrize("a, b", [(0.5, 1.5), (0.0, 2.0), (-0.5, 3.0), (7.0, 0.25),
                                      # float32's own values: float32 arithmetic
                                      # rounds the recurrence coefficients
                                      (float(np.float32(0.3)), float(np.float32(2.7)))])
    def test_bit_equal_constants_and_tables(self, a, b):
        variants = [JacobiParams(a, b), JacobiParams(np.float32(a), np.float32(b))]
        if a.is_integer() and b.is_integer():
            variants.append(JacobiParams(int(a), int(b)))
        x = np.linspace(-1.0, 1.0, 41)
        ref, *others = variants
        for params in others:
            assert params == ref and hash(params) == hash(ref)
            for k in range(31):
                assert norm_constant(params, k) == norm_constant(ref, k)
            assert params.gamma_ab == ref.gamma_ab
            assert (params.mu, params.c_ab, eta_ab(params), uniform_bound(params, 7)) == (
                ref.mu, ref.c_ab, eta_ab(ref), uniform_bound(ref, 7))
            assert type(uniform_bound(params, 7)) is float
            assert_array_equal(jacobi._sqrt_norm_constants.__wrapped__(params, 30),
                               jacobi._sqrt_norm_constants.__wrapped__(ref, 30))
            assert_array_equal(jacobi._recurrence_table(params, x, 30),
                               jacobi._recurrence_table(ref, x, 30))

    def test_float32_keeps_the_stored_exponents(self):
        params = JacobiParams(np.float32(0.5), np.float32(1.5))
        basis = JacobiBasis(params, 10)
        assert basis.params is params and type(params.alpha) is np.float32


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


class TestEta:
    @pytest.mark.parametrize("a, b", PAIRS + [(3.0, 1.0), (40.0, 40.0)])
    def test_matches_the_printed_formula(self, a, b):
        mu = max(a, b)
        printed = math.exp(2.0 * max(mu, 0.0) / 12.0 + max(mu * mu + a * b, 0.0) / 8.0) / (
            2.0 ** ((a + b) / 2.0) * math.gamma(mu + 1.0))
        assert_allclose(eta_ab(JacobiParams(a, b)), printed, rtol=1e-12)

    def test_past_the_float_range_is_inf(self):
        # at 53 only the printed numerator overflows; from about 70 eta itself
        # does, since exp(mu^2 / 4) outgrows the gamma factor
        assert math.isfinite(eta_ab(JacobiParams(53.0, 53.0)))
        assert eta_ab(JacobiParams(70.0, 70.0)) == math.inf
        assert eta_ab(JacobiParams(900.0, 900.0)) == math.inf


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
