"""Acceptance suite: thirteen numbered end-to-end checks, each printing one
PASS/FAIL summary line (run with -s to see them). Two audits are genuine
expected failures and are marked xfail(strict=True): the degree-2 envelope
violation in criterion 2 and the noisy functional-regression error floor in
criterion 8. Everything else must pass at the stated tolerances."""

import math
import time

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import kstest

from pinvreg.bench import ExperimentConfig, run_table3, timing_comparison
from pinvreg.cli import main
from pinvreg.design import build_design, mc_condition_number, theory_bounds
from pinvreg.jacobi import JacobiBasis, JacobiParams, gauss_jacobi_rule, uniform_bound
from pinvreg.lfr import (
    ineq47_bound,
    lfr_errors,
    lfr_fit,
    lfr_risk_mc,
    simulate_problem,
)
from pinvreg.regression import fit, l2_risk_mc, weierstrass
from pinvreg.sampling import (
    cdf_transform,
    derive_seed,
    inverse_beta_cdf,
    sample_beta_on_I,
)

SEED = 20240817
THREE_LEVELS = (-0.5, 0.0, 0.5)
NINE_PAIRS = [(a, b) for a in THREE_LEVELS for b in THREE_LEVELS]


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")


class TestAcceptance:
    def test_criterion_01_orthonormality(self):
        """Quadrature Gram of the degree-40 basis is the identity to 1e-10."""
        worst = 0.0
        for a, b in NINE_PAIRS:
            params = JacobiParams(a, b)
            basis = JacobiBasis(params, 40)
            rule = gauss_jacobi_rule(params, 41)
            T = basis.table(rule.nodes)
            gram = T.T @ (rule.weights[:, None] * T)
            worst = max(worst, float(np.max(np.abs(gram - np.eye(41)))))
        _line(1, worst < 1e-10, f"max |Gram - I| = {worst:.3e} over 9 weight pairs")
        assert worst < 1e-10

    @pytest.mark.xfail(
        strict=True,
        reason="the degree-2 polynomial exceeds the printed sup-norm envelope "
        "for the five weight pairs with max(alpha, beta) = 1/2 (worst ratio "
        "about 1.059 at alpha = beta = 1/2); the envelope holds from degree 3 "
        "through 40 for every pair",
    )
    def test_criterion_02_sup_norm_envelope(self):
        """Grid max of each normalized polynomial stays within its envelope."""
        # 1e-12 relative slack: several weight pairs attain the envelope with
        # equality at the endpoints, and bare float comparison would count
        # roundoff at 1e-16 as a breach
        grid = np.linspace(-1.0, 1.0, 4001)
        violations = []
        for a, b in NINE_PAIRS:
            params = JacobiParams(a, b)
            table = np.abs(JacobiBasis(params, 40).table(grid))
            for k in range(2, 41):
                ratio = float(np.max(table[:, k])) / uniform_bound(params, k)
                if ratio > 1.0 + 1e-12:
                    violations.append((a, b, k, ratio))
        worst = max((v[3] for v in violations), default=0.0)
        degrees = sorted({v[2] for v in violations})
        _line(2, not violations, f"{len(violations)} envelope violations at "
                                 f"degrees {degrees}, worst ratio {worst:.4f}")
        assert not violations

    def test_criterion_03_pseudo_inverse_oracle(self):
        """Least-squares fit agrees with the normal-equations oracle to 1e-8."""
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for i in range(100):
            a = round(float(rng.uniform(-0.5, 0.5)), 3)
            b = round(float(rng.uniform(-0.5, 0.5)), 3)
            N = int(rng.integers(1, 11))
            n = int(rng.integers(4 * (N + 1), 51))
            basis = JacobiBasis(JacobiParams(a, b), N)
            design = build_design(basis, sample_beta_on_I(basis.params, n,
                                                          derive_seed(SEED, "crit3", i)))
            y = rng.standard_normal(n)
            coeffs = fit(design, y).coeffs
            oracle = np.linalg.solve(design.gram(),
                                     design.matrix.T @ (y / math.sqrt(n)))
            rel = float(np.linalg.norm(coeffs - oracle) / np.linalg.norm(oracle))
            worst = max(worst, rel)
        _line(3, worst < 1e-8, f"worst relative gap {worst:.3e} over 100 instances")
        assert worst < 1e-8

    def test_criterion_04_condition_number_bands(self):
        """Monte Carlo condition numbers sit in the reference bands and under
        the high-probability ceiling."""
        cheb = JacobiParams(-0.5, -0.5)
        mean_a = mc_condition_number(cheb, 25, 5, 50, master_seed=SEED).mean_kappa2
        mean_b = mc_condition_number(JacobiParams(0.0, 0.0), 40, 5, 50,
                                     master_seed=SEED).mean_kappa2
        envelope = mc_condition_number(cheb, 400, 5, 500, master_seed=SEED)
        ceiling = theory_bounds(cheb, 400, 5, chebyshev_sharp=True).kappa_bound(0.1)
        fraction = float(np.mean(envelope.kappas <= ceiling))
        ok = 4.0 <= mean_a <= 13.0 and 4.0 <= mean_b <= 14.0 and fraction >= 0.81
        _line(4, ok, f"means {mean_a:.2f} in [4,13], {mean_b:.2f} in [4,14]; "
                     f"{fraction:.1%} of 500 trials under ceiling {ceiling:.2f}")
        assert 4.0 <= mean_a <= 13.0
        assert 4.0 <= mean_b <= 14.0
        assert fraction >= 0.81

    def test_criterion_05_rough_target_mse(self):
        """Polynomial estimator hits the reference error scale on lacunary
        cosine targets and fits faster than the kernel baseline."""
        means = {}
        for s, N, cap in ((2.0, 10, 1e-2), (1.0, 20, 5e-2)):
            config = ExperimentConfig.from_dict({
                "experiment": "table3", "trials": 10, "sigma": 0.1,
                "s": s, "N": N, "n": 100, "seed": SEED,
            })
            rows = run_table3(config).rows
            means[s] = next(r["value"] for r in rows if r["metric"] == "mse_npreg")
            assert means[s] < cap
        timing = timing_comparison(n=200, degree_max=10, bandwidth=10.0, seed=SEED)
        ok = timing["krr_seconds"] >= timing["npreg_seconds"]
        _line(5, ok, f"mean MSE s=2: {means[2.0]:.3e} < 1e-2, "
                     f"s=1: {means[1.0]:.3e} < 5e-2; kernel/poly fit time "
                     f"{timing['krr_seconds'] / timing['npreg_seconds']:.1f}x")
        assert ok

    def test_criterion_06_truncation_properties(self):
        """Clamp dominance and level hold pointwise each trial, and empirical
        risk stays below the printed bound in both configurations."""
        configs = [
            dict(true_f=lambda x: weierstrass(2.0, x), params=JacobiParams(-0.5, -0.5),
                 n=300, degree_max=9, M=1.5, sigma=0.1, c=0.5, chebyshev_sharp=True),
            dict(true_f=lambda x: 0.3 - 1.1 * x + 0.7 * x * x,
                 params=JacobiParams(0.0, 0.0),
                 n=400, degree_max=5, M=2.5, sigma=0.05, c=0.4),
        ]
        details = []
        for i, kw in enumerate(configs):
            summary = l2_risk_mc(trials=50, seed=derive_seed(SEED, "crit6", i), **kw)
            assert summary.clamp_contraction_ok
            assert summary.clamp_level_ok
            assert summary.condition_ok
            assert summary.mean_risk <= summary.bound
            details.append(f"{summary.mean_risk:.3e} <= {summary.bound:.3e}")
        _line(6, True, "clamp checks pass on 2001-point grids in all 100 trials; "
                       "mean risk vs bound: " + ", ".join(details))

    def test_criterion_07_lfr_noiseless_recovery(self):
        """Dyadic block solver recovers the slope exactly without noise."""
        problem = simulate_problem(300, 50, 2.0, 0.0, seed=derive_seed(SEED, "crit7"))
        e2 = lfr_errors(lfr_fit(problem), problem).e2
        _line(7, e2 <= 1e-10, f"coefficient-space squared error {e2:.3e}")
        assert e2 <= 1e-10

    @pytest.mark.xfail(
        strict=True,
        reason="under sigma = 0.5 noise the unregularized block solves "
        "amplify the error far above the reference scale: measured mean E2 "
        "near 36 and mean E0 near 0.04 versus targets 1e-2 and 5e-3; the "
        "noiseless configuration (criterion 7) recovers to machine precision, "
        "so the gap tracks noise amplification, not a solver defect",
    )
    def test_criterion_08_lfr_noisy_error_scale(self):
        """Noisy functional regression errors at the reference scale."""
        e2s, e0s = [], []
        for t in range(10):
            problem = simulate_problem(300, 50, 2.0, 0.5,
                                       seed=derive_seed(SEED, "crit8", t))
            errors = lfr_errors(lfr_fit(problem), problem)
            e2s.append(errors.e2)
            e0s.append(errors.e0)
        mean_e2, mean_e0 = float(np.mean(e2s)), float(np.mean(e0s))
        ok = mean_e2 < 1e-2 and mean_e0 < 5e-3
        _line(8, ok, f"mean E2 {mean_e2:.3e} vs 1e-2, mean E0 {mean_e0:.3e} vs 5e-3")
        assert mean_e2 < 1e-2
        assert mean_e0 < 5e-3

    def test_criterion_09_cumulative_conditioning(self):
        """Cumulative block condition numbers match the reference magnitudes
        and respect the decay-rate ceiling."""
        reference = {
            (0.75, 20, 100): 12.05, (0.75, 20, 200): 11.22,
            (0.75, 50, 100): 19.66, (0.75, 50, 200): 15.90,
            (1.5, 20, 100): 25.59, (1.5, 20, 200): 21.90,
            (1.5, 50, 100): 41.01, (1.5, 50, 200): 31.39,
        }
        worst_ratio = 0.0
        for (s, size, n), target in reference.items():
            kappas = []
            for t in range(20):
                problem = simulate_problem(
                    n, size, s, 0.0, variant="table2",
                    seed=derive_seed(SEED, "crit9", f"s={s}", size, n, t))
                kappas.append(lfr_fit(problem).cumulative_kappa)
            measured = float(np.mean(kappas))
            assert 0.3 * target <= measured <= 1.5 * target, (s, size, n, measured)
            assert measured <= 1.5 * ineq47_bound(s, size), (s, size, n, measured)
            worst_ratio = max(worst_ratio, measured / target)
        _line(9, True, f"8 cells within [0.3x, 1.5x] of reference values "
                       f"(worst ratio {worst_ratio:.2f}) and under the ceiling")

    def test_criterion_10_cdf_transform(self):
        """Normal draws map to the arcsine law; closed-form quantile matches
        the generic numeric inverse."""
        params = JacobiParams(-0.5, -0.5)
        z = np.random.default_rng(SEED).standard_normal(100_000)
        u = (cdf_transform(z, ndtr, params) + 1.0) / 2.0
        ks = kstest(u, lambda t: 2.0 / np.pi * np.arcsin(np.sqrt(t))).statistic
        ks_cap = 1.36 / math.sqrt(len(z)) * 1.5
        t_grid = np.linspace(0.01, 0.99, 99)
        gap = float(np.max(np.abs(
            inverse_beta_cdf(params, t_grid, method="closed")
            - inverse_beta_cdf(params, t_grid, method="numeric"))))
        ok = ks < ks_cap and gap < 1e-10
        _line(10, ok, f"KS distance {ks:.5f} < {ks_cap:.5f}; "
                      f"closed vs numeric quantile gap {gap:.2e}")
        assert ks < ks_cap
        assert gap < 1e-10

    def test_criterion_11_projection_rate(self):
        """Projection error of |x|^(3/2) decays with log-log slope <= -1.3."""
        basis = JacobiBasis(JacobiParams(-0.5, -0.5), 64)
        nodes, wts = np.polynomial.legendre.leggauss(200)
        coeffs = np.zeros(65)
        for lo, hi in ((0.0, math.pi / 2.0), (math.pi / 2.0, math.pi)):
            theta = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
            w = 0.5 * (hi - lo) * wts
            x = np.cos(theta)
            coeffs += basis.table(x).T @ (w * np.abs(x) ** 1.5)
        norm_sq = 4.0 / 3.0
        degrees = np.array([8, 16, 32, 64])
        errors = np.sqrt([norm_sq - np.sum(coeffs[: N + 1] ** 2) for N in degrees])
        slope = float(np.polyfit(np.log(degrees), np.log(errors), 1)[0])
        _line(11, slope <= -1.3, f"log-log error slope {slope:.3f} <= -1.3")
        assert slope <= -1.3

    def test_criterion_12_cli_determinism(self, tmp_path):
        """Table commands emit byte-identical files across reruns."""
        pairs = []
        for cmd, fmt, ext in (("table1", "csv", "csv"), ("table4", "json", "json")):
            a, b = tmp_path / f"{cmd}-a.{ext}", tmp_path / f"{cmd}-b.{ext}"
            args = [cmd, "--trials", "3", "--seed", str(SEED), "--format", fmt]
            assert main(args + ["--out", str(a)]) == 0
            assert main(args + ["--out", str(b)]) == 0
            identical = a.read_bytes() == b.read_bytes()
            pairs.append(identical)
            assert identical, cmd
        _line(12, all(pairs), "table1 csv and table4 json byte-identical "
                              "across two reruns")

    def test_criterion_13_truncated_lfr_risk(self):
        """Theorem 7: the clamped block estimator's mean L2 risk stays below
        the printed ceiling, and vanishes without noise."""
        kw = dict(n=300, size=50, s=2.0, level=6.0, trials=20,
                  seed=derive_seed(SEED, "crit13"))
        noisy = lfr_risk_mc(sigma=0.5, **kw)
        noiseless = lfr_risk_mc(sigma=0.0, **kw)
        worst = float(np.max(noiseless.risks))
        ok = (noisy.mean_risk <= noisy.bound and noisy.n_singular == 0
              and noisy.truncation_active and worst <= 1e-10)
        # the ceiling is about two orders of magnitude loose here
        _line(13, ok, f"mean risk {noisy.mean_risk:.3e} <= bound {noisy.bound:.3e} "
                      f"(bound/risk {noisy.bound / noisy.mean_risk:.0f}x, a loose "
                      f"ceiling); clamp active; noiseless worst risk {worst:.1e}")
        assert noisy.n_singular == 0 and noisy.truncation_active
        assert noisy.mean_risk <= noisy.bound
        assert len(noiseless.risks) == 20 and worst <= 1e-10
