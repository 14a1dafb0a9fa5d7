"""Tests for the pseudo-inverse regression fit, RANSAC, the clamped-risk
Monte Carlo, and the lacunary cosine target."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import pinvreg
from pinvreg import regression
from pinvreg.design import _mean, build_design, spectral_report
from pinvreg.errors import RobustFitError, StabilityError
from pinvreg.jacobi import JacobiBasis, JacobiParams, omega_norm
from pinvreg.regression import (
    fit,
    l2_risk_mc,
    load_model,
    ransac_fit,
    save_model,
    weierstrass,
)
from pinvreg.sampling import derive_rng, sample_beta_on_I

PARAMS = JacobiParams(-0.5, -0.5)


def poly(x):
    return 0.3 - 1.1 * x + 0.7 * x**2


class TestFit:
    def test_matches_normal_equations(self):
        # least-squares solution against the explicit pseudo-inverse oracle
        basis = JacobiBasis(PARAMS, 4)
        s = sample_beta_on_I(PARAMS, 80, seed=1)
        y = np.sin(2 * s)
        B = build_design(basis, s)
        model = fit(B, y, basis)
        oracle = np.linalg.solve(B.T @ B, B.T @ (y / math.sqrt(80)))
        assert_allclose(model.coeffs, oracle, rtol=1e-10, atol=1e-12)

    def test_recovers_polynomial_exactly(self):
        # a degree-2 target lies in the span: zero residual up to roundoff
        basis = JacobiBasis(PARAMS, 4)
        s = sample_beta_on_I(PARAMS, 50, seed=2)
        model = fit(build_design(basis, s), poly(s), basis)
        grid = np.linspace(-1, 1, 101)
        assert np.max(np.abs(model.predict(grid) - poly(grid))) < 1e-12

    def test_y_shape_validation(self):
        basis = JacobiBasis(PARAMS, 2)
        design = build_design(basis, np.linspace(-0.9, 0.9, 10))
        with pytest.raises(ValueError, match="shape"):
            fit(design, np.zeros(9), basis)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_response_raises(self, bad):
        # gelsd would return all-NaN coefficients under a clean fit_report
        basis = JacobiBasis(PARAMS, 3)
        design = build_design(basis, sample_beta_on_I(PARAMS, 20, seed=3))
        y = np.ones(20)
        y[3] = bad
        with pytest.raises(ValueError, match="y must be finite"):
            fit(design, y, basis)

    def test_singular_design_raises(self):
        basis = JacobiBasis(PARAMS, 2)
        design = build_design(basis, np.full(5, 0.3))
        with pytest.raises(StabilityError):
            fit(design, np.zeros(5), basis)

    def test_healthy_design_passes(self):
        basis = JacobiBasis(PARAMS, 3)
        s = sample_beta_on_I(PARAMS, 60, seed=4)
        model = fit(build_design(basis, s), np.cos(s), basis)
        assert not model.fit_report.near_singular
        assert model.fit_report.kappa2 < 50

    def test_rank_deficient_design_raises(self):
        # three identical points cannot support three basis columns
        basis = JacobiBasis(JacobiParams(0.0, 0.0), 2)
        design = build_design(basis, np.array([0.1, 0.1, 0.1]))
        with pytest.raises(StabilityError, match="near-singular") as exc:
            fit(design, np.zeros(3), basis)
        assert exc.value.report.near_singular
        assert exc.value.report.kappa2 == math.inf

    def test_ill_conditioned_accepted_design_is_not_truncated(self):
        # s_min / s_max = 1e-5 passes the 1e-12 eigenvalue rule; a solver
        # that dropped that direction would miss the oracle by O(1)
        rng = np.random.default_rng(12)
        U, _ = np.linalg.qr(rng.standard_normal((40, 5)))
        V, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        B = U @ np.diag(np.logspace(0, -5, 5)) @ V.T
        basis = JacobiBasis(PARAMS, 4)
        y = B @ rng.standard_normal(5) * math.sqrt(40) + 1e-3 * rng.standard_normal(40)
        model = fit(B, y, basis)
        assert not model.fit_report.near_singular
        assert model.fit_report.kappa2 == pytest.approx(1e10, rel=1e-6)
        oracle = np.linalg.solve(B.T @ B, B.T @ (y / math.sqrt(40)))
        assert np.linalg.norm(model.coeffs - oracle) < 1e-4 * np.linalg.norm(oracle)

    def test_predict_clamps_at_truncation_level(self):
        basis = JacobiBasis(PARAMS, 4)
        s = sample_beta_on_I(PARAMS, 50, seed=2)
        model = replace(fit(build_design(basis, s), 3.0 * s, basis), truncation_level=0.5)
        vals = model.predict(np.linspace(-1, 1, 201))
        assert np.max(np.abs(vals)) <= 0.5
        model.truncation_level = None
        assert np.max(np.abs(model.predict(np.linspace(-1, 1, 201)))) > 2.0

    def test_omega_norm_is_coefficient_norm(self):
        basis = JacobiBasis(PARAMS, 3)
        s = sample_beta_on_I(PARAMS, 40, seed=3)
        model = fit(build_design(basis, s), np.cos(s), basis)
        # Parseval: the exact rule of order 4 integrates the squared cubic
        norm = omega_norm(model.predict, basis.quadrature(4))
        assert norm == pytest.approx(float(np.linalg.norm(model.coeffs)), rel=1e-12)

    def test_fit_report_attached(self):
        basis = JacobiBasis(PARAMS, 3)
        s = sample_beta_on_I(PARAMS, 40, seed=3)
        A = build_design(basis, s)
        model = fit(A, np.cos(s), basis)
        direct = spectral_report(A.T @ A)
        assert model.fit_report.kappa2 == pytest.approx(direct.kappa2)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        basis = JacobiBasis(JacobiParams(0.0, 0.5), 3)
        s = sample_beta_on_I(JacobiParams(0.0, 0.5), 40, seed=5)
        model = replace(fit(build_design(basis, s), np.exp(s), basis), truncation_level=4.0)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert_allclose(back.coeffs, model.coeffs, rtol=1e-15)
        assert back.basis.params.alpha == 0.0
        assert back.basis.params.beta == 0.5
        assert back.truncation_level == 4.0
        assert back.n_samples == 40
        grid = np.linspace(-1, 1, 50)
        assert_allclose(back.predict(grid), model.predict(grid), rtol=1e-15)

    def test_dict_defaults(self, tmp_path):
        basis = JacobiBasis(PARAMS, 1)
        s = sample_beta_on_I(PARAMS, 20, seed=6)
        path = tmp_path / "model.json"
        save_model(fit(build_design(basis, s), s, basis), path)
        d = json.loads(path.read_text())
        d.pop("truncation_level")
        d.pop("n_samples")
        path.write_text(json.dumps(d))
        back = load_model(path)
        assert back.truncation_level is None and back.n_samples == 0

    @pytest.mark.parametrize("coeffs", [
        [1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [1.0, math.nan, 0.0],
        [{}, 2.0, 3.0], ["1", "2", "3"], [10**400, 0, 0]])
    def test_rejects_bad_coeffs_at_load(self, tmp_path, coeffs):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"alpha": 0.0, "beta": 0.0, "degree_max": 2,
                                    "domain": "symmetric", "coeffs": coeffs}))
        with pytest.raises(ValueError, match="coeffs"):
            load_model(path)

    @pytest.mark.parametrize("key, text", [
        ("degree_max", '"degree_max": 2.0'), ("alpha", None), ("alpha", '"alpha": "0"'),
        ("object", None), ("truncation_level", '"truncation_level": "x"'),
        ("truncation_level", '"truncation_level": NaN'), ("alpha", f'"alpha": {10**400}'),
    ], ids=["float-degree", "no-alpha", "string-alpha", "array", "string-clamp",
            "nan-clamp", "huge-int-alpha"])
    def test_rejects_a_malformed_file_at_load(self, tmp_path, key, text):
        basis = JacobiBasis(PARAMS, 2)
        s = sample_beta_on_I(PARAMS, 20, seed=6)
        path = tmp_path / "model.json"
        save_model(fit(build_design(basis, s), s, basis), path)
        d = json.loads(path.read_text())
        if key == "object":
            path.write_text("[1, 2]")
        else:           # one key dropped, then written back by hand if given
            d.pop(key)
            body = json.dumps(d)
            path.write_text(body if text is None else f"{body[:-1]}, {text}}}")
        with pytest.raises(ValueError, match=key):
            load_model(path)

    def test_counts_coeffs_before_building_the_basis(self, tmp_path, monkeypatch):
        # a basis of degree 10**11 would fill memory before the count check
        monkeypatch.setattr("pinvreg.regression.JacobiBasis", None)
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"alpha": 0.0, "beta": 0.0, "degree_max": 10**11,
                                    "domain": "symmetric", "coeffs": [1.0, 2.0, 3.0]}))
        with pytest.raises(ValueError, match="^coeffs must be 100000000001 finite"):
            load_model(path)

    def test_save_is_strict_json(self, tmp_path):
        basis = JacobiBasis(PARAMS, 2)
        s = sample_beta_on_I(PARAMS, 20, seed=6)
        model = replace(fit(build_design(basis, s), s, basis), truncation_level=math.inf)
        path = tmp_path / "model.json"
        with pytest.raises(ValueError):
            save_model(model, path)
        assert not path.exists()


class TestRansac:
    def test_rejects_sparse_outliers(self):
        # 2 outliers in 60 points: some 35-point subsample avoids both, and a
        # clean scoring set makes that subsample win outright
        basis = JacobiBasis(PARAMS, 3)
        s = sample_beta_on_I(PARAMS, 60, seed=7)
        y_dirty = poly(s)
        y_dirty[:2] += 25.0
        direct = fit(build_design(basis, s), y_dirty, basis)
        xs = np.linspace(-0.95, 0.95, 300)
        robust = ransac_fit(s, y_dirty, basis, iterations=30, seed=11,
                            scoring=(xs, poly(xs)))
        grid = np.linspace(-1, 1, 201)
        err_direct = np.max(np.abs(direct.predict(grid) - poly(grid)))
        err_robust = np.max(np.abs(robust.model.predict(grid) - poly(grid)))
        assert err_direct > 1.0
        assert err_robust < 1e-10

    def test_deterministic(self):
        basis = JacobiBasis(PARAMS, 3)
        s = sample_beta_on_I(PARAMS, 60, seed=8)
        y = np.sin(3 * s)
        a = ransac_fit(s, y, basis, iterations=5, seed=13)
        b = ransac_fit(s, y, basis, iterations=5, seed=13)
        assert a.iteration == b.iteration
        assert_allclose(a.model.coeffs, b.model.coeffs, rtol=0)

    def test_default_subset_size(self):
        basis = JacobiBasis(PARAMS, 2)
        x = np.linspace(-0.9, 0.9, 100)
        r = ransac_fit(x, x**2, basis, iterations=3, seed=1)
        assert r.model.n_samples == math.ceil(0.57 * 100)

    def test_subset_size_validation(self):
        basis = JacobiBasis(PARAMS, 4)
        x = np.linspace(-0.9, 0.9, 20)
        with pytest.raises(ValueError, match="subset_size"):
            ransac_fit(x, x, basis, subset_size=4)     # below basis.size = 5
        with pytest.raises(ValueError, match="subset_size"):
            ransac_fit(x, x, basis, subset_size=21)    # above n

    def test_all_iterations_singular_raises(self):
        # duplicated point mass: every subsample is rank one
        basis = JacobiBasis(PARAMS, 2)
        x = np.full(10, 0.4)
        with pytest.raises(RobustFitError, match="near singular"):
            ransac_fit(x, np.zeros(10), basis, iterations=4, subset_size=5, seed=2)

    def test_iterations_must_be_positive(self):
        basis = JacobiBasis(PARAMS, 2)
        x = np.linspace(-0.9, 0.9, 20)
        for bad in (0, -2):
            with pytest.raises(ValueError, match="iterations"):
                ransac_fit(x, x, basis, iterations=bad)

    def test_evaluates_basis_once_per_point_set(self, monkeypatch):
        calls = []
        table = JacobiBasis.table

        def counting(self, x):
            calls.append(len(x))
            return table(self, x)

        monkeypatch.setattr(JacobiBasis, "table", counting)
        basis = JacobiBasis(PARAMS, 3)
        s = sample_beta_on_I(PARAMS, 60, seed=8)
        xs = np.linspace(-0.95, 0.95, 90)
        for iterations in (1, 12):
            calls.clear()
            result = ransac_fit(s, np.sin(3 * s), basis, iterations=iterations, seed=13)
            assert calls == [60]
            assert result.score_table is result.table
            calls.clear()
            result = ransac_fit(s, np.sin(3 * s), basis, iterations=iterations,
                                seed=13, scoring=(xs, np.sin(3 * xs)))
            assert calls == [60 + 90]       # one table over both point sets
            assert result.table.shape == (60, 4) and result.score_table.shape == (90, 4)

    @pytest.mark.parametrize("domain", ["symmetric", "unit"])
    def test_tables_equal_separate_evaluations(self, domain):
        basis = JacobiBasis(JacobiParams(0.5, 1.0), 6, domain=domain)
        s = sample_beta_on_I(JacobiParams(0.5, 1.0), 60, seed=3)
        xs = np.linspace(-0.95, 0.95, 90)
        if domain == "unit":
            s, xs = (s + 1.0) / 2.0, (xs + 1.0) / 2.0
        result = ransac_fit(s, np.cos(2 * s), basis, iterations=5, seed=4,
                            scoring=(xs, np.cos(2 * xs)))
        assert_array_equal(result.table, basis.table(s))
        assert_array_equal(result.score_table, basis.table(xs))

    def test_default_scoring_is_the_sample(self):
        basis = JacobiBasis(PARAMS, 3)
        s = sample_beta_on_I(PARAMS, 60, seed=8)
        y = np.sin(3 * s)
        y[:3] += 5.0
        a = ransac_fit(s, y, basis, iterations=9, seed=21)
        b = ransac_fit(s, y, basis, iterations=9, seed=21, scoring=(s, y))
        assert (a.score, a.iteration) == (b.score, b.iteration)
        assert_array_equal(a.model.coeffs, b.model.coeffs)

    @staticmethod
    def per_iteration_fits(x, y, basis, iterations, seed, scoring, size):
        """The oracle: each subsample refit by gelsd through fit and scored by
        predict; the first lowest score and the count of near-singular fits."""
        best, failed = None, 0
        for it in range(iterations):
            rng = derive_rng(seed, "ransac", it)
            idx = np.sort(rng.choice(len(x), size=size, replace=False))
            try:
                model = fit(build_design(basis, x[idx]), y[idx], basis)
            except StabilityError:
                failed += 1
                continue
            score = float(np.mean((model.predict(scoring[0]) - scoring[1]) ** 2))
            if best is None or score < best[0]:
                best = (score, it, model)
        return best, failed

    def assert_matches_oracle(self, x, y, basis, iterations, seed, scoring, size):
        # the stack solves the normal equations, the oracle the SVD: values
        # agree to about kappa(Gram) eps, choices and counts exactly
        (score, it, model), failed = self.per_iteration_fits(
            x, y, basis, iterations, seed, scoring, size)
        r = ransac_fit(x, y, basis, iterations=iterations, subset_size=size,
                       seed=seed, scoring=scoring)
        assert (r.iteration, r.n_failed) == (it, failed)
        assert r.score == pytest.approx(score, rel=1e-12, abs=0)
        for got, want in ((r.model.coeffs, model.coeffs),
                          (r.model.fit_report.eigenvalues, model.fit_report.eigenvalues)):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        assert r.model.fit_report.near_singular is False
        return r

    def test_matches_per_iteration_fit_loop(self):
        basis = JacobiBasis(PARAMS, 3)
        s = sample_beta_on_I(PARAMS, 60, seed=8)
        y = np.sin(3 * s)
        y[:3] += 5.0
        xs = np.linspace(-0.95, 0.95, 90)
        r = self.assert_matches_oracle(s, y, basis, 9, 21, (xs, np.sin(3 * xs)),
                                       math.ceil(0.57 * 60))
        assert r.n_failed == 0

    def test_matches_per_iteration_fit_loop_with_rank_deficient_subsamples(self):
        # 8 nodes, each taken 3 times: a subsample of 8 rows that hits at most
        # 5 distinct nodes cannot fit 6 columns
        basis = JacobiBasis(PARAMS, 5)
        x = np.repeat(np.cos(np.pi * (np.arange(8) + 0.5) / 8), 3)
        y = np.sin(3 * x) + 0.1 * np.cos(17 * x)
        xs = np.linspace(-0.95, 0.95, 90)
        r = self.assert_matches_oracle(x, y, basis, 9, 4, (xs, np.sin(3 * xs)), 8)
        assert r.n_failed == 3

    @pytest.mark.parametrize("y_len, xs_len, ys_len, message", [
        (61, 90, 90, "y has shape (61,), expected (60,)"),
        (59, 90, 90, "y has shape (59,), expected (60,)"),
        (60, 90, 1, "scoring y has shape (1,), expected (90,)"),
        (60, 90, 91, "scoring y has shape (91,), expected (90,)"),
        (60, 0, 0, "the scoring set is empty"),
    ], ids=["y-long", "y-short", "scoring-y-one", "scoring-y-long", "scoring-empty"])
    def test_shapes_checked_before_any_draw(self, monkeypatch, y_len, xs_len, ys_len,
                                            message):
        # a length-1 scoring y would broadcast against every scoring point
        def no_draws(*args):
            raise AssertionError("drew a subsample")

        monkeypatch.setattr(regression, "derive_rng", no_draws)
        x = np.linspace(-0.9, 0.9, 60)
        xs = np.linspace(-0.9, 0.9, xs_len)
        with pytest.raises(ValueError) as info:
            ransac_fit(x, np.zeros(y_len), JacobiBasis(PARAMS, 3),
                       scoring=(xs, np.full(ys_len, 0.3)))
        assert str(info.value) == message

    @pytest.mark.filterwarnings("error")
    def test_score_keeps_the_divided_mean_past_the_float_range(self):
        # each squared residual is about 9e306: their sum passes the float
        # range, their mean does not; the responses are zero, so every
        # iteration fits zero and the first wins the tie
        basis = JacobiBasis(PARAMS, 3)
        x = np.linspace(-0.9, 0.9, 60)
        xs = np.linspace(-0.95, 0.95, 90)
        ys = 3e153 * np.where(np.arange(90) % 2, 1.0, -1.0)
        r = ransac_fit(x, np.zeros(60), basis, iterations=4, seed=0, scoring=(xs, ys))
        errors = (r.score_table @ r.model.coeffs - ys) ** 2
        with np.errstate(over="ignore"):
            assert np.mean(errors) == math.inf
        assert r.score == _mean(errors) and math.isfinite(r.score)
        assert r.iteration == 0

    @pytest.mark.filterwarnings("error")
    def test_residuals_past_the_float_range_refused(self):
        basis = JacobiBasis(PARAMS, 3)
        x = np.linspace(-0.9, 0.9, 60)
        with pytest.raises(ValueError, match=r"^iteration 0's robust-fit score passes "
                                             r"the float range$"):
            ransac_fit(x, 1e200 * np.where(np.arange(60) % 2, 1.0, -1.0), basis,
                       iterations=4, seed=0)

    @staticmethod
    def rank_deficient_fit(seed, scale=1.0):
        # 8 nodes, each taken 3 times, subsets of 8 for 6 columns: at seed 10,
        # iterations 0, 1, 2, 4, 5, 10, 11 and 12 of 13 are near singular and 6
        # wins; at seed 2, 1 and 12 are and 10 wins
        basis = JacobiBasis(PARAMS, 5)
        x = np.repeat(np.cos(np.pi * (np.arange(8) + 0.5) / 8), 3)
        xs = np.linspace(-0.95, 0.95, 90)
        y = scale * (np.sin(3 * x) + 0.1 * np.cos(17 * x))
        return ransac_fit(x, y, basis, iterations=13, subset_size=8, seed=seed,
                          scoring=(xs, scale * np.sin(3 * xs)))

    @pytest.mark.parametrize("chunk", [1, 2, 4, 12])
    @pytest.mark.parametrize("seed", [2, 10])
    def test_chunks_give_the_one_stack_result(self, monkeypatch, seed, chunk):
        # a chunk of 1 or 2 at seed 10 fails whole; the last chunk is short
        # for every size here but 1
        whole = self.rank_deficient_fit(seed)      # 13 iterations: one stack
        monkeypatch.setattr(regression, "_RANSAC_CHUNK", chunk)
        r = self.rank_deficient_fit(seed)
        assert (r.iteration, r.n_failed) == (whole.iteration, whole.n_failed)
        assert (r.iteration, r.n_failed) == {10: (6, 8), 2: (10, 2)}[seed]
        # solve and eigvalsh run one LAPACK call per matrix: exact; the score
        # is a row of a product whose other rows differ
        assert_array_equal(r.model.coeffs, whole.model.coeffs)
        assert_array_equal(r.model.fit_report.eigenvalues,
                           whole.model.fit_report.eigenvalues)
        assert r.score == pytest.approx(whole.score, rel=1e-12, abs=0)

    @pytest.mark.parametrize("chunk", [64, 2])
    @pytest.mark.filterwarnings("error")
    def test_a_refused_score_names_its_iteration_in_any_chunk(self, monkeypatch, chunk):
        # seed 10's first fitted iteration is 3
        monkeypatch.setattr(regression, "_RANSAC_CHUNK", chunk)
        with pytest.raises(ValueError, match=r"^iteration 3's robust-fit score passes "):
            self.rank_deficient_fit(10, scale=1e200)

    def test_peak_memory_does_not_grow_with_iterations(self, tmp_path):
        # one stack of 1,500 iterations held about 115 MB more than 10 did
        script = (
            "import resource, sys\n"
            "import numpy as np\n"
            "from pinvreg.jacobi import JacobiBasis, JacobiParams\n"
            "from pinvreg.regression import ransac_fit\n"
            "x = np.linspace(0.0, 1.0, 340)\n"
            "ransac_fit(x, np.sin(7 * x), JacobiBasis(JacobiParams(-0.5, -0.5), 40, 'unit'),"
            " iterations=int(sys.argv[1]))\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = str(Path(pinvreg.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        peak_kb = [int(subprocess.run([sys.executable, "-c", script, str(iterations)],
                                      cwd=tmp_path, env=env, capture_output=True,
                                      text=True, timeout=120, check=True).stdout)
                   for iterations in (10, 1_500)]
        assert peak_kb[1] - peak_kb[0] < 20 * 1024, peak_kb

    def test_external_scoring_set(self):
        basis = JacobiBasis(PARAMS, 2)
        s = sample_beta_on_I(PARAMS, 40, seed=9)
        xs = np.linspace(-0.95, 0.95, 300)
        r = ransac_fit(s, poly(s), basis, iterations=4, seed=3,
                       scoring=(xs, poly(xs)))
        assert r.score < 1e-20


class TestRiskMc:
    def test_risk_below_bound_for_smooth_target(self):
        f = lambda x: np.sin(math.pi * x)
        summary = l2_risk_mc(f, PARAMS, n=300, degree_max=9, M=1.5, trials=20,
                             sigma=0.1, seed=42, chebyshev_sharp=True)
        assert summary.condition_ok
        assert summary.clamp_contraction_ok and summary.clamp_level_ok
        assert summary.n_singular == 0
        assert np.all(summary.risks <= summary.bound)

    def test_noiseless_in_span_risk_vanishes(self):
        summary = l2_risk_mc(poly, PARAMS, n=100, degree_max=4, M=3.0, trials=5,
                             sigma=0.0, seed=1)
        assert summary.mean_risk < 1e-24
        assert summary.proj_error_omega < 1e-13

    def test_c_range_validation(self):
        for bad in (0.0, 0.63, 0.9, -0.1):
            with pytest.raises(ValueError, match="c must"):
                l2_risk_mc(poly, PARAMS, 100, 4, M=3.0, trials=1, sigma=0.1, c=bad)

    def test_unbounded_target_rejected(self):
        with pytest.raises(ValueError, match="clamp level"):
            l2_risk_mc(lambda x: 5.0 * x, PARAMS, 100, 4, M=1.0, trials=1,
                       sigma=0.1)

    def test_deterministic(self):
        f = lambda x: np.cos(2 * x)
        a = l2_risk_mc(f, PARAMS, 120, 5, M=2.0, trials=6, sigma=0.2, seed=9)
        b = l2_risk_mc(f, PARAMS, 120, 5, M=2.0, trials=6, sigma=0.2, seed=9)
        assert_allclose(a.risks, b.risks, rtol=0)

    def test_uniform_noise_family(self):
        f = lambda x: np.cos(2 * x)
        s = l2_risk_mc(f, PARAMS, 150, 5, M=2.0, trials=4, sigma=0.2, seed=3,
                       noise_family="uniform")
        assert len(s.risks) == 4 and np.all(np.isfinite(s.risks))


class TestWeierstrass:
    def test_value_at_zero(self):
        for s in (0.75, 1.0, 1.5, 2.0):
            assert weierstrass(s, 0.0) == pytest.approx(1.0 / (1.0 - 2.0**-s),
                                                        abs=1e-10)

    def test_value_at_one(self):
        # cos(pi) = -1 and cos(2^k pi) = 1 for k >= 1: the series telescopes to 0
        assert abs(weierstrass(1.0, 1.0)) < 1e-10

    def test_sup_bound(self):
        x = np.linspace(-1, 1, 4001)
        for s in (0.75, 1.5):
            assert np.max(np.abs(weierstrass(s, x))) <= 1.0 / (1.0 - 2.0**-s) + 1e-10

    def test_even_function(self):
        x = np.linspace(0, 1, 101)
        assert_allclose(weierstrass(1.5, x), weierstrass(1.5, -x), rtol=0)

    def test_truncation_depth_respects_tol(self):
        # the series stops once its geometric tail is below 1e-12
        x = np.linspace(-1, 1, 41)
        deep = sum(np.cos(2.0**k * math.pi * x) / 2.0**k for k in range(60))
        assert np.max(np.abs(weierstrass(1.0, x) - deep)) < 1e-12

    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError, match="s must"):
            weierstrass(0.0, 0.5)

    @pytest.mark.parametrize("s", [0.0439, 1e-3, 1e-300])
    def test_rejects_depths_past_the_float_range(self, s):
        # 2^1023 pi is not a float; below s = 2^-53 or so, 2^-s rounds to 1
        with pytest.raises(ValueError, match=f"s={s} needs more than 1023"):
            weierstrass(s, np.linspace(-1, 1, 5))

    def test_deepest_accepted_depth_is_finite(self):
        assert np.all(np.isfinite(weierstrass(0.044, np.linspace(-1, 1, 5))))

    @pytest.mark.parametrize("s", [1074.0, 1075.0, 1e300])
    def test_first_term_alone_past_the_float_range(self, s):
        # 2^-s is subnormal or 0: every term after k = 0 is 0 in doubles
        x = np.linspace(-1, 1, 41)
        assert_array_equal(weierstrass(s, x), np.cos(math.pi * x))
