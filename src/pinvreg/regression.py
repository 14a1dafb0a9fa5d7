"""Least-squares regression over a random Jacobi design, with robust and
truncated variants and the printed error/risk budgets."""

import json
import math
from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix, build_design, least_squares, theory_bounds
from .errors import RobustFitError, StabilityError
from .jacobi import SYMMETRIC, UNIT, JacobiBasis, JacobiParams, QuadratureRule, omega_norm
from .sampling import derive_rng, derive_seed, make_noise, sample_beta_on_I

__all__ = [
    "NpregModel",
    "FitDiagnostics",
    "RansacResult",
    "RiskSummary",
    "fit",
    "ransac_fit",
    "error_report",
    "l2_risk_mc",
    "weierstrass",
    "save_model",
    "load_model",
    "model_to_dict",
    "model_from_dict",
]

_GRID_SIZE = 2001   # uniform grid points behind every sup-norm


@dataclass
class NpregModel:
    """Fitted coefficient vector over a Jacobi basis, optionally clamped."""

    coeffs: np.ndarray
    basis: JacobiBasis
    fit_report: object = None           # SpectralReport of the fit's design Gram
    truncation_level: float | None = None
    n_samples: int = 0

    def predict(self, x) -> np.ndarray:
        vals = self.basis.table(x) @ self.coeffs
        if self.truncation_level is not None:
            M = self.truncation_level
            # sign(v) * min(M, |v|), written as a clamp
            vals = np.clip(vals, -M, M)
        return vals

    @property
    def kappa2(self) -> float:
        return self.fit_report.kappa2 if self.fit_report is not None else math.nan


def fit(design: DesignMatrix, y) -> NpregModel:
    """Least squares B c = y/sqrt(n) by one LAPACK least-squares (gelsd) call.

    Mathematically equal to the normal-equation pseudo-inverse; raises
    StabilityError carrying the spectral report (same SVD) when the Gram is
    near singular."""
    y = np.asarray(y, dtype=float)
    if y.shape != (design.n,):
        raise ValueError(f"y has shape {y.shape}, expected ({design.n},)")
    coeffs, report = least_squares(design.matrix, y / math.sqrt(design.n))
    if report.near_singular:
        raise StabilityError(
            f"near-singular Gram (lambda_min={report.lambda_min:.3e})", report=report
        )
    return NpregModel(
        coeffs=coeffs, basis=design.basis, fit_report=report, n_samples=design.n
    )


@dataclass(frozen=True)
class RansacResult:
    model: NpregModel
    score: float
    iteration: int
    n_failed: int
    table: np.ndarray              # basis at x
    score_table: np.ndarray        # basis at the scoring points


def ransac_fit(
    x,
    y,
    basis: JacobiBasis,
    iterations: int = 10,
    subset_size: int | None = None,
    scoring: tuple | None = None,
    seed=0,
    truncation_level: float | None = None,
) -> RansacResult:
    """Robust fit: repeated subsample fits scored on a full consensus set.

    Each iteration draws subset_size points (default ceil(0.57 * n)) without
    replacement, fits, and scores by mean squared prediction error over the
    scoring set (default: all of x, y). Near-singular iterations are skipped;
    if every one fails a RobustFitError is raised. The basis is evaluated once
    for x and once for a separate scoring set; iterations slice rows of those
    tables, which the result keeps.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if subset_size is None:
        subset_size = math.ceil(0.57 * n)
    if not basis.size <= subset_size <= n:
        raise ValueError(
            f"subset_size must be in [{basis.size}, {n}], got {subset_size}"
        )
    table = basis.table(x)
    if scoring is None:
        score_table, ys = table, y
    else:
        score_table, ys = basis.table(scoring[0]), np.asarray(scoring[1], dtype=float)
    best = None
    n_failed = 0
    for it in range(iterations):
        rng = derive_rng(seed, "ransac", it)
        idx = np.sort(rng.choice(n, size=subset_size, replace=False))
        design = DesignMatrix(table[idx] / math.sqrt(subset_size), basis)
        try:
            model = fit(design, y[idx])
        except StabilityError:
            n_failed += 1
            continue
        score = float(np.mean((score_table @ model.coeffs - ys) ** 2))
        if best is None or score < best[0]:
            best = (score, it, model)
    if best is None:
        raise RobustFitError(f"all {iterations} subsample fits were near singular")
    score, it, model = best
    model.truncation_level = truncation_level
    return RansacResult(model=model, score=score, iteration=it, n_failed=n_failed,
                        table=table, score_table=score_table)


@dataclass(frozen=True)
class FitDiagnostics:
    residual_mse: float
    kappa2: float
    theory: object                 # TheoryBounds, or None when N < 2
    omega_error: float             # ||f - fhat||_omega
    proj_error_omega: float        # ||f - pi_N f||_omega
    proj_error_sup: float
    eta_n: float
    delta: float
    rhs_bound: float | None        # printed error budget; None when not applicable
    bound_satisfied: bool | None


def error_report(
    model: NpregModel,
    true_f,
    x=None,
    y=None,
    noise=None,
    delta: float = 0.05,
    rule: QuadratureRule | None = None,
) -> FitDiagnostics:
    """Weighted-L2 error of the fit plus the printed high-probability budget.

    The omega-norms use rule (default: Gauss-Jacobi of order N + 12) and the
    sup-norms a uniform grid of 2001 points.

    The budget denominator can be nonpositive at small n; in that regime
    rhs_bound and bound_satisfied are None rather than a negative bound.
    """
    basis = model.basis
    N = basis.degree_max
    if rule is None:
        rule = basis.quadrature(N + 12)
    gamma = basis.params.gamma_ab
    lo, hi = (0.0, 1.0) if basis.domain == UNIT else (-1.0, 1.0)
    grid = np.linspace(lo, hi, _GRID_SIZE)

    node_table = basis.table(rule.nodes)
    grid_table = basis.table(grid)
    fhat_nodes = node_table @ model.coeffs   # untruncated
    f_nodes = true_f(rule.nodes)
    omega_error = omega_norm(f_nodes - fhat_nodes, rule)

    proj = node_table.T @ (rule.weights * f_nodes)   # quadrature projection
    proj_nodes = node_table @ proj
    proj_error_omega = omega_norm(f_nodes - proj_nodes, rule)
    resid_grid = true_f(grid) - grid_table @ proj
    proj_error_sup = float(np.max(np.abs(resid_grid)))
    proj_sup = float(np.max(np.abs(grid_table @ proj)))
    proj_norm = float(np.linalg.norm(proj))

    eta_n = float(np.max(np.abs(noise))) if noise is not None else 0.0
    residual_mse = math.nan
    if x is not None and y is not None:
        residual_mse = float(np.mean((model.predict(np.asarray(x, float)) - y) ** 2))

    kappa2 = model.kappa2
    n = model.n_samples
    rhs = satisfied = None
    if n > 0 and math.isfinite(kappa2) and proj_norm > 0:
        t = (math.log(2.0 / delta) / n) ** 0.25
        denominator = 1.0 / math.sqrt(gamma) - t * proj_sup / proj_norm
        if denominator > 0:
            numerator = t * proj_error_sup + proj_error_omega / math.sqrt(gamma) + eta_n
            rhs = proj_error_omega + math.sqrt(2.0 * kappa2) * numerator / denominator
            satisfied = bool(omega_error <= rhs)

    theory = None
    if N >= 2 and n >= 1 and basis.domain == SYMMETRIC:
        theory = theory_bounds(basis.params, n, N)
    return FitDiagnostics(
        residual_mse=residual_mse,
        kappa2=kappa2,
        theory=theory,
        omega_error=omega_error,
        proj_error_omega=proj_error_omega,
        proj_error_sup=proj_error_sup,
        eta_n=eta_n,
        delta=delta,
        rhs_bound=rhs,
        bound_satisfied=satisfied,
    )


@dataclass(frozen=True)
class RiskSummary:
    risks: np.ndarray              # per-trial ||f - truncated fit||_omega^2, sorted
    mean_risk: float
    bound: float
    proj_error_omega: float
    condition_ok: bool             # printed precondition (1') at the chosen c
    clamp_contraction_ok: bool     # |f - clamped| <= |f - raw| on the grid
    clamp_level_ok: bool           # |clamped| <= M on the grid
    n_singular: int


def l2_risk_mc(
    true_f,
    params: JacobiParams,
    n: int,
    degree_max: int,
    M: float,
    trials: int,
    sigma: float,
    seed=0,
    c: float = 0.5,
    r: float = 1.0,
    noise_family: str = "gaussian",
    chebyshev_sharp: bool = False,
) -> RiskSummary:
    """Monte Carlo weighted-L2 risk of the clamped estimator vs the printed bound.

    Requires |true_f| <= M on the evaluation grid (the clamp analysis assumes a
    bounded target). Per trial the clamp properties are checked pointwise on
    the grid: clamping never moves the fit away from the target, and the
    clamped fit stays within [-M, M].
    """
    if not 0.0 < c < 0.63:
        raise ValueError(f"c must lie in (0, 0.63), got {c}")
    basis = JacobiBasis(params, degree_max)
    grid = np.linspace(-1.0, 1.0, _GRID_SIZE)
    f_grid = true_f(grid)
    if np.max(np.abs(f_grid)) > M + 1e-12:
        raise ValueError("target exceeds the clamp level M; risk bound needs |f| <= M")
    rule = basis.quadrature(degree_max + 12)
    f_nodes = true_f(rule.nodes)
    grid_table = basis.table(grid)
    node_table = basis.table(rule.nodes)

    proj = node_table.T @ (rule.weights * f_nodes)   # quadrature projection
    proj_error_omega = omega_norm(f_nodes - node_table @ proj, rule)

    bounds = theory_bounds(params, n, degree_max, chebyshev_sharp=chebyshev_sharp)
    gamma = params.gamma_ab
    N = degree_max
    condition_ok = (
        0.63 - bounds.L_N * math.log(N + 1.0) / n - n ** (-r) >= c
    )
    bound = (
        (1.0 / (gamma * c * c))
        * ((N / n) * sigma**2 + bounds.L_N / n * proj_error_omega**2)
        + proj_error_omega**2
        + 4.0 * M * M * gamma * n ** (-r)
    )

    risks = []
    n_singular = 0
    contraction_ok = level_ok = True
    for t in range(trials):
        samples = sample_beta_on_I(params, n, derive_seed(seed, "risk-x", t))
        eps = make_noise(n, sigma, family=noise_family, seed=derive_seed(seed, "risk-e", t))
        try:
            model = fit(build_design(basis, samples), true_f(samples) + eps)
        except StabilityError:
            n_singular += 1
            continue
        raw_grid = grid_table @ model.coeffs
        clamped_grid = np.clip(raw_grid, -M, M)
        contraction_ok &= bool(
            np.all(np.abs(f_grid - clamped_grid) <= np.abs(f_grid - raw_grid) + 1e-12)
        )
        level_ok &= bool(np.max(np.abs(clamped_grid)) <= M + 1e-12)
        raw_nodes = node_table @ model.coeffs
        clamped_nodes = np.clip(raw_nodes, -M, M)
        risks.append(omega_norm(f_nodes - clamped_nodes, rule) ** 2)
    risks = np.sort(np.array(risks))
    return RiskSummary(
        risks=risks,
        mean_risk=float(np.mean(risks)) if len(risks) else math.inf,
        bound=bound,
        proj_error_omega=proj_error_omega,
        condition_ok=condition_ok,
        clamp_contraction_ok=contraction_ok,
        clamp_level_ok=level_ok,
        n_singular=n_singular,
    )


def weierstrass(s: float, x, tol: float = 1e-12):
    """Lacunary cosine series sum_k cos(2^k pi x) / 2^(k s), truncated below tol.

    The truncation depth comes from the geometric tail bound
    2^{-(K+1)s} / (1 - 2^{-s}) < tol. Requires s > 0.
    """
    if s <= 0:
        raise ValueError(f"smoothness s must be > 0, got {s}")
    q = 2.0 ** (-s)
    K = max(0, math.ceil(math.log(tol * (1.0 - q)) / math.log(q) - 1.0))
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k in range(K + 1):
        out += np.cos(2.0**k * math.pi * x) / 2.0 ** (k * s)
    return out


def model_to_dict(model: NpregModel) -> dict:
    return {
        "alpha": model.basis.params.alpha,
        "beta": model.basis.params.beta,
        "degree_max": model.basis.degree_max,
        "domain": model.basis.domain,
        "coeffs": [float(c) for c in model.coeffs],
        "truncation_level": model.truncation_level,
        "n_samples": model.n_samples,
    }


def model_from_dict(d: dict) -> NpregModel:
    basis = JacobiBasis(
        JacobiParams(d["alpha"], d["beta"]), d["degree_max"], d["domain"]
    )
    coeffs = np.array(d["coeffs"], dtype=float)
    if coeffs.shape != (basis.size,) or not np.all(np.isfinite(coeffs)):
        raise ValueError(
            f"coeffs must be {basis.size} finite values (degree_max + 1), "
            f"got shape {coeffs.shape}"
        )
    return NpregModel(
        coeffs=coeffs,
        basis=basis,
        truncation_level=d.get("truncation_level"),
        n_samples=d.get("n_samples", 0),
    )


def save_model(model: NpregModel, path) -> None:
    """Write the model as strict JSON; a non-finite value raises ValueError
    before the file is opened."""
    text = json.dumps(model_to_dict(model), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_model(path) -> NpregModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
