"""Least-squares regression over a random Jacobi design, with robust and
truncated variants and the printed risk budget."""

import json
import math
from dataclasses import dataclass

import numpy as np

from .design import (DesignMatrix, _eigenvalues, _mean, _near_singular, _report,
                     _trials, build_design, least_squares, theory_bounds)
from .errors import RobustFitError, StabilityError
from .jacobi import JacobiBasis, JacobiParams, omega_norm
from .sampling import derive_rng, derive_seed, make_noise, sample_beta_on_I

__all__ = [
    "NpregModel",
    "RansacResult",
    "RiskSummary",
    "fit",
    "ransac_fit",
    "l2_risk_mc",
    "weierstrass",
    "save_model",
    "load_model",
]

_GRID_SIZE = 2001   # uniform grid points of the clamp checks
_RANSAC_CHUNK = 64  # robust-fit iterations drawn, solved and scored at a time


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
    replacement from its own stream, fits, and scores by mean squared
    prediction error over the scoring set (default: all of x, y). The
    iterations are solved in stacks of at most _RANSAC_CHUNK, so that memory
    does not grow with their number: per stack, one batched product forms
    every subsample's normal equations, one batched eigvalsh gives their Gram
    spectra and the near-singular verdict of spectral_report, one batched
    solve fits the others and one product of min(iterations, _RANSAC_CHUNK)
    rows scores them. Near-singular iterations are counted in n_failed; if
    every one fails a RobustFitError is raised, and a score past the float
    range raises a ValueError. The first lowest score wins. The basis is
    evaluated once, over x and a separate scoring set together; iterations
    gather rows of its x part, and the result keeps both parts.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if y.shape != (n,):
        raise ValueError(f"y has shape {y.shape}, expected ({n},)")
    if scoring is not None:
        xs, ys = (np.asarray(v, dtype=float) for v in scoring)
        if ys.shape != (len(xs),):
            raise ValueError(f"scoring y has shape {ys.shape}, expected ({len(xs)},)")
        if not len(xs):
            raise ValueError("the scoring set is empty")
    if subset_size is None:
        subset_size = math.ceil(0.57 * n)
    if not basis.size <= subset_size <= n:
        raise ValueError(
            f"subset_size must be in [{basis.size}, {n}], got {subset_size}"
        )
    # one recurrence over x and the scoring points together: it is elementwise
    both = basis.table(x if scoring is None else np.concatenate([x, xs]))
    table = both[:n]
    score_table, ys = (table, y) if scoring is None else (both[n:], ys)
    points = np.column_stack([table, y])    # each point's table row and response
    chunk = min(iterations, _RANSAC_CHUNK)
    best = None         # (score, iteration, eigenvalues, coeffs) of the winner so far
    n_failed = 0
    for start in range(0, iterations, chunk):
        its = range(start, min(start + chunk, iterations))
        idx = np.sort([derive_rng(seed, "ransac", it).choice(n, size=subset_size,
                                                             replace=False) for it in its])
        rows = points[idx]          # each subsample's rows with the response last
        normal = rows[..., :-1].swapaxes(1, 2) @ rows   # [A^T A | A^T b] per iteration
        del rows        # the largest array here: not held through the scoring
        eigenvalues = _eigenvalues(normal[..., :-1] / subset_size)     # the designs' Grams
        kept = np.flatnonzero(~_near_singular(eigenvalues))
        n_failed += len(its) - len(kept)
        if not len(kept):
            continue
        # only the others are solved: one singular Gram would make solve raise for
        # all; a zero row stands for each, and for each iteration past the last,
        # so that no score depends on which failed or on the stack's length
        coeffs = np.zeros((chunk, basis.size))
        coeffs[kept] = np.linalg.solve(normal[kept, :, :-1], normal[kept, :, -1:])[..., 0]
        # C @ score_table^T: contiguous rows, so each plain mean is np.mean of its row
        with np.errstate(over="ignore", invalid="ignore"):      # refused below
            errors = (coeffs @ score_table.T - ys) ** 2
            scores = np.mean(errors, axis=1)
        for i in kept[~np.isfinite(scores[kept])]:
            scores[i] = _mean(errors[i])      # a sum past the float range
            if not math.isfinite(scores[i]):
                raise ValueError(f"iteration {start + i}'s robust-fit score passes the "
                                 f"float range")
        i = int(kept[np.argmin(scores[kept])])     # the first lowest score
        if best is None or scores[i] < best[0]:
            best = (float(scores[i]), start + i, eigenvalues[i], coeffs[i])
    if best is None:
        raise RobustFitError(f"all {iterations} subsample fits were near singular")
    score, it, eigenvalues, coeffs = best
    model = NpregModel(coeffs=coeffs, basis=basis, fit_report=_report(eigenvalues),
                       truncation_level=truncation_level, n_samples=subset_size)
    return RansacResult(model=model, score=score, iteration=it, n_failed=n_failed,
                        table=table, score_table=score_table)


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

    def trial(t):
        samples = sample_beta_on_I(params, n, derive_seed(seed, "risk-x", t))
        eps = make_noise(n, sigma, family=noise_family, seed=derive_seed(seed, "risk-e", t))
        model = fit(build_design(basis, samples), true_f(samples) + eps)
        raw_grid = grid_table @ model.coeffs
        clamped_grid = np.clip(raw_grid, -M, M)
        clamped_nodes = np.clip(node_table @ model.coeffs, -M, M)
        return (omega_norm(f_nodes - clamped_nodes, rule) ** 2,
                bool(np.all(np.abs(f_grid - clamped_grid)
                            <= np.abs(f_grid - raw_grid) + 1e-12)),
                bool(np.max(np.abs(clamped_grid)) <= M + 1e-12))

    n_singular, kept = _trials(trials, trial, StabilityError)
    risks = np.sort([risk for risk, _, _ in kept])
    return RiskSummary(
        risks=risks,
        mean_risk=_mean(risks),
        bound=bound,
        proj_error_omega=proj_error_omega,
        condition_ok=condition_ok,
        clamp_contraction_ok=all(ok for _, ok, _ in kept),
        clamp_level_ok=all(ok for _, _, ok in kept),
        n_singular=n_singular,
    )


def weierstrass(s: float, x):
    """Lacunary cosine series sum_k cos(2^k pi x) / 2^(k s), truncated below 1e-12.

    The truncation depth comes from the geometric tail bound
    2^{-(K+1)s} / (1 - 2^{-s}) < 1e-12. Requires s > 0, and a depth at which
    2^K pi is a float (K <= 1022, s above about 0.044).
    """
    if s <= 0:
        raise ValueError(f"smoothness s must be > 0, got {s}")
    q = 2.0 ** (-s)
    if q == 0.0:        # past s = 1074 every term after k = 0 is 0 in doubles
        K = 0
    elif q == 1.0:      # below s = 2^-53 or so no depth reaches the tolerance
        K = math.inf
    else:
        K = max(0, math.ceil(math.log(1e-12 * (1.0 - q)) / math.log(q) - 1.0))
    if K > 1022:
        raise ValueError(f"smoothness s={s} needs more than 1023 Weierstrass terms; "
                         f"their frequencies 2^k pi pass the float range")
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for k in range(K + 1):
        out += np.cos(2.0**k * math.pi * x) / 2.0 ** (k * s)
    return out


def save_model(model: NpregModel, path) -> None:
    """Write the model as strict JSON; a non-finite value raises ValueError
    before the file is opened."""
    basis = model.basis
    d = {
        "alpha": basis.params.alpha,
        "beta": basis.params.beta,
        "degree_max": basis.degree_max,
        "domain": basis.domain,
        "coeffs": [float(c) for c in model.coeffs],
        "truncation_level": model.truncation_level,
        "n_samples": model.n_samples,
    }
    text = json.dumps(d, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


# the JSON types of each key save_model writes (a bool is no int)
_REAL = (int, float)
_MODEL_KEYS = {"alpha": _REAL, "beta": _REAL, "degree_max": (int,), "domain": (str,),
               "coeffs": (list,), "truncation_level": (*_REAL, type(None)),
               "n_samples": (int,)}


def load_model(path) -> NpregModel:
    """The model save_model wrote; truncation_level (null: no clamp) and
    n_samples may be left out. A ValueError naming the key where a key is
    missing or of the wrong JSON type, n_samples is negative, or the
    coefficients do not fit the basis or are not finite."""
    # NaN, Infinity and an int past the float range load as strings, which
    # the type checks refuse by key
    with open(path) as fh:
        d = json.load(fh, parse_constant=str,
                      parse_int=lambda s: int(s) if abs(float(s)) < math.inf else s)
    if not isinstance(d, dict):
        raise ValueError(f"a model file holds a JSON object, not {type(d).__name__}")
    d = {"truncation_level": None, "n_samples": 0} | d
    for key, types in _MODEL_KEYS.items():
        if type(d.get(key)) not in types or key == "n_samples" and d[key] < 0:
            raise ValueError(f"model key {key!r} is missing or invalid: {d.get(key)!r}")
    # an entry that is no number counts as not finite; the count is checked
    # before the basis is built, so degree_max cannot outgrow the file
    coeffs = np.array([c if type(c) in _REAL else math.nan for c in d["coeffs"]], float)
    size = d["degree_max"] + 1
    if coeffs.shape != (size,) or not np.all(np.isfinite(coeffs)):
        raise ValueError(f"coeffs must be {size} finite values (degree_max + 1), "
                         f"got shape {coeffs.shape}")
    basis = JacobiBasis(JacobiParams(d["alpha"], d["beta"]), d["degree_max"], d["domain"])
    return NpregModel(coeffs=coeffs, basis=basis, truncation_level=d["truncation_level"],
                      n_samples=d["n_samples"])
