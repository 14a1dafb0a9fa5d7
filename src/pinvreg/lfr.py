"""Linear functional regression by dyadic block decomposition.

The slope function beta_0 = sum_j c_j phi_j over the cosine family on
J = [0, 1] is recovered from scalar responses of random functional
predictors X_i = sum_j xi_j Z_ij phi_j. Estimation runs independently on
dyadic index blocks, which keeps every block Gram well conditioned even
when the xi_j decay quickly.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .design import _mean, _trials, least_squares
from .errors import SingularBlockError, ValidationError
from .sampling import derive_rng, derive_seed

__all__ = [
    "DyadicPartition",
    "LfrProblem",
    "LfrModel",
    "LfrErrors",
    "LfrRiskSummary",
    "dyadic_partition",
    "cosine_basis",
    "eval_slope",
    "simulate_problem",
    "block_factor",
    "block_gram",
    "lfr_fit",
    "lfr_errors",
    "ineq47_bound",
    "theorem7_bound",
    "lfr_risk_mc",
    "EXAMPLE3",
    "TABLE2",
]

EXAMPLE3 = "example3"
TABLE2 = "table2"


@dataclass(frozen=True)
class DyadicPartition:
    """Ordered 1-based inclusive index blocks [1,2], [3,4], [5,8], ..."""

    size: int
    blocks: tuple

    @property
    def K(self) -> int:
        return len(self.blocks)

    def slices(self):
        # 0-based column slices matching the 1-based blocks
        return [slice(lo - 1, hi) for lo, hi in self.blocks]


def dyadic_partition(size: int) -> DyadicPartition:
    """Split [[1, size]] into blocks doubling in width; K <= floor(log2 size)+1."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    blocks = []
    hi = 0
    k = 0
    while hi < size:
        k += 1
        blocks.append((hi + 1, min(2**k, size)))
        hi = 2**k
    return DyadicPartition(size=size, blocks=tuple(blocks))


def cosine_basis(j: int, x) -> np.ndarray:
    """Orthonormal slope family on [0,1]: phi_1 = 1, phi_j = sqrt(2) cos(pi j x)."""
    x = np.asarray(x, dtype=float)
    if j < 1:
        raise ValueError(f"basis index must be >= 1, got {j}")
    if j == 1:
        return np.ones_like(x)
    return math.sqrt(2.0) * np.cos(math.pi * j * x)


def eval_slope(coeffs, x) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for j, c in enumerate(coeffs, start=1):
        if c != 0.0:
            out += c * cosine_basis(j, x)
    return out


def example3_coeffs(size: int) -> np.ndarray:
    j = np.arange(1, size + 1, dtype=float)
    return 4.0 * (-1.0) ** (j + 1.0) / j**2


@dataclass(frozen=True)
class LfrProblem:
    xi: np.ndarray                # deterministic weights, length N
    true_coeffs: np.ndarray       # slope coefficients c_j
    Z: np.ndarray                 # n x N predictor scores
    y_blocks: tuple               # per-block response vectors, length n each
    partition: DyadicPartition
    sigma: float                  # per-block noise sd (same for every block)
    s: float                      # decay exponent of xi

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def size(self) -> int:
        return self.Z.shape[1]


def _weights(n: int, size: int, s: float, variant: str) -> tuple:
    """The partition and the weights xi of the instances simulate_problem
    draws, once its arguments are checked."""
    if s <= 0:
        raise ValueError(f"decay exponent s must be > 0, got {s}")
    if variant not in (EXAMPLE3, TABLE2):
        raise ValueError(f"unknown variant {variant!r}")
    part = dyadic_partition(size)
    widest = max(hi - lo + 1 for lo, hi in part.blocks)
    if n < widest:
        raise ValueError(f"need n >= widest block ({widest}), got n={n}")
    j = np.arange(1, size + 1, dtype=float)
    if variant == EXAMPLE3:
        xi = (-1.0) ** (j + 1.0) * j ** (-s / 2.0)
    else:
        xi = j ** (-s)
    return part, xi


def _scores(n: int, size: int, seed) -> np.ndarray:
    """The n x size scores Z simulate_problem draws, from the seed's "lfr-z"
    stream."""
    root3 = math.sqrt(3.0)
    return derive_rng(seed, "lfr-z").uniform(-root3, root3, size=(n, size))


def simulate_problem(
    n: int,
    size: int,
    s: float,
    sigma: float,
    variant: str = EXAMPLE3,
    seed=0,
) -> LfrProblem:
    """Draw a synthetic LFR instance with unit-variance uniform scores.

    example3: xi_j = (-1)^(j+1) j^(-s/2) with the alternating quadratic-decay
    slope; table2: xi_j = j^(-s) (conditioning experiments). Responses are
    generated block by block: Y_i^k = sum_{j in I_k} xi_j Z_ij c_j + eps_i^k.
    """
    part, xi = _weights(n, size, s, variant)
    Z = _scores(n, size, seed)
    c = example3_coeffs(size)
    y_blocks = []
    for k, sl in enumerate(part.slices()):
        y = Z[:, sl] @ (xi[sl] * c[sl])
        if sigma != 0:    # signal + 0 * eps is the signal: skip drawing eps
            with np.errstate(over="ignore"):      # refused below
                y = y + sigma * derive_rng(seed, "lfr-eps", k).standard_normal(n)
            if not np.all(np.isfinite(y)):
                raise ValueError(f"sigma={sigma} puts a response past the float range")
        y_blocks.append(y)
    return LfrProblem(
        xi=xi,
        true_coeffs=c,
        Z=Z,
        y_blocks=tuple(y_blocks),
        partition=part,
        sigma=sigma,
        s=s,
    )


def block_factor(problem: LfrProblem, block_index: int) -> np.ndarray:
    """F_k = (1/sqrt(n)) [xi_j Z_ij] over the block's columns."""
    sl = problem.partition.slices()[block_index]
    return problem.Z[:, sl] * problem.xi[sl] / math.sqrt(problem.n)


def block_gram(problem: LfrProblem, block_index: int):
    """F_k (see block_factor) and its Gram G_k = F_k' F_k."""
    F = block_factor(problem, block_index)
    return F, F.T @ F


@dataclass(frozen=True)
class LfrModel:
    partition: DyadicPartition
    block_coeffs: tuple
    block_reports: tuple

    @cached_property
    def coeffs(self) -> np.ndarray:
        out = np.empty(self.partition.size)
        for sl, c in zip(self.partition.slices(), self.block_coeffs):
            out[sl] = c
        return out

    @property
    def cumulative_kappa(self) -> float:
        return float(sum(r.kappa2 for r in self.block_reports))


def lfr_fit(problem: LfrProblem) -> LfrModel:
    """Per-block least squares F_k c_k ~ Y^k / sqrt(n), one LAPACK gelsd call
    per block; SingularBlockError when a block Gram F_k' F_k is near singular."""
    coeffs = []
    reports = []
    for k in range(problem.partition.K):
        F = block_factor(problem, k)
        c, report = least_squares(F, problem.y_blocks[k] / math.sqrt(problem.n))
        if report.near_singular:
            raise SingularBlockError(
                f"dyadic block {k} has a numerically singular Gram matrix",
                block_index=k,
                report=report,
            )
        reports.append(report)
        coeffs.append(c)
    return LfrModel(
        partition=problem.partition,
        block_coeffs=tuple(coeffs),
        block_reports=tuple(reports),
    )


@dataclass(frozen=True)
class LfrErrors:
    e0: float    # sum_j j^(-s) (c_j - chat_j)^2, the weaker prediction norm
    e2: float    # sum_j (c_j - chat_j)^2


def lfr_errors(model: LfrModel, problem: LfrProblem) -> LfrErrors:
    """E0 and E2 of the fit; a ValueError naming sigma where E2 passes the
    float range."""
    with np.errstate(over="ignore"):      # refused below
        diff_sq = (problem.true_coeffs - model.coeffs) ** 2
        e2 = float(np.sum(diff_sq))
    if not math.isfinite(e2):
        raise ValueError(f"sigma={problem.sigma} puts the coefficient error past the "
                         f"float range")
    j = np.arange(1, problem.size + 1, dtype=float)
    return LfrErrors(e0=float(np.sum(j ** (-problem.s) * diff_sq)), e2=e2)


def ineq47_bound(s: float, size: int) -> float:
    """Cumulative condition-number ceiling 2^s 1.72 log(size) / (0.63 log 2);
    inf past the float range, as L_N reads."""
    if size < 2:
        raise ValueError(f"size must be >= 2, got {size}")
    try:
        return 2.0**s * 1.72 * math.log(size) / (0.63 * math.log(2.0))
    except OverflowError:
        return math.inf


def theorem7_bound(
    problem: LfrProblem,
    level: float,
    r: float = 1.0,
    eta_k=None,
) -> float:
    """Expected truncated-estimator L2 risk ceiling for unit-variance scores.

    (||xi||_2^2 / n^2) sum_k sigma_k^2 |I_k| / eta_k^2 + 4 level^2 K / n^r.
    The eta_k default to half the smallest asymptotic block eigenvalue,
    0.5 min_{j in I_k} xi_j^2.
    """
    part = problem.partition
    if eta_k is None:
        eta_k = [0.5 * float(np.min(problem.xi[sl] ** 2)) for sl in part.slices()]
    eta_k = np.asarray(eta_k, dtype=float)
    if eta_k.shape != (part.K,) or np.any(eta_k <= 0):
        raise ValueError("eta_k must give one positive value per block")
    widths = np.array([hi - lo + 1 for lo, hi in part.blocks], dtype=float)
    xi_sq_norm = float(np.sum(problem.xi**2))
    n = problem.n
    variance_term = (
        xi_sq_norm / n**2 * float(np.sum(problem.sigma**2 * widths / eta_k**2))
    )
    return variance_term + 4.0 * level**2 * part.K / n**r


@dataclass(frozen=True)
class LfrRiskSummary:
    risks: np.ndarray
    mean_risk: float
    bound: float
    n_singular: int
    truncation_active: bool


def _gl_rule_unit(order: int = 400):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return (nodes + 1.0) / 2.0, weights / 2.0


def lfr_risk_mc(
    n: int,
    size: int,
    s: float,
    sigma: float,
    level: float,
    trials: int,
    seed=0,
    variant: str = EXAMPLE3,
    r: float = 1.0,
    eta_k=None,
) -> LfrRiskSummary:
    """Monte Carlo L2 risk of the clamped estimator against theorem7_bound.

    Risk per trial is the coefficient-space squared error (Parseval) plus a
    quadrature correction for the pointwise clamp; when the clamp never
    activates the correction is exactly zero. Requires |beta_0| <= level.
    """
    nodes, weights = _gl_rule_unit()
    c = example3_coeffs(size)
    beta0 = eval_slope(c, nodes)
    if np.max(np.abs(eval_slope(c, np.linspace(0.0, 1.0, 1001)))) > level + 1e-12:
        raise ValidationError("true slope exceeds the clamp level")

    def problem(t):
        return simulate_problem(n, size, s, sigma, variant, derive_seed(seed, "risk", t))

    # the bound reads only the partition, xi, sigma and n, none of them drawn
    bound = theorem7_bound(problem(0), level, r=r, eta_k=eta_k) if trials else math.inf

    def trial(t):
        p = problem(t)
        model = lfr_fit(p)
        risk = lfr_errors(model, p).e2      # Parseval
        raw = eval_slope(model.coeffs, nodes)
        clamped = np.clip(raw, -level, level)
        if np.all(raw == clamped):
            return risk, False
        return risk + float(
            np.sum(weights * ((clamped - beta0) ** 2 - (raw - beta0) ** 2))), True

    n_singular, kept = _trials(trials, trial, SingularBlockError)
    risks = np.sort([risk for risk, _ in kept])
    return LfrRiskSummary(
        risks=risks,
        mean_risk=_mean(risks),
        bound=float(bound),
        n_singular=n_singular,
        truncation_active=any(active for _, active in kept),
    )
