"""Kernel ridge regression with the band-limited (sinc) kernel.

Serves as a classical baseline for the polynomial least-squares estimator:
same data, same noise, mean squared error measured the same way.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import RegularizationError
from .sampling import derive_rng

__all__ = [
    "sinc_kernel",
    "KrrModel",
    "CvResult",
    "krr_fit",
    "cross_validate",
    "DEFAULT_LAMBDA_GRID",
]

# 12 log-spaced ridge levels spanning [1e-9, 1]
DEFAULT_LAMBDA_GRID = tuple(np.logspace(-9.0, 0.0, 12))


def sinc_kernel(x, y, c: float = 10.0) -> np.ndarray:
    """K(x, y) = sin(c (x - y)) / (pi (x - y)), broadcast over inputs.

    Written as (c/pi) sinc(c (x - y) / pi) with numpy's normalized sinc,
    which takes the diagonal limit c/pi exactly. A ValueError names c where
    c (x - y) passes the float range.
    """
    if c <= 0:
        raise ValueError(f"bandwidth c must be > 0, got {c}")
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    with np.errstate(over="ignore"):      # refused below
        cd = c * d
    if not np.all(np.isfinite(cd)):
        raise ValueError(f"bandwidth c={c} puts c (x - y) past the float range")
    return (c / math.pi) * np.sinc(cd / math.pi)


@dataclass
class KrrModel:
    anchors: np.ndarray      # training points
    weights: np.ndarray      # representer coefficients
    bandwidth: float

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        K = sinc_kernel(x[:, None], self.anchors[None, :], self.bandwidth)
        return K @ self.weights


def _positive(e: np.ndarray, ridges, m: int):
    """Where K/m + ridge I is positive definite, K having the ascending
    eigenvalues e: where its least eigenvalue passes numpy's matrix_rank
    tolerance, e_max * n * eps, divided by m as the system is. Every principal
    submatrix of a positive definite matrix is one too, so this holds for
    each fold's training block."""
    return e[0] / m + ridges > e[-1] / m * len(e) * np.finfo(float).eps


def _ridge_solve(e: np.ndarray, V: np.ndarray, y: np.ndarray, ridge: float):
    """w solving (K/n + ridge I) w = y/n from K = V diag(e) V'."""
    n = len(y)
    if not _positive(e, ridge, n):
        raise RegularizationError(
            f"regularized kernel Gram not positive definite at ridge={ridge:g}"
        )
    return V @ ((V.T @ (y / n)) / (e / n + ridge))


def _check_xy(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape != (len(x),):
        raise ValueError(f"y has shape {y.shape}, expected ({len(x)},)")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    return x, y


def krr_fit(x, y, ridge: float, bandwidth: float = 10.0) -> KrrModel:
    """Solve (K/n + ridge I) w = y / n through one eigendecomposition of K."""
    x, y = _check_xy(x, y)
    if not 0 < ridge < math.inf:
        raise ValueError(f"ridge must be finite and > 0, got {ridge}")
    e, V = np.linalg.eigh(sinc_kernel(x[:, None], x[None, :], bandwidth))
    weights = _ridge_solve(e, V, y, ridge)
    return KrrModel(anchors=x, weights=weights, bandwidth=bandwidth)


@dataclass(frozen=True)
class CvResult:
    ridge: float
    cv_errors: dict           # ridge -> mean held-out MSE
    model: KrrModel


def cross_validate(
    x,
    y,
    grid=DEFAULT_LAMBDA_GRID,
    folds: int = 5,
    bandwidth: float = 10.0,
    seed=0,
) -> CvResult:
    """k-fold cross-validation over a ridge grid, each distinct ridge once in
    the grid's order; ties go to the larger ridge.

    Folds are a seeded shuffle split into `folds` nearly equal parts. The n x n
    kernel K = V diag(e) V' is built and eigendecomposed once per call. A fold
    with held-out set s and m training points fits (K_tt/m + ridge I) w = y_t/m;
    by the block inverse of M = K + m ridge I, its held-out residuals are
    -S^-1 z with S = V_s diag(D) V_s' and z = V_s diag(D) V'y, D = 1/(e + m ridge)
    (An, Liu & Venkatesh, Pattern Recognition 40(8), 2007). S^-1 z does not
    depend on D's scale, so D is taken as (e_min + m ridge)/(e + m ridge), in
    (0, 1] for every ridge, and each fold solves all its ridges in one batched
    `solve`. A ridge for which M is not positive definite (`_positive`) scores
    inf on that fold. The returned model is refit on all data at the selected
    ridge from the same eigendecomposition.
    """
    x, y = _check_xy(x, y)
    n = len(x)
    if not 2 <= folds <= n:
        raise ValueError(f"folds must be in [2, {n}], got {folds}")
    if not len(grid):
        raise ValueError("grid must hold at least one ridge")
    for ridge in grid:
        if not 0 < ridge < math.inf:
            raise ValueError(f"ridge must be finite and > 0, got {ridge}")
    e, V = np.linalg.eigh(sinc_kernel(x[:, None], x[None, :], bandwidth))
    Vy = V.T @ y
    ridges = np.array(list(dict.fromkeys(map(float, grid))))
    perm = derive_rng(seed, "cv-folds").permutation(n)
    fold_mse = []     # per fold: the held-out MSE of each ridge
    for test in np.array_split(perm, folds):
        m, Vs = n - len(test), V[test]
        ok = _positive(e, ridges, m)
        # D in units of 1/m, so that no finite ridge overflows
        D = (e[0] / m + ridges[ok, None]) / (e / m + ridges[ok, None])
        VD = Vs * D[:, None, :]                       # (ridges, t, n)
        R = np.full((len(ridges), len(test)), math.inf)   # held-out residuals
        R[ok] = -np.linalg.solve(VD @ Vs.T, (VD @ Vy)[..., None])[..., 0]
        fold_mse.append(np.mean(R**2, axis=1))
    errors = dict(zip(ridges.tolist(), np.mean(fold_mse, axis=0).tolist()))
    # minimal error; among ties prefer the strongest regularization
    best = max(sorted(errors), key=lambda r: (-errors[r], r))
    weights = _ridge_solve(e, V, y, best)
    model = KrrModel(anchors=x, weights=weights, bandwidth=bandwidth)
    return CvResult(ridge=best, cv_errors=errors, model=model)
