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
    ridge: float

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        K = sinc_kernel(x[:, None], self.anchors[None, :], self.bandwidth)
        return K @ self.weights


def _ridge_solves(G: np.ndarray, rhs: np.ndarray, ridges):
    """Per ridge, w solving (G + ridge I) w = rhs, or None where that is not
    positive definite: one LAPACK dposv (Cholesky factor and solve) in one
    reused Fortran-order buffer, without cho_factor's and cho_solve's
    finiteness scans, so callers check G, rhs and the ridges."""
    from scipy.linalg.lapack import dposv   # loaded only where KRR runs
    G = np.asfortranarray(G)
    A = np.empty_like(G, order="F")
    diagonal = A.ravel(order="F")[:: len(A) + 1]    # a view: A is F-contiguous
    for ridge in ridges:
        np.copyto(A, G)
        diagonal += ridge
        _, w, info = dposv(A, rhs, lower=1, overwrite_a=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK posv")
        yield w if info == 0 else None    # info > 0: a leading minor is not PD


def _ridge_solve(G: np.ndarray, rhs: np.ndarray, ridge: float) -> np.ndarray:
    (w,) = _ridge_solves(G, rhs, (ridge,))
    if w is None:
        raise RegularizationError(
            f"regularized kernel Gram not positive definite at ridge={ridge:g}"
        )
    return w


def _check_xy(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if y.shape != (len(x),):
        raise ValueError(f"y has shape {y.shape}, expected ({len(x)},)")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("x and y must be finite")
    return x, y


def krr_fit(x, y, ridge: float, bandwidth: float = 10.0) -> KrrModel:
    """Solve (K/n + ridge I) w = y / n by Cholesky factorization."""
    x, y = _check_xy(x, y)
    if not 0 < ridge < math.inf:
        raise ValueError(f"ridge must be finite and > 0, got {ridge}")
    n = len(x)
    K = sinc_kernel(x[:, None], x[None, :], bandwidth)
    weights = _ridge_solve(K / n, y / n, ridge)
    return KrrModel(anchors=x, weights=weights, bandwidth=bandwidth, ridge=ridge)


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
    """k-fold cross-validation over a ridge grid; ties go to the larger ridge.

    Folds are a seeded shuffle split into `folds` nearly equal parts. The n x n
    kernel is built once per call and each fold's slices of it once per fold;
    each ridge then costs one Cholesky factor and solve (`_ridge_solves`). A
    ridge whose regularized fold Gram is not positive definite scores inf on
    that fold. The returned model is refit on all data at the selected ridge
    from the same kernel.
    """
    x, y = _check_xy(x, y)
    n = len(x)
    if not 2 <= folds <= n:
        raise ValueError(f"folds must be in [2, {n}], got {folds}")
    for ridge in grid:
        if not 0 < ridge < math.inf:
            raise ValueError(f"ridge must be finite and > 0, got {ridge}")
    K = sinc_kernel(x[:, None], x[None, :], bandwidth)
    perm = derive_rng(seed, "cv-folds").permutation(n)
    parts = np.array_split(perm, folds)
    fold_mse = []     # per fold: the held-out MSE of each ridge
    for k in range(folds):
        test = parts[k]
        train = np.concatenate([parts[j] for j in range(folds) if j != k])
        m = len(train)
        G = K[np.ix_(train, train)] / m
        K_test = K[np.ix_(test, train)]
        rhs = y[train] / m
        y_test = y[test]
        R = np.full((len(grid), len(test)), math.inf)   # held-out residuals
        for i, w in enumerate(_ridge_solves(G, rhs, grid)):
            if w is not None:     # else the row stays inf: it scores inf here
                R[i] = K_test @ w - y_test
        fold_mse.append(np.mean(R**2, axis=1))
    errors = {float(ridge): float(np.mean(mse))
              for ridge, mse in zip(grid, np.transpose(fold_mse))}
    # minimal error; among ties prefer the strongest regularization
    best = max(sorted(errors), key=lambda r: (-errors[r], r))
    weights = _ridge_solve(K / n, y / n, best)
    model = KrrModel(anchors=x, weights=weights, bandwidth=bandwidth, ridge=best)
    return CvResult(ridge=best, cv_errors=errors, model=model)
