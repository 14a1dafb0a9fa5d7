"""Random design matrices, their Gram spectra, and printed stability bounds."""

import math
from dataclasses import dataclass

import numpy as np

from .jacobi import JacobiBasis, JacobiParams, eta_ab
from .sampling import (cdf_transform, derive_rng, derive_seed, normal_cdf,
                       sample_beta_on_I)

__all__ = [
    "SpectralReport",
    "TheoryBounds",
    "McSummary",
    "build_design",
    "spectral_report",
    "least_squares",
    "theory_bounds",
    "mc_condition_number",
]

CHEBYSHEV_SHARP_M_SQ = 2.0 / math.pi  # sup of the normalized family squared


def build_design(basis: JacobiBasis, samples) -> np.ndarray:
    """The n x (N+1) design of n samples, entry (j, k) = wJ_k(X_j) / sqrt(n),
    or the (trials, n, N+1) stack of designs of (trials, n) samples, from one
    basis table over all points."""
    points = np.asarray(samples, dtype=float)
    n = points.shape[-1]
    if n < basis.size:
        raise ValueError(
            f"underdetermined system: n={n} rows for {basis.size} basis columns"
        )
    matrix = basis.table(points.ravel()).reshape(*points.shape, basis.size)
    matrix /= math.sqrt(n)    # in place: the table is the largest array here
    return matrix


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray   # ascending
    near_singular: bool

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def kappa2(self) -> float:
        if self.near_singular:
            return math.inf
        return self.lambda_max / self.lambda_min


def _near_singular(eigenvalues: np.ndarray):
    # the one rule, lambda_min <= 1e-12 lambda_max, for a spectrum or a stack
    return eigenvalues[..., 0] <= 1e-12 * np.maximum(eigenvalues[..., -1], 0.0)


def _report(eigenvalues: np.ndarray) -> SpectralReport:
    return SpectralReport(eigenvalues, bool(_near_singular(eigenvalues)))


def _eigenvalues(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of symmetric matrices, shape (k, m, m),
    from one batched eigvalsh: the same LAPACK routine on each matrix."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {A.shape}")
    At = A.swapaxes(1, 2)
    asym = float(np.max(np.abs(A - At))) if A.size else 0.0
    if asym > 1e-8:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    return np.linalg.eigvalsh(0.5 * (A + At))


def _kappas(A: np.ndarray) -> np.ndarray:
    """kappa2 of each matrix of a stack, as its spectral_report reads it."""
    e = _eigenvalues(A)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(_near_singular(e), math.inf, e[:, -1] / e[:, 0])


def spectral_report(A: np.ndarray) -> SpectralReport:
    """Eigenvalues and a near-singularity verdict for symmetric A."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return _report(_eigenvalues(A[None])[0])


def least_squares(matrix: np.ndarray, rhs: np.ndarray) -> tuple:
    """Coefficients of min ||matrix c - rhs|| and the spectral report of the
    Gram matrix' matrix (eigenvalues s^2), from one LAPACK gelsd (SVD) call.

    Callers raise on report.near_singular. Its cutoff s_min^2 <= 1e-12 s_max^2
    sits far above gelsd's rank cutoff (about eps max(m, n) s_max), so gelsd's
    silent truncation never decides an accepted solution."""
    coeffs, _, _, s = np.linalg.lstsq(matrix, rhs, rcond=None)
    # a wide matrix has fewer singular values than columns; the rest are zero
    eigenvalues = s[::-1] ** 2
    if len(s) < matrix.shape[1]:
        eigenvalues = np.pad(eigenvalues, (matrix.shape[1] - len(s), 0))
    return coeffs, _report(eigenvalues)


@dataclass(frozen=True)
class TheoryBounds:
    """Printed spectral predictions for the Gram of a random design; the
    condition-number statements are scale-free."""

    params: JacobiParams
    n: int
    degree_max: int
    m_sq: float                    # squared sup-norm proxy actually used
    L_N: float
    condition1_ok: bool

    def kappa_bound(self, delta: float) -> float:
        """High-probability condition number envelope; inf when vacuous."""
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        N, n = self.degree_max, self.n
        term = self.L_N * (
            math.log(N + 1.0) / n + math.sqrt(2.0 / n * math.log(2.0 / delta))
        )
        denominator = 0.63 - term
        if denominator <= 0.0:
            return math.inf
        return (1.72 + term) / denominator


def theory_bounds(
    params: JacobiParams, n: int, degree_max: int, chebyshev_sharp: bool = False
) -> TheoryBounds:
    """Evaluate the printed m^2, L_N and stability condition."""
    if degree_max < 2:
        raise ValueError(f"bounds need degree_max >= 2, got {degree_max}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    mu = params.mu
    eta = eta_ab(params)
    m_sq_generic = (1.0 + 0.5 * math.sqrt(params.c_ab / 2.0)) / (mu + 1.5) * eta * eta
    if chebyshev_sharp and not (params.alpha == -0.5 and params.beta == -0.5):
        raise ValueError("sharp constant applies only to alpha = beta = -1/2")
    m_sq = CHEBYSHEV_SHARP_M_SQ if chebyshev_sharp else m_sq_generic
    N = degree_max
    try:
        L_N = m_sq * (N + 1.0) ** (2.0 * mu + 2.0)
    except OverflowError:     # past the float range, as eta_ab reads
        L_N = math.inf
    return TheoryBounds(
        params=params,
        n=n,
        degree_max=N,
        m_sq=m_sq,
        L_N=L_N,
        condition1_ok=0.63 * n > L_N * math.log(N + 1.0),
    )


def _mean(values) -> float:
    """Mean over the trials that were not singular; inf when none was. Where
    their sum passes the float range, the mean of finite values is taken as
    the sum of each over their count."""
    if not len(values):
        return math.inf
    with np.errstate(over="ignore"):
        mean = float(np.mean(values))
    if not math.isfinite(mean) and np.all(np.isfinite(values)):
        mean = float(np.sum(np.divide(values, len(values))))
    return mean


def _trials(trials: int, trial, singular) -> tuple:
    """The count of the trials t < trials whose trial(t) raised `singular`,
    and the values trial(t) of the others, in trial order: the one place
    where a singular trial is counted, not averaged. Any other error
    escapes."""
    values = []
    for t in range(trials):
        try:
            values.append(trial(t))
        except singular:
            pass
    return trials - len(values), values


@dataclass(frozen=True)
class McSummary:
    """Per-trial Gram condition numbers of repeated random designs, sorted."""

    kappas: np.ndarray        # finite trials only, ascending
    n_singular: int

    @property
    def mean_kappa2(self) -> float:
        return _mean(self.kappas)


def mc_condition_number(
    params: JacobiParams,
    n: int,
    degree_max: int,
    trials: int,
    transform: str | None = None,
    master_seed=0,
) -> McSummary:
    """Monte Carlo over random designs; per-trial kappa2(A_N).

    transform=None samples the Beta law directly; transform="standard_normal"
    draws standard normals and maps them through the exact-CDF Beta transform.
    Trials whose Gram is numerically singular are counted, not averaged.
    Each trial draws from its own derived stream; the trials then share one
    basis table and one batched eigvalsh.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if transform not in (None, "standard_normal"):
        raise ValueError(f"unknown transform {transform!r}")
    basis = JacobiBasis(params, degree_max)
    tag = "direct" if transform is None else transform
    seeds = [derive_seed(master_seed, f"mc-{tag}", t) for t in range(trials)]
    if transform is None:
        samples = np.concatenate([sample_beta_on_I(params, n, seed) for seed in seeds])
    else:
        z = np.concatenate([derive_rng(seed).standard_normal(n) for seed in seeds])
        samples = cdf_transform(z, normal_cdf, params)
    A = build_design(basis, samples.reshape(trials, n))
    kappas = _kappas(A.swapaxes(1, 2) @ A)
    kappas = kappas[kappas != math.inf]
    return McSummary(kappas=np.sort(kappas), n_singular=trials - len(kappas))
