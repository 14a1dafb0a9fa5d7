"""Normalized Jacobi polynomial bases, Gauss-Jacobi quadrature, weighted norms.

The basis ``wJ_k`` is the Jacobi family for the weight
``omega(x) = (1-x)^alpha (1+x)^beta`` on [-1, 1], normalized to unit weighted
L2 norm. Evaluation uses the three-term recurrence on the classical
(unnormalized) family followed by one division per degree; explicit closed
forms are unusable at large degree and appear only in test oracles.

A rescaled variant lives on [0, 1]: ``Q_k(x) = wJ_k(2x - 1) / sqrt(2)``,
orthonormal there against the weight ``4 * omega(2x - 1)``.
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import add, index

import numpy as np

__all__ = [
    "JacobiParams",
    "JacobiBasis",
    "QuadratureRule",
    "norm_constant",
    "omega_weight",
    "eta_ab",
    "uniform_bound",
    "gauss_jacobi_rule",
    "omega_norm",
    "SYMMETRIC",
    "UNIT",
]

SYMMETRIC = "symmetric"   # the interval [-1, 1]
UNIT = "unit"             # the interval [0, 1], rescaled basis
_ROUNDING_LIMIT = 1e-7    # largest relative rounding bound of an accepted h_k


@dataclass(frozen=True)
class JacobiParams:
    """Exponent pair (alpha, beta) of the Jacobi weight; both must be >= -1/2.

    The pair is stored as given (a model file saves an int as an int), and
    every constant is computed from float(alpha) and float(beta): a float32
    exponent equals, and hashes as, its float value, so both must give the
    same bits, and they share one cached basis.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha >= -0.5 and self.beta >= -0.5):
            raise ValueError(
                f"alpha and beta must be >= -1/2, got ({self.alpha}, {self.beta})"
            )

    @property
    def mu(self) -> float:
        return max(float(self.alpha), float(self.beta))

    @property
    def c_ab(self) -> float:
        return (float(self.alpha) + float(self.beta) + 1.0) / 2.0

    @cached_property
    def gamma_ab(self) -> float:
        # total mass of the weight, 2^(a+b+1) B(a+1, b+1), in log space; inf
        # past the float range, as eta_ab reads, and refused where the
        # log-space terms cancelled its digits, as JacobiBasis refuses h_k:
        # there an exp overflow may stand for a finite mass
        if _log_norm_constant(self, 0)[1] > _ROUNDING_LIMIT:
            raise ValueError(f"gamma_ab at alpha={self.alpha}, beta={self.beta} is not "
                             f"representable in floats")
        return _norm_constant(self, 0)[0]


def omega_weight(params: JacobiParams, x):
    """Jacobi weight (1-x)^alpha (1+x)^beta, elementwise."""
    x = np.asarray(x, dtype=float)
    return (1.0 - x) ** params.alpha * (1.0 + x) ** params.beta


def norm_constant(params: JacobiParams, k: int) -> float:
    """Squared weighted L2 norm h_k of the classical Jacobi polynomial.

    h_0 is the limit value gamma_ab, which agrees with the k=0 closed form
    whenever the latter is defined (it is 0/0 at alpha+beta+1 = 0). Past the
    float range h_k reads inf, as gamma_ab does. This is the raw log-space
    value: where its rounding bound passes 1e-7 (from about alpha = beta =
    7e6) its digits are gone, and JacobiBasis and gamma_ab refuse it.
    """
    if k < 0:
        raise ValueError(f"degree must be >= 0, got {k}")
    return _norm_constant(params, k)[0]


def _log_norm_constant(params: JacobiParams, k: int) -> tuple:
    """log h_k as a sum of log-space terms, and 2^-52 sum |terms|, the rounding
    bound of that sum; both read inf where a term passes the float range."""
    a, b = float(params.alpha), float(params.beta)
    log2 = (a + b + 1.0) * math.log(2.0)
    try:
        if k == 0:
            terms = (log2, math.lgamma(a + 1.0), math.lgamma(b + 1.0),
                     -math.lgamma(a + b + 2.0))
        else:
            terms = (log2, math.lgamma(k + a + 1.0), math.lgamma(k + b + 1.0),
                     -math.lgamma(k + 1.0), -math.log(2.0 * k + a + b + 1.0),
                     -math.lgamma(k + a + b + 1.0))
        # added left to right, as written out in one expression
        return reduce(add, terms), 2.0**-52 * math.fsum(map(abs, terms))
    except OverflowError:
        return math.inf, math.inf


def _norm_constant(params: JacobiParams, k: int) -> tuple:
    """h_k as the exp of its log-space sum, and that sum's rounding bound, which
    bounds h_k's relative error; both read inf past the float range."""
    log_h, rounding = _log_norm_constant(params, k)
    try:
        return math.exp(log_h), rounding
    except OverflowError:
        return math.inf, math.inf


def _recurrence_table(params: JacobiParams, x: np.ndarray, degree_max: int) -> np.ndarray:
    """Unnormalized Jacobi values, shape (degree_max+1,) + x.shape."""
    a, b = float(params.alpha), float(params.beta)
    out = np.zeros((degree_max + 1,) + x.shape)
    out[0] = 1.0
    if degree_max >= 1:
        out[1] = 0.5 * ((a + b + 2.0) * x + (a - b))
    for k in range(2, degree_max + 1):
        ab = a + b
        c1 = 2.0 * k * (k + ab) * (2.0 * k + ab - 2.0)
        c2 = (2.0 * k + ab - 1.0) * (a * a - b * b)
        c3 = (2.0 * k + ab - 2.0) * (2.0 * k + ab - 1.0) * (2.0 * k + ab)
        c4 = 2.0 * (k + a - 1.0) * (k + b - 1.0) * (2.0 * k + ab)
        out[k] = ((c2 + c3 * x) * out[k - 1] - c4 * out[k - 2]) / c1
    return out


@lru_cache(maxsize=64)
def _sqrt_norm_constants(params: JacobiParams, degree_max: int) -> np.ndarray:
    """sqrt(h_k) for k = 0..degree_max, read-only and built once per process.

    Raises ValueError where the basis is not representable; lru_cache keeps
    no exception, so such a basis is refused on every construction.
    """
    h, rounding = np.array([_norm_constant(params, k) for k in range(degree_max + 1)]).T
    # |P_k| peaks at x = -1 or 1 once max(alpha, beta) >= -1/2 (Szego
    # 7.32.2), so a recurrence finite there is finite on all of [-1, 1]
    with np.errstate(all="ignore"):
        ends = _recurrence_table(params, np.array([-1.0, 1.0]), degree_max)
    # a rounding bound past the limit: the log-space terms cancelled h_k's digits
    if not (np.all(np.isfinite(h) & (h > 0.0) & (rounding <= _ROUNDING_LIMIT))
            and np.all(np.isfinite(ends))):
        raise ValueError(f"Jacobi basis at alpha={params.alpha}, beta={params.beta}, "
                         f"N={degree_max} is not representable in floats")
    sqrt_h = np.sqrt(h)
    sqrt_h.flags.writeable = False      # shared by every basis of this key
    return sqrt_h


class JacobiBasis:
    """The first ``degree_max + 1`` normalized Jacobi polynomials on a domain.

    Parameters
    ----------
    params : JacobiParams
    degree_max : int
        Largest degree N; the basis has N + 1 members.
    domain : str
        ``"symmetric"`` for [-1, 1] (default) or ``"unit"`` for the rescaled
        family on [0, 1].
    """

    def __init__(self, params: JacobiParams, degree_max: int, domain: str = SYMMETRIC):
        if degree_max < 0:
            raise ValueError(f"degree_max must be >= 0, got {degree_max}")
        if domain not in (SYMMETRIC, UNIT):
            raise ValueError(f"unknown domain {domain!r}")
        # index() refuses 5.0 as range() would: 5.0 and 5 are one cache key
        self._sqrt_h = _sqrt_norm_constants(params, index(degree_max))
        self.params = params
        self.degree_max = int(degree_max)
        self.domain = domain

    @property
    def size(self) -> int:
        return self.degree_max + 1

    def _to_symmetric(self, x: np.ndarray) -> np.ndarray:
        # each test is written so that NaN fails it as well
        if self.domain == UNIT:
            if not np.all((x >= -1e-12) & (x <= 1.0 + 1e-12)):
                raise ValueError("sample point outside [0, 1] or not finite")
            return 2.0 * x - 1.0
        if not np.all(np.abs(x) <= 1.0 + 1e-12):
            raise ValueError("sample point outside [-1, 1] or not finite")
        return x

    def table(self, x) -> np.ndarray:
        """Values of all basis members at the points x, shape (len(x), N+1)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        t = np.clip(self._to_symmetric(x), -1.0, 1.0)
        vals = _recurrence_table(self.params, t, self.degree_max)
        vals /= self._sqrt_h[:, None]
        if self.domain == UNIT:
            vals /= math.sqrt(2.0)
        return vals.T

    def quadrature(self, order: int) -> "QuadratureRule":
        """Gauss rule integrating against this basis's orthogonality weight."""
        rule = gauss_jacobi_rule(self.params, order)
        if self.domain == UNIT:
            return QuadratureRule(
                nodes=(rule.nodes + 1.0) / 2.0, weights=2.0 * rule.weights
            )
        return rule


def eta_ab(params: JacobiParams) -> float:
    """Printed constant eta_{a,b} of the sup-norm majorant; inf when it
    passes the float range, as a vacuous bound reads."""
    a, b = float(params.alpha), float(params.beta)
    mu = params.mu
    try:
        return math.exp(2.0 * max(mu, 0.0) / 12.0 + max(mu * mu + a * b, 0.0) / 8.0
                        - (a + b) / 2.0 * math.log(2.0) - math.lgamma(mu + 1.0))
    except OverflowError:
        return math.inf


def uniform_bound(params: JacobiParams, k: int) -> float:
    """Printed sup-norm majorant eta_{a,b} * k^mu * sqrt(k + c_ab) for degree k >= 2.

    Known defect: at k = 2 the majorant is exceeded by the true maximum when
    mu = 1/2 (by up to ~6%); the formula is reproduced exactly as printed.
    """
    if k < 2:
        raise ValueError(f"uniform bound requires k >= 2, got {k}")
    return eta_ab(params) * k**params.mu * math.sqrt(k + params.c_ab)


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray


def gauss_jacobi_rule(params: JacobiParams, order: int) -> QuadratureRule:
    """Gauss-Jacobi rule from scipy's `roots_jacobi`, or at alpha = beta = -1/2
    the Gauss-Chebyshev rule in closed form: nodes sin(pi k / (2 order)) for
    k = 1 - order, 3 - order, ..., order - 1 and weights pi / order, the
    formula of scipy's roots_chebyt (there with sinpi), without loading scipy.

    The returned rule integrates x -> f(x) * omega(x) over [-1, 1] exactly for
    polynomials f of degree <= 2*order - 1. Weights sum to gamma_ab.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if params.alpha == -0.5 and params.beta == -0.5:
        nodes = np.sin(np.pi * np.arange(1 - order, order, 2) / (2 * order))
        return QuadratureRule(nodes=nodes, weights=np.full(order, np.pi / order))
    from scipy.special import roots_jacobi   # loaded only where quadrature runs
    nodes, weights = roots_jacobi(order, params.alpha, params.beta)
    return QuadratureRule(nodes=nodes, weights=weights)


def omega_norm(f, rule: QuadratureRule) -> float:
    """Weighted L2 norm of f computed with the given quadrature rule."""
    vals = f(rule.nodes) if callable(f) else np.asarray(f, dtype=float)
    return math.sqrt(max(float(np.dot(rule.weights, vals * vals)), 0.0))
