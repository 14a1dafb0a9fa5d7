"""Random sample generation, seed derivation, and the Beta CDF transform."""

import functools
import hashlib
import math

import numpy as np

from .errors import ValidationError
from .jacobi import JacobiParams

__all__ = [
    "derive_seed",
    "derive_rng",
    "sample_beta_on_I",
    "sample_beta_unit",
    "make_noise",
    "inverse_beta_cdf",
    "arcsine_quantile",
    "cdf_transform",
]


@functools.lru_cache(maxsize=4096)
def _label_hash(text: str) -> int:
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_seed(master_seed, *labels) -> tuple:
    """Stable per-stream seed: a tuple feeding numpy's SeedSequence.

    Integer labels pass through unchanged (cheap trial indices); everything
    else is hashed with blake2b so the derivation is stable across processes,
    unlike the builtin salted hash(). A tuple master seed (from an earlier
    derivation) is flattened so derivations compose.
    """
    if isinstance(master_seed, (tuple, list)):
        parts = [int(p) for p in master_seed]
    else:
        parts = [int(master_seed)]
    for label in labels:
        # cached on the text: np.int64(5) and 5.0 are equal keys with two texts
        parts.append(label if isinstance(label, int) else _label_hash(str(label)))
    return tuple(parts)


def derive_rng(master_seed, *labels) -> np.random.Generator:
    """np.random.default_rng(derive_seed(master_seed, *labels)), same state:
    each part is split here into the little-endian uint32 words SeedSequence
    would split it into, which it then takes without coercing them."""
    words = []
    for part in derive_seed(master_seed, *labels):
        if part < 0:
            raise ValueError("expected non-negative integer")
        words.append(part & 0xFFFFFFFF)
        while part > 0xFFFFFFFF:
            part >>= 32
            words.append(part & 0xFFFFFFFF)
    seq = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(seq))


def _beta_shapes(params: JacobiParams) -> tuple:
    """Shapes (beta+1, alpha+1) of the Beta law of a basis weight in tau.

    At x = 2 tau - 1 the weight (1-x)^alpha (1+x)^beta is proportional to
    tau^beta (1-tau)^alpha, which is also the unit-domain basis' weight.
    """
    return params.beta + 1.0, params.alpha + 1.0


def sample_beta_on_I(params: JacobiParams, n: int, seed=0) -> np.ndarray:
    """n points on [-1, 1] with density omega_{a,b} / gamma_{a,b}.

    Drawn as x = 2u - 1 with u ~ Beta(beta+1, alpha+1), built from the
    two-Gamma ratio so every shape >= 1/2 is handled without rejection tuning.
    """
    if n < 1:
        raise ValueError(f"sample size must be >= 1, got {n}")
    rng = derive_rng(seed)
    a, b = _beta_shapes(params)
    g1 = rng.gamma(a, size=n)
    g2 = rng.gamma(b, size=n)
    u = g1 / (g1 + g2)
    return 2.0 * u - 1.0


def sample_beta_unit(params: JacobiParams, n: int, seed=0) -> np.ndarray:
    """Same law pushed to [0, 1]: density proportional to x^beta (1-x)^alpha."""
    return (sample_beta_on_I(params, n, seed) + 1.0) / 2.0


def make_noise(n: int, sigma: float, family: str = "gaussian", seed=0) -> np.ndarray:
    """Centered i.i.d. noise with standard deviation sigma."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    rng = derive_rng(seed)
    if family == "gaussian":
        return sigma * rng.standard_normal(n)
    if family == "uniform":
        # U(-sigma*sqrt(3), sigma*sqrt(3)) has standard deviation sigma
        return rng.uniform(-sigma * math.sqrt(3.0), sigma * math.sqrt(3.0), size=n)
    raise ValueError(f"unknown noise family {family!r}")


def arcsine_quantile(t):
    """Closed-form Beta(1/2, 1/2) quantile: (1 + sin(pi t - pi/2)) / 2."""
    t = np.asarray(t, dtype=float)
    return 0.5 * (1.0 + np.sin(math.pi * t - math.pi / 2.0))


def inverse_beta_cdf(params: JacobiParams, t, method: str = "auto"):
    """Quantile of the basis weight's law Beta(beta+1, alpha+1) on [0, 1].

    method="closed" uses the arcsine closed form (alpha = beta = -1/2 only);
    method="numeric" always uses scipy's regularized incomplete Beta inverse
    (betaincinv); "auto" picks the closed form when it applies.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > 1.0 + 1e-12):
        raise ValidationError("quantile argument outside [0, 1]")
    t = np.clip(t, 0.0, 1.0)
    closed = params.alpha == -0.5 and params.beta == -0.5
    if method not in ("auto", "closed", "numeric"):
        raise ValueError(f"unknown method {method!r}")
    if method == "closed" and not closed:
        raise ValueError("closed form only available for alpha = beta = -1/2")
    if closed and method in ("auto", "closed"):
        return arcsine_quantile(t)
    from scipy.special import betaincinv   # loaded only where the transform runs
    return betaincinv(*_beta_shapes(params), t)


def cdf_transform(points, cdf, params: JacobiParams, to_symmetric: bool = True) -> np.ndarray:
    """Map arbitrary-law samples to the law of the basis weight.

    Evaluates u = cdf(x), validates it is a monotone map into [0, 1], then
    applies the Beta(beta+1, alpha+1) quantile. Returns points tau on [0, 1],
    drawn from the unit basis' weight, or 2*tau - 1 on [-1, 1] when
    to_symmetric is set (the default), drawn from omega / gamma like
    sample_beta_on_I.
    """
    raw = np.asarray(points, dtype=float)
    u = np.asarray(cdf(raw), dtype=float)
    if np.any(u < -1e-12) or np.any(u > 1.0 + 1e-12):
        raise ValidationError("cdf values escape [0, 1]")
    order = np.argsort(raw)
    if np.any(np.diff(u[order]) < -1e-12):
        raise ValidationError("non-monotone cdf detected")
    tau = inverse_beta_cdf(params, np.clip(u, 0.0, 1.0))
    return 2.0 * tau - 1.0 if to_symmetric else tau
