"""Sampling facilities: Beta-law design draws, derived per-stream seeds, and
the exact-CDF transform that turns samples from any known law into draws from
the design law. With the symmetric -1/2 weight the target is the arcsine law
and its quantile has a closed form."""

import numpy as np
from scipy.special import ndtr
from scipy.stats import kstest

from pinvreg.jacobi import JacobiParams
from pinvreg.sampling import (
    cdf_transform,
    derive_seed,
    inverse_beta_cdf,
    sample_beta_on_I,
)

SEED = 0


def main():
    cheb = JacobiParams(-0.5, -0.5)
    samples = sample_beta_on_I(cheb, 200_000, SEED)
    print(f"arcsine draws on [-1, 1]: mean {np.mean(samples):+.4f} "
          f"(theory 0), var {np.var(samples):.4f} (theory 0.5)")

    skew = JacobiParams(0.0, 0.5)
    pts = sample_beta_on_I(skew, 200_000, SEED)
    target = 2.0 * (skew.beta + 1.0) / (skew.alpha + skew.beta + 2.0) - 1.0
    print(f"skewed weight (0, 1/2):   mean {np.mean(pts):+.4f} "
          f"(theory {target:+.4f})")

    print("\nseeds derive per stream and compose:")
    print(f"  derive_seed(7, 'x', 3)          = {derive_seed(7, 'x', 3)}")
    print(f"  derive_seed(derive_seed(7,'x'),3) same: "
          f"{derive_seed(derive_seed(7, 'x'), 3) == derive_seed(7, 'x', 3)}")

    print("\nnormal draws -> arcsine law through the exact CDF map:")
    z = np.random.default_rng(SEED).standard_normal(100_000)
    u = (cdf_transform(z, ndtr, cheb) + 1.0) / 2.0
    ks = kstest(u, lambda t: 2.0 / np.pi * np.arcsin(np.sqrt(t))).statistic
    print(f"  Kolmogorov distance to the arcsine CDF: {ks:.5f} "
          f"(threshold at n=1e5: {1.36 / np.sqrt(len(z)):.5f})")

    t = np.linspace(0.05, 0.95, 7)
    closed = inverse_beta_cdf(cheb, t, method="closed")
    numeric = inverse_beta_cdf(cheb, t, method="numeric")
    print(f"  closed-form quantile vs numeric inverse: "
          f"max gap {np.max(np.abs(closed - numeric)):.2e}")


if __name__ == "__main__":
    main()
