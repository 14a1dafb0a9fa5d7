"""Regression on a rough target: the lacunary cosine function with smoothness
s is fit by the polynomial pseudo-inverse estimator and by sinc-kernel ridge
regression with cross-validated ridge. The two reach comparable accuracy; the
polynomial path is much cheaper because it factors an n x (N+1) matrix
instead of n x n."""

import numpy as np

from pinvreg.bench import timing_comparison
from pinvreg.design import build_design
from pinvreg.jacobi import JacobiBasis, JacobiParams, omega_norm
from pinvreg.krr import cross_validate
from pinvreg.regression import fit, weierstrass
from pinvreg.sampling import derive_seed, make_noise, sample_beta_on_I

SEED = 11


def main():
    params = JacobiParams(-0.5, -0.5)
    n, sigma = 100, 0.1
    for s, N in ((2.0, 10), (1.0, 20)):
        basis = JacobiBasis(params, N)
        rule = basis.quadrature(N + 12)
        f_nodes = weierstrass(s, rule.nodes)
        mse_poly, mse_krr = [], []
        for t in range(10):
            samples = sample_beta_on_I(params, n, derive_seed(SEED, "x", t))
            y = weierstrass(s, samples) + make_noise(
                n, sigma, seed=derive_seed(SEED, "e", t))
            model = fit(build_design(basis, samples), y)
            mse_poly.append(
                omega_norm(f_nodes - basis.table(rule.nodes) @ model.coeffs, rule) ** 2)
            cv = cross_validate(samples, y, bandwidth=float(N),
                                seed=derive_seed(SEED, "cv", t))
            mse_krr.append(
                omega_norm(f_nodes - cv.model.predict(rule.nodes), rule) ** 2)
        print(f"s={s}  N={N:2d}  polynomial MSE {np.mean(mse_poly):.2e}"
              f"   kernel ridge MSE {np.mean(mse_krr):.2e}")

    timing = timing_comparison(n=200, degree_max=10, bandwidth=10.0, seed=SEED)
    ratio = timing["krr_seconds"] / timing["npreg_seconds"]
    print(f"\nfit time at n=200: kernel path is {ratio:.1f}x the polynomial path")


if __name__ == "__main__":
    main()
