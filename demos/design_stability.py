"""Conditioning of random least-squares designs: Monte Carlo condition numbers
of the Gram matrix at Beta-distributed sample points, against the printed
high-probability ceiling and the sample-size condition that activates it."""

import numpy as np

from pinvreg.design import mc_condition_number, theory_bounds
from pinvreg.jacobi import JacobiParams

SEED = 7


def main():
    cheb = JacobiParams(-0.5, -0.5)

    print("mean condition number over 200 trials (alpha=beta=-1/2):")
    for N, n in ((5, 25), (10, 40), (15, 60), (20, 100)):
        mc = mc_condition_number(cheb, n, N, trials=200, master_seed=SEED)
        print(f"  N={N:2d} n={n:3d}  mean kappa2 = {mc.mean_kappa2:7.2f}"
              f"  (std {np.std(mc.kappas):.2f}, singular trials {mc.n_singular})")
    print("  (N=10, n=40 barely covers the degree: a few near-singular draws"
          " dominate the mean)")

    print("\nat N=5 the delta=0.1 ceiling only becomes finite once n is large:")
    for n in (25, 100, 400):
        tb = theory_bounds(cheb, n, 5, chebyshev_sharp=True)
        bound = tb.kappa_bound(0.1)
        if bound == float("inf"):
            print(f"  n={n:3d}  ceiling: inf (vacuous at this sample size)")
            continue
        mc = mc_condition_number(cheb, n, 5, trials=300, master_seed=SEED)
        frac = float((mc.kappas <= bound).mean())
        print(f"  n={n:3d}  ceiling: {bound:7.3f}  trials under it: {frac:.1%}")

    print("\nsampling through the exact-CDF transform gives the same law:")
    direct = mc_condition_number(cheb, 400, 5, trials=300, master_seed=SEED)
    mapped = mc_condition_number(cheb, 400, 5, trials=300,
                                 transform="standard_normal", master_seed=SEED)
    print(f"  direct Beta draws:       mean kappa2 = {direct.mean_kappa2:.3f}")
    print(f"  normal -> CDF transform: mean kappa2 = {mapped.mean_kappa2:.3f}")


if __name__ == "__main__":
    main()
