#!/usr/bin/env python3
"""Analytic-vs-Monte-Carlo concordance sweep across stability indices.

Compares the affine bond price, the Laplace functional under both path
schemes, the first-large-jump survival probability, the Levy-OU first-jump
CDF and the expected first-jump time against their simulation estimates,
printing a z-score per cell.  The last three are the three outputs of the
thinned step kernel: its first passage, its frozen (LOU) mode and the
one first-passage run of E[tau].  Every (cell, alpha) has its own seed,
cell number + 10 * alpha index, so no two cells share their draws.  Slower
and wider than `alphacir selfcheck`; meant for an occasional full shake-out.

Usage: python3 scripts/concordance_sweep.py [n_paths]
"""

import sys
import time

import numpy as np

from alphacir import (
    ModelParams,
    bond_price,
    expected_tau,
    joint_laplace,
    lou_first_jump_cdf,
    mc_bond,
    mc_expected_tau,
    mc_laplace,
    mc_lou_first_jump_cdf,
    mc_survival,
    survival_tau,
)

N_PATHS = int(sys.argv[1]) if len(sys.argv) > 1 else 50_000


def cell(label, est, target):
    z = abs(est.value - target) / est.std_error
    flag = "" if z <= 3.0 else "  <-- OUT OF BAND"
    print(f"  {label}: mc={est.value:.6f}±{est.std_error:.6f} "
          f"analytic={target:.6f} z={z:.2f}{flag}")
    return z <= 3.0


def main() -> int:
    ok = True
    t0 = time.time()
    for i, alpha in enumerate((1.2, 1.5, 2.0)):
        p = ModelParams(a=0.1, b=0.3, sigma=0.1, sigma_z=0.3,
                        alpha=alpha, r0=0.05)
        print(f"alpha={alpha}")
        ok &= cell("bond T=1", mc_bond(p, 1.0, n_paths=N_PATHS, seed=1 + 10 * i),
                   bond_price(0.0, 1.0, p.r0, p))
        ok &= cell("laplace(root)",
                   mc_laplace(p, 1.0, 1.0, scheme="root",
                              n_paths=N_PATHS, seed=2 + 10 * i),
                   joint_laplace(p.r0, 1.0, 1.0, 0.0, p))
        if alpha < 2.0:
            ok &= cell("laplace(thinned)",
                       mc_laplace(p, 1.0, 1.0, scheme="thinned", y=1.0,
                                  n_paths=N_PATHS, seed=3 + 10 * i),
                       joint_laplace(p.r0, 1.0, 1.0, 0.0, p))
    for i, alpha in enumerate((1.2, 1.5)):
        p = ModelParams(a=0.1, b=0.1, sigma=0.1, sigma_z=0.1,
                        alpha=alpha, r0=0.2)
        print(f"alpha={alpha} (jump fixture)")
        est = mc_survival(p, 0.1, [2.0], n_paths=N_PATHS, dt=2e-3,
                          seed=4 + 10 * i)[0]
        ok &= cell("survival t=2", est, survival_tau(0.1, 2.0, p))
        est = mc_lou_first_jump_cdf(p, 0.1, [2.0], n_paths=N_PATHS, dt=2e-3,
                                    seed=5 + 10 * i)[0]
        ok &= cell("LOU first-jump cdf t=2", est, lou_first_jump_cdf(0.1, 2.0, p))
        ok &= cell("E[tau]", mc_expected_tau(p, 0.1, n_paths=N_PATHS,
                                             seed=6 + 10 * i),
                   expected_tau(0.1, p).value)
    print(f"{'all within 3 SE' if ok else 'VIOLATIONS FOUND'} "
          f"({time.time() - t0:.1f}s, {N_PATHS} paths/cell)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
