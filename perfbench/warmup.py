"""Set-up of a workload process: import alphacir, then one small call per
layer.  The warm-up parameters (alpha = 1.35, a = 0.12) appear in no
workload, so no (theta, params) cache key a workload uses is filled here.

Run as a script it is the unit that setup_s times in a fresh process:
    python3 perfbench/warmup.py <work-dir>
"""

import os
import sys


def warm_up(work_dir: str) -> None:
    import numpy as np

    from alphacir import affine, cli, derivatives, jumps, mc, mechanism, sim, stable

    p = mechanism.ModelParams(a=0.12, b=0.25, sigma=0.1, sigma_z=0.2,
                              alpha=1.35, r0=0.04)
    rng = np.random.default_rng(7)
    stable.sample_stable_increment(stable.StableSpec(1.35), 0.01, rng, size=8)
    stable.small_jump_compensated_integral(1.0, 0.5, 1.35, 0.2)
    stable.big_jump_laplace_tail(0.1, 0.5, 1.35)
    mechanism.psi(1.0, p)
    mechanism.root_psi_equals_one(p)
    affine.solve_v(0.0, 1.0, 0.5, p)
    affine.stationary_laplace(0.5, p)
    jumps.survival_tau(0.05, 0.5, p)
    derivatives.hitting_time_laplace(0.04, 0.02, 3.7, p)
    derivatives.gaver_stehfest(lambda s: 1.0 / (s + 1.0), 1.0, n_terms=4)
    sim.simulate_root_batch(p, 0.01, 0.05, 4, rng)
    sim.simulate_thinned_batch(p, 0.5, 0.01, 0.05, 4, rng)
    sim.simulate_hawkes_batch(0.12, 0.25, 0.2, 0.05, 5, 4, rng)
    mc.mc_bond(p, 0.05, n_paths=100, dt=0.01, seed=7)
    cli.run(["boundary", "--alpha", "1.35", "--a", "0.12",
             "--out", os.path.join(work_dir, "warmup")])


if __name__ == "__main__":
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()):
        warm_up(sys.argv[1])
