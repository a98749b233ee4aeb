"""Short-rate model with square-root diffusion plus spectrally positive
stable jumps: simulation, affine bond pricing, large-jump laws, and a
running-minimum yield option, cross-checked by Monte Carlo.
"""

from .mechanism import (
    ModelParams,
    JumpSpec,
    psi,
    psi_prime,
    phi,
    root_psi_equals_one,
    fixed_point_truncated,
    truncated_drift,
    truncated_level,
    boundary_classification,
    change_of_measure,
    INACCESSIBLE,
    ACCESSIBLE,
)
from .stable import (
    StableSpec,
    levy_density,
    levy_density_coefficient,
    tail_constant,
    big_jump_mass,
    big_jump_mean,
    big_jump_laplace_tail,
    sample_stable_increment,
)
from .affine import (
    OdeCurve,
    solve_v,
    joint_laplace,
    bond_price,
    bond_yield,
    stationary_laplace,
)
from .jumps import (
    ExpectedTau,
    RouteDisagreement,
    TailAsymptotics,
    counter_laplace,
    survival_curve,
    survival_tau,
    survival_tau_via_rhat,
    expected_tau,
    lou_first_jump_cdf,
    tail_asymptotics,
)
from .derivatives import (
    hitting_time_laplace,
    bond_transform_M,
    effective_strike,
    put_laplace,
    put_price,
    gaver_stehfest,
)
from .sim import (
    SimConfig,
    Path,
    simulate_root,
    simulate_thinned,
    simulate_lou,
    simulate_hawkes,
    first_large_jump,
)
from .mc import (
    McEstimate,
    mc_bond,
    mc_laplace,
    mc_survival,
    mc_counter,
    mc_expected_tau,
    mc_lou_first_jump_cdf,
    mc_running_min_put,
)

__version__ = "0.1.0"
