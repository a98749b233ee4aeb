"""The input contract of the public functions: a bad input raises ValueError
that names it, before anything is solved, drawn or returned."""

import numpy as np
import pytest

from alphacir.affine import bond_price, bond_yield
from alphacir.derivatives import (
    bond_transform_M,
    effective_strike,
    gaver_stehfest,
    gaver_stehfest_weights,
    hitting_time_laplace,
    put_laplace,
    put_price,
)
from alphacir.mc import mc_laplace
from alphacir.mechanism import (
    JumpSpec,
    ModelParams,
    change_of_measure,
    fixed_point_truncated,
    phi,
    psi,
    root_psi_equals_one,
)
from alphacir.sim import SimConfig, simulate_root_batch, simulate_thinned_batch
from alphacir.stable import (
    big_jump_laplace_tail,
    sample_pareto_tail,
    sample_truncated_band,
    small_jump_compensated_integral,
    truncated_second_moment,
)

BOND = dict(a=0.1, b=0.3, sigma=0.1, sigma_z=0.3, alpha=1.5, r0=0.05)
P = ModelParams(**BOND)


def _rng():
    return np.random.default_rng(0)


def _laplace(s):
    return 1.0 / (s + 0.7)


# each call returned a NaN or infinite value, or failed inside scipy, before
# its input was checked
@pytest.mark.parametrize("call, name", [
    (lambda: gaver_stehfest(_laplace, float("nan")), "t"),
    (lambda: gaver_stehfest(_laplace, float("inf")), "t"),
    (lambda: gaver_stehfest(lambda s: float("nan"), 1.0), "transform value"),
    (lambda: gaver_stehfest(lambda s: float("inf"), 1.0), "transform value"),
    (lambda: effective_strike(1.0, float("nan"), P), "K"),
    (lambda: effective_strike(1.0, float("inf"), P), "K"),
    (lambda: SimConfig(dt=float("nan")), "dt"),
    (lambda: hitting_time_laplace(0.05, 0.02, 1.0, P, eps=float("nan")), "eps"),
    (lambda: sample_pareto_tail(1.5, float("nan"), _rng(), 3), "y"),
    (lambda: truncated_second_moment(1.5, float("nan")), "eps"),
], ids=["gaver_stehfest-t-nan", "gaver_stehfest-t-inf",
        "gaver_stehfest-transform-nan", "gaver_stehfest-transform-inf",
        "effective_strike-K-nan", "effective_strike-K-inf", "SimConfig-dt-nan",
        "hitting_time_laplace-eps-nan", "sample_pareto_tail-y-nan",
        "truncated_second_moment-eps-nan"])
def test_non_finite_input_is_refused(call, name):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        call()


# one case per ValueError branch that no other unit test reaches, with a
# word of the message that names the input
REFUSED = {
    "ModelParams-b": (lambda: ModelParams(**{**BOND, "b": -0.1}), "b must"),
    "ModelParams-sigma": (lambda: ModelParams(**{**BOND, "sigma": -0.1}),
                          "sigma must"),
    "ModelParams-sigma_z": (lambda: ModelParams(**{**BOND, "sigma_z": -0.1}),
                            "sigma_z must"),
    "ModelParams-r0": (lambda: ModelParams(**{**BOND, "r0": -0.1}), "r0 must"),
    "JumpSpec-variant": (lambda: JumpSpec("capped"), "variant"),
    "JumpSpec-truncated-y": (lambda: JumpSpec.truncated(0.0), "y must"),
    "JumpSpec-tempered-theta": (lambda: JumpSpec.tempered(-1.0),
                                "theta must"),
    "psi-q": (lambda: psi(-1.0, P), "q must"),
    "phi-q": (lambda: phi(-1.0, P), "q must"),
    # Psi(q) = 1e-13 q reaches 1 only at q = 1e13
    "root_psi_equals_one-bracket": (lambda: root_psi_equals_one(ModelParams(
        **{**BOND, "a": 1e-13, "sigma": 0.0, "sigma_z": 0.0})), "bracketing"),
    "fixed_point_truncated-sigma_z": (lambda: fixed_point_truncated(
        ModelParams(**{**BOND, "sigma_z": 0.0}), 1.0), "sigma_z"),
    "change_of_measure-theta": (lambda: change_of_measure(P, 0.0, -1.0),
                                "theta must"),
    # a' = a - sigma eta = 0.1 - 0.1 * 2 < 0
    "change_of_measure-a": (lambda: change_of_measure(P, 2.0, 0.0), "a'"),
    "small_jump-q": (lambda: small_jump_compensated_integral(-1.0, 1.0, 1.5,
                                                             0.3), "q must"),
    "big_jump_laplace_tail-c": (lambda: big_jump_laplace_tail(-1.0, 1.0, 1.5),
                                "c must"),
    "sample_truncated_band-lo-hi": (lambda: sample_truncated_band(
        1.5, 2.0, 1.0, _rng()), "lo < hi"),
    # these gave negative marks and a complex moment
    "sample_pareto_tail-y": (lambda: sample_pareto_tail(1.5, -1.0, _rng(), 2),
                             "y must"),
    "truncated_second_moment-eps": (lambda: truncated_second_moment(1.5, -1.0),
                                    "eps must"),
    "bond_price-T": (lambda: bond_price(1.0, 0.5, 0.05, P), "maturity T"),
    "bond_yield-kappa": (lambda: bond_yield(0.0, 0.05, P), "kappa must"),
    "hitting_time_laplace-y": (lambda: hitting_time_laplace(0.05, 0.0, 1.0, P),
                               "y must"),
    "hitting_time_laplace-theta": (lambda: hitting_time_laplace(
        0.05, 0.02, 0.0, P), "theta must"),
    "hitting_time_laplace-eps": (lambda: hitting_time_laplace(
        0.05, 0.02, 1.0, P, eps=0.0), "eps must"),
    "bond_transform_M-theta": (lambda: bond_transform_M(0.0, 0.02, P),
                               "theta must"),
    "bond_transform_M-y": (lambda: bond_transform_M(1.0, -0.01, P), "y must"),
    "put_laplace-theta": (lambda: put_laplace([1.0, -1.0], 1.0, 0.04, P),
                          "theta must"),
    "gaver_stehfest_weights-n_terms": (lambda: gaver_stehfest_weights(3),
                                       "n_terms must"),
    "gaver_stehfest-t": (lambda: gaver_stehfest(_laplace, 0.0), "t must"),
    "put_price-T": (lambda: put_price(0.0, 1.0, 0.04, P), "T must"),
    "simulate_root_batch-antithetic-n_paths": (lambda: simulate_root_batch(
        P, 1e-2, 1.0, 3, _rng(), antithetic=True), "n_paths"),
    "simulate_thinned_batch-sigma_z": (lambda: simulate_thinned_batch(
        ModelParams(**{**BOND, "sigma_z": 0.0}), 1.0, 1e-2, 1.0, 4, _rng()),
        "sigma_z"),
    "mc_laplace-scheme": (lambda: mc_laplace(P, 1.0, 0.1, n_paths=10,
                                             scheme="euler"), "scheme"),
}


@pytest.mark.parametrize("call, name", REFUSED.values(), ids=REFUSED.keys())
def test_bad_input_is_refused_by_name(call, name):
    with pytest.raises(ValueError, match=name):
        call()
