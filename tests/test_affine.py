import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import trapezoid

from alphacir.affine import (
    bond_price,
    bond_price_from_curve,
    bond_yield,
    joint_laplace,
    solve_v,
    stationary_laplace,
    yield_from_curve,
)
from alphacir.mechanism import JumpSpec, ModelParams, root_psi_equals_one
from oracles import cir_bond, cir_stationary_laplace


def test_bond_at_own_maturity_is_one(bond_params):
    assert bond_price(1.0, 1.0, 0.07, bond_params()) == 1.0


def test_bond_reduces_to_cir_when_jumps_vanish(bond_params):
    p = bond_params(alpha=1.5, sigma_z=0.0)
    for T in (1.0, 5.0, 10.0):
        assert bond_price(0.0, T, p.r0, p) == pytest.approx(
            cir_bond(p.a, p.b, p.sigma, p.r0, T), rel=1e-8)


def test_bond_alpha_two_is_cir_with_effective_volatility(bond_params):
    p = bond_params(alpha=2.0)
    s_eff = np.sqrt(p.sigma ** 2 + 2.0 * p.sigma_z ** 2)
    for T in (1.0, 5.0, 10.0):
        assert bond_price(0.0, T, p.r0, p) == pytest.approx(
            cir_bond(p.a, p.b, s_eff, p.r0, T), rel=1e-8)


def test_v_curve_increases_toward_root(bond_params):
    p = bond_params(alpha=1.5)
    curve = solve_v(0.0, 1.0, 50.0, p)
    x0 = root_psi_equals_one(p)
    ts = np.linspace(0.0, 50.0, 200)
    vs = curve(ts)
    # strictly increasing until it saturates at x0 (where roundoff wiggles)
    assert np.all(np.diff(vs[ts <= 20.0]) > 0.0)
    assert np.all(np.diff(vs) > -1e-9)
    assert vs[-1] <= x0 + 1e-9
    assert vs[-1] == pytest.approx(x0, rel=1e-6)


def test_curve_integral_matches_trapezoid(bond_params):
    curve = solve_v(0.0, 1.0, 5.0, bond_params(alpha=1.5))
    ts = np.linspace(0.0, 5.0, 20_001)
    assert curve.integral(5.0) == pytest.approx(trapezoid(curve(ts), ts),
                                                rel=1e-8)


def test_curve_integral_of_array_equals_scalar_loop(bond_params):
    curve = solve_v(0.0, 1.0, 30.0, bond_params(alpha=1.5))
    ts = np.concatenate(([-1.0, 0.0], np.linspace(0.0, 40.0, 1001),
                         curve.grid))
    scalar = np.array([curve.integral(float(t)) for t in ts])
    assert np.array_equal(curve.integral(ts), scalar)
    assert np.array_equal(curve.integral(ts[:1000].reshape(20, 50)),
                          scalar[:1000].reshape(20, 50))
    assert isinstance(curve.integral(2.0), float)
    assert curve.integral(0.0) == 0.0 and curve.integral(-1.0) == 0.0


def test_joint_laplace_at_time_zero(bond_params):
    p = bond_params(alpha=1.2)
    assert joint_laplace(0.3, 0.0, 2.0, 1.0, p) == pytest.approx(
        np.exp(-2.0 * 0.3))


def test_joint_laplace_short_time_expansion(bond_params):
    # for small t, E[e^{-p r_t}] ~ e^{-p r0} up to O(t)
    p = bond_params(alpha=1.5)
    val = joint_laplace(p.r0, 1e-4, 1.0, 0.0, p)
    assert val == pytest.approx(np.exp(-p.r0), rel=1e-3)


@given(st.floats(min_value=1.05, max_value=2.0),
       st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=25, deadline=None)
def test_bond_in_unit_interval_and_decreasing(alpha, T):
    p = ModelParams(a=0.1, b=0.3, sigma=0.1, sigma_z=0.3, alpha=alpha,
                    r0=0.05)
    near = bond_price(0.0, T, p.r0, p)
    far = bond_price(0.0, T + 1.0, p.r0, p)
    assert 0.0 < far < near <= 1.0


def test_yield_is_log_price_over_tenor(bond_params):
    p = bond_params(alpha=1.5)
    kappa = 2.0
    y = bond_yield(0.0, kappa, p.r0, p)
    assert y == pytest.approx(-np.log(bond_price(0.0, kappa, p.r0, p)) / kappa,
                              rel=1e-9)


def test_yield_from_curve_vectorizes(bond_params):
    p = bond_params(alpha=1.5)
    curve = solve_v(0.0, 1.0, 1.0, p)
    rates = np.array([0.01, 0.05, 0.2])
    ys = yield_from_curve(curve, 1.0, rates)
    assert ys.shape == rates.shape
    assert np.all(np.diff(ys) > 0.0)


def test_stationary_laplace_basics(bond_params):
    p = bond_params(alpha=1.5)
    assert stationary_laplace(0.0, p) == 1.0
    vals = [stationary_laplace(q, p) for q in (0.5, 1.0, 2.0, 5.0)]
    assert np.all(np.diff(vals) < 0.0)
    assert all(0.0 < v < 1.0 for v in vals)


def test_stationary_laplace_gamma_law_when_jumps_vanish(bond_params):
    p = bond_params(alpha=2.0, sigma_z=0.0)
    for q in (0.1, 1.0, 10.0):
        assert stationary_laplace(q, p) == pytest.approx(
            cir_stationary_laplace(p.a, p.b, p.sigma, q), rel=1e-9)


def test_truncated_spec_flows_below_full(jump_params):
    # removing upward jumps can only lower v and hence raise the bond
    p = jump_params(alpha=1.5)
    t = 5.0
    full = solve_v(0.0, 1.0, t, p)(t)
    trunc = solve_v(0.0, 1.0, t, p, JumpSpec.truncated(1.0))(t)
    assert trunc == pytest.approx(full, rel=0.2)
    assert trunc != full
