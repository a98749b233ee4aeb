import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import trapezoid

from alphacir import affine
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
from oracles import cir_bond, cir_stationary_laplace, solve_v_ivp

# every cut of a shared Riccati flow equals one solve_ivp run to its horizon
# on these (xi, theta) pairs, horizons and jump specs
FLOW_PAIRS = [(0.0, 1.0), (1.0, 0.0), (0.5, 2.0), (10.0, 0.3), (0.0, 5.0),
              (3.0, 3.0), (1e-3, 0.0)]
FLOW_HORIZONS = (1e-5, 0.01, 0.7, 5.0, 33.3, 120.0)
FLOW_SPECS = (JumpSpec.full(), JumpSpec.truncated(1.0))


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
    assert vs[-1] == pytest.approx(x0, rel=1e-6, abs=0.0)


def test_curve_integral_matches_trapezoid(bond_params):
    curve = solve_v(0.0, 1.0, 5.0, bond_params(alpha=1.5))
    ts = np.linspace(0.0, 5.0, 20_001)
    assert curve.integral(5.0) == pytest.approx(trapezoid(curve(ts), ts),
                                                rel=1e-8)


def test_curve_integral_of_array_equals_scalar_loop(bond_params):
    curve = solve_v(0.0, 1.0, 30.0, bond_params(alpha=1.5))
    ts = np.concatenate(([0.0], np.linspace(0.0, 30.0, 1001), curve.grid))
    scalar = np.array([curve.integral(float(t)) for t in ts])
    assert np.array_equal(curve.integral(ts), scalar)
    assert np.array_equal(curve.integral(ts[:1000].reshape(20, 50)),
                          scalar[:1000].reshape(20, 50))
    assert isinstance(curve.integral(2.0), float)
    assert curve.integral(0.0) == 0.0


def test_joint_laplace_at_time_zero(bond_params):
    p = bond_params(alpha=1.2)
    assert joint_laplace(0.3, 0.0, 2.0, 1.0, p) == pytest.approx(
        np.exp(-2.0 * 0.3))


@pytest.mark.parametrize("t", [float("nan"), -1.0, float("inf")])
def test_joint_laplace_rejects_bad_time(bond_params, t):
    # checked before the t = 0 and xi = theta = 0 shortcuts, which would
    # return 1.0
    with pytest.raises(ValueError, match="t must be finite and nonnegative"):
        joint_laplace(0.05, t, 0.0, 0.0, bond_params(alpha=1.5))


@pytest.mark.parametrize("xi, theta", [(float("nan"), 0.0), (-1.0, 0.0),
                                       (0.0, float("nan"))])
def test_joint_laplace_rejects_bad_xi_theta(bond_params, xi, theta):
    # checked before the t = 0 and xi = theta = 0 shortcuts, which returned
    # nan, 1.0513 and 1.0 for these arguments at t = 0
    with pytest.raises(ValueError,
                       match="(xi|theta) must be finite and nonnegative"):
        joint_laplace(0.05, 0.0, xi, theta, bond_params(alpha=1.5))


def test_joint_laplace_short_time_expansion(bond_params):
    # for small t, E[e^{-p r_t}] ~ e^{-p r0} up to O(t)
    p = bond_params(alpha=1.5)
    val = joint_laplace(p.r0, 1e-4, 1.0, 0.0, p)
    assert val == pytest.approx(np.exp(-p.r0), rel=1e-3, abs=0.0)


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
    y = bond_yield(kappa, p.r0, p)
    assert y == pytest.approx(-np.log(bond_price(0.0, kappa, p.r0, p)) / kappa,
                              rel=1e-9)


def test_yield_from_curve_vectorizes(bond_params):
    p = bond_params(alpha=1.5)
    curve = solve_v(0.0, 1.0, 1.0, p)
    rates = np.array([0.01, 0.05, 0.2])
    ys = yield_from_curve(curve, 1.0, rates)
    assert ys.shape == rates.shape
    assert np.all(np.diff(ys) > 0.0)


def test_yield_rejects_negative_rate(bond_params):
    # bond_price rejects r < 0, and so does the yield, entry by entry
    p = bond_params(alpha=1.5)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        bond_yield(1.0, -0.01, p)
    with pytest.raises(ValueError, match="finite and nonnegative"):
        yield_from_curve(solve_v(0.0, 1.0, 1.0, p), 1.0,
                         np.array([0.05, -1e-12]))


@pytest.mark.parametrize("tenor", [5.0, -0.5, float("nan")])
def test_curve_readers_reject_tenor_off_the_curve(bond_params, tenor):
    # past its horizon the curve used to be read at the horizon, so a
    # 5-year price came back as the 1-year one; the curve itself and every
    # reader through it refuse such a tenor
    curve = solve_v(0.0, 1.0, 1.0, bond_params(alpha=1.5))
    with pytest.raises(ValueError):
        bond_price_from_curve(curve, tenor, 0.05)
    with pytest.raises(ValueError):
        yield_from_curve(curve, tenor, 0.05)
    with pytest.raises(ValueError):
        curve(tenor)
    with pytest.raises(ValueError):
        curve.integral(tenor)
    with pytest.raises(ValueError):
        curve.integral(np.array([0.5, tenor]))


@pytest.mark.parametrize("rate", [float("nan"), float("inf")])
@pytest.mark.parametrize("price", [
    lambda p, r: bond_price(0.0, 1.0, r, p),
    lambda p, r: joint_laplace(r, 1.0, 0.0, 1.0, p),
    lambda p, r: bond_price_from_curve(solve_v(0.0, 1.0, 1.0, p), 1.0, r),
], ids=["bond_price", "joint_laplace", "bond_price_from_curve"])
def test_transforms_reject_non_finite_rate(bond_params, price, rate):
    with pytest.raises(ValueError):
        price(bond_params(alpha=1.5), rate)


def test_stationary_laplace_basics(bond_params):
    p = bond_params(alpha=1.5)
    assert stationary_laplace(0.0, p) == 1.0
    vals = [stationary_laplace(q, p) for q in (0.5, 1.0, 2.0, 5.0)]
    assert np.all(np.diff(vals) < 0.0)
    assert all(0.0 < v < 1.0 for v in vals)


def test_stationary_laplace_near_zero(bond_params):
    # at p = 1e-11 the quadrature's first nodes fall below q = 1e-12, where
    # the integrand takes its limit b; the transform is exp(-b p) to first
    # order, and 1 - L(p) holds only the digits of a float next to 1
    p = bond_params(alpha=1.5)
    val = stationary_laplace(1e-11, p)
    assert val == pytest.approx(np.exp(-p.b * 1e-11), rel=1e-15, abs=0.0)
    assert 1.0 - val == pytest.approx(p.b * 1e-11, rel=1e-4, abs=0.0)


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
    assert trunc == pytest.approx(full, rel=0.2, abs=0.0)
    assert trunc != full


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
def test_flow_cuts_equal_solve_ivp(bond_params, alpha):
    # grid, values (the steps' y), dense output and integral, with the
    # horizons requested on a fresh flow in ascending and in descending
    # order; the integral also at the cut's own grid points, which start a
    # step or (the horizon) end the last one, as an array and one by one
    p = bond_params(alpha=alpha)
    for spec in FLOW_SPECS:
        for xi, theta in FLOW_PAIRS:
            refs = {H: solve_v_ivp(xi, theta, H, p, spec) for H in FLOW_HORIZONS}
            for order in (FLOW_HORIZONS, FLOW_HORIZONS[::-1]):
                affine._flow.cache_clear()
                for H in order:
                    cut, ref = solve_v(xi, theta, H, p, spec), refs[H]
                    t = np.linspace(0.0, H, 777)
                    assert np.array_equal(cut.grid, ref.grid)
                    assert np.array_equal([st.y[0] for st in cut.steps],
                                          ref.values[1:])
                    assert np.array_equal(cut(t), ref(t))
                    assert np.array_equal(cut.integral(t), ref.integral(t))
                    g = ref.grid
                    assert np.array_equal(cut(g), ref(g))
                    assert np.array_equal(cut.integral(g), ref.integral(g))
                    assert [cut.integral(x) for x in g.tolist()] \
                        == [ref.integral(x) for x in g.tolist()]


def test_flow_cuts_share_steps(bond_params):
    p = bond_params(alpha=1.5)
    affine._flow.cache_clear()
    long, short = solve_v(0.0, 1.0, 30.0, p), solve_v(0.0, 1.0, 5.0, p)
    assert 0 < short.shared < long.shared < len(long.steps)
    assert all(a is b for a, b in zip(short.steps[:short.shared], long.steps))
    assert short.steps[short.shared] is not long.steps[short.shared]


def test_flow_step_bound(bond_params, monkeypatch):
    # a cut of n steps passes at the bound n and fails at n - 1: in its
    # tail, whose steps are its own, and then, for a longer cut, in the
    # shared flow; a refused cut leaves no flow in the cache, and the cut
    # of n steps works again at the bound n
    p = bond_params(alpha=1.5)
    affine._flow.cache_clear()
    try:
        cut = solve_v(0.0, 1.0, 1e-3, p)
        n = len(cut.steps)
        assert 0 < cut.shared < n
        monkeypatch.setattr(affine, "_MAX_FLOW_STEPS", n)
        assert len(solve_v(0.0, 1.0, 1e-3, p).steps) == n
        monkeypatch.setattr(affine, "_MAX_FLOW_STEPS", n - 1)
        match = f"Riccati flow needs more than {n - 1} steps"
        with pytest.raises(ValueError, match=match):
            solve_v(0.0, 1.0, 1e-3, p)
        with pytest.raises(ValueError, match=match):
            solve_v(0.0, 1.0, 10.0, p)
        assert affine._flow.cache_info().currsize == 0
        monkeypatch.setattr(affine, "_MAX_FLOW_STEPS", n)
        assert len(solve_v(0.0, 1.0, 1e-3, p).steps) == n
    finally:
        affine._flow.cache_clear()


def test_failed_flow_leaves_the_cache(bond_params, monkeypatch):
    # a cut whose step failed raises and drops its flow from the cache, so
    # the next cut, with the solver working again, starts a new flow
    class Failing(affine.RK45):
        def step(self):
            self.status = "failed"
            return "step failed"

    p = bond_params(alpha=1.5)
    affine._flow.cache_clear()
    try:
        monkeypatch.setattr(affine, "RK45", Failing)
        with pytest.raises(RuntimeError, match="Riccati flow failed: step failed"):
            solve_v(0.0, 1.0, 1.0, p)
        assert affine._flow.cache_info().currsize == 0
        monkeypatch.undo()
        assert solve_v(0.0, 1.0, 2.0, p).grid[-1] == 2.0
    finally:
        affine._flow.cache_clear()
