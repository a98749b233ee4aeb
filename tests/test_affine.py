import math

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
from alphacir.jumps import survival_tau_via_rhat
from alphacir.mechanism import JumpSpec, ModelParams, root_psi_equals_one
from alphacir.stable import big_jump_mass
from oracles import (cir_bond, cir_flow, cir_stationary_laplace,
                     riccati_by_quadrature, solve_v_ivp)

# every cut of a shared Riccati flow matches one solve_ivp run to its
# horizon on these (xi, theta) pairs, horizons and jump specs
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
    # v and int v of every cut against one solve_ivp run to its horizon,
    # on 777 points and at the run's own grid, in units of the local scale
    # 1e-12 + 1e-10 |ref|.  The two solvers share the tolerances but not
    # the error norm (solve_ivp's is on v alone) or int v (Gauss pieces
    # against the dense output); the worst gaps measured over these pairs,
    # horizons, specs and alpha were 19.8 scales for v (alpha 2, (0, 1),
    # H 0.7) and 29.9 for int v (alpha 1.8, truncated, (1e-3, 0), H 120)
    p = bond_params(alpha=alpha)
    for spec in FLOW_SPECS:
        for xi, theta in FLOW_PAIRS:
            for H in FLOW_HORIZONS:
                cut, ref = solve_v(xi, theta, H, p, spec), solve_v_ivp(
                    xi, theta, H, p, spec)
                t = np.concatenate((np.linspace(0.0, H, 777), ref.grid))
                for got, want, bound in ((cut(t), ref(t), 40.0),
                                         (cut.integral(t), ref.integral(t),
                                          60.0)):
                    scale = 1e-12 + 1e-10 * np.abs(want)
                    assert np.all(np.abs(got - want) <= bound * scale)


def test_flow_cuts_share_steps(bond_params):
    # a cut is the flow's steps up to the first that reaches its horizon,
    # so a shorter cut reads a prefix of a longer one's steps, by the same
    # dense output, and ends its grid at its own horizon
    p = bond_params(alpha=1.5)
    affine._flow.cache_clear()
    long, short = solve_v(0.0, 1.0, 30.0, p), solve_v(0.0, 1.0, 5.0, p)
    n = len(short.grid) - 1
    assert 0 < n < len(long.grid) - 1 and short.sol is long.sol
    assert np.array_equal(short.grid[:-1], long.grid[:n])
    assert short.grid[-1] == 5.0 and long.grid[n] > 5.0 and long.grid[-1] == 30.0
    t = np.linspace(0.0, 5.0, 101)
    assert np.array_equal(short(t), long(t))
    assert np.array_equal(short.integral(t), long.integral(t))


def test_curve_refuses_its_last_step_past_the_horizon(bond_params):
    # the last step of a cut ends past its horizon; the curve is read on
    # [0, horizon] only
    curve = solve_v(0.0, 1.0, 1.0, bond_params(alpha=1.5))
    beyond = 0.5 * (1.0 + curve.sol.t[len(curve.grid) - 1])
    assert curve.grid[-1] == 1.0 < beyond
    for read in (curve, curve.integral, curve.values):
        with pytest.raises(ValueError, match="outside the curve"):
            read(beyond)
        with pytest.raises(ValueError, match="outside the curve"):
            read(np.array([0.5, beyond]))


def test_flow_step_bound(bond_params, monkeypatch):
    # the bound counts step attempts, here all accepted: a cut of n steps
    # passes at the bound n and fails at n - 1, and so does a longer cut;
    # a refused cut leaves no flow in the cache, and the cut of n steps
    # works again at the bound n
    p = bond_params(alpha=1.5)
    affine._flow.cache_clear()
    try:
        cut = solve_v(0.0, 1.0, 1e-3, p)
        n = len(cut.grid) - 1
        assert cut.sol.nfev == 2 + 6 * n
        affine._flow.cache_clear()
        monkeypatch.setattr(affine, "_MAX_FLOW_STEPS", n)
        assert len(solve_v(0.0, 1.0, 1e-3, p).grid) - 1 == n
        affine._flow.cache_clear()
        monkeypatch.setattr(affine, "_MAX_FLOW_STEPS", n - 1)
        match = f"Riccati flow needs more than {n - 1} steps"
        with pytest.raises(ValueError, match=match):
            solve_v(0.0, 1.0, 1e-3, p)
        assert affine._flow.cache_info().currsize == 0
        with pytest.raises(ValueError, match=match):
            solve_v(0.0, 1.0, 10.0, p)
        assert affine._flow.cache_info().currsize == 0
        monkeypatch.setattr(affine, "_MAX_FLOW_STEPS", n)
        assert len(solve_v(0.0, 1.0, 1e-3, p).grid) - 1 == n
    finally:
        affine._flow.cache_clear()


def test_failed_flow_leaves_the_cache(bond_params, monkeypatch):
    # a Psi that is NaN everywhere makes every error norm NaN, which
    # rejects the step until it falls below 10 ulp of t: the cut raises and
    # drops its flow from the cache, so the next cut, with Psi working
    # again, starts a new flow
    p = bond_params(alpha=1.5)
    affine._flow.cache_clear()
    try:
        monkeypatch.setattr(affine, "psi", lambda q, params, spec: math.nan)
        with pytest.raises(RuntimeError, match="Riccati flow failed: the step "
                           "fell below 10 ulp at t = 0.0"):
            solve_v(0.0, 1.0, 1.0, p)
        assert affine._flow.cache_info().currsize == 0
        monkeypatch.undo()
        assert solve_v(0.0, 1.0, 2.0, p).grid[-1] == 2.0
    finally:
        affine._flow.cache_clear()


def test_rebound_psi_gets_a_flow_of_its_own(bond_params, monkeypatch):
    # a flow already stepped past the horizon with the module's psi is not
    # read through a rebound psi (a tracing wrapper, an injected mechanism):
    # the rebound one is called and, wrapping psi, gives the same bits
    p = bond_params(alpha=1.5)
    affine._flow.cache_clear()
    try:
        first = solve_v(0.0, 1.0, 30.0, p)
        original, calls = affine.psi, []

        def counting(q, params, spec):
            calls.append(q)
            return original(q, params, spec)

        monkeypatch.setattr(affine, "psi", counting)
        again = solve_v(0.0, 1.0, 1.0, p)
        assert calls
        assert again(1.0) == first(1.0)
        assert again.integral(1.0) == first.integral(1.0)
        assert affine._flow.cache_info().currsize == 2
    finally:
        affine._flow.cache_clear()


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_bond_flow_equals_quadrature(bond_params, alpha):
    # the bond flow (xi, theta) = (0, 1) against separation of variables
    # in mpmath; the worst gap measured was 2.7e-10 (int v, alpha 1.8, T 1)
    p = bond_params(alpha=alpha)
    for T in (0.5, 1.0, 5.0, 30.0):
        curve = solve_v(0.0, 1.0, T, p)
        v, big = riccati_by_quadrature(0.0, 1.0, T, p)
        assert curve(T) == pytest.approx(v, rel=1e-9, abs=0.0)
        assert curve.integral(T) == pytest.approx(big, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_survival_flow_equals_quadrature(jump_params, alpha):
    # the truncated flow (0, nu(y)) that survival_tau_via_rhat reads at the
    # jump fixture, at t = 5, against separation of variables in mpmath
    # (worst gap measured 8.5e-12): an independent route to the survival
    # law besides the jump-law ODE of criterion 5
    p = jump_params(alpha=alpha)
    y = 0.1 / p.sigma_z
    spec, nu = JumpSpec.truncated(y), big_jump_mass(alpha, y)
    curve = solve_v(0.0, nu, 5.0, p, spec)
    v, big = riccati_by_quadrature(0.0, nu, 5.0, p, spec)
    assert curve(5.0) == pytest.approx(v, rel=1e-9, abs=0.0)
    assert curve.integral(5.0) == pytest.approx(big, rel=1e-9, abs=0.0)
    assert survival_tau_via_rhat(0.1, 5.0, p) == pytest.approx(
        math.exp(-p.r0 * v - p.a * p.b * big), rel=1e-9, abs=0.0)


def test_flow_alpha_two_equals_cir_closed_form(bond_params):
    # at alpha 2 the bond flow is the square-root diffusion's, with the
    # effective volatility.  In the local scale 1e-12 + 1e-10 |ref| the
    # worst gaps measured on this grid were 0.39 for v (5.4e-11 relative)
    # and 3.3 for int v (3.3e-10 relative for t >= 1; below, int v is
    # under 0.47 and the solve holds it to atol 1e-12)
    p = bond_params(alpha=2.0)
    curve = solve_v(0.0, 1.0, 30.0, p)
    t = np.linspace(0.0, 30.0, 3001)[1:]
    v, big = cir_flow(p.a, p.sigma_eff, t)
    assert np.all(np.abs(curve(t) - v) <= 1e-12 + 1e-10 * v)
    assert np.all(np.abs(curve.integral(t) - big) <= 5.0 * (1e-12 + 1e-10 * big))
