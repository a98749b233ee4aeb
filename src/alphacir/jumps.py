"""Laws of large jumps: the counter of jumps above a threshold, the first
large-jump time tau, its expectation, and tail comparisons with the locally
equivalent Levy-OU benchmark.

Thresholds are quoted in rate space (ybar); the corresponding jump-mark
threshold is y = ybar / sigma_z.  All exponents solve ODEs of the form

    l'(t) = (big-jump source term) - Psi_trunc(l(t)),   l(0) = 0,

where Psi_trunc is the truncated branching mechanism at level y, which
mechanism.psi evaluates in closed form; the ODE right sides call it
directly.  The source is nu(y) = C_alpha y^(-alpha) for the survival law,
and int_y^inf (1 - exp(-p - l sigma_z z)) mu_alpha(dz) for the counter
Laplace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import cumulative_trapezoid, simpson, solve_ivp

from .affine import joint_laplace
from .mechanism import JumpSpec, ModelParams, fixed_point_truncated, psi
from .stable import _check_alpha, big_jump_laplace_tail, big_jump_mass


@dataclass
class JumpLawCurve:
    """Solution of a jump-law ODE on a time grid, with the derived survival
    or Laplace values; y is the jump-mark threshold, ybar = sigma_z * y."""

    grid: np.ndarray
    l_values: np.ndarray
    derived: np.ndarray
    y: float
    y_bar: float

    def to_csv(self, path, value_name="survival") -> None:
        arr = np.column_stack([self.grid, self.derived])
        np.savetxt(path, arr, delimiter=",", header=f"t,{value_name}", comments="")


def _mark_threshold(params: ModelParams, y_bar: float) -> float:
    """The jump-mark threshold y = ybar / sigma_z, after checking that the
    model has jumps and that ybar is finite and positive."""
    _check_alpha(params.alpha, allow_two=False)
    if params.sigma_z <= 0.0:
        raise ValueError("jump analytics need sigma_z > 0")
    if not (math.isfinite(y_bar) and y_bar > 0.0):
        raise ValueError("y_bar must be finite and positive")
    return y_bar / params.sigma_z


def _check_times(t) -> np.ndarray:
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(t) & (t >= 0.0)):
        raise ValueError("times must be finite and nonnegative")
    return t


def _solve_l(params: ModelParams, y: float, source, t_max: float):
    """Integrate [l, int l] with l' = source(l) - Psi_trunc(l), l(0) = 0."""
    spec = JumpSpec.truncated(y)

    def rhs(_t, state):
        l = max(state[0], 0.0)
        return [source(l) - psi(l, params, spec), state[0]]

    sol = solve_ivp(rhs, (0.0, t_max), [0.0, 0.0], method="RK45",
                    rtol=1e-10, atol=1e-12, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"jump-law ODE failed: {sol.message}")
    return sol


def _affine_exponent(sol, t, params: ModelParams):
    """exp(-l(t) r0 - a b int_0^t l); t may be an array."""
    l, big_l = sol.sol(t)
    return np.exp(-l * params.r0 - params.a * params.b * big_l)


def counter_laplace(p: float, y_bar: float, t: float, params: ModelParams) -> float:
    """E[exp(-p * J_t)] for the counter J of rate jumps larger than ybar;
    the source of its exponent ODE is nu(y) - e^(-p) int_y^inf
    exp(-l sigma_z z) mu_alpha(dz)."""
    y = _mark_threshold(params, y_bar)
    _check_times(t)
    if not (math.isfinite(p) and p >= 0.0):
        raise ValueError("p must be finite and nonnegative")
    if p == 0.0 or t == 0.0:
        return 1.0
    nu = big_jump_mass(params.alpha, y)
    e_p = math.exp(-p)
    sol = _solve_l(params, y, lambda l: nu - e_p * big_jump_laplace_tail(
        l * params.sigma_z, y, params.alpha), t)
    return float(_affine_exponent(sol, t, params))


def survival_curve(y_bar: float, t_grid, params: ModelParams) -> JumpLawCurve:
    """P(tau_ybar > t) on a grid of times, from the limiting (p -> inf) ODE
    l' = nu(y) - Psi_trunc(l)."""
    y = _mark_threshold(params, y_bar)
    t_grid = _check_times(t_grid)
    nu = big_jump_mass(params.alpha, y)
    t_max = max(float(t_grid.max()), 1e-9)
    sol = _solve_l(params, y, lambda l: nu, t_max)
    return JumpLawCurve(grid=t_grid, l_values=sol.sol(t_grid)[0],
                        derived=_affine_exponent(sol, t_grid, params),
                        y=y, y_bar=y_bar)


def survival_tau(y_bar: float, t: float, params: ModelParams) -> float:
    """P(tau_ybar > t): no rate jump larger than ybar up to t."""
    if t == 0.0:
        _mark_threshold(params, y_bar)
        return 1.0
    return float(survival_curve(y_bar, [t], params).derived[0])


def survival_tau_via_rhat(y_bar: float, t: float, params: ModelParams) -> float:
    """Alternative route: Laplace functional of the integrated auxiliary
    process (truncated mechanism, same immigration) at rate nu(y):
    P(tau > t) = E[exp(-nu(y) int_0^t rhat_s ds)]."""
    y = _mark_threshold(params, y_bar)
    _check_times(t)
    if t == 0.0:
        return 1.0
    nu = big_jump_mass(params.alpha, y)
    return joint_laplace(params.r0, t, 0.0, nu, params, JumpSpec.truncated(y))


class ExpectedTau(NamedTuple):
    value: float              # primary route (time integral of the survival)
    survival_route: float
    density_route: float      # u-integral against 1/F with endpoint substitution


class RouteDisagreement(RuntimeError):
    """The two analytic routes to E[tau] differ beyond tolerance; a loud
    signal of a convention or quadrature error."""


def expected_tau(y_bar: float, params: ModelParams,
                 rel_tol: float = 1e-3) -> ExpectedTau:
    """E[tau_ybar] by two independent routes; the survival-integral route is
    the returned value."""
    y = _mark_threshold(params, y_bar)
    nu = big_jump_mass(params.alpha, y)
    l_star = fixed_point_truncated(params, y)

    # route 1: integrate the survival function, truncating where it is < 1e-12
    t_max = 1.0
    sol = _solve_l(params, y, lambda l: nu, t_max)
    while _affine_exponent(sol, t_max, params) > 1e-12:
        t_max *= 2.0
        sol = _solve_l(params, y, lambda l: nu, t_max)
        if t_max > 1e7:
            break
    ts = np.linspace(0.0, t_max, 4001)
    primary = float(simpson(_affine_exponent(sol, ts, params), x=ts))

    # route 2: int_0^{l*} F(u)^{-1} exp(-u r0 - int_0^u a b s/F(s) ds) du with
    # the integrable endpoint handled by u = l*(1 - e^{-s}).  The substituted
    # integrand decays only like exp(-a b l* s / F'(l*)), so the region where
    # F(u) = nu - Psi(u) cancels catastrophically still carries mass; beyond
    # u/l* = 1 - 1e-7 the exact exponential tail exp(-l* r0 - inner)/(a b l*)
    # is added in closed form.
    ab = params.a * params.b
    s_cut = -np.log(1e-7)
    s = np.linspace(1e-9, s_cut, 6001)
    u = l_star * (-np.expm1(-s))
    du_ds = l_star * np.exp(-s)
    f_of_u = np.maximum(nu - psi(u, params, JumpSpec.truncated(y)), 1e-300)
    inner = cumulative_trapezoid(ab * u / f_of_u * du_ds, s, initial=0.0)
    outer = du_ds / f_of_u * np.exp(-u * params.r0 - inner)
    secondary = float(simpson(outer, x=s))
    secondary += float(np.exp(-l_star * params.r0 - inner[-1]) / (ab * l_star))

    if abs(primary - secondary) > rel_tol * max(abs(primary), 1e-12):
        raise RouteDisagreement(
            f"expected_tau routes disagree: {primary} vs {secondary}")
    return ExpectedTau(primary, primary, secondary)


def lou_first_jump_cdf(y_bar: float, t: float, params: ModelParams) -> float:
    """P(first jump of the locally equivalent Levy-OU above ybar <= t)
    = 1 - exp(-nu(ybar/sigma_z) r0 t); the arrival is Poisson with the
    frozen-state intensity."""
    y = _mark_threshold(params, y_bar)
    _check_times(t)
    nu = big_jump_mass(params.alpha, y)
    return float(-np.expm1(-nu * params.r0 * t))


class TailAsymptotics(NamedTuple):
    m_lambda: float   # large-threshold tail of the LOU maximal jump
    m_r: float        # large-threshold tail of the branching model's maximal jump
    r_bound: float    # finite-threshold upper bound for P(tau^r <= t)


def tail_asymptotics(t: float, y_bar: float, params: ModelParams) -> TailAsymptotics:
    """Asymptotic tail probabilities of the maximal jump up to t and the
    explicit upper bound; all three scale like nu(ybar/sigma_z)."""
    from .mechanism import truncated_drift, truncated_level

    y = _mark_threshold(params, y_bar)
    _check_times(t)
    nu = big_jump_mass(params.alpha, y)
    a, b, r0 = params.a, params.b, params.r0
    m_lambda = nu * r0 * t
    m_r = nu * (b * t + (r0 - b) * (-np.expm1(-a * t)) / a)
    a_t = truncated_drift(params, y)
    b_t = truncated_level(params, y)
    r_bound = nu * (b_t * t + (r0 - b_t) * (-np.expm1(-a_t * t)) / a_t)
    return TailAsymptotics(float(m_lambda), float(m_r), float(r_bound))
