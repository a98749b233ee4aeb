"""Generalized Riccati solutions and the exponential-affine transforms built
on them: joint Laplace functionals, zero-coupon bonds, yields, stationary law.

Everything reduces to the flow v of

    v'(t) = theta - Psi(v(t)),   v(0) = xi,

plus the integral of Phi(v) = a*b*v along the flow.  The bond exponent uses
(xi, theta) = (0, 1); v is then the inverse of f(t) = int_0^t dx/(1-Psi(x)),
increasing toward the root x0 of Psi(q) = 1.  The flow is computed by an
adaptive Runge-Kutta rather than by inverting f, which is numerically fragile
near x0.

The module's one ODE driver, _dormand_prince, steps [y, int y] for
y' = f(y) on Python floats with the Dormand-Prince 5(4) pair and the step
rules of scipy's RK45 (Hairer, Norsett & Wanner, Solving ODEs I, II.4): it
reads the tableau from RK45 and copies its initial step, RMS error norm
(here over both states), step factors, first-same-as-last stage and 10-ulp
minimum step.  Its stage, solution and error sums are straight-line float
expressions over the tableau's weights, unpacked into module constants, in
the order a loop over the stages adds them.  _Steps reads the accepted
steps by their quartic dense output, for all the requested times in one
NumPy pass.  The jump laws (jumps._solve_l) run it to a horizon, with
int l beside l.

Each (xi, theta, params, spec) has one run of it with no end, stepped on
demand and kept in an lru_cache keyed on the params with r0 = 0 (v does
not depend on r0) and on the psi function it steps.  The run does not
depend on where it is read, so solve_v(.., H) is the run's steps up to
the first that reaches H, read on [0, H]: v and int_0^t v both come from
the dense output, and every cut of one flow gives the same bits at the
same t, whatever was cut before.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
from scipy.integrate import RK45, quad

from .mechanism import JumpSpec, ModelParams, phi, psi
from .stable import _check_input

_RTOL, _ATOL = 1e-10, 1e-12
# step attempts of one run of _dormand_prince (a flow or a jump-law
# solve): the step size is stability-limited, so a far horizon
# (bond --tmax 1e9, jump-survival --tmax 1e9) would step for ever.  The
# bond set at alpha 1.2 takes 3840 step attempts (3321 accepted) to t = 1e4
_MAX_FLOW_STEPS = 2 ** 16

# the Dormand-Prince 5(4) pair that scipy's RK45 steps, as floats: stage
# weights _Asj (stage s = 1..5 from stage j < s), solution weights _Bj and
# error weights _Ej (its dense output weights P are read in _Steps); the
# right side does not read t, so the stage times C are not needed
((_A10,), (_A20, _A21), (_A30, _A31, _A32), (_A40, _A41, _A42, _A43),
 (_A50, _A51, _A52, _A53, _A54)) = [row[:s] for s, row
                                    in enumerate(RK45.A.tolist())][1:]
_B0, _B1, _B2, _B3, _B4, _B5 = RK45.B.tolist()
_E0, _E1, _E2, _E3, _E4, _E5, _E6 = RK45.E.tolist()


def _rms(u: float, v: float) -> float:
    """scipy's RMS norm of the pair (u, v), squares written as products:
    a float ** raises OverflowError where a product gives inf."""
    return math.sqrt(u * u + v * v) / math.sqrt(2.0)


def _dormand_prince(f, y0: float, t_max: float, ode: str):
    """The accepted steps of [y, int y] for y' = f(y), y(0) = y0, from
    t = 0 toward t_max (math.inf for a run with no end), at rtol 1e-10 and
    atol 1e-12.  Each is yielded as (step, (y, int y) at its end, nfev), a
    step being (its end, (y, int y) at its start, its stages), and nfev
    the right side calls so far.  The rules are RK45's: Hairer-Norsett-
    Wanner's initial step, the RMS error norm over both states, a step
    factor 0.9 err^(-1/5) kept in [0.2, 10] and not above 1 right after a
    rejection, and the last stage reused as the next step's first.  A NaN
    error norm rejects the step, as in RK45.  Each sum over the stages is
    one expression, 0.0 + k0 w0 + k1 w1 + ..., added left to right with
    the zero weights kept, so that a NaN stage still spreads.

    A step below 10 ulp of t raises RuntimeError.  A run past
    _MAX_FLOW_STEPS step attempts (6 right side calls each, after 2 to
    start) raises ValueError.  Both messages name the ode."""
    max_steps = _MAX_FLOW_STEPS

    # the initial step from y0, f(y0) and one Euler probe
    f0, s0 = f(y0), _ATOL + abs(y0) * _RTOL
    d0, d1 = _rms(y0 / s0, 0.0), _rms(f0 / s0, y0 / _ATOL)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_max)
    y1 = y0 + h0 * f0
    d2 = _rms((f(y1) - f0) / s0, (y1 - y0) / _ATOL) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.2)
    h_abs = min(100 * h0, h1, t_max)

    t, y, big, nfev = 0.0, y0, 0.0, 2
    while t < t_max:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise RuntimeError(f"{ode} failed: the step fell below "
                                   f"10 ulp at t = {t}")
            if nfev + 6 > 2 + 6 * max_steps:
                raise ValueError(f"the {ode} needs more than {max_steps} "
                                 "steps to reach the horizon")
            t_new = min(t + h_abs, t_max)
            h = h_abs = t_new - t
            # the stages k0..k6 of y' at the stage values y, y1..y5, y_new
            # of y, which are also the stages of (int y)' = y
            k0 = f0
            y1 = y + (0.0 + k0 * _A10) * h
            k1 = f(y1)
            y2 = y + (0.0 + k0 * _A20 + k1 * _A21) * h
            k2 = f(y2)
            y3 = y + (0.0 + k0 * _A30 + k1 * _A31 + k2 * _A32) * h
            k3 = f(y3)
            y4 = y + (0.0 + k0 * _A40 + k1 * _A41 + k2 * _A42 + k3 * _A43) * h
            k4 = f(y4)
            y5 = y + (0.0 + k0 * _A50 + k1 * _A51 + k2 * _A52 + k3 * _A53
                      + k4 * _A54) * h
            k5 = f(y5)
            y_new = y + h * (0.0 + k0 * _B0 + k1 * _B1 + k2 * _B2 + k3 * _B3
                             + k4 * _B4 + k5 * _B5)
            big_new = big + h * (0.0 + y * _B0 + y1 * _B1 + y2 * _B2
                                 + y3 * _B3 + y4 * _B4 + y5 * _B5)
            k6 = f(y_new)
            nfev += 6
            err_y = (0.0 + k0 * _E0 + k1 * _E1 + k2 * _E2 + k3 * _E3 + k4 * _E4
                     + k5 * _E5 + k6 * _E6)
            err_big = (0.0 + y * _E0 + y1 * _E1 + y2 * _E2 + y3 * _E3
                       + y4 * _E4 + y5 * _E5 + y_new * _E6)
            err = _rms(err_y * h / (_ATOL + max(abs(y), abs(y_new)) * _RTOL),
                       err_big * h
                       / (_ATOL + max(abs(big), abs(big_new)) * _RTOL))
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)   # a NaN norm rejects
            rejected = True
        yield ((t_new, (y, big), ((k0, k1, k2, k3, k4, k5, k6),
                                  (y, y1, y2, y3, y4, y5, y_new))),
               (y_new, big_new), nfev)
        t, y, big, f0 = t_new, y_new, big_new, k6


class _Steps:
    """Some accepted steps of one _dormand_prince run: t, the step ends
    from 0 (a caller may cut the last back), nfev, and sol(t) = [y, int y]
    at the times t from each step's quartic dense output, as RK45 builds
    it."""

    def __init__(self, steps, nfev):
        t_end, y_old, k = zip(*steps)
        self.t, self.nfev = np.array((0.0,) + t_end), nfev
        self._h, self._y_old = np.diff(self.t), np.array(y_old)
        self._q = np.array(k) @ RK45.P          # (steps, 2, 4)

    def sol(self, t):
        t = np.asarray(t, dtype=float)
        i = np.clip(np.searchsorted(self.t, t) - 1, 0, len(self._h) - 1)
        x = (t - self.t[i]) / self._h[i]
        p = np.cumprod(np.repeat(x[..., None], 4, axis=-1), axis=-1)
        y = (self._h[i][..., None] * (self._q[i] @ p[..., None])[..., 0]
             + self._y_old[i])
        return np.moveaxis(y, -1, 0)


class OdeCurve:
    """The solution v(.) of v' = theta - Psi(v), v(0) = xi, on
    [0, grid[-1]]: the steps of its flow up to the first that reaches the
    horizon grid[-1], read by their dense output.  grid holds the step ends
    from 0 with the last cut back to the horizon; past it the curve refuses
    to be read, although its last step may reach further."""

    def __init__(self, sol: _Steps, n: int, horizon: float,
                 params: ModelParams):
        self.sol, self.params = sol, params
        self.grid = np.append(sol.t[:n], horizon)

    def values(self, t):
        """v(t) and int_0^t v, each with the shape of t; NaN fails the
        bounds."""
        t = np.asarray(t, dtype=float)
        if not np.all((t >= 0.0) & (t <= self.grid[-1])):
            raise ValueError(f"t outside the curve's [0, {self.grid[-1]}]")
        return self.sol.sol(t)

    def __call__(self, t):
        out = self.values(t)[0]
        return float(out) if out.ndim == 0 else out

    def integral(self, t):
        """int_0^t v(s) ds; t may be an array, the result then has its
        shape."""
        out = self.values(t)[1]
        return float(out) if out.ndim == 0 else out


class _Flow:
    """The _dormand_prince run of v' = theta - Psi(v) from v(0) = xi with
    no end, stepped on demand.  Psi, the mechanism function psi_fn, is
    evaluated on Python floats."""

    def __init__(self, xi: float, theta: float, params: ModelParams,
                 spec: JumpSpec, psi_fn):
        def rhs(v):
            return theta - float(psi_fn(0.0 if v < 0.0 else v, params, spec))

        self.params = params
        self._run = _dormand_prince(rhs, xi, math.inf, "Riccati flow")
        self.steps, self.sol = [], None

    def cut(self, horizon: float) -> OdeCurve:
        """The flow over [0, horizon]: its steps up to the first that
        reaches horizon, stepped on if the flow has not reached it yet."""
        if self.sol is None or self.sol.t[-1] < horizon:
            while not self.steps or self.steps[-1][0] < horizon:
                step, _, nfev = next(self._run)
                self.steps.append(step)
            self.sol = _Steps(self.steps, nfev)
        n = int(np.searchsorted(self.sol.t, horizon))
        return OdeCurve(self.sol, n, horizon, self.params)


def _without_r0(params: ModelParams) -> ModelParams:
    """The cache key of the quantities that do not depend on r0 (v here, H
    and M in derivatives): one model at two initial rates shares them."""
    return replace(params, r0=0.0)


@lru_cache(maxsize=64)
def _flow(xi: float, theta: float, params: ModelParams, spec: JumpSpec,
          psi_fn) -> _Flow:
    return _Flow(xi, theta, params, spec, psi_fn)


def solve_v(xi: float, theta: float, horizon: float, params: ModelParams,
            spec: JumpSpec = JumpSpec.full()) -> OdeCurve:
    """Flow of v' = theta - Psi(v) from v(0) = xi over [0, horizon]: the
    steps of the shared flow of (xi, theta, params, spec) up to the first
    that reaches horizon.  The flow is kept per Psi as well: one stepped
    with the module's psi is not read once psi is rebound (a wrapped or a
    replaced mechanism gets a flow of its own).  A cut that raises (a
    failed step, or one past _MAX_FLOW_STEPS step attempts) empties the
    flow cache, so that no failed or cut-short flow is kept with its
    steps."""
    _check_input("xi", xi, "nonnegative")
    _check_input("theta", theta, "nonnegative")
    _check_input("horizon", horizon, "positive")
    try:
        return _flow(float(xi), float(theta), _without_r0(params), spec,
                     psi).cut(float(horizon))
    except BaseException:
        _flow.cache_clear()
        raise


def joint_laplace(x: float, t: float, xi: float, theta: float,
                  params: ModelParams, spec: JumpSpec = JumpSpec.full()) -> float:
    """E_x[exp(-xi r_t - theta int_0^t r_s ds)]
    = exp(-x v(t,xi,theta) - int_0^t Phi(v(s,xi,theta)) ds)."""
    _check_input("x", x, "nonnegative")
    _check_input("t", t, "nonnegative")
    _check_input("xi", xi, "nonnegative")
    _check_input("theta", theta, "nonnegative")
    if t == 0.0:
        return float(np.exp(-xi * x))
    if xi == 0.0 and theta == 0.0:
        return 1.0
    curve = solve_v(xi, theta, t, params, spec)
    return float(np.exp(-x * curve(t) - params.a * params.b * curve.integral(t)))


def bond_price(t: float, T: float, r_t: float, params: ModelParams) -> float:
    """Zero-coupon price B(t, T) = exp(-r_t v(T-t) - a b int_0^(T-t) v(s) ds),
    the joint Laplace functional at (xi, theta) = (0, 1) over T - t."""
    if T < t:
        raise ValueError(f"maturity T = {T} precedes valuation date t = {t}")
    return joint_laplace(r_t, T - t, 0.0, 1.0, params)


def bond_price_from_curve(curve: OdeCurve, tau: float, r_t: float) -> float:
    """Bond price reusing a precomputed (xi=0, theta=1) curve; tau must lie
    in [0, horizon]."""
    _check_input("r_t", r_t, "nonnegative")
    if tau == 0.0:
        return 1.0
    p = curve.params
    return float(np.exp(-r_t * curve(tau) - p.a * p.b * curve.integral(tau)))


def bond_yield(kappa: float, r_t: float, params: ModelParams) -> float:
    """Constant-maturity yield at the current rate r_t: -ln B(t, t+kappa)/kappa
    = (r_t v(kappa) + a b int_0^kappa v)/kappa, which does not depend on t."""
    _check_input("kappa", kappa, "positive")
    curve = solve_v(0.0, 1.0, kappa, params)
    return yield_from_curve(curve, kappa, r_t)


def yield_from_curve(curve: OdeCurve, kappa: float, r_t):
    """Yield as a function of the current rate; r_t may be an array, each
    entry finite and nonnegative, and kappa must lie in (0, horizon]."""
    _check_input("kappa", kappa, "positive")   # the curve rejects one past its end
    _check_input("r_t", r_t, "nonnegative")
    p = curve.params
    out = (r_t * curve(kappa) + p.a * p.b * curve.integral(kappa)) / kappa
    return float(out) if np.isscalar(r_t) else out


def stationary_laplace(p: float, params: ModelParams) -> float:
    """Laplace transform of the limit law: exp(-int_0^p Phi(q)/Psi(q) dq).

    Phi/Psi extends continuously to 0 with value a*b/Psi'(0+), so the
    quadrature sees no singularity.
    """
    _check_input("p", p, "nonnegative")
    if p == 0.0:
        return 1.0
    limit0 = params.b        # a b / Psi'(0+), with Psi'(0+) = a

    def integrand(q):
        if q < 1e-12:
            return limit0
        return phi(q, params) / psi(q, params)

    val, _ = quad(integrand, 0.0, p, epsabs=1e-13, epsrel=1e-11, limit=200)
    return float(np.exp(-val))
