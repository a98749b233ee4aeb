"""Generalized Riccati solutions and the exponential-affine transforms built
on them: joint Laplace functionals, zero-coupon bonds, yields, stationary law.

Everything reduces to the flow v of

    v'(t) = theta - Psi(v(t)),   v(0) = xi,

plus the integral of Phi(v) = a*b*v along the flow.  The bond exponent uses
(xi, theta) = (0, 1); v is then the inverse of f(t) = int_0^t dx/(1-Psi(x)),
increasing toward the root x0 of Psi(q) = 1.  The flow is computed by an
adaptive Runge-Kutta rather than by inverting f, which is numerically fragile
near x0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad, solve_ivp

from .mechanism import JumpSpec, ModelParams, phi, psi

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(12)


@dataclass
class OdeCurve:
    """Dense-output solution v(.) of v' = theta - Psi(v), v(0) = xi."""

    grid: np.ndarray
    values: np.ndarray
    xi: float
    theta: float
    params: ModelParams
    spec: JumpSpec
    _sol: object = field(repr=False, default=None)
    _cum: np.ndarray = field(repr=False, default=None)

    def _check(self, t: np.ndarray) -> None:
        """The curve is solved on [0, grid[-1]] only; NaN fails both bounds."""
        if not np.all((t >= 0.0) & (t <= self.grid[-1])):
            raise ValueError(f"t outside the curve's [0, {self.grid[-1]}]")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        self._check(t)
        out = self._sol(t)[0]
        return float(out) if out.ndim == 0 else out

    def _gauss_pieces(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """int_lo^hi v by 12-point Gauss, piece by piece (hi >= lo).  The
        curve is evaluated once at every node; each piece is then reduced
        with np.dot so that it rounds exactly as a single piece would."""
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        nodes = mid[:, None] + half[:, None] * _GAUSS_X
        vals = self(nodes.ravel()).reshape(nodes.shape)
        return half * np.array([np.dot(_GAUSS_W, row) for row in vals])

    def integral(self, t):
        """int_0^t v(s) ds by composite Gauss on the solver's own steps; t
        may be an array, the result then has its shape."""
        ts = np.asarray(t, dtype=float)
        flat = ts.ravel()
        self._check(flat)
        i = np.searchsorted(self.grid, flat, side="right") - 1
        out = self._cum[i] + self._gauss_pieces(self.grid[i], flat)
        return float(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)


def solve_v(xi: float, theta: float, horizon: float, params: ModelParams,
            spec: JumpSpec = JumpSpec.full()) -> OdeCurve:
    """Flow of v' = theta - Psi(v) from v(0) = xi over [0, horizon]."""
    if not np.all(np.isfinite([xi, theta, horizon])):
        raise ValueError("xi, theta and horizon must be finite")
    if horizon <= 0.0:
        raise ValueError("horizon must be positive")
    if xi < 0.0 or theta < 0.0:
        raise ValueError("xi and theta must be nonnegative")

    def rhs(_t, v):
        return [theta - psi(max(v[0], 0.0), params, spec)]

    sol = solve_ivp(rhs, (0.0, horizon), [xi], method="RK45",
                    rtol=1e-10, atol=1e-12, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"Riccati flow failed: {sol.message}")
    curve = OdeCurve(grid=sol.t, values=sol.y[0], xi=xi, theta=theta,
                     params=params, spec=spec, _sol=sol.sol)
    pieces = curve._gauss_pieces(sol.t[:-1], sol.t[1:])
    curve._cum = np.concatenate(([0.0], np.cumsum(pieces)))
    return curve


def _check_rate(r: float) -> None:
    """A rate the transforms can start from: NaN or inf would come back as a
    NaN or 0 that looks like a result."""
    if not (np.isfinite(r) and r >= 0.0):
        raise ValueError("short rate must be finite and nonnegative")


def joint_laplace(x: float, t: float, xi: float, theta: float,
                  params: ModelParams, spec: JumpSpec = JumpSpec.full()) -> float:
    """E_x[exp(-xi r_t - theta int_0^t r_s ds)]
    = exp(-x v(t,xi,theta) - int_0^t Phi(v(s,xi,theta)) ds)."""
    _check_rate(x)
    if t == 0.0:
        return float(np.exp(-xi * x))
    if xi == 0.0 and theta == 0.0:
        return 1.0
    curve = solve_v(xi, theta, t, params, spec)
    return float(np.exp(-x * curve(t) - params.a * params.b * curve.integral(t)))


def bond_price(t: float, T: float, r_t: float, params: ModelParams) -> float:
    """Zero-coupon price B(t, T) = exp(-r_t v(T-t) - a b int_0^(T-t) v(s) ds)."""
    if T < t:
        raise ValueError("maturity precedes valuation date")
    _check_rate(r_t)
    tau = T - t
    if tau == 0.0:
        return 1.0
    curve = solve_v(0.0, 1.0, tau, params)
    return bond_price_from_curve(curve, tau, r_t)


def bond_price_from_curve(curve: OdeCurve, tau: float, r_t: float) -> float:
    """Bond price reusing a precomputed (xi=0, theta=1) curve; tau must lie
    in [0, horizon]."""
    _check_rate(r_t)
    if tau == 0.0:
        return 1.0
    p = curve.params
    return float(np.exp(-r_t * curve(tau) - p.a * p.b * curve.integral(tau)))


def bond_yield(t: float, kappa: float, r_t: float, params: ModelParams) -> float:
    """Constant-maturity yield: -ln B(t, t+kappa)/kappa
    = (r_t v(kappa) + a b int_0^kappa v)/kappa."""
    if kappa <= 0.0:
        raise ValueError("tenor must be positive")
    curve = solve_v(0.0, 1.0, kappa, params)
    return yield_from_curve(curve, kappa, r_t)


def yield_from_curve(curve: OdeCurve, kappa: float, r_t):
    """Yield as a function of the current rate; r_t may be an array, and
    kappa must lie in (0, horizon]."""
    if kappa <= 0.0:         # the curve itself rejects kappa past its horizon
        raise ValueError("tenor must be positive")
    if not np.all(np.isfinite(r_t)):
        raise ValueError("rate r_t must be finite")
    p = curve.params
    out = (r_t * curve(kappa) + p.a * p.b * curve.integral(kappa)) / kappa
    return float(out) if np.isscalar(r_t) else out


def stationary_laplace(p: float, params: ModelParams) -> float:
    """Laplace transform of the limit law: exp(-int_0^p Phi(q)/Psi(q) dq).

    Phi/Psi extends continuously to 0 with value a*b/Psi'(0+), so the
    quadrature sees no singularity.
    """
    if not (np.isfinite(p) and p >= 0.0):
        raise ValueError("p must be finite and nonnegative")
    if p == 0.0:
        return 1.0
    limit0 = params.b        # a b / Psi'(0+), with Psi'(0+) = a

    def integrand(q):
        if q < 1e-12:
            return limit0
        return phi(q, params) / psi(q, params)

    val, _ = quad(integrand, 0.0, p, epsabs=1e-13, epsrel=1e-11, limit=200)
    return float(np.exp(-val))
