"""Reference values the library must reproduce: in its degenerate corners
the square-root-diffusion bond formula, its Riccati flow, its Gamma
stationary law and the stable-driver Laplace transform; adaptive
quadratures of the truncated Levy-measure integrals that the library
evaluates in closed form; a plain Euler loop of the root scheme driven by
given increments; one solve_ivp run of the Riccati flow to its horizon,
integrated by its own Gauss rule, which the library's flow matches within
its tolerances; the Riccati flow by separation of variables in mpmath,
with no ODE solver; one solve_ivp run of a jump-law ODE, whose steps the
library's own Dormand-Prince stepper takes; that stepper and the
small-jump series in their loop forms, which the library writes out as
straight-line expressions; H_eps(theta, x) one (theta, x) at a time, with scipy's
Simpson rule on its own tail grids; and the Gaver-Stehfest inversion in
40-digit mpmath numbers, whose sum the library takes exactly in rationals,
and at exact rational abscissae, where a closed-form transform leaves only
the truncation of the n-term sum."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
from scipy.integrate import RK45, quad, simpson, solve_ivp
from scipy.optimize import brentq

from alphacir import affine
from alphacir.derivatives import _LN2, gaver_stehfest_weights
from alphacir.affine import _Steps, _rms
from alphacir.mechanism import JumpSpec, psi, truncated_psi
from alphacir.stable import levy_density_coefficient


def cir_flow(a: float, sigma: float, t):
    """v(t) and int_0^t v of the bond flow v' = 1 - a v - sigma^2 v^2/2,
    v(0) = 0, of dr = a(b - r)dt + sigma sqrt(r) dB: the exponents B and
    -log(A)/(a b) of its zero-coupon bond A exp(-B r0)."""
    gamma = np.sqrt(a * a + 2.0 * sigma * sigma)
    e = np.expm1(gamma * t)
    den = (gamma + a) * e + 2.0 * gamma
    return 2.0 * e / den, -2.0 / (sigma * sigma) * (
        np.log(2.0 * gamma / den) + 0.5 * (a + gamma) * t)


def cir_bond(a: float, b: float, sigma: float, r0: float, T: float) -> float:
    """Zero-coupon bond under dr = a(b - r)dt + sigma sqrt(r) dB."""
    v, big = cir_flow(a, sigma, T)
    return float(np.exp(-r0 * v - a * b * big))


def cir_stationary_laplace(a: float, b: float, sigma: float, p: float) -> float:
    """Gamma(2ab/sigma^2, 2a/sigma^2) limit law of the same diffusion."""
    return float((1.0 + sigma * sigma * p / (2.0 * a))
                 ** (-2.0 * a * b / (sigma * sigma)))


def stable_laplace(q: float, t: float, alpha: float) -> float:
    """E[exp(-q Z_t)] for the spectrally positive driver normalized so the
    exponent is q^alpha / cos(pi alpha / 2)."""
    return float(np.exp(-t * q ** alpha / np.cos(np.pi * alpha / 2.0)))


def compensated_small_jump_quad(q: float, y: float, alpha: float,
                                sigma_z: float) -> float:
    """int_0^y (exp(-q sigma_z z) - 1 + q sigma_z z) mu_alpha(dz) by a
    3-term Taylor expansion on [0, eps] and adaptive quadrature on [eps, y].

    The integrand behaves like (q sigma_z)^2 z^(1-alpha) / 2 near 0, which
    is why the head is expanded; quad then loses accuracy for very small
    and very large q sigma_z y (about 1e-3 relative at 1e-7 and 1e-4 at
    1e3), so compare against it in between."""
    c = q * sigma_z
    K = levy_density_coefficient(alpha)
    eps = min(y, 1e-3) / 2.0
    taylor = K * (c ** 2 * eps ** (2.0 - alpha) / (2.0 * (2.0 - alpha))
                  - c ** 3 * eps ** (3.0 - alpha) / (6.0 * (3.0 - alpha))
                  + c ** 4 * eps ** (4.0 - alpha) / (24.0 * (4.0 - alpha)))
    val, _ = quad(lambda z: (np.expm1(-c * z) + c * z) * K * z ** (-1.0 - alpha),
                  eps, y, epsabs=1e-14, epsrel=1e-12, limit=200)
    return taylor + val


def big_jump_laplace_tail_quad(c: float, y: float, alpha: float) -> float:
    """int_y^inf exp(-c z) mu_alpha(dz) by adaptive quadrature."""
    K = levy_density_coefficient(alpha)
    val, _ = quad(lambda z: K * np.exp(-c * z) * z ** (-1.0 - alpha),
                  y, np.inf, epsabs=1e-14, epsrel=1e-12, limit=200)
    return val


def root_euler_paths(params, dt: float, gauss: np.ndarray, dz: np.ndarray):
    """Full-truncation Euler of dr = a(b - r)dt + sigma sqrt(r) dB
    + sigma_z r^(1/alpha) dZ from r0, one step per row of the given
    standard normals gauss and stable increments dz (shape (steps, paths)).

    Returns (r_T, integral, run_min, paths): the trapezoid integral of the
    clamped rate, the minimum over the grid with r0, and the
    (paths, steps + 1) array of values."""
    p = params
    steps, n = gauss.shape
    out = np.empty((n, steps + 1))
    out[:, 0] = p.r0
    acc = np.zeros(n)
    for k in range(steps):
        r = out[:, k]
        rp = np.maximum(r, 0.0)
        step = (r + p.a * (p.b - rp) * dt
                + p.sigma * np.sqrt(rp) * np.sqrt(dt) * gauss[k])
        if p.sigma_z > 0.0:
            step += p.sigma_z * rp ** (1.0 / p.alpha) * dz[k]
        out[:, k + 1] = np.maximum(step, 0.0)
        acc += 0.5 * dt * (rp + out[:, k + 1])
    return out[:, -1], acc, out.min(axis=1), out


class IvpCurve:
    """A solve_ivp solution of the Riccati flow: its grid, values and dense
    output, with int_0^t v = the 12-point Gauss pieces of the solver steps
    before t, summed in step order, plus Gauss on [grid[i], t].  All the
    nodes of one call are evaluated by the dense output at once."""

    _X, _W = np.polynomial.legendre.leggauss(12)

    def __init__(self, sol):
        self.grid, self.values, self._sol = sol.t, sol.y[0], sol.sol
        pieces = self._pieces(self.grid[:-1], self.grid[1:])
        self._cum = np.concatenate(([0.0], np.cumsum(pieces)))

    def __call__(self, t):
        out = self._sol(np.asarray(t, dtype=float))[0]
        return float(out) if out.ndim == 0 else out

    def _pieces(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """int_lo^hi v piece by piece, each reduced with np.dot."""
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        nodes = mid[:, None] + half[:, None] * self._X
        vals = self(nodes.ravel()).reshape(nodes.shape)
        return half * np.array([np.dot(self._W, row) for row in vals])

    def integral(self, t):
        ts = np.asarray(t, dtype=float)
        flat = ts.ravel()
        i = np.searchsorted(self.grid, flat, side="right") - 1
        out = self._cum[i] + self._pieces(self.grid[i], flat)
        return float(out[0]) if ts.ndim == 0 else out.reshape(ts.shape)


def solve_v_ivp(xi: float, theta: float, horizon: float, params,
                spec: JumpSpec = JumpSpec.full()) -> IvpCurve:
    """v' = theta - Psi(v), v(0) = xi, by one solve_ivp RK45 run over
    [0, horizon] with the library's tolerances, its error norm on v alone
    and int v by Gauss: a second solver for the library's flow."""

    def rhs(_t, v):
        return [theta - psi(max(v[0], 0.0), params, spec)]

    sol = solve_ivp(rhs, (0.0, horizon), [xi], method="RK45",
                    rtol=1e-10, atol=1e-12, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"Riccati flow failed: {sol.message}")
    return IvpCurve(sol)


def _psi_mp(params, spec: JumpSpec):
    """Psi of the variant spec (full or truncated) as an mpmath function:
    the truncated one by its closed form Psi(q) + nu(y) - K (sigma_z q)^alpha
    Gamma(-alpha, sigma_z q y), with K = -1/(cos(pi alpha/2) Gamma(-alpha))
    and nu(y) = K y^(-alpha)/alpha."""
    a, s, sz, alpha = (mp.mpf(x) for x in (params.a, params.sigma,
                                            params.sigma_z, params.alpha))
    if params.is_diffusion:
        s2 = s * s + 2 * sz * sz if params.alpha == 2.0 else s * s
        return lambda q: a * q + s2 * q * q / 2
    cos_a = mp.cos(mp.pi * alpha / 2)
    if spec.variant == "full":
        return lambda q: a * q + s * s * q * q / 2 - (sz * q) ** alpha / cos_a
    y = mp.mpf(spec.y)
    k = -1 / (cos_a * mp.gamma(-alpha))
    nu = k * y ** -alpha / alpha

    def psi_q(q):      # 0 at q = 0, where Gamma(-alpha, 0) is infinite
        if q == 0:
            return q
        return (a * q + s * s * q * q / 2 - (sz * q) ** alpha / cos_a + nu
                - k * (sz * q) ** alpha * mp.gammainc(-alpha, sz * q * y))
    return psi_q


def riccati_by_quadrature(xi: float, theta: float, t: float, params,
                          spec: JumpSpec = JumpSpec.full()) -> tuple:
    """v(t) and int_0^t v for v' = theta - Psi(v), v(0) = xi, by separation
    of variables in 30-digit mpmath, with no ODE solver: v runs
    monotonically from xi toward the root v* of Psi(v*) = theta, and with
    d = Psi'(v*) and R(u) = 1/(theta - Psi(u)) - 1/(d (v* - u)), smooth at
    v*,

        t = s/d + int_xi^v R(u) du,   int_0^t v = int_xi^v u R(u) du
                                                + (v* s - (v - xi))/d,

    where v = v* - (v* - xi) e^(-s).  s is found by findroot; the pole's
    logarithm is taken in closed form."""
    with mp.workdps(30):
        psi_q = _psi_mp(params, spec)
        xi, theta, t = mp.mpf(xi), mp.mpf(theta), mp.mpf(t)
        hi = mp.mpf(1)
        while psi_q(hi) < theta:
            hi *= 2
        v_star = mp.findroot(lambda q: psi_q(q) - theta, (mp.mpf(0), hi),
                             solver="anderson")
        if xi == v_star:
            return float(xi), float(xi * t)
        d = mp.diff(psi_q, v_star)

        def r(u):
            return 1 / (theta - psi_q(u)) - 1 / (d * (v_star - u))

        def v_of(s):
            return v_star - (v_star - xi) * mp.exp(-s)

        s = mp.findroot(lambda s: s / d + mp.quad(r, [xi, v_of(s)]) - t,
                        d * t)
        v = v_of(s)
        big = mp.quad(lambda u: u * r(u), [xi, v]) + (v_star * s - (v - xi)) / d
        return float(v), float(big)


def solve_l_ivp(params, y: float, source, t_max: float):
    """[l, int l] with l' = source(l) - Psi_trunc(l), l(0) = 0, by one
    solve_ivp RK45 run over [0, t_max] with the jump laws' tolerances; the
    right side clamps l at 0 for the source and Psi, as the library's does."""
    spec = JumpSpec.truncated(y)

    def rhs(_t, state):
        l = max(float(state[0]), 0.0)
        return [source(l) - psi(l, params, spec), state[0]]

    sol = solve_ivp(rhs, (0.0, t_max), [0.0, 0.0], method="RK45",
                    rtol=1e-10, atol=1e-12, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"jump-law ODE failed: {sol.message}")
    return sol


def _dot(w, k) -> float:
    """sum_s w[s] k[s] over the stages, added in stage order."""
    acc = 0.0
    for ws, ks in zip(w, k):
        acc += ks * ws
    return acc


_A = [row[:s] for s, row in enumerate(RK45.A.tolist())][1:]
_B, _E = RK45.B.tolist(), RK45.E.tolist()


def solve_l_loop(params, y: float, source, t_max: float, cut=None):
    """jumps._solve_l with its stage, solution and error sums as loops over
    the RK45 tableau (the form it had before they were written out); it
    must give the same steps, evaluations and stages bit for bit."""
    psi_y, max_steps = truncated_psi(params, y), affine._MAX_FLOW_STEPS
    rtol, atol, eps = affine._RTOL, affine._ATOL, np.finfo(float).eps

    def rhs(l):
        l = max(l, 0.0)
        return source(l) - psi_y(l)

    f, h0 = rhs(0.0), min(1e-6, t_max)
    d1 = _rms(f / atol, 0.0)
    d2 = _rms((rhs(h0 * f) - f) / atol, h0 * f / atol) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** 0.2)
    h_abs = min(100 * h0, h1, t_max)

    t, l, big_l, nfev, steps = 0.0, 0.0, 0.0, 2, []
    g = None if cut is None else cut(0.0, 0.0)
    while t < t_max:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise RuntimeError("jump-law ODE failed: the step fell below "
                                   f"10 ulp at t = {t}")
            if nfev + 6 > 2 + 6 * max_steps:
                raise ValueError(f"the jump-law ODE needs more than {max_steps} "
                                 "steps to reach the horizon")
            t_new = min(t + h_abs, t_max)
            h = h_abs = t_new - t
            kl, kbig = [f], [l]
            for a in _A:
                kbig.append(l + _dot(a, kl) * h)
                kl.append(rhs(kbig[-1]))
            l_new, big_new = l + h * _dot(_B, kl), big_l + h * _dot(_B, kbig)
            kbig.append(l_new)
            kl.append(rhs(l_new))
            nfev += 6
            err = _rms(_dot(_E, kl) * h / (atol + max(abs(l), abs(l_new)) * rtol),
                       _dot(_E, kbig) * h
                       / (atol + max(abs(big_l), abs(big_new)) * rtol))
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        steps.append((t_new, (l, big_l), (kl, kbig)))
        t, l, big_l, f = t_new, l_new, big_new, kl[-1]
        if cut is not None:
            g_old, g = g, cut(l, big_l)
            if g_old >= 0.0 >= g:
                sol = _Steps(steps, nfev)
                sol.t[-1] = brentq(lambda s: cut(*sol.sol(s)), sol.t[-2], t,
                                   xtol=4 * eps, rtol=4 * eps)
                return sol
    return _Steps(steps, nfev)


def small_jump_series_loop(x, series):
    """Horner's rule over the coefficients c_20 .. c_2 of
    stable._Truncation.series as a loop, times x^2."""
    acc = 0.0
    for c in series:
        acc = acc * x + c
    return acc * x * x


_G32_X, _G32_W = np.polynomial.legendre.leggauss(32)


def h_value(hc, x: float) -> tuple:
    """H_eps(theta, x) of one derivatives._HCache by its singular panel and
    adaptive tail, and the number of tail grids it took: the library's
    per-(theta, x) quadrature before the thetas of a put were stacked.
    It reads only the R spline, the params, q1, beta, eps and Psi'(q1) of
    hc."""
    q1, beta, eps, params = hc.q1, hc.beta, hc.eps, hc.params

    def r_smooth(h):
        return hc._r_spline(np.clip(h, hc._r_spline.x[0], 1e9))

    # panel [q1, q1 + eps] with h = eps t^(1/beta)
    t = 0.5 * (_G32_X + 1.0)
    hh = eps * t ** (1.0 / beta)
    z = q1 + hh
    ratio = np.full_like(hh, hc.psi1)
    far = hh > 1e-13 * q1
    ratio[far] = (psi(z[far], params) - 1.0) / hh[far]
    gg = np.exp(-x * z + r_smooth(hh)) / ratio
    panel = (eps ** beta / beta / eps ** beta) * float(np.dot(0.5 * _G32_W, gg))
    # tail on z = q1 + eps e^s, s in [0, s_hi], until the log-integrand has
    # fallen 60 nats below its maximum
    s_hi, grids = np.log(max(100.0, 80.0 / max(x, 1e-12)) / eps), 0
    while True:
        s = np.linspace(0.0, s_hi, 6001)
        zt = q1 + eps * np.exp(s)
        h = zt - q1
        log_i = (-x * zt + beta * np.log(h / eps) + r_smooth(h)
                 - np.log(psi(zt, params) - 1.0)) + np.log(h)
        m = float(np.max(log_i))
        grids += 1
        if log_i[-1] < m - 60.0 or zt[-1] > 0.5e9:
            break
        s_hi += 5.0
    return panel + np.exp(m) * float(simpson(np.exp(log_i - m), x=s)), grids


def stehfest_abscissae_mpmath(t: float, n_terms: int) -> list:
    """theta_k = k ln2/t, k = 1..n_terms, each rounded to a float from a
    40-digit mpmath number: the formula of perfbench's put-laplace requests,
    which hit the put's H and M caches only with the same bits."""
    with mp.workdps(40):
        ln2_t = mp.log(2) / t
        return [float(ln2_t * k) for k in range(1, n_terms + 1)]


def gaver_stehfest_mpmath(transform, t: float, n_terms: int) -> float:
    """Gaver-Stehfest inversion with its weights, abscissae and alternating
    sum in 40-digit mpmath numbers, the transform called at the float
    abscissae."""
    with mp.workdps(40):
        m, ln2_t, acc = n_terms // 2, mp.log(2) / t, mp.mpf(0)
        for k in range(1, n_terms + 1):
            s = mp.mpf(0)
            for j in range((k + 1) // 2, min(k, m) + 1):
                s += (mp.mpf(j) ** m * mp.factorial(2 * j)
                      / (mp.factorial(m - j) * mp.factorial(j)
                         * mp.factorial(j - 1) * mp.factorial(k - j)
                         * mp.factorial(2 * j - k)))
            acc += (-1) ** (k + m) * s * mp.mpf(transform(float(ln2_t * k)))
        return float(acc * ln2_t)


def gaver_stehfest_exact(transform, t: float, n_terms: int) -> float:
    """Gaver-Stehfest inversion with the library's weights and the transform
    called at the exact rational abscissae k _LN2/t.  A transform that is
    rational in its argument, such as 1/(s + Fraction(c)), makes the sum
    exact, so the error is the n-term truncation alone."""
    ln2_t = _LN2 / Fraction(t)
    return float(ln2_t * sum(
        a_k * transform(ln2_t * k)
        for k, a_k in enumerate(gaver_stehfest_weights(n_terms), 1)))
