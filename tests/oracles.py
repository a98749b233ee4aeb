"""Reference values the library must reproduce: in its degenerate corners
the square-root-diffusion bond formula, its Gamma stationary law and the
stable-driver Laplace transform; and adaptive quadratures of the truncated
Levy-measure integrals that the library evaluates in closed form."""

import numpy as np
from scipy.integrate import quad

from alphacir.stable import levy_density_coefficient


def cir_bond(a: float, b: float, sigma: float, r0: float, T: float) -> float:
    """Zero-coupon bond under dr = a(b - r)dt + sigma sqrt(r) dB."""
    gamma = np.sqrt(a * a + 2.0 * sigma * sigma)
    e = np.expm1(gamma * T)
    den = (gamma + a) * e + 2.0 * gamma
    B = 2.0 * e / den
    A = (2.0 * gamma * np.exp(0.5 * (a + gamma) * T) / den) ** (
        2.0 * a * b / (sigma * sigma))
    return float(A * np.exp(-B * r0))


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
