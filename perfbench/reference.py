"""Accuracy fingerprint: reference values at the fixed fixture points.

Analytic values (closed form, ODE, quadrature, inversion) are checked to
REL_TOL relative; Monte Carlo estimates to within MC_Z standard errors of
the analytic value.  The values were produced by the alphacir analytic
routes at the commit that introduced this benchmark; a change that moves
one of them beyond its tolerance is reported as a failed request.
"""

import math

REL_TOL = 1e-9
# Each run makes a few dozen MC comparisons; a 5-SE band keeps the chance of
# a false alarm per comparison near 6e-7 while a real bias of a few SE at
# the benchmark's path counts still shows.
MC_Z = 5.0

BOND_SET = dict(a=0.1, b=0.3, sigma=0.1, sigma_z=0.3, r0=0.05)
PATH_SET = dict(a=0.1, b=0.3, sigma=0.1, sigma_z=0.3, r0=0.1)
JUMP_SET = dict(a=0.1, b=0.1, sigma=0.1, sigma_z=0.1, r0=0.2)
Y_BAR = 0.1
PUT_KAPPA, PUT_STRIKE, PUT_T = 1.0, 0.039941, 1.0

# Fingerprint (ROADMAP item 1), alpha = 1.5 on the fixture sets.
PUT_PRICE = 0.010466419185062768          # put_price, criterion-9 fixture
EXPECTED_TAU = 46.48148388822062          # E[tau], ybar = 0.1, JUMP_SET
SURVIVAL_T5 = 0.7615298761120577          # P(tau > 5), ybar = 0.1, JUMP_SET
BOND_T5 = 0.7263950344766044              # B(0, 5), BOND_SET
STATIONARY_P1 = 0.8835843783687795        # E[exp(-r_inf)], BOND_SET

# Analytic targets of the Monte Carlo requests (alpha = 1.5).
BOND_T1 = 0.9442438568290856              # B(0, 1), BOND_SET
LAPLACE_P10_T1 = 0.6405208121183045       # E[exp(-10 r_1)], BOND_SET
SURVIVAL = {1.0: 0.9292346147915769, 2.0: 0.8733251200325973,
            5.0: SURVIVAL_T5}             # P(tau > t), JUMP_SET
LOU_CDF = {0.5: 0.039108930890982906, 1.0: 0.07668835330653014,
           2.0: 0.14749560308019308}      # LOU first-jump CDF, JUMP_SET


def cir_bond(a, b, sigma, r0, T):
    """Zero-coupon price of the CIR model (the alpha = 2 reduction)."""
    h = math.sqrt(a * a + 2.0 * sigma * sigma)
    e = math.expm1(h * T)
    den = 2.0 * h + (a + h) * e
    log_a = (2.0 * a * b / sigma ** 2) * math.log(
        2.0 * h * math.exp(0.5 * (a + h) * T) / den)
    return math.exp(log_a - 2.0 * e / den * r0)


def cir_stationary_laplace(a, b, sigma, p):
    """Laplace transform of the CIR stationary Gamma law."""
    return (1.0 + p * sigma * sigma / (2.0 * a)) ** (-2.0 * a * b / sigma ** 2)


def rel_err(value, ref):
    return abs(value - ref) / abs(ref)
