"""End-to-end acceptance suite: every numbered criterion prints one
pass/fail line per test (also echoed in the terminal summary) and asserts
it.  Criteria 5 and 6 bundle several claims; each claim is its own test,
so a failure of one cannot hide behind another.

The Monte Carlo criteria share module-scoped simulations where possible.
Two sub-claims fail by design of the model itself, not by implementation
error, and are left red on purpose with the analysis in the output lines:
the survival-ordering claim in criterion 5 and the monotone-in-alpha claim
in criterion 6.  Both are contradicted by independent simulation at the
same parameters (the truncated-drift compensator grows without bound as
alpha decreases toward 1, producing a U-shaped expected first-jump time
and a survival-curve crossing near t = 4).
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from conftest import BOND_SET, JUMP_SET, record_criterion
from oracles import (
    cir_bond,
    cir_stationary_laplace,
    gaver_stehfest_exact,
    stable_laplace,
)

from alphacir.affine import (
    bond_price,
    bond_price_from_curve,
    joint_laplace,
    solve_v,
    stationary_laplace,
)
from alphacir.derivatives import put_price
from alphacir.jumps import (
    counter_laplace,
    expected_tau,
    lou_first_jump_cdf,
    survival_tau,
    survival_tau_via_rhat,
)
from alphacir.mc import (
    mc_bond,
    mc_expected_tau,
    mc_laplace,
    mc_lou_first_jump_cdf,
    mc_running_min_put,
    mc_survival,
)
from alphacir.mechanism import JumpSpec, ModelParams, psi
from alphacir.sim import (
    simulate_hawkes_batch,
    simulate_root_batch,
    simulate_thinned_batch,
)
from alphacir.stable import StableSpec, sample_stable_increment

pytestmark = pytest.mark.acceptance


def bond_p(alpha, **kw):
    return ModelParams(alpha=alpha, **{**BOND_SET, **kw})


def jump_p(alpha, **kw):
    return ModelParams(alpha=alpha, **{**JUMP_SET, **kw})


PUT_KAPPA, PUT_STRIKE, PUT_T = 1.0, 0.039941, 1.0
Y_BAR = 0.1


# --------------------------------------------------------------- criterion 1


def test_criterion_01_cir_reduction():
    t0 = time.time()
    worst = 0.0
    p2 = bond_p(2.0)
    s_eff = np.sqrt(p2.sigma ** 2 + 2.0 * p2.sigma_z ** 2)
    for T in (1.0, 5.0, 10.0):
        ours = bond_price(0.0, T, p2.r0, p2)
        ref = cir_bond(p2.a, p2.b, s_eff, p2.r0, T)
        worst = max(worst, abs(ours / ref - 1.0))
    p0 = bond_p(1.5, sigma_z=0.0)
    for T in (1.0, 5.0, 10.0):
        ours = bond_price(0.0, T, p0.r0, p0)
        ref = cir_bond(p0.a, p0.b, p0.sigma, p0.r0, T)
        worst = max(worst, abs(ours / ref - 1.0))
    wall = time.time() - t0
    ok = worst <= 1e-6 and wall < 1.0
    record_criterion(1, ok, f"CIR reduction, max rel err {worst:.2e}, "
                            f"{wall:.2f}s")
    assert ok


# --------------------------------------------------------------- criterion 2


def test_criterion_02_alpha_monotonicity():
    t0 = time.time()
    alphas = (1.2, 1.5, 1.8, 2.0)
    ts = np.arange(1.0, 11.0)
    curves = {a: solve_v(0.0, 1.0, 10.0, bond_p(a)) for a in alphas}
    vs = np.array([[curves[a](t) for a in alphas] for t in ts])
    bonds = np.array([[bond_price_from_curve(curves[a], t, BOND_SET["r0"])
                       for a in alphas] for t in ts])
    v_up = bool(np.all(np.diff(vs, axis=1) > 0.0))
    b_down = bool(np.all(np.diff(bonds, axis=1) < 0.0))
    wall = time.time() - t0
    ok = v_up and b_down and wall < 5.0
    record_criterion(2, ok, f"exponent increasing in alpha: {v_up}, bond "
                            f"decreasing: {b_down}, {wall:.2f}s")
    assert ok


# ------------------------------------------------------------ criteria 3, 4


@pytest.fixture(scope="module")
def desk_scale_batches():
    p = bond_p(1.5)
    rng = np.random.default_rng(101)
    r_root, integral = simulate_root_batch(p, 1e-3, 1.0, 100_000, rng)
    rng = np.random.default_rng(102)
    r_thin, _, _, _ = simulate_thinned_batch(p, 1.0, 1e-3, 1.0, 100_000, rng)
    return p, r_root, integral, r_thin


def test_criterion_03_scheme_equivalence(desk_scale_batches):
    _, r_root, _, r_thin = desk_scale_batches
    worst_z, detail = 0.0, []
    for pv in (0.5, 1.0, 2.0):
        a, b = np.exp(-pv * r_root), np.exp(-pv * r_thin)
        se = np.hypot(a.std(ddof=1) / np.sqrt(a.size),
                      b.std(ddof=1) / np.sqrt(b.size))
        z = abs(a.mean() - b.mean()) / se
        worst_z = max(worst_z, z)
        detail.append(f"p={pv:g}:z={z:.2f}")
    ok = worst_z <= 3.0
    record_criterion(3, ok, "root vs thinned Laplace, " + " ".join(detail))
    assert ok


def test_criterion_04_bond_concordance(desk_scale_batches):
    p, _, integral, _ = desk_scale_batches
    disc = np.exp(-integral)
    se = disc.std(ddof=1) / np.sqrt(disc.size)
    target = bond_price(0.0, 1.0, p.r0, p)
    z = abs(disc.mean() - target) / se
    ok = z <= 3.0
    record_criterion(4, ok, f"mc bond {disc.mean():.6f}±{se:.6f} vs "
                            f"{target:.6f}, z={z:.2f}")
    assert ok


# --------------------------------------------------------------- criterion 5


@pytest.fixture(scope="module")
def survival_tables():
    ts = np.arange(1.0, 11.0)
    out = {}
    for alpha in (1.2, 1.5, 1.9):
        p = jump_p(alpha)
        analytic = np.array([survival_tau(Y_BAR, t, p) for t in ts])
        ests = mc_survival(p, Y_BAR, ts, n_paths=100_000, dt=2e-3,
                           seed=500 + int(10 * alpha))
        out[alpha] = (p, analytic, ests)
    return ts, out


def test_criterion_05_survival_identity(survival_tables):
    ts, tables = survival_tables
    id_worst = 0.0
    for p, analytic, _ in tables.values():
        for t, s1 in zip(ts, analytic):
            s2 = survival_tau_via_rhat(Y_BAR, t, p)
            id_worst = max(id_worst, abs(s1 - s2))
    ident_ok = id_worst <= 1e-6
    record_criterion(5, ident_ok, f"two-route identity max {id_worst:.1e} "
                                  f"({'ok' if ident_ok else 'FAIL'})")
    assert ident_ok


def test_criterion_05_survival_mc_concordance(survival_tables):
    _, tables = survival_tables
    z_worst = 0.0
    for _, analytic, ests in tables.values():
        for s1, est in zip(analytic, ests):
            z_worst = max(z_worst, abs(est.value - s1) / est.std_error)
    mc_ok = z_worst <= 3.0
    record_criterion(5, mc_ok, f"mc max z {z_worst:.2f} "
                               f"({'ok' if mc_ok else 'FAIL'})")
    assert mc_ok


def test_criterion_05_survival_alpha_ordering(survival_tables):
    # ordering claim: smaller alpha decays faster at every t
    _, tables = survival_tables
    s = {a: tables[a][1] for a in tables}
    order_ok = bool(np.all(s[1.2] <= s[1.5]) and np.all(s[1.5] <= s[1.9]))
    record_criterion(
        5, order_ok,
        f"alpha ordering {'ok' if order_ok else 'FAIL: curves cross near t=4, '}"
        + ("" if order_ok else
           f"s(1.2,5)={s[1.2][4]:.4f} > s(1.5,5)={s[1.5][4]:.4f}"))
    assert order_ok


# --------------------------------------------------------------- criterion 6


@pytest.fixture(scope="module")
def expected_tau_table():
    return {alpha: expected_tau(Y_BAR, jump_p(alpha))
            for alpha in (1.2, 1.4, 1.5, 1.6, 1.8)}


def test_criterion_06_dual_routes(expected_tau_table):
    dual_worst = 0.0
    for alpha in (1.2, 1.5, 1.8):
        est = expected_tau_table[alpha]
        dual_worst = max(dual_worst,
                         abs(est.survival_route / est.density_route - 1.0))
    dual_ok = dual_worst <= 1e-4
    record_criterion(6, dual_ok, f"dual routes {dual_worst:.1e} "
                                 f"({'ok' if dual_ok else 'FAIL'})")
    assert dual_ok


def test_criterion_06_mc_concordance(expected_tau_table):
    p = jump_p(1.5)
    analytic = expected_tau_table[1.5].value
    mc = mc_expected_tau(p, Y_BAR, n_paths=10_000, dt=0.01, seed=606)
    z = abs(mc.value - analytic) / mc.std_error
    mc_ok = z <= 3.0
    record_criterion(6, mc_ok, f"mc z={z:.2f} ({'ok' if mc_ok else 'FAIL'})")
    assert mc_ok


def test_criterion_06_monotone_in_alpha(expected_tau_table):
    grid = [expected_tau_table[a].value for a in (1.2, 1.4, 1.6, 1.8)]
    mono_ok = bool(np.all(np.diff(grid) > 0.0))
    record_criterion(
        6, mono_ok,
        "monotone in alpha "
        + ("ok" if mono_ok else "FAIL: U-shaped, E[tau]="
           + "/".join(f"{v:.1f}" for v in grid) + " at alpha 1.2/1.4/1.6/1.8"))
    assert mono_ok


# --------------------------------------------------------------- criterion 7


def test_criterion_07_lou_exact_law():
    p = jump_p(1.5)
    ts = (0.5, 1.0, 2.0)
    ests = mc_lou_first_jump_cdf(p, Y_BAR, ts, n_paths=100_000, seed=707)
    worst = 0.0
    for t, est in zip(ts, ests):
        target = lou_first_jump_cdf(Y_BAR, t, p)
        worst = max(worst, abs(est.value - target) / est.std_error)
    ok = worst <= 3.0
    record_criterion(7, ok, f"frozen-rate first-jump CDF, max z {worst:.2f}")
    assert ok


# --------------------------------------------------------------- criterion 8


def test_criterion_08_stable_sampler_law():
    rng = np.random.default_rng(0)
    worst, detail = 0.0, []
    for alpha in (1.2, 1.5, 1.9):
        z = sample_stable_increment(StableSpec(alpha=alpha), 1.0, rng,
                                    size=1_000_000)
        for q in (0.1, 1.0, 5.0):
            s = np.exp(-q * z)
            se = s.std(ddof=1) / np.sqrt(s.size)
            zz = abs(s.mean() - stable_laplace(q, 1.0, alpha)) / se
            worst = max(worst, zz)
            if zz > 3.0:
                detail.append(f"(alpha={alpha},q={q}):z={zz:.2f}")
    ok = worst <= 3.0
    record_criterion(8, ok, f"sampler Laplace grid, max z {worst:.2f}"
                     + ("" if ok else "; out of band " + " ".join(detail)
                        + " (estimand relative sd ~1e5 at that cell, the "
                          "plain-mean z-test is unreliable there)"))
    assert ok


# --------------------------------------------------------------- criterion 9


def test_criterion_09_put_pipeline():
    c = 0.7
    gs_err = max(abs(gaver_stehfest_exact(lambda s: 1 / (s + Fraction(c)),
                                          t, 26)
                     - np.exp(-c * t)) for t in (0.5, 1.0, 3.0))
    gs_ok = gs_err <= 1e-8
    p = bond_p(1.5)
    analytic = put_price(PUT_T, PUT_KAPPA, PUT_STRIKE, p)
    # running-minimum monitoring bias is O(sqrt(dt)); pair two step sizes
    # and extrapolate it away, keeping the criterion's 1e5 paths per run
    y4, r4 = mc_running_min_put(p, PUT_T, PUT_KAPPA, PUT_STRIKE,
                                n_paths=100_000, dt=4e-4, seed=909)
    y1, r1 = mc_running_min_put(p, PUT_T, PUT_KAPPA, PUT_STRIKE,
                                n_paths=100_000, dt=1e-4, seed=910)
    extrap = 2.0 * y1.value - y4.value
    se = np.hypot(2.0 * y1.std_error, y4.std_error)
    z = abs(extrap - analytic) / se
    mc_ok = z <= 3.0
    z_forms = abs(y1.value - r1.value) / np.hypot(y1.std_error, r1.std_error)
    forms_ok = z_forms <= 2.0
    ok = gs_ok and mc_ok and forms_ok
    record_criterion(
        9, ok,
        f"inversion self-test {gs_err:.1e}, price {analytic:.6f} vs mc "
        f"{extrap:.6f}±{se:.6f} z={z:.2f}, payoff forms z={z_forms:.2f}")
    assert ok


# -------------------------------------------------------------- criterion 10


def test_criterion_10_stationarity():
    p = bond_p(1.5)
    pv = 1.0
    target = stationary_laplace(pv, p)
    est = mc_laplace(p, pv, 200.0, n_paths=10_000, dt=0.01, seed=1010)
    z = abs(est.value - target) / est.std_error
    mc_ok = z <= 3.0
    p0 = bond_p(2.0, sigma_z=0.0)
    exact_err = max(abs(stationary_laplace(q, p0)
                        - cir_stationary_laplace(p0.a, p0.b, p0.sigma, q))
                    for q in (0.1, 1.0, 10.0))
    gamma_ok = exact_err <= 1e-8
    ok = mc_ok and gamma_ok
    record_criterion(10, ok, f"limit law mc z={z:.2f}, Gamma law err "
                             f"{exact_err:.1e}")
    assert ok


# -------------------------------------------------------------- criterion 11


def test_criterion_11_hawkes_limit():
    a, b, sz, horizon, pv = 0.1, 0.3, 0.3, 1.0, 30.0
    limit = joint_laplace(0.0, horizon, pv, 0.0,
                          ModelParams(a=a, b=b, sigma=sz, sigma_z=0.0,
                                      alpha=2.0, r0=0.0))
    errs = []
    for n, n_paths in ((10, 100_000), (50, 200_000), (200, 400_000)):
        rng = np.random.default_rng(1100 + n)
        lam = simulate_hawkes_batch(a, b, sz, horizon, n, n_paths, rng)
        emp = np.exp(-pv * lam).mean()
        errs.append(abs(emp - limit) / limit)
    dec_ok = errs[0] > errs[1] > errs[2]
    at50_ok = errs[1] <= 0.05
    ok = dec_ok and at50_ok
    record_criterion(11, ok, "branching-to-diffusion errors "
                     + "/".join(f"{e:.4f}" for e in errs)
                     + f" at n=10/50/200, decreasing: {dec_ok}")
    assert ok


# -------------------------------------------------------------- criterion 12


def test_criterion_12_degenerate_suite():
    p = jump_p(1.5)
    checks = [
        bond_price(1.0, 1.0, 0.07, p) == 1.0,
        counter_laplace(0.0, Y_BAR, 5.0, p) == 1.0,
        counter_laplace(2.0, Y_BAR, 0.0, p) == 1.0,
        psi(0.0, p) == 0.0,
        psi(0.0, p, JumpSpec.truncated(1.0)) == 0.0,
        survival_tau(Y_BAR, 0.0, p) == 1.0,
    ]
    ok = all(checks)
    record_criterion(12, ok, f"degenerate identities {sum(checks)}/"
                             f"{len(checks)} exact")
    assert ok
