from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from alphacir import affine, derivatives
from alphacir.affine import _without_r0, bond_price, solve_v
from alphacir.derivatives import (
    _HStack,
    _MCache,
    _cached_h,
    _h_values,
    _stehfest_abscissae,
    bond_transform_M,
    effective_strike,
    gaver_stehfest,
    gaver_stehfest_weights,
    hitting_time_laplace,
    put_laplace,
    put_price,
)
from alphacir.mechanism import psi, root_psi_equals_one
from oracles import (
    gaver_stehfest_exact,
    gaver_stehfest_mpmath,
    h_value,
    solve_v_ivp,
    stehfest_abscissae_mpmath,
)

KAPPA = 1.0
STRIKE = 0.039941  # makes the effective strike ~0.03 at the bond fixture
# criterion-9 fixture put (alpha = 1.5, T = 1, 14 Stehfest terms)
FIXTURE_PUT = 0.010466419189409994


def test_gaver_stehfest_weights_sum_to_zero():
    # the weights are exact rationals, so they cancel exactly
    for n in (8, 14, 26):
        assert sum(gaver_stehfest_weights(n)) == 0


def test_gaver_stehfest_weights_are_a_shared_tuple():
    w = gaver_stehfest_weights(14)
    assert isinstance(w, tuple) and len(w) == 14
    assert gaver_stehfest_weights(14) is w


def test_gaver_stehfest_recovers_exponential():
    c = 0.7
    for t in (0.5, 1.0, 3.0):
        val = gaver_stehfest(lambda s: 1.0 / (s + c), t)
        assert val == pytest.approx(np.exp(-c * t), abs=2e-5)


def test_gaver_stehfest_at_exact_abscissae():
    # 1/(s + c) at the exact rational abscissae: the 26-term sum is exact,
    # so its error is the truncation alone
    c = 0.7
    val = gaver_stehfest_exact(lambda s: 1 / (s + Fraction(c)), 1.0, 26)
    assert val == pytest.approx(np.exp(-0.7), abs=1e-9)


def test_stehfest_abscissae_equal_40_digit_mpmath():
    # the float nearest k ln2/t, as the 40-digit formula rounds it: a
    # put-laplace request at one of these thetas hits the put's H and M
    # caches only with the same bits
    rng = np.random.default_rng(31)
    maturities = [0.5, 1.0, 2.0] + np.exp(
        rng.uniform(np.log(0.01), np.log(100.0), 1000)).tolist()
    for T in maturities:
        for n in (8, 14):
            assert _stehfest_abscissae(T, n) == stehfest_abscissae_mpmath(T, n)


@pytest.mark.parametrize("n_terms", [8, 14, 26])
def test_gaver_stehfest_equals_40_digit_mpmath(n_terms):
    # the exact rational sum rounds to the bits of the 40-digit one
    rng = np.random.default_rng(n_terms)
    for c, t in zip(rng.uniform(0.01, 5.0, 300), rng.uniform(0.05, 10.0, 300)):
        transform = lambda s: 1.0 / (s + c)
        assert gaver_stehfest(transform, t, n_terms) \
            == gaver_stehfest_mpmath(transform, t, n_terms)


def test_effective_strike_matches_curve_algebra(bond_params):
    p = bond_params(alpha=1.5)
    k_bar, nominal = effective_strike(KAPPA, STRIKE, p)
    curve = solve_v(0.0, 1.0, KAPPA, p)
    v_k = curve(KAPPA)
    expect = (KAPPA * STRIKE - p.a * p.b * curve.integral(KAPPA)) / v_k
    assert k_bar == pytest.approx(expect, rel=1e-10, abs=0.0)
    assert nominal == pytest.approx(v_k / KAPPA, rel=1e-10, abs=0.0)


def test_hitting_ratio_is_one_above_start(bond_params):
    p = bond_params(alpha=1.5)
    assert hitting_time_laplace(p.r0, p.r0, 1.0, p) == 1.0
    assert hitting_time_laplace(p.r0, p.r0 + 0.01, 1.0, p) == 1.0


def test_hitting_ratio_decreases_with_deeper_barrier(bond_params):
    p = bond_params(alpha=1.5)
    vals = [hitting_time_laplace(p.r0, y, 1.0, p)
            for y in (0.04, 0.03, 0.02, 0.01)]
    assert np.all(np.diff(vals) < 0.0)
    assert all(0.0 < v < 1.0 for v in vals)


def test_hitting_ratio_invariant_to_split_point(bond_params):
    p = bond_params(alpha=1.5)
    q1 = root_psi_equals_one(p)
    ref = hitting_time_laplace(p.r0, 0.02, 1.0, p, eps=0.1 * q1)
    alt = hitting_time_laplace(p.r0, 0.02, 1.0, p, eps=0.02 * q1)
    assert alt == pytest.approx(ref, rel=1e-7, abs=0.0)


def test_h_scale_decreasing_in_state(bond_params):
    p = bond_params(alpha=1.5)
    hs = _h_values(1.0, p, None, 0.01, 0.05, 0.2)
    assert np.all(np.diff(hs) < 0.0)
    assert all(h > 0.0 for h in hs)


def test_bond_transform_matches_direct_time_integral(bond_params):
    # M(theta, y) = int_0^inf e^{-theta u} B_y(0, u) du with the bond started
    # at the barrier level y
    p = bond_params(alpha=1.5)
    theta, y = 1.0, 0.1
    curve = solve_v(0.0, 1.0, 60.0, p)

    def integrand(u):
        return np.exp(-theta * u - y * curve(u)
                      - p.a * p.b * curve.integral(u))

    direct, _ = quad(integrand, 0.0, 60.0, epsabs=1e-13, epsrel=1e-11,
                     limit=300)
    assert bond_transform_M(theta, y, p) == pytest.approx(direct, rel=1e-8,
                                                          abs=0.0)


def test_put_laplace_monotone_in_strike(bond_params):
    p = bond_params(alpha=1.5)
    vals = [put_laplace(1.0, KAPPA, k, p)
            for k in (0.035, 0.039941, 0.045)]
    assert np.all(np.diff(vals) > 0.0)


def test_put_laplace_void_when_effective_strike_negative(bond_params):
    p = bond_params(alpha=1.5)
    val, diag = put_laplace(1.0, KAPPA, 0.005, p, with_diagnostics=True)
    assert val == 0.0
    assert diag["void"]


def test_put_price_void_when_effective_strike_negative(bond_params,
                                                      monkeypatch):
    # a void strike prices at 0 without inverting anything
    p = bond_params(alpha=1.5)

    def no_inversion(*args, **kwargs):
        raise AssertionError("void put called gaver_stehfest")

    monkeypatch.setattr(derivatives, "gaver_stehfest", no_inversion)
    price, diag = put_price(1.0, KAPPA, 0.005, p, with_diagnostics=True)
    assert price == 0.0 and diag["kappa_inv"] is None
    assert diag["void"] and diag["kbar"] <= 0.0
    assert put_price(1.0, KAPPA, 0.005, p) == 0.0


@pytest.mark.parametrize("call", [
    lambda p: hitting_time_laplace(0.05, 0.02, 400.0, p),
    lambda p: _h_values(400.0, p, None, 0.02),
], ids=["hitting_time_laplace", "h_scale"])
def test_non_finite_h_raises(bond_params, call):
    # H overflows at theta = 400 at the bond set; a NaN is not a value
    with np.errstate(all="ignore"):
        with pytest.raises(RuntimeError, match="H not finite at theta = 400"):
            call(bond_params(alpha=1.5))


def test_put_laplace_completely_monotone_start(bond_params):
    p = bond_params(alpha=1.5)
    vals = np.array([put_laplace(th, KAPPA, STRIKE, p)
                     for th in (0.5, 1.0, 1.5, 2.0)])
    d1 = np.diff(vals)
    assert np.all(d1 < 0.0)
    assert np.all(np.diff(d1) > 0.0)  # convex


@pytest.mark.slow
def test_put_price_inversion_is_stable(bond_params):
    p = bond_params(alpha=1.5)
    price, diag = put_price(1.0, KAPPA, STRIKE, p, with_diagnostics=True)
    assert 0.0 < price < diag["kbar"]
    assert diag["stability_gap"] < 1e-4


def test_put_price_fixture_value(bond_params):
    # the 14-term Stehfest sum amplifies one-ulp noise in Psi to ~4e-9, so
    # this pins the rounding of the whole transform pipeline
    p = bond_params(alpha=1.5)
    price, diag = put_price(1.0, KAPPA, STRIKE, p, with_diagnostics=True)
    assert price == pytest.approx(FIXTURE_PUT, rel=1e-9, abs=0.0)
    assert diag["transform_evals"] == 14


def test_put_price_fixture_is_bit_identical(bond_params):
    # one theta-independent H tail per strike node (64 Gauss nodes + r0),
    # shared by all 14 abscissae; the pins hold with ==
    p = bond_params(alpha=1.5)
    price, diag = put_price(1.0, KAPPA, STRIKE, p, with_diagnostics=True)
    assert price == FIXTURE_PUT
    assert diag["stability_gap"] == 1.1204975176697107e-07
    assert diag["h_tail_grids"] == 65


@pytest.mark.parametrize("alpha, T, K, price, gap", [
    (1.2, 0.5, 0.035, 0.005831550295565767, 6.258464833583995e-05),
    (1.8, 2.0, 0.045, 0.021146899152445903, 2.9168935654844824e-05),
    (1.5, 0.5, 0.035, 0.0035875741591968025, 4.671115507348103e-05),
])
def test_put_price_eight_terms_is_bit_identical(bond_params, alpha, T, K,
                                                price, gap):
    p = bond_params(alpha=alpha)
    got, diag = put_price(T, KAPPA, K, p, n_terms=8, with_diagnostics=True)
    assert got == price
    assert diag["stability_gap"] == gap


@pytest.mark.parametrize("n_terms, low, high", [(14, 8.4e6, 8.6e6),
                                                 (8, 2.5e3, 2.7e3)])
def test_put_price_reports_inversion_condition_number(bond_params, n_terms,
                                                      low, high):
    # kappa_inv = (ln2/T) sum_k |a_k L(theta_k)|/|price|: a relative error e
    # in the transform values moves the price by up to kappa_inv e, 8.48e6 e
    # at 14 terms and 2.6e3 e at 8
    _, diag = put_price(1.0, KAPPA, STRIKE, bond_params(alpha=1.5),
                        n_terms=n_terms, with_diagnostics=True)
    assert low < diag["kappa_inv"] < high


def test_put_laplace_scalar_pin(bond_params):
    assert put_laplace(2.0, KAPPA, 0.04, bond_params(alpha=1.5)) \
        == 0.0024968566474674494


def test_put_laplace_array_equals_scalar_loop(bond_params):
    # theta = 40 outruns the shared tail grid at alpha = 1.2 and runs again
    # on longer grids, which the count includes
    p = bond_params(alpha=1.2)
    thetas = np.array([0.5, 3.0, 40.0])
    vals, diag = put_laplace(thetas, KAPPA, 0.04, p, with_diagnostics=True)
    assert vals.shape == thetas.shape
    for k, th in enumerate(thetas):
        assert vals[k] == put_laplace(float(th), KAPPA, 0.04, p)
    assert diag["h_tail_grids"] > 1 + diag["nodes"]


def test_stehfest_abscissae_are_the_inversion_points():
    seen = []

    def transform(theta):
        seen.append(theta)
        return 1.0 / (theta + 1.0)

    for T, n in ((1.0, 14), (0.5, 8), (2.0, 8)):
        seen.clear()
        gaver_stehfest(transform, T, n_terms=n)
        assert seen == _stehfest_abscissae(T, n)


@pytest.mark.parametrize("call", [
    lambda p: hitting_time_laplace(float("nan"), 0.01, 1.0, p),
    lambda p: hitting_time_laplace(p.r0, float("inf"), 1.0, p),
    lambda p: bond_transform_M(1.0, float("nan"), p),
    lambda p: bond_transform_M(float("nan"), 0.01, p),
], ids=["hitting-r0", "hitting-y", "M-y", "M-theta"])
def test_transforms_reject_non_finite_input(bond_params, call):
    with pytest.raises(ValueError, match="finite"):
        call(bond_params(alpha=1.5))


def test_put_price_evaluates_each_abscissa_once(bond_params):
    # the n - 2 stability check reuses the n-term abscissae k <= n - 2
    p = bond_params(alpha=1.5)
    _, diag = put_price(0.5, KAPPA, 0.035, p, n_terms=8, with_diagnostics=True)
    assert diag["transform_evals"] == 8


@pytest.mark.parametrize("field", ["T", "kappa", "K", "theta", "r0"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_put_rejects_non_finite_input(bond_params, field, bad):
    # the put reads r0 from its params, which refuse a non-finite one
    args = {"T": 1.0, "kappa": KAPPA, "K": STRIKE, "theta": 1.0, "r0": 0.05}
    args[field] = bad
    if field != "T":
        with pytest.raises(ValueError, match="finite"):
            put_laplace(args["theta"], args["kappa"], args["K"],
                        bond_params(alpha=1.5, r0=args["r0"]))
    if field != "theta":
        with pytest.raises(ValueError, match="finite"):
            put_price(args["T"], args["kappa"], args["K"],
                      bond_params(alpha=1.5, r0=args["r0"]))


@pytest.mark.parametrize("r0", [-0.01, -1.0])
@pytest.mark.parametrize("call", [
    lambda make, r0: put_laplace(1.0, KAPPA, 0.04, make(r0=r0)),
    lambda make, r0: put_price(1.0, 1.0, 0.04, make(r0=r0), n_terms=8),
    lambda make, r0: hitting_time_laplace(r0, 0.02, 1.0, make()),
], ids=["put_laplace", "put_price", "hitting_time_laplace"])
def test_transforms_reject_negative_start_rate(bond_params, call, r0):
    # the short rate lives on [0, inf): a negative start is an input error,
    # not a price; the put reads r0 from its params, which refuse it
    with pytest.raises(ValueError, match="r0 must be finite and nonnegative"):
        call(bond_params, r0)


def _m_ivp(theta, p, ys):
    """M(theta, y) at the rates ys by composite 16-point Gauss on the steps
    of one solve_ivp curve to the cache's horizon, and that curve."""
    decay = theta + p.a * p.b * root_psi_equals_one(p)
    curve = solve_v_ivp(0.0, 1.0, max(50.0 / decay, 5.0), p)
    xs, ws = np.polynomial.legendre.leggauss(16)
    g = curve.grid
    mid, half = 0.5 * (g[1:] + g[:-1]), 0.5 * (g[1:] - g[:-1])
    u = (mid[:, None] + half[:, None] * xs).ravel()
    expo = (-theta * u - np.multiply.outer(ys, curve(u))
            - p.a * p.b * curve.integral(u))
    return np.exp(expo) @ (half[:, None] * ws).ravel(), curve


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8, 2.0])
def test_m_cache_equals_solve_ivp_curve(bond_params, alpha):
    # the 14 Stehfest abscissae at four maturities: v and int v at the
    # cache's nodes against one solve_ivp curve, in the local scale
    # 1e-12 + 1e-10 |ref| of test_flow_cuts_equal_solve_ivp (worst
    # measured 19.8 and 5.4), and M at five rates against M on that
    # curve's own steps (worst measured 6.0e-12 relative)
    p = bond_params(alpha=alpha)
    ys = np.array([0.0, 0.01, 0.03, 0.05, 0.2])
    for T in (0.5, 1.0, 2.0, 4.0):
        for theta in _stehfest_abscissae(T, 14):
            mc = _MCache(theta, p)
            m_ref, curve = _m_ivp(theta, p, ys)
            np.testing.assert_allclose(mc.value(ys), m_ref, rtol=2e-11,
                                       atol=0.0)
            for got, want, bound in ((mc.v_u, curve(mc.u), 40.0),
                                     (mc.iv_u, curve.integral(mc.u), 60.0)):
                assert np.all(np.abs(got - want)
                              <= bound * (1e-12 + 1e-10 * np.abs(want)))


def test_put_fixture_keeps_bits_after_long_bond(bond_params):
    # a 30-year bond steps the (0, 1) flow first; the put's M curves then
    # read a prefix of its steps
    p = bond_params(alpha=1.5)
    affine._flow.cache_clear()
    derivatives._cached_m.cache_clear()
    bond_price(0.0, 30.0, p.r0, p)
    assert put_price(1.0, KAPPA, STRIKE, p) == FIXTURE_PUT


def test_cut_bits_do_not_depend_on_earlier_cuts(bond_params):
    # the flow is one run from t = 0 whatever horizon is asked first, so a
    # cut gives the same bits after any other cuts: horizons in ascending
    # and in descending order on fresh flows, and the fixture put and a
    # 30-year bond in either order
    p = bond_params(alpha=1.5)
    horizons = (1e-5, 0.01, 0.7, 1.0, 5.0, 33.3)
    reads = []
    for order in (horizons, horizons[::-1]):
        affine._flow.cache_clear()
        cuts = {H: solve_v(0.0, 1.0, H, p) for H in order}
        reads.append([(cuts[H].grid, cuts[H](np.linspace(0.0, H, 101)),
                       cuts[H].integral(np.linspace(0.0, H, 101)))
                      for H in horizons])
    for up, down in zip(*reads):
        assert all(np.array_equal(a, b) for a, b in zip(up, down))
    results = []
    for bond_first in (False, True):
        affine._flow.cache_clear()
        derivatives._cached_m.cache_clear()
        derivatives._cached_h.cache_clear()
        bond = bond_price(0.0, 30.0, p.r0, p) if bond_first else None
        put = put_price(1.0, KAPPA, STRIKE, p)
        if not bond_first:
            bond = bond_price(0.0, 30.0, p.r0, p)
        results.append((put, bond))
    assert results[0] == results[1] and results[0][0] == FIXTURE_PUT


def test_caches_key_on_the_params_without_r0(bond_params):
    # v, H and M do not depend on r0: two initial rates share one Riccati
    # flow, one H cache and one M cache, and give the same bits
    caches = (affine._flow, derivatives._cached_h, derivatives._cached_m)
    for cache in caches:
        cache.cache_clear()
    m = [bond_transform_M(1.0, 0.02, bond_params(r0=r0)) for r0 in (0.05, 0.06)]
    h = [_h_values(1.0, bond_params(r0=r0), None, 0.02) for r0 in (0.05, 0.06)]
    assert m[0] == m[1] and h[0] == h[1]
    assert [cache.cache_info().misses for cache in caches] == [1, 1, 1]


def test_put_price_raises_on_unstable_inversion(bond_params):
    # 4 terms leave a gap of 12.7 % to the 2-term sum; 6 terms (4.0 %) price
    p = bond_params(alpha=1.5)
    with pytest.raises(RuntimeError, match=r"n=4 gives 0\.0109.*n=2 gives 0\.0123"):
        put_price(1.0, KAPPA, 0.04, p, n_terms=4)
    price, diag = put_price(1.0, KAPPA, 0.04, p, n_terms=6,
                            with_diagnostics=True)
    assert 0.03 < diag["stability_gap"] / price < 0.05


@pytest.mark.parametrize("n_terms, raw", [(14, -1.0e-41), (8, -2.1e-40)])
def test_put_clips_negative_rounding_price_to_zero(bond_params, n_terms, raw):
    # struck a hair above K0 = ab int_0^1 v, Kbar is 1.6e-11: both Stehfest
    # sums are rounding noise, below 0 and within 5 % of the 1e-12 floor of
    # each other, and the price is the clip's 0.0
    p = bond_params(alpha=1.5)
    k0 = 0.013796530995395965
    assert p.a * p.b * solve_v(0.0, 1.0, KAPPA, p).integral(KAPPA) == k0
    strike = k0 * (1.0 + 1e-9)
    thetas = _stehfest_abscissae(1.0, n_terms)
    values = dict(zip(thetas, put_laplace(thetas, KAPPA, strike, p).tolist()))
    assert gaver_stehfest(values.__getitem__, 1.0, n_terms) == pytest.approx(
        raw, rel=0.05, abs=0.0)
    price, diag = put_price(1.0, KAPPA, strike, p, n_terms=n_terms,
                            with_diagnostics=True)
    assert price == 0.0 and not diag["void"] and diag["kappa_inv"] is None
    assert 0.0 < diag["stability_gap"] < 1e-38


def _put_nodes(k_bar, r0):
    """The strike nodes where put_laplace evaluates H: r0, then the Gauss
    nodes of [0, k_bar] below r0."""
    ys = 0.5 * k_bar * (np.polynomial.legendre.leggauss(64)[0] + 1.0)
    return [r0] + ys[ys < r0].tolist()


@pytest.mark.parametrize("alpha, thetas, strike, extra", [
    (1.5, _stehfest_abscissae(1.0, 14), STRIKE, [0.0]),
    (1.2, [0.5, 3.0, 40.0, 80.0], 0.04, []),
], ids=["fixture", "outrun"])
def test_h_stack_equals_per_theta_oracle(bond_params, alpha, thetas, strike,
                                         extra):
    # every H the put takes (at r0 and the nodes below it), node by node for
    # all thetas at once, equals the one-(theta, x) quadrature bit for bit,
    # and so does H at x = 0 (where it overflows for theta >= 40 at
    # alpha = 1.2, so that case leaves it out).  At alpha = 1.2, theta = 40
    # and 80 outrun the shared tail grid at most nodes; the rows that outrun
    # a node share its longer grids, so a node builds as many grids as its
    # longest theta
    p = bond_params(alpha=alpha)
    hcs = [_cached_h(th, _without_r0(p), None) for th in thetas]
    stack = _HStack(hcs)
    nodes = _put_nodes(effective_strike(KAPPA, strike, p)[0], p.r0) + extra
    grids = own = 0
    for x in nodes:
        want, counts = zip(*(h_value(hc, x) for hc in hcs))
        assert stack(x).tolist() == list(want)
        grids += max(counts)
        own += 1 + sum(c - 1 for c in counts)
    assert stack.grids == grids
    if alpha == 1.5:
        assert grids == own == 65 + 1   # the put's 65 nodes, and x = 0
    else:
        # the shared grid of each node plus the longer grids of each theta
        # that outruns it, one set per theta, would be more
        assert len(nodes) < grids < own


def test_one_theta_h_equals_oracle(bond_params):
    p = bond_params(alpha=1.5)
    hc = _cached_h(1.0, _without_r0(p), None)
    assert _h_values(1.0, p, None, 0.02, 0.0) \
        == [h_value(hc, 0.02)[0], h_value(hc, 0.0)[0]]
    assert hitting_time_laplace(p.r0, 0.02, 1.0, p) \
        == h_value(hc, p.r0)[0] / h_value(hc, 0.02)[0]


def test_panel_psi_is_paid_once_per_theta(bond_params, monkeypatch):
    # a cold fixture put_laplace calls Psi twice per theta for the R spline
    # (once on its grid, once for Psi''(q1)), once per theta for the
    # singular panel and once per tail grid: 107 calls, where a panel per
    # (theta, x) and three scalar calls for Psi''(q1) took 1031
    p = bond_params(alpha=1.5)
    derivatives._cached_h.cache_clear()
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return psi(*args, **kwargs)

    monkeypatch.setattr(derivatives, "psi", counted)
    thetas = _stehfest_abscissae(1.0, 14)
    put_laplace(thetas, KAPPA, STRIKE, p)
    assert len(calls) == 14 * 3 + 65


def _strike_at_r0(p):
    """The strike K whose effective strike is r0 (Kbar is affine in K)."""
    k_bar0, nominal = effective_strike(KAPPA, 0.0, p)
    return (p.r0 - k_bar0) * nominal


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_put_slope_above_r0_is_the_bond(bond_params, alpha):
    # once Kbar >= r0 every path has min r <= r0 <= Kbar, so the price is
    # nominal (Kbar B(0,T) - E[D min r]) and its slope in K is B(0,T);
    # measured within 1.4e-7 at 14 terms (the transform that read M at y
    # instead of r0 above r0 gave slopes 0.5-1 % low)
    p = bond_params(alpha=alpha)
    k1 = _strike_at_r0(p) + 0.002
    k2 = k1 + 0.005
    assert effective_strike(KAPPA, k1, p)[0] > p.r0
    slope = (put_price(1.0, KAPPA, k2, p)
             - put_price(1.0, KAPPA, k1, p)) / (k2 - k1)
    assert slope == pytest.approx(bond_price(0.0, 1.0, p.r0, p), rel=1e-6,
                                  abs=0.0)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_put_convex_in_strike_across_r0(bond_params, alpha):
    # a ladder of step 0.002 whose Kbar crosses r0: the second differences
    # are >= -9.2e-11 here (Stehfest noise where the price is linear), and
    # were -3.2e-6 to -4.6e-6 above r0 when the transform read M at y
    p = bond_params(alpha=alpha)
    ladder = round(_strike_at_r0(p), 3) + np.arange(-0.006, 0.0161, 0.002)
    k_bars = [effective_strike(KAPPA, k, p)[0] for k in ladder]
    assert k_bars[0] < p.r0 < k_bars[-1]
    prices = [put_price(1.0, KAPPA, float(k), p) for k in ladder]
    assert np.all(np.diff(prices, 2) >= -1e-9)


@pytest.mark.parametrize("alpha", [1.2, 1.5, 1.8])
def test_put_at_zero_rate_is_strike_times_bond(bond_params, alpha):
    # from r0 = 0 the minimum is 0 on every path, so the price is
    # nominal Kbar B(0,T); the 14-term inversion meets it within 8.6e-8
    p = bond_params(alpha=alpha, r0=0.0)
    k_bar, nominal = effective_strike(KAPPA, 0.04, p)
    assert put_price(1.0, KAPPA, 0.04, p) == pytest.approx(
        nominal * k_bar * bond_price(0.0, 1.0, 0.0, p), rel=1e-7)
