"""Monte Carlo estimators with standard errors for the analytic quantities:
bond prices, Laplace functionals, jump-counter transforms, survival curves,
expected first-jump times, running-minimum put payoffs, stationary transforms.

Conventions: integrated rate by trapezoid on the simulation grid; SE is the
sample standard deviation over paths divided by sqrt(n); antithetic pairing
is applied to the Gaussian driver only (stable increments are left alone).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .affine import solve_v, yield_from_curve
from .jumps import _mark_threshold
from .mechanism import ModelParams
from .sim import (
    first_passage_thinned,
    simulate_lou_batch,
    simulate_root_batch,
    simulate_thinned_batch,
)


@dataclass
class McEstimate:
    value: float
    std_error: float
    n_paths: int
    estimator: str

    def within(self, target: float, n_se: float = 3.0) -> bool:
        return abs(self.value - target) <= n_se * max(self.std_error, 1e-300)

    def to_json(self) -> dict:
        return {"value": self.value, "std_error": self.std_error,
                "n_paths": self.n_paths, "estimator": self.estimator}


def _mean_se(samples: np.ndarray, label: str) -> McEstimate:
    n = samples.size
    if n < 2:
        raise ValueError("a standard error needs at least two paths")
    return McEstimate(float(np.mean(samples)),
                      float(np.std(samples, ddof=1) / np.sqrt(n)), n, label)


def mc_bond(params: ModelParams, T: float, n_paths: int = 100_000,
            dt: float = 1e-3, seed: int = 0,
            antithetic: bool = True) -> McEstimate:
    """E[exp(-int_0^T r)] over root-scheme paths."""
    if n_paths < 100:
        raise ValueError("n_paths must be at least 100")
    rng = np.random.default_rng(seed)
    if antithetic and n_paths % 2:
        n_paths += 1
    _, integral = simulate_root_batch(params, dt, T, n_paths, rng,
                                      antithetic=antithetic)
    return _mean_se(np.exp(-integral), "mc_bond")


def mc_laplace(params: ModelParams, p: float, t: float,
               n_paths: int = 100_000, dt: float = 1e-3, seed: int = 0,
               scheme: str = "root", y: float = 1.0) -> McEstimate:
    """E[exp(-p r_t)] under the requested scheme."""
    rng = np.random.default_rng(seed)
    if scheme == "root":
        r, _ = simulate_root_batch(params, dt, t, n_paths, rng)
    elif scheme == "thinned":
        r, _, _, _ = simulate_thinned_batch(params, y, dt, t, n_paths, rng)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return _mean_se(np.exp(-p * r), f"mc_laplace[{scheme}]")


def mc_survival(params: ModelParams, y_bar: float, t_grid, n_paths: int = 100_000,
                dt: float = 2e-3, seed: int = 0):
    """Empirical P(tau_ybar > t) at each grid time from thinned paths;
    returns a list of McEstimate aligned with t_grid."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    y = _mark_threshold(params, y_bar)
    rng = np.random.default_rng(seed)
    first = first_passage_thinned(params, y, dt, float(t_grid.max()), n_paths,
                                  rng).first
    out = []
    for t in t_grid:
        ind = (first > t).astype(float)
        out.append(_mean_se(ind, f"mc_survival[t={t:g}]"))
    return out


def mc_counter(params: ModelParams, p: float, y_bar: float, t: float,
               n_paths: int = 100_000, dt: float = 2e-3, seed: int = 0) -> McEstimate:
    """Empirical E[exp(-p J_t)] for the big-jump counter."""
    y = _mark_threshold(params, y_bar)
    rng = np.random.default_rng(seed)
    _, _, _, n_ev = simulate_thinned_batch(params, y, dt, t, n_paths, rng)
    return _mean_se(np.exp(-p * n_ev), "mc_counter")


def mc_expected_tau(params: ModelParams, y_bar: float, n_paths: int = 10_000,
                    dt: float = 0.01, seed: int = 0,
                    horizon: float = 50.0, max_horizon: float = 6400.0) -> McEstimate:
    """Mean first-jump time.  While more than 1% of paths are censored the
    horizon is doubled and the same batch is continued from where it stopped
    (first-event times before a horizon do not depend on how far the batch
    runs later).  Paths still censored at max_horizon contribute the horizon
    (downward bias below the reported censoring fraction, warned about)."""
    y = _mark_threshold(params, y_bar)
    rng = np.random.default_rng(seed)
    state = first_passage_thinned(params, y, dt, horizon, n_paths, rng)
    while state.censored > 0.01 and horizon < max_horizon:
        horizon *= 2.0
        state = first_passage_thinned(params, y, dt, horizon, n_paths, rng, state)
    if state.censored > 0.01:
        warnings.warn(f"mc_expected_tau: {100 * state.censored:.1f}% of paths "
                      f"censored at horizon {horizon}")
    tau = np.where(np.isfinite(state.first), state.first, horizon)
    return _mean_se(tau, "mc_expected_tau")


def mc_stationary_laplace(params: ModelParams, p: float, t: float = 200.0,
                          n_paths: int = 10_000, dt: float = 0.01,
                          seed: int = 0) -> McEstimate:
    """E[exp(-p r_t)] at a large t as a stationary-law proxy (root scheme)."""
    rng = np.random.default_rng(seed)
    r, _ = simulate_root_batch(params, dt, t, n_paths, rng)
    return _mean_se(np.exp(-p * r), "mc_stationary_laplace")


def mc_lou_first_jump_cdf(params: ModelParams, y_bar: float, t_grid,
                          n_paths: int = 100_000, dt: float = 2e-3,
                          seed: int = 0):
    """Empirical CDF of the first big jump of the locally equivalent LOU."""
    t_grid = np.atleast_1d(np.asarray(t_grid, dtype=float))
    y = _mark_threshold(params, y_bar)
    rng = np.random.default_rng(seed)
    _, first = simulate_lou_batch(params, y, dt, float(t_grid.max()),
                                  n_paths, rng)
    out = []
    for t in t_grid:
        ind = (first <= t).astype(float)
        out.append(_mean_se(ind, f"mc_lou_cdf[t={t:g}]"))
    return out


def mc_running_min_put(params: ModelParams, T: float, kappa: float, K: float,
                       n_paths: int = 100_000, dt: float = 2e-4, seed: int = 0):
    """Price of the put on the running minimum of the tenor-kappa yield.

    Returns (yield_form, reduced_form): the direct payoff
    E[e^{-int r}(K - min yield)+] and the algebraically reduced payoff
    (v(kappa)/kappa) E[e^{-int r}(Kbar - min r)+] with
    Kbar = (kappa K - ab int_0^kappa v) / v(kappa).  Both use the same paths;
    the identity makes them equal path by path up to rounding.
    """
    rng = np.random.default_rng(seed)
    curve = solve_v(0.0, 1.0, kappa, params)
    v_k = curve(kappa)
    iv = curve.integral(kappa)
    k_bar = (kappa * K - params.a * params.b * iv) / v_k
    if k_bar <= 0.0:
        z = McEstimate(0.0, 0.0, n_paths, "mc_running_min_put[void]")
        return z, z
    _, integral, run_min = simulate_root_batch(params, dt, T, n_paths, rng,
                                               running_min=True)
    disc = np.exp(-integral)
    min_yield = yield_from_curve(curve, kappa, run_min)
    pay_yield = disc * np.maximum(K - min_yield, 0.0)
    pay_reduced = (v_k / kappa) * disc * np.maximum(k_bar - run_min, 0.0)
    return (_mean_se(pay_yield, "mc_running_min_put[yield]"),
            _mean_se(pay_reduced, "mc_running_min_put[reduced]"))
