"""Path generation for the jump-extended square-root rate model.

Three engines:

* root Euler: discretizes dr = a(b-r)dt + sigma sqrt(r) dB + sigma_z r^(1/alpha) dZ
  with full truncation (coefficients at r+, then clamp at 0);
* thinned: evolves the truncated dynamics (drift a_tilde(b_tilde - r)) with an
  Asmussen-Rosinski small-jump approximation and superposes the big jumps
  (mark > y) by thinning against a per-step intensity bound; big jumps are
  recorded as events.  The locally equivalent Levy-OU (LOU) benchmark is
  the same step with its volatility and jump coefficients frozen at r0 and
  no clamp (Vasicek-type);
* Hawkes: exact event-driven simulation of the exponential-kernel
  self-exciting intensity whose rescaling converges to the diffusion limit.

Batch functions return arrays over paths and drive everything from one
Generator; the single-path wrappers return Path objects for the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .mechanism import ModelParams, truncated_drift
from .stable import (
    StableSpec,
    big_jump_mass,
    big_jump_mean,
    levy_density_coefficient,
    sample_pareto_tail,
    sample_stable_increment,
    sample_truncated_band,
    truncated_second_moment,
    _check_alpha,
)

ROOT_EULER = "root_euler"
THINNED = "thinned"


@dataclass
class SimConfig:
    """Discretization and scheme choice.

    dt: step in years; horizon: total length; scheme: root_euler | thinned;
    y: mark-space truncation threshold for the thinned scheme (rate-space
    recording threshold is sigma_z * y); seed feeds a PCG64 stream.
    """

    dt: float = 1e-3
    horizon: float = 1.0
    scheme: str = ROOT_EULER
    y: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0.0 or self.horizon < self.dt:
            raise ValueError("need dt > 0 and horizon >= dt")
        if self.scheme not in (ROOT_EULER, THINNED):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.scheme == THINNED and (self.y is None or self.y <= 0.0):
            raise ValueError("thinned scheme needs y > 0")

    def to_json(self) -> dict:
        return {"dt": self.dt, "horizon": self.horizon, "scheme": self.scheme,
                "y": self.y, "seed": self.seed}


@dataclass
class Path:
    """One trajectory on a uniform grid plus recorded large-jump events."""

    times: np.ndarray
    values: np.ndarray
    events: list = field(default_factory=list)   # (time, size in rate units)

    def to_csv(self, path) -> None:
        arr = np.column_stack([self.times, self.values])
        np.savetxt(path, arr, delimiter=",", header="t,r", comments="")

    def events_to_csv(self, path) -> None:
        arr = np.array(self.events, dtype=float).reshape(-1, 2)
        np.savetxt(path, arr, delimiter=",", header="t,size", comments="")


def first_large_jump(path: Path) -> Optional[float]:
    """Earliest recorded event time, or None when no event occurred."""
    if not path.events:
        return None
    return min(t for t, _ in path.events)


def _grid(dt: float, horizon: float):
    n_steps = int(round(horizon / dt))
    return n_steps, dt * np.arange(n_steps + 1)


def simulate_root_batch(params: ModelParams, dt: float, horizon: float,
                        n_paths: int, rng: np.random.Generator,
                        antithetic: bool = False,
                        keep_paths: bool = False,
                        running_min: bool = False):
    """Full-truncation Euler for the root representation.

    Returns (r_T, integral[, run_min][, paths, times]): terminal values, the
    trapezoid integral of r over [0, horizon], with running_min=True the
    minimum of r over the grid (r0 included), and with keep_paths=True the
    full (n_paths, n_steps+1) array.

    With antithetic=True the Gaussian driver of the second half of the batch
    mirrors the first half (n_paths must be even); the stable increments are
    drawn independently, only the Brownian component is paired.
    """
    n_steps, times = _grid(dt, horizon)
    if antithetic and n_paths % 2:
        raise ValueError("antithetic batches need an even n_paths")
    spec = StableSpec(params.alpha)
    r = np.full(n_paths, params.r0)
    integral = np.zeros(n_paths)
    run_min = r.copy() if running_min else None
    out = np.empty((n_paths, n_steps + 1)) if keep_paths else None
    if keep_paths:
        out[:, 0] = r
    sqrt_dt = np.sqrt(dt)
    half = n_paths // 2
    for k in range(n_steps):
        rp = np.maximum(r, 0.0)
        if antithetic:
            g = rng.standard_normal(half)
            gauss = np.concatenate([g, -g])
        else:
            gauss = rng.standard_normal(n_paths)
        dz = sample_stable_increment(spec, dt, rng, size=n_paths)
        r_new = (r + params.a * (params.b - rp) * dt
                 + params.sigma * np.sqrt(rp) * sqrt_dt * gauss)
        if params.sigma_z > 0.0:       # at alpha = 2, ** 0.5 is NumPy's sqrt
            r_new += params.sigma_z * rp ** (1.0 / params.alpha) * dz
        r_new = np.maximum(r_new, 0.0)
        integral += 0.5 * dt * (np.maximum(r, 0.0) + r_new)
        r = r_new
        if running_min:
            np.minimum(run_min, r, out=run_min)
        if keep_paths:
            out[:, k + 1] = r
    res = (r, integral)
    if running_min:
        res += (run_min,)
    if keep_paths:
        res += (out, times)
    return res


class _ThinnedStep:
    """The one step kernel of the thinned scheme at threshold y and step dt.

    Truncated dynamics with the small jumps (< eps) as extra Gaussian
    variance, the mid-band jumps (eps, y) as a compensated compound Poisson
    draw, and the big jumps (> y) as a Poisson draw at the start-of-step
    intensity; two big arrivals in one step are an O(dt^2) event, collapsed
    to one.  The constants are fixed at construction.

    Every coefficient is taken at the clamped start value r+ (the big-jump
    compensator sits in the truncated drift a_tilde) and the end value is
    clamped at 0.  With frozen=True it is the LOU step: the mean reversion
    a(b - r) acts on the unclamped r, the Gaussian variance, both
    compensators and both Poisson intensities are taken at r0, and nothing
    is clamped.
    """

    def __init__(self, params: ModelParams, y: float, dt: float,
                 frozen: bool = False):
        alpha, sz = params.alpha, params.sigma_z
        _check_alpha(alpha, allow_two=False)
        if not frozen and sz <= 0.0:
            raise ValueError("thinned scheme needs sigma_z > 0")
        eps = y / 100.0                   # small-jump cutoff (variance-matched below)
        nu_big = big_jump_mass(alpha, y)
        nu_mid = big_jump_mass(alpha, eps) - nu_big
        mean_mid = (levy_density_coefficient(alpha)
                    * (eps ** (1.0 - alpha) - y ** (1.0 - alpha)) / (alpha - 1.0))
        self.dt, self.y, self.sz, self.eps, self.alpha = dt, y, sz, eps, alpha
        self.ab = params.a * params.b
        self.s2 = params.sigma ** 2
        self.v_small = sz ** 2 * truncated_second_moment(alpha, eps)
        self.nu_mid_dt = nu_mid * dt
        self.nu_big_dt = nu_big * dt
        self.frozen, self.r0 = frozen, params.r0
        if frozen:
            self.a_r = params.a
            self.comp = sz * (mean_mid + big_jump_mean(alpha, y))
        else:
            self.a_r = truncated_drift(params, y)
            self.comp = sz * mean_mid          # mid-band compensator

    def __call__(self, r: np.ndarray, t0: float, rng: np.random.Generator):
        """Advance the paths r by one step from time t0.

        Returns (rp, r_new, idx, t_ev, sizes): the clamped start values
        (unclamped when frozen), the end values, the positions in r of the
        paths with a big jump in the step, and those jumps' times in
        [t0, t0 + dt) and rate-space sizes.
        """
        n, dt = r.size, self.dt
        frozen = self.frozen
        rp = r if frozen else np.maximum(r, 0.0)
        # a frozen rate is one scalar, the fast path of Generator.poisson
        rc, size = (self.r0, n) if frozen else (rp, None)
        drift = self.ab - self.a_r * rp - self.comp * rc
        gauss_var = self.s2 * rc + self.v_small * rc
        incr = drift * dt + np.sqrt(gauss_var * dt) * rng.standard_normal(n)
        counts = rng.poisson(rc * self.nu_mid_dt, size=size)
        tot = int(counts.sum())
        if tot:
            marks = sample_truncated_band(self.alpha, self.eps, self.y, rng,
                                          size=tot)
            owners = np.repeat(np.arange(n), counts)
            incr += self.sz * np.bincount(owners, weights=marks, minlength=n)
        idx = np.flatnonzero(rng.poisson(rc * self.nu_big_dt, size=size))
        sizes = t_ev = idx                         # empty unless a path jumps
        if idx.size:
            sizes = self.sz * sample_pareto_tail(self.alpha, self.y, rng,
                                                 size=idx.size)
            incr[idx] += sizes
            t_ev = t0 + dt * rng.uniform(size=idx.size)
        r_new = r + incr
        return rp, r_new if frozen else np.maximum(r_new, 0.0), idx, t_ev, sizes


def simulate_thinned_batch(params: ModelParams, y: float, dt: float,
                           horizon: float, n_paths: int,
                           rng: np.random.Generator,
                           keep_paths: bool = False,
                           events: Optional[list] = None):
    """Truncated dynamics plus thinned big jumps.

    Returns (r_T, integral, first_event_time, n_events[, paths, times]).
    first_event_time is +inf for paths without a big jump.  When events is
    a list, every big jump is appended to it as (path, time, size) with the
    time and rate-space size the kernel drew.
    """
    step = _ThinnedStep(params, y, dt)
    n_steps, times = _grid(dt, horizon)
    r = np.full(n_paths, params.r0)
    integral = np.zeros(n_paths)
    first_event = np.full(n_paths, np.inf)
    n_events = np.zeros(n_paths, dtype=np.int64)
    out = np.empty((n_paths, n_steps + 1)) if keep_paths else None
    if keep_paths:
        out[:, 0] = r
    half_dt = 0.5 * dt
    for k in range(n_steps):
        rp, r, idx, t_ev, sizes = step(r, times[k], rng)
        if idx.size:
            newly = first_event[idx] == np.inf
            first_event[idx[newly]] = t_ev[newly]
            n_events[idx] += 1
            if events is not None:
                events.extend(zip(idx.tolist(), t_ev.tolist(), sizes.tolist()))
        integral += half_dt * (rp + r)
        if keep_paths:
            out[:, k + 1] = r
    if keep_paths:
        return r, integral, first_event, n_events, out, times
    return r, integral, first_event, n_events


@dataclass
class FirstPassage:
    """A thinned batch run until each path's first big jump.

    first holds the first-event time of every path (+inf while it has none);
    active and r are the indices and current values of the paths still
    waiting; steps is the number of grid steps taken.
    """

    first: np.ndarray
    active: np.ndarray
    r: np.ndarray
    steps: int = 0

    @property
    def censored(self) -> float:
        """Fraction of paths without an event so far."""
        return self.active.size / self.first.size


def first_passage_thinned(params: ModelParams, y: float, dt: float,
                          horizon: float, n_paths: int,
                          rng: np.random.Generator,
                          state: Optional[FirstPassage] = None) -> FirstPassage:
    """First big-jump times of n_paths thinned paths up to horizon.

    Only the paths without an event are evolved; a path leaves the active
    set at its first big jump and the loop ends once none is left.  Passing
    the returned state back with a longer horizon (and the same params, y,
    dt and rng) continues the batch from its last step, with the same
    draws as one run to the longer horizon.
    """
    step = _ThinnedStep(params, y, dt)
    if state is None:
        state = FirstPassage(np.full(n_paths, np.inf), np.arange(n_paths),
                             np.full(n_paths, params.r0))
    elif state.first.size != n_paths:
        raise ValueError("state holds a different number of paths")
    n_steps = int(round(horizon / dt))
    active, r = state.active, state.r
    for k in range(state.steps, n_steps):
        if not active.size:
            break
        _, r, idx, t_ev, _ = step(r, k * dt, rng)
        if idx.size:
            state.first[active[idx]] = t_ev
            stay = np.ones(active.size, dtype=bool)
            stay[idx] = False
            active, r = active[stay], r[stay]
    state.active, state.r = active, r
    state.steps = max(state.steps, n_steps)
    return state


def simulate_lou_batch(params: ModelParams, y: float, dt: float, horizon: float,
                       n_paths: int, rng: np.random.Generator,
                       keep_paths: bool = False,
                       events: Optional[list] = None):
    """Locally equivalent Levy-OU: the thinned step at mark threshold y with
    its coefficients frozen at r0 and no positivity clamp.

    Returns (lambda_T, first_event_time[, paths, times]).  When events is a
    list, every big jump is appended to it as (path, time, size), as in
    simulate_thinned_batch.
    """
    step = _ThinnedStep(params, y, dt, frozen=True)
    n_steps, times = _grid(dt, horizon)
    lam = np.full(n_paths, params.r0)
    first_event = np.full(n_paths, np.inf)
    out = np.empty((n_paths, n_steps + 1)) if keep_paths else None
    if keep_paths:
        out[:, 0] = lam
    for k in range(n_steps):
        _, lam, idx, t_ev, sizes = step(lam, times[k], rng)
        if idx.size:
            newly = first_event[idx] == np.inf
            first_event[idx[newly]] = t_ev[newly]
            if events is not None:
                events.extend(zip(idx.tolist(), t_ev.tolist(), sizes.tolist()))
        if keep_paths:
            out[:, k + 1] = lam
    if keep_paths:
        return lam, first_event, out, times
    return lam, first_event


def simulate_hawkes_batch(a: float, b: float, sigma_z: float, horizon: float,
                          n: int, n_paths: int, rng: np.random.Generator,
                          max_rounds: int = 2_000_000):
    """Exact Ogata simulation of the exponential-kernel self-exciting
    intensity with parameters (a/n, n*b, sigma_z), started from intensity 0,
    run to time n*horizon; returns the rescaled terminal values
    r^(n)_(n*horizon) / n (one per path).

    Between events the intensity relaxes toward c = a*b/kappa with rate
    kappa = a/n + sigma_z; each event adds sigma_z.  The proposal bound per
    path is max(current intensity, c), valid because the intensity is
    monotone toward c between events.
    """
    if n < 1:
        raise ValueError("rescaling index n must be >= 1")
    kappa = a / n + sigma_z
    c = a * b / kappa           # background asymptote: (a/n)*(n*b)/kappa
    t_end = n * horizon
    t = np.zeros(n_paths)
    lam = np.zeros(n_paths)
    active = np.arange(n_paths)
    rounds = 0
    while active.size:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError("event overflow guard tripped in Hawkes simulation")
        bound = np.maximum(lam[active], c)
        w = rng.exponential(1.0, size=active.size) / bound
        t_prop = t[active] + w
        decay = np.exp(-kappa * w)
        lam_prop = c + (lam[active] - c) * decay
        done = t_prop >= t_end
        if np.any(done):
            idx = active[done]
            lam[idx] = c + (lam[idx] - c) * np.exp(-kappa * (t_end - t[idx]))
            t[idx] = t_end
        cont = ~done
        idx = active[cont]
        t[idx] = t_prop[cont]
        lam[idx] = lam_prop[cont]
        accept = rng.uniform(size=idx.size) < lam_prop[cont] / bound[cont]
        lam[idx[accept]] += sigma_z
        active = active[cont]
    return lam / n


def simulate_root(params: ModelParams, config: SimConfig,
                  rng: Optional[np.random.Generator] = None) -> Path:
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    _, _, out, times = simulate_root_batch(params, config.dt, config.horizon,
                                           1, rng, keep_paths=True)
    return Path(times=times, values=out[0])


def simulate_thinned(params: ModelParams, config: SimConfig,
                     rng: Optional[np.random.Generator] = None) -> Path:
    if config.scheme != THINNED:
        raise ValueError("config.scheme must be 'thinned'")
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    log = []
    _, _, _, _, out, times = simulate_thinned_batch(
        params, config.y, config.dt, config.horizon, 1, rng, keep_paths=True,
        events=log)
    return Path(times=times, values=out[0],
                events=[(t, size) for _, t, size in log])


def simulate_lou(params: ModelParams, config: SimConfig,
                 rng: Optional[np.random.Generator] = None) -> Path:
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    y = config.y if config.y is not None else 1.0
    log = []
    _, _, out, times = simulate_lou_batch(
        params, y, config.dt, config.horizon, 1, rng, keep_paths=True,
        events=log)
    return Path(times=times, values=out[0],
                events=[(t, size) for _, t, size in log])


def simulate_hawkes(a: float, b: float, sigma_z: float, horizon: float,
                    n: int, rng: Optional[np.random.Generator] = None,
                    seed: int = 0, grid_points: int = 201) -> Path:
    """Single rescaled Hawkes intensity path sampled on a uniform grid of
    t in [0, horizon] (grid evaluation is exact between events)."""
    rng = rng if rng is not None else np.random.default_rng(seed)
    kappa = a / n + sigma_z
    c = a * b / kappa
    t_end = n * horizon
    times = np.linspace(0.0, t_end, grid_points)
    values = np.empty(grid_points)
    t_cur, lam = 0.0, 0.0
    gi = 0
    while gi < grid_points:
        bound = max(lam, c)
        w = rng.exponential(1.0) / bound
        t_next = t_cur + w
        while gi < grid_points and times[gi] <= t_next:
            values[gi] = c + (lam - c) * np.exp(-kappa * (times[gi] - t_cur))
            gi += 1
        if t_next >= t_end:
            break
        lam_next = c + (lam - c) * np.exp(-kappa * w)
        t_cur, lam = t_next, lam_next
        if rng.uniform() < lam_next / bound:
            lam += sigma_z
    return Path(times=times / n, values=values / n)
