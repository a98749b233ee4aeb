"""Path generation for the jump-extended square-root rate model.

Three engines:

* root Euler: discretizes dr = a(b-r)dt + sigma sqrt(r) dB + sigma_z r^(1/alpha) dZ
  with full truncation (coefficients at r+, then clamp at 0), the step
  kernel _RootStep;
* thinned: evolves the truncated dynamics (drift a_tilde(b_tilde - r)) with an
  Asmussen-Rosinski small-jump approximation and the mid-band jumps of all
  paths as one superposed Poisson draw.  The big jumps (mark > y) run on a
  compensator clock: a path jumps where its integrated big-jump intensity
  crosses an Exp(1) level, the Cox-time construction of the first large
  jump (Lando, Rev. Derivatives Res. 2, 1998), and every big jump is
  recorded as an event.  The locally equivalent Levy-OU (LOU) benchmark is
  the same step with its volatility and jump coefficients frozen at r0 and
  no clamp (Vasicek-type).  The step kernel is _ThinnedStep;
* Hawkes: exact event-driven simulation of the exponential-kernel
  self-exciting intensity whose rescaling converges to the diffusion limit.

Both step kernels read their per-step variates from flat streams (_Stream)
refilled _BLOCK at a time at the step that runs one dry, so every scheme
follows one draw-order rule: a batch run to a shorter horizon draws a
prefix of a longer one at the same seed.  The root, thinned and LOU batch
functions run their step kernel through one loop, _run, which keeps the
trapezoid integral, the first-event times and event log, the running
minimum and the kept paths.  First passage keeps its own loop because its
path set shrinks; it is one run to its horizon that stops once every path
has jumped.  Batch functions return arrays over paths and drive everything
from one Generator.  The single-path functions run the same step kernel
through _run at n = 1 without the integral, so a path draws exactly what
the batch function at n = 1 draws, and return Path objects for the CLI.
write_csv writes every CSV of the package in np.savetxt's format.
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
    _check_input,
)

_HAWKES_GRID_POINTS = 201       # grid of the single Hawkes path
_CSV_ROWS = 1024    # rows per % call of write_csv; 4 columns take about 0.3 MB


def write_csv(path, header: str, arr: np.ndarray) -> None:
    """Write the 2-D float array arr to path with one header line: the bytes
    of np.savetxt(path, arr, delimiter=",", header=header, comments=""),
    each row "%.18e" fields joined by "," and ended by "\n".  Rows are
    formatted _CSV_ROWS at a time, one % of the repeated row template per
    block."""
    line = ",".join(["%.18e"] * arr.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(0, len(arr), _CSV_ROWS):
            block = arr[i:i + _CSV_ROWS]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


@dataclass
class SimConfig:
    """Discretization of one path.

    dt: step in years; horizon: total length; y: mark-space truncation
    threshold of the thinned and LOU schemes (rate-space recording
    threshold is sigma_z * y); seed feeds a PCG64 stream.
    """

    dt: float = 1e-3
    horizon: float = 1.0
    y: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        _check_input("dt", self.dt, "positive")
        if not self.horizon >= self.dt:
            raise ValueError(f"need horizon >= dt, got horizon {self.horizon}")


@dataclass
class Path:
    """One trajectory on a uniform grid plus recorded large-jump events."""

    times: np.ndarray
    values: np.ndarray
    events: list = field(default_factory=list)   # (time, size in rate units)

    def to_csv(self, path) -> None:
        write_csv(path, "t,r", np.column_stack([self.times, self.values]))

    def events_to_csv(self, path) -> None:
        write_csv(path, "t,size",
                  np.array(self.events, dtype=float).reshape(-1, 2))


def first_large_jump(path: Path) -> Optional[float]:
    """Earliest recorded event time, or None when no event occurred."""
    if not path.events:
        return None
    return min(t for t, _ in path.events)


def _grid(dt: float, horizon: float):
    """Step count and time grid of [0, horizon] at step dt; a step count
    past _MAX_STEPS (or not finite) is rejected before anything is
    allocated."""
    if not (dt > 0.0 and horizon >= 0.0 and horizon / dt <= _MAX_STEPS):
        raise ValueError(f"need dt > 0, horizon >= 0 and a step count "
                         f"horizon / dt of at most {_MAX_STEPS}")
    n_steps = int(round(horizon / dt))
    return n_steps, dt * np.arange(n_steps + 1)


_NO_EVENTS = np.empty(0, dtype=np.intp)
_BLOCK = 2 ** 14       # variates drawn per stream refill, at least
# mid-band jumps a thinned step may expect over all its paths: each takes a
# key, a mark and a few temporaries, about 0.45 GB at this bound
_MID_BAND_MAX = 2 ** 23
# steps of one grid: its time points alone take 0.5 GB at this bound, 100x
# the 640 000 steps of mc_expected_tau's default run
_MAX_STEPS = 2 ** 26
# proposal rounds of a Hawkes run: a batch round proposes one event for each
# path still short of n * horizon, a single path one event
_HAWKES_MAX_ROUNDS = 2_000_000


class _Stream:
    """Variates handed out in order from a flat buffer that draw(rng, size)
    refills when a request runs past its end: the rest of the buffer is kept
    and max(_BLOCK, k) fresh variates are appended."""

    __slots__ = ("draw", "buf", "pos")

    def __init__(self, draw):
        self.draw, self.buf, self.pos = draw, np.empty(0), 0

    def take(self, k: int, rng: np.random.Generator) -> np.ndarray:
        end = self.pos + k
        if end > self.buf.size:
            self.buf = np.concatenate([self.buf[self.pos:],
                                       self.draw(rng, max(_BLOCK, k))])
            self.pos, end = 0, k
        out = self.buf[self.pos:end]
        self.pos = end
        return out


class _RootStep:
    """The one step kernel of the root scheme: full-truncation Euler at step
    dt, with the call shape of _ThinnedStep and no events.

    The drift and both volatilities are taken at the start value r, which
    is >= 0 because r0 >= 0 and the end value is clamped at 0.

    Draw order: the standard normals and the stable increments come from
    two flat streams (_Stream), each refilled max(_BLOCK, k) at a time at
    the point of the step that runs it dry.  A step of n paths takes n
    normals, then n stable increments; with antithetic=True it takes
    n // 2 normals g and drives the paths with [g, -g], and the stable
    increments stay independent.  A batch run to a shorter horizon thus
    draws a prefix of a longer one, and a batch of at least _BLOCK paths
    (2 * _BLOCK antithetic) refills both streams at every step.
    """

    def __init__(self, params: ModelParams, dt: float, antithetic: bool):
        spec = StableSpec(params.alpha)
        self.params, self.dt, self.antithetic = params, dt, antithetic
        self.sqrt_dt = np.sqrt(dt)
        self.normals = _Stream(lambda rng, k: rng.standard_normal(k))
        # the sampler is looked up at each refill, so a wrapper sees the draws
        self.dz = _Stream(lambda rng, k: sample_stable_increment(
            spec, dt, rng, size=k))

    def levels(self, n: int, rng: np.random.Generator) -> None:
        """The root scheme has no compensator clock and draws no levels."""
        return None

    def __call__(self, r: np.ndarray, gap, t0: float, rng: np.random.Generator):
        """Advance the paths r by one step; gap and t0 are not used.  Returns
        (r_new, idx, t_ev, sizes) as _ThinnedStep does, the last three
        empty."""
        n = r.size
        if self.antithetic:
            g = self.normals.take(n // 2, rng)
            gauss = np.concatenate([g, -g])
        else:
            gauss = self.normals.take(n, rng)
        dz = self.dz.take(n, rng)
        p, dt = self.params, self.dt
        r_new = (r + p.a * (p.b - r) * dt
                 + p.sigma * np.sqrt(r) * self.sqrt_dt * gauss)
        if p.sigma_z > 0.0:       # at alpha = 2, ** 0.5 is NumPy's sqrt
            r_new += p.sigma_z * r ** (1.0 / p.alpha) * dz
        return np.maximum(r_new, 0.0), _NO_EVENTS, _NO_EVENTS, _NO_EVENTS


def _run(step, r0: float, horizon: float, n_paths: int,
         rng: np.random.Generator, integral: bool = True,
         running_min: bool = False, keep_paths: bool = False,
         events: Optional[list] = None):
    """The batch loop of every step kernel but first passage: n_paths paths
    from r0 over the grid of [0, horizon] at the step's dt, with the clock
    levels the step draws once the step count is checked.

    Returns (r_T, integral, run_min, first_event, n_events, kept): the
    trapezoid integral of the rate (None unless integral), the minimum over
    the grid with r0 (None unless running_min), the first big jump of each
    path (+inf without one), the count of big jumps, and (paths, times)
    with keep_paths=True, else ().  When events is a list, every big jump is
    appended to it as (path, time, size).
    """
    n_steps, times = _grid(step.dt, horizon)
    gap = step.levels(n_paths, rng)
    r = np.full(n_paths, r0)
    acc = np.zeros(n_paths) if integral else None
    run_min = r.copy() if running_min else None
    first_event = np.full(n_paths, np.inf)
    n_events = np.zeros(n_paths, dtype=np.int64)
    out = np.empty((n_paths, n_steps + 1)) if keep_paths else None
    if keep_paths:
        out[:, 0] = r
    half_dt = 0.5 * step.dt
    for k in range(n_steps):
        r_new, idx, t_ev, sizes = step(r, gap, times[k], rng)
        if idx.size:
            np.minimum.at(first_event, idx, t_ev)
            np.add.at(n_events, idx, 1)
            if events is not None:
                events.extend(zip(idx.tolist(), t_ev.tolist(), sizes.tolist()))
        if integral:
            acc += half_dt * (r + r_new)
        r = r_new
        if running_min:
            np.minimum(run_min, r, out=run_min)
        if keep_paths:
            out[:, k + 1] = r
    kept = (out, times) if keep_paths else ()
    return r, acc, run_min, first_event, n_events, kept


def simulate_root_batch(params: ModelParams, dt: float, horizon: float,
                        n_paths: int, rng: np.random.Generator,
                        antithetic: bool = False,
                        running_min: bool = False):
    """Full-truncation Euler for the root representation (see _RootStep).

    Returns (r_T, integral[, run_min]): terminal values, the trapezoid
    integral of r over [0, horizon], and with running_min=True the minimum
    of r over the grid (r0 included).

    With antithetic=True the Gaussian driver of the second half of the batch
    mirrors the first half (n_paths must be even); the stable increments are
    drawn independently, only the Brownian component is paired.

    Draw order: each step takes its standard normals (n_paths // 2 when
    antithetic), then its n_paths stable increments, from streams refilled
    _BLOCK at a time (see _RootStep), so a run to a shorter horizon draws a
    prefix of a longer one at the same seed.
    """
    if antithetic and n_paths % 2:
        raise ValueError("antithetic batches need an even n_paths")
    r, integral, run_min, *_ = _run(
        _RootStep(params, dt, antithetic), params.r0, horizon, n_paths, rng,
        running_min=running_min)
    return (r, integral) + ((run_min,) if running_min else ())


class _ThinnedStep:
    """The one step kernel of the thinned scheme at threshold y and step dt.

    Truncated dynamics with the small jumps (< eps) as extra Gaussian
    variance, the mid-band jumps (eps, y) as a compensated compound Poisson
    draw and the big jumps (> y) on a compensator clock.  The constants are
    fixed at construction.

    Mid band: independent Poisson(lambda_i) counts over the paths are one
    Poisson(sum lambda_i) total whose jumps belong to path i with
    probability lambda_i / sum lambda, independently.  The owners come from
    sorted uniform keys, the normalised cumulative sums of tot + 1 standard
    exponentials (uniform order statistics; Devroye, Non-Uniform Random
    Variate Generation, 1986, ch. V), located in the cumulative intensities.

    Big jumps run on a clock in rate units: a path's clock is the sum of
    its start rates r+ (r0 when frozen) over the steps, so its integrated
    big-jump intensity is Lambda = nu_big * dt * clock, and its levels are
    E / (nu_big * dt) with E ~ Exp(1) (+inf when nu_big * dt is 0).  Each
    path carries gap, the distance from its clock to its next level, and a
    step runs gap down by r+; where it falls below 0 the path jumps at the
    matching fraction of the step, takes a Pareto mark and a fresh level is
    added to its gap, repeated while the gap is still negative, so every
    arrival in the step counts.

    A step that expects more than _MID_BAND_MAX mid-band jumps over all
    its paths raises RuntimeError before it draws them.

    Draw order: the normals, the mid band's Exp(1) keys and its marks come
    from three flat streams (_Stream), each refilled max(_BLOCK, k) at a
    time at the point of the step that runs it dry.  A step of n paths
    takes n normals (pre-scaled by sqrt(var * dt), by sqrt(var * dt * r0)
    when frozen), draws the mid-band total directly, takes tot + 1 keys and
    tot marks (pre-scaled by sigma_z), and draws the Exp(1) levels and
    Pareto marks of its big jumps directly.  A batch run to a shorter
    horizon thus draws a prefix of a longer one.

    Every coefficient is taken at the start value r, which is >= 0 because
    r0 >= 0 and the end value is clamped at 0, and the big-jump compensator
    sits in the truncated drift a_tilde.  With frozen=True it is the LOU
    step: the mean reversion a(b - r) acts on the unclamped r, the Gaussian
    variance, both compensators and both intensities are taken at r0, and
    nothing is clamped.
    """

    def __init__(self, params: ModelParams, y: float, dt: float,
                 frozen: bool = False):
        alpha, sz = params.alpha, params.sigma_z
        _check_alpha(alpha, allow_two=False)
        _check_input("mark threshold y", y, "positive")
        if not frozen and sz <= 0.0:
            raise ValueError("thinned scheme needs sigma_z > 0")
        eps = y / 100.0                   # small-jump cutoff (variance-matched below)
        nu_big = big_jump_mass(alpha, y)
        nu_mid = big_jump_mass(alpha, eps) - nu_big
        mean_mid = (levy_density_coefficient(alpha)
                    * (eps ** (1.0 - alpha) - y ** (1.0 - alpha)) / (alpha - 1.0))
        self.dt, self.y, self.sz, self.alpha = dt, y, sz, alpha
        var = params.sigma ** 2 + sz ** 2 * truncated_second_moment(alpha, eps)
        self.nu_mid_dt = nu_mid * dt
        nu_big_dt = nu_big * dt           # 0 for a vanishing dt or big-jump mass
        self.level = 1.0 / nu_big_dt if nu_big_dt > 0.0 else np.inf
        self.frozen, self.r0 = frozen, params.r0
        self.frozen_rates = None   # built once per path count: r0 is fixed
        scale = np.sqrt(var * dt * (params.r0 if frozen else 1.0))
        self.normals = _Stream(lambda rng, k: scale * rng.standard_normal(k))
        self.keys = _Stream(lambda rng, k: rng.standard_exponential(k))
        self.marks = _Stream(lambda rng, k: sz * sample_truncated_band(
            alpha, eps, y, rng, size=k))
        # the step is r -> r * k1 + c0 + noise
        ab = params.a * params.b
        if frozen:
            comp = sz * (mean_mid + big_jump_mean(alpha, y))
            self.c0, self.k1 = (ab - comp * params.r0) * dt, 1.0 - params.a * dt
        else:
            comp = sz * mean_mid               # mid-band compensator
            self.c0 = ab * dt
            self.k1 = 1.0 - (truncated_drift(params, y) + comp) * dt

    def levels(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Fresh gaps of n paths: Exp(1) levels in rate units."""
        return self.level * rng.standard_exponential(n)

    def __call__(self, r: np.ndarray, gap: np.ndarray, t0: float,
                 rng: np.random.Generator):
        """Advance the paths r by one step from time t0.

        gap holds each path's distance to its next level (see levels) and is
        run down in place.  Returns (r_new, idx, t_ev, sizes): the end
        values, the positions in r of the big jumps in the step (a path once
        per jump), and those jumps' times in [t0, t0 + dt) and rate-space
        sizes.
        """
        n = r.size
        x = r * self.k1
        x += self.c0
        if self.frozen:
            if self.frozen_rates is None or self.frozen_rates[0].size != n:
                rates = np.full(n, self.r0)
                self.frozen_rates = (rates.cumsum(), rates)
            cum, rates = self.frozen_rates
            x += self.normals.take(n, rng)
        else:
            cum, rates = r.cumsum(), r
            x += np.sqrt(r) * self.normals.take(n, rng)
        mean = cum[-1] * self.nu_mid_dt if n else 0.0
        if mean > _MID_BAND_MAX:
            raise RuntimeError(f"mid-band overflow guard tripped: {mean:.3g} "
                               "jumps expected in one thinned step")
        tot = rng.poisson(mean) if n else 0
        if tot:
            keys = self.keys.take(tot + 1, rng).cumsum()
            # the last path owns every key past the others' cumulative sum
            owners = cum[:-1].searchsorted(keys[:-1] * (cum[-1] / keys[-1]),
                                           side="right")
            x += np.bincount(owners, weights=self.marks.take(tot, rng),
                             minlength=n)
        gap -= rates
        idx = (gap < 0.0).nonzero()[0]
        sizes = t_ev = idx                         # empty unless a path jumps
        if idx.size:
            hits, fracs, new = [idx], [gap[idx] / rates[idx]], idx
            while new.size:
                gap[new] += self.levels(new.size, rng)
                new = new[gap[new] < 0.0]
                hits.append(new)
                fracs.append(gap[new] / rates[new])
            idx = np.concatenate(hits)
            t_ev = t0 + self.dt * (1.0 + np.concatenate(fracs))
            sizes = self.sz * sample_pareto_tail(self.alpha, self.y, rng,
                                                 size=idx.size)
            np.add.at(x, idx, sizes)
        if not self.frozen:
            np.maximum(x, 0.0, out=x)
        return x, idx, t_ev, sizes


def simulate_thinned_batch(params: ModelParams, y: float, dt: float,
                           horizon: float, n_paths: int,
                           rng: np.random.Generator):
    """Truncated dynamics with superposed mid-band jumps and big jumps on a
    compensator clock (see _ThinnedStep).

    Returns (r_T, integral, first_event_time, n_events).  first_event_time
    is +inf for paths without a big jump; n_events counts every big jump,
    two in one step included.
    """
    r, integral, _, first_event, n_events, _ = _run(
        _ThinnedStep(params, y, dt), params.r0, horizon, n_paths, rng)
    return r, integral, first_event, n_events


@dataclass
class FirstPassage:
    """A thinned batch run until each path's first big jump.

    first holds the first-event time of every path (+inf without one);
    active holds the indices of the paths without one.
    """

    first: np.ndarray
    active: np.ndarray

    @property
    def censored(self) -> float:
        """Fraction of paths without an event by the horizon."""
        return self.active.size / self.first.size


def first_passage_thinned(params: ModelParams, y: float, dt: float,
                          horizon: float, n_paths: int,
                          rng: np.random.Generator) -> FirstPassage:
    """First big-jump times of n_paths thinned paths up to horizon, in one
    run.

    Only the paths without an event are evolved; a path leaves the active
    set at the end of the step in which its compensator clock first crosses
    its level, and the loop ends once none is left.  The step draws in the
    thinned batch's order, so a run to a shorter horizon finds the same
    first-event times before it as a longer run.
    """
    n_steps, times = _grid(dt, horizon)
    step = _ThinnedStep(params, y, dt)
    first = np.full(n_paths, np.inf)
    active, r = np.arange(n_paths), np.full(n_paths, params.r0)
    gap = step.levels(n_paths, rng)
    for k in range(n_steps):
        if not active.size:
            break
        r, idx, t_ev, _ = step(r, gap, times[k], rng)
        if idx.size:
            np.minimum.at(first, active[idx], t_ev)
            stay = np.ones(active.size, dtype=bool)
            stay[idx] = False
            active, r, gap = active[stay], r[stay], gap[stay]
    return FirstPassage(first, active)


def simulate_lou_batch(params: ModelParams, y: float, dt: float, horizon: float,
                       n_paths: int, rng: np.random.Generator):
    """Locally equivalent Levy-OU: the thinned step at mark threshold y with
    its coefficients frozen at r0 and no positivity clamp, so its big jumps
    are a Poisson process of rate r0 * nu_big on the compensator clock.

    Returns (lambda_T, first_event_time).
    """
    lam, _, _, first_event, _, _ = _run(
        _ThinnedStep(params, y, dt, frozen=True), params.r0, horizon, n_paths,
        rng, integral=False)
    return lam, first_event


def _check_hawkes(a: float, b: float, sigma_z: float, horizon: float,
                  n: int) -> tuple[float, float, float]:
    """Inputs of the rescaled Hawkes intensity: a NaN or infinite horizon
    or rate would keep the event loop from ever reaching n * horizon.

    Returns (kappa, c, t_end) of the intensity with parameters (a/n, n*b,
    sigma_z): its relaxation rate kappa = a/n + sigma_z, its background
    asymptote c = a*b/kappa = (a/n)*(n*b)/kappa and its end time n*horizon.
    """
    if n < 1:
        raise ValueError("rescaling index n must be >= 1")
    for name, value in (("a", a), ("b", b), ("sigma_z", sigma_z)):
        _check_input(name, value, "finite")
    _check_input("horizon", horizon, "positive")
    kappa = a / n + sigma_z
    return kappa, a * b / kappa, n * horizon


def simulate_hawkes_batch(a: float, b: float, sigma_z: float, horizon: float,
                          n: int, n_paths: int, rng: np.random.Generator):
    """Exact Ogata simulation of the exponential-kernel self-exciting
    intensity with parameters (a/n, n*b, sigma_z), started from intensity 0,
    run to time n*horizon; returns the rescaled terminal values
    r^(n)_(n*horizon) / n (one per path).

    Between events the intensity relaxes toward c = a*b/kappa with rate
    kappa = a/n + sigma_z; each event adds sigma_z.  The proposal bound per
    path is max(current intensity, c), valid because the intensity is
    monotone toward c between events.  A batch that still has paths short
    of n*horizon after _HAWKES_MAX_ROUNDS proposal rounds raises
    RuntimeError.
    """
    kappa, c, t_end = _check_hawkes(a, b, sigma_z, horizon, n)
    t = np.zeros(n_paths)
    lam = np.zeros(n_paths)
    active = np.arange(n_paths)
    rounds = 0
    while active.size:
        rounds += 1
        if rounds > _HAWKES_MAX_ROUNDS:
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


def _path(step, r0: float, config: SimConfig) -> Path:
    """The body of the single-path functions: one path of the step kernel
    from r0 through _run, which keeps it and logs its big jumps but skips
    the integral.  It draws what the scheme's batch function draws at
    n_paths = 1 with np.random.default_rng(config.seed).  A path that
    leaves the floats raises RuntimeError at the first overflow or invalid
    value of any step, also one that a later step would mask."""
    log = []
    try:
        with np.errstate(over="raise", invalid="raise"):
            *_, (out, times) = _run(step, r0, config.horizon, 1,
                                    np.random.default_rng(config.seed),
                                    integral=False, keep_paths=True,
                                    events=log)
    except FloatingPointError as exc:
        raise RuntimeError(f"the path left the floats: {exc}") from None
    return Path(times=times, values=out[0],
                events=[(t, size) for _, t, size in log])


def simulate_root(params: ModelParams, config: SimConfig) -> Path:
    return _path(_RootStep(params, config.dt, False), params.r0, config)


def _threshold(config: SimConfig) -> float:
    """The mark threshold of a thinned or LOU path, which has no default."""
    if config.y is None:
        raise ValueError("the thinned and LOU schemes need a mark threshold y")
    return config.y


def simulate_thinned(params: ModelParams, config: SimConfig) -> Path:
    step = _ThinnedStep(params, _threshold(config), config.dt)
    return _path(step, params.r0, config)


def simulate_lou(params: ModelParams, config: SimConfig) -> Path:
    step = _ThinnedStep(params, _threshold(config), config.dt, frozen=True)
    return _path(step, params.r0, config)


def simulate_hawkes(a: float, b: float, sigma_z: float, horizon: float,
                    n: int, seed: int = 0) -> Path:
    """Single rescaled Hawkes intensity path sampled on a uniform grid of
    _HAWKES_GRID_POINTS times in [0, horizon] (grid evaluation is exact
    between events), drawn from np.random.default_rng(seed).  The thinning
    loop of simulate_hawkes_batch at one path, one proposal an iteration;
    a path short of n*horizon after _HAWKES_MAX_ROUNDS proposals raises
    RuntimeError."""
    kappa, c, t_end = _check_hawkes(a, b, sigma_z, horizon, n)
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, t_end, _HAWKES_GRID_POINTS)
    values = np.empty(_HAWKES_GRID_POINTS)
    t_cur, lam = 0.0, 0.0
    gi = 0
    for _ in range(_HAWKES_MAX_ROUNDS):
        bound = max(lam, c)
        w = rng.exponential(1.0) / bound
        t_next = t_cur + w
        while gi < _HAWKES_GRID_POINTS and times[gi] <= t_next:
            values[gi] = c + (lam - c) * np.exp(-kappa * (times[gi] - t_cur))
            gi += 1
        if t_next >= t_end:     # the last grid point, t_end, is filled
            break
        lam_next = c + (lam - c) * np.exp(-kappa * w)
        t_cur, lam = t_next, lam_next
        if rng.uniform() < lam_next / bound:
            lam += sigma_z
    else:
        raise RuntimeError("event overflow guard tripped in Hawkes simulation")
    return Path(times=times / n, values=values / n)
