"""Command-line front end: every analytic and Monte Carlo operation plus the
figure-data presets, emitting CSV data files and a JSON reproducibility
sidecar per run.  No plotting here; the CSVs are the deliverable.

run() parses with one parser per process, built on its first call;
build_parser() still returns a fresh one.

Every subcommand runs in one envelope, kept in run().  A command only
computes: it writes its own CSV, if it has one, and returns its result or
None.  run() then writes <out>.json, the sidecar with the keys command,
params (the model flags; null for hawkes-limit and the fig presets),
config, seed, version and wall_time_s.  Only the subcommands that draw
random numbers (DRAWING: simulate, hawkes-limit, fig1, fig2, selfcheck)
take --seed; the sidecar's seed is null for the others, which refuse the
flag like any flag they lack (exit 2).  config is the command's preset,
then the value of each flag the command declared, read after it ran: yield
writes back its resolved rate, and simulate names the flags its scheme
uses.  When result is not None, run() also writes <out>_result.json and
echoes the same JSON as one line on stdout.
--out defaults to the subcommand name with "_" for "-".  selfcheck writes
no file; it prints its concordance lines and "selfcheck ok" or
"selfcheck FAILED: ...".

Exit codes: 0 success, 2 validation error (a Riccati flow or a jump-law
ODE past its step bound included), 3 numerical-diagnostic failure (failed
ODE solve, dual-route disagreement, non-finite put transform or path, a
Hawkes run past its event bound, failed selfcheck, a float power that
overflows).  A failure prints one "invalid input: ..." or "numerical
diagnostic failure: ..." line on stderr and writes no sidecar.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback
from array import array
from typing import Optional

import numpy as np

from . import __version__
from .affine import bond_price_from_curve, bond_yield, solve_v, stationary_laplace
from .derivatives import put_laplace, put_price
from .jumps import (
    RouteDisagreement,
    expected_tau,
    counter_laplace,
    survival_curve,
    survival_tau,
    survival_tau_via_rhat,
)
from .mc import _mean_se, mc_bond, mc_survival
from .mechanism import (
    ModelParams,
    boundary_classification,
    change_of_measure,
    root_psi_equals_one,
)
from .sim import (
    SimConfig,
    _grid,
    simulate_hawkes,
    simulate_hawkes_batch,
    simulate_lou,
    simulate_root,
    simulate_thinned,
    write_csv,
)
from .stable import StableSpec, sample_stable_increment

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIAGNOSTIC = 3

FIG12_PARAMS = dict(a=0.1, b=0.3, sigma=0.1, sigma_z=0.3, r0=0.1)
FIG3_PARAMS = dict(a=0.1, b=0.3, sigma=0.1, sigma_z=0.3, r0=0.05)
FIG45_PARAMS = dict(a=0.1, b=0.1, sigma=0.1, sigma_z=0.1, r0=0.2)
# the subcommands that draw random numbers, the only ones with --seed
DRAWING = ("simulate", "hawkes-limit", "fig1", "fig2", "selfcheck")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, default=0.1, help="mean-reversion speed")
    p.add_argument("--b", type=float, default=0.3, help="mean-reversion level")
    p.add_argument("--sigma", type=float, default=0.1, help="diffusion coefficient")
    p.add_argument("--sigma-z", type=float, default=0.3, help="jump coefficient")
    p.add_argument("--alpha", type=float, default=1.5, help="stability index in (1, 2]")
    p.add_argument("--r0", type=float, default=0.05, help="initial short rate")


def _params(args) -> ModelParams:
    return ModelParams(a=args.a, b=args.b, sigma=args.sigma,
                       sigma_z=args.sigma_z, alpha=args.alpha, r0=args.r0)


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_csv(stem, header, columns) -> None:
    write_csv(stem + ".csv", header, np.column_stack(columns))


def _curve_grid(start: float, stop: float, points: int) -> np.ndarray:
    """The --points grid of a curve command; an empty curve is rejected."""
    if points < 1:
        raise ValueError(f"--points must be >= 1, got {points}")
    return np.linspace(start, stop, points)


# ---------------------------------------------------------------- simulate


def cmd_simulate(args, params):
    if args.scheme == "hawkes":
        args.settings = ["scheme", "horizon", "n_agents", "seed"]
        path = simulate_hawkes(args.a, args.b, args.sigma_z, args.horizon,
                               n=args.n_agents, seed=args.seed)
    else:
        args.settings = ["dt", "horizon", "scheme", "y", "seed"]
        args.y = args.y if args.scheme != "root" else None
        simulate = {"root": simulate_root, "thinned": simulate_thinned,
                    "lou": simulate_lou}[args.scheme]
        path = simulate(params, SimConfig(dt=args.dt, horizon=args.horizon,
                                          y=args.y, seed=args.seed))
    path.to_csv(args.out + ".csv")
    if path.events:
        path.events_to_csv(args.out + "_events.csv")


# ------------------------------------------------------- analytic pricing


def cmd_bond(args, params):
    grid = _curve_grid(0.0, args.tmax, args.points)
    curve = solve_v(0.0, 1.0, args.tmax, params)
    prices = [bond_price_from_curve(curve, T, params.r0) for T in grid]
    _write_csv(args.out, "T,price", [grid, prices])


def cmd_yield(args, params):
    args.rate = params.r0 if args.rate is None else args.rate
    return {"kappa": args.kappa, "rate": args.rate,
            "value": bond_yield(args.kappa, args.rate, params)}


def cmd_put_laplace(args, params):
    val, diag = put_laplace(args.theta, args.kappa, args.K, params,
                            with_diagnostics=True)
    return {"laplace_value": val, "theta": args.theta, "kappa": args.kappa,
            "K": args.K, "kbar": diag["kbar"], "diagnostics": diag}


def cmd_put_price(args, params):
    price, diag = put_price(args.T, args.kappa, args.K, params,
                            n_terms=args.n_terms, with_diagnostics=True)
    return {"price": price, "T": args.T, "kappa": args.kappa,
            "K": args.K, "kbar": diag["kbar"], "diagnostics": diag}


def cmd_stationary(args, params):
    grid = _curve_grid(0.0, args.pmax, args.points)
    vals = [stationary_laplace(p, params) for p in grid]
    _write_csv(args.out, "p,laplace", [grid, vals])


def cmd_boundary(args, params):
    return {"classification": boundary_classification(params),
            "x0": root_psi_equals_one(params), "drift": params.a}


def cmd_measure_change(args, params):
    new_params, new_spec = change_of_measure(params, args.eta, args.theta)
    return {"params": new_params.to_json(),
            "jump_spec": {"variant": new_spec.variant, "theta": new_spec.theta}}


# ----------------------------------------------------------- jump analytics


def cmd_jump_survival(args, params):
    grid = _curve_grid(0.0, args.tmax, args.points)
    t_chk = 0.5 * args.tmax
    surv = survival_curve(args.y_bar, np.append(grid, t_chk), params)
    s1 = surv[-1]
    s2 = survival_tau_via_rhat(args.y_bar, t_chk, params)
    if abs(s1 - s2) > 1e-6:
        raise RouteDisagreement(f"dual-route survival disagreement at "
                                f"t={t_chk}: {s1} vs {s2}")
    _write_csv(args.out, "t,survival", [grid, surv[:-1]])


def cmd_jump_counter(args, params):
    grid = _curve_grid(0.0, args.tmax, args.points)
    vals = counter_laplace(args.p, args.y_bar, grid, params)
    _write_csv(args.out, "t,counter_laplace", [grid, vals])


def cmd_jump_expectation(args, params):
    est = expected_tau(args.y_bar, params)
    return {**est._asdict(),
            "route_gap": abs(est.survival_route / est.density_route - 1.0)}


def cmd_hawkes_limit(args, params):
    rng = np.random.default_rng(args.seed)
    lam = simulate_hawkes_batch(args.a, args.b, args.sigma_z, args.horizon,
                                args.n_agents, args.n_paths, rng)
    est = _mean_se(lam, "hawkes-limit")
    limit_mean = args.b * (1.0 - np.exp(-args.a * args.horizon))
    return {"n_agents": args.n_agents, "horizon": args.horizon,
            "mc_mean": est.value, "mc_se": est.std_error,
            "limit_mean": limit_mean}


# ------------------------------------------------------------ figure presets


def _fig2_rate(alpha: float, dt: float, dB: np.ndarray, dz: np.ndarray):
    """Root Euler short rate at FIG12_PARAMS driven by the increments dB, dz.

    The loop runs on Python floats, read from memoryviews of dB and dz and
    kept in an array("d"), so no per-step object outlives its step: float
    ** calls libm pow as NumPy's scalar power does, and sqrt is correctly
    rounded, so the path is the one NumPy scalars give, bit for bit."""
    a, b, sig, sz = (FIG12_PARAMS[k] for k in ("a", "b", "sigma", "sigma_z"))
    rk = FIG12_PARAMS["r0"]
    r = array("d", [rk])
    for db, z in zip(memoryview(dB), memoryview(dz)):
        rp = max(rk, 0.0)
        rk = max(rk + a * (b - rp) * dt + sig * math.sqrt(rp) * db
                 + sz * rp ** (1.0 / alpha) * z, 0.0)
        r.append(rk)
    return np.array(r)


def cmd_fig12(args, params):
    """fig1 writes the stable driver paths Z, fig2 the short rates built
    from the same seed's Brownian and stable increments."""
    fig1 = args.command == "fig1"
    dt = args.dt
    n, times = _grid(dt, args.horizon)
    alphas = (2.0, 1.5, 1.2)
    cols = []
    for alpha in alphas:
        rng = np.random.default_rng(args.seed)
        dB = rng.normal(0.0, np.sqrt(dt), n)
        dz = sample_stable_increment(StableSpec(alpha=alpha), dt, rng, size=n)
        cols.append(np.concatenate([[0.0], np.cumsum(dz)]) if fig1
                    else _fig2_rate(alpha, dt, dB, dz))
    names = [f"{'z' if fig1 else 'r'}_alpha_{alpha}" for alpha in alphas]
    _write_csv(args.out, "t," + ",".join(names), [times] + cols)


def cmd_fig3(args, params):
    grid = _curve_grid(0.0, args.tmax, args.points)
    models = {f"alpha_{alpha}": ModelParams(alpha=alpha, **FIG3_PARAMS)
              for alpha in (1.2, 1.5, 2.0)}
    models["cir"] = ModelParams(alpha=2.0, **{**FIG3_PARAMS, "sigma_z": 0.0})
    cols = []
    for p in models.values():
        curve = solve_v(0.0, 1.0, max(args.tmax, 1e-6), p)
        cols.append([bond_price_from_curve(curve, T, p.r0) for T in grid])
    _write_csv(args.out, "T," + ",".join(models), [grid] + cols)


def cmd_fig4(args, params):
    grid = _curve_grid(0.0, args.tmax, args.points)
    cols, names = [], []
    for alpha in (1.2, 1.5, 1.8):
        p = ModelParams(alpha=alpha, **FIG45_PARAMS)
        cols.append(survival_curve(args.y_bar, grid, p))
        names.append(f"alpha_{alpha}")
    _write_csv(args.out, "t," + ",".join(names), [grid] + cols)


def cmd_fig5(args, params):
    alphas = _curve_grid(args.alpha_min, args.alpha_max, args.points)
    vals = []
    for alpha in alphas:
        p = ModelParams(alpha=float(alpha), **FIG45_PARAMS)
        vals.append(expected_tau(args.y_bar, p).value)
    _write_csv(args.out, "alpha,expected_tau", [alphas, vals])


# --------------------------------------------------------------- selfcheck


def cmd_selfcheck(args, params):
    """Each (label, analytic value, Monte Carlo estimate) cell prints one
    line and fails beyond 3 standard errors; a failed cell is named by the
    first word of its label."""
    t0 = time.time()
    p3 = ModelParams(alpha=1.5, **FIG3_PARAMS)
    p4 = ModelParams(alpha=1.5, **FIG45_PARAMS)
    cells = (
        ("bond T=1 alpha=1.5",
         bond_price_from_curve(solve_v(0.0, 1.0, 1.0, p3), 1.0, p3.r0),
         mc_bond(p3, 1.0, n_paths=args.n_paths, dt=1e-3, seed=args.seed)),
        ("survival t=2 alpha=1.5", survival_tau(0.1, 2.0, p4),
         mc_survival(p4, 0.1, [2.0], n_paths=args.n_paths, dt=2e-3,
                     seed=args.seed)[0]),
    )
    failures = []
    for label, analytic, est in cells:
        z = abs(est.value - analytic) / est.std_error
        print(f"{label}: mc={est.value:.6f}±{est.std_error:.6f} "
              f"analytic={analytic:.6f} z={z:.2f}")
        if z > 3.0:
            failures.append(label.split()[0])
    print(f"selfcheck {'FAILED: ' + ', '.join(failures) if failures else 'ok'} "
          f"({time.time() - t0:.1f}s)")
    if failures:
        raise RuntimeError(f"selfcheck failed: {', '.join(failures)}")


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="alphacir",
        description="Stable-jump short-rate model: simulation, pricing, "
                    "jump analytics, figure data.")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, func, help, model=True, out=True, preset=None):
        """Add a subcommand; the returned flag() adds one of its own flags,
        whose dest becomes a key of the sidecar config after the preset."""
        p = sub.add_parser(name, help=help)
        if model:
            _add_model_args(p)
        if out:
            p.add_argument("--out", type=str, default=name.replace("-", "_"),
                           help="output stem; writes <out>.csv and <out>.json")
        if name in DRAWING:
            p.add_argument("--seed", type=int, default=0)
        settings = []
        p.set_defaults(func=func, model=model, preset=preset or {},
                       settings=settings)

        def flag(*names, **kwargs):
            settings.append(p.add_argument(*names, **kwargs).dest)
        return flag

    flag = command("simulate", cmd_simulate, "one trajectory to CSV")
    flag("--scheme", choices=["root", "thinned", "lou", "hawkes"],
         default="root")
    flag("--dt", type=float, default=1e-3)
    flag("--horizon", type=float, default=1.0)
    flag("--y", type=float, default=1.0,
         help="mark-space jump threshold (thinned/lou)")
    flag("--n-agents", type=int, default=50,
         help="branching population size (hawkes)")

    flag = command("bond", cmd_bond, "zero-coupon price curve")
    flag("--tmax", type=float, default=10.0)
    flag("--points", type=int, default=101)

    flag = command("yield", cmd_yield, "constant-maturity yield")
    flag("--kappa", type=float, default=1.0)
    flag("--rate", type=float, default=None,
         help="current short rate; defaults to r0")

    flag = command("put-laplace", cmd_put_laplace,
                   "Laplace transform of the running-minimum yield put")
    flag("--theta", type=float, required=True)
    flag("--kappa", type=float, default=1.0)
    flag("--strike", dest="K", type=float, required=True)

    flag = command("put-price", cmd_put_price,
                   "running-minimum yield put price")
    flag("--maturity", dest="T", type=float, required=True)
    flag("--kappa", type=float, default=1.0)
    flag("--strike", dest="K", type=float, required=True)
    flag("--n-terms", type=int, default=14)

    flag = command("jump-survival", cmd_jump_survival,
                   "P(first large jump > t) curve")
    flag("--y-bar", type=float, default=0.1, help="rate-space jump threshold")
    flag("--tmax", type=float, default=30.0)
    flag("--points", type=int, default=301)

    flag = command("jump-counter", cmd_jump_counter,
                   "Laplace functional of the large-jump counter")
    flag("--p", type=float, required=True)
    flag("--y-bar", type=float, default=0.1)
    flag("--tmax", type=float, default=30.0)
    flag("--points", type=int, default=301)

    flag = command("jump-expectation", cmd_jump_expectation,
                   "expected first-large-jump time")
    flag("--y-bar", type=float, default=0.1)

    flag = command("stationary", cmd_stationary,
                   "Laplace transform of the limit law")
    flag("--pmax", type=float, default=50.0)
    flag("--points", type=int, default=101)

    command("boundary", cmd_boundary, "boundary classification at zero")

    flag = command("hawkes-limit", cmd_hawkes_limit, "rescaled branching "
                   "intensity against its diffusion limit", model=False)
    flag("--a", type=float, default=0.1)
    flag("--b", type=float, default=0.3)
    flag("--sigma-z", type=float, default=0.3)
    flag("--horizon", type=float, default=1.0)
    flag("--n-agents", type=int, default=50)
    flag("--n-paths", type=int, default=10_000)

    flag = command("measure-change", cmd_measure_change,
                   "parameters after the exponential change of measure")
    flag("--eta", type=float, required=True)
    flag("--theta", type=float, required=True)

    for name, help in (("fig1", "stable driver trajectories"),
                       ("fig2", "short-rate trajectories on the fig1 drivers")):
        flag = command(name, cmd_fig12, help, model=False, preset=FIG12_PARAMS)
        flag("--dt", type=float, default=1e-3)
        flag("--horizon", type=float, default=10.0)

    flag = command("fig3", cmd_fig3, "bond curves across stability indices",
                   model=False, preset=FIG3_PARAMS)
    flag("--tmax", type=float, default=30.0)
    flag("--points", type=int, default=121)

    flag = command("fig4", cmd_fig4, "first-large-jump survival curves",
                   model=False, preset=FIG45_PARAMS)
    flag("--y-bar", type=float, default=0.1)
    flag("--tmax", type=float, default=30.0)
    flag("--points", type=int, default=301)

    flag = command("fig5", cmd_fig5, "expected first-large-jump time vs alpha",
                   model=False, preset=FIG45_PARAMS)
    flag("--y-bar", type=float, default=0.1)
    flag("--alpha-min", type=float, default=1.1)
    flag("--alpha-max", type=float, default=1.9)
    flag("--points", type=int, default=9)

    flag = command("selfcheck", cmd_selfcheck,
                   "quick analytic-vs-MC concordance", model=False, out=False)
    flag("--n-paths", type=int, default=20_000)

    return top


# the parser run() parses with, built on its first call.  Each parse fills
# a new namespace, so nothing passes from one call to the next as long as
# no command mutates a default in place (simulate rebinds its settings)
_PARSER: Optional[argparse.ArgumentParser] = None


def run(argv=None) -> int:
    """Parse argv, run the subcommand and write its envelope; returns the
    exit code."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    t0 = time.time()
    try:
        params = _params(args) if args.model else None
        result = args.func(args, params)
        if hasattr(args, "out"):     # selfcheck writes no file
            config = {**args.preset, **{k: getattr(args, k) for k in args.settings}}
            _write_json(args.out + ".json", {
                "command": args.command,
                "params": params.to_json() if params is not None else None,
                "config": config,
                "seed": getattr(args, "seed", None),
                "version": __version__,
                "wall_time_s": time.time() - t0,
            })
            if result is not None:
                _write_json(args.out + "_result.json", result)
                print(json.dumps(result))
    except RuntimeError as exc:
        # a failed ODE solve, a dual-route disagreement (RouteDisagreement),
        # a non-finite put transform or path, the Hawkes event overflow
        # guard or a failed selfcheck
        print(f"numerical diagnostic failure: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except OverflowError as exc:
        # a Python float operation past the largest float (Psi's
        # (sigma_z q)^alpha at sigma_z 1e300): name the line that overflowed
        at = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"numerical diagnostic failure: float overflow in "
              f"{os.path.basename(at.filename)[:-3]}.{at.name}: {at.line}",
              file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
