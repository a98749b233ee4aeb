"""Command-line front end: every analytic and Monte Carlo operation plus the
figure-data presets, emitting CSV data files and a JSON reproducibility
sidecar per run.  No plotting here; the CSVs are the deliverable.

Every subcommand runs in one envelope, kept in run().  A command only
computes: it writes its own CSV, if it has one, and returns (config,
result).  run() then writes <out>.json, the sidecar with the keys command,
params (the model flags; null for hawkes-limit and the fig presets),
config, seed, version and wall_time_s.  When result is not None it also
writes <out>_result.json and echoes the same JSON as one line on stdout.
--out defaults to the subcommand name with "_" for "-".  selfcheck writes
no file; it prints its concordance lines and "selfcheck ok" or
"selfcheck FAILED: ...".

Exit codes: 0 success, 2 validation error, 3 numerical-diagnostic failure
(failed ODE solve, dual-route disagreement, non-finite put transform,
failed selfcheck).  A failure prints one "invalid input: ..." or
"numerical diagnostic failure: ..." line on stderr and writes no sidecar.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .affine import bond_price_from_curve, solve_v, stationary_laplace, yield_from_curve
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
    mechanism_report,
)
from .sim import (
    ROOT_EULER,
    SimConfig,
    THINNED,
    simulate_hawkes,
    simulate_hawkes_batch,
    simulate_lou,
    simulate_root,
    simulate_thinned,
)
from .stable import StableSpec, sample_stable_increment

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIAGNOSTIC = 3

FIG12_PARAMS = dict(a=0.1, b=0.3, sigma=0.1, sigma_z=0.3, r0=0.1)
FIG3_PARAMS = dict(a=0.1, b=0.3, sigma=0.1, sigma_z=0.3, r0=0.05)
FIG45_PARAMS = dict(a=0.1, b=0.1, sigma=0.1, sigma_z=0.1, r0=0.2)


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


def write_sidecar(path, command: str, params: Optional[ModelParams],
                  config: Optional[dict], seed: Optional[int],
                  wall_time_s: float, version: str) -> None:
    """JSON sidecar with the reproducibility envelope of a CLI run."""
    doc = {
        "command": command,
        "params": params.to_json() if params is not None else None,
        "config": config,
        "seed": seed,
        "version": version,
        "wall_time_s": wall_time_s,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_csv(stem, header, columns) -> None:
    arr = np.column_stack(columns)
    np.savetxt(stem + ".csv", arr, delimiter=",", header=header, comments="")


# ---------------------------------------------------------------- simulate


def cmd_simulate(args, params):
    if args.scheme == "hawkes":
        path = simulate_hawkes(args.a, args.b, args.sigma_z, args.horizon,
                               n=args.n_agents, seed=args.seed)
        config = {"scheme": "hawkes", "horizon": args.horizon,
                  "n_agents": args.n_agents, "seed": args.seed}
    else:
        scheme = THINNED if args.scheme == "thinned" else ROOT_EULER
        config_obj = SimConfig(dt=args.dt, horizon=args.horizon, scheme=scheme,
                               y=args.y if args.scheme != "root" else None,
                               seed=args.seed)
        simulate = {"root": simulate_root, "thinned": simulate_thinned,
                    "lou": simulate_lou}[args.scheme]
        path = simulate(params, config_obj)
        config = config_obj.to_json()
        config["scheme"] = args.scheme
    path.to_csv(args.out + ".csv")
    if path.events:
        path.events_to_csv(args.out + "_events.csv")
    return config, None


# ------------------------------------------------------- analytic pricing


def cmd_bond(args, params):
    curve = solve_v(0.0, 1.0, args.tmax, params)
    grid = np.linspace(0.0, args.tmax, args.points)
    prices = [bond_price_from_curve(curve, T, params.r0) for T in grid]
    _write_csv(args.out, "T,price", [grid, prices])
    return {"tmax": args.tmax, "points": args.points}, None


def cmd_yield(args, params):
    r = params.r0 if args.rate is None else args.rate
    curve = solve_v(0.0, 1.0, args.kappa, params)
    val = yield_from_curve(curve, args.kappa, r)
    return ({"kappa": args.kappa, "rate": r},
            {"kappa": args.kappa, "rate": r, "value": val})


def cmd_put_laplace(args, params):
    val, diag = put_laplace(args.theta, args.kappa, args.strike, params.r0,
                            params, with_diagnostics=True)
    result = {"laplace_value": val, "theta": args.theta, "kappa": args.kappa,
              "K": args.strike, "kbar": diag["kbar"], "diagnostics": diag}
    return {"theta": args.theta, "kappa": args.kappa, "K": args.strike}, result


def cmd_put_price(args, params):
    price, diag = put_price(args.maturity, args.kappa, args.strike, params.r0,
                            params, n_terms=args.n_terms, with_diagnostics=True)
    result = {"price": price, "T": args.maturity, "kappa": args.kappa,
              "K": args.strike, "kbar": diag["kbar"], "diagnostics": diag}
    return ({"T": args.maturity, "kappa": args.kappa, "K": args.strike,
             "n_terms": args.n_terms}, result)


def cmd_stationary(args, params):
    grid = np.linspace(0.0, args.pmax, args.points)
    vals = [stationary_laplace(p, params) for p in grid]
    _write_csv(args.out, "p,laplace", [grid, vals])
    return {"pmax": args.pmax, "points": args.points}, None


def cmd_boundary(args, params):
    rep = mechanism_report(params)
    return {}, {"classification": boundary_classification(params),
                "x0": rep.x0, "drift": params.a}


def cmd_measure_change(args, params):
    new_params, new_spec = change_of_measure(params, args.eta, args.theta)
    result = {"params": new_params.to_json(),
              "jump_spec": {"variant": new_spec.variant, "theta": new_spec.theta}}
    return {"eta": args.eta, "theta": args.theta}, result


# ----------------------------------------------------------- jump analytics


def cmd_jump_survival(args, params):
    grid = np.linspace(0.0, args.tmax, args.points)
    t_chk = 0.5 * args.tmax
    curve = survival_curve(args.y_bar, np.append(grid, t_chk), params)
    s1 = curve.derived[-1]
    s2 = survival_tau_via_rhat(args.y_bar, t_chk, params)
    if abs(s1 - s2) > 1e-6:
        raise RouteDisagreement(f"dual-route survival disagreement at "
                                f"t={t_chk}: {s1} vs {s2}")
    _write_csv(args.out, "t,survival", [grid, curve.derived[:-1]])
    return {"y_bar": args.y_bar, "tmax": args.tmax, "points": args.points}, None


def cmd_jump_counter(args, params):
    grid = np.linspace(0.0, args.tmax, args.points)
    vals = counter_laplace(args.p, args.y_bar, grid, params)
    _write_csv(args.out, "t,counter_laplace", [grid, vals])
    return ({"p": args.p, "y_bar": args.y_bar, "tmax": args.tmax,
             "points": args.points}, None)


def cmd_jump_expectation(args, params):
    est = expected_tau(args.y_bar, params)
    result = {**est._asdict(),
              "route_gap": abs(est.survival_route / est.density_route - 1.0)}
    return {"y_bar": args.y_bar}, result


def cmd_hawkes_limit(args, params):
    rng = np.random.default_rng(args.seed)
    lam = simulate_hawkes_batch(args.a, args.b, args.sigma_z, args.horizon,
                                args.n_agents, args.n_paths, rng)
    est = _mean_se(lam, "hawkes-limit")
    limit_mean = args.b * (1.0 - np.exp(-args.a * args.horizon))
    result = {"n_agents": args.n_agents, "horizon": args.horizon,
              "mc_mean": est.value, "mc_se": est.std_error,
              "limit_mean": limit_mean}
    return ({"a": args.a, "b": args.b, "sigma_z": args.sigma_z,
             "horizon": args.horizon, "n_agents": args.n_agents,
             "n_paths": args.n_paths}, result)


# ------------------------------------------------------------ figure presets


def _fig2_rate(alpha: float, dt: float, dB: np.ndarray, dz: np.ndarray):
    """Root Euler short rate at FIG12_PARAMS driven by the increments dB, dz."""
    a, b, sig, sz = (FIG12_PARAMS[k] for k in ("a", "b", "sigma", "sigma_z"))
    r = np.empty(dz.size + 1)
    r[0] = FIG12_PARAMS["r0"]
    for k in range(dz.size):
        rp = max(r[k], 0.0)
        r[k + 1] = max(r[k] + a * (b - rp) * dt + sig * np.sqrt(rp) * dB[k]
                       + sz * rp ** (1.0 / alpha) * dz[k], 0.0)
    return r


def cmd_fig12(args, params):
    """fig1 writes the stable driver paths Z, fig2 the short rates built
    from the same seed's Brownian and stable increments."""
    fig1 = args.command == "fig1"
    dt, n = args.dt, int(round(args.horizon / args.dt))
    alphas = (2.0, 1.5, 1.2)
    cols = []
    for alpha in alphas:
        rng = np.random.default_rng(args.seed)
        dB = rng.normal(0.0, np.sqrt(dt), n)
        dz = sample_stable_increment(StableSpec(alpha=alpha), dt, rng, size=n)
        cols.append(np.concatenate([[0.0], np.cumsum(dz)]) if fig1
                    else _fig2_rate(alpha, dt, dB, dz))
    names = [f"{'z' if fig1 else 'r'}_alpha_{alpha}" for alpha in alphas]
    _write_csv(args.out, "t," + ",".join(names), [dt * np.arange(n + 1)] + cols)
    return {**FIG12_PARAMS, "dt": dt, "horizon": args.horizon}, None


def cmd_fig3(args, params):
    grid = np.linspace(0.0, args.tmax, args.points)
    models = {f"alpha_{alpha}": ModelParams(alpha=alpha, **FIG3_PARAMS)
              for alpha in (1.2, 1.5, 2.0)}
    models["cir"] = ModelParams(alpha=2.0, **{**FIG3_PARAMS, "sigma_z": 0.0})
    cols = []
    for p in models.values():
        curve = solve_v(0.0, 1.0, max(args.tmax, 1e-6), p)
        cols.append([bond_price_from_curve(curve, T, p.r0) for T in grid])
    _write_csv(args.out, "T," + ",".join(models), [grid] + cols)
    return {**FIG3_PARAMS, "tmax": args.tmax, "points": args.points}, None


def cmd_fig4(args, params):
    grid = np.linspace(0.0, args.tmax, args.points)
    cols, names = [], []
    for alpha in (1.2, 1.5, 1.8):
        p = ModelParams(alpha=alpha, **FIG45_PARAMS)
        curve = survival_curve(args.y_bar, grid, p)
        cols.append(curve.derived)
        names.append(f"alpha_{alpha}")
    _write_csv(args.out, "t," + ",".join(names), [grid] + cols)
    return ({**FIG45_PARAMS, "y_bar": args.y_bar, "tmax": args.tmax,
             "points": args.points}, None)


def cmd_fig5(args, params):
    alphas = np.linspace(args.alpha_min, args.alpha_max, args.points)
    vals = []
    for alpha in alphas:
        p = ModelParams(alpha=float(alpha), **FIG45_PARAMS)
        vals.append(expected_tau(args.y_bar, p).value)
    _write_csv(args.out, "alpha,expected_tau", [alphas, vals])
    return ({**FIG45_PARAMS, "y_bar": args.y_bar, "alpha_min": args.alpha_min,
             "alpha_max": args.alpha_max, "points": args.points}, None)


# --------------------------------------------------------------- selfcheck


def cmd_selfcheck(args, params):
    t0 = time.time()
    failures = []

    p3 = ModelParams(alpha=1.5, **FIG3_PARAMS)
    analytic = bond_price_from_curve(solve_v(0.0, 1.0, 1.0, p3), 1.0, p3.r0)
    est = mc_bond(p3, 1.0, n_paths=args.n_paths, dt=1e-3, seed=args.seed)
    z = abs(est.value - analytic) / est.std_error
    print(f"bond T=1 alpha=1.5: mc={est.value:.6f}±{est.std_error:.6f} "
          f"analytic={analytic:.6f} z={z:.2f}")
    if z > 3.0:
        failures.append("bond")

    p4 = ModelParams(alpha=1.5, **FIG45_PARAMS)
    analytic_s = survival_tau(0.1, 2.0, p4)
    est_s = mc_survival(p4, 0.1, [2.0], n_paths=args.n_paths, dt=2e-3,
                        seed=args.seed)[0]
    z = abs(est_s.value - analytic_s) / est_s.std_error
    print(f"survival t=2 alpha=1.5: mc={est_s.value:.6f}±{est_s.std_error:.6f} "
          f"analytic={analytic_s:.6f} z={z:.2f}")
    if z > 3.0:
        failures.append("survival")

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

    def command(name, func, help, model=True, out=True):
        p = sub.add_parser(name, help=help)
        if model:
            _add_model_args(p)
        if out:
            p.add_argument("--out", type=str, default=name.replace("-", "_"),
                           help="output stem; writes <out>.csv and <out>.json")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=func, model=model)
        return p

    p = command("simulate", cmd_simulate, "one trajectory to CSV")
    p.add_argument("--scheme", choices=["root", "thinned", "lou", "hawkes"],
                   default="root")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--y", type=float, default=1.0,
                   help="mark-space jump threshold (thinned/lou)")
    p.add_argument("--n-agents", type=int, default=50,
                   help="branching population size (hawkes)")

    p = command("bond", cmd_bond, "zero-coupon price curve")
    p.add_argument("--tmax", type=float, default=10.0)
    p.add_argument("--points", type=int, default=101)

    p = command("yield", cmd_yield, "constant-maturity yield")
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--rate", type=float, default=None,
                   help="current short rate; defaults to r0")

    p = command("put-laplace", cmd_put_laplace,
                "Laplace transform of the running-minimum yield put")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--strike", type=float, required=True)

    p = command("put-price", cmd_put_price, "running-minimum yield put price")
    p.add_argument("--maturity", type=float, required=True)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--strike", type=float, required=True)
    p.add_argument("--n-terms", type=int, default=14)

    p = command("jump-survival", cmd_jump_survival,
                "P(first large jump > t) curve")
    p.add_argument("--y-bar", type=float, default=0.1,
                   help="rate-space jump threshold")
    p.add_argument("--tmax", type=float, default=30.0)
    p.add_argument("--points", type=int, default=301)

    p = command("jump-counter", cmd_jump_counter,
                "Laplace functional of the large-jump counter")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--y-bar", type=float, default=0.1)
    p.add_argument("--tmax", type=float, default=30.0)
    p.add_argument("--points", type=int, default=301)

    p = command("jump-expectation", cmd_jump_expectation,
                "expected first-large-jump time")
    p.add_argument("--y-bar", type=float, default=0.1)

    p = command("stationary", cmd_stationary,
                "Laplace transform of the limit law")
    p.add_argument("--pmax", type=float, default=50.0)
    p.add_argument("--points", type=int, default=101)

    command("boundary", cmd_boundary, "boundary classification at zero")

    p = command("hawkes-limit", cmd_hawkes_limit, "rescaled branching "
                "intensity against its diffusion limit", model=False)
    p.add_argument("--a", type=float, default=0.1)
    p.add_argument("--b", type=float, default=0.3)
    p.add_argument("--sigma-z", type=float, default=0.3)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--n-agents", type=int, default=50)
    p.add_argument("--n-paths", type=int, default=10_000)

    p = command("measure-change", cmd_measure_change,
                "parameters after the exponential change of measure")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--theta", type=float, required=True)

    for name, help in (("fig1", "stable driver trajectories"),
                       ("fig2", "short-rate trajectories on the fig1 drivers")):
        p = command(name, cmd_fig12, help, model=False)
        p.add_argument("--dt", type=float, default=1e-3)
        p.add_argument("--horizon", type=float, default=10.0)

    p = command("fig3", cmd_fig3, "bond curves across stability indices",
                model=False)
    p.add_argument("--tmax", type=float, default=30.0)
    p.add_argument("--points", type=int, default=121)

    p = command("fig4", cmd_fig4, "first-large-jump survival curves",
                model=False)
    p.add_argument("--tmax", type=float, default=30.0)
    p.add_argument("--points", type=int, default=301)
    p.add_argument("--y-bar", type=float, default=0.1)

    p = command("fig5", cmd_fig5, "expected first-large-jump time vs alpha",
                model=False)
    p.add_argument("--alpha-min", type=float, default=1.1)
    p.add_argument("--alpha-max", type=float, default=1.9)
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--y-bar", type=float, default=0.1)

    p = command("selfcheck", cmd_selfcheck, "quick analytic-vs-MC concordance",
                model=False, out=False)
    p.add_argument("--n-paths", type=int, default=20_000)

    return top


def run(argv=None) -> int:
    """Parse argv, run the subcommand and write its envelope; returns the
    exit code."""
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        params = _params(args) if args.model else None
        out = args.func(args, params)
        if out is not None:
            config, result = out
            write_sidecar(args.out + ".json", args.command, params, config,
                          args.seed, time.time() - t0, __version__)
            if result is not None:
                with open(args.out + "_result.json", "w") as fh:
                    json.dump(result, fh, indent=2)
                    fh.write("\n")
                print(json.dumps(result))
    except RuntimeError as exc:
        # a failed ODE solve, a dual-route disagreement (RouteDisagreement),
        # a non-finite put transform, the Hawkes event overflow guard or a
        # failed selfcheck
        print(f"numerical diagnostic failure: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    except ValueError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
