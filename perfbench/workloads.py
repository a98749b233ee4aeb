"""The four workloads: seeded request lists and the check of every output.

A request is one call a user of alphacir makes: a CLI subcommand through
``alphacir.cli.run`` (output files land in the run's work directory) or a
public Monte Carlo estimator.  Each request carries a check that returns a
list of problems; an empty list means the output is correct.

The seed picks parameter draws from small fixed grids and feeds the Monte
Carlo streams.  Every workload also holds fixed fingerprint requests whose
outputs are compared with ``reference``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import mpmath as mp
import numpy as np

import reference as ref

WORKLOADS = ("pricing", "jump_laws", "monte_carlo", "single_path")
PRIMARY = {"pricing": "put-price", "jump_laws": "jump-expectation",
           "monte_carlo": "mc estimator", "single_path": "simulate"}


@dataclass
class Request:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], list]
    primary: bool = False
    stem: str = ""             # output stem of a CLI request


@dataclass
class CliOut:
    code: int
    stdout: str
    stem: str


# ------------------------------------------------------------------ helpers


def _model_argv(params: dict, alpha: float) -> list:
    return ["--a", repr(params["a"]), "--b", repr(params["b"]),
            "--sigma", repr(params["sigma"]), "--sigma-z", repr(params["sigma_z"]),
            "--r0", repr(params["r0"]), "--alpha", repr(float(alpha))]


def _csv(stem: str) -> np.ndarray:
    return np.loadtxt(stem + ".csv", delimiter=",", skiprows=1, ndmin=2)


def _result(stem: str) -> dict:
    with open(stem + "_result.json") as fh:
        return json.load(fh)


def _close(label: str, value: float, target: float) -> list:
    if not math.isfinite(value) or ref.rel_err(value, target) > ref.REL_TOL:
        return [f"{label}: {value!r} vs reference {target!r}"]
    return []


def _within_se(label: str, est, target: float) -> list:
    se = est.std_error
    if not (math.isfinite(est.value) and se > 0.0
            and abs(est.value - target) <= ref.MC_Z * se):
        return [f"{label}: {est.value!r} +- {se!r} vs {target!r}"]
    return []


def _probability_curve(label: str, vals: np.ndarray) -> list:
    """Finite values in [0, 1], non-increasing along the rows."""
    if not (np.all(np.isfinite(vals)) and np.all(vals >= 0.0)
            and np.all(vals <= 1.0 + 1e-12)):
        return [f"{label}: values outside [0, 1]"]
    if np.any(np.diff(vals, axis=0) > 1e-12):
        return [f"{label}: not non-increasing"]
    return []


class Client:
    """Builds requests that go through ``alphacir.cli.run`` in-process."""

    def __init__(self, work_dir: str):
        from alphacir import cli
        self.cli = cli
        self.work_dir = work_dir
        self.n = 0

    def request(self, kind, argv, check, primary=False, out=True) -> Request:
        stem = os.path.join(self.work_dir, f"r{self.n:02d}") if out else ""
        self.n += 1
        full = list(argv) + (["--out", stem] if out else [])
        cli = self.cli

        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(full)          # looked up per call: traceable
            return CliOut(code, buf.getvalue(), stem)

        def checked(res):
            if res.code != 0:
                return [f"{kind}: exit code {res.code}"]
            return check(res)
        return Request(kind, call, checked, primary, stem)


def collect_output(stem: str) -> int:
    """Bytes the request wrote under its stem; the files are then removed."""
    if not stem:
        return 0
    d, base = os.path.split(stem)
    total = 0
    for name in os.listdir(d):
        if name.startswith(base + ".") or name.startswith(base + "_"):
            path = os.path.join(d, name)
            total += os.path.getsize(path)
            os.remove(path)
    return total


def _stream_seeds(seed: int, n: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


# ----------------------------------------------------------------- pricing


def _stehfest_theta(T: float, k: int) -> float:
    """The k-th Gaver-Stehfest abscissa at maturity T, computed exactly as
    the inversion does, so a put-laplace request hits the same cache key."""
    with mp.workdps(40):
        return float((mp.log(2) / T) * k)


def _put_check(fixture: bool):
    def check(res):
        out = _result(res.stem)
        price, gap = out["price"], out["diagnostics"].get("stability_gap")
        probs = []
        if not (math.isfinite(price) and price >= 0.0):
            probs.append(f"put-price: price {price!r}")
        elif gap is None or not gap <= 0.05 * max(price, 1e-12):
            probs.append(f"put-price: Stehfest stability gap {gap!r}")
        if fixture:
            probs += _close("put-price fingerprint", price, ref.PUT_PRICE)
        return probs
    return check


def _laplace_check(res):
    val = _result(res.stem)["laplace_value"]
    ok = math.isfinite(val) and val >= 0.0
    return [] if ok else [f"put-laplace: value {val!r}"]


# the alpha = 2 model is CIR with volatility sqrt(sigma^2 + 2 sigma_z^2)
BOND_SIGMA_EFF = math.sqrt(ref.BOND_SET["sigma"] ** 2
                           + 2.0 * ref.BOND_SET["sigma_z"] ** 2)


def _bond_check(alpha: float):
    def check(res):
        data = _csv(res.stem)
        T, price = data[:, 0], data[:, 1]
        probs = []
        if not (np.all(np.isfinite(price)) and np.all(price > 0.0)
                and np.all(price <= 1.0) and np.all(np.diff(price) <= 0.0)):
            probs.append(f"bond alpha={alpha}: not a discount curve")
        if alpha == 1.5:
            probs += _close("bond B(0,5) fingerprint", price[20], ref.BOND_T5)
        if alpha == 2.0:
            bs = ref.BOND_SET
            worst = max(ref.rel_err(p, ref.cir_bond(bs["a"], bs["b"], BOND_SIGMA_EFF,
                                                    bs["r0"], t))
                        for t, p in zip(T, price))
            if worst > ref.REL_TOL:
                probs.append(f"bond alpha=2: CIR closed form off by {worst:.2e}")
        return probs
    return check


def _stationary_check(alpha: float):
    def check(res):
        data = _csv(res.stem)
        p, val = data[:, 0], data[:, 1]
        probs = _probability_curve(f"stationary alpha={alpha}", val)
        if alpha == 1.5:
            probs += _close("stationary p=1 fingerprint", val[2], ref.STATIONARY_P1)
        if alpha == 2.0:
            worst = max(ref.rel_err(v, ref.cir_stationary_laplace(
                ref.BOND_SET["a"], ref.BOND_SET["b"], BOND_SIGMA_EFF, q))
                for q, v in zip(p, val))
            if worst > ref.REL_TOL:
                probs.append(f"stationary alpha=2: Gamma law off by {worst:.2e}")
        return probs
    return check


def _yield_check(res):
    val = _result(res.stem)["value"]
    return _close("yield kappa=5", val, -math.log(ref.BOND_T5) / 5.0)


def pricing(seed: int, client: Client):
    rng = np.random.default_rng(seed)
    alpha_s = float(rng.choice([1.2, 1.5, 1.8]))
    T_s = float(rng.choice([0.5, 1.0, 2.0]))
    K_s, K_a, K_b = (float(k) for k in rng.choice(
        [0.035, 0.0375, 0.04, 0.0425, 0.045], size=3, replace=False))
    k_a = int(rng.integers(1, 9))        # abscissae of the 8-term put
    k_b = int(rng.integers(1, 15))       # abscissae of the 14-term fixture
    alpha_b = float(rng.choice([1.2, 1.8]))
    bs = ref.BOND_SET
    kappa = ["--kappa", repr(ref.PUT_KAPPA)]
    reqs = [
        client.request("put-price", ["put-price", *_model_argv(bs, 1.5), *kappa,
                                     "--n-terms", "14", "--maturity", repr(ref.PUT_T),
                                     "--strike", repr(ref.PUT_STRIKE)],
                       _put_check(True), primary=True),
        # 8 Stehfest terms keep one pass of the workload near 25 s (the gap
        # to 6 terms stays far inside the 5 % check); its abscissae are a
        # subset of the 14-term ones, so (1.5, T=1) draws reuse the
        # fixture's caches
        client.request("put-price", ["put-price", *_model_argv(bs, alpha_s), *kappa,
                                     "--n-terms", "8", "--maturity", repr(T_s),
                                     "--strike", repr(K_s)],
                       _put_check(False), primary=True),
        # same (params, theta) keys as the two puts, new strikes: cache hits
        client.request("put-laplace", ["put-laplace", *_model_argv(bs, alpha_s),
                                       "--theta", repr(_stehfest_theta(T_s, k_a)),
                                       "--strike", repr(K_a)], _laplace_check),
        client.request("put-laplace", ["put-laplace", *_model_argv(bs, 1.5),
                                       "--theta", repr(_stehfest_theta(ref.PUT_T, k_b)),
                                       "--strike", repr(K_b)], _laplace_check),
    ]
    for alpha in (1.5, 2.0, alpha_b):
        reqs.append(client.request(
            "bond", ["bond", *_model_argv(bs, alpha), "--tmax", "30",
                     "--points", "121"], _bond_check(alpha)))
    reqs.append(client.request("yield", ["yield", *_model_argv(bs, 1.5),
                                         "--kappa", "5"], _yield_check))
    for alpha in (1.5, 2.0, alpha_b):
        reqs.append(client.request(
            "stationary", ["stationary", *_model_argv(bs, alpha)],
            _stationary_check(alpha)))
    seeded_repeats_fixture = alpha_s == 1.5 and T_s == ref.PUT_T
    info = {"draws": {"alpha": alpha_s, "T": T_s, "strike": K_s,
                      "laplace_strikes": [K_a, K_b], "theta_k": [k_a, k_b],
                      "alpha_bond": alpha_b},
            # share of the put requests whose (params, T or theta) key an
            # earlier request of the pass already built
            "put_repeat_share": (2 + seeded_repeats_fixture) / 4}
    return reqs, info


# ---------------------------------------------------------------- jump_laws


def _survival_check(fixture: bool):
    def check(res):
        data = _csv(res.stem)
        probs = _probability_curve("jump-survival", data[:, 1])
        if fixture:
            probs += _close("survival t=5 fingerprint", data[-1, 1], ref.SURVIVAL_T5)
        return probs
    return check


def _counter_check(res):
    return _probability_curve("jump-counter", _csv(res.stem)[:, 1])


def _expectation_check(fixture: bool):
    def check(res):
        out = _result(res.stem)
        v, s1, s2 = out["value"], out["survival_route"], out["density_route"]
        probs = []
        if not (math.isfinite(v) and v > 0.0):
            probs.append(f"jump-expectation: value {v!r}")
        elif abs(s1 / s2 - 1.0) > 1e-4:
            probs.append(f"jump-expectation: dual routes {s1!r} vs {s2!r}")
        if fixture:
            probs += _close("E[tau] fingerprint", v, ref.EXPECTED_TAU)
        return probs
    return check


def _fig4_check(res):
    data = _csv(res.stem)
    probs = _probability_curve("fig4", data[:, 1:])
    # columns alpha 1.2, 1.5, 1.8 on t = 0, 0.1, ..., 30
    return probs + _close("fig4 alpha=1.5 t=5", data[50, 2], ref.SURVIVAL_T5)


def _fig5_check(res):
    data = _csv(res.stem)
    probs = _close("fig5 alpha=1.5", data[0, 1], ref.EXPECTED_TAU)
    if not (math.isfinite(data[1, 1]) and data[1, 1] > 0.0):
        probs.append(f"fig5: E[tau] {data[1, 1]!r}")
    return probs


def jump_laws(seed: int, client: Client):
    rng = np.random.default_rng(seed)
    alpha_s = float(rng.choice([1.25, 1.4, 1.6, 1.75]))
    ybar_s = float(rng.choice([0.08, 0.1, 0.12]))
    p_s = float(rng.choice([0.5, 1.0, 2.0]))
    js = ref.JUMP_SET
    fix = [*_model_argv(js, 1.5), "--y-bar", repr(ref.Y_BAR)]
    seeded = [*_model_argv(js, alpha_s), "--y-bar", repr(ybar_s)]
    reqs = [
        client.request("jump-survival", ["jump-survival", *fix, "--tmax", "5",
                                         "--points", "51"], _survival_check(True)),
        client.request("jump-survival", ["jump-survival", *seeded],
                       _survival_check(False)),
        client.request("jump-counter", ["jump-counter", *seeded, "--p", repr(p_s),
                                        "--tmax", "10", "--points", "6"],
                       _counter_check),
        client.request("jump-expectation", ["jump-expectation", *fix],
                       _expectation_check(True), primary=True),
        client.request("jump-expectation", ["jump-expectation", *seeded],
                       _expectation_check(False), primary=True),
        client.request("fig4", ["fig4"], _fig4_check),
        client.request("fig5", ["fig5", "--alpha-min", "1.5",
                                "--alpha-max", repr(alpha_s), "--points", "2"],
                       _fig5_check),
    ]
    return reqs, {"draws": {"alpha": alpha_s, "y_bar": ybar_s, "p": p_s}}


# -------------------------------------------------------------- monte_carlo


def _hawkes_check(res):
    out = _result(res.stem)
    # E[lambda^(n)_(n h)] / n = b (1 - e^{-a h}) exactly, for every n
    target = 0.3 * (1.0 - math.exp(-0.1 * 1.0))
    probs = _close("hawkes-limit mean", out["limit_mean"], target)
    if not (math.isfinite(out["mc_mean"]) and out["mc_se"] > 0.0
            and abs(out["mc_mean"] - target) <= ref.MC_Z * out["mc_se"]):
        probs.append(f"hawkes-limit: {out['mc_mean']!r} +- {out['mc_se']!r}")
    return probs


def _selfcheck_check(res):
    return [] if "selfcheck ok" in res.stdout else ["selfcheck: not ok"]


def monte_carlo(seed: int, client: Client):
    from alphacir import mc
    from alphacir.mechanism import ModelParams

    pb = ModelParams(alpha=1.5, **ref.BOND_SET)
    pj = ModelParams(alpha=1.5, **ref.JUMP_SET)
    s = _stream_seeds(seed, 7)
    surv_t = sorted(ref.SURVIVAL)
    lou_t = sorted(ref.LOU_CDF)

    def each(label, table, ts):
        return lambda ests: sum((_within_se(f"{label} t={t}", e, table[t])
                                 for t, e in zip(ts, ests)), [])

    reqs = [
        Request("mc_bond", lambda: mc.mc_bond(pb, 1.0, n_paths=4000, dt=1e-3,
                                              seed=s[0]),
                lambda e: _within_se("mc_bond", e, ref.BOND_T1), primary=True),
        Request("mc_laplace", lambda: mc.mc_laplace(
            pb, 10.0, 1.0, n_paths=2000, dt=1e-3, seed=s[1], scheme="thinned"),
            lambda e: _within_se("mc_laplace", e, ref.LAPLACE_P10_T1),
            primary=True),
        Request("mc_survival", lambda: mc.mc_survival(
            pj, ref.Y_BAR, surv_t, n_paths=2000, dt=2e-3, seed=s[2]),
            each("mc_survival", ref.SURVIVAL, surv_t), primary=True),
        # P(tau > 150) = 6 % and the cap is 300, so every seed makes exactly
        # one doubling; without the cap 0.5 % censored at 300 made some
        # seeds restart again at 600 and cost twice as much
        Request("mc_expected_tau", lambda: mc.mc_expected_tau(
            pj, ref.Y_BAR, n_paths=400, dt=0.01, seed=s[3], horizon=150.0,
            max_horizon=300.0),
            lambda e: _within_se("mc_expected_tau", e, ref.EXPECTED_TAU),
            primary=True),
        Request("mc_lou_first_jump_cdf", lambda: mc.mc_lou_first_jump_cdf(
            pj, ref.Y_BAR, lou_t, n_paths=5000, dt=2e-3, seed=s[4]),
            each("mc_lou_first_jump_cdf", ref.LOU_CDF, lou_t), primary=True),
        Request("mc_running_min_put", lambda: mc.mc_running_min_put(
            pb, ref.PUT_T, ref.PUT_KAPPA, ref.PUT_STRIKE, n_paths=2000, dt=1e-3,
            seed=s[5]),
            lambda forms: sum((_within_se(f"mc_running_min_put[{i}]", e,
                                          ref.PUT_PRICE)
                               for i, e in enumerate(forms)), []), primary=True),
        client.request("hawkes-limit", ["hawkes-limit", "--a", "0.1", "--b", "0.3",
                                        "--sigma-z", "0.3", "--horizon", "1",
                                        "--n-agents", "50", "--n-paths", "2000",
                                        "--seed", str(s[6])], _hawkes_check),
        # selfcheck's own 3-SE test is fixed to its default stream
        client.request("selfcheck", ["selfcheck", "--n-paths", "2000", "--seed", "0"],
                       _selfcheck_check, out=False),
    ]
    return reqs, {"streams": s}


# -------------------------------------------------------------- single_path


def _path_check(scheme: str, n_rows: int, nonneg: bool):
    def check(res):
        data = _csv(res.stem)
        probs = []
        if data.shape[0] != n_rows or not np.all(np.isfinite(data)):
            probs.append(f"simulate {scheme}: {data.shape[0]} rows or non-finite")
        elif nonneg and np.any(data[:, 1] < 0.0):
            probs.append(f"simulate {scheme}: negative rate")
        events = res.stem + "_events.csv"
        if os.path.exists(events):
            ev = np.loadtxt(events, delimiter=",", skiprows=1, ndmin=2)
            if np.any(ev[:, 1] <= 0.0):
                probs.append(f"simulate {scheme}: non-positive event size")
        return probs
    return check


def _fig12_check(name: str, nonneg: bool):
    def check(res):
        data = _csv(res.stem)
        if data.shape != (10001, 4) or not np.all(np.isfinite(data)):
            return [f"{name}: shape {data.shape} or non-finite"]
        if nonneg and np.any(data[:, 1:] < 0.0):
            return [f"{name}: negative rate"]
        return []
    return check


def _fig3_check(res):
    data = _csv(res.stem)          # T, alpha 1.2, 1.5, 2.0, cir
    probs = []
    if not (np.all(data[:, 1:] > 0.0) and np.all(data[:, 1:] <= 1.0)):
        probs.append("fig3: not discount curves")
    # fig3 runs on the bond set; its "cir" column has sigma_z = 0
    a, b, s, r0 = (ref.BOND_SET[k] for k in ("a", "b", "sigma", "r0"))
    worst = max(max(ref.rel_err(row[3], ref.cir_bond(a, b, BOND_SIGMA_EFF, r0, row[0])),
                    ref.rel_err(row[4], ref.cir_bond(a, b, s, r0, row[0])))
                for row in data)
    if worst > ref.REL_TOL:
        probs.append(f"fig3: CIR closed form off by {worst:.2e}")
    return probs


def single_path(seed: int, client: Client):
    rng = np.random.default_rng(seed)
    alpha_s = float(rng.choice([1.2, 1.5, 1.8]))
    s = _stream_seeds(seed, 5)
    ps = _model_argv(ref.PATH_SET, alpha_s)
    horizon, dt = 20.0, 1e-3
    n_rows = int(round(horizon / dt)) + 1
    reqs = []
    for i, (scheme, nonneg) in enumerate((("root", True), ("thinned", True),
                                          ("lou", False))):
        reqs.append(client.request(
            "simulate", ["simulate", "--scheme", scheme, *ps, "--dt", repr(dt),
                         "--horizon", repr(horizon), "--y", "1.0",
                         "--seed", str(s[i])],
            _path_check(scheme, n_rows, nonneg), primary=True))
    reqs.append(client.request(
        "simulate", ["simulate", "--scheme", "hawkes", "--a", "0.1", "--b", "0.3",
                     "--sigma-z", "0.3", "--horizon", repr(horizon),
                     "--n-agents", "50", "--seed", str(s[3])],
        _path_check("hawkes", 201, True), primary=True))
    reqs += [
        client.request("fig1", ["fig1", "--seed", str(s[4])],
                       _fig12_check("fig1", False)),
        client.request("fig2", ["fig2", "--seed", str(s[4])],
                       _fig12_check("fig2", True)),
        client.request("fig3", ["fig3"], _fig3_check),
    ]
    return reqs, {"draws": {"alpha": alpha_s}, "streams": s}


REQUEST_LISTS = {"pricing": pricing, "jump_laws": jump_laws,
            "monte_carlo": monte_carlo, "single_path": single_path}
