"""Span and count recorder for the traced benchmark run.

The recorder wraps the public functions of every alphacir module from the
outside.  A module that did ``from .mechanism import psi`` holds its own
reference, so each wrapper is rebound under every alphacir module name that
points at the original function.

Two kinds of wrapper:

* span functions get one span per call (name, start, end, parent span,
  request id), kept in memory and written out at the end;
* hot functions (the scalar mechanism, the stable tail integrals and
  samplers) are called millions of times per request, so they only
  accumulate calls, points and self time, and their time counts as a child
  of the enclosing span.

Self time of a span is its duration minus its child spans and hot calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("stable", "mechanism", "affine", "jumps", "derivatives", "sim", "mc",
          "cli")

# Scalar functions called per quadrature node, ODE stage or simulation step.
HOT = {
    "stable": {"levy_density_coefficient", "tail_constant", "levy_density",
               "big_jump_mass", "big_jump_mean",
               "small_jump_compensated_integral", "big_jump_laplace_tail",
               "sample_stable_increment", "sample_pareto_tail",
               "sample_truncated_band", "truncated_second_moment"},
    "mechanism": {"truncated_drift", "truncated_level", "psi", "psi_prime",
                  "phi"},
}
TAIL_INTEGRALS = ("stable.small_jump_compensated_integral",
                  "stable.big_jump_laplace_tail")
PSI_VARIANTS = ("full", "truncated", "tempered")
SINGLE_PATH = ("sim.simulate_root", "sim.simulate_thinned", "sim.simulate_lou")

_perf = time.perf_counter


def _points(x) -> int:
    return 1 if isinstance(x, float) else int(np.size(x))


class Recorder:
    """Spans, hot-call aggregates and counters of one traced pass."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent, request, hot_s]
        self.open = []             # indices of the spans still running
        self.hot_stack = []        # child time of the running hot calls
        self.hot = defaultdict(lambda: [0, 0, 0.0])   # calls, points, self_s
        self.counts = defaultdict(float)
        self.request = None
        self._saved = []           # (module, name, original)

    # ---------------------------------------------------------- wrappers

    def hot_wrapper(self, fn, measure):
        """Wrap fn so that each call only adds to an aggregate.  measure maps
        the call's (args, kwargs) to its aggregate and its point count."""
        stack = self.hot_stack

        def wrapper(*args, **kwargs):
            agg, pts = measure(args, kwargs)
            stack.append(0.0)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                d = _perf() - t0
                child = stack.pop()
                agg[0] += 1
                agg[1] += pts
                agg[2] += d - child
                if stack:
                    stack[-1] += d
                elif self.open:
                    self.spans[self.open[-1]][5] += d
        return wrapper

    def _measure(self, name):
        """The aggregate and point count of one hot call of name."""
        if name == "mechanism.psi":
            # keyed by the mechanism variant; points are the array elements
            # of q, so the count keeps its meaning once psi is vectorized
            aggs = {v: self.hot[f"{name}.{v}"] for v in PSI_VARIANTS}

            def measure(args, kwargs):
                spec = args[2] if len(args) > 2 else kwargs.get("spec")
                agg = aggs[spec.variant if spec is not None else "full"]
                return agg, _points(args[0] if args else kwargs["q"])
        elif name == "stable.sample_stable_increment":
            agg = self.hot[name]         # points are the variates drawn

            def measure(args, kwargs):
                size = args[3] if len(args) > 3 else kwargs.get("size")
                return agg, 1 if size is None else int(np.prod(size))
        else:
            agg = self.hot[name]

            def measure(args, kwargs):
                return agg, 1
        return measure

    def span_wrapper(self, fn, name):
        post = _POST.get(name)
        sig = inspect.signature(fn) if post else None

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self.open[-1] if self.open else -1
            span = [name, 0.0, 0.0, parent, self.request, 0.0]
            self.spans.append(span)
            self.open.append(idx)
            before = dict(self.counts) if post else None
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[1], span[2] = t0, _perf()
                self.open.pop()
            if post:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                post(self, bound.arguments, out, before)
            return out
        return wrapper

    # ---------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every public function of the layer modules and rebind it in
        every alphacir module that imported it."""
        pkg = importlib.import_module("alphacir")
        modules = [pkg] + [importlib.import_module(f"alphacir.{m}")
                           for m in LAYERS]
        for layer, mod in zip(LAYERS, modules[1:]):
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{fname}"
                if fname in HOT.get(layer, ()):
                    wrapped = self.hot_wrapper(fn, self._measure(name))
                else:
                    wrapped = self.span_wrapper(fn, name)
                for target in modules:
                    if vars(target).get(fname) is fn:
                        self._saved.append((target, fname, fn))
                        setattr(target, fname, wrapped)

    def uninstall(self) -> None:
        for target, fname, fn in reversed(self._saved):
            setattr(target, fname, fn)
        self._saved.clear()

    # ---------------------------------------------------------- results

    def function_table(self):
        """Per function: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, t0, t1, _, _, hot_s) in enumerate(self.spans):
            row = table[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - child[i] - hot_s
        for name, (calls, _, self_s) in self.hot.items():
            row = table[name]
            row[0] += calls
            row[2] += self_s
        return table

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans called name that run inside a span called ancestor."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            n += parent >= 0
        return n

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request",
                                  "hot_child_s"],
                       "spans": self.spans,
                       "hot": {k: {"calls": v[0], "points": v[1],
                                   "self_s": v[2]}
                               for k, v in self.hot.items()}}, fh)

    def metrics(self) -> dict:
        table = self.function_table()
        c = self.counts

        def calls(n):
            return table[n][0] if n in table else 0

        def self_s(*names):
            return sum(table[n][2] for n in names if n in table)

        def incl(*names):
            return sum(table[n][1] for n in names if n in table)

        def rate(num, den):
            return num / den if den > 0.0 else 0.0

        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (sum(r[2] for n, r in table.items()
                                        if n.startswith(layer + ".")), "s")
        puts = calls("derivatives.put_price")
        m.update({
            "derivatives.put_laplace.calls": (calls("derivatives.put_laplace"), "count"),
            "derivatives.put_laplace.calls_per_price": (
                rate(self.count_under("derivatives.put_laplace",
                                      "derivatives.put_price"), puts), "count"),
            "derivatives.put_laplace.self_s": (self_s("derivatives.put_laplace"), "s"),
            "derivatives.effective_strike.calls": (calls("derivatives.effective_strike"), "count"),
            "derivatives.effective_strike.self_s": (self_s("derivatives.effective_strike"), "s"),
            "derivatives.gaver_stehfest.self_s": (self_s("derivatives.gaver_stehfest"), "s"),
            "derivatives.gaver_stehfest_weights.calls": (
                calls("derivatives.gaver_stehfest_weights"), "count"),
            "derivatives.cache_hit_ratio": (
                rate(c["cache_hits"], c["cache_hits"] + c["cache_misses"]), "ratio"),
        })
        pts_total, psi_self = 0, 0.0
        for v in PSI_VARIANTS:
            calls_v, pts, s = self.hot.get(f"mechanism.psi.{v}", (0, 0, 0.0))
            m[f"mechanism.psi.{v}.calls"] = (calls_v, "count")
            m[f"mechanism.psi.{v}.points"] = (pts, "count")
            m[f"mechanism.psi.{v}.self_s"] = (s, "s")
            pts_total += pts
            psi_self += s
        roots = ("mechanism.root_psi_equals_one", "mechanism.fixed_point_truncated")
        m.update({
            "mechanism.psi.points_per_s": (rate(pts_total, psi_self), "1/s"),
            "mechanism.psi_prime.calls": (calls("mechanism.psi_prime"), "count"),
            "mechanism.psi_prime.self_s": (self_s("mechanism.psi_prime"), "s"),
            "mechanism.roots.calls": (sum(calls(n) for n in roots), "count"),
            "mechanism.roots.self_s": (self_s(*roots), "s"),
            "affine.solve_v.calls": (calls("affine.solve_v"), "count"),
            "affine.solve_v.steps": (c["solve_v_steps"], "count"),
            "affine.solve_v.self_s": (self_s("affine.solve_v"), "s"),
            "affine.joint_laplace.self_s": (self_s("affine.joint_laplace"), "s"),
            "affine.stationary_laplace.self_s": (self_s("affine.stationary_laplace"), "s"),
            "jumps.expected_tau.calls": (calls("jumps.expected_tau"), "count"),
            "jumps.expected_tau.self_s": (self_s("jumps.expected_tau"), "s"),
            "jumps.survival_curve.self_s": (self_s("jumps.survival_curve"), "s"),
            "jumps.counter_laplace.self_s": (self_s("jumps.counter_laplace"), "s"),
            "stable.tail_integral.calls": (sum(calls(n) for n in TAIL_INTEGRALS), "count"),
            "stable.tail_integral.self_s": (self_s(*TAIL_INTEGRALS), "s"),
        })
        draws = self.hot.get("stable.sample_stable_increment", (0, 0, 0.0))[1]
        sampler_s = self_s("stable.sample_stable_increment")
        m.update({
            "stable.sample_stable_increment.draws": (draws, "count"),
            "stable.sample_stable_increment.self_s": (sampler_s, "s"),
            "stable.sample_stable_increment.draws_per_s": (rate(draws, sampler_s), "1/s"),
        })
        for scheme in ("root", "thinned", "lou"):
            steps = c[f"{scheme}_path_steps"]
            m[f"sim.{scheme}.path_steps"] = (steps, "count")
            m[f"sim.{scheme}.path_steps_per_s"] = (
                rate(steps, incl(f"sim.simulate_{scheme}_batch")), "1/s")
        m.update({
            "sim.hawkes.paths": (c["hawkes_paths"], "count"),
            "sim.hawkes.paths_per_s": (
                rate(c["hawkes_paths"], incl("sim.simulate_hawkes_batch")), "1/s"),
            "sim.kept_path_bytes": (c["kept_path_bytes"], "bytes"),
            "sim.single.steps_per_s": (rate(c["single_steps"], incl(*SINGLE_PATH)), "1/s"),
            "mc.estimates": (c["mc_estimates"], "count"),
            "mc.horizon_restarts": (c["horizon_restarts"], "count"),
            "mc.first_passage.useful_step_ratio": (
                rate(c["first_passage_useful"], c["first_passage_steps"]), "ratio"),
            "cli.run.calls": (calls("cli.run"), "count"),
            "cli.run.self_s": (self_s("cli.run"), "s"),
            "cli.bytes_written": (c["cli_bytes"], "bytes"),
        })
        return m


# ------------------------------------------------------------ post hooks
# Each hook reads the bound arguments and the result of one span call and
# adds the counts that a plain call count cannot give.


def _n_steps(dt, horizon):
    return int(round(horizon / dt))


def _kept(rec, a, n_steps):
    if a.get("keep_paths"):
        size = a["n_paths"] * (n_steps + 1) * 8
        rec.counts["kept_path_bytes"] = max(rec.counts["kept_path_bytes"], size)


def _post_solve_v(rec, a, out, before):
    rec.counts["solve_v_steps"] += len(out.grid) - 1


def _post_root(rec, a, out, before):
    n = _n_steps(a["dt"], a["horizon"])
    rec.counts["root_path_steps"] += a["n_paths"] * n
    _kept(rec, a, n)


def _post_thinned(rec, a, out, before):
    n = _n_steps(a["dt"], a["horizon"])
    rec.counts["thinned_path_steps"] += a["n_paths"] * n
    rec.counts["thinned_calls"] += 1
    _kept(rec, a, n)
    if a.get("stop_at_first_event"):
        first = out[2]
        before_event = np.minimum(np.ceil(first / a["dt"]), n)
        rec.counts["first_passage_useful"] += float(before_event.sum())
        rec.counts["first_passage_steps"] += a["n_paths"] * n


def _post_lou(rec, a, out, before):
    n = _n_steps(a["dt"], a["horizon"])
    rec.counts["lou_path_steps"] += a["n_paths"] * n
    _kept(rec, a, n)


def _post_hawkes(rec, a, out, before):
    rec.counts["hawkes_paths"] += a["n_paths"]


def _post_single(rec, a, out, before):
    rec.counts["single_steps"] += len(out.times) - 1


def _estimates(out) -> int:
    if isinstance(out, (list, tuple)):
        return sum(_estimates(x) for x in out)
    return 1 if hasattr(out, "std_error") else 0


def _post_mc(rec, a, out, before):
    rec.counts["mc_estimates"] += _estimates(out)


def _post_mc_tau(rec, a, out, before):
    _post_mc(rec, a, out, before)
    batches = rec.counts["thinned_calls"] - before.get("thinned_calls", 0.0)
    rec.counts["horizon_restarts"] += max(batches - 1, 0)


_POST = {
    "affine.solve_v": _post_solve_v,
    "sim.simulate_root_batch": _post_root,
    "sim.simulate_thinned_batch": _post_thinned,
    "sim.simulate_lou_batch": _post_lou,
    "sim.simulate_hawkes_batch": _post_hawkes,
    "sim.simulate_root": _post_single,
    "sim.simulate_thinned": _post_single,
    "sim.simulate_lou": _post_single,
    "mc.mc_expected_tau": _post_mc_tau,
}
for _name in ("mc_bond", "mc_laplace", "mc_survival", "mc_counter",
              "mc_stationary_laplace", "mc_lou_first_jump_cdf",
              "mc_running_min_put"):
    _POST[f"mc.{_name}"] = _post_mc


def result_metrics(m: dict) -> dict:
    """Result-line form: {name: {"value": v, "unit": u}} with plain floats."""
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in m.items()}
