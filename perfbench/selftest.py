"""Self-tests of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Each workload is run on a few of its cheapest requests, untraced and
traced, and must emit exactly the metric names of BENCHMARK.json with a
unit.  A deliberately wrong reference value must make requests fail, and a
directory without the alphacir source must make the benchmark exit
non-zero without a result line.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHEAP = {"pricing": ("bond", "yield"),
         "jump_laws": ("jump-survival",),
         "monte_carlo": ("hawkes-limit", "mc_running_min_put"),
         "single_path": ("fig3",)}


def tiny(name):
    """The real request list of a workload, keeping only its cheap requests."""
    make = workloads.REQUEST_LISTS[name]

    def cheap(seed, client):
        reqs, info = make(seed, client)
        reqs = [r for r in reqs if r.kind in CHEAP[name]]
        reqs[0].primary = True             # the real primary kinds are slow
        return reqs, info
    return cheap


def run_tiny(name, trace):
    buf = io.StringIO()
    saved = workloads.REQUEST_LISTS[name], run.SETUP_SAMPLES
    workloads.REQUEST_LISTS[name], run.SETUP_SAMPLES = tiny(name), 1
    try:
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                             "--trace", str(trace)])
    finally:
        workloads.REQUEST_LISTS[name], run.SETUP_SAMPLES = saved
    assert code == 0
    return json.loads(buf.getvalue().splitlines()[-1])


class MetricNames(unittest.TestCase):
    def test_every_metric_with_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    res = run_tiny(name, trace)
                    self.assertEqual(set(res), {"correct", "attempted", "failed",
                                                "metrics"})
                    self.assertTrue(res["correct"], res)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {k: v["unit"] for k, v in res["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in res["metrics"].values():
                        self.assertIsInstance(v["value"], float)

    def test_workloads_match_spec(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]),
                         workloads.WORKLOADS)


class Fingerprint(unittest.TestCase):
    def test_wrong_reference_fails_requests(self):
        saved = reference.BOND_T5
        reference.BOND_T5 = saved * (1.0 + 1e-6)
        try:
            res = run_tiny("pricing", 0)
        finally:
            reference.BOND_T5 = saved
        # the alpha = 1.5 bond curve and the yield derived from it miss
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 2)

    def test_same_seed_same_requests(self):
        for name in workloads.WORKLOADS:
            a = workloads.REQUEST_LISTS[name](11, workloads.Client("w"))[1]
            b = workloads.REQUEST_LISTS[name](11, workloads.Client("w"))[1]
            self.assertEqual(a, b)


class Tracer(unittest.TestCase):
    def test_rebinding_and_self_time(self):
        import tracer
        from alphacir import affine, derivatives, mechanism

        original = mechanism.psi
        rec = tracer.Recorder()
        rec.install()
        try:
            self.assertIs(derivatives.psi, mechanism.psi)
            self.assertIs(affine.psi, mechanism.psi)
            self.assertIsNot(mechanism.psi, original)
            p = mechanism.ModelParams(a=0.1, b=0.3, sigma=0.1, sigma_z=0.3,
                                      alpha=1.5, r0=0.05)
            affine.bond_price(0.0, 1.0, 0.05, p)
        finally:
            rec.uninstall()
        self.assertIs(mechanism.psi, original)
        table = rec.function_table()
        calls, incl, self_s = table["affine.bond_price"]
        self.assertEqual(calls, 1)
        self.assertLessEqual(self_s, incl)
        m = rec.metrics()
        self.assertGreater(m["mechanism.psi.full.calls"][0], 0)
        self.assertEqual(m["affine.solve_v.calls"][0], 1)
        inner = sum(table[n][2] for n in table)
        self.assertAlmostEqual(inner, incl, delta=1e-3 * incl + 1e-6)


class Speed(unittest.TestCase):
    def test_scaled_time_is_wall_at_nominal_speed(self):
        import speed

        def work():                  # Python-level, so the alarm can land
            return sum(i * i for i in range(4_000_000))

        with speed.SpeedProbe() as probe:
            out, scaled, wall = probe.timed(work)
        self.assertEqual(out, sum(i * i for i in range(4_000_000)))
        self.assertGreaterEqual(len(probe.samples), 2)   # before and during
        self.assertAlmostEqual(scaled, wall * probe.scale(), delta=1e-3 * scaled)
        # the slices run inside the request are not part of its wall time
        self.assertLess(probe.spent, wall)


class MissingSource(unittest.TestCase):
    def test_exits_nonzero_without_source(self):
        bare = ROOT / ".bench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "pricing",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
                env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            with contextlib.suppress(OSError):
                bare.parent.rmdir()
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
