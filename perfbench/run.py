"""alphacir benchmark: one closed-loop client, one process per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; alphacir is imported from ./src.
The run first times set-up (a fresh process importing alphacir and warming
every layer) several times, then sends the workload's request list in
passes, each request only after the previous one returned, for as many
whole passes as fit in --seconds.  Every output is checked (see
workloads.py and reference.py).

--trace 0 reports the end-to-end metrics, with every time scaled to a
nominal host speed (see speed.py; the report line also holds the wall
times).  --trace 1 skips the set-up timing, runs one untraced and one
traced pass, reports the per-layer metrics of the traced pass (see
tracer.py) with the tracing overhead, and writes its spans to
.bench_out/trace_<workload>_<seed>.json.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it holds the full report: environment, per-kind medians
with sample counts, the failures and the workload's draws.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5


def parse_args(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def time_setup(work_dir: str) -> list:
    """Scaled wall times of fresh processes that import alphacir and warm
    up; each is scaled by calibration slices run right before and after."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        slices = [speed.calibration_slice() for _ in range(5)]
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "warmup.py"), work_dir],
                       env=env, check=True, timeout=120,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        slices += [speed.calibration_slice() for _ in range(5)]
        samples.append(wall * speed.NOMINAL_SLICE_S / statistics.fmean(slices))
    return samples


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "alphacir").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "git_commit": commit, "source_sha256": digest.hexdigest(),
            "seed": seed}


def lru_caches():
    """Every functools cache in the alphacir modules."""
    out = []
    for name, mod in sorted(sys.modules.items()):
        if name == "alphacir" or name.startswith("alphacir."):
            out += [f for f in vars(mod).values()
                    if callable(getattr(f, "cache_info", None))]
    return out


def _call(req):
    try:
        return req.call(), None
    except Exception:                          # a request that raised
        return None, traceback.format_exc(limit=3)


class Loop:
    """Closed loop over a request list; collects latencies and failures."""

    def __init__(self, requests):
        self.requests = requests
        self.caches = lru_caches()
        self.latency = []          # (kind, primary, scaled seconds, wall seconds)
        self.pass_busy = []        # summed scaled request latency of each pass
        self.pass_wall = []        # the same in wall seconds
        self.attempted = 0
        self.failures = []
        self.warnings = 0
        self.bytes_written = 0
        self.cache_hits = self.cache_misses = 0

    def run_pass(self, probe=None, recorder=None):
        """One pass over the requests.  With a speed probe the latencies are
        scaled to the nominal host speed (speed.py), else they are wall."""
        from workloads import collect_output

        for cache in self.caches:  # every pass starts from cold caches
            cache.cache_clear()
        busy = wall_busy = 0.0
        for i, req in enumerate(self.requests):
            if recorder is not None:
                recorder.request = i
            self.attempted += 1
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if probe is None:
                    t0 = time.perf_counter()
                    out, err = _call(req)
                    dt = wall = time.perf_counter() - t0
                else:
                    (out, err), dt, wall = probe.timed(lambda: _call(req))
            self.warnings += len(caught)
            busy += dt
            wall_busy += wall
            self.latency.append((req.kind, req.primary, dt, wall))
            problems = [f"{req.kind}: raised\n{err}"] if err else []
            if not err:
                try:
                    problems = req.check(out)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems = [f"{req.kind}: unreadable output ({exc!r})"]
            if problems:
                self.failures.append({"request": i, "problems": problems})
            self.bytes_written += collect_output(req.stem)
        for cache in self.caches:
            info = cache.cache_info()
            self.cache_hits += info.hits
            self.cache_misses += info.misses
        self.pass_busy.append(busy)
        self.pass_wall.append(wall_busy)
        return busy

    def kinds(self):
        by = {}
        for kind, _, dt, wall in self.latency:
            by.setdefault(kind, []).append((dt, wall))
        return {k: {"median_s": statistics.median(d for d, _ in v),
                    "median_wall_s": statistics.median(w for _, w in v),
                    "n": len(v)}
                for k, v in by.items()}


def end_to_end(loop: Loop, setup: list) -> dict:
    primary = [dt for _, p, dt, _ in loop.latency if p]
    # Means, not medians: the primary requests of one pass differ in cost,
    # so a median would jump between them.  Per-kind medians are in the
    # report.
    return {
        "setup_s": (statistics.median(setup), "s"),
        "job_s": (statistics.fmean(loop.pass_busy), "s"),
        "primary_s": (statistics.fmean(primary), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def main(argv=None) -> int:
    if not (SRC / "alphacir" / "__init__.py").is_file():
        print(f"benchmark: no alphacir source under {SRC}; run it from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)

    import tracer
    import workloads
    from warmup import warm_up

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup = [] if args.trace else time_setup(str(work_dir))
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            warm_up(str(work_dir))
        client = workloads.Client(str(work_dir))
        requests, info = workloads.REQUEST_LISTS[args.workload](args.seed, client)
        loop = Loop(requests)
        report = {"workload": args.workload, "env": environment(args.seed),
                  "primary_kind": workloads.PRIMARY[args.workload],
                  "setup_samples_s": setup,
                  "slice_nominal_s": speed.NOMINAL_SLICE_S, **info}
        if args.trace:
            untraced = loop.run_pass()
            before = (loop.cache_hits, loop.cache_misses, loop.bytes_written)
            rec = tracer.Recorder()
            rec.install()
            try:
                traced = loop.run_pass(recorder=rec)
            finally:
                rec.uninstall()
            rec.counts["cache_hits"] = loop.cache_hits - before[0]
            rec.counts["cache_misses"] = loop.cache_misses - before[1]
            rec.counts["cli_bytes"] = loop.bytes_written - before[2]
            metrics = rec.metrics()
            metrics["trace.overhead_s"] = (traced - untraced, "s")
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            rec.dump(out_dir / f"trace_{args.workload}_{args.seed}.json")
            report.update({"untraced_job_s": untraced, "traced_job_s": traced,
                           "spans": len(rec.spans)})
        else:
            start = time.perf_counter()
            with speed.SpeedProbe() as probe:
                while True:
                    t0 = time.perf_counter()
                    loop.run_pass(probe)
                    last = time.perf_counter() - t0
                    if time.perf_counter() - start + last > args.seconds:
                        break
            metrics = end_to_end(loop, setup)
            report.update({"slices": len(probe.samples),
                           "slice_median_s": statistics.median(probe.samples)})
        report.update({"pass_busy_s": loop.pass_busy,
                       "pass_wall_s": loop.pass_wall, "kinds": loop.kinds(),
                       "warnings": loop.warnings, "failures": loop.failures,
                       "cache_hits": loop.cache_hits,
                       "cache_misses": loop.cache_misses})
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            (ROOT / ".bench_work").rmdir()
    failed = len(loop.failures)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": loop.attempted,
                      "failed": failed,
                      "metrics": tracer.result_metrics(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
