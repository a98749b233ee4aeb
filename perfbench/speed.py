"""Host-speed probe: scales measured times to a nominal host speed.

The benchmark shares its host, whose speed swings by up to 1.8x over
seconds and drifts over minutes; a fixed pure-Python loop shows the same
swings in wall and in CPU time.  So every request is timed together with a
fixed calibration slice: one slice right before the request, then one every
INTERVAL seconds while it runs (from SIGALRM, so the slices also land inside
long requests).  A request's scaled time is

    wall seconds (minus the slices run inside it)
        * NOMINAL_SLICE_S / mean slice seconds during the request,

i.e. the seconds it would have taken on a host where the slice takes
NOMINAL_SLICE_S.  A slower program reads slower, a slower host does not.

A slice is timed in CPU time of its own thread.  The host's swings show in
it just as in wall time, but a slice that lands while the program's own
worker processes hold every core is not counted as slow for the time it
waits for a core; so a program that uses more cores is not flattered.
"""

from __future__ import annotations

import signal
import statistics
import time

_perf = time.perf_counter

SLICE_ITERS = 50_000
NOMINAL_SLICE_S = 0.004    # the slice's median on the 2-core Xeon it was set on
INTERVAL = 0.2


def calibration_slice() -> float:
    """CPU seconds of a fixed pure-Python loop."""
    t0 = time.thread_time()
    s = 0
    for j in range(SLICE_ITERS):
        s += j * j
    return time.thread_time() - t0


class SpeedProbe:
    """Calibration slices taken while requests run."""

    def __init__(self):
        self.samples = []          # slice seconds, in order
        self.spent = 0.0           # seconds spent running slices

    def sample(self) -> None:
        t0 = _perf()
        self.samples.append(calibration_slice())
        self.spent += _perf() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def timed(self, call):
        """Run call(); return (result, scaled seconds, wall seconds)."""
        self.sample()
        first, spent = len(self.samples) - 1, self.spent
        t0 = _perf()
        try:
            out = call()
        finally:
            wall = _perf() - t0 - (self.spent - spent)
        return out, wall * self.scale(first), wall

    def scale(self, first: int = 0) -> float:
        return NOMINAL_SLICE_S / statistics.fmean(self.samples[first:])
