"""Timing corrected for the speed of the machine at the moment of measuring.

On a shared host one core's speed swings by tens of percent for seconds at
a time: one 9 s workload took between 5.8 and 10.3 s in six back-to-back
processes.  A ``CalibratedTimer`` therefore samples the machine while the
timed code runs.  Every ``PERIOD`` seconds a SIGALRM handler runs a fixed
pure-Python probe on the same core, between the timed code's bytecodes.
The region's wall time minus the probes' own time is scaled by the mean of
``REF`` / probe time, which gives the seconds the code would have taken at
the speed at which the probe takes ``REF`` seconds.  In the six processes
above the calibrated times stayed within 2 % of each other.

The handler and the interval timer belong to the main thread, so the timer
is used there only and not nested.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.05  # seconds between probes
REF = 0.0015   # probe seconds at the reference speed


def probe():
    """Seconds taken by a fixed mix of Fraction arithmetic and dict stores,
    the operations that dominate the engine."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 400):
        acc += Fraction(i % 7, i % 11 + 1)
        seen[i % 13] = acc
    return time.perf_counter() - t0


class CalibratedTimer:
    """``with CalibratedTimer() as t: ...`` sets ``t.wall`` (raw seconds)
    and ``t.seconds`` (seconds at the reference speed)."""

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def _sample(self, signum, frame):
        self.samples.append(probe())

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.wall = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        busy = self.wall - sum(self.samples)
        speeds = [REF / c for c in self.samples or [probe()]]
        self.seconds = busy * statistics.fmean(speeds)
        return False
