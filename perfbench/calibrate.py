"""Speed calibration: express timings at one fixed reference machine speed.

On a shared 2-CPU box the same exact computation was measured to run 30-70%
slower for stretches of several seconds, the same in CPU time as in wall
time (neighbouring load, not steal).  No in-run median removes a drift that
lasts longer than the run.  So while a workload runs, a SIGALRM handler
executes a fixed probe every ``INTERVAL_S`` seconds: a small sparse
polynomial product over ``Fraction``, the same kind of work as the engine's
kernel, written here so that no change to the engine can alter it.  Every
timed interval is then

    calibrated = (raw - probe time inside it) * REFERENCE_PROBE_S / probe median

where the probe median is taken over the probes inside the interval, widened
to the ``MIN_PROBES`` nearest ones for short intervals.  The result is in
seconds at the speed at which the probe takes exactly ``REFERENCE_PROBE_S``.
Raw times are printed next to calibrated ones for comparison.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.025
MIN_PROBES = 9
# About the probe's median duration on a 2-CPU Xeon VM with Python 3.11, so
# that calibrated times there read close to raw ones.
REFERENCE_PROBE_S = 0.001

_TERMS = [((i % 4, i // 4), Fraction(i + 1, 7 - i % 5)) for i in range(12)]


def probe():
    """A fixed sparse product over Q; its duration measures current speed."""
    acc = {}
    for ka, ca in _TERMS:
        for kb, cb in _TERMS:
            key = (ka[0] + kb[0], ka[1] + kb[1])
            acc[key] = acc.get(key, 0) + ca * cb
    return acc


class SpeedTrack:
    """Samples the probe on a timer while active; calibrates intervals after."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum, frame):
        start = perf_counter()
        probe()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def _window(self, start, end):
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.starts, end)
        return lo, hi

    def probe_median(self, start, end):
        """Median probe duration around [start, end]."""
        lo, hi = self._window(start, end)
        if hi - lo < MIN_PROBES:
            if len(self.durations) < MIN_PROBES:
                raise RuntimeError("too few calibration probes were taken")
            mid = (lo + hi) // 2
            lo = min(max(mid - MIN_PROBES // 2, 0), len(self.durations) - MIN_PROBES)
            hi = lo + MIN_PROBES
        return statistics.median(self.durations[lo:hi])

    def raw(self, start, end):
        """Seconds in [start, end] that were not spent probing."""
        lo, hi = self._window(start, end)
        return (end - start) - sum(self.durations[lo:hi])

    def calibrated(self, start, end):
        """Seconds in [start, end] at the reference speed, probes excluded."""
        return self.raw(start, end) * REFERENCE_PROBE_S / self.probe_median(start, end)
