"""Timings corrected for the speed of a shared host.

On a small shared machine the speed of one core drifts with the load of its
neighbours.  On a 2-vCPU virtual machine the same pure-Python loop, timed
for 8 s at a time, gave medians from 0.169 s to 0.244 s: the host switches,
second by second, between a fast and a slow state.  Such drift would hide
any change of the program itself, so every timing here is scaled by the
speed of a fixed calibration kernel measured during it.

While a ``CalibratedClock`` runs, a timer signal runs the kernel every
``PERIOD_S`` seconds in the main thread and records how long it took; the
time spent sampling is left out of every measured interval.  A measured
interval is then multiplied by the mean of ``NOMINAL_S / k`` over the
kernel times k sampled inside it, or, for an interval too short to hold
``MIN_SAMPLES`` samples, by ``NOMINAL_S`` over the median of the
``MIN_SAMPLES`` kernel times nearest to it.
The result reads as seconds on a host where the kernel takes ``NOMINAL_S``.

The kernel builds and sorts a dict of small tuples, the kind of work incgb
does.  Against incgb's own solves and normal forms, timed in turn with it
for 90 s at a time, it cancelled more of the drift than an integer loop, a
strided walk over a large list, or Fraction sums: scaled by it, the quartile
spread of repeated incremental toric solves fell from 0.52 to 0.15 of the median, and
that of batches of normal forms from 0.47 to 0.16.  It uses only the
interpreter, so a change to incgb moves the scaled times exactly as it moves
the raw ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

NOMINAL_S = 0.001
MIN_SAMPLES = 9
PERIOD_S = 0.1
KERNEL_STEPS = 2500


def calibration_kernel():
    """Fixed interpreter work, independent of incgb."""
    table = {}
    for i in range(KERNEL_STEPS):
        key = (i % 101, (i * 31) % 97)
        table[key] = (table.get(key, (0, 0))[0] + i, key)
    return sorted(table.values())[0]


class Interval:
    __slots__ = ("wall0", "wall1", "work_s")

    def __init__(self, wall0, wall1, work_s):
        self.wall0 = wall0
        self.wall1 = wall1
        self.work_s = work_s


class CalibratedClock:
    def __init__(self):
        self.sample_at = []  # wall-clock midpoints, ascending
        self.sample_s = []  # kernel durations
        self.excluded_s = 0.0  # wall time spent sampling
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.sample_at.append((t0 + t1) / 2)
        self.sample_s.append(t1 - t0)
        self.excluded_s += time.perf_counter() - t0

    def now(self):
        """(wall time, wall time less sampling time), read consistently."""
        while True:
            excluded = self.excluded_s
            wall = time.perf_counter()
            if excluded == self.excluded_s:
                return wall, wall - excluded

    def work_now(self):
        return self.now()[1]

    def measure(self, call):
        """Run call(); return (Interval, result)."""
        wall0, work0 = self.now()
        result = call()
        wall1, work1 = self.now()
        return Interval(wall0, wall1, work1 - work0), result

    def factor(self, wall0, wall1):
        """Host-speed factor for the interval [wall0, wall1]; 1.0 unsampled."""
        at = self.sample_at
        if len(at) < MIN_SAMPLES:
            return 1.0
        lo = bisect.bisect_left(at, wall0)
        hi = bisect.bisect_right(at, wall1)
        if hi - lo >= MIN_SAMPLES:
            return NOMINAL_S * statistics.fmean(1 / k for k in self.sample_s[lo:hi])
        mid = bisect.bisect_left(at, (wall0 + wall1) / 2)
        lo = max(0, min(mid - MIN_SAMPLES // 2, len(at) - MIN_SAMPLES))
        return NOMINAL_S / statistics.median(self.sample_s[lo : lo + MIN_SAMPLES])

    def scaled(self, interval):
        return interval.work_s * self.factor(interval.wall0, interval.wall1)
