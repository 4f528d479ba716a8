"""Reference clock: a fixed exact-arithmetic kernel sampled during items.

The host's speed drifts by a fifth and more within seconds, so raw item
times from two runs of the same code disagree by more than any useful
bound. While an item runs, a real-time interval timer interrupts it every
`INTERVAL_S` and the signal handler times one call of a fixed
standard-library kernel (`fractions.Fraction` arithmetic, no `minsurf4`
code) in the same process. An item's work time is its wall time minus the
kernel's; it is divided by the kernel's mean per-call time over a window of
at least `WINDOW` samples around the item. The result is in
reference-seconds: one reference-second is the time of
`CALLS_PER_REF_SECOND` kernel calls, a constant chosen so that it is about
one second on the 2-core machine the README describes.

`RefClock.record` and everything after it is plain arithmetic on timings,
so it is tested on synthetic numbers.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

CALLS_PER_REF_SECOND = 1800
INTERVAL_S = 0.02
WINDOW = 30
_TERMS = 60


def kernel_call():
    """One kernel call: a fixed exact sum of 59 Fraction products."""
    x = Fraction(0)
    for i in range(1, _TERMS):
        x += Fraction(i, i + 1) * Fraction(2 * i + 1, 3 * i + 2)
    return x


_EXPECTED = kernel_call()


def timed_kernel_call():
    """Seconds taken by one kernel call; a wrong result stops the run."""
    t0 = time.perf_counter()
    if kernel_call() != _EXPECTED:
        raise RuntimeError("reference kernel returned a wrong value")
    return time.perf_counter() - t0


class RefClock:
    """Work times of items and the kernel samples taken during each."""

    def __init__(self):
        self.work_s = []
        self.samples = []
        self._current = None

    def _on_alarm(self, signum, frame):
        self._current.append(timed_kernel_call())

    def call(self, fn, *args):
        """Run one item under the sampling timer; record it even when it
        raises, and return its result."""
        self._current = samples = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.record(dt - sum(samples), samples)

    def record(self, work_s, samples):
        self.work_s.append(work_s)
        self.samples.append(list(samples))

    def _window(self, i):
        """Kernel samples of item i and of its nearest neighbours, until
        there are at least WINDOW of them or no items are left."""
        out = list(self.samples[i])
        lo = hi = i
        last = len(self.samples) - 1
        while len(out) < WINDOW and (lo > 0 or hi < last):
            if lo > 0:
                lo -= 1
                out += self.samples[lo]
            if hi < last:
                hi += 1
                out += self.samples[hi]
        return out

    def ref_seconds(self):
        """Per-item work times in reference-seconds."""
        out = []
        for i, work in enumerate(self.work_s):
            window = self._window(i)
            if not window:
                raise RuntimeError("no kernel samples: the run is shorter than one interval")
            out.append(work / (statistics.fmean(window) * CALLS_PER_REF_SECOND))
        return out

    def summary(self, units):
        """Rates for `units` of work done over the recorded items."""
        work = sum(self.work_s)
        samples = [s for item in self.samples for s in item]
        return {
            "items_per_ref_s": units / sum(self.ref_seconds()),
            "items_per_wall_s": units / work,
            "kernel_calls_per_s": len(samples) / sum(samples),
            "kernel_samples": len(samples),
            "work_s": work,
            "kernel_s": sum(samples),
        }
