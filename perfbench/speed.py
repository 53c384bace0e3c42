"""A reference for machine speed, sampled while a pass runs.

The end-to-end timings are reported in `ref` units: an item's own time over
the time a fixed kernel took around that moment.  The benchmark was built on
two cores of a shared host whose speed moved by up to 2x within seconds and
between batches of runs, for this kernel as much as for dgkit; raw seconds
there spread past any useful bound, while the ratio held within a few
percent.  The kernel is the benchmark's own code (Fraction matrix products,
the arithmetic dgkit spends its time on), so a change to dgkit moves only
the numerator.

While a `Probe` runs, an interval timer interrupts the pass every
`INTERVAL_S` seconds and the signal handler times one kernel call.  The
handler runs between bytecodes of whatever dgkit is doing, so the samples
cover long items as well as short ones; the time they take is taken back out
of the item they interrupted.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from array import array
from bisect import bisect_left
from fractions import Fraction

INTERVAL_S = 0.02
# samples within this many seconds of an item give its reference
WINDOW_S = 0.5
# fewer samples than this around an item, and the whole pass's reference is used
MIN_SAMPLES = 10
# the slowest tenth of the samples, where the scheduler preempted the kernel
# itself, are left out of the mean
KEEP = 0.9

_A = [[Fraction(i + 2 * j + 1, j + 1) for j in range(4)] for i in range(4)]


def kernel():
    """About half a millisecond of small Fraction matrix products."""
    p = _A
    for _ in range(2):
        p = [[sum(a * b for a, b in zip(row, col)) for col in zip(*_A)] for row in p]
    return p


def trimmed_mean(values) -> float:
    ordered = sorted(values)
    return statistics.fmean(ordered[:max(1, math.ceil(KEEP * len(ordered)))])


class Probe:
    """Kernel timings sampled on an interval timer: start times and durations."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _range(self, a: float, b: float):
        return bisect_left(self.starts, a), bisect_left(self.starts, b)

    def inside(self, a: float, b: float) -> float:
        """Kernel time of the samples that started in [a, b)."""
        lo, hi = self._range(a, b)
        return math.fsum(self.durations[lo:hi])

    def reference(self, a: float, b: float) -> float:
        """The kernel's time around [a, b): the trimmed mean of the samples
        within WINDOW_S of it, or of all samples when that is too few."""
        lo, hi = self._range(a - WINDOW_S, b + WINDOW_S)
        if hi - lo < MIN_SAMPLES:
            lo, hi = 0, len(self.durations)
        if hi == lo:
            raise RuntimeError("the speed probe took no samples")
        return trimmed_mean(self.durations[lo:hi])
