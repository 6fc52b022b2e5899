"""Host speed samples, to take the host's speed swings out of timings.

On a shared host the speed of this process swings by up to 1.6x within
a fraction of a second as other tenants come and go, and its CPU time
swings with it, so a plain timing says as much about the neighbours as
about contactsurg. ``SpeedProbe`` times a fixed pure-Python loop and a
walk over scattered pages every 10 ms of CPU time, from a SIGPROF
handler (no thread), and ``seconds`` converts a measured interval into
reference seconds: its length times the mean of
``PROBE_REF_NS / probe time`` over the samples taken inside it. A slower neighbour slows the probe and the program alike and
cancels out; a change to contactsurg moves reference seconds as it
moves plain ones, since the probe runs none of its code.
"""

from __future__ import annotations

import bisect
import mmap
import random
import signal
import statistics
import time

PROBE_INTERVAL_S = 0.01
PROBE_LOOP = 300
PROBE_PAGES = 300
# Sets the unit only: on the host the baseline was measured on (Intel
# Xeon, 2 vCPUs, Python 3.11.7) a reference second is then about a plain
# second when the host is idle.
PROBE_REF_NS = 30_000
WARMUP_SAMPLES = 50
MIN_SAMPLES = 5


class SpeedProbe:
    """Samples the host's speed while it is entered."""

    def __init__(self, interval_s: float = PROBE_INTERVAL_S):
        self.interval_s = interval_s
        # Reads scattered over more pages than the TLB holds: the program's
        # big-integer and Fraction work feels memory contention that a
        # loop in the first-level caches does not.
        self._pages = mmap.mmap(-1, PROBE_PAGES * 4 * mmap.PAGESIZE)
        self._offsets = random.Random(0).sample(range(0, len(self._pages), mmap.PAGESIZE),
                                                PROBE_PAGES)
        self.times = []  # perf_counter_ns at the start of each sample
        self.ratios = []  # PROBE_REF_NS over the sample's duration
        self.busy_ns = 0  # time spent probing, warm-up included
        for _ in range(WARMUP_SAMPLES):  # the interpreter specialises the loop
            self._sample()
        del self.times[:-1], self.ratios[:-1]

    def _sample(self, signum=None, frame=None):
        # The first round brings the probe back into the caches the program
        # evicted, so that only the second, timed one sees the host's speed.
        pages = self._pages
        first = time.perf_counter_ns()
        for _ in range(2):
            start = time.perf_counter_ns()
            x = 0
            for i in range(PROBE_LOOP):
                x += i * i % 7
            for offset in self._offsets:
                x += pages[offset]
        end = time.perf_counter_ns()
        self.times.append(start)
        self.ratios.append(PROBE_REF_NS / (end - start))
        self.busy_ns += end - first

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def factor(self, start_ns: int, end_ns: int) -> float:
        """Reference seconds per plain second over the interval: the mean
        over the samples inside it, widened to the nearest
        ``MIN_SAMPLES`` for an interval too short to hold that many."""
        lo = bisect.bisect_left(self.times, start_ns)
        hi = bisect.bisect_right(self.times, end_ns)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return statistics.fmean(self.ratios[lo:hi])

    def seconds(self, start_ns: int, end_ns: int) -> float:
        """Reference seconds of the interval."""
        return (end_ns - start_ns) / 1e9 * self.factor(start_ns, end_ns)
