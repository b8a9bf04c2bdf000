"""Machine-speed sampling, to take the host's drift out of the timings.

On a shared machine the same job can run tens of percent slower from one
minute to the next, because other tenants contend for the cores.  While
a phase is measured, a SIGALRM timer runs a fixed reference kernel every
``INTERVAL`` seconds, in the process doing the work, and records how long
it took.  A measured interval is then reported in *reference seconds*:
its duration, minus the time the sampler itself took inside it, times the
mean of ``REFERENCE_S / kernel time`` over the samples in it.  On a
machine where the kernel takes ``REFERENCE_S`` this equals the wall time.

The kernel does exact row operations on ``fractions.Fraction``, like the
program's own elimination; of the kernels tried, it tracked the program's
slowdowns best.  It is standard-library code, so no change to the program
can change it.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

INTERVAL = 0.01
REFERENCE_S = 0.0005


def reference_kernel():
    row = [Fraction(i + 1, i % 7 + 2) for i in range(24)]
    pivot = Fraction(3, 5)
    for _ in range(5):
        row = [x - pivot * y for x, y in zip(row, row[1:] + row[:1])]
    return row


class SpeedSampler:
    """Speed samples, taken on a timer while used as a context manager,
    or added from a child process that took them (see :meth:`add`)."""

    def __init__(self):
        self.starts = []        # sample start times, increasing
        self.durations = []
        self._previous = None
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:      # a tick arrived while the kernel still ran
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def add(self, starts, durations):
        """Merge samples taken by another process (``perf_counter`` is
        the system-wide monotonic clock on Linux)."""
        merged = sorted(zip(self.starts + list(starts),
                            self.durations + list(durations)))
        self.starts = [s for s, _ in merged]
        self.durations = [d for _, d in merged]

    def seconds(self, start, end):
        """Reference seconds of the interval [start, end] of work done in
        the sampled process."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        durations = self.durations[lo:hi]
        elapsed = end - start - sum(durations)
        if not durations:
            if not self.durations:
                return elapsed
            # Shorter than the sampling interval: use the last sample
            # before it.
            durations = [self.durations[max(lo - 1, 0)]]
        speed = sum(REFERENCE_S / d for d in durations) / len(durations)
        return elapsed * speed
