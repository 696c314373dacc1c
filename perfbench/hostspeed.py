"""Host-speed correction for measured intervals.

The cores this benchmark runs on can be shared with other tenants: on the
machine it was tuned on (2 vCPUs, Intel Xeon), the same verify-band pass
took from 17.6 to 24.8 s within a few minutes of one process.  So every
interval the benchmark reports is corrected by a fixed reference kernel
timed while the program runs:

    corrected = (interval - sampler time inside it) * REFERENCE_S / k

where k is the median kernel time sampled within WINDOW_S of the interval.
The result reads as seconds at the host speed at which the kernel takes
REFERENCE_S.  The kernel never changes, so a change to the program moves
the corrected time by the same factor as the raw one.

Samples come from a SIGALRM handler every PERIOD_S, so they also cover
queries that run for seconds; the handler runs in the main thread between
bytecodes, so the workload stays single-threaded.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_S = 0.00025
PERIOD_S = 0.05
WINDOW_S = 0.5


def reference_kernel() -> int:
    """A fixed interpreter-bound loop, about 0.25 ms.

    Of the kernels tried (big-integer products, Fraction elimination, a mix
    of both, and this loop), this one tracked the host's effect on the
    workloads best: repeated identical passes in one process spread 1-4%
    between quartiles once corrected with it, against 12-24% uncorrected.
    """
    total = 0
    for i in range(3000):
        total += (i * i) % 7
    return total


def kernel_seconds() -> float:
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start


class HostSpeed:
    """Samples the reference kernel while active; corrects intervals afterwards."""

    def __init__(self):
        self.starts = []  # perf_counter at the start of each sample
        self.ends = []
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        reference_kernel()
        self.ends.append(time.perf_counter())
        self.starts.append(start)
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._on_alarm(None, None)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._on_alarm(None, None)
        return False

    def correct(self, start: float, end: float) -> float:
        """Corrected length of the interval [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        own = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        # the window, widened by one sample each side so it is never empty
        lo = max(bisect.bisect_left(self.starts, start - WINDOW_S) - 1, 0)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S) + 1
        k = statistics.median(e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))
        return (end - start - own) * REFERENCE_S / k

    def median_kernel_s(self) -> float:
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))
