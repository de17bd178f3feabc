"""Machine-speed probe: times a fixed pure-Python kernel throughout a run.

The benchmark runs on a few cores of a shared host.  There the speed of the
same Python code drifts by up to half over tens of seconds as neighbours come
and go, and process CPU time drifts with it, so neither wall time nor CPU time
of a run is steady from run to run.  The probe runs a fixed kernel that does
not touch the library (integer arithmetic, dicts, tuples, frozensets, calls
and recursion) every PERIOD_S seconds of a run, from a SIGALRM interval timer
so that it also samples the inside of long jobs.  Timings subtract the time
spent in the probe (``clock``), and ``scale`` turns the wall time of a span
into reference seconds, the time at the speed where the kernel takes
REFERENCE_S: it multiplies by REFERENCE_S / k, where k is the median kernel
time over the samples taken during the span and NEIGHBOURS samples on each
side of it.  Each job is scaled by the speed around it, so a speed change in
the middle of a pass is followed.

Only the main thread's own speed is sampled.  A run whose work happens in
child processes (the ``cli`` workload) uses ``sample`` between jobs and no
timer: a tick while the parent waits would measure the parent's core, not
the child's, and its time would be subtracted from a job it did not delay.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

#: kernel time at the reference speed (about this machine's usual speed)
REFERENCE_S = 0.005
#: seconds between two timer samples
PERIOD_S = 0.1
#: samples on each side of a timed span that also count for its speed
NEIGHBOURS = 3

_TABLE = {(a, b): frozenset(((a * b) % 5, (a + b) % 5)) for a in range(12) for b in range(12)}


def _walk(depth: int, acc: tuple) -> int:
    if depth == 0:
        return len(acc)
    total = 0
    for v in _TABLE[(depth % 12, len(acc) % 12)]:
        total += _walk(depth - 1, acc + (v,))
    return total


def kernel() -> int:
    """Fixed work of about REFERENCE_S seconds; the result is fixed too."""
    s = 0
    for i in range(50000):
        s += i * i % 7
    for start in range(150):
        s += _walk(6, (start,))
    return s


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []  # kernel times, in order
        self.spent = 0.0  # seconds spent in the probe so far
        self._busy = False
        self._ticking = False

    def sample(self) -> None:
        if self._busy:  # a tick that lands inside a sample is dropped
            return
        self._busy = True
        start = perf_counter()
        kernel()
        took = perf_counter() - start
        self.samples.append(took)
        self.spent += took
        self._busy = False

    def _tick(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        """Sample every PERIOD_S seconds until ``stop``."""
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._ticking = True

    def stop(self) -> None:
        if self._ticking:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._ticking = False

    def clock(self) -> float:
        """perf_counter minus the time spent in the probe."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent and not self._busy:
                return now - spent

    def mark(self) -> int:
        return len(self.samples)

    def neighbours(self) -> None:
        """Samples taken outside any timed span, to stand on its either side."""
        for _ in range(NEIGHBOURS):
            self.sample()

    def scale(self, start: int, end: int) -> float:
        """Factor from wall seconds to reference seconds for a span that began
        when ``mark`` returned ``start`` and ended when it returned ``end``."""
        return REFERENCE_S / statistics.median(
            self.samples[max(0, start - NEIGHBOURS):end + NEIGHBOURS])
