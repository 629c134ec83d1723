"""Track the speed of the processor a child runs on while it works.

The hosts this benchmark runs on change speed by up to 2x from one
tenth of a second to the next, because other tenants share the physical
cores.  Every 20 ms a timer signal runs a fixed stdlib-only integer and
Fraction unit of about 0.5 ms and records how long it took.
adjusted(a, b) converts the wall time of an interval into reference
seconds: the time the same work takes on a processor that runs the unit
in REF_UNIT_S.  The work done in a short
slice of time is proportional to 1 / (unit time), so an interval's
reference time is its wall time, less the probe's own time, times the
mean of REF_UNIT_S / (unit time) over the samples taken around it.
REF_UNIT_S is a fixed constant; changing it rescales every recorded
figure, so it never changes.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REF_UNIT_S = 0.0005
INTERVAL_S = 0.02
WINDOW_S = 0.3


def unit() -> None:
    acc, x = Fraction(0), 1
    for i in range(1, 101):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 127)
        acc += Fraction(x % 97 - 48, i % 12 + 1)


class SpeedProbe:
    def __init__(self):
        self.starts: list[float] = []
        self.took: list[float] = []

    def _tick(self, signum, frame) -> None:
        started = time.monotonic()
        unit()
        self.starts.append(started)
        self.took.append(time.monotonic() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def adjusted(self, a: float, b: float) -> float:
        """Reference seconds for the work done between time.monotonic() times a and b.

        The speed is averaged over the samples within WINDOW_S of the
        interval, which smooths the noise of single samples in short
        intervals.
        """
        if not self.took:
            raise RuntimeError("the speed probe took no samples")
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        busy = b - a - sum(self.took[lo:hi])
        first = bisect.bisect_left(self.starts, a - WINDOW_S)
        last = bisect.bisect_left(self.starts, b + WINDOW_S)
        # with no sample close by, the latest one stands in
        near = self.took[first:last] or [self.took[max(lo - 1, 0)]]
        return busy * statistics.fmean(REF_UNIT_S / t for t in near)
