"""Machine-speed calibration for the timings of one child.

The benchmark runs on shared virtual machines whose speed drifts by 15-40 %
within a second to minutes, on every core at once, with the process's CPU
time drifting as much as its wall time.  A raw time then measures the host
as much as the program.  So a child times a fixed kernel of pure-Python
rational arithmetic (the kind of work voazhu does) every ``INTERVAL_S`` on a
timer signal, in its own thread of control, between the program's
bytecodes.  Every timing of the program is then

* the time of the interval less the time the kernel ran in it, and
* scaled by ``NOMINAL_MS`` over the kernel's local median time,

that is, the time the interval would have taken on a machine where the
kernel takes ``NOMINAL_MS``.  A change to voazhu moves these times; a change
in the host's speed moves the kernel's time as well and cancels out.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05    # the kernel runs this often
NOMINAL_MS = 1.0     # kernel time of the reference speed
NEIGHBOURS = 2       # local speed: median over this many samples each side


def kernel() -> int:
    """Sparse rational row updates: the arithmetic and dict traffic of voazhu."""
    rows = {}
    for i in range(1, 30):
        pivot = Fraction(i, i % 7 + 2)
        for j in range(i % 4, 24, 3):
            key = (j, i % 5)
            rows[key] = rows.get(key, 0) + pivot / (j + 1)
    return len(rows)


class Calibrator:
    """Times ``kernel`` on SIGALRM and scales intervals of ``time.monotonic``."""

    def __init__(self):
        self.starts, self.durations = [], []

    def start(self):
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def tick(self, *_):
        t = time.monotonic()
        kernel()
        self.starts.append(t)
        self.durations.append(time.monotonic() - t)

    def scaled(self, a: float, b: float) -> float:
        """Seconds of program work in [a, b] at the reference speed.

        The interval is cut at the kernel samples; each piece loses the
        kernel time inside it and is scaled by the median kernel time of the
        samples around it.
        """
        starts, durations = self.starts, self.durations
        if not starts:
            raise RuntimeError("no calibration samples: the interval timer never fired")
        total = 0.0
        j = bisect.bisect_right(starts, a)        # first sample after a
        lo = a
        while lo < b:
            hi = min(b, starts[j]) if j < len(starts) else b
            if hi > lo:
                near = durations[max(0, j - 1 - NEIGHBOURS): j + NEIGHBOURS]
                total += (hi - lo) * NOMINAL_MS / 1e3 / statistics.median(near)
            if j < len(starts):                   # skip the sample's own run
                lo = max(hi, starts[j] + durations[j])
                j += 1
            else:
                lo = b
        return total
