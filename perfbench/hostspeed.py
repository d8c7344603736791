"""Host-speed sampling, so timings compare across a drifting host.

On the shared hosts this benchmark runs on, the speed of a CPU drifts by
up to 2x over seconds to minutes, and the two CPUs of one host drift
independently.  Timing the same code twice can therefore differ by more
than any change worth measuring.

:class:`SpeedProbe` samples the speed of the CPU the measured code runs
on, while it runs: a timer interrupts the process every
``INTERVAL_S`` seconds of wall time, and the handler times a fixed piece
of pure-Python work (a small backtracking pattern counter, written here
so that it shares no code with permwreath).  The probe's own time is
kept out of the measurement: :meth:`SpeedProbe.clock` is
``perf_counter`` minus the time spent in the handler.  A time measured on
that clock, multiplied by :meth:`SpeedProbe.speed`, is the time the same
work would take on a nominal host on which the calibration work takes
``NOMINAL_S``.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

NOMINAL_S = 0.012
INTERVAL_S = 0.25


def calibration_work() -> int:
    """Count occurrences of 24135 in a fixed sequence of length 35."""
    host = tuple((i * 37) % 101 + 1 for i in range(35))
    pattern = (2, 4, 1, 3, 5)
    k, n = len(pattern), len(host)
    chosen = [0] * k
    count = 0

    def go(t: int, start: int) -> None:
        nonlocal count
        if t == k:
            count += 1
            return
        for p in range(start, n - (k - t) + 1):
            v = host[p]
            for s in range(t):
                if (chosen[s] < v) != (pattern[s] < pattern[t]):
                    break
            else:
                chosen[t] = v
                go(t + 1, p + 1)

    go(0, 0)
    return count


class SpeedProbe:
    """Samples host speed before, during and after a measured phase."""

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def sample(self) -> None:
        t = perf_counter()
        calibration_work()
        d = perf_counter() - t
        self.samples.append(d)
        self.stolen += perf_counter() - t

    def _tick(self, signum, frame) -> None:
        self.sample()

    def clock(self) -> float:
        """Seconds of ``perf_counter`` spent outside the probe."""
        return perf_counter() - self.stolen

    def __enter__(self):
        self.sample()
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        self.sample()
        return False

    def speed(self) -> float:
        """Nominal-host seconds per second measured on :meth:`clock`."""
        return NOMINAL_S / statistics.mean(self.samples)
