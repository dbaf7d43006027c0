"""Machine-speed probe, used to normalize wall times.

On a shared machine the speed of one core drifts by up to 2x within
seconds, as neighbours come and go.  A probe times a fixed piece of
pure-Python work (dict and tuple operations, like plactic's own) every
INTERVAL_S seconds from a SIGALRM handler, in the measured process itself:
no thread or second process.  An interval of wall time T whose probes took
p_1..p_n is reported as

    T_norm = (T - probe time inside) * NOMINAL_S * mean(1 / p_i)

that is, the time the same work would take at the speed where one probe
takes NOMINAL_S.  Sampling at fixed wall-time intervals makes mean(1 / p_i)
the average speed over the interval, so the harmonic mean is the right one.
"""

from __future__ import annotations

import bisect
import signal
import time

clock = time.perf_counter

INTERVAL_S = 0.05
NOMINAL_S = 0.0005  # one probe at the nominal speed
MARGIN_S = 0.25  # probes this close to an interval also describe it


def reference_work() -> int:
    table: dict = {}
    for i in range(2000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
    return len(table)


def probe_once() -> float:
    t0 = clock()
    reference_work()
    return clock() - t0


def speed(costs) -> float:
    """Nominal seconds per wall second, from probe costs."""
    return NOMINAL_S * sum(1 / c for c in costs) / len(costs)


class Probe:
    """Probes every INTERVAL_S seconds while active (a context manager)."""

    def __init__(self, on_probe=None):
        self.starts: list[float] = []
        self.costs: list[float] = []
        self.on_probe = on_probe  # called with each probe's cost

    def _handler(self, signum, frame):
        t0 = clock()
        reference_work()
        cost = clock() - t0
        self.starts.append(t0)
        self.costs.append(cost)
        if self.on_probe:
            self.on_probe(cost)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _between(self, t0, t1):
        return bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)

    def normalized(self, t0, t1) -> float:
        """Nominal seconds of the work done between t0 and t1."""
        lo, hi = self._between(t0, t1)
        busy = t1 - t0 - sum(self.costs[lo:hi])
        if not self.costs:
            raise RuntimeError("no probe ran")
        lo, hi = self._between(t0 - MARGIN_S, t1 + MARGIN_S)
        if lo == hi:  # no probe near: take the closest one
            lo = max(0, min(lo, len(self.costs) - 1))
            hi = lo + 1
        return busy * speed(self.costs[lo:hi])

    def spent(self, t0, t1) -> float:
        lo, hi = self._between(t0, t1)
        return sum(self.costs[lo:hi])
