"""How fast the host runs, gauged while the benchmark times the program.

On a shared host the same code runs 1.3-1.9x slower for stretches of
seconds to minutes, while other tenants load the machine, so the time of
a pass moves with the host more than with the program.  While a Sampler
is entered, a timer signal interrupts the program every PERIOD_S of wall
time, and the handler times a fixed piece of work that calls no interlock
code: Python loops over a dict of tuples and numpy calls on small arrays,
as interlock's own hot loops are.  A stretch that slows the host slows the
gauge and the program alike, so the benchmark divides a time measured
under a Sampler by `slowdown()`, the mean gauge time over REFERENCE_S: it
reports the time the work would have taken on a host where the gauge takes
REFERENCE_S.  The handler's own time is left out of the measured time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
# A round figure among the gauge's times on a 2-vCPU Sapphire Rapids VM,
# which ran from 2.3 to 4.7 ms as the host's load varied.
REFERENCE_S = 0.003

_POINTS = np.linspace(0.0, 1.0, 42).reshape(14, 3)


def _work() -> float:
    table = {}
    for i in range(3000):
        key = (i % 61, i % 7)
        table[key] = table.get(key, 0.0) + i * 0.5
    total = sum(table.values())
    for i in range(250):
        d = _POINTS - (i * 1e-3, 0.5, 0.25)
        total += float(np.einsum("ij,ij->i", d, d).min())
    return total


def _timed() -> float:
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


class Sampler:
    """While entered, gauges the host every PERIOD_S; `samples` holds the
    gauge times and `spent` their sum, which includes no program work."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._saved = None

    def _handler(self, signum, frame):
        elapsed = _timed()
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._handler)
        # Restart system calls the timer interrupts, in C libraries too.
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def slowdown(self) -> float:
        """Mean gauge time over REFERENCE_S, or a median gauge taken now if
        the sampled stretch was too short to hold a sample."""
        samples = self.samples or [statistics.median(_timed() for _ in range(5))]
        return statistics.fmean(samples) / REFERENCE_S
