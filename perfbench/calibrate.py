"""Host-speed calibration: a fixed kernel that does not touch r2xsim.

The benchmark's host is a shared VM whose speed drifts between a fast and a
slow state, up to about 1.9x apart for r2xsim, with other tenants' load.  A
state lasts from a few seconds to a minute, so a 25 s run can fall wholly in
either, and no statistic over one run's host times alone can tell a slow
host from a slow program.  ``run.py`` therefore takes a reading of this
kernel before each ``run_one``, every ``TICK_S`` during it and after the
last, and scales each run's CPU time by ``REF_KERNEL_MS`` over the mean of
the readings from the one before it to the one after it: the time the run
would have taken on a host where the kernel takes ``REF_KERNEL_MS``.  The
host's speed changes within a second, so the readings during a long run
matter: with them, a warehouse-makespan run's scaled time spread half as
much as with the two readings around it alone.

Times are the process's CPU time (``time.process_time``), not wall time, so
that time the process spends descheduled or throttled is left out of both
the runs and the readings; what remains is the CPU's speed, which the
kernel tracks.

The kernel mixes what r2xsim spends its time on: a heap-driven shortest-path
search over a grid with tuple keys in a dict (the planner), scalar ``math``
calls in a loop (link adaptation), and short numpy array expressions
(radio and traces).  It is deterministic and allocates little, so its own
time moves only with the host's speed.  Changing it, ``REF_KERNEL_MS`` or
``TICK_S`` changes every time metric: compare commits only with the same
``calibrate.py``.
"""

from __future__ import annotations

import contextlib
import heapq
import math
import signal
from time import perf_counter, process_time
from typing import Iterator, List, Sequence

import numpy as np

# The scale of the calibrated times: about the kernel's CPU time in the
# fast state of an Intel Xeon VM with 2 vCPUs at 2.0 GHz, Python 3.11,
# numpy 2.4.
REF_KERNEL_MS = 2.0
# Interval of the readings taken while r2xsim runs: short against a
# run_one of the warehouse workloads (10 ms to 2 s), long against a reading.
TICK_S = 0.05


def kernel() -> float:
    n = 28
    dist = {(0, 0): 0}
    heap = [(0, 0, 0)]
    while heap:
        d, x, y = heapq.heappop(heap)
        if d > dist[x, y]:
            continue
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < n and 0 <= ny < n and (nx * 7 + ny * 3) % 11:
                nd = d + 1 + ((nx ^ ny) & 3)
                if nd < dist.get((nx, ny), 1 << 30):
                    dist[nx, ny] = nd
                    heapq.heappush(heap, (nd, nx, ny))
    s = 0.0
    for i in range(1500):
        s += math.exp(-i * 1e-3) * math.log1p(i)
    a = np.linspace(0.0, 1.0, 512)
    for _ in range(60):
        a = np.sqrt(a * a + 0.5) - np.minimum(a, 0.3)
    return len(dist) + s + float(a.sum())


def reading() -> float:
    """One reading of the host's speed: the faster of two kernel calls, in
    ms of CPU time.  Two calls drop a reading that an interrupt or a cold
    cache spoilt.  (The median of three spread run_tail_ms no less.)"""
    best = math.inf
    for _ in range(2):
        t0 = process_time()
        kernel()
        best = min(best, process_time() - t0)
    return best * 1e3


def factor(readings: Sequence[float]) -> float:
    """Scale for a host time measured while ``readings`` were taken:
    ``REF_KERNEL_MS`` over their mean."""
    return REF_KERNEL_MS * len(readings) / sum(readings)


class Meter:
    """Readings taken at each ``take()`` and, while ``ticking()`` is active,
    every ``TICK_S`` of wall time by a timer signal.  Keeps the CPU and wall
    time the readings took, so that callers can leave it out."""

    def __init__(self) -> None:
        self.readings: List[float] = []
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self._busy = False

    def take(self) -> None:
        c0, w0 = process_time(), perf_counter()
        self.readings.append(reading())
        self.cpu_s += process_time() - c0
        self.wall_s += perf_counter() - w0

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            try:
                self.take()
            finally:
                self._busy = False

    @contextlib.contextmanager
    def ticking(self) -> Iterator[None]:
        # A wall-clock timer: with ITIMER_PROF armed, Linux reads the
        # process CPU clock coarsely, and readings came out as 0.
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
