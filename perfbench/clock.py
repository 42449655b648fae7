"""CPU time scaled to a reference host speed.

On a shared virtual machine the speed of one virtual CPU changes by up to
about 1.7x for seconds at a time, when other tenants load the physical core
under it.  CPU time does not leave this out: a slow phase makes every
instruction slower.  So :class:`SpeedClock` pins the process to one CPU and
runs a monitor thread on it that times a small fixed kernel (a Python loop
and small ``eigh`` calls, independent of combsqec) every ``PERIOD`` seconds.
An interval's CPU time is then scaled by the kernel's mean speed around it:

    scaled = cpu_s * mean(REFERENCE_S / kernel_s over the samples near it)

``REFERENCE_S`` is the kernel's CPU time on an unloaded core of the
baseline host, so scaled times read as CPU time on that core.  The monitor
thread's own CPU time is subtracted from every interval.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

import numpy as np

PERIOD = 0.1              # seconds between kernel samples
REFERENCE_S = 0.0024      # kernel CPU seconds on an unloaded baseline core
HALF_WINDOW = 0.25        # samples this close to an interval count for it
MIN_SAMPLES = 5

_A = np.random.default_rng(0).standard_normal((24, 24))
_A = _A + _A.T


def _kernel() -> None:
    d: dict[int, int] = {}
    for i in range(10000):
        d[i & 255] = d.get(i & 255, 0) + i
    for _ in range(16):
        np.linalg.eigh(_A)


def pin_one_cpu() -> int:
    """Pin this thread (and the threads and processes it starts) to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedClock:
    """Samples the host speed on the pinned CPU while it runs."""

    def __init__(self) -> None:
        self.times: list[float] = []      # perf_counter at each sample's middle
        self.speeds: list[float] = []     # REFERENCE_S / kernel CPU seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._monitor, name="speed-monitor", daemon=True)
        self._clock_id = None

    def __enter__(self) -> SpeedClock:
        self._thread.start()
        self._clock_id = time.pthread_getcpuclockid(self._thread.ident)
        while len(self.times) < MIN_SAMPLES:
            time.sleep(PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        time.sleep(HALF_WINDOW)           # samples after the last interval
        self._stop.set()
        self._thread.join()

    def _monitor(self) -> None:
        while not self._stop.is_set():
            w0, c0 = time.perf_counter(), time.thread_time()
            _kernel()
            c1, w1 = time.thread_time(), time.perf_counter()
            self.speeds.append(REFERENCE_S / (c1 - c0))
            self.times.append(0.5 * (w0 + w1))
            self._stop.wait(PERIOD)

    def cpu(self) -> float:
        """Process CPU seconds, less the monitor thread's."""
        return time.process_time() - time.clock_gettime(self._clock_id)

    def speed(self, start: float, end: float) -> float:
        """Mean speed of the samples within ``HALF_WINDOW`` of [start, end]
        (perf_counter seconds), widened to at least ``MIN_SAMPLES``."""
        n = len(self.times)
        lo = bisect.bisect_left(self.times, start - HALF_WINDOW, 0, n)
        hi = bisect.bisect_right(self.times, end + HALF_WINDOW, 0, n)
        while hi - lo < min(MIN_SAMPLES, n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        return float(np.mean(self.speeds[lo:hi]))

    def scaled(self, start: float, end: float, cpu_s: float) -> float:
        return cpu_s * self.speed(start, end)
