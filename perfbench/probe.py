"""Machine-speed probe, for reporting times at a fixed machine speed.

On a shared 2-core VM the speed of the whole machine drifts by up to a
quarter within seconds to minutes, far more than the spread between runs at
one speed. The probe is a fixed mix of the kinds of work the workloads do:
bytecode loops, float formatting, small-object allocation and small numpy
calls. While a :class:`SpeedSampler` is active, the probe runs from a timer
signal every half second in the measuring thread itself, and every time
measured is scaled by ``REFERENCE_S / median(probe times around it)``: it is
reported as it would read on a machine where the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.01
INTERVAL_S = 0.5
WINDOW_S = 1.0
_MATRIX = np.arange(16.0).reshape(4, 4)


def probe_once() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i % 7
    rows = [format(i * 0.37, ".9g") for i in range(5_000)]
    table = {(i, i % 3): row for i, row in enumerate(rows)}
    for i in range(300):
        np.linalg.eigvals(_MATRIX + i)
    del table
    return time.perf_counter() - t0


class SpeedSampler:
    """Runs the probe every ``INTERVAL_S`` from SIGALRM while active.

    ``spent`` is the time taken by the probes so far, so a caller can leave it
    out of the operation it was timing. Probes are not nested: a signal that
    arrives while one runs is dropped.
    """

    def __init__(self):
        self.times: list[float] = []      # probe midpoints, increasing
        self.durations: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        duration = probe_once()
        self.times.append(t0 + duration / 2)
        self.durations.append(duration)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> SpeedSampler:
        for _ in range(3):
            self.sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def scale(self, start: float | None = None, end: float | None = None) -> float:
        """Factor taking a time measured in [start, end] to the reference speed.

        Uses the probes within ``WINDOW_S`` of the interval, or all of them
        when no bounds are given or none fell in the window.
        """
        durations = self.durations
        if start is not None:
            lo = bisect.bisect_left(self.times, start - WINDOW_S)
            hi = bisect.bisect_right(self.times, end + WINDOW_S)
            durations = self.durations[lo:hi] or self.durations
        return REFERENCE_S / statistics.median(durations)
