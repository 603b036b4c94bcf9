"""Times at a reference machine speed.

On a shared virtual machine the same algwaves batch can take 2.2 s in
one minute and 4.4 s in the next: the host's throughput drifts by up to
a factor of 2, in phases of seconds to minutes, while this process has a
CPU to itself.  No statistic over one 35 s run removes a phase that lasts
the whole run.  So the run samples a short, fixed, pure-Python loop
(Fraction arithmetic, standard library only, nothing from algwaves)
every INTERVAL seconds, also in the middle of a long job, and rescales
the time between two samples by how long the loop took at its ends:

    seconds at reference speed = raw seconds * REFERENCE_S / loop seconds

The loop does not depend on the code under test, so a change to algwaves
moves the rescaled time exactly as it moves the raw time; only the
host's drift is divided out.  The loop's own time is counted nowhere.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction
from typing import Callable

REFERENCE_S = 0.003  # the loop's time at the reference speed
INTERVAL = 0.25  # seconds between samples while a Speedometer runs


def reference_loop() -> float:
    """Seconds that the fixed reference loop takes right now."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 600):
        acc += Fraction(i, i % 7 + 1) * Fraction(3, i % 5 + 2)
    return time.perf_counter() - t0


def _scale(before: float, after: float) -> float:
    """Raw seconds between two loop samples -> seconds at reference speed."""
    return REFERENCE_S * 2 / (before + after)


def timed(fn: Callable):
    """(fn(), seconds at reference speed, raw seconds) for a short fn."""
    before = reference_loop()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    return result, raw * _scale(before, reference_loop()), raw


class Speedometer:
    """Reference-loop samples taken on a SIGALRM interval timer.

    Inside the `with` block, record raw perf_counter() stamps; after it,
    `seconds(a, b)` converts the stretch [a, b] to reference speed.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.loops: list[float] = []

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        self.loops.append(reference_loop())
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "Speedometer":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def seconds(self, a: float, b: float) -> float:
        """Time in [a, b] outside the samples, at reference speed."""
        total = 0.0
        i = max(bisect.bisect_right(self.ends, a) - 1, 0)
        while i + 1 < len(self.starts) and self.ends[i] < b:
            lo, hi = max(a, self.ends[i]), min(b, self.starts[i + 1])
            if hi > lo:
                total += (hi - lo) * _scale(self.loops[i], self.loops[i + 1])
            i += 1
        return total
