"""Host-speed sampling, so that times read at one fixed reference speed.

The benchmark's host shares its CPUs with other tenants.  Its speed
switches between phases that last from seconds to minutes, and a slow
phase makes the same pure-Python work take up to 1.7 times as long; the
guest sees no steal time, so CPU time stretches just like wall time.

A ``SpeedMeter`` runs a fixed probe loop from a ``SIGALRM`` timer every
``PERIOD_S`` seconds, on the main thread of the process being measured.
``reference_s(start, end)`` is the wall time between two instants minus
the probe's own time, with each stretch before a probe scaled by
``REF_PROBE_S / probe time`` (the probe time smoothed over its
neighbours).  A sweep that takes 15 s in a slow phase and 11 s in a fast
one reads about the same in reference seconds.  The probe is the
benchmark's own code, so a change to the program moves the wall time
and not the probe.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Tuple

PERIOD_S = 0.01
#: probe time at the reference speed: its typical time in a fast phase
#: of the 2-CPU host the benchmark was built on.
REF_PROBE_S = 220e-6
#: probes on each side whose median is the local probe time.
SMOOTH = 12


def probe() -> int:
    """A fixed amount of dictionary and integer work, about 0.2 ms."""
    table = {}
    total = 0
    for i in range(1500):
        table[i & 255] = i
        total += table.get((i * 7) & 255, 0)
    return total


def smoothed(durations: List[float], half: int = SMOOTH) -> List[float]:
    """Running median of ``durations`` over ``half`` neighbours each side."""
    return [
        statistics.median(durations[max(0, i - half): i + half + 1])
        for i in range(len(durations))
    ]


class SpeedMeter:
    """Probe samples ``(start, end)`` taken on a ``SIGALRM`` timer."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        began = time.perf_counter()
        probe()
        self.samples.append((began, time.perf_counter()))

    def start(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _inside(self, start: float, end: float) -> List[Tuple[float, float]]:
        first = bisect.bisect_left(self.samples, (start,))
        return [s for s in self.samples[first:] if s[1] <= end]

    def probe_s(self, start: float, end: float) -> float:
        """Time spent in probes between ``start`` and ``end``."""
        return sum(b - a for a, b in self._inside(start, end))

    def reference_s(self, start: float, end: float) -> float:
        """Wall time from ``start`` to ``end`` without the probes, at the
        reference speed; the plain wall time if no probe ran in between."""
        inside = self._inside(start, end)
        if not inside:
            return end - start
        speeds = smoothed([b - a for a, b in inside])
        total, edge = 0.0, start
        for (began, ended), speed in zip(inside, speeds):
            total += (began - edge) * REF_PROBE_S / speed
            edge = ended
        return total + (end - edge) * REF_PROBE_S / speeds[-1]
