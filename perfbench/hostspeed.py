"""Host-speed meter: express host time in reference seconds.

On a shared machine the host's speed drifts: the same repetition of a
workload takes 1.5 s for a minute and 2.8 s the next, and the speed
moves within a repetition too. A fixed reference loop timed between
repetitions does not track that, so the meter samples the host while
the work runs. Every ``PERIOD_S`` of wall time a SIGALRM handler runs
one chunk of a fixed pure-Python loop (heap pushes and pops, dict
updates, float math, seeded draws: the kind of work the simulator
does) and records how long it took. The handler runs in the main
thread between bytecodes, so offloadsim itself is not touched.

A measured span is then reported in reference seconds: its host time
minus the time spent in chunks, scaled by ``REFERENCE_CHUNK_S`` over
the trimmed mean chunk time within the span. The trim drops chunks that
the operating system preempted: a 10 ms stall costs a 3 s span 0.3%,
but one stalled chunk among forty would raise a plain mean by 15%.
A change to offloadsim moves the span's host time and not the chunks,
so it shows in full; a slower host slows both and cancels out.
"""

from __future__ import annotations

import heapq
import math
import signal
import time
from array import array
from dataclasses import dataclass
from random import Random

PERIOD_S = 0.05
CHUNK_STEPS = 1000
# Host seconds one chunk takes, by definition of a reference second.
# About what a 2-vCPU Xeon VM with Python 3.11 takes at its usual speed.
REFERENCE_CHUNK_S = 0.001
# Share of a span's chunk times dropped at each end before averaging.
TRIM = 0.1


def reference_chunk(steps: int = CHUNK_STEPS) -> float:
    """The fixed work of one chunk."""
    rng = Random(12345)
    heap: list[tuple[float, int]] = []
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(steps):
        heapq.heappush(heap, (rng.random(), i))
        k = i % 997
        table[k] = table.get(k, 0.0) + math.exp(-rng.random()) * 1.5
        if len(heap) > 64:
            t, j = heapq.heappop(heap)
            acc += t * table[j % 997]
    return acc


@dataclass(frozen=True)
class Mark:
    """Meter readings at the start of a span."""

    clock: float
    spent: float
    chunks: int


@dataclass(frozen=True)
class Span:
    """A measured span: host seconds outside chunks, and the mean chunk time in it."""

    host_s: float
    chunk_s: float

    def reference_s(self, host_s: float | None = None) -> float:
        """``host_s`` (default: the whole span) in reference seconds."""
        return (self.host_s if host_s is None else host_s) * REFERENCE_CHUNK_S / self.chunk_s


def trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    cut = int(len(values) * TRIM)
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


class HostSpeedMeter:
    """Use as ``with HostSpeedMeter() as meter:``; only one may run at a time."""

    def __init__(self) -> None:
        self.spent = 0.0
        self.times = array("d")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_chunk()
        took = time.perf_counter() - t0
        self.spent += took
        self.times.append(took)

    def __enter__(self) -> "HostSpeedMeter":
        reference_chunk()  # warm-up
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return Mark(time.perf_counter(), self.spent, len(self.times))

    def span(self, start: Mark) -> Span:
        """The span from ``start`` to now."""
        host = time.perf_counter() - start.clock - (self.spent - start.spent)
        times = self.times[start.chunks:]
        if not times:
            # Shorter than a period: take the host's speed from one chunk now.
            t0 = time.perf_counter()
            reference_chunk()
            return Span(host, time.perf_counter() - t0)
        return Span(host, trimmed_mean(list(times)))
