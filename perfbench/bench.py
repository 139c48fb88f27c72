"""Measure one workload: end-to-end metrics untraced, per-layer metrics traced.

Host time is wall time of this process (``time.perf_counter``) in
reference seconds: ``hostspeed.py`` samples the host's speed while the
work runs and scales the time to a host of fixed speed. Simulated time
is what offloadsim reports (``MetricsReport.elapsed``).
Every repetition of a workload is checked from outside: nothing may
raise, every report must conserve messages and log the same decisions
for every robot, and the rendered outputs must hash to the same digest
as the first repetition.
"""

from __future__ import annotations

import gc
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from offloadsim import simharness

import workloads
from hostspeed import HostSpeedMeter, Span
from tracing import Tracer, layer_metrics

# Every end-to-end metric the untraced run reports, with its unit.
END_TO_END_UNITS: dict[str, str] = {
    "wall_s": "s",
    "sim_s_per_wall_s": "s/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
    "sim_latency_s": "s",
    "merged_hz": "Hz",
}

# Set-up passes after the timed repetitions: at most this many, each
# constructing the workload's simulations until it lasts SETUP_PASS_S,
# until the run's time is over. Repetitions leave time for all of them.
SETUP_PASSES = 10
SETUP_PASS_S = 0.3


@dataclass
class Outcome:
    """What one benchmark invocation found."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


class _InitTimer:
    """Sums host time spent in ``Simulation.__init__``, one timer per construction.

    Time the meter spends in its reference chunks is left out.
    """

    def __init__(self, meter: HostSpeedMeter) -> None:
        self.meter = meter
        self.total = 0.0

    def __enter__(self) -> "_InitTimer":
        sim = simharness.Simulation
        self._original = original = vars(sim)["__init__"]
        clock = time.perf_counter
        meter = self.meter

        def timed_init(*args, **kwargs):
            t0, spent = clock(), meter.spent
            try:
                original(*args, **kwargs)
            finally:
                self.total += clock() - t0 - (meter.spent - spent)

        sim.__init__ = timed_init
        return self

    def __exit__(self, *exc) -> None:
        simharness.Simulation.__init__ = self._original


class Runner:
    """Runs and checks repetitions of one workload."""

    def __init__(self, inputs: workloads.Inputs, outcome: Outcome) -> None:
        self.inputs = inputs
        self.outcome = outcome
        self.sims = len(inputs.sim_configs())
        self.reports: list = []

    def rep(self, meter: HostSpeedMeter | None = None) -> float | Span:
        """One repetition; returns its host seconds, or NaN if it failed.

        With a running ``meter`` it returns the repetition's ``Span`` instead.
        """
        out = self.outcome
        out.attempted += self.sims
        gc.collect()
        try:
            start = meter.mark() if meter else None
            t0 = time.perf_counter()
            reports, rendered = workloads.run_workload(self.inputs)
            wall = meter.span(start) if meter else time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - a failed run is counted, not fatal
            out.failed += self.sims
            out.problems.append(f"raised {type(exc).__name__}: {exc}")
            return Span(float("nan"), 1.0) if meter else float("nan")
        problems = [p for r in reports for p in workloads.check_report(r)]
        if len(reports) != self.sims:
            problems.append(f"expected {self.sims} reports, got {len(reports)}")
        digest = workloads.digest(rendered)
        if not out.digest:
            out.digest = digest
            self.reports = reports
        elif digest != out.digest:
            problems.append(f"output digest {digest} differs from {out.digest}")
        if problems:
            out.failed += self.sims
            out.problems.extend(problems)
        return wall


def _median(values: list[float]) -> float:
    finite = [v for v in values if v == v]
    return statistics.median(finite) if finite else float("nan")


def _rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


def measure_end_to_end(inputs: workloads.Inputs, seconds: float) -> Outcome:
    """Untraced run: timed repetitions, then set-up passes, for about ``seconds``.

    Host times are in reference seconds. ``setup_s`` is the median over
    the repetitions and the set-up passes of the summed
    ``Simulation.__init__`` time of one round of the workload's
    simulations.

    Peak memory is the growth of the process's peak resident set over
    the first repetition. It costs no extra pass: a tracemalloc pass
    takes four to five repetitions' time, which the timed repetitions
    need more.
    """
    out = Outcome()
    runner = Runner(inputs, out)
    spans: list[Span] = []
    setups: list[float] = []
    sim_args = inputs.sim_args()
    with HostSpeedMeter() as meter, _InitTimer(meter) as init:
        gc.collect()
        baseline = _rss_bytes()
        start = time.perf_counter()
        reps_until = seconds - SETUP_PASSES * SETUP_PASS_S
        while True:
            init.total = 0.0
            t0 = time.perf_counter()
            span = runner.rep(meter)
            spans.append(span)
            setups.append(span.reference_s(init.total))
            if len(spans) == 1:
                peak_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - baseline
            now = time.perf_counter()
            if not now - start + (now - t0) <= reps_until:
                break
        for _ in range(SETUP_PASSES):
            init.total = 0.0
            rounds = 0
            mark = meter.mark()
            while rounds == 0 or time.perf_counter() - mark.clock < SETUP_PASS_S:
                for args in sim_args:
                    simharness.Simulation(*args)
                rounds += 1
            setups.append(meter.span(mark).reference_s(init.total / rounds))
            if time.perf_counter() - start >= seconds:
                break
    walls = [span.reference_s() for span in spans]
    wall = _median(walls)
    reports = runner.reports
    out.metrics = {
        "wall_s": wall,
        "sim_s_per_wall_s": sum(r.elapsed for r in reports) / wall if reports else float("nan"),
        "setup_s": _median(setups),
        "peak_mem_mb": peak_bytes / 2**20,
        "sim_latency_s": statistics.fmean(r.task_latency for r in reports) if reports else float("nan"),
        "merged_hz": statistics.fmean(r.processing_frequency for r in reports) if reports else float("nan"),
    }
    out.notes = [
        f"repetitions: {len(spans)}, set-up samples: {len(setups)}",
        f"host seconds outside reference chunks, median: "
        f"{_median([span.host_s for span in spans]):.4f} s per repetition",
        f"reference chunk, median per repetition: "
        f"{_median([span.chunk_s for span in spans]) * 1e3:.4f} ms",
    ]
    return out


def measure_layers(inputs: workloads.Inputs, seconds: float,
                   spans_path: Path | None = None) -> Outcome:
    """Traced run: alternate untraced and traced repetitions for about ``seconds``.

    Self times are medians over the traced repetitions; call counts must
    repeat exactly across them, since the simulator is deterministic.
    ``trace.overhead`` is the median traced wall time over the median
    untraced one. The spans of the last traced repetition are written
    to ``spans_path``.
    """
    out = Outcome()
    runner = Runner(inputs, out)
    untraced: list[float] = []
    traced: list[float] = []
    per_rep: list[dict[str, float]] = []
    first_calls = None
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        untraced.append(runner.rep())
        tracer = Tracer()
        with tracer:
            traced.append(runner.rep())
        calls, self_s = tracer.summary()
        if first_calls is None:
            first_calls = calls
        elif calls != first_calls:
            out.problems.append("per-layer call counts differ between traced repetitions")
        per_rep.append(layer_metrics(calls, self_s, tracer.counts))
        now = time.perf_counter()
        if not now - start + (now - pair_start) <= seconds:
            break
    out.metrics = {key: statistics.median_low([rep[key] for rep in per_rep]) for key in per_rep[0]}
    out.metrics["trace.overhead"] = _median(traced) / _median(untraced)
    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_path)
        print(f"spans: {len(tracer.start)} written to {spans_path}", file=sys.stderr)
    return out
