"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside, the calls into each offloadsim module
and records one span per call: name, start, end and parent span. Names
are patched where the caller looks them up: ``simharness`` imports
``spike_load``, ``rssi_at``, ``deliver``, ``edge_execute``,
``apply_remap`` and the trace loaders by name, so those are wrapped in
``offloadsim.simharness``; the profiler's own ``spike_load`` call site
is wrapped in ``offloadsim.profiling``. Modules are taken from
``importlib`` because the package re-exports the ``consensus``
function under the name of its submodule.

A span's self time is its duration minus the durations of its direct
children, so self times of all spans add up to the time covered by the
outermost spans.
"""

from __future__ import annotations

import gzip
import importlib
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

HANDLER_KINDS = (
    "sample", "trace_device", "trace_net", "send", "arrival", "exec", "decision", "metrics",
)


class Tracer:
    """Install with ``with Tracer() as tracer:``; read ``summary()`` after."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _span(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_of, start, end, parent, stack = (
            self.name_of, self.start, self.end, self.parent, self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self) -> "Tracer":
        sh = importlib.import_module("offloadsim.simharness")
        prof = importlib.import_module("offloadsim.profiling")
        sched = importlib.import_module("offloadsim.scheduler")
        cons = importlib.import_module("offloadsim.consensus")
        bench_workloads = importlib.import_module("workloads")
        counts = self.counts

        def count_spikes(args, result):
            counts["spikes"] += len(args[0])

        def count_rows(args, result):
            counts["trace_rows"] += (
                sum(len(v) for v in result.values()) if isinstance(result, dict) else len(result))

        def count_drops(args, result):
            counts["drops"] += result.dropped

        def count_robot_rounds(args, result):
            counts["robot_rounds"] += len(args[0].robot_ids)

        Sim = sh.Simulation
        boundaries = [
            ("harness.init", Sim, "__init__", None),
            ("harness.loop", Sim, "run", None),
            *[(f"harness.on_{kind}", Sim, f"_on_{kind}",
               count_robot_rounds if kind == "decision" else None)
              for kind in HANDLER_KINDS],
            ("harness.edge_execute", sh, "edge_execute", None),
            ("harness.compare", sh, "compare_schemes", None),
            ("profiling.spike_load", sh, "spike_load", count_spikes),
            ("profiling.spike_load", prof, "spike_load", count_spikes),
            ("profiling.sample", prof.SyntheticDeviceProfiler, "sample", None),
            ("profiling.ingest", prof.Gateway, "ingest_device", None),
            ("profiling.ingest", prof.Gateway, "ingest_network", None),
            ("profiling.collect", prof.Gateway, "collect", None),
            ("profiling.load_trace", sh, "load_device_trace", count_rows),
            ("profiling.load_trace", sh, "load_network_trace", count_rows),
            ("netsim.rssi_at", sh, "rssi_at", None),
            ("netsim.deliver", sh, "deliver", count_drops),
            ("scheduler.calculate_utility", sched, "calculate_utility", None),
            ("scheduler.build_table", sched.Scheduler, "build_table", None),
            ("scheduler.observe_peer", sched.Scheduler, "observe_peer", None),
            ("scheduler.propose", sched.Scheduler, "propose", None),
            ("consensus.on_proposals", cons.ConsensusExecutor, "on_proposals", None),
            ("consensus.apply_remap", sh, "apply_remap", None),
            ("cli.render", bench_workloads, "render_outputs", None),
        ]
        for name, owner, attr, after in boundaries:
            self._patch(owner, attr, lambda fn, n=name, a=after: self._span(n, fn, a))
        self._patch(Sim, "_push", lambda fn: self._counted("events_pushed", fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- results

    def summary(self) -> tuple[dict[str, int], dict[str, float]]:
        """Per span name: (call counts, self seconds)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls: Counter[str] = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name_of):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += dur[i] - child[i]
        return dict(calls), dict(self_s)

    def write(self, path: Path) -> None:
        """Write every span as gzipped TSV; times are seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            for i, nid in enumerate(self.name_of):
                fh.write(f"{i}\t{names[nid]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t{self.parent[i]}\n")


# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS: dict[str, str] = {
    "harness.init.self_s": "s",
    "harness.loop.self_s": "s",
    "harness.events_pushed": "count",
    "harness.events_handled": "count",
    "harness.event_use_frac": "ratio",
    **{f"harness.on_{kind}.{stat}": unit
       for kind in HANDLER_KINDS for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "harness.edge_execute.calls": "count",
    "harness.edge_execute.self_s": "s",
    "harness.compare.self_s": "s",
    "profiling.spike_load.calls": "count",
    "profiling.spike_load.self_s": "s",
    "profiling.spike_load.spikes_per_call": "spikes/call",
    "profiling.sample.calls": "count",
    "profiling.sample.self_s": "s",
    "profiling.ingest.calls": "count",
    "profiling.ingest.self_s": "s",
    "profiling.collect.calls": "count",
    "profiling.collect.self_s": "s",
    "profiling.load_trace.self_s": "s",
    "profiling.load_trace.rows": "rows",
    "netsim.rssi_at.calls": "count",
    "netsim.rssi_at.self_s": "s",
    "netsim.deliver.calls": "count",
    "netsim.deliver.self_s": "s",
    "netsim.drop_frac": "ratio",
    "scheduler.calculate_utility.calls": "count",
    "scheduler.calculate_utility.self_s": "s",
    "scheduler.utility_per_robot_round": "calls/round",
    "scheduler.observe_peer.calls": "count",
    "scheduler.observe_peer.self_s": "s",
    "scheduler.build_table.self_s": "s",
    "scheduler.propose.self_s": "s",
    "consensus.on_proposals.calls": "count",
    "consensus.on_proposals.self_s": "s",
    "consensus.apply_remap.calls": "count",
    "consensus.switch_frac": "ratio",
    "cli.render.self_s": "s",
    "trace.overhead": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(calls: dict[str, int], self_s: dict[str, float],
                  counts: dict[str, int]) -> dict[str, float]:
    """One traced repetition's per-layer metrics, all but ``trace.overhead``."""
    out: dict[str, float] = {}
    for key in PER_LAYER_UNITS:
        span, _, stat = key.rpartition(".")
        if stat == "calls":
            out[key] = calls.get(span, 0)
        elif stat == "self_s":
            out[key] = self_s.get(span, 0.0)
    handled = sum(calls.get(f"harness.on_{kind}", 0) for kind in HANDLER_KINDS)
    decisions = calls.get("harness.on_decision", 0)
    out.update({
        "harness.events_pushed": counts.get("events_pushed", 0),
        "harness.events_handled": handled,
        "harness.event_use_frac": _ratio(handled, counts.get("events_pushed", 0)),
        "profiling.spike_load.spikes_per_call": _ratio(
            counts.get("spikes", 0), calls.get("profiling.spike_load", 0)),
        "profiling.load_trace.rows": counts.get("trace_rows", 0),
        "netsim.drop_frac": _ratio(counts.get("drops", 0), calls.get("netsim.deliver", 0)),
        "scheduler.utility_per_robot_round": _ratio(
            calls.get("scheduler.calculate_utility", 0), counts.get("robot_rounds", 0)),
        "consensus.switch_frac": _ratio(calls.get("consensus.apply_remap", 0), decisions),
    })
    return {key: out[key] for key in PER_LAYER_UNITS if key != "trace.overhead"}
