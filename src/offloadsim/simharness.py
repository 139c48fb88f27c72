"""Deterministic discrete-event simulation of the offloading fleet.

One run wires the whole pipeline together: synthetic (or replayed)
profilers feed per-robot gateways, schedulers exchange utility tables
and vote, every robot's executor computes the same consensus decision,
and the winning edge executes the fleet's task messages under a
load-dependent service law. A single priority queue orders events by
(time, priority, insertion sequence), so a (config, seed) pair fully
determines every output byte.

Periodic events (sample, exec, decision, metrics) are scheduled one
ahead: only the first of each kind is queued up front, and handling one
queues its successor a period later while that stays inside the
horizon. Each periodic kind has a priority of its own (``sample``
shares one only with replayed trace rows, which never run alongside
it), so this orders events exactly as queuing the whole series up
front would. Message sends and replayed trace rows are still queued
up front. Spike load is read from each device profile's step table
(``SpikeTable``) rather than summed over every spike on each call.

Scheme semantics: ``fixed:<edge>`` pins the task to one edge and runs
no scheduler at all; ``dynamic:<variant>`` runs the full decision
pipeline with that variant's weight preset (unless the config names
explicit weights).
"""

from __future__ import annotations

import heapq
import itertools
import statistics
from dataclasses import dataclass, field, replace
from random import Random
from typing import Optional

from .config import EdgeSpec, ScenarioConfig, SpikeModel, parse_scheme
from .consensus import ChannelRegistry, ConsensusExecutor, Decision, apply_remap
from .errors import ConfigError, TraceFormatError
from .netsim import Message, NodePose, deliver, rssi_at
from .profiling import (
    CSV_REPLAY,
    SYNTHETIC,
    DeviceProfile,
    Gateway,
    LoadSpike,
    TraceSource,
    init_profilers,
    load_device_trace,
    load_network_trace,
    spike_load,  # noqa: F401 - perfbench's tracer wraps simharness.spike_load
)
from .scheduler import Scheduler
from .utility import DeviceSnapshot, NetworkSnapshot

# Event priorities at equal timestamps: readings land before messages,
# execution precedes the decision round, metrics sample last.
P_SAMPLE = 0
P_ARRIVAL = 1
P_EXEC = 2
P_DECISION = 3
P_METRICS = 4

# Window for smoothing the per-edge processing rate into a CPU charge.
RATE_SMOOTHING_S = 1.0


def inject_spikes(
    model: Optional[SpikeModel],
    edge_ids: list[str],
    seed: int,
    horizon: float,
) -> dict[str, tuple[LoadSpike, ...]]:
    """Draw the randomized load bursts for one run.

    A seeded exponential point process over [0, horizon); each event
    picks an edge uniformly, then CPU points, memory MB, and duration
    uniformly from the model's ranges. Pure in (model, edges, seed).
    """
    out: dict[str, list[LoadSpike]] = {e: [] for e in edge_ids}
    if model is not None and model.rate > 0.0:
        rng = Random(f"{seed}/spikes")
        t = rng.expovariate(model.rate)
        while t < horizon:
            edge = edge_ids[rng.randrange(len(edge_ids))]
            cpu = rng.uniform(*model.cpu_range)
            mem = rng.uniform(*model.mem_range)
            duration = rng.uniform(*model.duration_range)
            out[edge].append(LoadSpike(t, duration, cpu, mem))
            t += rng.expovariate(model.rate)
    return {e: tuple(v) for e, v in out.items()}


@dataclass
class EdgeExecState:
    """Mutable execution state of one edge resource."""

    edge_id: str
    capacity_factor: float
    queues: dict[str, int]
    merge_credits: dict[str, int]
    work_credit: float = 0.0
    task_cpu: float = 0.0
    rate_ema: float = 0.0
    hosting: bool = False
    processed_total: int = 0
    merged_total: int = 0

    @property
    def backlog(self) -> int:
        return sum(self.queues.values())


def edge_execute(
    state: EdgeExecState,
    cpu_used: float,
    dt: float,
    reference_rate: float,
) -> tuple[int, int]:
    """Advance one edge by dt seconds; returns (processed, merges).

    Service rate is capacity_factor * (1 - cpu_used/100) *
    reference_rate messages per second, so a loaded or weak edge drains
    its queue slower. Work is taken from the robot with the deepest
    queue first (ties to the smallest id), and one merged output fires
    whenever at least one message from every robot has been processed.
    Spare capacity is not banked across idle gaps.
    """
    rate = state.capacity_factor * max(0.0, 1.0 - cpu_used / 100.0) * reference_rate
    state.work_credit += rate * dt
    processed = 0
    while state.work_credit >= 1.0:
        waiting = [r for r, n in state.queues.items() if n > 0]
        if not waiting:
            break
        target = min(waiting, key=lambda rid: (-state.queues[rid], rid))
        state.queues[target] -= 1
        state.merge_credits[target] += 1
        state.work_credit -= 1.0
        processed += 1
    if not any(state.queues.values()):
        state.work_credit = 0.0
    merges = min(state.merge_credits.values()) if state.merge_credits else 0
    if merges > 0:
        for rid in state.merge_credits:
            state.merge_credits[rid] -= merges
        state.merged_total += merges
    state.processed_total += processed
    return processed, merges


@dataclass(frozen=True)
class TickRow:
    """One metrics sample: true per-edge state at time t."""

    t: float
    host: str
    cpu: dict[str, float]
    mem_pct: dict[str, float]
    queue: dict[str, int]
    throughput_mbps: dict[str, float]
    generated: int
    processed: int
    dropped: int
    merged: int


@dataclass(frozen=True)
class EdgeMetrics:
    edge_id: str
    mean_cpu: float
    peak_cpu: float
    mean_mem_pct: float
    peak_mem_pct: float
    mean_throughput_mbps: float


@dataclass(frozen=True)
class MetricsReport:
    """Everything a finished run reports; pure function of (config, seed)."""

    scheme: str
    seed: int
    duration: float
    elapsed: float
    completed: bool
    task_latency: float
    processing_frequency: float
    merged_outputs: int
    switch_count: int
    generated: int
    processed: int
    queued: int
    dropped: int
    per_edge: dict[str, EdgeMetrics]
    decisions: tuple[Decision, ...]
    per_robot_decisions: dict[str, tuple[Decision, ...]]
    timeseries: tuple[TickRow, ...]

    def cpu_balance_variance(self) -> float:
        """Population variance of per-edge mean CPU; low means balanced."""
        return statistics.pvariance([m.mean_cpu for m in self.per_edge.values()])


class Simulation:
    """One scenario run. Build, call ``run()``, read the report."""

    def __init__(
        self,
        cfg: ScenarioConfig,
        device_trace: Optional[str] = None,
        net_trace: Optional[str] = None,
    ) -> None:
        self.cfg = cfg
        self.replay = device_trace is not None or net_trace is not None
        if self.replay and (device_trace is None or net_trace is None):
            raise ConfigError("replay needs both a device trace and a network trace")
        kind, arg = parse_scheme(cfg.scheme, cfg.edge_ids)
        self.dynamic = kind == "dynamic"
        self.edge_ids = sorted(cfg.edge_ids)
        self.robot_ids = sorted(cfg.robot_ids)
        self.edges: dict[str, EdgeSpec] = {e.edge_id: e for e in cfg.edges}
        self.robots = {r.robot_id: r for r in cfg.robots}

        injected = inject_spikes(cfg.spike_model, self.edge_ids, cfg.seed, cfg.duration)
        self.profiles = {
            eid: DeviceProfile(
                edge_id=eid,
                cpu_max=self.edges[eid].cpu_max,
                mem_max=self.edges[eid].mem_max,
                base_cpu=self.edges[eid].base_cpu,
                base_mem=self.edges[eid].base_mem,
                spikes=self.edges[eid].spikes + injected[eid],
            )
            for eid in self.edge_ids
        }
        if not self.replay:
            source = TraceSource(SYNTHETIC, seed=cfg.seed, sample_period=cfg.sample_period)
            self.profilers = init_profilers(
                list(self.profiles.values()), source, noise_amp=cfg.noise_amp
            )
            self.device_rows = None
            self.net_rows = None
        else:
            self.profilers = None
            self.device_rows = load_device_trace(device_trace)
            self.net_rows = load_network_trace(net_trace)
            if not any(self.device_rows.values()) or not self.net_rows:
                raise TraceFormatError("replay traces must contain at least one row each")
            unknown = sorted(set(self.device_rows) - set(self.edge_ids))
            if unknown:
                raise TraceFormatError(f"device trace names unknown edges: {unknown}")

        stale_after = 3.0 * cfg.sample_period
        self.gateways = {
            rid: Gateway(rid, self.edge_ids, stale_after) for rid in self.robot_ids
        }
        weights = cfg.effective_weights()
        self.schedulers = {
            rid: Scheduler(
                rid, cfg.task, cfg.bounds, weights,
                sticky_bonus=cfg.sticky_bonus,
                peer_staleness=3.0 * cfg.decision_period,
            )
            for rid in self.robot_ids
        }
        channels = tuple(f"{cfg.task.task_id}/{rid}/in" for rid in self.robot_ids)
        self.executors = {
            rid: ConsensusExecutor(rid, len(self.robot_ids), cfg.task.task_id, channels)
            for rid in self.robot_ids
        }
        self.registry = ChannelRegistry(channels)
        self.exec_states = {
            eid: EdgeExecState(
                edge_id=eid,
                capacity_factor=self.edges[eid].capacity_factor,
                queues={rid: 0 for rid in self.robot_ids},
                merge_credits={rid: 0 for rid in self.robot_ids},
            )
            for eid in self.edge_ids
        }
        self.reference_rate = 1000.0 / cfg.task.work_per_message

        # message accounting
        self.generated = 0
        self.processed = 0
        self.dropped = 0
        self.in_flight = 0
        self.pre_host_buffer: list[Message] = []
        self.total_quota = cfg.total_quota()
        self.host: Optional[str] = None
        if not self.dynamic:
            self._move_host(arg, 0.0)
        self.merged_total = 0
        self.switch_count = 0
        self.iteration = 0
        self.decision_log: list[Decision] = []
        self.completed_at: Optional[float] = None

        # metrics accumulators
        self.window_bits = {eid: 0.0 for eid in self.edge_ids}
        self.total_bits = {eid: 0.0 for eid in self.edge_ids}
        self.cpu_sum = {eid: 0.0 for eid in self.edge_ids}
        self.cpu_peak = {eid: 0.0 for eid in self.edge_ids}
        self.mem_sum = {eid: 0.0 for eid in self.edge_ids}
        self.mem_peak = {eid: 0.0 for eid in self.edge_ids}
        self.tick_count = 0
        self.rows: list[TickRow] = []

        # replay state: last seen trace readings
        self._trace_cpu = {eid: self.edges[eid].base_cpu for eid in self.edge_ids}
        self._trace_rssi: dict[tuple[str, str], float] = {}

        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._done = False
        self._schedule_initial_events()

    # ------------------------------------------------------------ plumbing

    def _push(self, t: float, prio: int, kind: str, payload=None) -> None:
        heapq.heappush(self._heap, (t, prio, next(self._seq), kind, payload))

    def _schedule_initial_events(self) -> None:
        cfg = self.cfg
        self._effective_duration = cfg.duration
        if self.replay:
            ends = [rows[-1].t for rows in self.device_rows.values() if rows]
            ends.append(self.net_rows[-1].t)
            self._effective_duration = min(cfg.duration, max(ends))
            for eid in sorted(self.device_rows):
                for snap in self.device_rows[eid]:
                    if snap.t <= self._effective_duration:
                        self._push(snap.t, P_SAMPLE, "trace_device", snap)
            for snap in self.net_rows:
                if snap.t <= self._effective_duration:
                    self._push(snap.t, P_SAMPLE, "trace_net", snap)
        tick = cfg.exec_model.exec_tick
        periodic = []  # (first time, priority, kind, period); run() queues the rest
        if not self.replay:
            periodic.append((0.0, P_SAMPLE, "sample", cfg.sample_period))
        periodic.append((tick, P_EXEC, "exec", tick))
        if self.dynamic:
            periodic.append((cfg.decision_period, P_DECISION, "decision", cfg.decision_period))
        periodic.append((0.0, P_METRICS, "metrics", cfg.sample_period))
        self._periods: dict[str, float] = {}
        for t, prio, kind, period in periodic:
            self._periods[kind] = period
            if t <= self._effective_duration:
                self._push(t, prio, kind)
        for rid in self.robot_ids:
            spec = self.robots[rid]
            rate = cfg.input_rate_of(spec)
            for k in range(1, cfg.message_quota(spec) + 1):
                when = k / rate
                self._push(when, P_ARRIVAL, "send", (rid, k))

    def _pose(self, node_id: str, now: float) -> NodePose:
        if node_id in self.robots:
            x, y = self.robots[node_id].pose_at(now)
            return NodePose(node_id, x, y, now)
        spec = self.edges[node_id]
        return NodePose(node_id, spec.x, spec.y, now)

    def _link_rssi(self, robot_id: str, edge_id: str, now: float) -> float:
        if self.replay:
            return self._trace_rssi.get((robot_id, edge_id), -120.0)
        return rssi_at(self.cfg.link, self._pose(robot_id, now), self._pose(edge_id, now))

    def _true_load(self, eid: str, now: float) -> tuple[float, float]:
        """Actual (cpu %, mem MB) on an edge, including task-induced load."""
        profile = self.profiles[eid]
        st = self.exec_states[eid]
        spike_cpu, spike_mem = profile.spike_table.at(now)
        if self.replay:
            cpu = self._trace_cpu[eid]
        else:
            cpu = profile.base_cpu + spike_cpu + st.task_cpu
        mem = profile.base_mem + spike_mem
        if st.hosting:
            mem += self.cfg.task.mem_footprint
        return (
            max(0.0, min(profile.cpu_max, cpu)),
            max(0.0, min(profile.mem_max, mem)),
        )

    # -------------------------------------------------------------- events

    def _on_sample(self, now: float) -> None:
        # Profilers report background load (base + spikes + noise); the
        # task's own induced load shows up in the service law and the
        # metrics, not in the readings the schedulers compare. Feeding
        # the task's load back into its own placement signal would
        # penalize whichever edge hosts it and defeat the hysteresis.
        for eid in self.edge_ids:
            snap = self.profilers[eid].sample(now)
            for rid in self.robot_ids:
                self.gateways[rid].ingest_device(snap)
        for rid in self.robot_ids:
            for eid in self.edge_ids:
                rssi = self._link_rssi(rid, eid, now)
                snap = NetworkSnapshot(rid, eid, now, rssi)
                self.gateways[rid].ingest_network(snap)

    def _on_trace_device(self, snap: DeviceSnapshot) -> None:
        self._trace_cpu[snap.edge_id] = snap.cpu_used
        for rid in self.robot_ids:
            self.gateways[rid].ingest_device(snap)

    def _on_trace_net(self, snap: NetworkSnapshot) -> None:
        if snap.robot_id not in self.gateways:
            return
        self._trace_rssi[(snap.robot_id, snap.edge_id)] = snap.rssi
        self.gateways[snap.robot_id].ingest_network(snap)

    def _on_send(self, now: float, robot_id: str, k: int) -> None:
        msg = Message(
            src=robot_id,
            dst=self.host or "?",
            size_bytes=self.cfg.exec_model.message_bytes,
            created_at=now,
            seq=k,
        )
        self.generated += 1
        if self.host is None:
            self.pre_host_buffer.append(msg)
            return
        self._transmit(msg, now)

    def _transmit(self, msg: Message, now: float) -> None:
        rssi = self._link_rssi(msg.src, self.host, now)
        outcome = deliver(
            msg, rssi, now,
            base_latency=self.cfg.exec_model.base_latency,
            min_rssi=self.cfg.bounds.min_rssi,
        )
        if outcome.dropped:
            self.dropped += 1
            self._check_completion(now)
            return
        self.in_flight += 1
        self._push(outcome.arrival_at, P_ARRIVAL, "arrival", msg)

    def _on_arrival(self, now: float, msg: Message) -> None:
        # The stream follows the task: a message in flight during a
        # switch lands on the current host, as remapped channels do.
        self.in_flight -= 1
        host = self.host
        self.exec_states[host].queues[msg.src] += 1
        bits = msg.size_bytes * 8.0
        self.window_bits[host] += bits
        self.total_bits[host] += bits

    def _on_exec(self, now: float) -> None:
        dt = self.cfg.exec_model.exec_tick
        em = self.cfg.exec_model
        for eid in self.edge_ids:
            st = self.exec_states[eid]
            cpu_used, _ = self._true_load(eid, now)
            processed, _ = edge_execute(st, cpu_used, dt, self.reference_rate)
            self.processed += processed
            # Processing consumes CPU in proportion to throughput:
            # cpu_per_message is percentage-seconds per message, and a
            # weaker machine (low capacity factor) spends more of
            # itself on the same stream. The rate is smoothed over
            # about a second because per-tick message counts are
            # integers and the raw quotient would flap between zero
            # and one message per tick.
            alpha = min(1.0, dt / RATE_SMOOTHING_S)
            st.rate_ema += alpha * (processed / dt - st.rate_ema)
            st.task_cpu = min(
                em.task_cpu_cap,
                em.cpu_per_message * st.rate_ema / st.capacity_factor,
            )
        self.merged_total = sum(s.merged_total for s in self.exec_states.values())
        self._check_completion(now)

    def _on_decision(self, now: float) -> None:
        iteration = self.iteration
        self.iteration += 1
        views = {rid: self.gateways[rid].collect(now) for rid in self.robot_ids}
        tables = {
            rid: self.schedulers[rid].build_table(views[rid], now, iteration)
            for rid in self.robot_ids
        }
        for rid in self.robot_ids:
            for peer in self.robot_ids:
                if peer != rid:
                    self.schedulers[rid].observe_peer(tables[peer], received_at=now)
        proposals = {
            rid: self.schedulers[rid].propose(views[rid], now, iteration).max_edge
            for rid in self.robot_ids
        }
        results = {
            rid: self.executors[rid].on_proposals(proposals, iteration)
            for rid in self.robot_ids
        }
        first = self.robot_ids[0]
        decision = results[first][0]
        for rid in self.robot_ids[1:]:
            if results[rid][0] != decision:
                raise RuntimeError(
                    f"consensus diverged at iteration {iteration}: "
                    f"{rid} disagrees with {first}"
                )
        plan = results[first][1]
        if plan is not None:
            apply_remap(plan, self.registry)
            self._move_host(plan.target, now)
            self.switch_count += 1
        elif self.host is None and decision.quorate and decision.winner is not None:
            # First placement: the task starts running at the first
            # quorate winner. Launching is not a remap, so it does not
            # count toward switch_count.
            self._move_host(decision.winner, now)
        for rid in self.robot_ids:
            self.schedulers[rid].commit(decision.winner)
        self.decision_log.append(decision)

    def _move_host(self, new_host: str, now: float) -> None:
        old = self.host
        self.host = new_host
        for eid, st in self.exec_states.items():
            st.hosting = eid == new_host
        if old is not None and old != new_host:
            # Remapped channels redirect the stream; waiting work moves
            # with the task rather than stranding on the old edge.
            src = self.exec_states[old]
            dst = self.exec_states[new_host]
            for rid in self.robot_ids:
                dst.queues[rid] += src.queues[rid]
                src.queues[rid] = 0
                dst.merge_credits[rid] += src.merge_credits[rid]
                src.merge_credits[rid] = 0
            src.work_credit = 0.0
            src.task_cpu = 0.0
            src.rate_ema = 0.0
        if old is None and self.pre_host_buffer:
            buffered, self.pre_host_buffer = self.pre_host_buffer, []
            for msg in buffered:
                self._transmit(msg, now)

    def _on_metrics(self, now: float) -> None:
        cpu_row: dict[str, float] = {}
        mem_row: dict[str, float] = {}
        queue_row: dict[str, int] = {}
        thpt_row: dict[str, float] = {}
        for eid in self.edge_ids:
            cpu, mem = self._true_load(eid, now)
            mem_pct = mem / self.profiles[eid].mem_max * 100.0
            cpu_row[eid] = cpu
            mem_row[eid] = mem_pct
            queue_row[eid] = self.exec_states[eid].backlog
            thpt_row[eid] = self.window_bits[eid] / self.cfg.sample_period / 1e6
            self.window_bits[eid] = 0.0
            self.cpu_sum[eid] += cpu
            self.cpu_peak[eid] = max(self.cpu_peak[eid], cpu)
            self.mem_sum[eid] += mem_pct
            self.mem_peak[eid] = max(self.mem_peak[eid], mem_pct)
        self.tick_count += 1
        self.rows.append(
            TickRow(
                t=now,
                host=self.host or "",
                cpu=cpu_row,
                mem_pct=mem_row,
                queue=queue_row,
                throughput_mbps=thpt_row,
                generated=self.generated,
                processed=self.processed,
                dropped=self.dropped,
                merged=self.merged_total,
            )
        )

    def _check_completion(self, now: float) -> None:
        if self._done or self.total_quota == 0:
            return
        if self.generated == self.total_quota and self.processed + self.dropped == self.generated:
            self.completed_at = now
            self._done = True

    # ----------------------------------------------------------------- run

    def run(self) -> MetricsReport:
        handlers = {
            "sample": lambda now, _: self._on_sample(now),
            "trace_device": lambda now, snap: self._on_trace_device(snap),
            "trace_net": lambda now, snap: self._on_trace_net(snap),
            "send": lambda now, payload: self._on_send(now, *payload),
            "arrival": lambda now, msg: self._on_arrival(now, msg),
            "exec": lambda now, _: self._on_exec(now),
            "decision": lambda now, _: self._on_decision(now),
            "metrics": lambda now, _: self._on_metrics(now),
        }
        periods = self._periods
        while self._heap and not self._done:
            t, prio, _, kind, payload = heapq.heappop(self._heap)
            if t > self._effective_duration + 1e-9:
                break
            handlers[kind](t, payload)
            period = periods.get(kind)
            if period is not None and t + period <= self._effective_duration:
                self._push(t + period, prio, kind)
        return self._report()

    def _report(self) -> MetricsReport:
        elapsed = self.completed_at if self.completed_at is not None else self._effective_duration
        queued = self.generated - self.processed - self.dropped
        on_edges = sum(st.backlog for st in self.exec_states.values())
        unmerged = sum(sum(st.merge_credits.values()) for st in self.exec_states.values())
        accounted = on_edges + self.in_flight + len(self.pre_host_buffer)
        if queued != accounted:
            raise RuntimeError(
                f"message conservation violated: queued={queued} but "
                f"edges+flight+buffer={accounted} (unmerged={unmerged})"
            )
        ticks = max(self.tick_count, 1)
        per_edge = {
            eid: EdgeMetrics(
                edge_id=eid,
                mean_cpu=self.cpu_sum[eid] / ticks,
                peak_cpu=self.cpu_peak[eid],
                mean_mem_pct=self.mem_sum[eid] / ticks,
                peak_mem_pct=self.mem_peak[eid],
                mean_throughput_mbps=self.total_bits[eid] / elapsed / 1e6 if elapsed > 0 else 0.0,
            )
            for eid in self.edge_ids
        }
        return MetricsReport(
            scheme=self.cfg.scheme,
            seed=self.cfg.seed,
            duration=self.cfg.duration,
            elapsed=elapsed,
            completed=self.completed_at is not None,
            task_latency=elapsed,
            processing_frequency=self.merged_total / elapsed if elapsed > 0 else 0.0,
            merged_outputs=self.merged_total,
            switch_count=self.switch_count,
            generated=self.generated,
            processed=self.processed,
            queued=queued,
            dropped=self.dropped,
            per_edge=per_edge,
            decisions=tuple(self.decision_log),
            per_robot_decisions={
                rid: tuple(self.executors[rid].decisions) for rid in self.robot_ids
            },
            timeseries=tuple(self.rows),
        )


def run_scenario(
    cfg: ScenarioConfig,
    device_trace: Optional[str] = None,
    net_trace: Optional[str] = None,
) -> MetricsReport:
    """Run one scenario to completion and return its metrics report."""
    return Simulation(cfg, device_trace=device_trace, net_trace=net_trace).run()


# ------------------------------------------------------------- comparison

@dataclass(frozen=True)
class RunRow:
    scheme: str
    seed: int
    report: MetricsReport


@dataclass(frozen=True)
class SchemeSummary:
    """Seed-averaged metrics for one scheme."""

    scheme: str
    seeds: int
    completed_runs: int
    latency_mean: float
    latency_std: float
    frequency_mean: float
    frequency_std: float
    switches_mean: float
    cpu_variance_mean: float
    throughput_mean: float  # fleet-total mean Mbps


@dataclass(frozen=True)
class ComparisonResult:
    schemes: tuple[str, ...]
    seeds: tuple[int, ...]
    runs: tuple[RunRow, ...]
    summary: dict[str, SchemeSummary]

    def rows_for(self, scheme: str) -> list[RunRow]:
        return [r for r in self.runs if r.scheme == scheme]


def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = statistics.fmean(values)
    std = statistics.pstdev(values) if len(values) > 1 else 0.0
    return mean, std


def compare_schemes(
    cfg: ScenarioConfig,
    schemes: list[str],
    seeds: Optional[list[int]] = None,
) -> ComparisonResult:
    """Run every scheme over the same seed list and aggregate.

    Explicit config weights are cleared so each dynamic variant uses
    its own preset; everything else is held identical across schemes,
    making the per-seed rows directly comparable.
    """
    if len(schemes) < 2:
        raise ConfigError("compare needs at least two schemes")
    for scheme in schemes:
        parse_scheme(scheme, cfg.edge_ids)
    if seeds is None:
        seeds = [cfg.seed + i for i in range(5)]
    if not seeds:
        raise ConfigError("compare needs at least one seed")
    runs: list[RunRow] = []
    for scheme in schemes:
        for seed in seeds:
            run_cfg = replace(cfg, scheme=scheme, seed=seed, weights=None)
            runs.append(RunRow(scheme, seed, run_scenario(run_cfg)))
    summary: dict[str, SchemeSummary] = {}
    for scheme in schemes:
        reports = [r.report for r in runs if r.scheme == scheme]
        lat_mean, lat_std = _mean_std([r.task_latency for r in reports])
        freq_mean, freq_std = _mean_std([r.processing_frequency for r in reports])
        summary[scheme] = SchemeSummary(
            scheme=scheme,
            seeds=len(seeds),
            completed_runs=sum(1 for r in reports if r.completed),
            latency_mean=lat_mean,
            latency_std=lat_std,
            frequency_mean=freq_mean,
            frequency_std=freq_std,
            switches_mean=statistics.fmean([r.switch_count for r in reports]),
            cpu_variance_mean=statistics.fmean([r.cpu_balance_variance() for r in reports]),
            throughput_mean=statistics.fmean(
                [sum(m.mean_throughput_mbps for m in r.per_edge.values()) for r in reports]
            ),
        )
    return ComparisonResult(tuple(schemes), tuple(seeds), tuple(runs), summary)


def default_schemes(cfg: ScenarioConfig) -> list[str]:
    """One fixed scheme per edge plus the three main dynamic variants."""
    fixed = [f"fixed:{eid}" for eid in cfg.edge_ids]
    return fixed + ["dynamic:cpu", "dynamic:mem", "dynamic:both"]
