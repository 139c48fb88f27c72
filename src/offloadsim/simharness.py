"""Deterministic discrete-event simulation of the offloading fleet.

One run wires the whole pipeline together: synthetic profilers (or
replayed trace rows) write floats into the fleet's one reading store
(``Gateway``), whose columns are aligned with the sorted edge ids; each
decision round reads those columns in place, scores every edge's
device once and every link once, sums each edge once exactly, and each
robot votes for the top sum (``scheduler.fleet_votes``); each robot's
executor computes the same consensus decision, the task moves to the
winner with its waiting work (``apply_remap``), and the host edge runs
the fleet's task messages under a load-dependent service law.
No reading is built as an object on the way: a sample or a replayed
row is a few floats, checked and written into the store's columns, and
a vote is an edge id. A single priority queue orders events by (time,
priority, insertion sequence), so a (config, seed) pair fully
determines every output byte.

Periodic events (sample, exec, decision, metrics) are scheduled one
ahead: only the first of each kind is queued up front, and handling one
queues its successor a period later while that stays inside the
horizon. Each periodic kind has a priority of its own (``sample``
shares one only with replayed trace rows, which never run alongside
it), so this orders events exactly as queuing the whole series up
front would. Message sends are queued one ahead per robot as well:
each send keeps the insertion sequence number it would have had if
every send were queued up front (robot blocks in ascending id, right
after the first periodic events), so sends tie-break against arrivals
exactly as before and the queue holds at most one send per robot.
Replayed trace rows are queued one ahead per stream (each edge's device
rows, then all network rows) under the same rule, so the queue holds at
most one row per stream. A stream is a trace held as columns
(``profiling.DeviceTrace``, ``profiling.NetworkTrace``): its cut at the
horizon is a bisection of its ``t`` column, and a handled row's floats
are copied from the columns into the store. The store's latest trace
readings are also the replayed CPU load and link RSSI. A robot that has
heard from no edge casts no vote, so a round before the first reading
of any kind is deferred.

The loop does only work whose result is read. Only the host edge
holds work, so an exec tick advances the host alone (an idle edge is a
fixed point of ``edge_execute``) and nothing before the first
placement. Only the decision round reads synthetic samples, so they
are taken under dynamic schemes only. Spike load is read from each
device profile's step table (``SpikeTable``), once per edge per
metrics sample. A link whose robot has no waypoints computes its path
loss on first use and keeps it; a robot with waypoints recomputes it
from its pose at each use. A message is only
its robot's id in the pre-placement buffer and in an arrival event, so
sends and arrivals build no message objects. ``run()`` calls each
``_on_<kind>`` handler directly. A sample draws each link's shadowing
before any send at its instant (``P_SAMPLE`` sorts first), so a send
or buffered transmit at a sample instant reads that reading instead of
drawing the same key again; a single run hashes each draw key once.
``compare_schemes`` gives its runs one memo of shadowing and noise
draws, so a draw they share is made once.

Where the task runs is recorded once per robot, as its executor's
``previous`` winner, and once for the run, as ``Simulation.host``; the
host moves whenever the round's winner differs from it, and it is the
incumbent every robot's vote favours.

A report holds its record compactly. Its time series (``Timeseries``)
is one float or integer column per metric, and the run's per-edge CPU
and memory means and peaks are read from those columns when the report
is made; only the run's total bits per edge, which the per-window
throughput column cannot give back, are kept beside it. Once a round's
decisions are found equal every robot's log holds the first robot's
``Decision`` for that round. The report's ``decisions`` is one tuple,
made once the logs are found equal, and every robot's entry in
``per_robot_decisions`` is that tuple.

Scheme semantics: ``fixed:<edge>`` pins the task to one edge and runs
no scheduler at all; ``dynamic:<variant>`` runs the full decision
pipeline with that variant's weight preset (unless the config names
explicit weights).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
import statistics
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from random import Random
from typing import Optional

from .config import EdgeSpec, ScenarioConfig, SpikeModel, parse_scheme
from .consensus import ConsensusExecutor, Decision
from .errors import ConfigError, TraceFormatError
from .netsim import deliver, path_loss_dbm, rssi_at
from .profiling import (
    NEVER,
    DeviceProfile,
    Gateway,
    LoadSpike,
    SyntheticDeviceProfiler,
    load_device_trace,
    load_network_trace,
    spike_load,  # noqa: F401 - perfbench's tracer wraps simharness.spike_load
)
from .scheduler import fleet_votes

# Event priorities at equal timestamps: readings land before messages,
# execution precedes the decision round, metrics sample last.
P_SAMPLE = 0
P_ARRIVAL = 1
P_EXEC = 2
P_DECISION = 3
P_METRICS = 4

# Every kind of event run() dispatches to its handler: _on_<kind>(t) for
# a periodic kind, _on_<kind>(t, payload) for the others.
EVENT_KINDS = ("sample", "trace_device", "trace_net", "send", "arrival", "exec",
               "decision", "metrics")

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
    credit = state.work_credit + rate * dt
    queues = state.queues
    processed = 0
    while credit >= 1.0:
        target, depth = None, 0
        for rid, n in queues.items():
            if n > depth or (n == depth and n > 0 and rid < target):
                target, depth = rid, n
        if target is None:
            break
        queues[target] = depth - 1
        state.merge_credits[target] += 1
        credit -= 1.0
        processed += 1
    state.work_credit = credit if any(queues.values()) else 0.0
    merges = min(state.merge_credits.values()) if state.merge_credits else 0
    if merges > 0:
        for rid in state.merge_credits:
            state.merge_credits[rid] -= merges
    return processed, merges


def apply_remap(src: EdgeExecState, dst: EdgeExecState) -> None:
    """Move the task's waiting work from its old host to its new one.

    The stream follows the task, so queued messages and merge credits
    move with it rather than stranding on the old edge, and the old
    edge's service state is reset.
    """
    for rid in src.queues:
        dst.queues[rid] += src.queues[rid]
        src.queues[rid] = 0
        dst.merge_credits[rid] += src.merge_credits[rid]
        src.merge_credits[rid] = 0
    src.work_credit = 0.0
    src.task_cpu = 0.0
    src.rate_ema = 0.0


class Timeseries:
    """A run's metrics samples held as columns, in time order.

    ``t`` is a float column, ``host`` the host edge's id per sample
    (``""`` before placement), and ``generated``, ``processed``,
    ``dropped`` and ``merged`` are integer columns of running counts.
    The per-edge metrics ``cpu``, ``mem_pct``, ``throughput_mbps``
    (floats) and ``queue`` (integers) are one column each that holds a
    value per edge per sample, sample by sample in ``edge_ids`` order,
    so a run builds nine columns whatever its fleet size;
    ``edge_column(name, edge_id)`` iterates over one edge's values
    without copying them. ``len()`` is the sample count, and ``==``
    compares the columns.
    """

    __slots__ = ("edge_ids", "t", "host", "cpu", "mem_pct", "queue", "throughput_mbps",
                 "generated", "processed", "dropped", "merged")

    def __init__(self, edge_ids: list[str]) -> None:
        self.edge_ids = tuple(edge_ids)
        self.t = array("d")
        self.host: list[str] = []
        self.cpu = array("d")
        self.mem_pct = array("d")
        self.queue = array("q")
        self.throughput_mbps = array("d")
        self.generated = array("q")
        self.processed = array("q")
        self.dropped = array("q")
        self.merged = array("q")

    def edge_column(self, name: str, edge_id: str) -> itertools.islice:
        """One edge's values of the per-edge metric ``name``, one per sample."""
        column, edges = getattr(self, name), self.edge_ids
        return itertools.islice(column, edges.index(edge_id), None, len(edges))

    def __len__(self) -> int:
        return len(self.t)

    def __eq__(self, other):
        if not isinstance(other, Timeseries):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


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
    timeseries: Timeseries

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
        *,
        draws: Optional[dict] = None,
    ) -> None:
        self.cfg = cfg
        self.draws = draws
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
            self.profilers = {
                eid: SyntheticDeviceProfiler(
                    profile, seed=cfg.seed, noise_amp=cfg.noise_amp,
                    draws=None if draws is None else draws.setdefault(("noise", cfg.seed), {}),
                )
                for eid, profile in self.profiles.items()
            }
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
            robots = sorted(set(self.net_rows.robot_id).difference(self.robot_ids))
            edges = sorted(set(self.net_rows.edge_id).difference(self.edge_ids))
            if robots or edges:
                raise TraceFormatError(
                    f"network trace names unknown robots: {robots}, unknown edges: {edges}"
                )

        # Path loss per edge of each robot without waypoints, filled on first use.
        self._static_loss: dict[str, dict[str, float]] = {
            rid: {} for rid in self.robot_ids if not self.robots[rid].waypoints
        }
        self.gateway = Gateway(self.robot_ids, self.edge_ids, 3.0 * cfg.sample_period)
        self.weights = cfg.effective_weights()
        self.executors = {
            rid: ConsensusExecutor(rid, len(self.robot_ids)) for rid in self.robot_ids
        }
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
        self.alpha = min(1.0, cfg.exec_model.exec_tick / RATE_SMOOTHING_S)
        self.message_bits = cfg.exec_model.message_bytes * 8.0

        # message accounting
        self.generated = 0
        self.processed = 0
        self.dropped = 0
        self.in_flight = 0
        self.pre_host_buffer: list[str] = []  # robot id of each message sent before placement
        self.total_quota = cfg.total_quota()
        self.host: Optional[str] = None
        if not self.dynamic:
            self._move_host(arg, 0.0)
        self.merged_total = 0
        self.switch_count = 0
        self.iteration = 0
        self.completed_at: Optional[float] = None

        # metrics accumulators
        self.window_bits = {eid: 0.0 for eid in self.edge_ids}
        self.total_bits = {eid: 0.0 for eid in self.edge_ids}
        self.timeseries = Timeseries(self.edge_ids)

        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._done = False
        self._schedule_initial_events()

    # ------------------------------------------------------------ plumbing

    def _push(self, t: float, prio: int, kind: str, payload=None,
              seq: Optional[int] = None) -> None:
        if seq is None:
            seq = next(self._seq)
        heapq.heappush(self._heap, (t, prio, seq, kind, payload))

    def _schedule_initial_events(self) -> None:
        cfg = self.cfg
        self._effective_duration = cfg.duration
        if self.replay:
            ends = [rows.t[-1] for rows in self.device_rows.values()]
            ends.append(self.net_rows.t[-1])
            horizon = self._effective_duration = min(cfg.duration, max(ends))
            # One stream per edge's device rows (sorted edges), then the
            # network rows. Row k of a stream takes sequence number seq0 + k,
            # as if every row in the horizon were queued here, and
            # _next_row queues row k + 1 when row k is handled.
            streams = [("trace_device", self.device_rows[eid]) for eid in sorted(self.device_rows)]
            streams.append(("trace_net", self.net_rows))
            self._streams: list[tuple] = []  # (kind, rows, cut, seq0)
            seq0 = next(self._seq)
            for stream, (kind, rows) in enumerate(streams):
                cut = bisect_right(rows.t, horizon)
                self._streams.append((kind, rows, cut, seq0))
                if cut:
                    self._push(rows.t[0], P_SAMPLE, kind, (stream, 0), seq=seq0)
                seq0 += cut
            self._seq = itertools.count(seq0)
        tick = cfg.exec_model.exec_tick
        periodic = []  # (first time, priority, kind, period); run() queues the rest
        if self.dynamic and not self.replay:
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
        # Send k of a robot takes sequence number seq0 + k - 1: the
        # number it would get if every send were queued here, robot by
        # robot. _on_send queues the next one when it handles a send.
        self._sends: dict[str, tuple[float, int, int]] = {}  # rid -> (rate, quota, seq0)
        seq0 = next(self._seq)
        for rid in self.robot_ids:
            spec = self.robots[rid]
            rate = cfg.input_rate_of(spec)
            quota = cfg.message_quota(spec)
            self._sends[rid] = (rate, quota, seq0)
            if quota > 0:
                self._push(1 / rate, P_ARRIVAL, "send", (rid, 1), seq=seq0)
            seq0 += quota
        self._seq = itertools.count(seq0)

    def _path_loss(self, robot_id: str, edge_id: str, now: float) -> float:
        x, y = self.robots[robot_id].pose_at(now)
        edge = self.edges[edge_id]
        return path_loss_dbm(self.cfg.link, x, y, edge.x, edge.y)

    def _link_rssi(self, robot_id: str, edge_id: str, now: float) -> float:
        gateway = self.gateway
        j = gateway.column[edge_id]
        if self.replay:  # a link never replayed reads -120 dBm
            return gateway.rssi[robot_id][j]
        # P_SAMPLE sorts first, so a sample at now has drawn this link
        # already and its reading is this draw. Only a float now has the
        # sample's key: 1 == 1.0, but their reprs differ.
        if gateway.link_t[robot_id][j] == now and type(now) is float:
            return gateway.rssi[robot_id][j]
        return self._draw_rssi(robot_id, edge_id, now)

    def _draw_rssi(self, robot_id: str, edge_id: str, now: float) -> float:
        static = self._static_loss.get(robot_id)
        if static is None:  # the robot moves
            loss = self._path_loss(robot_id, edge_id, now)
        else:
            loss = static.get(edge_id)
            if loss is None:
                loss = static[edge_id] = self._path_loss(robot_id, edge_id, now)
        return rssi_at(self.cfg.link, loss, robot_id, edge_id, now, self.draws)

    def _true_cpu(self, eid: str, now: float, spike_cpu: Optional[float] = None) -> float:
        """Actual cpu % on an edge, including task-induced load.

        ``spike_cpu`` is the edge's spike CPU at ``now`` when the caller
        has read it already.
        """
        profile = self.profiles[eid]
        if self.replay:
            gateway = self.gateway
            j = gateway.column[eid]
            cpu = profile.base_cpu if gateway.device_t[j] == NEVER else gateway.cpu_used[j]
        else:
            if spike_cpu is None:
                spike_cpu = profile.spike_table.at(now)[0]
            cpu = profile.base_cpu + spike_cpu + self.exec_states[eid].task_cpu
        return max(0.0, min(profile.cpu_max, cpu))

    def _true_load(self, eid: str, now: float) -> tuple[float, float]:
        """Actual (cpu %, mem MB) on an edge, including task-induced load."""
        profile = self.profiles[eid]
        spike_cpu, spike_mem = profile.spike_table.at(now)
        mem = profile.base_mem + spike_mem
        if eid == self.host:
            mem += self.cfg.task.mem_footprint
        return self._true_cpu(eid, now, spike_cpu), max(0.0, min(profile.mem_max, mem))

    # -------------------------------------------------------------- events

    def _on_sample(self, now: float) -> None:
        # Profilers report background load (base + spikes + noise); the
        # task's own induced load shows up in the service law and the
        # metrics, not in the readings the decision round compares.
        # Feeding the task's load back into its own placement signal
        # would penalize whichever edge hosts it and defeat the hysteresis.
        # A sample is the first reading at its instant, so each link is
        # drawn without _link_rssi's look for one.
        gateway = self.gateway
        for eid in self.edge_ids:
            profile = self.profiles[eid]
            cpu_used, mem_used = self.profilers[eid].sample(now)
            gateway.ingest_device(eid, now, profile.cpu_max, cpu_used, profile.mem_max, mem_used)
        ingest_network, draw = gateway.ingest_network, self._draw_rssi
        for rid in self.robot_ids:
            for eid in self.edge_ids:
                ingest_network(rid, eid, now, draw(rid, eid, now))

    def _on_trace_device(self, now: float, row: tuple[int, int]) -> None:
        rows, k = self._next_row(row)
        self.gateway.ingest_device(rows.edge_id, rows.t[k], rows.cpu_max[k], rows.cpu_used[k],
                                   rows.mem_max[k], rows.mem_used[k])

    def _on_trace_net(self, now: float, row: tuple[int, int]) -> None:
        rows, k = self._next_row(row)
        self.gateway.ingest_network(rows.robot_id[k], rows.edge_id[k], rows.t[k], rows.rssi[k])

    def _next_row(self, row: tuple[int, int]) -> tuple:
        """Queue the successor of a stream's row k; return the stream's rows and k."""
        stream, k = row
        kind, rows, cut, seq0 = self._streams[stream]
        if k + 1 < cut:
            self._push(rows.t[k + 1], P_SAMPLE, kind, (stream, k + 1), seq=seq0 + k + 1)
        return rows, k

    def _on_send(self, now: float, send: tuple[str, int]) -> None:
        robot_id, k = send  # the robot's k-th message
        rate, quota, seq0 = self._sends[robot_id]
        if k < quota:
            self._push((k + 1) / rate, P_ARRIVAL, "send", (robot_id, k + 1), seq=seq0 + k)
        self.generated += 1
        if self.host is None:
            self.pre_host_buffer.append(robot_id)
            return
        self._transmit(robot_id, now)

    def _transmit(self, robot_id: str, now: float) -> None:
        em = self.cfg.exec_model
        outcome = deliver(em.message_bytes, self._link_rssi(robot_id, self.host, now), now,
                          em.base_latency, self.cfg.bounds.min_rssi)
        if outcome.dropped:
            self.dropped += 1
            self._check_completion(now)
            return
        self.in_flight += 1
        self._push(outcome.arrival_at, P_ARRIVAL, "arrival", robot_id)

    def _on_arrival(self, now: float, robot_id: str) -> None:
        # The stream follows the task: a message in flight during a
        # switch lands on the current host.
        self.in_flight -= 1
        host = self.host
        self.exec_states[host].queues[robot_id] += 1
        self.window_bits[host] += self.message_bits
        self.total_bits[host] += self.message_bits

    def _on_exec(self, now: float) -> None:
        # Only the host holds work: arrivals land on it and apply_remap
        # zeroes the old host, and on an all-zero edge a tick changes
        # nothing. So the host alone is advanced, once there is one.
        host = self.host
        if host is not None:
            em = self.cfg.exec_model
            dt = em.exec_tick
            st = self.exec_states[host]
            processed, merges = edge_execute(st, self._true_cpu(host, now), dt,
                                             self.reference_rate)
            self.processed += processed
            self.merged_total += merges
            # Processing consumes CPU in proportion to throughput:
            # cpu_per_message is percentage-seconds per message, and a
            # weaker machine (low capacity factor) spends more of
            # itself on the same stream. The rate is smoothed over
            # about a second because per-tick message counts are
            # integers and the raw quotient would flap between zero
            # and one message per tick.
            st.rate_ema += self.alpha * (processed / dt - st.rate_ema)
            st.task_cpu = min(
                em.task_cpu_cap,
                em.cpu_per_message * st.rate_ema / st.capacity_factor,
            )
        self._check_completion(now)

    def _on_decision(self, now: float) -> None:
        iteration = self.iteration
        self.iteration += 1
        # Replayed traces may start late: with no robot that has heard
        # anything there is no vote, and the round is deferred as one
        # short of quorum is.
        votes = fleet_votes(self.gateway, now, self.host, self.cfg.task, self.cfg.bounds,
                            self.weights, self.cfg.sticky_bonus)
        first, *rest = self.robot_ids
        decision = self.executors[first].on_proposals(votes, iteration)
        for rid in rest:
            if self.executors[rid].on_proposals(votes, iteration) != decision:
                raise RuntimeError(
                    f"consensus diverged at iteration {iteration}: "
                    f"{rid} disagrees with {first}"
                )
            # Equal decisions: every robot's log shares the first robot's.
            self.executors[rid].decisions[-1] = decision
        if decision.winner is not None and decision.winner != self.host:
            # The first placement launches the task; it is not a switch.
            self.switch_count += decision.switched
            self._move_host(decision.winner, now)

    def _move_host(self, new_host: str, now: float) -> None:
        old = self.host
        self.host = new_host
        if old is not None and old != new_host:
            apply_remap(self.exec_states[old], self.exec_states[new_host])
        if old is None and self.pre_host_buffer:
            buffered, self.pre_host_buffer = self.pre_host_buffer, []
            for robot_id in buffered:
                self._transmit(robot_id, now)

    def _on_metrics(self, now: float) -> None:
        ts = self.timeseries
        ts.t.append(now)
        ts.host.append(self.host or "")
        for eid in self.edge_ids:
            cpu, mem = self._true_load(eid, now)
            ts.cpu.append(cpu)
            ts.mem_pct.append(mem / self.profiles[eid].mem_max * 100.0)
            ts.queue.append(self.exec_states[eid].backlog)
            ts.throughput_mbps.append(self.window_bits[eid] / self.cfg.sample_period / 1e6)
            self.window_bits[eid] = 0.0
        ts.generated.append(self.generated)
        ts.processed.append(self.processed)
        ts.dropped.append(self.dropped)
        ts.merged.append(self.merged_total)

    def _check_completion(self, now: float) -> None:
        if self._done or self.total_quota == 0:
            return
        if self.generated == self.total_quota and self.processed + self.dropped == self.generated:
            self.completed_at = now
            self._done = True

    # ----------------------------------------------------------------- run

    def run(self) -> MetricsReport:
        handlers = {kind: getattr(self, f"_on_{kind}") for kind in EVENT_KINDS}
        periods = self._periods
        heap, push, horizon = self._heap, self._push, self._effective_duration
        while heap and not self._done:
            t, prio, _, kind, payload = heapq.heappop(heap)
            if t > horizon + 1e-9:
                break
            period = periods.get(kind)
            if period is None:
                handlers[kind](t, payload)
            else:
                handlers[kind](t)
                if t + period <= horizon:
                    push(t + period, prio, kind)
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
        ts = self.timeseries
        ticks = max(len(ts), 1)
        first, *rest = self.robot_ids
        log = self.executors[first].decisions
        for rid in rest:
            if self.executors[rid].decisions != log:
                raise RuntimeError(f"decision logs diverged: {rid} disagrees with {first}")
        decisions = tuple(log)

        # Added left to right, sample by sample, on every interpreter:
        # builtin sum rounds floats differently from Python 3.12 on.
        def mean(name: str, eid: str) -> float:
            return functools.reduce(operator.add, ts.edge_column(name, eid), 0.0) / ticks

        def peak(name: str, eid: str) -> float:
            return max(ts.edge_column(name, eid), default=0.0)

        per_edge = {
            eid: EdgeMetrics(
                edge_id=eid,
                mean_cpu=mean("cpu", eid),
                peak_cpu=peak("cpu", eid),
                mean_mem_pct=mean("mem_pct", eid),
                peak_mem_pct=peak("mem_pct", eid),
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
            decisions=decisions,
            per_robot_decisions=dict.fromkeys(self.robot_ids, decisions),
            timeseries=ts,
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
    making the per-seed rows directly comparable. The runs share one draw
    memo for this call only, and a repeated (scheme, seed) runs once; each
    report is byte-identical to ``run_scenario`` on its (scheme, seed).
    """
    if len(schemes) < 2:
        raise ConfigError("compare needs at least two schemes")
    for scheme in schemes:
        parse_scheme(scheme, cfg.edge_ids)
    if seeds is None:
        seeds = [cfg.seed + i for i in range(5)]
    if not seeds:
        raise ConfigError("compare needs at least one seed")
    draws: dict = {}
    by_run: dict[tuple[str, int], MetricsReport] = {}
    # Seed by seed, so each seed's noise draws go once its runs are done.
    for seed in dict.fromkeys(seeds):
        for scheme in dict.fromkeys(schemes):
            run_cfg = replace(cfg, scheme=scheme, seed=seed, weights=None)
            by_run[scheme, seed] = Simulation(run_cfg, draws=draws).run()
        draws.pop(("noise", seed), None)
    runs = [RunRow(scheme, seed, by_run[scheme, seed]) for scheme in schemes for seed in seeds]
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
                [math.fsum(m.mean_throughput_mbps for m in r.per_edge.values()) for r in reports]
            ),
        )
    return ComparisonResult(tuple(schemes), tuple(seeds), tuple(runs), summary)


def default_schemes(cfg: ScenarioConfig) -> list[str]:
    """One fixed scheme per edge plus the three main dynamic variants."""
    fixed = [f"fixed:{eid}" for eid in cfg.edge_ids]
    return fixed + ["dynamic:cpu", "dynamic:mem", "dynamic:both"]
