"""The event loop against a reference that does every piece of work.

``Simulation`` skips work whose result nothing reads: an exec tick
advances only the hosting edge, synthetic samples are taken only for a
scheduler, and each robot's sends are queued one ahead. Replayed trace
rows are queued one ahead per stream as well. The reference subclass
below does all of it, the way the loop did before it skipped anything:
every edge on every tick, samples under every scheme, every send and
every trace row queued up front. Over random small configs and trace
pairs both must render the same ``metrics.csv`` and ``decisions.csv``
and handle the same events in the same order.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from offloadsim.cli import render_decisions_csv, render_metrics_csv
from offloadsim.config import (
    WEIGHT_PRESETS,
    EdgeSpec,
    ExecModel,
    RobotSpec,
    ScenarioConfig,
    SpikeModel,
)
from offloadsim.netsim import LinkModel
from offloadsim.profiling import LoadSpike
from offloadsim.simharness import (
    P_ARRIVAL,
    P_DECISION,
    P_EXEC,
    P_METRICS,
    P_SAMPLE,
    RATE_SMOOTHING_S,
    Simulation,
    edge_execute,
)
from offloadsim.utility import TaskSpec

LOGGED_KINDS = ("trace_device", "trace_net", "send", "arrival", "exec", "decision", "metrics")


def device_row(rows, k):
    """Row k of a ``DeviceTrace``: the ``Gateway.ingest_device`` arguments."""
    return (rows.edge_id, rows.t[k], rows.cpu_max[k], rows.cpu_used[k], rows.mem_max[k],
            rows.mem_used[k])


def network_row(rows, k):
    """Row k of a ``NetworkTrace``: the ``Gateway.ingest_network`` arguments."""
    return rows.robot_id[k], rows.edge_id[k], rows.t[k], rows.rssi[k]


ROW_OF = {"trace_device": device_row, "trace_net": network_row}


class EveryWorkSimulation(Simulation):
    """Advances every edge, samples under every scheme, queues every send and row up front."""

    def _schedule_initial_events(self) -> None:
        cfg = self.cfg
        self._effective_duration = cfg.duration
        if self.replay:
            ends = [rows.t[-1] for rows in self.device_rows.values() if rows]
            ends.append(self.net_rows.t[-1])
            self._effective_duration = min(cfg.duration, max(ends))
            streams = [("trace_device", self.device_rows[eid]) for eid in sorted(self.device_rows)]
            streams.append(("trace_net", self.net_rows))
            for kind, rows in streams:
                for k, t in enumerate(rows.t):
                    if t <= self._effective_duration:
                        self._push(t, P_SAMPLE, kind, ROW_OF[kind](rows, k))
        tick = cfg.exec_model.exec_tick
        periodic = []
        if not self.replay:
            periodic.append((0.0, P_SAMPLE, "sample", cfg.sample_period))
        periodic.append((tick, P_EXEC, "exec", tick))
        if self.dynamic:
            periodic.append((cfg.decision_period, P_DECISION, "decision", cfg.decision_period))
        periodic.append((0.0, P_METRICS, "metrics", cfg.sample_period))
        self._periods = {}
        for t, prio, kind, period in periodic:
            self._periods[kind] = period
            if t <= self._effective_duration:
                self._push(t, prio, kind)
        for rid in self.robot_ids:
            spec = self.robots[rid]
            rate = cfg.input_rate_of(spec)
            for k in range(1, cfg.message_quota(spec) + 1):
                self._push(k / rate, P_ARRIVAL, "send", (rid, k))

    def _on_trace_device(self, now: float, row: tuple) -> None:
        self.gateway.ingest_device(*row)

    def _on_trace_net(self, now: float, row: tuple) -> None:
        self.gateway.ingest_network(*row)

    def _on_send(self, now: float, send: tuple[str, int]) -> None:
        robot_id, _ = send
        self.generated += 1
        if self.host is None:
            self.pre_host_buffer.append(robot_id)
            return
        self._transmit(robot_id, now)

    def _on_exec(self, now: float) -> None:
        em = self.cfg.exec_model
        dt = em.exec_tick
        for eid in self.edge_ids:
            st = self.exec_states[eid]
            cpu_used, _ = self._true_load(eid, now)
            processed, merges = edge_execute(st, cpu_used, dt, self.reference_rate)
            self.processed += processed
            self.merged_total += merges
            alpha = min(1.0, dt / RATE_SMOOTHING_S)
            st.rate_ema += alpha * (processed / dt - st.rate_ema)
            st.task_cpu = min(
                em.task_cpu_cap,
                em.cpu_per_message * st.rate_ema / st.capacity_factor,
            )
        self._check_completion(now)


def run_logged(sim: Simulation):
    """Run sim and return its report with every non-sample event it handled.

    A replayed row is logged as its values, whether the event carries
    them (the reference) or the row's (stream, index) position.
    """
    log = []
    for kind in LOGGED_KINDS:
        handler = getattr(sim, f"_on_{kind}")

        def logged(now, *args, kind=kind, handler=handler):
            entry = args
            if kind.startswith("trace_") and not isinstance(sim, EveryWorkSimulation):
                stream, k = args[0]
                entry = (ROW_OF[kind](sim._streams[stream][1], k),)
            log.append((kind, now, entry))
            handler(now, *args)

        setattr(sim, f"_on_{kind}", logged)
    return sim.run(), log


def assert_same_as_reference(cfg: ScenarioConfig, device_trace=None, net_trace=None):
    report, log = run_logged(Simulation(cfg, device_trace, net_trace))
    expected, expected_log = run_logged(EveryWorkSimulation(cfg, device_trace, net_trace))
    assert render_metrics_csv(report) == render_metrics_csv(expected)
    assert render_decisions_csv(report) == render_decisions_csv(expected)
    assert log == expected_log
    # Message conservation (the report also raises if it is broken).
    assert report.queued >= 0
    assert report.generated == report.processed + report.queued + report.dropped
    assert report.generated <= cfg.total_quota()
    # Consensus never diverges: every robot logged the fleet's decisions.
    for decisions in report.per_robot_decisions.values():
        assert decisions == report.decisions
    return report


# ----------------------------------------------------------- random configs

coords = st.floats(min_value=0.0, max_value=30.0)
rates = st.sampled_from([None, 0.0, 0.5, 1.0, 2.0, 3.0, 1.5, 0.7])


@st.composite
def waypoints(draw):
    """Two or three waypoints, sometimes taking the robot out of radio range."""
    times = sorted(draw(st.sets(st.integers(0, 60), min_size=2, max_size=3)))
    far = st.floats(min_value=0.0, max_value=300.0)
    return tuple((float(t), draw(far), draw(coords)) for t in times)


@st.composite
def robots(draw, n):
    out = []
    for i in range(1, n + 1):
        moving = draw(st.booleans())
        out.append(RobotSpec(
            f"r{i}",
            x=draw(coords),
            y=draw(coords),
            waypoints=draw(waypoints()) if moving else (),
            input_rate=draw(rates),
        ))
    return tuple(out)


@st.composite
def spikes(draw):
    return tuple(
        LoadSpike(
            start=float(draw(st.integers(0, 50))),
            duration=float(draw(st.integers(1, 30))),
            cpu_add=draw(st.floats(min_value=0.0, max_value=60.0)),
            mem_add=draw(st.floats(min_value=0.0, max_value=1500.0)),
        )
        for _ in range(draw(st.integers(0, 2)))
    )


@st.composite
def edges(draw, m):
    return tuple(
        EdgeSpec(
            f"e{i}",
            x=draw(coords),
            y=draw(coords),
            base_cpu=draw(st.floats(min_value=0.0, max_value=60.0)),
            base_mem=draw(st.floats(min_value=0.0, max_value=2000.0)),
            capacity_factor=draw(st.sampled_from([0.5, 1.0, 1.5])),
            spikes=draw(spikes()),
        )
        for i in range(1, m + 1)
    )


@st.composite
def scenarios(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    edge_specs = draw(edges(m))
    scheme = draw(st.sampled_from(
        [f"fixed:{e.edge_id}" for e in edge_specs]
        + [f"dynamic:{variant}" for variant in sorted(WEIGHT_PRESETS)]
    ))
    duration = float(draw(st.integers(5, 40)))
    nominal = draw(st.one_of(st.none(), st.integers(1, int(duration))))
    return ScenarioConfig(
        name="random",
        robots=draw(robots(n)),
        edges=edge_specs,
        task=TaskSpec("merge", mem_footprint=draw(st.sampled_from([0.0, 512.0])),
                      input_rate=draw(st.sampled_from([0.5, 1.0, 2.0])),
                      work_per_message=draw(st.sampled_from([40.0, 80.0, 200.0]))),
        scheme=scheme,
        link=LinkModel(shadow_sigma=draw(st.sampled_from([0.0, 2.0, 6.0]))),
        spike_model=draw(st.one_of(st.none(), st.builds(
            SpikeModel,
            rate=st.sampled_from([0.05, 0.2]),
            duration_range=st.just((2.0, 20.0)),
        ))),
        exec_model=ExecModel(
            cpu_per_message=draw(st.sampled_from([2.0, 4.0])),
            exec_tick=draw(st.sampled_from([0.1, 0.25, 0.5])),
        ),
        sticky_bonus=draw(st.sampled_from([0.0, 0.05])),
        noise_amp=draw(st.sampled_from([0.0, 2.0])),
        duration=duration,
        nominal_duration=None if nominal is None else float(nominal),
        seed=draw(st.integers(0, 10_000)),
    )


# A send ties with an arrival every second: 3,375,000 bytes at 54 Mbps
# take 0.5 s on top of 0.5 s base latency, so the message sent at k s
# arrives at k + 1 s, when the next one is sent.
TIED = ScenarioConfig(
    name="tied",
    robots=(RobotSpec("r1", x=0.0, y=0.0), RobotSpec("r2", x=0.5, y=0.0)),
    edges=(EdgeSpec("e1", x=0.0, y=1.0), EdgeSpec("e2", x=1.0, y=0.0)),
    task=TaskSpec("merge", mem_footprint=0.0, input_rate=1.0, work_per_message=80.0),
    scheme="dynamic:both",
    link=LinkModel(shadow_sigma=0.0),
    exec_model=ExecModel(message_bytes=3_375_000, base_latency=0.5),
    duration=20.0,
    nominal_duration=15.0,
    seed=4,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=scenarios())
@example(cfg=TIED)
@example(cfg=replace(TIED, scheme="fixed:e2"))
def test_event_loop_matches_the_every_work_reference(cfg):
    assert_same_as_reference(cfg)


def test_a_send_goes_before_an_arrival_at_the_same_time():
    # Queued up front, every send came before every arrival at equal times.
    _, log = run_logged(Simulation(TIED))
    pairs = list(zip(log, log[1:]))
    assert any(a[0] == "send" and b[0] == "arrival" and a[1] == b[1] for a, b in pairs)
    assert not any(a[0] == "arrival" and b[0] == "send" and a[1] == b[1] for a, b in pairs)


def test_replay_matches_the_every_work_reference(tmp_path):
    dev = tmp_path / "device.csv"
    net = tmp_path / "net.csv"
    dev_lines = ["t,edge_id,cpu_max,cpu_used,mem_max,mem_used"]
    net_lines = ["t,robot_id,edge_id,rssi"]
    for t in range(31):
        for i, eid in enumerate(("e1", "e2")):
            dev_lines.append(f"{t}.0,{eid},100,{10 + (13 * t + 41 * i) % 70},4096,800")
            for j, rid in enumerate(("r1", "r2")):
                net_lines.append(f"{t}.0,{rid},{eid},{-45 - (7 * t + 11 * i + 5 * j) % 45}")
    dev.write_text("\n".join(dev_lines) + "\n", encoding="utf-8")
    net.write_text("\n".join(net_lines) + "\n", encoding="utf-8")
    # The traces end at 30 s, before the robots' last sends.
    cfg = replace(TIED, exec_model=ExecModel(), duration=60.0, nominal_duration=45.0)
    report = assert_same_as_reference(cfg, str(dev), str(net))
    assert report.elapsed == 30.0


# ------------------------------------------------------------ replayed traces

@st.composite
def replays(draw):
    """A random config with a device and a network trace for its fleet.

    Rows sit on a half-second grid from ``start``, so streams share
    timestamps and one edge or link can have several rows at one t; they
    run past the horizon and often past the run's completion. The first
    device row comes first, so each decision round sees either no reading
    at all (a late start defers it) or a device reading for every robot.
    """
    cfg = draw(scenarios())
    start = draw(st.sampled_from([0.0, 0.0, 2.5, 7.0]))
    span = 2 * (int(cfg.duration) + 10)
    times = st.integers(0, span).map(lambda i: start + i / 2)
    edge_ids = [e.edge_id for e in cfg.edges]
    robot_ids = [r.robot_id for r in cfg.robots]
    first = (start, draw(st.sampled_from(edge_ids)))
    device = [first] + draw(st.lists(
        st.tuples(times, st.sampled_from(edge_ids)), max_size=3 * span))
    net = draw(st.lists(
        st.tuples(times, st.sampled_from(robot_ids), st.sampled_from(edge_ids)),
        min_size=1, max_size=6 * span))
    dev_lines = ["t,edge_id,cpu_max,cpu_used,mem_max,mem_used"] + [
        f"{t},{eid},100,{draw(st.integers(0, 100))},4096,{draw(st.integers(0, 4096))}"
        for t, eid in sorted(device, key=lambda row: row[0])
    ]
    net_lines = ["t,robot_id,edge_id,rssi"] + [
        f"{t},{rid},{eid},{draw(st.integers(-110, -30))}"
        for t, rid, eid in sorted(net, key=lambda row: row[0])
    ]
    return cfg, "\n".join(dev_lines) + "\n", "\n".join(net_lines) + "\n"


def write_trace_pair(directory: str, device: str, net: str) -> tuple[str, str]:
    dev_path, net_path = Path(directory, "device.csv"), Path(directory, "net.csv")
    dev_path.write_text(device, encoding="utf-8")
    net_path.write_text(net, encoding="utf-8")
    return str(dev_path), str(net_path)


# TIED replayed from traces that start at 5 s, after four decision rounds.
LATE_DEVICE = "t,edge_id,cpu_max,cpu_used,mem_max,mem_used\n" + "".join(
    f"{t}.0,e1,100,{20 + t},4096,800\n{t}.0,e2,100,{60 - t},4096,800\n" for t in range(5, 31))
LATE_NET = "t,robot_id,edge_id,rssi\n" + "".join(
    f"{t}.0,{rid},{eid},{-50 - (3 * t) % 20}\n"
    for t in range(5, 31) for rid in ("r1", "r2") for eid in ("e1", "e2"))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=replays())
@example(case=(replace(TIED, exec_model=ExecModel(), duration=60.0), LATE_DEVICE, LATE_NET))
def test_replayed_traces_match_the_every_work_reference(case):
    cfg, device, net = case
    with tempfile.TemporaryDirectory() as directory:
        assert_same_as_reference(cfg, *write_trace_pair(directory, device, net))
