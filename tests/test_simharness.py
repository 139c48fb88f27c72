"""Discrete-event harness: execution law, accounting, and comparisons."""

import gc
import json
import re
import tracemalloc
from collections import Counter
from dataclasses import dataclass, replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_event_loop_reference import scenarios
from test_golden import write_replay_fixture

from offloadsim.cli import render_decisions_csv, render_metrics_csv, summary_dict
from offloadsim.config import (
    EdgeSpec,
    ExecModel,
    RobotSpec,
    ScenarioConfig,
    SpikeModel,
)
from offloadsim import netsim, profiling, scheduler, simharness, utility
from offloadsim.netsim import LinkModel
from offloadsim.consensus import Decision
from offloadsim.errors import ConfigError, TraceFormatError
from offloadsim.profiling import Gateway
from offloadsim.scenarios import flapping_scenario, stress_scenario
from offloadsim.simharness import (
    EdgeExecState,
    Simulation,
    Timeseries,
    compare_schemes,
    edge_execute,
    inject_spikes,
    run_scenario,
)
from offloadsim.utility import TaskSpec


def fresh_state(robots=("r1", "r2", "r3"), capacity_factor=1.0) -> EdgeExecState:
    return EdgeExecState(
        edge_id="e1",
        capacity_factor=capacity_factor,
        queues={r: 0 for r in robots},
        merge_credits={r: 0 for r in robots},
    )


def two_edge_config(**overrides) -> ScenarioConfig:
    base = dict(
        name="tiny",
        robots=(RobotSpec("r1"), RobotSpec("r2")),
        edges=(EdgeSpec("e1", base_cpu=10.0, base_mem=500.0),
               EdgeSpec("e2", base_cpu=10.0, base_mem=500.0)),
        task=TaskSpec("merge", mem_footprint=64.0, input_rate=2.0, work_per_message=100.0),
        noise_amp=0.0,
        link=None,
        duration=30.0,
        seed=5,
    )
    base.update(overrides)
    if base["link"] is None:
        from offloadsim.netsim import LinkModel
        base["link"] = LinkModel(shadow_sigma=0.0)
    return ScenarioConfig(**base)


# ----------------------------------------------------------- service law

def test_idle_edge_clears_one_message_per_robot_and_merges_once():
    st = fresh_state()
    st.queues.update({"r1": 1, "r2": 1, "r3": 1})
    processed, merges = edge_execute(st, cpu_used=0.0, dt=1.0, reference_rate=12.5)
    assert processed == 3
    assert merges == 1
    assert st.backlog == 0


def test_saturated_cpu_stops_service():
    st = fresh_state()
    st.queues.update({"r1": 4, "r2": 4, "r3": 4})
    processed, merges = edge_execute(st, cpu_used=100.0, dt=10.0, reference_rate=12.5)
    assert processed == 0 and merges == 0
    assert st.backlog == 12


def test_half_load_halves_the_service_rate():
    st = fresh_state(robots=("r1",))
    st.queues["r1"] = 50
    processed, _ = edge_execute(st, cpu_used=50.0, dt=1.0, reference_rate=10.0)
    assert processed == 5  # 1.0 * (1 - 0.5) * 10 msg/s for one second


def test_capacity_factor_scales_service():
    st = fresh_state(robots=("r1",), capacity_factor=0.5)
    st.queues["r1"] = 50
    processed, _ = edge_execute(st, cpu_used=0.0, dt=1.0, reference_rate=10.0)
    assert processed == 5


def test_deepest_queue_is_served_first_with_ties_to_smallest_id():
    st = fresh_state()
    st.queues.update({"r1": 2, "r2": 2, "r3": 1})
    edge_execute(st, cpu_used=0.0, dt=0.3, reference_rate=10.0)  # 3 units of work
    # r1 (deepest, tie to smallest) then r2 then the three-way tie -> r1
    assert st.queues == {"r1": 0, "r2": 1, "r3": 1}


def test_spare_capacity_is_not_banked_while_idle():
    st = fresh_state(robots=("r1",))
    edge_execute(st, cpu_used=0.0, dt=100.0, reference_rate=10.0)
    assert st.work_credit == 0.0
    st.queues["r1"] = 1
    processed, _ = edge_execute(st, cpu_used=0.0, dt=0.05, reference_rate=10.0)
    assert processed == 0  # 0.5 credit only; the idle century gave none


def test_fractional_credit_carries_while_work_waits():
    st = fresh_state(robots=("r1",))
    st.queues["r1"] = 5
    assert edge_execute(st, 0.0, dt=0.05, reference_rate=10.0)[0] == 0
    assert edge_execute(st, 0.0, dt=0.05, reference_rate=10.0)[0] == 1


def test_merge_needs_a_message_from_every_robot():
    st = fresh_state(robots=("r1", "r2"))
    st.queues.update({"r1": 3})
    _, merges = edge_execute(st, 0.0, dt=1.0, reference_rate=10.0)
    assert merges == 0
    st.queues.update({"r2": 1})
    _, merges = edge_execute(st, 0.0, dt=1.0, reference_rate=10.0)
    assert merges == 1
    assert st.merge_credits == {"r1": 2, "r2": 0}


def reference_edge_execute(state, cpu_used, dt, reference_rate):
    """``edge_execute`` as it was written before its one-pass deepest-queue scan."""
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
    return processed, merges


@st.composite
def exec_cases(draw):
    # Ids in drawn (unsorted) order; "r10" < "r2" tests string order, not numeric.
    ids = draw(st.lists(st.sampled_from(["r3", "r1", "r10", "r2", "a", "r02"]),
                        unique=True, max_size=5))
    queues = {rid: draw(st.integers(0, 6)) for rid in ids}
    credits = {rid: draw(st.integers(0, 3)) for rid in ids}
    state = dict(
        edge_id="e1",
        capacity_factor=draw(st.sampled_from([0.5, 1.0, 1.5])),
        work_credit=draw(st.floats(min_value=0.0, max_value=4.0)),
    )
    ticks = draw(st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=120.0),
                  st.sampled_from([0.05, 0.1, 0.25, 1.0]),
                  st.lists(st.sampled_from(ids), max_size=4) if ids else st.just([])),
        min_size=1, max_size=6,
    ))
    reference_rate = draw(st.sampled_from([2.5, 12.5, 25.0]))
    return queues, credits, state, ticks, reference_rate


@settings(max_examples=300, deadline=None)
@given(case=exec_cases())
@example(case=({"r2": 2, "r1": 2, "r3": 1}, {"r2": 0, "r1": 0, "r3": 0},
               dict(edge_id="e1", capacity_factor=1.0, work_credit=0.0),
               [(0.0, 0.3, []), (0.0, 1.0, ["r3"])], 10.0))
def test_edge_execute_matches_its_reference_body(case):
    queues, credits, fields, ticks, reference_rate = case
    state = EdgeExecState(queues=dict(queues), merge_credits=dict(credits), **fields)
    expected = EdgeExecState(queues=dict(queues), merge_credits=dict(credits), **fields)
    for cpu_used, dt, arrivals in ticks:
        for rid in arrivals:  # work lands between ticks, as arrivals do
            state.queues[rid] += 1
            expected.queues[rid] += 1
        got = edge_execute(state, cpu_used, dt, reference_rate)
        assert got == reference_edge_execute(expected, cpu_used, dt, reference_rate)
        assert state == expected
        assert list(state.queues) == list(expected.queues)


# -------------------------------------------------------- spike injection

def test_spike_injection_is_pure_in_seed():
    model = SpikeModel(rate=0.02)
    a = inject_spikes(model, ["e1", "e2", "e3"], seed=1, horizon=600.0)
    b = inject_spikes(model, ["e1", "e2", "e3"], seed=1, horizon=600.0)
    assert a == b
    assert a != inject_spikes(model, ["e1", "e2", "e3"], seed=2, horizon=600.0)


def test_spike_injection_frozen_counts_for_seed_one():
    model = SpikeModel(rate=0.02, cpu_range=(50.0, 70.0),
                       mem_range=(800.0, 1600.0), duration_range=(20.0, 60.0))
    out = inject_spikes(model, ["e1", "e2", "e3"], seed=1, horizon=600.0)
    assert {e: len(v) for e, v in out.items()} == {"e1": 7, "e2": 2, "e3": 5}
    first = out["e1"][0]
    assert first.start == pytest.approx(54.3447644087278)
    assert first.duration == pytest.approx(36.6253008557632)


def test_spikes_respect_configured_ranges():
    model = SpikeModel(rate=0.1, cpu_range=(10.0, 20.0),
                       mem_range=(100.0, 200.0), duration_range=(5.0, 6.0))
    out = inject_spikes(model, ["e1", "e2"], seed=9, horizon=400.0)
    spikes = [s for v in out.values() for s in v]
    assert spikes, "expected some spikes at rate 0.1 over 400 s"
    for s in spikes:
        assert 10.0 <= s.cpu_add <= 20.0
        assert 100.0 <= s.mem_add <= 200.0
        assert 5.0 <= s.duration <= 6.0
        assert 0.0 <= s.start < 400.0


def test_no_model_or_zero_rate_injects_nothing():
    assert inject_spikes(None, ["e1"], 1, 100.0) == {"e1": ()}
    quiet = SpikeModel(rate=0.0)
    assert inject_spikes(quiet, ["e1"], 1, 100.0) == {"e1": ()}


# ------------------------------------------------------------ whole runs

def test_same_seed_same_report():
    cfg = stress_scenario(seed=2)
    assert run_scenario(cfg) == run_scenario(cfg)


def test_conservation_and_quota_on_completion():
    for scheme in ("fixed:e2", "dynamic:both"):
        rep = run_scenario(replace(stress_scenario(seed=3), scheme=scheme, weights=None))
        assert rep.generated == rep.processed + rep.queued + rep.dropped
        assert rep.generated == 1440  # 3 robots * 2 msg/s * 240 s


def test_fixed_scheme_never_decides_or_switches():
    rep = run_scenario(stress_scenario(seed=1, scheme="fixed:e2"))
    assert rep.switch_count == 0
    assert rep.decisions == ()
    assert all(host == "e2" for host in rep.timeseries.host)


def test_single_edge_dynamic_never_switches():
    cfg = two_edge_config(
        edges=(EdgeSpec("e1", base_cpu=10.0, base_mem=500.0),),
        scheme="dynamic:both",
        nominal_duration=20.0,
    )
    rep = run_scenario(cfg)
    assert rep.switch_count == 0
    assert all(d.winner == "e1" for d in rep.decisions)
    assert rep.completed


def test_equal_edges_without_noise_pin_the_smallest_id():
    rep = run_scenario(two_edge_config(scheme="dynamic:both"))
    assert rep.switch_count == 0
    assert {d.winner for d in rep.decisions} == {"e1"}
    assert rep.per_edge["e2"].mean_cpu == pytest.approx(10.0)


def test_censored_run_reports_duration_as_latency():
    cfg = two_edge_config(
        task=TaskSpec("merge", mem_footprint=0.0, input_rate=10.0,
                      work_per_message=100.0),
        edges=(EdgeSpec("e1", base_cpu=95.0, base_mem=500.0),),
        scheme="fixed:e1",
        duration=20.0,
    )
    rep = run_scenario(cfg)
    assert not rep.completed
    assert rep.task_latency == 20.0
    assert rep.generated == rep.processed + rep.queued + rep.dropped


def test_one_silent_robot_blocks_merges_but_not_completion():
    cfg = two_edge_config(
        robots=(RobotSpec("r1"), RobotSpec("r2", input_rate=0.0)),
        scheme="fixed:e1",
        nominal_duration=20.0,
    )
    rep = run_scenario(cfg)
    assert rep.completed
    assert rep.merged_outputs == 0
    assert rep.processing_frequency == 0.0


@pytest.mark.parametrize("cfg", [
    stress_scenario(seed=4, scheme="dynamic:both"),  # spikes force a move
    flapping_scenario(sticky_bonus=0.0),  # the fleet chases every swap
], ids=["stress", "flapping"])
def test_switch_count_matches_decision_log(monkeypatch, cfg):
    # perfbench's tracer counts switches as calls to simharness.apply_remap.
    moves = []
    apply_remap = simharness.apply_remap

    def recording(src, dst):
        moves.append((src.edge_id, dst.edge_id))
        apply_remap(src, dst)

    monkeypatch.setattr(simharness, "apply_remap", recording)
    sim = Simulation(cfg)
    hosts = []
    move_host = sim._move_host

    def recording_host(new_host, now):
        hosts.append(new_host)
        move_host(new_host, now)

    sim._move_host = recording_host
    rep = sim.run()
    switched = [d.winner for d in rep.decisions if d.switched]
    assert rep.switch_count >= 1
    assert rep.switch_count == len(switched)
    assert len(moves) == rep.switch_count
    assert [dst for _, dst in moves] == switched
    assert all(src != dst for src, dst in moves)
    # The first quorate winner becomes the host without counting as a switch.
    first = next(d for d in rep.decisions if d.quorate)
    assert not first.switched
    assert hosts == [first.winner, *switched]


def test_each_robot_is_scored_once_per_decision_round(monkeypatch):
    # The device axes are scored once per edge, the link axis once per
    # (robot, edge) pair, and no robot's whole table through
    # calculate_utility.
    calls = Counter()

    def counting(name):
        original = getattr(scheduler, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return counted

    for name in ("cpu_score", "memory_score", "rssi_score",
                 "cpu_utility", "memory_utility", "rssi_utility", "calculate_utility"):
        monkeypatch.setattr(scheduler, name, counting(name))
    cfg = replace(stress_scenario(seed=2, scheme="dynamic:both"),
                  duration=60.0, nominal_duration=None)
    sim = Simulation(cfg)
    report = sim.run()
    rounds = len(report.decisions)
    assert rounds
    edges, robots = len(sim.edge_ids), len(sim.robot_ids)
    assert calls == {
        "cpu_score": edges * rounds,
        "memory_score": edges * rounds,
        "rssi_score": robots * edges * rounds,
    }


def test_gateway_memory_is_bounded_by_the_fleet_not_the_horizon():
    sim = Simulation(stress_scenario(seed=1, scheme="dynamic:both"))
    sim.run()
    gw = sim.gateway
    edges = len(sim.edge_ids)
    assert [len(col) for col in (gw.device_t, gw.cpu_max, gw.cpu_used, gw.mem_max,
                                 gw.mem_used)] == [edges] * 5
    assert sorted(gw.link_t) == sorted(gw.rssi) == sim.robot_ids
    assert {len(col) for col in (*gw.link_t.values(), *gw.rssi.values())} == {edges}
    assert all(type(v) is float for col in (gw.device_t, *gw.rssi.values()) for v in col)


@pytest.mark.parametrize("replayed", [False, True], ids=["synthetic", "replay"])
def test_readings_reach_the_store_as_floats_not_snapshots(monkeypatch, tmp_path, replayed):
    # Every reading is checked once as it reaches the store (a replayed
    # row also once at load), and none is built as a snapshot.
    built = Counter()
    checked = Counter()
    for cls in (utility.DeviceSnapshot, utility.NetworkSnapshot):
        def counted(self, post_init=cls.__post_init__):
            built[type(self).__name__] += 1
            post_init(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    for name in ("check_device_reading", "check_network_reading"):
        def counting(*args, check=getattr(utility, name), name=name):
            checked[name] += 1
            return check(*args)
        monkeypatch.setattr(profiling, name, counting)
    cfg = replace(stress_scenario(seed=1, scheme="dynamic:both"),
                  duration=60.0, nominal_duration=None)
    if replayed:
        sim = Simulation(cfg, *write_replay_fixture(tmp_path, seconds=60))
        loaded = Counter(checked)  # every row, one per edge and per link each second
        assert loaded == {"check_device_reading": 61 * 3, "check_network_reading": 61 * 9}
    else:
        sim = Simulation(cfg)
        loaded = Counter()
    handled = Counter()
    for kind in ("sample", "trace_device", "trace_net"):
        def handle(*args, handler=getattr(sim, f"_on_{kind}"), kind=kind):
            handled[kind] += 1
            handler(*args)
        setattr(sim, f"_on_{kind}", handle)
    report = sim.run()
    assert report.decisions and report.generated > 0
    assert built == Counter()
    edges, robots = len(sim.edge_ids), len(sim.robot_ids)
    assert checked - loaded == {
        "check_device_reading": handled["sample"] * edges + handled["trace_device"],
        "check_network_reading": handled["sample"] * robots * edges + handled["trace_net"],
    }
    assert (handled["sample"] == 0) == replayed


# ------------------------------------------------------ the run's record

def test_a_diverging_executor_stops_the_run(monkeypatch):
    # Every robot's log shares one Decision per round only because this
    # check has found the robots' decisions equal.
    sim = Simulation(stress_scenario(seed=1, scheme="dynamic:both"))
    executor = sim.executors["r2"]
    honest = executor.on_proposals

    def diverge_at_5(proposals, iteration):
        decision = honest(proposals, iteration)
        if iteration == 5:
            decision = replace(decision, switched=not decision.switched)
        return decision

    monkeypatch.setattr(executor, "on_proposals", diverge_at_5)
    with pytest.raises(RuntimeError,
                       match="^consensus diverged at iteration 5: r2 disagrees with r1$"):
        sim.run()


def test_a_diverging_executor_log_stops_the_report():
    # The report hands every robot one shared log only after finding each
    # executor's own log equal to it.
    sim = Simulation(stress_scenario(seed=1, scheme="dynamic:both"))
    report = sim.run()
    assert all(log is report.decisions for log in report.per_robot_decisions.values())
    log = sim.executors["r3"].decisions
    honest = list(log)
    flipped = replace(honest[5], switched=not honest[5].switched)
    for diverged in (honest[:5] + [flipped] + honest[6:], honest[:-1]):
        log[:] = diverged
        with pytest.raises(RuntimeError, match="^decision logs diverged: r3 disagrees with r1$"):
            sim._report()
    log[:] = honest
    assert sim._report() == report


class OnePlacementSimulation(Simulation):
    """Checks after every decision round that placement has one record:
    every executor's ``previous`` winner is the host, which the round
    reads as every robot's incumbent."""

    rounds = 0

    def _on_decision(self, now: float) -> None:
        super()._on_decision(now)
        self.rounds += 1
        assert {ex.previous for ex in self.executors.values()} == {self.host}, now


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=scenarios())
def test_every_executor_places_the_task_on_the_host(cfg):
    sim = OnePlacementSimulation(cfg)
    report = sim.run()
    assert sim.rounds == len(report.decisions)


def test_every_executor_places_the_task_on_the_host_in_replay(tmp_path):
    # The traces start at 5 s, so the first rounds are deferred.
    cfg = replace(stress_scenario(seed=1, scheme="dynamic:both"),
                  duration=120.0, nominal_duration=None)
    sim = OnePlacementSimulation(cfg, *write_replay_fixture(tmp_path, seconds=120, start=5))
    report = sim.run()
    assert sim.rounds == len(report.decisions) > 0
    assert not report.decisions[0].quorate and report.switch_count > 0


def test_a_long_run_holds_its_record_compactly():
    cfg = replace(stress_scenario(seed=1, scheme="dynamic:both"),
                  duration=3600.0, nominal_duration=3000.0)
    gc.collect()
    tracemalloc.start()
    try:
        report = run_scenario(cfg)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        rows = len(report.timeseries)
        report = replace(report, timeseries=())  # frees the time series alone
        gc.collect()
        timeseries_bytes = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rows > 3_000
    assert timeseries_bytes / rows <= 256
    assert len(report.decisions) > 3_000
    assert sorted(report.per_robot_decisions) == ["r1", "r2", "r3"]
    for log in report.per_robot_decisions.values():
        assert len(log) == len(report.decisions)
        assert all(mine is shared for mine, shared in zip(log, report.decisions))


@dataclass(frozen=True)
class TickRow:
    """One metrics sample as the harness recorded it before ``Timeseries``
    held columns: true per-edge state at time t."""

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


class RowLoggingSimulation(Simulation):
    """Also records each metrics sample as a ``TickRow`` of dicts, the
    way the harness recorded its time series before it held columns."""

    def __init__(self, cfg: ScenarioConfig) -> None:
        super().__init__(cfg)
        self.reference_rows: list[TickRow] = []

    def _on_metrics(self, now: float) -> None:
        loads = {eid: self._true_load(eid, now) for eid in self.edge_ids}
        self.reference_rows.append(TickRow(
            t=now,
            host=self.host or "",
            cpu={eid: cpu for eid, (cpu, _) in loads.items()},
            mem_pct={eid: mem / self.profiles[eid].mem_max * 100.0
                     for eid, (_, mem) in loads.items()},
            queue={eid: self.exec_states[eid].backlog for eid in self.edge_ids},
            throughput_mbps={eid: self.window_bits[eid] / self.cfg.sample_period / 1e6
                             for eid in self.edge_ids},
            generated=self.generated,
            processed=self.processed,
            dropped=self.dropped,
            merged=self.merged_total,
        ))
        super()._on_metrics(now)


def render_rows(edges: list[str], rows) -> str:
    """metrics.csv rendered row by row from ``TickRow``s (the renderer's old body)."""
    header = ["t", "host"]
    for eid in edges:
        header += [f"cpu_{eid}", f"mem_pct_{eid}", f"queue_{eid}", f"mbps_{eid}"]
    header += ["generated", "processed", "dropped", "merged"]
    lines = [",".join(header)]
    for row in rows:
        cells = [format(row.t, ".6f"), row.host]
        for eid in edges:
            cells += [
                format(row.cpu[eid], ".6f"),
                format(row.mem_pct[eid], ".6f"),
                str(row.queue[eid]),
                format(row.throughput_mbps[eid], ".6f"),
            ]
        cells += [str(row.generated), str(row.processed),
                  str(row.dropped), str(row.merged)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cfg=scenarios())
def test_timeseries_renders_the_metrics_csv_of_the_rows_it_replaced(cfg):
    sim = RowLoggingSimulation(cfg)
    report = sim.run()
    ts, rows = report.timeseries, sim.reference_rows
    assert isinstance(ts, Timeseries)
    assert len(ts) == len(rows) > 0
    assert render_metrics_csv(report) == render_rows(sorted(report.per_edge), rows)


def test_timeseries_equality_compares_every_column():
    def series(host: str, queue: int) -> Timeseries:
        ts = Timeseries(["e1", "e2"])
        ts.t.append(0.0)
        ts.host.append(host)
        for eid in ("e1", "e2"):
            ts.cpu.append(10.0)
            ts.mem_pct.append(20.0)
            ts.queue.append(queue if eid == "e2" else 0)
            ts.throughput_mbps.append(0.5)
        for col in (ts.generated, ts.processed, ts.dropped, ts.merged):
            col.append(1)
        return ts

    assert series("e1", 3) == series("e1", 3)
    assert series("e1", 3) != series("e2", 3)
    assert series("e1", 3) != series("e1", 4)
    assert series("e1", 3) != ()  # only a Timeseries equals a Timeseries
    assert Timeseries(["e1"]) != Timeseries(["e2"])


# ------------------------------------------------------------- comparison

def test_compare_schemes_runs_every_cell():
    cfg = two_edge_config(duration=20.0)
    result = compare_schemes(cfg, ["fixed:e1", "dynamic:both"], seeds=[1, 2, 3])
    assert result.seeds == (1, 2, 3)
    assert len(result.runs) == 6
    assert len(result.rows_for("fixed:e1")) == 3
    summary = result.summary["dynamic:both"]
    rows = result.rows_for("dynamic:both")
    assert summary.latency_mean == pytest.approx(
        sum(r.report.task_latency for r in rows) / 3
    )


def test_compare_schemes_defaults_to_five_seeds_from_config():
    cfg = two_edge_config(duration=15.0, seed=11)
    result = compare_schemes(cfg, ["fixed:e1", "fixed:e2"])
    assert result.seeds == (11, 12, 13, 14, 15)


def test_compare_schemes_clears_explicit_weights():
    from offloadsim.utility import Weights
    cfg = two_edge_config(duration=15.0, weights=Weights(1.0, 0.0, 0.0))
    result = compare_schemes(cfg, ["dynamic:cpu", "dynamic:mem"], seeds=[1])
    # Identical weights would make the two variants byte-equal; cleared
    # weights let each dynamic variant use its own preset.
    assert result.runs[0].report.scheme == "dynamic:cpu"


def test_compare_needs_two_schemes():
    with pytest.raises(ConfigError, match="at least two"):
        compare_schemes(two_edge_config(), ["dynamic:both"])


def test_compare_rejects_unknown_scheme():
    with pytest.raises(ConfigError, match="not a configured edge"):
        compare_schemes(two_edge_config(), ["fixed:e9", "dynamic:both"])


def test_identical_schemes_produce_identical_rows():
    cfg = two_edge_config(duration=20.0)
    result = compare_schemes(cfg, ["fixed:e1", "fixed:e1"], seeds=[3, 4])
    # same scheme listed twice: rows for a given seed must be equal
    by_seed = {}
    for row in result.rows_for("fixed:e1"):
        by_seed.setdefault(row.seed, []).append(row.report)
    for seed, reports in by_seed.items():
        assert all(r == reports[0] for r in reports), seed


def _rendered(report) -> tuple[str, str, str]:
    return (render_metrics_csv(report), render_decisions_csv(report),
            json.dumps(summary_dict(report), indent=2, sort_keys=True) + "\n")


@st.composite
def shared_draw_cases(draw):
    """A compare whose runs share shadowing and noise draws in many ways."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 3))
    coords = st.floats(min_value=0.0, max_value=40.0)
    robots = []
    for i in range(1, n + 1):
        waypoints = ()
        if draw(st.booleans()):
            times = sorted(draw(st.sets(st.integers(0, 20), min_size=2, max_size=3)))
            far = st.floats(min_value=0.0, max_value=200.0)
            waypoints = tuple((float(t), draw(far), draw(coords)) for t in times)
        robots.append(RobotSpec(f"r{i}", x=draw(coords), y=draw(coords), waypoints=waypoints,
                                input_rate=draw(st.sampled_from([None, 0.5, 1.0, 2.0]))))
    # Identical edges leave the choice to noise and shadowing alone.
    equal = draw(st.booleans())
    edges = tuple(
        EdgeSpec(f"e{i}", x=0.0 if equal else draw(coords), y=0.0 if equal else draw(coords),
                 base_cpu=20.0 if equal else draw(st.floats(min_value=0.0, max_value=60.0)),
                 base_mem=500.0)
        for i in range(1, m + 1)
    )
    fixed = [f"fixed:{e.edge_id}" for e in edges]
    schemes = draw(st.lists(st.sampled_from(fixed + ["dynamic:cpu", "dynamic:both", "dynamic:net"]),
                            min_size=2, max_size=3))
    seeds = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3))
    cfg = ScenarioConfig(
        name="shared",
        robots=tuple(robots),
        edges=edges,
        task=TaskSpec("merge", mem_footprint=64.0, input_rate=1.0, work_per_message=100.0),
        link=LinkModel(shadow_sigma=draw(st.sampled_from([0.0, 6.0])),
                       seed=draw(st.sampled_from([0, 7]))),
        exec_model=ExecModel(message_bytes=draw(st.sampled_from([50_000, 2_000_000]))),
        noise_amp=draw(st.sampled_from([0.0, 2.0])),
        duration=float(draw(st.integers(5, 25))),
        seed=seeds[0],
    )
    return cfg, schemes, seeds


# Two equal edges at the robots' spot. Shared shadowing of two robots
# moves a 2 MB message across a rate tier; noise shared between seeds
# picks the other winner.
SHARED = ScenarioConfig(
    name="shared",
    robots=(RobotSpec("r1"), RobotSpec("r2")),
    edges=(EdgeSpec("e1", base_mem=500.0), EdgeSpec("e2", base_mem=500.0)),
    task=TaskSpec("merge", mem_footprint=64.0, input_rate=1.0, work_per_message=100.0),
    link=LinkModel(shadow_sigma=6.0, seed=7),
    exec_model=ExecModel(message_bytes=2_000_000),
    noise_amp=0.0,
    duration=5.0,
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=shared_draw_cases())
@example(case=(SHARED, ["fixed:e1", "fixed:e1"], [1, 1]))
@example(case=(replace(SHARED, robots=(RobotSpec("r1"),), link=LinkModel(shadow_sigma=0.0),
                       noise_amp=2.0), ["fixed:e1", "dynamic:both", "dynamic:cpu"], [1, 3, 1]))
def test_compare_reports_match_the_same_runs_made_alone(case):
    cfg, schemes, seeds = case
    result = compare_schemes(cfg, schemes, seeds=seeds)
    for row in result.runs:
        alone = run_scenario(replace(cfg, scheme=row.scheme, seed=row.seed, weights=None))
        assert _rendered(row.report) == _rendered(alone), (row.scheme, row.seed)


def _count_draws(monkeypatch) -> list:
    """Record the key of every shadowing and noise draw made from now on."""
    keys = []
    draw = netsim.keyed_draw

    def counting(key, scale, gaussian):
        keys.append(key)
        return draw(key, scale, gaussian)

    # profiling imports the name, so both modules' references are wrapped.
    monkeypatch.setattr(netsim, "keyed_draw", counting)
    monkeypatch.setattr(profiling, "keyed_draw", counting)
    return keys


def _drawing_config():
    return two_edge_config(link=LinkModel(shadow_sigma=2.0), noise_amp=2.0, duration=20.0)


def test_compare_seeds_each_draw_once_per_call(monkeypatch):
    cfg = _drawing_config()
    schemes = ["fixed:e1", "dynamic:cpu", "dynamic:both"]
    seeds = _count_draws(monkeypatch)
    compare_schemes(cfg, schemes, seeds=[1, 2])
    first = list(seeds)
    assert any("/shadow/" in s for s in first) and any("/noise/" in s for s in first)
    assert max(Counter(first).values()) == 1
    # The memo dies with its call: the same compare seeds every draw again.
    seeds.clear()
    compare_schemes(cfg, schemes, seeds=[1, 2])
    assert seeds == first


def test_a_single_run_seeds_each_draw_key_once(monkeypatch):
    keys = _count_draws(monkeypatch)
    run_scenario(_drawing_config())
    # 21 samples x (4 noise + 4 shadowing) draws, plus one shadowing draw
    # for each of the 38 messages sent between sample instants after the
    # first placement; the other 42 of the 80 read their sample's draw.
    assert len(keys) == 21 * 8 + 38
    assert max(Counter(keys).values()) == 1


def test_a_send_at_a_sample_instant_seeds_nothing(monkeypatch):
    keys = _count_draws(monkeypatch)
    sim = Simulation(_drawing_config())  # samples every 1 s, sends every 0.5 s
    seeded: Counter[float] = Counter()  # send time -> draws seeded by its sends
    on_send = sim._on_send

    def send(now, payload):
        before = len(keys)
        on_send(now, payload)
        seeded[now] += len(keys) - before

    sim._on_send = send
    report = sim.run()
    assert report.decisions[0].winner is not None  # placed at 1 s, so later sends transmit
    transmitted = [t for t in seeded if t > 1.0]
    assert sum(t.is_integer() for t in transmitted) == 19
    assert all(seeded[t] == (0 if t.is_integer() else 2) for t in transmitted)


# ------------------------------------------------------------ event heap

def _period_count(first: float, period: float, horizon: float) -> int:
    """Events a ``t += period`` loop from ``first`` yields up to the horizon."""
    n, t = 0, first
    while t <= horizon:
        n += 1
        t += period
    return n


def test_periodic_events_are_queued_one_ahead():
    cfg = replace(stress_scenario(seed=1, scheme="dynamic:both"),
                  duration=60.0, nominal_duration=None)
    silent = replace(cfg.robots[1], input_rate=0.0)
    cfg = replace(cfg, robots=(cfg.robots[0], silent, cfg.robots[2]))
    sim = Simulation(cfg)
    kinds = Counter(entry[3] for entry in sim._heap)
    senders = [r for r in cfg.robots if cfg.message_quota(r) > 0]
    assert kinds == {"send": len(senders), "sample": 1, "exec": 1,
                     "decision": 1, "metrics": 1}
    assert sorted(entry[4] for entry in sim._heap if entry[3] == "send") == [
        (r.robot_id, 1) for r in senders
    ]

    handled: Counter[str] = Counter()
    for kind in ("exec", "decision", "metrics"):
        original = getattr(sim, f"_on_{kind}")

        def counted(now, kind=kind, original=original):
            handled[kind] += 1
            original(now)

        setattr(sim, f"_on_{kind}", counted)
    report = sim.run()
    assert not report.completed  # the clock ran to the horizon
    tick = cfg.exec_model.exec_tick
    assert handled == {
        "exec": _period_count(tick, tick, cfg.duration),
        "decision": _period_count(cfg.decision_period, cfg.decision_period, cfg.duration),
        "metrics": _period_count(0.0, cfg.sample_period, cfg.duration),
    }
    assert len(report.timeseries) == handled["metrics"]


def test_fixed_scheme_takes_no_samples():
    # Only the decision round reads the store, and a fixed scheme has none.
    sim = Simulation(replace(stress_scenario(seed=1, scheme="fixed:e2"),
                             duration=60.0, nominal_duration=None))
    sampled = []
    on_sample = sim._on_sample
    sim._on_sample = lambda now: (sampled.append(now), on_sample(now))
    sim.run()
    assert sampled == []
    times = [sim.gateway.device_t, *sim.gateway.link_t.values()]
    assert {t for col in times for t in col} == {profiling.NEVER}


def test_only_the_host_is_advanced_and_only_once_placed(monkeypatch):
    cfg = replace(stress_scenario(seed=1, scheme="dynamic:both"),
                  duration=60.0, nominal_duration=None)
    sim = Simulation(cfg)
    ticks = []  # (time, host) of every exec tick
    advanced = []  # (tick index, edge) of every edge_execute call
    on_exec = sim._on_exec

    def exec_tick(now):
        ticks.append((now, sim.host))
        on_exec(now)

    sim._on_exec = exec_tick
    execute = simharness.edge_execute

    def recording(state, *args):
        advanced.append((len(ticks) - 1, state.edge_id))
        return execute(state, *args)

    monkeypatch.setattr(simharness, "edge_execute", recording)
    sim.run()
    hosted = [(i, host) for i, (_, host) in enumerate(ticks) if host is not None]
    # Exec ticks every 0.1 s start before the first decision round at 1 s.
    assert ticks[0][1] is None and hosted
    assert advanced == hosted


def _peak_queue_length(cfg: ScenarioConfig, *traces: str) -> tuple[int, int]:
    """Peak event-queue length of one run, and its peak of messages in flight."""
    sim = Simulation(cfg, *traces)
    peak, in_flight = len(sim._heap), 0
    push = sim._push

    def tracking(*args, **kwargs):
        nonlocal peak, in_flight
        push(*args, **kwargs)
        peak = max(peak, len(sim._heap))
        in_flight = max(in_flight, sim.in_flight)

    sim._push = tracking
    sim.run()
    return peak, in_flight


def test_event_queue_is_bounded_by_the_fleet_not_the_horizon(tmp_path):
    cfg = replace(stress_scenario(seed=1, scheme="dynamic:both"), nominal_duration=None)
    robots, edges = len(cfg.robots), len(cfg.edges)
    for replayed in (False, True):
        peaks = []
        for seconds in (600, 3600):
            traces = ()
            if replayed:
                (tmp_path / str(seconds)).mkdir()
                traces = write_replay_fixture(tmp_path / str(seconds), seconds=seconds)
            peak, in_flight = _peak_queue_length(replace(cfg, duration=float(seconds)), *traces)
            # One row per trace stream, one send per robot, one event per
            # periodic kind, and the messages in flight.
            assert peak <= edges + 1 + robots + 4 + in_flight
            peaks.append(peak)
        assert peaks[0] == peaks[1], f"replayed={replayed}"


@pytest.mark.parametrize("duration", [600.0, 3600.0])
def test_static_links_compute_path_loss_once_and_build_no_poses(monkeypatch, duration):
    cfg = replace(stress_scenario(seed=1, scheme="dynamic:both"),
                  duration=duration, nominal_duration=None)
    assert not any(r.waypoints for r in cfg.robots)  # every link is static
    sim = Simulation(cfg)
    losses = []
    path_loss = simharness.path_loss_dbm
    monkeypatch.setattr(simharness, "path_loss_dbm",
                        lambda *args: losses.append(args) or path_loss(*args))
    report = sim.run()
    assert report.generated > 0 and sim.iteration > 0  # sends and samples happened
    assert 0 < len(losses) <= len(cfg.robots) * len(cfg.edges)


def test_simulation_shares_one_spike_table_per_edge():
    sim = Simulation(stress_scenario(seed=1))
    for eid, profile in sim.profiles.items():
        assert sim.profilers[eid].profile.spike_table is profile.spike_table


# ----------------------------------------------------------------- replay

def write_traces(tmp_path, device_rows, net_rows):
    dev = tmp_path / "device.csv"
    net = tmp_path / "net.csv"
    dev.write_text(
        "t,edge_id,cpu_max,cpu_used,mem_max,mem_used\n"
        + "".join(device_rows),
        encoding="utf-8",
    )
    net.write_text(
        "t,robot_id,edge_id,rssi\n" + "".join(net_rows), encoding="utf-8"
    )
    return str(dev), str(net)


def replay_config(**overrides):
    return two_edge_config(
        robots=(RobotSpec("r1"),),
        task=TaskSpec("merge", mem_footprint=0.0, input_rate=1.0, work_per_message=100.0),
        duration=10.0,
        **overrides,
    )


def test_replay_needs_both_traces(tmp_path):
    dev, net = write_traces(
        tmp_path,
        ["0.0,e1,100,10,4096,500\n"],
        ["0.0,r1,e1,-50\n"],
    )
    with pytest.raises(ConfigError, match="both"):
        Simulation(replay_config(), device_trace=dev)
    Simulation(replay_config(), device_trace=dev, net_trace=net)  # both is fine


def test_replay_rejects_unknown_edges(tmp_path):
    dev, net = write_traces(
        tmp_path,
        ["0.0,e7,100,10,4096,500\n"],
        ["0.0,r1,e1,-50\n"],
    )
    with pytest.raises(TraceFormatError, match="unknown edges"):
        Simulation(replay_config(), device_trace=dev, net_trace=net)


@pytest.mark.parametrize(
    "net_row, named",
    [("0.0,r7,e1,-50\n", "robots: ['r7']"), ("0.0,r1,e9,-50\n", "edges: ['e9']")],
)
def test_replay_rejects_network_rows_for_unknown_robots_or_edges(tmp_path, net_row, named):
    dev, net = write_traces(
        tmp_path,
        ["0.0,e1,100,10,4096,500\n"],
        ["0.0,r1,e1,-50\n", net_row],
    )
    with pytest.raises(TraceFormatError, match=re.escape(f"unknown {named}")):
        Simulation(replay_config(), device_trace=dev, net_trace=net)


def test_replay_rejects_empty_traces(tmp_path):
    dev, net = write_traces(tmp_path, [], ["0.0,r1,e1,-50\n"])
    with pytest.raises(TraceFormatError, match="at least one row"):
        Simulation(replay_config(), device_trace=dev, net_trace=net)


def test_replay_clips_duration_to_trace_end(tmp_path):
    device_rows = [
        f"{t}.0,e1,100,10,4096,500\n{t}.0,e2,100,60,4096,500\n" for t in range(5)
    ]
    net_rows = [f"{t}.0,r1,e1,-50\n{t}.0,r1,e2,-50\n" for t in range(5)]
    dev, net = write_traces(tmp_path, device_rows, net_rows)
    rep = run_scenario(replay_config(), device_trace=dev, net_trace=net)
    assert rep.elapsed == 4.0  # clock stops where the traces end
    assert rep.decisions, "decisions should still fire inside the trace window"
    assert {d.winner for d in rep.decisions} == {"e1"}  # e1 is plainly lighter


def test_replay_defers_decision_rounds_until_the_first_reading(tmp_path):
    # The traces start at 3 s; decision rounds run every second from 1 s.
    device_rows = [
        f"{t}.0,e1,100,10,4096,500\n{t}.0,e2,100,60,4096,500\n" for t in range(3, 9)
    ]
    net_rows = [f"{t}.0,r1,e1,-50\n{t}.0,r1,e2,-50\n" for t in range(3, 9)]
    dev, net = write_traces(tmp_path, device_rows, net_rows)
    sim = Simulation(replay_config(), device_trace=dev, net_trace=net)
    rep = sim.run()
    deferred = [Decision(i, None, {}, switched=False, quorate=False) for i in range(2)]
    assert list(rep.decisions[:2]) == deferred
    for decisions in rep.per_robot_decisions.values():
        assert list(decisions[:2]) == deferred
    assert all(d.quorate and d.winner == "e1" for d in rep.decisions[2:])
    ts = rep.timeseries
    assert [host for t, host in zip(ts.t, ts.host) if t < 3.0] == ["", "", ""]
    assert all(host == "e1" for t, host in zip(ts.t, ts.host) if t >= 3.0)
    assert rep.elapsed == 8.0 and rep.generated > 0
    # A robot that has heard nothing casts no vote.
    unheard = Gateway(["r1"], ["e1", "e2"], 3.0)
    cfg = sim.cfg
    assert scheduler.fleet_votes(unheard, 9.0, "e1", cfg.task, cfg.bounds, sim.weights,
                                 cfg.sticky_bonus) == {}


def test_replay_robot_that_has_heard_nothing_casts_no_vote(tmp_path):
    # r1 hears e1 at 0 s; r2 hears nothing and device rows start at 3 s.
    device_rows = [
        f"{t}.0,e1,100,10,4096,500\n{t}.0,e2,100,60,4096,500\n" for t in range(3, 9)
    ]
    dev, net = write_traces(tmp_path, device_rows, ["0.0,r1,e1,-50\n"])
    rep = run_scenario(two_edge_config(duration=10.0), device_trace=dev, net_trace=net)
    votes = [sum(d.votes.values()) for d in rep.decisions]
    assert votes[:2] == [1, 1]  # rounds at 1 s and 2 s: r1 alone
    assert votes[2:] == [2] * (len(votes) - 2)
    for decisions in rep.per_robot_decisions.values():
        assert decisions == rep.decisions
    assert rep.elapsed == 8.0 and rep.generated > 0
