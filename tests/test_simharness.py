"""Discrete-event harness: execution law, accounting, and comparisons."""

from collections import Counter
from dataclasses import replace

import pytest

from offloadsim.config import (
    EdgeSpec,
    ExecModel,
    RobotSpec,
    ScenarioConfig,
    SpikeModel,
)
from offloadsim.errors import ConfigError, TraceFormatError
from offloadsim.scenarios import stress_scenario
from offloadsim.simharness import (
    EdgeExecState,
    Simulation,
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
    assert st.merged_total == 1


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
    assert all(row.host == "e2" for row in rep.timeseries)


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


def test_switch_count_matches_decision_log():
    rep = run_scenario(stress_scenario(seed=4, scheme="dynamic:both"))
    assert rep.switch_count >= 1  # spikes force at least one move
    assert rep.switch_count == sum(1 for d in rep.decisions if d.switched)


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
    sim = Simulation(cfg)
    kinds = Counter(entry[3] for entry in sim._heap)
    assert kinds == {"send": cfg.total_quota(), "sample": 1, "exec": 1,
                     "decision": 1, "metrics": 1}

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
