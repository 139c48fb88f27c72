"""Tests for synthetic profilers, trace replay, and the gateway cache."""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from offloadsim.errors import ConfigError, TraceFormatError
from offloadsim.profiling import (
    CSV_REPLAY,
    DeviceProfile,
    Gateway,
    LoadSpike,
    ReplayDeviceProfiler,
    SpikeTable,
    SyntheticDeviceProfiler,
    TraceSource,
    init_profilers,
    load_device_trace,
    load_network_trace,
    spike_load,
)
from offloadsim.utility import DeviceSnapshot, NetworkSnapshot


def profile(**kw):
    defaults = dict(edge_id="e1", cpu_max=100.0, mem_max=4096.0, base_cpu=20.0, base_mem=1024.0)
    defaults.update(kw)
    return DeviceProfile(**defaults)


def profiler(p=None, seed=5, noise_amp=0.0):
    return SyntheticDeviceProfiler(p or profile(), seed=seed, sample_period=1.0, noise_amp=noise_amp)


# ------------------------------------------------------- synthetic source

def test_spike_adds_during_its_window():
    spikes = (LoadSpike(start=10.0, duration=5.0, cpu_add=70.0, mem_add=512.0),)
    assert spike_load(spikes, 9.9) == (0.0, 0.0)
    assert spike_load(spikes, 10.0) == (70.0, 512.0)
    assert spike_load(spikes, 14.9) == (70.0, 512.0)
    assert spike_load(spikes, 15.0) == (0.0, 0.0)


_starts = st.one_of(
    st.sampled_from([0.0, 1.0, 2.5, 10.0]),  # shared starts
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
_durations = st.one_of(
    st.sampled_from([0.0, 1.5, 7.5]),  # zero-length spikes, overlaps on the grid
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)
_adds = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
_spike_sets = st.lists(
    st.builds(LoadSpike, _starts, _durations, _adds, _adds), max_size=12
).map(tuple)


@given(_spike_sets)
@example(())
def test_spike_table_equals_spike_load_everywhere(spikes):
    table = SpikeTable(spikes)
    probes = [-math.inf, math.inf]
    for b in table.breakpoints:
        probes += [math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)]
    if spikes:
        probes.append(min(s.start for s in spikes) - 1.0)
        probes.append(max(s.start + s.duration for s in spikes) + 1.0)
    for t in probes:
        assert table.at(t) == spike_load(spikes, t), t


def test_sample_is_base_plus_active_spikes():
    p = profile(spikes=(LoadSpike(10.0, 5.0, cpu_add=70.0),))
    snap = profiler(p).sample(12.0)
    assert snap.cpu_used == 90.0


def test_sample_clamps_at_capacity():
    p = profile(base_cpu=50.0, spikes=(LoadSpike(10.0, 5.0, cpu_add=70.0),))
    snap = profiler(p).sample(12.0)
    assert snap.cpu_used == 100.0


def test_sample_folds_in_task_load():
    snap = profiler().sample(3.0, extra_cpu=30.0, extra_mem=512.0)
    assert snap.cpu_used == 50.0
    assert snap.mem_used == 1536.0


def test_same_seed_reproduces_the_stream():
    times = [float(t) for t in range(20)]
    a = [profiler(seed=9, noise_amp=2.0).sample(t) for t in times]
    b = [profiler(seed=9, noise_amp=2.0).sample(t) for t in times]
    assert a == b


def test_different_seeds_diverge():
    a = [profiler(seed=1, noise_amp=2.0).sample(float(t)) for t in range(10)]
    b = [profiler(seed=2, noise_amp=2.0).sample(float(t)) for t in range(10)]
    assert a != b


@given(t=st.floats(min_value=0.0, max_value=1e4), seed=st.integers(0, 2**31))
def test_noise_stays_within_amplitude(t, seed):
    amp = 2.0
    snap = SyntheticDeviceProfiler(profile(), seed=seed, sample_period=1.0, noise_amp=amp).sample(t)
    assert abs(snap.cpu_used - 20.0) <= amp
    assert abs(snap.mem_used - 1024.0) <= amp / 100.0 * 4096.0


def test_profiler_parameter_validation():
    with pytest.raises(ConfigError):
        SyntheticDeviceProfiler(profile(), seed=0, sample_period=0.0)
    with pytest.raises(ConfigError):
        SyntheticDeviceProfiler(profile(), seed=0, sample_period=1.0, noise_amp=-1.0)
    with pytest.raises(ConfigError):
        TraceSource(kind="telepathy")
    with pytest.raises(ConfigError):
        TraceSource(kind=CSV_REPLAY, path=None)


def test_init_profilers_rejects_duplicate_edges():
    with pytest.raises(ConfigError):
        init_profilers([profile(), profile()], TraceSource(seed=1))


# ------------------------------------------------------------ trace files

DEVICE_ROWS = """t,edge_id,cpu_max,cpu_used,mem_max,mem_used
0.0,e1,100,25.5,4096,1100
0.0,e2,100,30.25,4096,900
1.0,e1,100,26.5,4096,1101
1.0,e2,100,31.25,4096,901
2.0,e1,100,27.5,4096,1102
2.0,e2,100,32.25,4096,902
3.0,e1,100,28.5,4096,1103
3.0,e2,100,33.25,4096,903
4.0,e1,100,29.5,4096,1104
4.0,e2,100,34.25,4096,904
"""


def test_device_trace_replays_bit_exactly(tmp_path):
    path = tmp_path / "device.csv"
    path.write_text(DEVICE_ROWS, encoding="utf-8")
    rows = load_device_trace(path)
    assert sorted(rows) == ["e1", "e2"]
    assert len(rows["e1"]) == 5 and len(rows["e2"]) == 5
    assert rows["e1"][0] == DeviceSnapshot("e1", 0.0, 100.0, 25.5, 4096.0, 1100.0)
    assert rows["e2"][4] == DeviceSnapshot("e2", 4.0, 100.0, 34.25, 4096.0, 904.0)
    assert [s.t for s in rows["e1"]] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_replay_source_builds_per_edge_streams(tmp_path):
    path = tmp_path / "device.csv"
    path.write_text(DEVICE_ROWS, encoding="utf-8")
    source = TraceSource(kind=CSV_REPLAY, path=str(path))
    registry = init_profilers([profile(edge_id="e1"), profile(edge_id="e2"), profile(edge_id="e3")], source)
    assert isinstance(registry["e1"], ReplayDeviceProfiler)
    assert len(registry["e1"].rows) == 5
    assert registry["e3"].rows == []  # absent from the trace


def test_device_trace_rejects_wrong_header(tmp_path):
    path = tmp_path / "device.csv"
    path.write_text("time,edge,cpu\n1,e1,2\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="expected header"):
        load_device_trace(path)


def test_device_trace_names_file_and_line_on_bad_row(tmp_path):
    path = tmp_path / "device.csv"
    path.write_text(
        "t,edge_id,cpu_max,cpu_used,mem_max,mem_used\n"
        "0.0,e1,100,25,4096,1100\n"
        "1.0,e1,100,oops,4096,1100\n",
        encoding="utf-8",
    )
    with pytest.raises(TraceFormatError, match=r"device\.csv:3"):
        load_device_trace(path)


def test_network_trace_round_trip(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text(
        "t,robot_id,edge_id,rssi\n0.0,r1,e1,-55.5\n1.0,r1,e1,-56.25\n",
        encoding="utf-8",
    )
    rows = load_network_trace(path)
    assert rows == [
        NetworkSnapshot("r1", "e1", 0.0, -55.5),
        NetworkSnapshot("r1", "e1", 1.0, -56.25),
    ]


def test_network_trace_rejects_short_rows(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("t,robot_id,edge_id,rssi\n0.0,r1,e1\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match=r"net\.csv:2"):
        load_network_trace(path)


# ---------------------------------------------------------------- gateway

def device_snap(edge_id, t, cpu=30.0):
    return DeviceSnapshot(edge_id, t, 100.0, cpu, 4096.0, 1000.0)


def net_snap(edge_id, t, robot_id="r1", rssi=-60.0):
    return NetworkSnapshot(robot_id, edge_id, t, rssi)


def make_gateway(edges=("e1", "e2"), stale_after=3.0):
    return Gateway("r1", edges, stale_after=stale_after)


def test_gateway_reports_age_of_freshest_reading():
    gw = make_gateway(edges=("e1",))
    for t in (1.0, 2.0, 3.0):
        gw.ingest_device(device_snap("e1", t))
        gw.ingest_network(net_snap("e1", t))
    view = gw.collect(3.4)
    data = view["e1"]
    assert data.device.t == 3.0
    assert data.device_age == pytest.approx(0.4)
    assert data.network_age == pytest.approx(0.4)
    assert not data.stale


def test_gateway_flags_stale_after_three_periods():
    gw = make_gateway(edges=("e1",), stale_after=3.0)
    gw.ingest_device(device_snap("e1", 1.0))
    gw.ingest_network(net_snap("e1", 1.0))
    view = gw.collect(5.0)
    assert view["e1"].device_age == pytest.approx(4.0)
    assert view["e1"].stale


def test_gateway_reports_unseen_edge_as_absent():
    gw = make_gateway(edges=("e1", "e3"))
    gw.ingest_device(device_snap("e1", 1.0))
    view = gw.collect(2.0)
    assert view["e3"] is None
    assert view["e1"] is not None


def test_gateway_ignores_future_snapshots():
    gw = make_gateway(edges=("e1",))
    gw.ingest_device(device_snap("e1", 1.0))
    gw.ingest_device(device_snap("e1", 9.0))
    view = gw.collect(2.0)
    assert view["e1"].device.t == 1.0


def test_gateway_ignores_other_robots_network_readings():
    gw = make_gateway(edges=("e1",))
    gw.ingest_device(device_snap("e1", 1.0))
    gw.ingest_network(net_snap("e1", 1.0, robot_id="r2"))
    view = gw.collect(1.5)
    assert view["e1"].network is None
    assert view["e1"].stale  # missing link reading counts as infinitely old


def test_gateway_missing_device_reading_is_stale_but_present():
    gw = make_gateway(edges=("e1",))
    gw.ingest_network(net_snap("e1", 1.0))
    view = gw.collect(1.5)
    assert view["e1"] is not None
    assert view["e1"].device is None
    assert view["e1"].stale
