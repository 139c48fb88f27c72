"""Tests for synthetic profilers, trace replay, and the fleet's reading store."""

from __future__ import annotations

import gc
import math
import re
import tempfile
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import write_replay_fixture

from offloadsim.errors import ConfigError, TraceFormatError
from offloadsim.profiling import (
    DEVICE_TRACE_HEADER,
    NETWORK_TRACE_HEADER,
    DeviceProfile,
    Gateway,
    LoadSpike,
    SpikeTable,
    SyntheticDeviceProfiler,
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
    assert list(rows) == [
        NetworkSnapshot("r1", "e1", 0.0, -55.5),
        NetworkSnapshot("r1", "e1", 1.0, -56.25),
    ]


def test_network_trace_rejects_short_rows(tmp_path):
    path = tmp_path / "net.csv"
    path.write_text("t,robot_id,edge_id,rssi\n0.0,r1,e1\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match=r"net\.csv:2"):
        load_network_trace(path)


id_lists = st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,3}", fullmatch=True),
                    min_size=1, max_size=4, unique=True)


def sorted_times(n):
    return st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n).map(sorted)


@st.composite
def device_files(draw):
    """A valid device trace: the file's text and its rows as snapshots, in file order."""
    edge_ids = draw(id_lists)
    n = draw(st.integers(0, 30))
    lines = [",".join(DEVICE_TRACE_HEADER)]
    rows = []
    for t in draw(sorted_times(n)):
        edge_id = draw(st.sampled_from(edge_ids))
        cpu_max = draw(st.floats(0.0, 100.0, exclude_min=True))
        cpu_used = draw(st.floats(0.0, cpu_max))
        mem_max = draw(st.floats(0.0, 1e6, exclude_min=True))
        mem_used = draw(st.floats(0.0, mem_max))
        lines.append(f"{t!r},{edge_id},{cpu_max!r},{cpu_used!r},{mem_max!r},{mem_used!r}")
        rows.append(DeviceSnapshot(edge_id, t, cpu_max, cpu_used, mem_max, mem_used))
    return "\n".join(lines) + "\n", rows


@st.composite
def network_files(draw):
    """A valid network trace: the file's text and its rows as snapshots, in file order."""
    robot_ids, edge_ids = draw(id_lists), draw(id_lists)
    n = draw(st.integers(0, 30))
    lines = [",".join(NETWORK_TRACE_HEADER)]
    rows = []
    for t in draw(sorted_times(n)):
        robot_id, edge_id = draw(st.sampled_from(robot_ids)), draw(st.sampled_from(edge_ids))
        rssi = draw(st.floats(-120.0, 0.0))
        lines.append(f"{t!r},{robot_id},{edge_id},{rssi!r}")
        rows.append(NetworkSnapshot(robot_id, edge_id, t, rssi))
    return "\n".join(lines) + "\n", rows


def exact(snaps):
    """Each snapshot's type and fields, floats as their exact hex form."""
    return [(type(s), *(v.hex() if isinstance(v, float) else v for v in astuple(s)))
            for s in snaps]


def load_text(loader, text):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory, "trace.csv")
        path.write_text(text, encoding="utf-8")
        return loader(path)


@settings(max_examples=60)
@given(device=device_files(), net=network_files())
def test_loaders_return_exactly_the_files_rows(device, net):
    text, rows = device
    traces = load_text(load_device_trace, text)
    assert sorted(traces) == sorted({s.edge_id for s in rows})
    for edge_id, trace in traces.items():
        got = list(trace)
        assert exact(got) == exact([s for s in rows if s.edge_id == edge_id])
        assert all(s.edge_id is trace.edge_id for s in got)

    text, rows = net
    trace = load_text(load_network_trace, text)
    got = list(trace)
    assert exact(got) == exact(rows)
    shared = {}
    for s in got:
        for name in (s.robot_id, s.edge_id):
            assert shared.setdefault(name, name) is name


def test_loaded_traces_hold_at_most_48_bytes_per_row(tmp_path):
    dev, net = write_replay_fixture(tmp_path, seconds=600)  # 3 edges, 9 links
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        traces = load_device_trace(dev), load_network_trace(net)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    rows = sum(map(len, traces[0].values())) + len(traces[1])
    assert rows == 601 * 12
    assert held / rows <= 48


# kind -> (loader, header, row template, in-range value, out-of-range value)
TRACE_FORMATS = {
    "device": (load_device_trace, "t,edge_id,cpu_max,cpu_used,mem_max,mem_used",
               "{t},e1,100,{value},4096,1100", "25", "150"),
    "net": (load_network_trace, "t,robot_id,edge_id,rssi",
            "{t},r1,e1,{value}", "-60", "5"),
}


@pytest.mark.parametrize("kind", sorted(TRACE_FORMATS))
@pytest.mark.parametrize(
    "t, out_of_range",
    [
        pytest.param("nan", False, id="nan-t"),
        pytest.param("inf", False, id="inf-t"),
        pytest.param("-inf", False, id="neg-inf-t"),
        pytest.param("1.0", True, id="out-of-range-value"),
    ],
)
def test_trace_loaders_name_file_and_line_on_bad_values(tmp_path, kind, t, out_of_range):
    loader, header, template, ok, bad = TRACE_FORMATS[kind]
    path = tmp_path / f"{kind}.csv"
    rows = [header, template.format(t="0.0", value=ok),
            template.format(t=t, value=bad if out_of_range else ok)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(TraceFormatError, match="^" + re.escape(f"{path}:3: ")):
        loader(path)


# ---------------------------------------------------------------- gateway

def device_snap(edge_id, t, cpu=30.0):
    return DeviceSnapshot(edge_id, t, 100.0, cpu, 4096.0, 1000.0)


def net_snap(edge_id, t, robot_id="r1", rssi=-60.0):
    return NetworkSnapshot(robot_id, edge_id, t, rssi)


def make_gateway(edges=("e1", "e2"), stale_after=3.0, robots=("r1",)):
    return Gateway(robots, edges, stale_after=stale_after)


def test_gateway_reports_age_of_freshest_reading():
    gw = make_gateway(edges=("e1",))
    for t in (1.0, 2.0, 3.0):
        gw.ingest_device(device_snap("e1", t))
        gw.ingest_network(net_snap("e1", t))
    view = gw.collect(6.0)  # both readings exactly stale_after old
    assert view.devices[0].t == 3.0
    assert view.links["r1"][0].t == 3.0
    assert view.stale == {"r1": (False,)}
    assert gw.collect(6.25).stale == {"r1": (True,)}


def test_gateway_flags_stale_after_three_periods():
    gw = make_gateway(edges=("e1",), stale_after=3.0)
    gw.ingest_device(device_snap("e1", 2.0))
    gw.ingest_network(net_snap("e1", 4.0))
    # The older reading decides: at 5.5 s the link is fresh, the device is not.
    assert gw.collect(5.0).stale == {"r1": (False,)}
    assert gw.collect(5.5).stale == {"r1": (True,)}


def test_gateway_reports_unseen_edge_as_absent():
    gw = make_gateway(edges=("e3", "e1"))
    gw.ingest_device(device_snap("e1", 1.0))
    view = gw.collect(2.0)
    assert view.edge_ids == ("e1", "e3")
    assert view.devices[1] is None and view.links["r1"] == (None, None)
    assert view.devices[0] is not None


def test_gateway_ignores_other_robots_network_readings():
    gw = make_gateway(edges=("e1",), robots=("r1", "r2"))
    gw.ingest_device(device_snap("e1", 1.0))
    gw.ingest_network(net_snap("e1", 1.0, robot_id="r2"))
    gw.ingest_network(net_snap("e1", 1.0, robot_id="r9"))  # not in the fleet
    gw.ingest_network(net_snap("e9", 1.0))  # not a known edge
    view = gw.collect(1.5)
    assert view.links == {"r1": (None,), "r2": (gw.links["r2"]["e1"],)}
    assert gw.links["r2"]["e1"].t == 1.0
    # r1's missing link reading counts as infinitely old; the device
    # reading is the fleet's and fresh for r2.
    assert view.stale == {"r1": (True,), "r2": (False,)}


def test_gateway_missing_device_reading_is_stale_but_present():
    gw = make_gateway(edges=("e1",))
    gw.ingest_network(net_snap("e1", 1.0))
    view = gw.collect(1.5)
    assert view.devices == (None,)
    assert view.links["r1"][0] is not None
    assert view.stale == {"r1": (True,)}
