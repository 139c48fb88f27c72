"""Tests for synthetic profilers, trace replay, and the fleet's reading store."""

from __future__ import annotations

import gc
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import write_replay_fixture

from offloadsim.errors import ConfigError, InvalidSnapshotError, TraceFormatError
from offloadsim.profiling import (
    DEVICE_TRACE_HEADER,
    NETWORK_TRACE_HEADER,
    NEVER,
    DeviceProfile,
    Gateway,
    LoadSpike,
    SpikeTable,
    SyntheticDeviceProfiler,
    load_device_trace,
    load_network_trace,
    spike_load,
)


def profile(**kw):
    defaults = dict(edge_id="e1", cpu_max=100.0, mem_max=4096.0, base_cpu=20.0, base_mem=1024.0)
    defaults.update(kw)
    return DeviceProfile(**defaults)


def profiler(p=None, seed=5, noise_amp=0.0):
    return SyntheticDeviceProfiler(p or profile(), seed=seed, noise_amp=noise_amp)


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
    cpu_used, _ = profiler(p).sample(12.0)
    assert cpu_used == 90.0


def test_sample_clamps_at_capacity():
    p = profile(base_cpu=50.0, spikes=(LoadSpike(10.0, 5.0, cpu_add=70.0),))
    cpu_used, _ = profiler(p).sample(12.0)
    assert cpu_used == 100.0


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
    cpu_used, mem_used = SyntheticDeviceProfiler(
        profile(), seed=seed, noise_amp=amp).sample(t)
    assert abs(cpu_used - 20.0) <= amp
    assert abs(mem_used - 1024.0) <= amp / 100.0 * 4096.0


def test_profiler_parameter_validation():
    with pytest.raises(ConfigError):
        SyntheticDeviceProfiler(profile(), seed=0, noise_amp=-1.0)


# ------------------------------------------------------------ trace files

def device_rows(trace):
    """A device trace's rows as (edge_id, t, cpu_max, cpu_used, mem_max, mem_used)."""
    return [(trace.edge_id, *row) for row in zip(
        trace.t, trace.cpu_max, trace.cpu_used, trace.mem_max, trace.mem_used)]


def network_rows(trace):
    """A network trace's rows as (robot_id, edge_id, t, rssi)."""
    return list(zip(trace.robot_id, trace.edge_id, trace.t, trace.rssi))


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
    assert device_rows(rows["e1"])[0] == ("e1", 0.0, 100.0, 25.5, 4096.0, 1100.0)
    assert device_rows(rows["e2"])[4] == ("e2", 4.0, 100.0, 34.25, 4096.0, 904.0)
    assert list(rows["e1"].t) == [0.0, 1.0, 2.0, 3.0, 4.0]


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
    assert len(rows) == 2
    assert network_rows(rows) == [("r1", "e1", 0.0, -55.5), ("r1", "e1", 1.0, -56.25)]


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
    """A valid device trace: the file's text and its rows as tuples, in file order."""
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
        rows.append((edge_id, t, cpu_max, cpu_used, mem_max, mem_used))
    return "\n".join(lines) + "\n", rows


@st.composite
def network_files(draw):
    """A valid network trace: the file's text and its rows as tuples, in file order."""
    robot_ids, edge_ids = draw(id_lists), draw(id_lists)
    n = draw(st.integers(0, 30))
    lines = [",".join(NETWORK_TRACE_HEADER)]
    rows = []
    for t in draw(sorted_times(n)):
        robot_id, edge_id = draw(st.sampled_from(robot_ids)), draw(st.sampled_from(edge_ids))
        rssi = draw(st.floats(-120.0, 0.0))
        lines.append(f"{t!r},{robot_id},{edge_id},{rssi!r}")
        rows.append((robot_id, edge_id, t, rssi))
    return "\n".join(lines) + "\n", rows


def exact(rows):
    """Each row's fields, floats as their exact hex form."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows]


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
    assert sorted(traces) == sorted({row[0] for row in rows})
    for edge_id, trace in traces.items():
        assert len(trace) == len(trace.cpu_used)
        assert exact(device_rows(trace)) == exact([row for row in rows if row[0] == edge_id])

    text, rows = net
    trace = load_text(load_network_trace, text)
    assert len(trace) == len(trace.robot_id)
    assert exact(network_rows(trace)) == exact(rows)
    shared = {}
    for name in (*trace.robot_id, *trace.edge_id):
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

def ingest_device(gw, edge_id, t, cpu=30.0):
    gw.ingest_device(edge_id, t, 100.0, cpu, 4096.0, 1000.0)


def ingest_link(gw, edge_id, t, robot_id="r1", rssi=-60.0):
    gw.ingest_network(robot_id, edge_id, t, rssi)


def make_gateway(edges=("e1", "e2"), stale_after=3.0, robots=("r1",)):
    return Gateway(robots, edges, stale_after=stale_after)


def test_gateway_reports_age_of_freshest_reading():
    gw = make_gateway(edges=("e1",))
    for t in (1.0, 2.0, 3.0):
        ingest_device(gw, "e1", t, cpu=10.0 * t)
        ingest_link(gw, "e1", t, rssi=-50.0 - t)
    assert gw.device_t == [3.0] and gw.cpu_used == [30.0]
    assert gw.link_t["r1"] == [3.0] and gw.rssi["r1"] == [-53.0]
    assert gw.collect(6.0) == {"r1": [False]}  # both readings exactly stale_after old
    assert gw.collect(6.25) == {"r1": [True]}


def test_gateway_flags_stale_after_three_periods():
    gw = make_gateway(edges=("e1",), stale_after=3.0)
    ingest_device(gw, "e1", 2.0)
    ingest_link(gw, "e1", 4.0)
    # The older reading decides: at 5.5 s the link is fresh, the device is not.
    assert gw.collect(5.0) == {"r1": [False]}
    assert gw.collect(5.5) == {"r1": [True]}


def test_gateway_reports_unseen_edge_as_absent():
    gw = make_gateway(edges=("e3", "e1"))
    ingest_device(gw, "e1", 1.0)
    assert gw.edge_ids == ("e1", "e3")
    assert gw.device_t == [1.0, NEVER] and gw.link_t["r1"] == [NEVER, NEVER]
    assert gw.collect(2.0) == {"r1": [True, True]}


def test_gateway_ignores_other_robots_network_readings():
    gw = make_gateway(edges=("e1",), robots=("r1", "r2"))
    ingest_device(gw, "e1", 1.0)
    ingest_link(gw, "e1", 1.0, robot_id="r2", rssi=-40.0)
    ingest_link(gw, "e1", 1.0, robot_id="r9")  # not in the fleet
    ingest_link(gw, "e9", 1.0)  # not a known edge
    assert gw.link_t == {"r1": [NEVER], "r2": [1.0]}
    assert gw.rssi == {"r1": [-120.0], "r2": [-40.0]}
    assert sorted(gw.link_t) == ["r1", "r2"] and gw.edge_ids == ("e1",)
    # r1's missing link reading counts as infinitely old; the device
    # reading is the fleet's and fresh for r2.
    assert gw.collect(1.5) == {"r1": [True], "r2": [False]}
    # Both robots hold a reading: the device's, which every robot shares.
    assert gw.device_t == [1.0]


def test_gateway_missing_device_reading_is_stale_but_present():
    gw = make_gateway(edges=("e1",), robots=("r1", "r2"))
    ingest_link(gw, "e1", 1.0)
    assert gw.device_t == [NEVER]
    assert gw.link_t["r1"] == [1.0]
    assert gw.collect(1.5) == {"r1": [True], "r2": [True]}
    # r1 holds a link reading; r2 has heard from nothing at all.
    assert gw.link_t["r2"] == [NEVER]


@pytest.mark.parametrize("ingest", [
    lambda gw: gw.ingest_device("e1", 1.0, 100.0, 150.0, 4096.0, 1000.0),
    lambda gw: gw.ingest_device("e9", 1.0, 100.0, 30.0, 4096.0, 5000.0),  # unknown edge too
    lambda gw: gw.ingest_network("r1", "e1", 1.0, 5.0),
    lambda gw: gw.ingest_network("r9", "e1", 1.0, -130.0),  # unknown robot too
])
def test_gateway_checks_every_reading_it_is_given(ingest):
    gw = make_gateway(edges=("e1",))
    with pytest.raises(InvalidSnapshotError):
        ingest(gw)
    assert gw.device_t == [NEVER] and gw.link_t == {"r1": [NEVER]}
