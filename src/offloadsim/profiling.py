"""Resource profilers and the fleet's reading store.

Each edge device is watched by a profiler that emits periodic CPU and
memory readings; each robot additionally measures the RSSI of its own
links. The ``Gateway`` is the fleet's one store, and it holds readings
as float columns aligned with its sorted edge ids: the latest device
figures once per edge, and the latest link time and RSSI per robot. The
decision round reads those columns in place; the one thing the store
computes for it is what depends on the round's time, each (robot, edge)
pair's staleness (``collect``): a pair is stale once its older reading
is more than three sample periods old. Staleness policy (what to do
about a stale edge) belongs to the scheduler; the store only reports
it. No reading is held as an object: both sources write floats, checked
by ``utility.check_device_reading`` and ``utility.check_network_reading``.

Readings come either from a seeded synthetic generator, in which load
is base plus any active spikes plus bounded measurement noise, or from
device and network trace CSVs that the harness replays bit-exactly.
Noise is a pure function of (run seed, edge, axis, t, amplitude): a
uniform that ``netsim.keyed_draw`` derives from one BLAKE2b hash of a
key naming all five. Given a draw memo, a profiler makes each draw
once, memoized as ``netsim`` memoizes shadowing.

A loaded trace is held as columns: ``load_device_trace`` returns one
``DeviceTrace`` per edge and ``load_network_trace`` one
``NetworkTrace``, float arrays plus shared id strings. The loaders check
every row with the snapshot types' own checks
(``utility.check_device_reading``, ``utility.check_network_reading``),
and a replayed row is read from the columns, never built as an object.

Spike load is read from a per-device ``SpikeTable``: the sum of active
spikes is piecewise constant between spike starts and ends, so it is
added up once per interval, in one sweep, and looked up by bisection.
"""

from __future__ import annotations

import csv
import math
from array import array
from bisect import bisect_right, insort
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .errors import ConfigError, InvalidSnapshotError, TraceFormatError
from .netsim import keyed_draw
from .utility import (
    DeviceSnapshot,
    NetworkSnapshot,
    check_device_reading,
    check_network_reading,
)

DEVICE_TRACE_HEADER = ["t", "edge_id", "cpu_max", "cpu_used", "mem_max", "mem_used"]
NETWORK_TRACE_HEADER = ["t", "robot_id", "edge_id", "rssi"]

# The time the store gives a reading it has never received: infinitely
# old, so the pair it belongs to is stale.
NEVER = -math.inf

@dataclass(frozen=True)
class LoadSpike:
    """A transient load burst on one device, active on [start, start + duration)."""

    start: float
    duration: float
    cpu_add: float = 0.0
    mem_add: float = 0.0

    def active_at(self, t: float) -> bool:
        return self.start <= t < self.start + self.duration


@dataclass(frozen=True)
class DeviceProfile:
    """Static description of an edge device's background load."""

    edge_id: str
    cpu_max: float = 100.0
    mem_max: float = 4096.0
    base_cpu: float = 0.0
    base_mem: float = 0.0
    spikes: tuple[LoadSpike, ...] = ()
    spike_table: SpikeTable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "spike_table", SpikeTable(self.spikes))


def spike_load(spikes: Iterable[LoadSpike], t: float) -> tuple[float, float]:
    """Sum the (cpu, mem) contribution of every spike active at time t."""
    cpu = 0.0
    mem = 0.0
    for s in spikes:
        if s.active_at(t):
            cpu += s.cpu_add
            mem += s.mem_add
    return cpu, mem


class SpikeTable:
    """``spike_load`` of one spike set as a step function of time.

    The set of active spikes only changes at a spike's start or end, so
    the breakpoints are every ``start`` and ``start + duration`` (the
    sums ``active_at`` compares against) and the load is constant from
    one breakpoint up to the next. Each interval's value adds up the
    spikes live in it from 0.0 in their original order, as
    ``spike_load`` does, so ``at(t)`` returns the very floats
    ``spike_load(spikes, t)`` does.
    """

    def __init__(self, spikes: Sequence[LoadSpike]) -> None:
        ends = [s.start + s.duration for s in spikes]
        self.breakpoints = sorted({s.start for s in spikes}.union(ends))
        by_start = sorted(range(len(spikes)), key=lambda i: spikes[i].start)
        self.values = [(0.0, 0.0)]  # before the first breakpoint
        live: list[int] = []  # indices started by the breakpoint, ascending
        k = 0
        for b in self.breakpoints:
            while k < len(by_start) and spikes[by_start[k]].start <= b:
                insort(live, by_start[k])
                k += 1
            live = [i for i in live if ends[i] > b]
            cpu = mem = 0.0
            for i in live:
                spike = spikes[i]
                cpu += spike.cpu_add
                mem += spike.mem_add
            self.values.append((cpu, mem))

    def at(self, t: float) -> tuple[float, float]:
        """Summed (cpu, mem) of the spikes active at time t."""
        return self.values[bisect_right(self.breakpoints, t)]


def _noise(seed: int, edge_id: str, axis: str, t: float, amplitude: float,
           draws: Optional[dict] = None) -> float:
    # Pure function of its arguments, so sampling order cannot perturb a
    # run and the stream is reproducible across processes.
    if amplitude == 0.0:
        return 0.0
    stream = None if draws is None or type(t) is not float else draws.setdefault(
        ("noise", seed, edge_id, axis, amplitude), {})
    if stream is not None and t in stream:
        return stream[t]
    value = keyed_draw(f"{seed}/noise/{edge_id}/{axis}/{t!r}", amplitude, False)
    if stream is not None:
        stream[t] = value
    return value


class SyntheticDeviceProfiler:
    """Generates device readings as base load + active spikes + noise.

    ``noise_amp`` is in percentage points and applies to CPU directly
    and to memory as a percentage of capacity.
    """

    def __init__(self, profile: DeviceProfile, seed: int, noise_amp: float = 2.0, *,
                 draws: Optional[dict] = None) -> None:
        if noise_amp < 0.0:
            raise ConfigError(f"noise_amp must be >= 0, got {noise_amp}")
        self.profile = profile
        self.seed = seed
        self.noise_amp = noise_amp
        self.draws = draws

    def sample(self, t: float) -> tuple[float, float]:
        """The device's (cpu_used, mem_used) at time t, clamped to its capacity."""
        p = self.profile
        spike_cpu, spike_mem = p.spike_table.at(t)
        noise_cpu = _noise(self.seed, p.edge_id, "cpu", t, self.noise_amp, self.draws)
        noise_mem = _noise(self.seed, p.edge_id, "mem", t, self.noise_amp, self.draws)
        cpu = p.base_cpu + spike_cpu + noise_cpu
        mem = p.base_mem + spike_mem + noise_mem / 100.0 * p.mem_max
        return max(0.0, min(p.cpu_max, cpu)), max(0.0, min(p.mem_max, mem))


# ------------------------------------------------------------ trace files

def _parse_float(raw: str, path: str, lineno: int, column: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise TraceFormatError(f"{path}:{lineno}: bad value {raw!r} for {column}") from None


def _trace_rows(path: str, header: list[str]) -> Iterator[tuple[int, float, list[str]]]:
    """Yield (line, t, fields) for each row of a trace CSV.

    Checks the UTF-8 encoding, the header, the field count, that ``t``
    is finite and that it never decreases from one row to the next;
    every failure names ``path:line``. A file that cannot be opened
    raises ``TraceFormatError`` with the ``OSError``'s message, which
    names the path.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise TraceFormatError(str(exc)) from None
    with fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            if got != header:
                raise TraceFormatError(
                    f"{path}:1: expected header {','.join(header)}, got {got}")
            previous = -math.inf
            for row in reader:
                lineno = reader.line_num
                if not row:
                    continue
                if len(row) != len(header):
                    raise TraceFormatError(
                        f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
                t = _parse_float(row[0], path, lineno, "t")
                if not math.isfinite(t):
                    raise TraceFormatError(f"{path}:{lineno}: t must be finite, got {row[0]!r}")
                if t < previous:
                    raise TraceFormatError(
                        f"{path}:{lineno}: t {row[0]} is earlier than the row before it")
                previous = t
                yield lineno, t, row
        except UnicodeDecodeError:
            # The error's offset counts from the start of one decoded
            # chunk, so decode the whole file again to find the line.
            data = Path(path).read_bytes()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                lineno = data.count(b"\n", 0, exc.start) + 1
                raise TraceFormatError(f"{path}:{lineno}: not valid UTF-8") from None
            raise


class DeviceTrace:
    """One edge's device trace rows as parallel float columns, in file order.

    ``len()`` is the row count; row k is the k-th value of each column.
    """

    __slots__ = ("edge_id", "t", "cpu_max", "cpu_used", "mem_max", "mem_used")

    def __init__(self, edge_id: str) -> None:
        self.edge_id = edge_id
        self.t = array("d")
        self.cpu_max = array("d")
        self.cpu_used = array("d")
        self.mem_max = array("d")
        self.mem_used = array("d")

    def __len__(self) -> int:
        return len(self.t)


class NetworkTrace:
    """A network trace's rows as parallel columns, in file order.

    ``t`` and ``rssi`` are float columns; ``robot_id`` and ``edge_id``
    hold one shared ``str`` per distinct id. ``len()`` is the row count;
    row k is the k-th value of each column.
    """

    __slots__ = ("t", "rssi", "robot_id", "edge_id")

    def __init__(self) -> None:
        self.t = array("d")
        self.rssi = array("d")
        self.robot_id: list[str] = []
        self.edge_id: list[str] = []

    def __len__(self) -> int:
        return len(self.t)


def load_device_trace(path: str | Path) -> dict[str, DeviceTrace]:
    """Read a device trace CSV into one ``DeviceTrace`` per edge.

    The header must be exactly ``t,edge_id,cpu_max,cpu_used,mem_max,mem_used``,
    the rows must be in time order, and every row must make a valid
    ``DeviceSnapshot``; a bad row raises ``TraceFormatError`` naming
    ``path:line``.
    """
    path = str(path)
    out: dict[str, DeviceTrace] = {}
    for lineno, t, row in _trace_rows(path, DEVICE_TRACE_HEADER):
        edge_id = row[1]
        cpu_max = _parse_float(row[2], path, lineno, "cpu_max")
        cpu_used = _parse_float(row[3], path, lineno, "cpu_used")
        mem_max = _parse_float(row[4], path, lineno, "mem_max")
        mem_used = _parse_float(row[5], path, lineno, "mem_used")
        try:
            check_device_reading(edge_id, cpu_max, cpu_used, mem_max, mem_used)
        except InvalidSnapshotError as exc:
            raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
        trace = out.get(edge_id)
        if trace is None:
            trace = out[edge_id] = DeviceTrace(edge_id)
        trace.t.append(t)
        trace.cpu_max.append(cpu_max)
        trace.cpu_used.append(cpu_used)
        trace.mem_max.append(mem_max)
        trace.mem_used.append(mem_used)
    return out


def load_network_trace(path: str | Path) -> NetworkTrace:
    """Read a network trace CSV into a ``NetworkTrace``.

    The header must be exactly ``t,robot_id,edge_id,rssi``, the rows
    must be in time order, and every row must make a valid
    ``NetworkSnapshot``; a bad row raises ``TraceFormatError`` naming
    ``path:line``.
    """
    path = str(path)
    out = NetworkTrace()
    ids: dict[str, str] = {}  # each distinct id, kept once
    for lineno, t, row in _trace_rows(path, NETWORK_TRACE_HEADER):
        robot_id = ids.setdefault(row[1], row[1])
        edge_id = ids.setdefault(row[2], row[2])
        rssi = _parse_float(row[3], path, lineno, "rssi")
        try:
            check_network_reading(robot_id, edge_id, rssi)
        except InvalidSnapshotError as exc:
            raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
        out.t.append(t)
        out.rssi.append(rssi)
        out.robot_id.append(robot_id)
        out.edge_id.append(edge_id)
    return out


# ---------------------------------------------------------------- gateway

@dataclass(frozen=True)
class EdgeData:
    """One robot's view of one edge, with reading ages."""

    edge_id: str
    device: Optional[DeviceSnapshot]
    network: Optional[NetworkSnapshot]
    device_age: float
    network_age: float
    stale: bool


class Gateway:
    """The fleet's one store of the latest profiler readings, as float columns.

    Every column is a list aligned with ``edge_ids`` (sorted), and
    ``column[edge_id]`` is an edge's position in it. A device reading is
    the same for every robot, so ``device_t``, ``cpu_max``, ``cpu_used``,
    ``mem_max`` and ``mem_used`` keep the latest one per edge;
    ``link_t[robot]`` and ``rssi[robot]`` keep the latest reading of each
    of the robot's links. A reading never received has time ``NEVER``;
    a link's RSSI then reads -120 dBm, the weakest valid reading. Readings
    arrive in time order, none later than the next ``collect``; each is
    checked, and one naming an unknown id is then ignored. The decision
    round reads these columns as they stand. Staleness is decided here
    alone (``collect``): a pair is stale once its older reading is more
    than ``stale_after`` old, a missing one infinitely.
    """

    def __init__(self, robot_ids: Iterable[str], edge_ids: Iterable[str],
                 stale_after: float) -> None:
        if stale_after <= 0.0:
            raise ConfigError(f"stale_after must be positive, got {stale_after}")
        self.stale_after = stale_after
        self.edge_ids = tuple(sorted(edge_ids))
        self.column = {edge_id: j for j, edge_id in enumerate(self.edge_ids)}
        m = len(self.edge_ids)
        self.device_t = [NEVER] * m
        self.cpu_max = [0.0] * m
        self.cpu_used = [0.0] * m
        self.mem_max = [0.0] * m
        self.mem_used = [0.0] * m
        robots = sorted(robot_ids)
        self.link_t = {robot_id: [NEVER] * m for robot_id in robots}
        self.rssi = {robot_id: [-120.0] * m for robot_id in robots}

    def ingest_device(self, edge_id: str, t: float, cpu_max: float, cpu_used: float,
                      mem_max: float, mem_used: float) -> None:
        check_device_reading(edge_id, cpu_max, cpu_used, mem_max, mem_used)
        j = self.column.get(edge_id)
        if j is not None:
            self.device_t[j] = t
            self.cpu_max[j] = cpu_max
            self.cpu_used[j] = cpu_used
            self.mem_max[j] = mem_max
            self.mem_used[j] = mem_used

    def ingest_network(self, robot_id: str, edge_id: str, t: float, rssi: float) -> None:
        check_network_reading(robot_id, edge_id, rssi)
        link_t = self.link_t.get(robot_id)
        j = self.column.get(edge_id)
        if link_t is not None and j is not None:
            link_t[j] = t
            self.rssi[robot_id][j] = rssi

    def collect(self, now: float) -> dict[str, list[bool]]:
        """Each robot's stale mask at time ``now``, in ``edge_ids`` order.

        A pair is stale when either reading is more than ``stale_after``
        old; ``now - NEVER`` is inf.
        """
        stale_after = self.stale_after
        device_stale = [now - t > stale_after for t in self.device_t]
        return {robot_id: [stale or now - t > stale_after for stale, t in zip(device_stale, row)]
                for robot_id, row in self.link_t.items()}
