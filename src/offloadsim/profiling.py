"""Resource profilers and per-robot gateways.

Each edge device is watched by a profiler that emits periodic
``DeviceSnapshot`` readings; each robot additionally measures the RSSI
of its own links. A per-robot gateway caches the freshest reading per
edge and reports its age, flagging data stale once it is older than
three sample periods. Staleness policy (what to do about a stale edge)
belongs to the scheduler; the gateway only reports it.

Two trace sources exist: a seeded synthetic generator in which load is
base plus any active spikes plus bounded measurement noise, and a CSV
replay source that reproduces a recorded trace bit-exactly.

Spike load is read from a per-device ``SpikeTable``: the sum of active
spikes is piecewise constant between spike starts and ends, so it is
computed once per interval and looked up by bisection.
"""

from __future__ import annotations

import csv
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Iterable, Optional, Sequence

from .errors import ConfigError, TraceFormatError
from .utility import DeviceSnapshot, NetworkSnapshot

SYNTHETIC = "synthetic-generator"
CSV_REPLAY = "csv-replay"

DEVICE_TRACE_HEADER = ["t", "edge_id", "cpu_max", "cpu_used", "mem_max", "mem_used"]
NETWORK_TRACE_HEADER = ["t", "robot_id", "edge_id", "rssi"]

# A reading older than this many sample periods is flagged stale.
STALE_AFTER_PERIODS = 3.0


@dataclass(frozen=True)
class TraceSource:
    """Where profiler readings come from and how often they are taken."""

    kind: str = SYNTHETIC
    seed: int = 0
    sample_period: float = 1.0
    path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in (SYNTHETIC, CSV_REPLAY):
            raise ConfigError(f"unknown trace source kind {self.kind!r}")
        if self.sample_period <= 0.0:
            raise ConfigError(f"sample_period must be positive, got {self.sample_period}")
        if self.kind == CSV_REPLAY and not self.path:
            raise ConfigError("csv-replay source requires a trace path")

    @property
    def stale_after(self) -> float:
        return STALE_AFTER_PERIODS * self.sample_period


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
    one breakpoint up to the next. Each interval's value comes from
    ``spike_load`` over the spikes live in it, in their original order,
    so ``at(t)`` returns the very floats ``spike_load(spikes, t)`` does.
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
            self.values.append(spike_load([spikes[i] for i in live], b))

    def at(self, t: float) -> tuple[float, float]:
        """Summed (cpu, mem) of the spikes active at time t."""
        return self.values[bisect_right(self.breakpoints, t)]


def _noise(seed: int, edge_id: str, axis: str, t: float, amplitude: float) -> float:
    # Pure function of its arguments, so sampling order cannot perturb a
    # run and the stream is reproducible across processes.
    if amplitude == 0.0:
        return 0.0
    rng = Random(f"{seed}/noise/{edge_id}/{axis}/{t!r}")
    return rng.uniform(-amplitude, amplitude)


class SyntheticDeviceProfiler:
    """Generates device readings as base load + active spikes + noise.

    ``noise_amp`` is in percentage points and applies to CPU directly
    and to memory as a percentage of capacity. ``extra_cpu`` (points)
    and ``extra_mem`` (MB) let the caller fold in load the profiled
    task itself induces on the device.
    """

    def __init__(self, profile: DeviceProfile, seed: int, sample_period: float,
                 noise_amp: float = 2.0) -> None:
        if sample_period <= 0.0:
            raise ConfigError(f"sample_period must be positive, got {sample_period}")
        if noise_amp < 0.0:
            raise ConfigError(f"noise_amp must be >= 0, got {noise_amp}")
        self.profile = profile
        self.seed = seed
        self.sample_period = sample_period
        self.noise_amp = noise_amp

    def sample(self, t: float, extra_cpu: float = 0.0, extra_mem: float = 0.0) -> DeviceSnapshot:
        p = self.profile
        spike_cpu, spike_mem = p.spike_table.at(t)
        cpu = p.base_cpu + spike_cpu + extra_cpu + _noise(self.seed, p.edge_id, "cpu", t, self.noise_amp)
        mem_noise = _noise(self.seed, p.edge_id, "mem", t, self.noise_amp) / 100.0 * p.mem_max
        mem = p.base_mem + spike_mem + extra_mem + mem_noise
        return DeviceSnapshot(
            edge_id=p.edge_id,
            t=t,
            cpu_max=p.cpu_max,
            cpu_used=max(0.0, min(p.cpu_max, cpu)),
            mem_max=p.mem_max,
            mem_used=max(0.0, min(p.mem_max, mem)),
        )


class ReplayDeviceProfiler:
    """Replays recorded device readings for one edge, bit-exactly."""

    def __init__(self, edge_id: str, rows: Sequence[DeviceSnapshot]) -> None:
        self.edge_id = edge_id
        self.rows = list(rows)


def init_profilers(
    profiles: Sequence[DeviceProfile],
    source: TraceSource,
    noise_amp: float = 2.0,
):
    """Build one profiler per edge from the configured trace source.

    Returns a dict keyed by edge id. Duplicate edge ids are a config
    error; for replay sources, edges missing from the trace simply get
    an empty replay stream (they will show up as absent downstream).
    """
    registry: dict[str, object] = {}
    for p in profiles:
        if p.edge_id in registry:
            raise ConfigError(f"duplicate edge id {p.edge_id!r}")
        registry[p.edge_id] = None
    if source.kind == SYNTHETIC:
        for p in profiles:
            registry[p.edge_id] = SyntheticDeviceProfiler(
                p, seed=source.seed, sample_period=source.sample_period, noise_amp=noise_amp
            )
    else:
        rows = load_device_trace(source.path)
        for p in profiles:
            registry[p.edge_id] = ReplayDeviceProfiler(p.edge_id, rows.get(p.edge_id, []))
    return registry


# ------------------------------------------------------------ trace files

def _parse_float(raw: str, path: str, lineno: int, column: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise TraceFormatError(f"{path}:{lineno}: bad value {raw!r} for {column}") from None


def load_device_trace(path: str | Path) -> dict[str, list[DeviceSnapshot]]:
    """Read a device trace CSV into per-edge snapshot lists (file order).

    The header must be exactly ``t,edge_id,cpu_max,cpu_used,mem_max,mem_used``.
    """
    path = str(path)
    out: dict[str, list[DeviceSnapshot]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != DEVICE_TRACE_HEADER:
            raise TraceFormatError(
                f"{path}:1: expected header {','.join(DEVICE_TRACE_HEADER)}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(DEVICE_TRACE_HEADER):
                raise TraceFormatError(f"{path}:{lineno}: expected {len(DEVICE_TRACE_HEADER)} fields, got {len(row)}")
            t = _parse_float(row[0], path, lineno, "t")
            edge_id = row[1]
            snap = DeviceSnapshot(
                edge_id=edge_id,
                t=t,
                cpu_max=_parse_float(row[2], path, lineno, "cpu_max"),
                cpu_used=_parse_float(row[3], path, lineno, "cpu_used"),
                mem_max=_parse_float(row[4], path, lineno, "mem_max"),
                mem_used=_parse_float(row[5], path, lineno, "mem_used"),
            )
            out.setdefault(edge_id, []).append(snap)
    return out


def load_network_trace(path: str | Path) -> list[NetworkSnapshot]:
    """Read a network trace CSV into a snapshot list (file order).

    The header must be exactly ``t,robot_id,edge_id,rssi``.
    """
    path = str(path)
    out: list[NetworkSnapshot] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != NETWORK_TRACE_HEADER:
            raise TraceFormatError(
                f"{path}:1: expected header {','.join(NETWORK_TRACE_HEADER)}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(NETWORK_TRACE_HEADER):
                raise TraceFormatError(f"{path}:{lineno}: expected {len(NETWORK_TRACE_HEADER)} fields, got {len(row)}")
            out.append(
                NetworkSnapshot(
                    robot_id=row[1],
                    edge_id=row[2],
                    t=_parse_float(row[0], path, lineno, "t"),
                    rssi=_parse_float(row[3], path, lineno, "rssi"),
                )
            )
    return out


# ---------------------------------------------------------------- gateway

@dataclass(frozen=True)
class EdgeData:
    """The gateway's current view of one edge, with reading ages."""

    edge_id: str
    device: Optional[DeviceSnapshot]
    network: Optional[NetworkSnapshot]
    device_age: float
    network_age: float
    stale: bool


class Gateway:
    """Per-robot cache of the freshest profiler readings.

    Device snapshots are shared fleet-wide; network snapshots are only
    accepted for this robot's own links. ``collect`` reports every
    known edge, with None standing in for edges never heard from.
    """

    def __init__(self, robot_id: str, edge_ids: Iterable[str], stale_after: float) -> None:
        if stale_after <= 0.0:
            raise ConfigError(f"stale_after must be positive, got {stale_after}")
        self.robot_id = robot_id
        self.stale_after = stale_after
        self._device: dict[str, list[DeviceSnapshot]] = {e: [] for e in edge_ids}
        self._network: dict[str, list[NetworkSnapshot]] = {e: [] for e in edge_ids}

    @property
    def edge_ids(self) -> list[str]:
        return sorted(self._device)

    def ingest_device(self, snap: DeviceSnapshot) -> None:
        if snap.edge_id in self._device:
            self._device[snap.edge_id].append(snap)

    def ingest_network(self, snap: NetworkSnapshot) -> None:
        if snap.robot_id != self.robot_id:
            return
        if snap.edge_id in self._network:
            self._network[snap.edge_id].append(snap)

    @staticmethod
    def _latest(rows, now: float):
        for row in reversed(rows):
            if row.t <= now:
                return row
        return None

    def collect(self, now: float) -> dict[str, Optional[EdgeData]]:
        """Freshest view per edge at time ``now``, oldest reading decides staleness."""
        view: dict[str, Optional[EdgeData]] = {}
        for edge_id in sorted(self._device):
            device = self._latest(self._device[edge_id], now)
            network = self._latest(self._network[edge_id], now)
            if device is None and network is None:
                view[edge_id] = None
                continue
            device_age = now - device.t if device is not None else float("inf")
            network_age = now - network.t if network is not None else float("inf")
            stale = max(device_age, network_age) > self.stale_after
            view[edge_id] = EdgeData(edge_id, device, network, device_age, network_age, stale)
        return view
