"""Per-edge utility scoring for offload candidates.

Each edge resource is scored on three normalized axes:

* CPU headroom: fraction of the CPU budget still free.
* Memory headroom: fraction of RAM left after subtracting the task
  footprint and the memory already in use.
* Link quality: received signal strength mapped linearly onto [0, 1]
  between a usable floor and a best-case ceiling.

A weighted sum combines the three into a single score per edge; the
scheduler adds the fleet's scores edge-wise and picks the edge with the
highest combined utility. Each axis is scored from plain floats
(``cpu_score``, ``memory_score``, ``rssi_score``), as the fleet's
reading store holds them; ``cpu_utility``, ``memory_utility`` and
``rssi_utility`` give the same floats from a snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidBoundsError, InvalidSnapshotError, InvalidWeightsError, require_finite

# Tolerance for the weight-simplex sum check.
WEIGHT_SUM_TOLERANCE = 1e-9


def clamp01(value: float) -> float:
    """Clamp a score into the closed unit interval."""
    return max(0.0, min(1.0, value))


def check_device_reading(edge_id: str, cpu_max: float, cpu_used: float,
                         mem_max: float, mem_used: float) -> None:
    """Raise InvalidSnapshotError unless the figures make a valid device reading."""
    if not (0.0 < cpu_max <= 100.0):
        raise InvalidSnapshotError(f"{edge_id}: cpu_max must be in (0, 100], got {cpu_max}")
    if not (0.0 <= cpu_used <= cpu_max):
        raise InvalidSnapshotError(f"{edge_id}: cpu_used {cpu_used} outside [0, {cpu_max}]")
    if mem_max <= 0.0:
        raise InvalidSnapshotError(f"{edge_id}: mem_max must be positive, got {mem_max}")
    if not (0.0 <= mem_used <= mem_max):
        raise InvalidSnapshotError(f"{edge_id}: mem_used {mem_used} outside [0, {mem_max}]")


def check_network_reading(robot_id: str, edge_id: str, rssi: float) -> None:
    """Raise InvalidSnapshotError unless rssi is a valid link reading."""
    if not (-120.0 <= rssi <= 0.0):
        raise InvalidSnapshotError(f"{robot_id}->{edge_id}: rssi {rssi} outside [-120, 0] dBm")


@dataclass(frozen=True)
class DeviceSnapshot:
    """One profiler reading of an edge device.

    CPU figures are percentages; memory figures are megabytes. A
    reading where usage exceeds capacity is rejected outright rather
    than silently clamped, since it indicates a broken profiler.
    """

    edge_id: str
    t: float
    cpu_max: float
    cpu_used: float
    mem_max: float
    mem_used: float

    def __post_init__(self) -> None:
        check_device_reading(self.edge_id, self.cpu_max, self.cpu_used,
                             self.mem_max, self.mem_used)


@dataclass(frozen=True)
class NetworkSnapshot:
    """One RSSI reading for a robot-to-edge link, in dBm."""

    robot_id: str
    edge_id: str
    t: float
    rssi: float

    def __post_init__(self) -> None:
        check_network_reading(self.robot_id, self.edge_id, self.rssi)


@dataclass(frozen=True)
class NetworkBounds:
    """RSSI normalization range.

    ``min_rssi`` is the weakest signal considered usable for offloading
    and maps to a link score of 0; ``max_rssi`` maps to 1.
    """

    min_rssi: float = -85.0
    max_rssi: float = -30.0

    def __post_init__(self) -> None:
        if not (self.min_rssi < self.max_rssi):
            raise InvalidBoundsError(
                f"min_rssi {self.min_rssi} must be below max_rssi {self.max_rssi}"
            )


@dataclass(frozen=True)
class Weights:
    """Relative importance of the three utility axes.

    Each weight lies in [0, 1] and the three must sum to one. A vector
    that misses the simplex is rejected, never renormalized, so a typo
    in a config cannot silently change the trade-off.
    """

    w_cpu: float
    w_mem: float
    w_net: float

    def __post_init__(self) -> None:
        for name, w in (("w_cpu", self.w_cpu), ("w_mem", self.w_mem), ("w_net", self.w_net)):
            if not (0.0 <= w <= 1.0) or math.isnan(w):
                raise InvalidWeightsError(f"{name} must be in [0, 1], got {w}")
        total = self.w_cpu + self.w_mem + self.w_net
        if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise InvalidWeightsError(f"weights must sum to 1, got {total}")


@dataclass(frozen=True)
class TaskSpec:
    """Resource demands of the collaborative task being offloaded."""

    task_id: str
    mem_footprint: float  # MB the task occupies on its host
    input_rate: float = 1.0  # messages per second per robot
    work_per_message: float = 100.0  # CPU-milliseconds at reference speed

    def __post_init__(self) -> None:
        require_finite("", mem_footprint=self.mem_footprint, input_rate=self.input_rate,
                       work_per_message=self.work_per_message)
        if self.mem_footprint < 0.0:
            raise InvalidSnapshotError(f"mem_footprint must be >= 0, got {self.mem_footprint}")
        if self.input_rate < 0.0:
            raise InvalidSnapshotError(f"input_rate must be >= 0, got {self.input_rate}")
        if self.work_per_message <= 0.0:
            raise InvalidSnapshotError(
                f"work_per_message must be positive, got {self.work_per_message}"
            )


def cpu_score(cpu_max: float, cpu_used: float) -> float:
    """Fraction of CPU budget still free: (max - used) / max, clamped to [0, 1]."""
    return clamp01((cpu_max - cpu_used) / cpu_max)


def memory_score(mem_max: float, mem_used: float, task: TaskSpec) -> float:
    """Fraction of RAM left once the task footprint and current usage are
    subtracted: (max - footprint - used) / max, clamped to [0, 1].

    An edge that cannot even hold the task footprint clamps to 0 rather
    than going negative, so it never outranks a feasible edge.
    """
    return clamp01((mem_max - task.mem_footprint - mem_used) / mem_max)


def rssi_score(rssi: float, bounds: NetworkBounds) -> float:
    """Linear map of RSSI onto [0, 1] between the usable floor and the ceiling."""
    return clamp01((rssi - bounds.min_rssi) / (bounds.max_rssi - bounds.min_rssi))


def cpu_utility(snapshot: DeviceSnapshot) -> float:
    """``cpu_score`` of a device reading."""
    return cpu_score(snapshot.cpu_max, snapshot.cpu_used)


def memory_utility(snapshot: DeviceSnapshot, task: TaskSpec) -> float:
    """``memory_score`` of a device reading."""
    return memory_score(snapshot.mem_max, snapshot.mem_used, task)


def rssi_utility(reading: NetworkSnapshot, bounds: NetworkBounds) -> float:
    """``rssi_score`` of a link reading."""
    return rssi_score(reading.rssi, bounds)


def total_utility(cpu: float, mem: float, net: float, weights: Weights) -> float:
    """Weighted sum of the three axis scores."""
    return weights.w_cpu * cpu + weights.w_mem * mem + weights.w_net * net

