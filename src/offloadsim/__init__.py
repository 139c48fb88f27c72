"""Consensus-driven offloading of a shared robot task onto edge resources.

A fleet of robots streams work to one edge machine that runs their
shared merge task. Each robot scores every edge by how much CPU,
memory, and radio headroom it has left, the fleet sums its scores,
votes, and moves the task to the plurality winner when that actually
beats the incumbent. The ``simharness`` module ties the pieces into a
deterministic discrete-event simulation for comparing fixed placements
against the dynamic scheduler.
"""

from .config import (
    EdgeSpec,
    ExecModel,
    RobotSpec,
    ScenarioConfig,
    SpikeModel,
    WEIGHT_PRESETS,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
    parse_scheme,
)
from .consensus import (
    ConsensusExecutor,
    Decision,
    consensus,
    quorum_size,
)
from .errors import (
    ConfigError,
    InvalidBoundsError,
    InvalidSnapshotError,
    InvalidWeightsError,
    NoCandidatesError,
    OffloadError,
    TraceFormatError,
)
from .netsim import LinkModel, deliver, path_loss_dbm, rssi_at, throughput_of
from .profiling import (
    Gateway,
    LoadSpike,
    SyntheticDeviceProfiler,
    load_device_trace,
    load_network_trace,
)
from .scheduler import Scheduler, calculate_utility, exchange_and_sum, select_max_edge
from .simharness import MetricsReport, Simulation, Timeseries, compare_schemes, run_scenario
from .utility import (
    DeviceSnapshot,
    NetworkBounds,
    NetworkSnapshot,
    TaskSpec,
    Weights,
    cpu_utility,
    memory_utility,
    rssi_utility,
    total_utility,
)

__all__ = [
    "ConfigError",
    "ConsensusExecutor",
    "Decision",
    "DeviceSnapshot",
    "EdgeSpec",
    "ExecModel",
    "Gateway",
    "InvalidBoundsError",
    "InvalidSnapshotError",
    "InvalidWeightsError",
    "LinkModel",
    "LoadSpike",
    "MetricsReport",
    "NetworkBounds",
    "NetworkSnapshot",
    "NoCandidatesError",
    "OffloadError",
    "RobotSpec",
    "ScenarioConfig",
    "Scheduler",
    "Simulation",
    "SpikeModel",
    "SyntheticDeviceProfiler",
    "TaskSpec",
    "Timeseries",
    "TraceFormatError",
    "WEIGHT_PRESETS",
    "Weights",
    "calculate_utility",
    "compare_schemes",
    "config_from_dict",
    "config_to_dict",
    "consensus",
    "cpu_utility",
    "deliver",
    "dump_config",
    "exchange_and_sum",
    "load_config",
    "load_device_trace",
    "load_network_trace",
    "memory_utility",
    "parse_scheme",
    "path_loss_dbm",
    "quorum_size",
    "rssi_at",
    "rssi_utility",
    "run_scenario",
    "select_max_edge",
    "throughput_of",
    "total_utility",
]
