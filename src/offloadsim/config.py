"""Scenario configuration: dataclasses, validation, YAML round-trip.

A scenario is one structured document describing the fleet, the edge
resources, the task, and every model parameter a run depends on.
``load_config`` and ``dump_config`` round-trip losslessly, and a run
directory always receives the fully resolved config (after CLI
overrides), so any completed run can be reproduced from its own
artifacts.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, Field, dataclass, field, fields, is_dataclass
from functools import cache
from pathlib import Path
from typing import Optional, Union, get_args, get_origin, get_type_hints

import yaml

from .errors import ConfigError, OffloadError, require_finite
from .netsim import LinkModel
from .profiling import LoadSpike
from .scheduler import validate_sticky_bonus
from .utility import NetworkBounds, TaskSpec, Weights

# Preset weight vectors for the dynamic scheme variants.
WEIGHT_PRESETS: dict[str, Weights] = {
    "cpu": Weights(0.8, 0.1, 0.1),
    "mem": Weights(0.1, 0.8, 0.1),
    "both": Weights(0.45, 0.45, 0.1),
    "net": Weights(0.1, 0.1, 0.8),
}


@dataclass(frozen=True)
class RobotSpec:
    """A robot's trajectory and message production rate.

    Either a static (x, y) position or a piecewise-linear list of
    (t, x, y) waypoints. ``input_rate`` of None falls back to the
    task-wide default.
    """

    robot_id: str
    x: float = 0.0
    y: float = 0.0
    waypoints: tuple[tuple[float, float, float], ...] = ()
    input_rate: Optional[float] = None

    def __post_init__(self) -> None:
        owner = f"robots[{self.robot_id}]"
        require_finite(owner, x=self.x, y=self.y, input_rate=self.input_rate)
        for i, (t, x, y) in enumerate(self.waypoints):
            require_finite(f"{owner}.waypoints[{i}]", t=t, x=x, y=y)
        times = [w[0] for w in self.waypoints]
        if times != sorted(set(times)):
            raise ConfigError(f"robots[{self.robot_id}].waypoints: times must strictly increase")
        if self.input_rate is not None and self.input_rate < 0.0:
            raise ConfigError(f"robots[{self.robot_id}].input_rate must be >= 0")

    def pose_at(self, t: float) -> tuple[float, float]:
        if not self.waypoints:
            return self.x, self.y
        pts = self.waypoints
        if t <= pts[0][0]:
            return pts[0][1], pts[0][2]
        if t >= pts[-1][0]:
            return pts[-1][1], pts[-1][2]
        for (t0, x0, y0), (t1, x1, y1) in zip(pts, pts[1:]):
            if t0 <= t <= t1:
                frac = (t - t0) / (t1 - t0)
                return x0 + frac * (x1 - x0), y0 + frac * (y1 - y0)
        return pts[-1][1], pts[-1][2]


@dataclass(frozen=True)
class EdgeSpec:
    """An edge resource: capacity, background load, and position."""

    edge_id: str
    x: float = 0.0
    y: float = 0.0
    cpu_max: float = 100.0
    mem_max: float = 4096.0
    base_cpu: float = 0.0
    base_mem: float = 0.0
    capacity_factor: float = 1.0
    spikes: tuple[LoadSpike, ...] = ()

    def __post_init__(self) -> None:
        eid = self.edge_id
        require_finite(f"edges[{eid}]", x=self.x, y=self.y, cpu_max=self.cpu_max,
                       mem_max=self.mem_max, base_cpu=self.base_cpu, base_mem=self.base_mem,
                       capacity_factor=self.capacity_factor)
        if not (0.0 < self.cpu_max <= 100.0):
            raise ConfigError(f"edges[{eid}].cpu_max must be in (0, 100]")
        if self.mem_max <= 0.0:
            raise ConfigError(f"edges[{eid}].mem_max must be positive")
        if not (0.0 <= self.base_cpu <= self.cpu_max):
            raise ConfigError(f"edges[{eid}].base_cpu must be in [0, cpu_max]")
        if not (0.0 <= self.base_mem <= self.mem_max):
            raise ConfigError(f"edges[{eid}].base_mem must be in [0, mem_max]")
        if self.capacity_factor <= 0.0:
            raise ConfigError(f"edges[{eid}].capacity_factor must be positive")
        for i, spike in enumerate(self.spikes):
            if not math.isfinite(spike.start):
                raise ConfigError(f"edges[{eid}].spikes[{i}].start must be finite")
            require_finite(f"edges[{eid}].spikes[{i}]", cpu_add=spike.cpu_add,
                           mem_add=spike.mem_add)
            if not (math.isfinite(spike.duration) and spike.duration >= 0.0):
                raise ConfigError(f"edges[{eid}].spikes[{i}].duration must be finite and >= 0")


@dataclass(frozen=True)
class SpikeModel:
    """Randomized load-burst injection across the edge fleet.

    A seeded point process with the given event rate (events/second
    over the whole fleet); each event lands on a uniformly chosen edge
    with uniformly drawn CPU points, memory MB, and duration.
    """

    rate: float = 0.0
    cpu_range: tuple[float, float] = (50.0, 70.0)
    mem_range: tuple[float, float] = (800.0, 1600.0)
    duration_range: tuple[float, float] = (20.0, 60.0)

    def __post_init__(self) -> None:
        # An infinite rate would draw zero gaps forever; a NaN would
        # slip past every comparison below.
        if not (math.isfinite(self.rate) and self.rate >= 0.0):
            raise ConfigError("spike_model.rate must be finite and >= 0")
        for name, (lo, hi) in (
            ("cpu_range", self.cpu_range),
            ("mem_range", self.mem_range),
            ("duration_range", self.duration_range),
        ):
            if not (0.0 <= lo <= hi and math.isfinite(hi)):
                raise ConfigError(f"spike_model.{name} must satisfy 0 <= lo <= hi < inf")


@dataclass(frozen=True)
class ExecModel:
    """Knobs of the edge execution and transport plumbing."""

    cpu_per_message: float = 2.0  # CPU points each queued message adds on the host
    task_cpu_cap: float = 35.0  # ceiling on task-induced CPU before capacity scaling
    message_bytes: int = 50_000
    base_latency: float = 0.005
    exec_tick: float = 0.1

    def __post_init__(self) -> None:
        require_finite("exec_model", cpu_per_message=self.cpu_per_message,
                       task_cpu_cap=self.task_cpu_cap, base_latency=self.base_latency,
                       exec_tick=self.exec_tick)
        if self.cpu_per_message < 0.0:
            raise ConfigError("exec_model.cpu_per_message must be >= 0")
        if not (0.0 <= self.task_cpu_cap <= 100.0):
            raise ConfigError("exec_model.task_cpu_cap must be in [0, 100]")
        if self.message_bytes <= 0:
            raise ConfigError("exec_model.message_bytes must be positive")
        if self.base_latency < 0.0:
            raise ConfigError("exec_model.base_latency must be >= 0")
        if self.exec_tick <= 0.0:
            raise ConfigError("exec_model.exec_tick must be positive")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one run depends on; (config, seed) fixes the outcome."""

    name: str
    robots: tuple[RobotSpec, ...]
    edges: tuple[EdgeSpec, ...]
    task: TaskSpec
    scheme: str = "dynamic:both"
    weights: Optional[Weights] = None  # explicit override of the scheme preset
    bounds: NetworkBounds = field(default_factory=NetworkBounds)
    link: LinkModel = field(default_factory=LinkModel)
    spike_model: Optional[SpikeModel] = None
    exec_model: ExecModel = field(default_factory=ExecModel)
    sticky_bonus: float = 0.05
    decision_period: float = 1.0
    sample_period: float = 1.0
    noise_amp: float = 2.0
    duration: float = 600.0
    nominal_duration: Optional[float] = None
    seed: int = 1

    def __post_init__(self) -> None:
        if not self.robots:
            raise ConfigError("robots must not be empty")
        if not self.edges:
            raise ConfigError("edges must not be empty")
        robot_ids = [r.robot_id for r in self.robots]
        if len(set(robot_ids)) != len(robot_ids):
            raise ConfigError("robots: ids must be unique")
        edge_ids = [e.edge_id for e in self.edges]
        if len(set(edge_ids)) != len(edge_ids):
            raise ConfigError("edges: ids must be unique")
        parse_scheme(self.scheme, edge_ids)
        require_finite("", sticky_bonus=self.sticky_bonus, decision_period=self.decision_period,
                       sample_period=self.sample_period, noise_amp=self.noise_amp,
                       duration=self.duration, nominal_duration=self.nominal_duration)
        validate_sticky_bonus(self.sticky_bonus)
        for name in ("decision_period", "sample_period", "duration"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        if self.noise_amp < 0.0:
            raise ConfigError("noise_amp must be >= 0")
        if self.nominal_duration is not None and not (0.0 < self.nominal_duration <= self.duration):
            raise ConfigError("nominal_duration must be in (0, duration]")

    @property
    def edge_ids(self) -> list[str]:
        return [e.edge_id for e in self.edges]

    @property
    def robot_ids(self) -> list[str]:
        return [r.robot_id for r in self.robots]

    def input_rate_of(self, robot: RobotSpec) -> float:
        return self.task.input_rate if robot.input_rate is None else robot.input_rate

    def message_quota(self, robot: RobotSpec) -> int:
        """Messages this robot produces before the budget is exhausted."""
        horizon = self.nominal_duration if self.nominal_duration is not None else self.duration
        return int(self.input_rate_of(robot) * horizon + 1e-9)

    def total_quota(self) -> int:
        return sum(self.message_quota(r) for r in self.robots)

    def effective_weights(self) -> Weights:
        if self.weights is not None:
            return self.weights
        kind, arg = parse_scheme(self.scheme, self.edge_ids)
        if kind == "dynamic":
            return WEIGHT_PRESETS[arg]
        return WEIGHT_PRESETS["both"]


def parse_scheme(scheme: str, edge_ids: list[str]) -> tuple[str, str]:
    """Split 'fixed:<edge>' / 'dynamic:<variant>' and validate the argument."""
    kind, sep, arg = scheme.partition(":")
    if not sep or kind not in ("fixed", "dynamic"):
        raise ConfigError(
            f"scheme must look like 'fixed:<edge_id>' or 'dynamic:<variant>', got {scheme!r}"
        )
    if kind == "fixed" and arg not in edge_ids:
        raise ConfigError(f"scheme: fixed edge {arg!r} is not a configured edge")
    if kind == "dynamic" and arg not in WEIGHT_PRESETS:
        raise ConfigError(
            f"scheme: unknown dynamic variant {arg!r}, expected one of {sorted(WEIGHT_PRESETS)}"
        )
    return kind, arg


# ------------------------------------------------------------- dict codec
#
# Both directions read the dataclasses themselves: their fields give the
# keys and their order, their annotations the types, their defaults the
# values of absent keys.

# config_to_dict's top-level key order: scalars first, fleet last.
_TOP_LEVEL_KEYS = (
    "name", "scheme", "seed", "duration", "nominal_duration", "decision_period",
    "sample_period", "sticky_bonus", "noise_amp", "task", "weights", "bounds",
    "link", "spike_model", "exec_model", "robots", "edges",
)
_ROOT = "config"


def _encode(value):
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    return value


def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Fully explicit plain-dict form of a config (YAML-safe types only)."""
    data = _encode(cfg)
    return {key: data[key] for key in _TOP_LEVEL_KEYS}


def _int_field(value, name: str) -> int:
    try:
        if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
            raise ValueError(value)  # a YAML boolean, NaN, infinity, or a fraction int() would drop
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a finite integer, got {value!r}") from None


@cache
def _typed_fields(cls) -> list[tuple[Field, object]]:
    hints = get_type_hints(cls)
    return [(f, hints[f.name]) for f in fields(cls)]


def _coerce(hint, value, label: str):
    """``value`` as an instance of the annotation ``hint``; ``label`` names it in errors."""
    if get_origin(hint) is Union:  # Optional[X]: a None never gets this far
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    if is_dataclass(hint):
        return _decode(hint, value, label)
    if get_origin(hint) is tuple:
        args = get_args(hint)
        variadic = args[-1] is Ellipsis
        if not isinstance(value, (list, tuple)) or not (variadic or len(value) == len(args)):
            shape = "a list" if variadic else f"a list of {len(args)} values"
            raise ConfigError(f"{label} must be {shape}, got {value!r}")
        kinds = args[:1] * len(value) if variadic else args
        return tuple(_coerce(kind, v, f"{label}[]") for kind, v in zip(kinds, value))
    if hint is int:
        return _int_field(value, label)
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{label} must be a string, got {value!r}")
        return value
    try:
        if isinstance(value, bool):
            raise TypeError(value)  # YAML's true, on and yes are not numbers
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{label} must be a number, got {value!r}") from None


def _decode(cls, data, context: str):
    """Build dataclass ``cls`` from mapping ``data``; ``context`` names it in errors.

    A key that is absent or null takes the field's default.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a mapping, got {type(data).__name__}")
    typed = _typed_fields(cls)
    unknown = set(data) - {f.name for f, _ in typed}
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown, key=str)}")
    kwargs = {}
    for f, hint in typed:
        if data.get(f.name) is not None:
            label = f.name if context == _ROOT else f"{context}.{f.name}"
            kwargs[f.name] = _coerce(hint, data[f.name], label)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{context}: missing required key {f.name!r}")
    try:
        return cls(**kwargs)
    except OffloadError as exc:
        # A section whose checks name only the field gets its own name in front.
        section = context.partition("[")[0]
        if context == _ROOT or str(exc).startswith((f"{section}.", f"{section}[")):
            raise
        raise ConfigError(f"{context}: {exc}") from None


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a plain dict."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    return _decode(ScenarioConfig, data, _ROOT)


def load_config(path: str | Path) -> ScenarioConfig:
    """Read and validate a scenario YAML file.

    A file that cannot be opened raises ``ConfigError`` with the
    ``OSError``'s message, which names the path.
    """
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    with fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    return config_from_dict(data)


def dump_config(cfg: ScenarioConfig, path: str | Path) -> None:
    text = yaml.safe_dump(config_to_dict(cfg), sort_keys=False, default_flow_style=None)
    Path(path).write_text(text, encoding="utf-8")
