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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from .errors import ConfigError, OffloadError, require_finite
from .netsim import LinkModel
from .profiling import LoadSpike
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
        if not (0.0 <= self.sticky_bonus <= 0.5):
            raise ConfigError("sticky_bonus must be in [0, 0.5]")
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

def config_to_dict(cfg: ScenarioConfig) -> dict:
    """Fully explicit plain-dict form of a config (YAML-safe types only)."""
    return {
        "name": cfg.name,
        "scheme": cfg.scheme,
        "seed": cfg.seed,
        "duration": cfg.duration,
        "nominal_duration": cfg.nominal_duration,
        "decision_period": cfg.decision_period,
        "sample_period": cfg.sample_period,
        "sticky_bonus": cfg.sticky_bonus,
        "noise_amp": cfg.noise_amp,
        "task": {
            "task_id": cfg.task.task_id,
            "mem_footprint": cfg.task.mem_footprint,
            "input_rate": cfg.task.input_rate,
            "work_per_message": cfg.task.work_per_message,
        },
        "weights": None if cfg.weights is None else {
            "w_cpu": cfg.weights.w_cpu,
            "w_mem": cfg.weights.w_mem,
            "w_net": cfg.weights.w_net,
        },
        "bounds": {"min_rssi": cfg.bounds.min_rssi, "max_rssi": cfg.bounds.max_rssi},
        "link": {
            "ref_power_dbm": cfg.link.ref_power_dbm,
            "ref_distance": cfg.link.ref_distance,
            "path_loss_exp": cfg.link.path_loss_exp,
            "shadow_sigma": cfg.link.shadow_sigma,
            "seed": cfg.link.seed,
        },
        "spike_model": None if cfg.spike_model is None else {
            "rate": cfg.spike_model.rate,
            "cpu_range": list(cfg.spike_model.cpu_range),
            "mem_range": list(cfg.spike_model.mem_range),
            "duration_range": list(cfg.spike_model.duration_range),
        },
        "exec_model": {
            "cpu_per_message": cfg.exec_model.cpu_per_message,
            "task_cpu_cap": cfg.exec_model.task_cpu_cap,
            "message_bytes": cfg.exec_model.message_bytes,
            "base_latency": cfg.exec_model.base_latency,
            "exec_tick": cfg.exec_model.exec_tick,
        },
        "robots": [
            {
                "robot_id": r.robot_id,
                "x": r.x,
                "y": r.y,
                "waypoints": [list(w) for w in r.waypoints],
                "input_rate": r.input_rate,
            }
            for r in cfg.robots
        ],
        "edges": [
            {
                "edge_id": e.edge_id,
                "x": e.x,
                "y": e.y,
                "cpu_max": e.cpu_max,
                "mem_max": e.mem_max,
                "base_cpu": e.base_cpu,
                "base_mem": e.base_mem,
                "capacity_factor": e.capacity_factor,
                "spikes": [
                    {"start": s.start, "duration": s.duration,
                     "cpu_add": s.cpu_add, "mem_add": s.mem_add}
                    for s in e.spikes
                ],
            }
            for e in cfg.edges
        ],
    }


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ConfigError(f"{context}: missing required key {key!r}")
    return data[key]


def _check_keys(data: dict, allowed: set[str], context: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


def _int_field(value, name: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):  # NaN, infinity, non-numbers
        raise ConfigError(f"{name} must be a finite integer, got {value!r}") from None


def config_from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a plain dict."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    _check_keys(data, {
        "name", "scheme", "seed", "duration", "nominal_duration", "decision_period",
        "sample_period", "sticky_bonus", "noise_amp", "task", "weights", "bounds",
        "link", "spike_model", "exec_model", "robots", "edges",
    }, "config")

    task_d = _require(data, "task", "config")
    _check_keys(task_d, {"task_id", "mem_footprint", "input_rate", "work_per_message"}, "task")
    try:
        task = TaskSpec(
            task_id=_require(task_d, "task_id", "task"),
            mem_footprint=float(_require(task_d, "mem_footprint", "task")),
            input_rate=float(task_d.get("input_rate", 1.0)),
            work_per_message=float(task_d.get("work_per_message", 100.0)),
        )
    except OffloadError as exc:
        raise ConfigError(f"task: {exc}") from None

    weights = None
    if data.get("weights") is not None:
        w = data["weights"]
        _check_keys(w, {"w_cpu", "w_mem", "w_net"}, "weights")
        try:
            weights = Weights(float(w["w_cpu"]), float(w["w_mem"]), float(w["w_net"]))
        except OffloadError as exc:
            raise ConfigError(f"weights: {exc}") from None

    bounds_d = data.get("bounds") or {}
    _check_keys(bounds_d, {"min_rssi", "max_rssi"}, "bounds")
    try:
        bounds = NetworkBounds(
            min_rssi=float(bounds_d.get("min_rssi", -85.0)),
            max_rssi=float(bounds_d.get("max_rssi", -30.0)),
        )
    except OffloadError as exc:
        raise ConfigError(f"bounds: {exc}") from None

    link_d = data.get("link") or {}
    _check_keys(link_d, {"ref_power_dbm", "ref_distance", "path_loss_exp", "shadow_sigma", "seed"}, "link")
    link = LinkModel(
        ref_power_dbm=float(link_d.get("ref_power_dbm", -40.0)),
        ref_distance=float(link_d.get("ref_distance", 1.0)),
        path_loss_exp=float(link_d.get("path_loss_exp", 2.2)),
        shadow_sigma=float(link_d.get("shadow_sigma", 2.0)),
        seed=_int_field(link_d.get("seed", 0), "link.seed"),
    )

    spike_model = None
    if data.get("spike_model") is not None:
        s = data["spike_model"]
        _check_keys(s, {"rate", "cpu_range", "mem_range", "duration_range"}, "spike_model")
        spike_model = SpikeModel(
            rate=float(_require(s, "rate", "spike_model")),
            cpu_range=tuple(float(v) for v in s.get("cpu_range", (50.0, 70.0))),
            mem_range=tuple(float(v) for v in s.get("mem_range", (800.0, 1600.0))),
            duration_range=tuple(float(v) for v in s.get("duration_range", (20.0, 60.0))),
        )

    exec_d = data.get("exec_model") or {}
    _check_keys(exec_d, {"cpu_per_message", "task_cpu_cap", "message_bytes", "base_latency", "exec_tick"}, "exec_model")
    exec_model = ExecModel(
        cpu_per_message=float(exec_d.get("cpu_per_message", 2.0)),
        task_cpu_cap=float(exec_d.get("task_cpu_cap", 35.0)),
        message_bytes=_int_field(exec_d.get("message_bytes", 50_000), "exec_model.message_bytes"),
        base_latency=float(exec_d.get("base_latency", 0.005)),
        exec_tick=float(exec_d.get("exec_tick", 0.1)),
    )

    robots = []
    for rd in _require(data, "robots", "config"):
        _check_keys(rd, {"robot_id", "x", "y", "waypoints", "input_rate"}, "robots[]")
        robots.append(RobotSpec(
            robot_id=_require(rd, "robot_id", "robots[]"),
            x=float(rd.get("x", 0.0)),
            y=float(rd.get("y", 0.0)),
            waypoints=tuple(
                (float(w[0]), float(w[1]), float(w[2])) for w in rd.get("waypoints") or ()
            ),
            input_rate=None if rd.get("input_rate") is None else float(rd["input_rate"]),
        ))

    edges = []
    for ed in _require(data, "edges", "config"):
        _check_keys(ed, {"edge_id", "x", "y", "cpu_max", "mem_max", "base_cpu",
                         "base_mem", "capacity_factor", "spikes"}, "edges[]")
        edges.append(EdgeSpec(
            edge_id=_require(ed, "edge_id", "edges[]"),
            x=float(ed.get("x", 0.0)),
            y=float(ed.get("y", 0.0)),
            cpu_max=float(ed.get("cpu_max", 100.0)),
            mem_max=float(ed.get("mem_max", 4096.0)),
            base_cpu=float(ed.get("base_cpu", 0.0)),
            base_mem=float(ed.get("base_mem", 0.0)),
            capacity_factor=float(ed.get("capacity_factor", 1.0)),
            spikes=tuple(
                LoadSpike(
                    start=float(sd["start"]),
                    duration=float(sd["duration"]),
                    cpu_add=float(sd.get("cpu_add", 0.0)),
                    mem_add=float(sd.get("mem_add", 0.0)),
                )
                for sd in ed.get("spikes") or ()
            ),
        ))

    return ScenarioConfig(
        name=_require(data, "name", "config"),
        robots=tuple(robots),
        edges=tuple(edges),
        task=task,
        scheme=data.get("scheme", "dynamic:both"),
        weights=weights,
        bounds=bounds,
        link=link,
        spike_model=spike_model,
        exec_model=exec_model,
        sticky_bonus=float(data.get("sticky_bonus", 0.05)),
        decision_period=float(data.get("decision_period", 1.0)),
        sample_period=float(data.get("sample_period", 1.0)),
        noise_amp=float(data.get("noise_amp", 2.0)),
        duration=float(data.get("duration", 600.0)),
        nominal_duration=(
            None if data.get("nominal_duration") is None else float(data["nominal_duration"])
        ),
        seed=_int_field(data.get("seed", 1), "seed"),
    )


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
