"""Seeded inputs and runners for the four benchmark workloads.

Each workload is a function of the benchmark seed. Everything the
benchmark itself generates (seed lists, the 40x10 fleet layout, the
replay traces) is drawn here with stdlib ``random`` from a string seed,
never with offloadsim's own draw code, so a later change to the
simulator's randomness cannot change the inputs it is fed.

``scale`` shrinks every horizon (and the stress seed count) so the
self-test can run the same code at toy size; the benchmark runs at 1.0.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from random import Random
from typing import Callable, Optional

from offloadsim import cli, simharness
from offloadsim.config import EdgeSpec, ExecModel, RobotSpec, ScenarioConfig
from offloadsim.profiling import DEVICE_TRACE_HEADER, NETWORK_TRACE_HEADER, LoadSpike
from offloadsim.scenarios import stress_scenario
from offloadsim.simharness import MetricsReport
from offloadsim.utility import TaskSpec

# stress_compare: how many simulation seeds each scheme runs over.
STRESS_SEEDS = 5

# long_horizon: how many simulation seeds one repetition runs. Whether
# the backlog drains before the horizon differs from seed to seed, and
# with it the work, so one seed alone would make the workload's size
# depend on --seed.
LONG_SEEDS = 2

# long_horizon and replay_trace: the horizon is the paper-scale hour.
# Robots stop producing at NOMINAL_S so the backlog drains and the
# completion time is a real model output instead of the horizon cap.
LONG_HORIZON_S = 3600.0
LONG_NOMINAL_S = 3000.0

# replay_trace: how many simulation seeds, each with its own generated
# traces, one repetition runs, to even out the work as for long_horizon.
REPLAY_SEEDS = 2

# fleet_40x10: 40 robots at 0.10-0.20 msg/s offer about 6 msg/s in
# total, like stress, so the edges keep up and the decision round
# dominates host time.
FLEET_ROBOTS = 40
FLEET_EDGES = 10
FLEET_NOMINAL_S = 120.0
FLEET_HORIZON_S = 180.0
FLEET_AREA_M = 30.0
FLEET_SPIKES_PER_EDGE_S = 1.0 / 60.0


@dataclass(frozen=True)
class Inputs:
    """What one workload hands to offloadsim.

    A non-empty ``schemes`` makes the workload one ``compare_schemes``
    call over ``seeds``; otherwise it is one simulation of ``cfg`` per
    seed in ``seeds`` (or of ``cfg`` alone), replayed from the
    ``(device, network)`` trace files of the same index in ``traces``
    when they are set.
    """

    cfg: ScenarioConfig
    schemes: tuple[str, ...] = ()
    seeds: tuple[int, ...] = ()
    traces: tuple[tuple[str, str], ...] = ()

    def sim_configs(self) -> list[ScenarioConfig]:
        """The config of every simulation the workload constructs, in order."""
        if not self.schemes:
            return [replace(self.cfg, seed=seed) for seed in self.seeds] or [self.cfg]
        # Mirrors compare_schemes: presets per scheme, seeds inner.
        return [
            replace(self.cfg, scheme=scheme, seed=seed, weights=None)
            for scheme in self.schemes
            for seed in self.seeds
        ]

    def sim_args(self) -> list[tuple[ScenarioConfig, Optional[str], Optional[str]]]:
        """``Simulation`` arguments (config, device trace, network trace), in order."""
        configs = self.sim_configs()
        traces = self.traces or [(None, None)] * len(configs)
        return [(cfg, device, net) for cfg, (device, net) in zip(configs, traces)]


def _rng(workload: str, seed: int) -> Random:
    return Random(f"perfbench/{workload}/{seed}")


def _sim_seed(rng: Random) -> int:
    return rng.randrange(1, 1_000_000)


def build_stress_compare(seed: int, workdir: Path, scale: float = 1.0) -> Inputs:
    rng = _rng("stress_compare", seed)
    seeds = tuple(_sim_seed(rng) for _ in range(max(1, round(STRESS_SEEDS * scale))))
    cfg = stress_scenario(seed=seeds[0])
    if scale != 1.0:
        cfg = replace(cfg, duration=cfg.duration * scale,
                      nominal_duration=cfg.nominal_duration * scale)
    return Inputs(cfg, schemes=tuple(simharness.default_schemes(cfg)), seeds=seeds)


def build_long_horizon(seed: int, workdir: Path, scale: float = 1.0) -> Inputs:
    rng = _rng("long_horizon", seed)
    seeds = tuple(_sim_seed(rng) for _ in range(LONG_SEEDS))
    cfg = replace(
        stress_scenario(seed=seeds[0], scheme="dynamic:both"),
        duration=LONG_HORIZON_S * scale,
        nominal_duration=LONG_NOMINAL_S * scale,
    )
    return Inputs(cfg, seeds=seeds)


def _spike_train(rng: Random, rate: float, horizon: float) -> tuple[LoadSpike, ...]:
    spikes = []
    t = rng.expovariate(rate)
    while t < horizon:
        spikes.append(LoadSpike(
            start=t,
            duration=rng.uniform(10.0, 40.0),
            cpu_add=rng.uniform(30.0, 60.0),
            mem_add=rng.uniform(400.0, 1200.0),
        ))
        t += rng.expovariate(rate)
    return tuple(spikes)


def build_fleet_40x10(seed: int, workdir: Path, scale: float = 1.0) -> Inputs:
    rng = _rng("fleet_40x10", seed)
    horizon = FLEET_HORIZON_S * scale
    edges = tuple(
        EdgeSpec(
            f"e{j:02d}",
            x=rng.uniform(0.0, FLEET_AREA_M),
            y=rng.uniform(0.0, FLEET_AREA_M),
            base_cpu=rng.uniform(10.0, 25.0),
            base_mem=rng.uniform(600.0, 2000.0),
            capacity_factor=rng.uniform(1.0, 1.5),
            spikes=_spike_train(rng, FLEET_SPIKES_PER_EDGE_S, horizon),
        )
        for j in range(1, FLEET_EDGES + 1)
    )
    robots = tuple(
        RobotSpec(
            f"r{i:02d}",
            x=rng.uniform(0.0, FLEET_AREA_M),
            y=rng.uniform(0.0, FLEET_AREA_M),
            input_rate=rng.uniform(0.10, 0.20),
        )
        for i in range(1, FLEET_ROBOTS + 1)
    )
    cfg = ScenarioConfig(
        name="fleet-40x10",
        robots=robots,
        edges=edges,
        task=TaskSpec("merge", mem_footprint=512.0, input_rate=0.15, work_per_message=80.0),
        scheme="dynamic:both",
        exec_model=ExecModel(cpu_per_message=4.0, task_cpu_cap=40.0),
        sticky_bonus=0.05,
        duration=horizon,
        nominal_duration=FLEET_NOMINAL_S * scale,
        seed=_sim_seed(rng),
    )
    return Inputs(cfg)


class _Walk:
    """A mean-reverting random walk with occasional additive bursts."""

    def __init__(self, rng: Random, mean: float, sigma: float, burst_every_s: float,
                 burst_size: tuple[float, float], burst_len: tuple[int, int]) -> None:
        self.rng = rng
        self.mean = mean
        self.value = mean
        self.sigma = sigma
        self.burst_p = 1.0 / burst_every_s
        self.burst_size = burst_size
        self.burst_len = burst_len
        self.burst = 0.0
        self.left = 0

    def step(self) -> float:
        rng = self.rng
        self.value += 0.05 * (self.mean - self.value) + rng.gauss(0.0, self.sigma)
        if self.left > 0:
            self.left -= 1
        elif rng.random() < self.burst_p:
            self.burst = rng.uniform(*self.burst_size)
            self.left = rng.randint(*self.burst_len)
        return self.value + (self.burst if self.left > 0 else 0.0)


def write_replay_traces(rng: Random, cfg: ScenarioConfig, horizon: float,
                        workdir: Path) -> tuple[Path, Path]:
    """Write one device reading per edge and one RSSI reading per link per second.

    Both files are in time order and cover every edge and robot-edge
    link from 0 to ``horizon``. CPU and memory wander around the
    config's base load with occasional load bursts; RSSI wanders around
    the log-distance mean of the link with occasional deep fades.
    """
    def clamp(lo: float, v: float, hi: float) -> float:
        return max(lo, min(hi, v))

    cpu = {e.edge_id: _Walk(rng, e.base_cpu, 1.0, 60.0, (40.0, 70.0), (30, 120))
           for e in cfg.edges}
    mem = {e.edge_id: _Walk(rng, e.base_mem, 20.0, 200.0, (400.0, 1200.0), (20, 60))
           for e in cfg.edges}
    rssi = {}
    for r in cfg.robots:
        for e in cfg.edges:
            d = max(1.0, math.hypot(r.x - e.x, r.y - e.y))
            mean = cfg.link.ref_power_dbm - 10.0 * cfg.link.path_loss_exp * math.log10(d)
            rssi[(r.robot_id, e.edge_id)] = _Walk(rng, mean, 0.7, 300.0, (-15.0, -8.0), (3, 10))
    device_lines = [",".join(DEVICE_TRACE_HEADER)]
    net_lines = [",".join(NETWORK_TRACE_HEADER)]
    for k in range(int(horizon) + 1):
        t = float(k)
        for e in cfg.edges:
            c = clamp(0.0, cpu[e.edge_id].step(), e.cpu_max)
            m = clamp(0.0, mem[e.edge_id].step(), e.mem_max)
            device_lines.append(f"{t},{e.edge_id},{e.cpu_max},{c:.3f},{e.mem_max},{m:.3f}")
        for (rid, eid), walk in rssi.items():
            net_lines.append(f"{t},{rid},{eid},{clamp(-95.0, walk.step(), -30.0):.3f}")
    workdir.mkdir(parents=True, exist_ok=True)
    device_path = workdir / "device.csv"
    net_path = workdir / "net.csv"
    device_path.write_text("\n".join(device_lines) + "\n", encoding="utf-8")
    net_path.write_text("\n".join(net_lines) + "\n", encoding="utf-8")
    return device_path, net_path


def build_replay_trace(seed: int, workdir: Path, scale: float = 1.0) -> Inputs:
    rng = _rng("replay_trace", seed)
    seeds = tuple(_sim_seed(rng) for _ in range(REPLAY_SEEDS))
    cfg = replace(
        stress_scenario(seed=seeds[0], scheme="dynamic:both"),
        duration=LONG_HORIZON_S * scale,
        nominal_duration=LONG_NOMINAL_S * scale,
    )
    traces = []
    for i in range(REPLAY_SEEDS):
        device, net = write_replay_traces(rng, cfg, cfg.duration, workdir / f"traces-{i}")
        traces.append((str(device), str(net)))
    return Inputs(cfg, seeds=seeds, traces=tuple(traces))


WORKLOADS: dict[str, Callable[[int, Path, float], Inputs]] = {
    "stress_compare": build_stress_compare,
    "fleet_40x10": build_fleet_40x10,
    "long_horizon": build_long_horizon,
    "replay_trace": build_replay_trace,
}


def run_sims(inputs: Inputs) -> list[MetricsReport]:
    """Run the workload through offloadsim's public API."""
    if inputs.schemes:
        result = simharness.compare_schemes(
            inputs.cfg, list(inputs.schemes), seeds=list(inputs.seeds))
        return [row.report for row in result.runs]
    return [simharness.run_scenario(*args) for args in inputs.sim_args()]


def render_outputs(reports: list[MetricsReport]) -> list[str]:
    """Render metrics.csv, decisions.csv and summary.json of every report in memory."""
    out = []
    for report in reports:
        out.append(cli.render_metrics_csv(report))
        out.append(cli.render_decisions_csv(report))
        out.append(json.dumps(cli.summary_dict(report), indent=2, sort_keys=True) + "\n")
    return out


def run_workload(inputs: Inputs) -> tuple[list[MetricsReport], list[str]]:
    """One repetition as a user pays for it: simulate, then render the outputs."""
    reports = run_sims(inputs)
    return reports, render_outputs(reports)


def digest(rendered: list[str]) -> str:
    h = hashlib.sha256()
    for text in rendered:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def check_report(report: MetricsReport) -> list[str]:
    """Invariants every finished run must satisfy; returns what is violated."""
    problems = []
    if report.generated != report.processed + report.dropped + report.queued:
        problems.append(
            f"{report.scheme}/{report.seed}: generated {report.generated} != processed "
            f"{report.processed} + dropped {report.dropped} + queued {report.queued}")
    for rid, decisions in report.per_robot_decisions.items():
        if decisions != report.decisions:
            problems.append(f"{report.scheme}/{report.seed}: {rid} logged other decisions")
    return problems
