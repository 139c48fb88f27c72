"""Golden-output pins: sha256 of a run's metrics.csv, decisions.csv and summaries.

Each pinned run is written as ``offloadsim run`` writes it
(``write_run_outputs``), and its ``metrics.csv``, ``decisions.csv``,
``summary.json`` and ``summary.txt`` are hashed and compared with
``tests/golden/hashes.json``. A change meant to leave behaviour alone
(a refactor, a speed-up) must leave every hash as it is. A change that
alters output on purpose rewrites the file with

    PYTHONPATH=src python3 tests/test_golden.py

and says in CHANGES.md which runs moved and why.
"""

from __future__ import annotations

import builtins
import hashlib
import importlib
import json
import math
import pkgutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

import offloadsim
from offloadsim.cli import write_run_outputs
from offloadsim.config import EdgeSpec, ExecModel, RobotSpec, ScenarioConfig, SpikeModel
from offloadsim.netsim import LinkModel
from offloadsim.scenarios import flapping_scenario, stress_scenario
from offloadsim.simharness import default_schemes, run_scenario
from offloadsim.utility import TaskSpec

GOLDEN = Path(__file__).parent / "golden" / "hashes.json"
PINNED_FILES = ("metrics.csv", "decisions.csv", "summary.json", "summary.txt")

STRESS_SEEDS = (1, 2, 3, 4, 5)
FLAPPING_BONUSES = (0.0, 0.05)
REPLAY_SECONDS = 90

# The many-robot pin: twelve robots, each standing within a metre of one
# of four edge sites 100 m apart (listed by robot, r01 first).
FLEET_SITES = {"e1": (0.0, 0.0), "e2": (100.0, 0.0), "e3": (0.0, 100.0), "e4": (100.0, 100.0)}
FLEET_ROBOT_SITES = ("e2", "e1", "e1", "e2", "e4", "e2", "e1", "e1", "e4", "e1", "e2", "e2")
FLEET_SEED = 3

# The mixed-rate pin: robots sending at different rates, one of which
# drives out of radio range and back, so sends from different robots
# interleave on the event queue and some messages drop.
MIXED_RATES = (0.5, 1.0, 2.0, 3.0)
MIXED_SCHEMES = ("dynamic:both", "fixed:e1")
MIXED_SEED = 2


def write_replay_fixture(directory: Path, seconds: int = REPLAY_SECONDS,
                         start: int = 0) -> tuple[str, str]:
    """Write a small device and network trace pair for the stress fleet.

    One row per edge and per link each second from ``start`` to
    ``seconds``. Loads and signal strengths follow integer formulas, so
    the files are the same bytes on every platform. Edge loads take turns
    being heaviest, which makes the replayed fleet switch hosts a few times.
    """
    dev = directory / "device.csv"
    net = directory / "net.csv"
    dev_lines = ["t,edge_id,cpu_max,cpu_used,mem_max,mem_used"]
    net_lines = ["t,robot_id,edge_id,rssi"]
    for t in range(start, seconds + 1):
        for i, eid in enumerate(("e1", "e2", "e3")):
            cpu = 15 + (7 * t + 23 * i) % 60
            mem = 900 + (37 * t + 400 * i) % 1800
            dev_lines.append(f"{t}.0,{eid},100,{cpu},4096,{mem}")
        for j, rid in enumerate(("r1", "r2", "r3")):
            for i, eid in enumerate(("e1", "e2", "e3")):
                rssi = -45 - (5 * t + 11 * i + 17 * j) % 35
                net_lines.append(f"{t}.0,{rid},{eid},{rssi}")
    dev.write_text("\n".join(dev_lines) + "\n", encoding="utf-8")
    net.write_text("\n".join(net_lines) + "\n", encoding="utf-8")
    return str(dev), str(net)


def fleet_scenario() -> ScenarioConfig:
    """Twelve robots and four edges whose summed scores often tie exactly.

    The short, steep link makes every robot's link score exactly 1 to
    the edge at its own site and exactly 0 to the others, whatever the
    shadowing draw. e1 and e2 carry the same load and there is no
    measurement noise, so while no spike lands on either their fleet
    sums are equal in exact arithmetic and near-tied as floats. The pin
    holds the votes decided on those exactly rounded sums.
    """
    robots = []
    for k, site in enumerate(FLEET_ROBOT_SITES, 1):
        x, y = FLEET_SITES[site]
        i = FLEET_ROBOT_SITES[:k].count(site)
        robots.append(RobotSpec(f"r{k:02d}", x=x + 0.2 * i, y=y + 0.1 * i))
    edges = tuple(
        EdgeSpec(eid, x=x, y=y, base_cpu=20.0 if eid in ("e1", "e2") else 30.0, base_mem=1000.0)
        for eid, (x, y) in FLEET_SITES.items()
    )
    return ScenarioConfig(
        name="fleet-12x4",
        robots=tuple(robots),
        edges=edges,
        task=TaskSpec("merge", mem_footprint=512.0, input_rate=0.5, work_per_message=80.0),
        scheme="dynamic:both",
        link=LinkModel(ref_power_dbm=-20.0, path_loss_exp=4.0),
        spike_model=SpikeModel(
            rate=0.05,
            cpu_range=(40.0, 70.0),
            mem_range=(600.0, 1400.0),
            duration_range=(5.0, 15.0),
        ),
        noise_amp=0.0,
        sticky_bonus=0.0,
        duration=60.0,
        seed=FLEET_SEED,
    )


def mixed_scenario() -> ScenarioConfig:
    """Four robots at 0.5/1/2/3 msg/s and three edges over 90 s.

    r4 drives about 260 m away between 25 s and 70 s, well below the
    -85 dBm floor, so its messages drop while it is out there; shadowing
    is on. Robots stop sending at 75 s.
    """
    robots = (
        RobotSpec("r1", x=0.0, y=0.0, input_rate=MIXED_RATES[0]),
        RobotSpec("r2", x=8.0, y=0.0, input_rate=MIXED_RATES[1]),
        RobotSpec("r3", x=0.0, y=8.0, input_rate=MIXED_RATES[2]),
        RobotSpec("r4", input_rate=MIXED_RATES[3],
                  waypoints=((0.0, 4.0, 4.0), (25.0, 4.0, 4.0), (40.0, 260.0, 4.0),
                             (55.0, 260.0, 4.0), (70.0, 4.0, 4.0))),
    )
    edges = (
        EdgeSpec("e1", x=4.0, y=4.0, base_cpu=25.0, base_mem=1800.0, capacity_factor=0.5),
        EdgeSpec("e2", x=10.0, y=4.0, base_cpu=20.0, base_mem=1000.0),
        EdgeSpec("e3", x=4.0, y=10.0, base_cpu=20.0, base_mem=1000.0),
    )
    return ScenarioConfig(
        name="mixed-4x3",
        robots=robots,
        edges=edges,
        task=TaskSpec("merge", mem_footprint=512.0, input_rate=1.0, work_per_message=80.0),
        link=LinkModel(shadow_sigma=4.0),
        spike_model=SpikeModel(
            rate=0.05,
            cpu_range=(50.0, 70.0),
            mem_range=(800.0, 1600.0),
            duration_range=(10.0, 30.0),
        ),
        exec_model=ExecModel(cpu_per_message=4.0, task_cpu_cap=40.0),
        duration=90.0,
        nominal_duration=75.0,
        seed=MIXED_SEED,
    )


def _runs() -> dict[str, tuple]:
    """Every pinned run by name: (config, replays traces)."""
    runs: dict[str, tuple] = {}
    for seed in STRESS_SEEDS:
        cfg = stress_scenario(seed=seed)
        for scheme in default_schemes(cfg):
            runs[f"stress/seed{seed}/{scheme}"] = (replace(cfg, scheme=scheme), False)
    for bonus in FLAPPING_BONUSES:
        runs[f"flapping/sticky{bonus}"] = (flapping_scenario(sticky_bonus=bonus), False)
    runs["replay/stress/dynamic:both"] = (stress_scenario(seed=1), True)
    runs["fleet12x4/dynamic:both"] = (fleet_scenario(), False)
    for scheme in MIXED_SCHEMES:
        runs[f"mixed4x3/{scheme}"] = (replace(mixed_scenario(), scheme=scheme), False)
    return runs


RUNS = _runs()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_hashes(name: str, trace_dir: Path) -> dict[str, str]:
    cfg, replays = RUNS[name]
    traces = write_replay_fixture(trace_dir) if replays else (None, None)
    out_dir = trace_dir / "out"
    write_run_outputs(run_scenario(cfg, *traces), cfg, out_dir)
    return {name: _digest((out_dir / name).read_text(encoding="utf-8")) for name in PINNED_FILES}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_hashes(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert output_hashes(name, tmp_path) == golden[name]


def test_every_golden_entry_is_a_pinned_run():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(RUNS)


def compensated_sum(iterable, /, start=0):
    """Builtin ``sum`` as CPython 3.12 adds floats: Neumaier-compensated.

    Python 3.11 and older add floats plainly left to right. Anything but
    an all-float input falls back to builtin ``sum``.
    """
    items = list(iterable)
    if not all(type(x) is float for x in items):
        return builtins.sum(items, start)
    total, c = start, 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


OFFLOADSIM_MODULES = [offloadsim] + [
    importlib.import_module(f"offloadsim.{info.name}")
    for info in pkgutil.iter_modules(offloadsim.__path__)
]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_hashes_under_a_compensated_sum(name, tmp_path, monkeypatch):
    """The pins do not depend on how the interpreter's ``sum`` rounds."""
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0  # plainly, 0.0
    for module in OFFLOADSIM_MODULES:
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert output_hashes(name, tmp_path) == golden[name]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {name: output_hashes(name, Path(tmp)) for name in sorted(RUNS)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} runs to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
