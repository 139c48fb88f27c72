"""Golden-output pins: sha256 of the rendered metrics.csv and decisions.csv.

Each pinned run is hashed through the CLI renderers and compared with
``tests/golden/hashes.json``. A change meant to leave behaviour alone
(a refactor, a speed-up) must leave every hash as it is. A change that
alters output on purpose rewrites the file with

    PYTHONPATH=src python3 tests/test_golden.py

and says in CHANGES.md which runs moved and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from offloadsim.cli import render_decisions_csv, render_metrics_csv
from offloadsim.scenarios import flapping_scenario, stress_scenario
from offloadsim.simharness import default_schemes, run_scenario

GOLDEN = Path(__file__).parent / "golden" / "hashes.json"

STRESS_SEEDS = (1, 2, 3, 4, 5)
FLAPPING_BONUSES = (0.0, 0.05)
REPLAY_SECONDS = 90


def write_replay_fixture(directory: Path) -> tuple[str, str]:
    """Write a small device and network trace pair for the stress fleet.

    Loads and signal strengths follow integer formulas, so the files are
    the same bytes on every platform. Edge loads take turns being
    heaviest, which makes the replayed fleet switch hosts a few times.
    """
    dev = directory / "device.csv"
    net = directory / "net.csv"
    dev_lines = ["t,edge_id,cpu_max,cpu_used,mem_max,mem_used"]
    net_lines = ["t,robot_id,edge_id,rssi"]
    for t in range(REPLAY_SECONDS + 1):
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
    return runs


RUNS = _runs()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_hashes(name: str, trace_dir: Path) -> dict[str, str]:
    cfg, replays = RUNS[name]
    traces = write_replay_fixture(trace_dir) if replays else (None, None)
    report = run_scenario(cfg, *traces)
    return {
        "metrics.csv": _digest(render_metrics_csv(report)),
        "decisions.csv": _digest(render_decisions_csv(report)),
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_hashes(name, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert output_hashes(name, tmp_path) == golden[name]


def test_every_golden_entry_is_a_pinned_run():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(RUNS)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        hashes = {name: output_hashes(name, Path(tmp)) for name in sorted(RUNS)}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} runs to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
