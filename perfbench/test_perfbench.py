"""Self-test of the benchmark at toy size.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import bench  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TOY = 0.05
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.fixture(params=sorted(workloads.WORKLOADS))
def toy_inputs(request, tmp_path):
    return workloads.WORKLOADS[request.param](1, tmp_path, TOY)


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert _units("end_to_end") == bench.END_TO_END_UNITS
    assert _units("per_layer") == tracing.PER_LAYER_UNITS


def test_every_metric_is_emitted_with_its_unit(toy_inputs):
    for outcome, units in (
        (bench.measure_end_to_end(toy_inputs, 0.0), _units("end_to_end")),
        (bench.measure_layers(toy_inputs, 0.0), _units("per_layer")),
    ):
        assert outcome.correct, outcome.problems
        assert outcome.attempted >= 1 and outcome.failed == 0
        assert set(outcome.metrics) == set(units)
        assert all(math.isfinite(v) for v in outcome.metrics.values())


def _traced_rep(inputs):
    runner = bench.Runner(inputs, bench.Outcome())
    with tracing.Tracer() as tracer:
        wall = runner.rep()
    assert runner.outcome.correct, runner.outcome.problems
    return wall, tracer


def test_traced_self_times_fit_in_traced_wall_time(toy_inputs):
    wall, tracer = _traced_rep(toy_inputs)
    _, self_s = tracer.summary()
    assert all(v >= 0.0 for v in self_s.values())
    assert sum(self_s.values()) <= wall


def test_traced_call_counts_repeat_exactly(toy_inputs):
    _, first = _traced_rep(toy_inputs)
    _, second = _traced_rep(toy_inputs)
    assert first.summary()[0] == second.summary()[0]
    assert first.counts == second.counts


def _fingerprint(build, seed: int, workdir: Path):
    workdir.mkdir()
    inputs = build(seed, workdir, TOY)
    traces = [Path(p).read_bytes() for pair in inputs.traces for p in pair]
    return inputs.sim_configs(), traces


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    build = workloads.WORKLOADS[name]
    first = _fingerprint(build, 7, tmp_path / "a")
    assert _fingerprint(build, 7, tmp_path / "b") == first
    assert _fingerprint(build, 8, tmp_path / "c") != first


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    (tmp_path / "perfbench").mkdir()
    for src in HERE.glob("*.py"):
        shutil.copy(src, tmp_path / "perfbench" / src.name)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "stress_compare",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_meter_counts_reference_work_in_reference_seconds():
    chunks = 200
    with hostspeed.HostSpeedMeter() as meter:
        mark = meter.mark()
        for _ in range(chunks):
            hostspeed.reference_chunk()
        span = meter.span(mark)
    assert len(meter.times) > mark.chunks
    expected = chunks * hostspeed.REFERENCE_CHUNK_S
    assert 0.7 * expected < span.reference_s() < 1.3 * expected


def test_host_speed_meter_leaves_no_timer_running():
    handler = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeedMeter():
        time.sleep(0.12)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is handler
