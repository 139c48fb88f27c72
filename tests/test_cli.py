"""Command-line contract: outputs, overrides, and exit codes."""

import io
import itertools
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import write_replay_fixture

from offloadsim.cli import main, render_decisions_csv, render_metrics_csv
from offloadsim.config import (
    EdgeSpec,
    RobotSpec,
    ScenarioConfig,
    config_to_dict,
    dump_config,
    load_config,
)
from offloadsim.netsim import LinkModel
from offloadsim.scenarios import stress_scenario
from offloadsim.simharness import run_scenario
from offloadsim.utility import TaskSpec, Weights

STRESS_YAML = Path(__file__).resolve().parents[1] / "configs" / "stress.yaml"


def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(
        name="tiny",
        robots=(RobotSpec("r1"), RobotSpec("r2")),
        edges=(EdgeSpec("e1", base_cpu=15.0, base_mem=600.0),
               EdgeSpec("e2", base_cpu=10.0, base_mem=500.0)),
        task=TaskSpec("merge", mem_footprint=64.0, input_rate=2.0,
                      work_per_message=100.0),
        link=LinkModel(shadow_sigma=0.0),
        noise_amp=0.0,
        duration=20.0,
        nominal_duration=12.0,
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture()
def tiny_yaml(tmp_path):
    path = tmp_path / "tiny.yaml"
    dump_config(tiny_config(), path)
    return path


def write_flat_traces(tmp_path, horizon=30):
    dev = tmp_path / "device.csv"
    net = tmp_path / "net.csv"
    dev_rows = ["t,edge_id,cpu_max,cpu_used,mem_max,mem_used"]
    net_rows = ["t,robot_id,edge_id,rssi"]
    for t in range(horizon + 1):
        for e in ("e1", "e2"):
            dev_rows.append(f"{t}.0,{e},100,20,4096,800")
        for r in ("r1", "r2"):
            for e in ("e1", "e2"):
                net_rows.append(f"{t}.0,{r},{e},-55")
    dev.write_text("\n".join(dev_rows) + "\n", encoding="utf-8")
    net.write_text("\n".join(net_rows) + "\n", encoding="utf-8")
    return str(dev), str(net)


# ------------------------------------------------------------------- run

def test_run_writes_the_full_report_set(tiny_yaml, tmp_path):
    out = tmp_path / "out"
    assert main(["run", "--config", str(tiny_yaml), "--out", str(out)]) == 0
    for name in ("config.yaml", "metrics.csv", "decisions.csv",
                 "summary.txt", "summary.json"):
        assert (out / name).exists(), name
    metrics = (out / "metrics.csv").read_text(encoding="utf-8")
    assert metrics.startswith("t,host,cpu_e1,")
    decisions = (out / "decisions.csv").read_text(encoding="utf-8")
    assert decisions.splitlines()[0] == "iteration,winner,votes,switched"
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["generated"] == summary["processed"] + summary["queued"] + summary["dropped"]


def test_resolved_config_reproduces_the_run(tiny_yaml, tmp_path):
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert main(["run", "--config", str(tiny_yaml), "--seed", "9",
                 "--scheme", "dynamic:cpu", "--out", str(first)]) == 0
    assert main(["run", "--config", str(first / "config.yaml"),
                 "--out", str(again)]) == 0
    for name in ("metrics.csv", "decisions.csv"):
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_seed_flag_matches_config_embedded_seed(tiny_yaml, tmp_path):
    flagged = tmp_path / "flagged"
    embedded_yaml = tmp_path / "embedded.yaml"
    dump_config(tiny_config(seed=7), embedded_yaml)
    embedded = tmp_path / "embedded"
    assert main(["run", "--config", str(tiny_yaml), "--seed", "7",
                 "--out", str(flagged)]) == 0
    assert main(["run", "--config", str(embedded_yaml), "--out", str(embedded)]) == 0
    assert (flagged / "metrics.csv").read_bytes() == (embedded / "metrics.csv").read_bytes()


def test_bad_weight_sum_exits_one_naming_the_field(tmp_path, capsys):
    data = config_to_dict(tiny_config())
    data["weights"] = {"w_cpu": 0.5, "w_mem": 0.4, "w_net": 0.2}
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "weights" in err and "sum" in err


@pytest.mark.parametrize("field, path", [
    ("duration", ("duration",)),
    ("robots[r2].input_rate", ("robots", 1, "input_rate")),
    ("link.shadow_sigma", ("link", "shadow_sigma")),
])
def test_yaml_nan_exits_one_naming_the_field(tmp_path, capsys, field, path):
    data = config_to_dict(tiny_config())
    *parents, key = path
    node = data
    for step in parents:
        node = node[step]
    node[key] = ".nan"
    cfg_path = tmp_path / "nan.yaml"
    cfg_path.write_text(yaml.safe_dump(data).replace("'.nan'", ".nan"), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert f"{field} must be finite, got nan" in capsys.readouterr().err


@pytest.mark.parametrize("path, value, message", [
    (("duration",), "abc", "duration must be a number, got 'abc'"),
    (("robots", 0, "robot_id"), 7, "robots[].robot_id must be a string, got 7"),
    (("robots",), 5, "robots must be a list, got 5"),
    (("task",), 5, "task must be a mapping, got int"),
    (("robots", 0, "waypoints"), [[0.0, 1.0]],
     "robots[].waypoints[] must be a list of 3 values, got [0.0, 1.0]"),
    (("spike_model",), {"cpu_range": [1]},
     "spike_model.cpu_range must be a list of 2 values, got [1]"),
    (("edges", 0, "spikes"), [{"duration": 5.0}], "edges[].spikes[]: missing required key 'start'"),
    (("weights",), {"w_cpu": 0.5, "w_net": 0.5}, "weights: missing required key 'w_mem'"),
    (("seed",), 1.7, "seed must be a finite integer, got 1.7"),
    (("link", "seed"), 2.5, "link.seed must be a finite integer, got 2.5"),
    (("exec_model", "message_bytes"), 1e3 + 0.5,
     "exec_model.message_bytes must be a finite integer, got 1000.5"),
    (("seed",), True, "seed must be a finite integer, got True"),
    (("noise_amp",), True, "noise_amp must be a number, got True"),
])
def test_yaml_malformed_value_exits_one_naming_the_field(tmp_path, capsys, path, value, message):
    data = config_to_dict(tiny_config())
    *parents, key = path
    node = data
    for step in parents:
        node = node[step]
    node[key] = value
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("seed", ".nan"),
    ("seed", ".inf"),
    ("link.seed", ".inf"),
    ("exec_model.message_bytes", ".inf"),
])
def test_yaml_non_finite_integer_exits_one_naming_the_field(tmp_path, capsys, field, value):
    data = config_to_dict(tiny_config())
    *parents, key = field.split(".")
    node = data
    for step in parents:
        node = node[step]
    node[key] = value
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(yaml.safe_dump(data).replace(f"'{value}'", value), encoding="utf-8")
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert f"{field} must be a finite integer, got {value[1:]}" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "ghost.yaml")]) == 1
    assert "error:" in capsys.readouterr().err


def test_directory_as_config_exits_one_naming_it(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize("flag", ["--device-trace", "--net-trace"])
@pytest.mark.parametrize("problem", ["directory", "missing"])
def test_unreadable_trace_exits_one_naming_it(tiny_yaml, tmp_path, capsys, flag, problem):
    dev, net = write_flat_traces(tmp_path)
    bad = tmp_path / "traces"
    if problem == "directory":
        bad.mkdir()
    args = {"--device-trace": dev, "--net-trace": net, flag: str(bad)}
    assert main(["replay", "--config", str(tiny_yaml), *itertools.chain(*args.items()),
                 "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    if problem == "missing":
        assert err == f"error: [Errno 2] No such file or directory: {str(bad)!r}\n"


def test_usage_problems_exit_one(capsys):
    assert main(["run"]) == 1  # --config is required
    assert "usage" in capsys.readouterr().err


# --------------------------------------------------------------- compare

def test_compare_default_covers_every_edge_and_dynamic_variant(tiny_yaml, capsys):
    assert main(["compare", "--config", str(tiny_yaml), "--seeds", "1,2"]) == 0
    out = capsys.readouterr().out
    for scheme in ("fixed:e1", "fixed:e2", "dynamic:cpu", "dynamic:mem", "dynamic:both"):
        assert scheme in out, scheme
    assert "1/2" in out or "2/2" in out or "0/2" in out  # done column shows seed count


def test_compare_writes_csv_when_asked(tiny_yaml, tmp_path, capsys):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", str(tiny_yaml),
                 "--schemes", "fixed:e1,dynamic:both", "--seeds", "1,2,3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    csv_lines = (out / "comparison.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0].startswith("scheme,seeds,completed_runs,latency_mean")
    assert len(csv_lines) == 3
    assert csv_lines[1].startswith("fixed:e1,3,")


def test_compare_with_one_scheme_exits_one(tiny_yaml, capsys):
    assert main(["compare", "--config", str(tiny_yaml),
                 "--schemes", "dynamic:both"]) == 1
    assert "at least two" in capsys.readouterr().err


def test_compare_with_unknown_scheme_lists_valid_names(tiny_yaml, capsys):
    assert main(["compare", "--config", str(tiny_yaml),
                 "--schemes", "dynamic:warp,fixed:e1", "--seeds", "1"]) == 1
    err = capsys.readouterr().err
    assert "both" in err and "cpu" in err and "mem" in err and "net" in err


def test_compare_rejects_non_integer_seeds(tiny_yaml, capsys):
    assert main(["compare", "--config", str(tiny_yaml),
                 "--schemes", "fixed:e1,fixed:e2", "--seeds", "1,zwei"]) == 1
    assert "--seeds" in capsys.readouterr().err


# ---------------------------------------------------------------- replay

def test_replay_flat_rssi_with_net_weights_never_switches(tmp_path, capsys):
    cfg_path = tmp_path / "net_only.yaml"
    dump_config(tiny_config(weights=Weights(0.0, 0.0, 1.0), duration=30.0), cfg_path)
    dev, net = write_flat_traces(tmp_path)
    out = tmp_path / "replayed"
    assert main(["replay", "--config", str(cfg_path), "--device-trace", dev,
                 "--net-trace", net, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["switch_count"] == 0
    rows = (out / "decisions.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert rows, "expected at least one decision"
    winners = {line.split(",")[1] for line in rows}
    assert len(winners) == 1  # constant utilities pin the first winner
    assert all(line.endswith(",false") for line in rows)


def test_replay_seed_and_scheme_flags_override_the_config(tmp_path, capsys):
    cfg = tiny_config(weights=Weights(0.0, 0.0, 1.0), duration=30.0)
    cfg_path = tmp_path / "cfg.yaml"
    dump_config(cfg, cfg_path)
    dev, net = write_flat_traces(tmp_path)
    out = tmp_path / "replayed"
    assert main(["replay", "--config", str(cfg_path), "--device-trace", dev,
                 "--net-trace", net, "--scheme", "fixed:e2", "--seed", "9",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    expected = run_scenario(replace(cfg, scheme="fixed:e2", seed=9, weights=None), dev, net)
    assert (out / "metrics.csv").read_text(encoding="utf-8") == render_metrics_csv(expected)
    assert (out / "decisions.csv").read_text(encoding="utf-8") == render_decisions_csv(expected)
    assert load_config(out / "config.yaml") == replace(
        cfg, scheme="fixed:e2", seed=9, weights=None)


def test_replay_with_unknown_scheme_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    dump_config(tiny_config(), cfg_path)
    dev, net = write_flat_traces(tmp_path)
    assert main(["replay", "--config", str(cfg_path), "--device-trace", dev,
                 "--net-trace", net, "--scheme", "fixed:e9",
                 "--out", str(tmp_path / "o")]) == 1
    assert "fixed edge 'e9'" in capsys.readouterr().err


def test_replay_with_malformed_row_reports_file_and_line(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    dump_config(tiny_config(), cfg_path)
    dev, net = write_flat_traces(tmp_path)
    broken = tmp_path / "broken_net.csv"
    lines = open(net, encoding="utf-8").read().splitlines()
    lines[3] = "2.0,r1,e1"  # rssi column missing
    broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["replay", "--config", str(cfg_path), "--device-trace", dev,
                 "--net-trace", str(broken)]) == 1
    err = capsys.readouterr().err
    assert "broken_net.csv" in err and ":4" in err


def test_replay_with_out_of_range_reading_reports_file_and_line(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    dump_config(tiny_config(), cfg_path)
    dev, net = write_flat_traces(tmp_path)
    broken = tmp_path / "broken_device.csv"
    lines = open(dev, encoding="utf-8").read().splitlines()
    lines[2] = "0.0,e2,100,150,4096,800"  # cpu_used above cpu_max
    broken.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["replay", "--config", str(cfg_path), "--device-trace", str(broken),
                 "--net-trace", net]) == 1
    err = capsys.readouterr().err
    assert f"{broken}:3: " in err


def test_replay_with_unknown_robot_in_network_trace_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    dump_config(tiny_config(), cfg_path)
    dev, net = write_flat_traces(tmp_path)
    with open(net, "a", encoding="utf-8") as fh:
        fh.write("30.0,r7,e1,-55\n")  # in time order, after the last row
    assert main(["replay", "--config", str(cfg_path), "--device-trace", dev,
                 "--net-trace", net]) == 1
    assert "unknown robots: ['r7']" in capsys.readouterr().err


def test_replay_of_traces_that_start_late_defers_the_first_rounds(tmp_path, capsys):
    # Rows run from 5 s to 59 s; decision rounds run every second from 1 s.
    dev, net = write_replay_fixture(tmp_path, seconds=59, start=5)
    out = tmp_path / "replayed"
    assert main(["replay", "--config", str(STRESS_YAML), "--device-trace", dev,
                 "--net-trace", net, "--out", str(out)]) == 0
    capsys.readouterr()
    decisions = (out / "decisions.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert decisions[:4] == [f"{i},,,false" for i in range(4)]  # rounds at 1-4 s
    iteration, winner, votes, _ = decisions[4].split(",")  # the round at 5 s
    assert iteration == "4" and winner and sum(
        int(pair.split("=")[1]) for pair in votes.split(";")) == 3
    hosts = [line.split(",")[:2] for line in
             (out / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]]
    assert all(host == "" for t, host in hosts if float(t) < 5.0)
    assert all(host for t, host in hosts if float(t) >= 5.0)
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["elapsed"] == 59.0 and summary["generated"] > 0


def test_replay_where_one_robot_has_heard_nothing_exits_zero(tiny_yaml, tmp_path, capsys):
    # r1 hears e1 at 0 s; r2 hears nothing and device rows start at 3 s.
    dev = tmp_path / "device.csv"
    net = tmp_path / "net.csv"
    dev.write_text("t,edge_id,cpu_max,cpu_used,mem_max,mem_used\n" + "".join(
        f"{t}.0,e1,100,10,4096,500\n{t}.0,e2,100,60,4096,500\n" for t in range(3, 9)),
        encoding="utf-8")
    net.write_text("t,robot_id,edge_id,rssi\n0.0,r1,e1,-50\n", encoding="utf-8")
    out = tmp_path / "replayed"
    assert main(["replay", "--config", str(tiny_yaml), "--device-trace", str(dev),
                 "--net-trace", str(net), "--out", str(out)]) == 0
    capsys.readouterr()
    decisions = (out / "decisions.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [line.split(",")[2] for line in decisions[:3]] == ["e1=1", "e1=1", "e1=2"]
    rep = run_scenario(load_config(tiny_yaml), device_trace=str(dev), net_trace=str(net))
    assert all(log == rep.decisions for log in rep.per_robot_decisions.values())


# Corruptions that make any trace row invalid, with the columns each may
# hit and the values it may write there (device, network).
NUMERIC_COLUMNS = {"device": (0, 2, 3, 4, 5), "net": (0, 3)}
NOT_NUMBERS = [b"", b"x", b"12a", b"1.0.0", b"--3", b"0x1F"]
NOT_FINITE = [b"nan", b"inf", b"-inf", b"Infinity"]
OUT_OF_RANGE = {
    "device": {2: [b"0", b"-5", b"100.5"], 3: [b"-1", b"100.5", b"1e6"],
               4: [b"0", b"-1"], 5: [b"-1", b"4096.5", b"1e9"]},
    "net": {3: [b"0.5", b"10", b"-120.5", b"-500"]},
}
CORRUPTIONS = ("non-utf8", "drop-field", "extra-field", "non-numeric",
               "non-finite-t", "out-of-range", "decreasing-t")


def corrupt_row(draw, kind, corruption, fields, previous):
    """Return the bytes of one trace row after an always-invalid corruption."""
    if corruption == "non-utf8":
        line = b",".join(fields)
        at = draw(st.integers(0, len(line)))
        return line[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + line[at:]
    if corruption == "drop-field":
        del fields[draw(st.integers(0, len(fields) - 1))]
    elif corruption == "extra-field":
        fields.insert(draw(st.integers(0, len(fields))), draw(st.sampled_from([b"1", b"", b"e1"])))
    elif corruption == "non-numeric":
        fields[draw(st.sampled_from(NUMERIC_COLUMNS[kind]))] = draw(st.sampled_from(NOT_NUMBERS))
    elif corruption == "non-finite-t":
        fields[0] = draw(st.sampled_from(NOT_FINITE))
    elif corruption == "out-of-range":
        column = draw(st.sampled_from(sorted(OUT_OF_RANGE[kind])))
        fields[column] = draw(st.sampled_from(OUT_OF_RANGE[kind][column]))
    else:  # decreasing-t
        step = draw(st.sampled_from([0.5, 1.0, 7.25]))
        fields[0] = repr(float(previous[0]) - step).encode()
    return b",".join(fields)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["device", "net"]), corruption=st.sampled_from(CORRUPTIONS),
       data=st.data())
def test_replay_of_a_corrupted_fixture_exits_one_naming_file_and_line(kind, corruption, data):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        dev, net = write_replay_fixture(directory)
        path = Path(dev if kind == "device" else net)
        lines = path.read_bytes().split(b"\n")  # header, rows, then b""
        # Line numbers count from 1; a decreasing t needs a row before it.
        lineno = data.draw(st.integers(3 if corruption == "decreasing-t" else 2, len(lines) - 1))
        lines[lineno - 1] = corrupt_row(data.draw, kind, corruption,
                                        lines[lineno - 1].split(b","), lines[lineno - 2].split(b","))
        path.write_bytes(b"\n".join(lines))
        cfg_path = directory / "cfg.yaml"
        dump_config(stress_scenario(seed=1), cfg_path)
        err = io.StringIO()
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(["replay", "--config", str(cfg_path), "--device-trace", dev,
                         "--net-trace", net, "--out", str(directory / "out")])
    assert code == 1, err.getvalue()
    assert f"{path}:{lineno}: " in err.getvalue()


# ------------------------------------------------------------- renderers

def test_renderers_are_deterministic_functions_of_the_report():
    cfg = tiny_config()
    a, b = run_scenario(cfg), run_scenario(cfg)
    assert render_metrics_csv(a) == render_metrics_csv(b)
    assert render_decisions_csv(a) == render_decisions_csv(b)


def test_decision_rows_join_votes_with_semicolons():
    rep = run_scenario(tiny_config(scheme="dynamic:both"))
    text = render_decisions_csv(rep)
    body = text.splitlines()[1:]
    assert body
    for line in body:
        iteration, winner, votes, switched = line.split(",")
        assert iteration.isdigit()
        assert winner in ("e1", "e2")
        assert switched in ("true", "false")
        for pair in votes.split(";"):
            edge, count = pair.split("=")
            assert edge in ("e1", "e2") and count.isdigit()
