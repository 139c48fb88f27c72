"""Scenario configuration: validation, presets, and file round-trips."""

import copy
import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from test_event_loop_reference import scenarios

from offloadsim.config import (
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
from offloadsim.errors import ConfigError
from offloadsim.netsim import LinkModel
from offloadsim.profiling import LoadSpike
from offloadsim.scenarios import flapping_scenario, stress_scenario
from offloadsim.utility import TaskSpec, Weights


def minimal_config(**overrides) -> ScenarioConfig:
    base = dict(
        name="mini",
        robots=(RobotSpec("r1"), RobotSpec("r2")),
        edges=(EdgeSpec("e1"), EdgeSpec("e2")),
        task=TaskSpec("merge", mem_footprint=100.0),
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# ------------------------------------------------------------ validation

def test_duplicate_ids_are_rejected():
    with pytest.raises(ConfigError, match="robots: ids must be unique"):
        minimal_config(robots=(RobotSpec("r1"), RobotSpec("r1")))
    with pytest.raises(ConfigError, match="edges: ids must be unique"):
        minimal_config(edges=(EdgeSpec("e1"), EdgeSpec("e1")))


def test_empty_fleet_or_edge_pool_is_rejected():
    with pytest.raises(ConfigError):
        minimal_config(robots=())
    with pytest.raises(ConfigError):
        minimal_config(edges=())


def test_scheme_strings_are_validated_at_construction():
    with pytest.raises(ConfigError, match="not a configured edge"):
        minimal_config(scheme="fixed:e9")
    with pytest.raises(ConfigError, match="unknown dynamic variant"):
        minimal_config(scheme="dynamic:gpu")
    with pytest.raises(ConfigError, match="must look like"):
        minimal_config(scheme="roundrobin")


def test_parse_scheme_splits_kind_and_argument():
    assert parse_scheme("fixed:e2", ["e1", "e2"]) == ("fixed", "e2")
    assert parse_scheme("dynamic:mem", ["e1"]) == ("dynamic", "mem")


def test_sticky_bonus_and_periods_are_bounded():
    with pytest.raises(ConfigError, match="sticky_bonus"):
        minimal_config(sticky_bonus=0.6)
    with pytest.raises(ConfigError, match="decision_period"):
        minimal_config(decision_period=0.0)
    with pytest.raises(ConfigError, match="sample_period"):
        minimal_config(sample_period=0.0)
    with pytest.raises(ConfigError, match="nominal_duration"):
        minimal_config(duration=100.0, nominal_duration=200.0)


def test_edge_bounds_are_validated():
    with pytest.raises(ConfigError, match=r"edges\[e1\].cpu_max"):
        EdgeSpec("e1", cpu_max=120.0)
    with pytest.raises(ConfigError, match=r"edges\[e1\].base_mem"):
        EdgeSpec("e1", mem_max=1000.0, base_mem=2000.0)
    with pytest.raises(ConfigError, match=r"edges\[e1\].capacity_factor"):
        EdgeSpec("e1", capacity_factor=0.0)


def test_spike_with_non_finite_start_is_rejected():
    for start in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match=r"edges\[e1\].spikes\[1\].start"):
            EdgeSpec("e1", spikes=(LoadSpike(0.0, 1.0), LoadSpike(start, 1.0)))


def test_spike_with_negative_duration_is_rejected():
    with pytest.raises(ConfigError, match=r"edges\[e1\].spikes\[0\].duration"):
        EdgeSpec("e1", spikes=(LoadSpike(5.0, -1.0, cpu_add=10.0),))
    EdgeSpec("e1", spikes=(LoadSpike(5.0, 0.0, cpu_add=10.0),))  # zero length is fine


def test_spike_with_non_finite_duration_is_rejected():
    for duration in (math.nan, math.inf):
        with pytest.raises(ConfigError, match=r"edges\[e1\].spikes\[0\].duration"):
            EdgeSpec("e1", spikes=(LoadSpike(5.0, duration, cpu_add=10.0),))


def test_spike_model_rate_and_ranges_must_be_finite():
    for rate in (math.nan, math.inf, -1.0):
        with pytest.raises(ConfigError, match=r"spike_model\.rate"):
            SpikeModel(rate=rate)
    for bad in ((math.nan, 1.0), (1.0, math.nan), (1.0, math.inf), (2.0, 1.0), (-1.0, 1.0)):
        with pytest.raises(ConfigError, match=r"spike_model\.duration_range"):
            SpikeModel(rate=0.1, duration_range=bad)


def test_yaml_spike_with_nan_start_names_the_edge(tmp_path):
    data = config_to_dict(stress_scenario())
    data["edges"][1]["spikes"] = [{"start": ".nan", "duration": 10.0}]
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(data).replace("'.nan'", ".nan"), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"edges\[e2\].spikes\[0\].start"):
        load_config(path)


def _waypoint(i, v):
    points = [[0.0, 0.0, 0.0], [5.0, 1.0, 1.0]]
    points[1][i] = v
    return RobotSpec("r1", waypoints=tuple(tuple(p) for p in points))


# Every float field of the config, by the name its error gives, with a
# constructor that puts a value there.
FLOAT_FIELDS = {
    "sticky_bonus": lambda v: minimal_config(sticky_bonus=v),
    "decision_period": lambda v: minimal_config(decision_period=v),
    "sample_period": lambda v: minimal_config(sample_period=v),
    "noise_amp": lambda v: minimal_config(noise_amp=v),
    "duration": lambda v: minimal_config(duration=v),
    "nominal_duration": lambda v: minimal_config(nominal_duration=v),
    "exec_model.cpu_per_message": lambda v: ExecModel(cpu_per_message=v),
    "exec_model.task_cpu_cap": lambda v: ExecModel(task_cpu_cap=v),
    "exec_model.base_latency": lambda v: ExecModel(base_latency=v),
    "exec_model.exec_tick": lambda v: ExecModel(exec_tick=v),
    "robots[r1].x": lambda v: RobotSpec("r1", x=v),
    "robots[r1].y": lambda v: RobotSpec("r1", y=v),
    "robots[r1].waypoints[1].t": lambda v: _waypoint(0, v),
    "robots[r1].waypoints[1].x": lambda v: _waypoint(1, v),
    "robots[r1].waypoints[1].y": lambda v: _waypoint(2, v),
    "robots[r1].input_rate": lambda v: RobotSpec("r1", input_rate=v),
    **{f"edges[e1].spikes[0].{name}":
       (lambda v, name=name: EdgeSpec("e1", spikes=(LoadSpike(0.0, 1.0, **{name: v}),)))
       for name in ("cpu_add", "mem_add")},
    **{f"edges[e1].{name}": (lambda v, name=name: EdgeSpec("e1", **{name: v}))
       for name in ("x", "y", "cpu_max", "mem_max", "base_cpu", "base_mem", "capacity_factor")},
    **{f"link.{name}": (lambda v, name=name: LinkModel(**{name: v}))
       for name in ("ref_power_dbm", "ref_distance", "path_loss_exp", "shadow_sigma")},
    **{name: (lambda v, name=name: TaskSpec("merge", **{"mem_footprint": 1.0, name: v}))
       for name in ("mem_footprint", "input_rate", "work_per_message")},
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("label", sorted(FLOAT_FIELDS))
def test_non_finite_float_field_is_rejected_by_name(label, value):
    # A NaN passes every range check, and an infinite period or rate
    # runs to meaningless output or overflows later.
    with pytest.raises(ConfigError, match="^" + re.escape(f"{label} must be finite")):
        FLOAT_FIELDS[label](value)


def test_waypoint_times_must_strictly_increase():
    with pytest.raises(ConfigError, match="strictly increase"):
        RobotSpec("r1", waypoints=((0.0, 0.0, 0.0), (0.0, 1.0, 1.0)))


# ------------------------------------------------------------- waypoints

def test_pose_interpolates_between_waypoints():
    r = RobotSpec("r1", waypoints=((0.0, 0.0, 0.0), (10.0, 4.0, 2.0)))
    assert r.pose_at(-1.0) == (0.0, 0.0)
    assert r.pose_at(5.0) == (2.0, 1.0)
    assert r.pose_at(99.0) == (4.0, 2.0)


def test_static_pose_without_waypoints():
    assert RobotSpec("r1", x=3.0, y=4.0).pose_at(123.0) == (3.0, 4.0)


# ----------------------------------------------------- weights and quota

def test_effective_weights_prefer_explicit_then_preset():
    explicit = minimal_config(weights=Weights(0.2, 0.3, 0.5), scheme="dynamic:cpu")
    assert explicit.effective_weights() == Weights(0.2, 0.3, 0.5)
    preset = minimal_config(scheme="dynamic:cpu")
    assert preset.effective_weights() == WEIGHT_PRESETS["cpu"]
    fixed = minimal_config(scheme="fixed:e1")
    assert fixed.effective_weights() == WEIGHT_PRESETS["both"]


def test_weight_presets_live_on_the_simplex():
    for name, w in WEIGHT_PRESETS.items():
        assert math.isclose(w.w_cpu + w.w_mem + w.w_net, 1.0, abs_tol=1e-9), name


def test_message_quota_uses_the_nominal_horizon():
    cfg = minimal_config(
        task=TaskSpec("merge", mem_footprint=0.0, input_rate=2.0),
        duration=600.0,
        nominal_duration=240.0,
    )
    assert cfg.message_quota(cfg.robots[0]) == 480
    assert cfg.total_quota() == 960


def test_per_robot_rate_overrides_task_rate():
    cfg = minimal_config(
        robots=(RobotSpec("r1", input_rate=0.5), RobotSpec("r2")),
        task=TaskSpec("merge", mem_footprint=0.0, input_rate=2.0),
        duration=100.0,
    )
    assert cfg.message_quota(cfg.robots[0]) == 50
    assert cfg.message_quota(cfg.robots[1]) == 200


# ------------------------------------------------------------ round-trip

@pytest.mark.parametrize("cfg", [stress_scenario(seed=3), flapping_scenario(0.05)])
def test_dict_codec_round_trips(cfg):
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_yaml_file_round_trips(tmp_path):
    cfg = stress_scenario(seed=7, scheme="fixed:e2")
    path = tmp_path / "scenario.yaml"
    dump_config(cfg, path)
    assert load_config(path) == cfg


def test_unknown_keys_are_rejected():
    data = config_to_dict(stress_scenario())
    data["turbo"] = True
    with pytest.raises(ConfigError, match="unknown keys.*turbo"):
        config_from_dict(data)


def test_missing_required_section_is_reported():
    data = config_to_dict(stress_scenario())
    del data["task"]
    with pytest.raises(ConfigError, match="missing required key 'task'"):
        config_from_dict(data)


def test_bad_weight_sum_names_the_field():
    data = config_to_dict(stress_scenario())
    data["weights"] = {"w_cpu": 0.5, "w_mem": 0.4, "w_net": 0.2}
    with pytest.raises(ConfigError, match="weights"):
        config_from_dict(data)


def test_non_mapping_root_is_rejected():
    with pytest.raises(ConfigError, match="config root must be a mapping"):
        config_from_dict(["not", "a", "mapping"])


def test_load_config_rejects_invalid_yaml(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("robots: [unclosed", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(path)


# ------------------------------------------------------- codec pins

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("cfg, name", [
    (stress_scenario(1), "stress.yaml"),
    (flapping_scenario(0.05), "flapping.yaml"),
])
def test_dump_config_writes_the_bundled_preset_byte_for_byte(tmp_path, cfg, name):
    path = tmp_path / name
    dump_config(cfg, path)
    assert path.read_bytes() == (CONFIGS / name).read_bytes()


@settings(max_examples=60, deadline=None)
@given(cfg=scenarios())
def test_random_configs_round_trip_through_dict_and_yaml(cfg):
    data = config_to_dict(cfg)
    assert config_from_dict(data) == cfg
    text = yaml.safe_dump(data, sort_keys=False, default_flow_style=None)
    assert config_from_dict(yaml.safe_load(text)) == cfg


_ABSENT = object()
MUTANTS = [_ABSENT, None, math.nan, math.inf, -1.0, 0.0, 1e9, -85.0, "abc", "1.5",
           [1], {"a": 1}, 7, True, 1.7]


def _positions(node, path=()):
    """Path of every mapping key and list element below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield (*path, key)
        if isinstance(child, (dict, list)):
            yield from _positions(child, (*path, key))


def _mutated(data, path, value):
    data = copy.deepcopy(data)
    *parents, key = path
    node = data
    for step in parents:
        node = node[step]
    if value is _ABSENT:
        del node[key]
    else:
        node[key] = value
    return data


@pytest.mark.parametrize("value", MUTANTS, ids=lambda v: "absent" if v is _ABSENT else repr(v))
def test_every_malformed_value_is_a_config_error(value):
    # Whatever a file puts at any position, the codec either builds a
    # config or says what is wrong: never a raw Python exception.
    raw = []
    for cfg in (stress_scenario(1), flapping_scenario(0.05)):
        data = config_to_dict(cfg)
        for path in _positions(data):
            try:
                config_from_dict(_mutated(data, path, value))
            except ConfigError:
                pass
            except Exception as exc:  # noqa: BLE001 - the test reports them all
                raw.append(f"{path}: {type(exc).__name__}: {exc}")
    assert not raw, f"{len(raw)} raw exceptions, first: {raw[:3]}"
