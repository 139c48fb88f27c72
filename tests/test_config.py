"""Scenario configuration: validation, presets, and file round-trips."""

import math

import pytest
import yaml

from offloadsim.config import (
    EdgeSpec,
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
