import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from sentrack import scenarios
from sentrack.control import ObjectiveParams
from sentrack.filtering import FilterConfig
from sentrack.fusion import FusionConfig
from sentrack.scenarios import (
    MetricConfig,
    MonteCarloConfig,
    ScenarioConfig,
    SensorSpec,
    TargetSpec,
    build_scenario_1,
    build_scenario_2,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from sentrack.sensors import FovModel, MotionModel, SensorAction

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEG = math.pi / 180.0


@pytest.mark.parametrize("build", [build_scenario_1, build_scenario_2])
def test_yaml_round_trip(build, tmp_path):
    cfg = build()
    path = tmp_path / "scenario.yaml"
    save_scenario(cfg, path)
    assert load_scenario(path) == cfg


class TestFileFormat:
    """The keys and values of a scenario file, pinned apart from the writer:
    the other tests start from scenario_to_dict, so a key renamed in both
    the reader and the writer would pass them.  The fixtures were written
    by save_scenario; write them again only for a change to the format."""

    @pytest.mark.parametrize("number,build", [(1, build_scenario_1), (2, build_scenario_2)])
    def test_built_in_scenario_matches_fixture(self, number, build):
        path = GOLDEN_DIR / f"scenario-{number}.yaml"
        # compared as mappings: the order of the keys is not part of the format
        assert scenario_to_dict(build()) == yaml.safe_load(path.read_text())
        assert load_scenario(path) == build()

    def test_literal_file_loads(self, tmp_path):
        path = tmp_path / "literal.yaml"
        path.write_text(
            """\
name: literal
duration: 5
comm_range: 250
clutter_mean: 2.5
sensors:
  - position: [0, 10]
    bearing_deg: 90
    fov: {rho_max: 300, theta_max_deg: 45, p_d_max: 0.9, k_rho: 0.5, k_theta: 20}
    actions:
      - {}
      - {rotate_deg: 22.5}
      - {move: [15, -5]}
targets:
  - position: [1, 2]
    velocity: [3, 4]
  - {position: [-1, -2], velocity: [0, 0.5], birth: 3, death: 7}
motion: {period: 2.0}
filter: {particle_count: 100, existence_floor: 0.001}
objective: {psi_threshold: 0.5}
fusion: {merge_distance: 10}
metric: {ospa2_window: 4}
monte_carlo: {runs: 3, base_seed: 7}
"""
        )
        fov = FovModel(rho_max=300.0, theta_max=45.0 * DEG, p_d_max=0.9, k_rho=0.5, k_theta=20.0)
        actions = (SensorAction(), SensorAction(rotation=22.5 * DEG), SensorAction(dx=15.0, dy=-5.0))
        assert load_scenario(path) == ScenarioConfig(
            name="literal",
            duration=5,
            comm_range=250.0,
            clutter_mean=2.5,
            sensors=(SensorSpec(position=(0.0, 10.0), bearing=90.0 * DEG, fov=fov, actions=actions),),
            targets=(
                TargetSpec(position=(1.0, 2.0), velocity=(3.0, 4.0)),
                TargetSpec(position=(-1.0, -2.0), velocity=(0.0, 0.5), birth=3, death=7),
            ),
            motion=MotionModel(period=2.0),
            filter=FilterConfig(clutter_intensity=0.0, particle_count=100, existence_floor=0.001),
            objective=ObjectiveParams(psi_threshold=0.5),
            fusion=FusionConfig(merge_distance=10.0),
            metric=MetricConfig(ospa2_window=4),
            monte_carlo=MonteCarloConfig(runs=3, base_seed=7),
        )


class TestRejectedAtLoad:
    def test_empty_sensor_list(self):
        with pytest.raises(ValueError, match="at least one sensor"):
            dataclasses.replace(build_scenario_1(), sensors=())

    def test_stay_action_must_come_first(self):
        spec = build_scenario_2().sensors[0]
        with pytest.raises(ValueError, match="stay action"):
            dataclasses.replace(spec, actions=spec.actions[1:] + spec.actions[:1])
        with pytest.raises(ValueError, match="stay action"):
            dataclasses.replace(spec, actions=())

    def test_stay_action_checked_in_files(self):
        d = scenario_to_dict(build_scenario_1())
        actions = d["sensors"][3]["actions"]
        actions.append(actions.pop(0))
        with pytest.raises(ValueError, match="stay action"):
            scenario_from_dict(d)

    @pytest.mark.parametrize(
        "path,section",
        [
            ((), "top level"),
            (("sensors", 0, "actions", 0), "sensors[0].actions[0]"),
            (("sensors", 1), "sensors[1]"),
            (("sensors", 1, "fov"), "sensors[1].fov"),
            (("sensors", 1, "actions", 2), "sensors[1].actions[2]"),
            (("targets", 4), "targets[4]"),
            (("motion",), "motion"),
            (("filter",), "filter"),
            (("objective",), "objective"),
            (("fusion",), "fusion"),
            (("metric",), "metric"),
            (("monte_carlo",), "monte_carlo"),
        ],
    )
    def test_unknown_key_names_section_and_key(self, path, section):
        d = scenario_to_dict(build_scenario_1())
        node = d
        for key in path:
            node = node[key]
        node["bogus"] = 1
        with pytest.raises(ValueError) as err:
            scenario_from_dict(d)
        assert "'bogus'" in str(err.value)
        assert repr(section) in str(err.value)
        # an integer key next to a string one: the two do not compare
        node[1] = 1
        with pytest.raises(ValueError) as err:
            scenario_from_dict(d)
        assert str(err.value) == f"unknown key 'bogus', 1 in scenario section {section!r}"

    @pytest.mark.parametrize("key,value", [("period", 2.0), ("arena", {"x": [0, 1]})])
    def test_removed_top_level_keys_rejected(self, key, value):
        # the step period is motion.period; the arena was never read
        d = scenario_to_dict(build_scenario_1())
        del d["motion"]
        d[key] = value
        with pytest.raises(ValueError) as err:
            scenario_from_dict(d)
        assert repr(key) in str(err.value) and "'top level'" in str(err.value)

    def test_derived_clutter_intensity_not_settable(self):
        d = scenario_to_dict(build_scenario_1())
        d["filter"]["clutter_intensity"] = 1e-3
        with pytest.raises(ValueError, match="clutter_intensity"):
            scenario_from_dict(d)

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("metric", "ospa_cutoff", 0.0),
            ("metric", "ospa_cutoff", -5.0),
            ("metric", "ospa_order", 0.5),
            ("metric", "ospa2_window", 0),
            ("monte_carlo", "runs", 0),
        ],
    )
    def test_out_of_range_metric_settings(self, section, key, value):
        d = scenario_to_dict(build_scenario_1())
        d[section][key] = value
        with pytest.raises(ValueError, match=key):
            scenario_from_dict(d)

    def test_smallest_valid_metric_settings_accepted(self):
        d = scenario_to_dict(build_scenario_1())
        d["metric"].update(ospa_cutoff=1e-6, ospa_order=1.0, ospa2_window=1)
        d["monte_carlo"]["runs"] = 1
        cfg = scenario_from_dict(d)
        assert cfg.metric.ospa2_window == 1 and cfg.monte_carlo.runs == 1

    @pytest.mark.parametrize(
        "section,key", [("fusion", "estimate_floor"), ("objective", "min_existence")]
    )
    @pytest.mark.parametrize("value", [-0.1, 1.0])
    def test_existence_floors_outside_unit_interval(self, section, key, value):
        # prune takes a floor in [0, 1); a scenario must not load with another
        d = scenario_to_dict(build_scenario_1())
        d[section][key] = value
        with pytest.raises(ValueError, match=key):
            scenario_from_dict(d)

    @pytest.mark.parametrize(
        "path,key,value",
        [
            (("motion",), "process_noise_std", -1.0),
            ((), "clutter_mean", -1.0),
            (("monte_carlo",), "base_seed", -1),
            (("objective",), "psi_threshold", -0.1),
            (("objective",), "psi_threshold", 1.0),
            (("objective",), "eta_threshold", -1.0),
            (("objective",), "penalty_lambda", 0.5),
            (("filter",), "particle_count", 0),
            (("sensors", 1, "fov"), "p_d_threshold", -0.1),
            (("sensors", 1, "fov"), "p_d_threshold", 1.0),
        ],
    )
    def test_out_of_range_value_names_key(self, path, key, value):
        # each used to load, then run with it or fail mid-run
        d = scenario_to_dict(build_scenario_2())
        node = d
        for k in path:
            node = node[k]
        node[key] = value
        with pytest.raises(ValueError, match=key):
            scenario_from_dict(d)

    def test_smallest_valid_thresholds_accepted(self):
        d = scenario_to_dict(build_scenario_2())
        d["motion"]["process_noise_std"], d["clutter_mean"] = 0.0, 0.0
        d["monte_carlo"]["base_seed"] = 0
        d["objective"].update(psi_threshold=0.0, eta_threshold=0.0)
        d["sensors"][1]["fov"]["p_d_threshold"] = 0.0
        cfg = scenario_from_dict(d)
        assert cfg.sensors[1].fov.p_d_threshold == 0.0 and cfg.monte_carlo.base_seed == 0

    @pytest.mark.parametrize(
        "path,key,section",
        [
            ((), "sensors", "top level"),
            ((), "targets", "top level"),
            ((), "duration", "top level"),
            (("sensors", 1), "position", "sensors[1]"),
            (("sensors", 1), "actions", "sensors[1]"),
            (("sensors", 2, "fov"), "rho_max", "sensors[2].fov"),
            (("targets", 3), "velocity", "targets[3]"),
        ],
    )
    def test_missing_key_names_section_and_key(self, path, key, section):
        d = scenario_to_dict(build_scenario_1())
        node = d
        for k in path:
            node = node[k]
        del node[key]
        with pytest.raises(ValueError) as err:
            scenario_from_dict(d)
        assert "missing" in str(err.value)
        assert repr(key) in str(err.value) and repr(section) in str(err.value)

    def test_optional_keys_may_be_missing(self):
        d = scenario_to_dict(build_scenario_1())
        for key in ("name", "motion", "filter", "objective", "fusion", "metric", "monte_carlo"):
            del d[key]
        del d["sensors"][0]["fov"]["p_d_threshold"]
        del d["sensors"][0]["actions"][1]["move"]
        del d["targets"][0]["birth"]
        assert scenario_from_dict(d).name == "custom"

    @pytest.mark.parametrize("document", [None, [], "sensors", 3])
    def test_document_that_is_not_a_mapping(self, document):
        with pytest.raises(ValueError, match="'top level' must be a mapping"):
            scenario_from_dict(document)

    def test_section_that_is_not_a_mapping(self):
        d = scenario_to_dict(build_scenario_1())
        d["sensors"][0]["fov"] = None
        with pytest.raises(ValueError, match=r"'sensors\[0\]\.fov' must be a mapping"):
            scenario_from_dict(d)

    @pytest.mark.parametrize(
        "path,key",
        [(("sensors", 0), "position"), (("targets", 2), "position"),
         (("targets", 2), "velocity"), (("sensors", 1, "actions", 1), "move")],
    )
    @pytest.mark.parametrize("value", [[1.0], [1.0, 2.0, 3.0], 5.0, None, ["a", 1.0], "12"])
    def test_pair_that_is_not_two_numbers(self, path, key, value):
        d = scenario_to_dict(build_scenario_1())
        node = d
        for k in path:
            node = node[k]
        node[key] = value
        with pytest.raises(ValueError) as err:
            scenario_from_dict(d)
        assert f"{key!r}" in str(err.value) and "two numbers" in str(err.value)

    @pytest.mark.parametrize(
        "path,key,value,section",
        [
            ((), "name", None, "top level"),
            ((), "sensors", None, "top level"),
            ((), "targets", None, "top level"),
            ((), "sensors", {"position": [0, 0]}, "top level"),
            ((), "duration", None, "top level"),
            ((), "duration", 2.5, "top level"),
            ((), "comm_range", "far", "top level"),
            (("sensors", 0), "actions", None, "sensors[0]"),
            (("sensors", 0), "bearing_deg", None, "sensors[0]"),
            (("sensors", 1, "fov"), "rho_max", None, "sensors[1].fov"),
            (("sensors", 1, "fov"), "p_d_threshold", True, "sensors[1].fov"),
            (("sensors", 1, "actions", 1), "rotate_deg", "left", "sensors[1].actions[1]"),
            (("targets", 2), "birth", None, "targets[2]"),
            (("targets", 2), "death", "40", "targets[2]"),
            (("motion",), "period", None, "motion"),
            (("monte_carlo",), "runs", None, "monte_carlo"),
            (("objective",), "epsilon", "x", "objective"),
            (("filter",), "particle_count", 1.5, "filter"),
            (("metric",), "ospa2_window", 10.0, "metric"),
            (("fusion",), "merge_distance", [25.0], "fusion"),
        ],
    )
    def test_null_or_wrongly_typed_value_names_section_and_key(self, path, key, value, section):
        d = scenario_to_dict(build_scenario_1())
        node = d
        for k in path:
            node = node[k]
        node[key] = value
        with pytest.raises(ValueError) as err:
            scenario_from_dict(d)
        assert f"{key!r} in scenario section {section!r} must be" in str(err.value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "path,key,section",
        [
            ((), "comm_range", "top level"),
            ((), "clutter_mean", "top level"),
            (("filter",), "association_gate", "filter"),
            (("filter",), "meas_noise_std", "filter"),
            (("sensors", 0, "fov"), "rho_max", "sensors[0].fov"),
            (("motion",), "period", "motion"),
            (("objective",), "exclusion_radius", "objective"),
            (("metric",), "ospa_cutoff", "metric"),
            (("targets", 0), "position", "targets[0]"),
        ],
    )
    def test_non_finite_in_a_file_names_section_and_key(self, tmp_path, path, key, section, value):
        # range checks such as comm_range <= 0 let NaN and infinities
        # through: the run then isolated every sensor, moved OSPA, stopped
        # mid-way (clutter_mean, ospa_cutoff) or gave no estimate (period)
        d = scenario_to_dict(build_scenario_1())
        node = d
        for k in path:
            node = node[k]
        node[key] = [value, 1000.0] if key == "position" else value
        file = tmp_path / "scenario.yaml"
        file.write_text(yaml.safe_dump(d))
        assert {"nan": ".nan", "inf": ".inf", "-inf": "-.inf"}[repr(value)] in file.read_text()
        with pytest.raises(ValueError) as err:
            load_scenario(file)
        message = str(err.value)
        number = "two numbers" if key == "position" else "a number"
        assert f"{key!r} in scenario section {section!r} must be {number}, not " in message
        assert repr(value) in message and "\n" not in message

    @pytest.mark.parametrize(
        "line,repeat",
        [
            ("comm_range: 800.0", "comm_range: 50.0"),
            ("  particle_count: 500", "  particle_count: 20"),
            ("  particle_count: 500", "  particle_count: 500"),
            ("    rho_max: 500.0", "    rho_max: 9.0"),
        ],
    )
    def test_repeated_key_in_a_file_names_file_key_and_line(self, tmp_path, line, repeat):
        # the YAML reader kept the last value, so the file ran with the repeat
        file = tmp_path / "scenario.yaml"
        save_scenario(build_scenario_1(), file)
        lines = file.read_text().splitlines()
        at = lines.index(line) + 1
        file.write_text("\n".join(lines[:at] + [repeat] + lines[at:]) + "\n")
        with pytest.raises(ValueError) as err:
            load_scenario(file)
        key = line.split(":")[0].strip()
        assert str(err.value) == (f"scenario file {str(file)!r} is not valid YAML: "
                                  f"key {key!r} repeated on line {at + 1}")

    def test_a_key_may_override_a_merged_one(self, tmp_path):
        # a << merge is no repeat: the mapping's own key wins, as YAML says
        d = scenario_to_dict(build_scenario_2())
        del d["motion"]
        file = tmp_path / "scenario.yaml"
        file.write_text(yaml.safe_dump(d, sort_keys=False) + (
            "motion:\n"
            "  <<: {period: 1.0, process_noise_std: 9.0, survival_probability: 0.95}\n"
            "  process_noise_std: 1.0\n"))
        assert load_scenario(file) == build_scenario_2()

    def test_integers_load_as_numbers(self):
        d = scenario_to_dict(build_scenario_1())
        d["motion"]["period"], d["sensors"][0]["bearing_deg"], d["comm_range"] = 2, 45, 800
        cfg = scenario_from_dict(d)
        values = (cfg.motion.period, cfg.sensors[0].bearing, cfg.comm_range)
        assert all(type(v) is float for v in values) and cfg.motion.period == 2.0

    def test_every_config_field_type_is_checked(self):
        for cls in (MotionModel, FilterConfig, ObjectiveParams, FusionConfig, MetricConfig,
                    MonteCarloConfig):
            assert {f.type for f in dataclasses.fields(cls)} <= set(scenarios._KINDS)

    def test_smallest_valid_existence_floors_accepted(self):
        d = scenario_to_dict(build_scenario_1())
        d["fusion"]["estimate_floor"] = 0.0
        d["objective"]["min_existence"] = 0.0
        cfg = scenario_from_dict(d)
        assert cfg.fusion.estimate_floor == 0.0 and cfg.objective.min_existence == 0.0


def test_building_a_scenario_imports_no_yaml():
    # PyYAML is read by the file forms alone; a fresh process shows what
    # importing the harness and building a scenario load
    src = str(Path(scenarios.__file__).resolve().parents[1])
    code = ("import sys, sentrack.harness; from sentrack.scenarios import build_scenario_2; "
            "build_scenario_2(); print(sorted(m for m in sys.modules if m.split('.')[0] == 'yaml'))")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "[]"


class TestStepPeriod:
    def test_truth_moves_by_motion_period(self):
        d = scenario_to_dict(build_scenario_1())
        d["motion"]["period"] = 2.0
        cfg = scenario_from_dict(d)
        t = cfg.targets[0]
        # two steps after birth at 2 s per step
        x, y = cfg.truth_position(0, t.birth + 2)
        assert x == pytest.approx(t.position[0] + 4.0 * t.velocity[0])
        assert y == pytest.approx(t.position[1] + 4.0 * t.velocity[1])

    @pytest.mark.parametrize("duration", [0, -1])
    def test_truth_tracks_reject_duration_below_one(self, duration):
        with pytest.raises(ValueError, match="duration"):
            build_scenario_1().truth_tracks(duration)

    def test_truth_tracks_end_at_the_given_duration(self):
        cfg = build_scenario_1()
        for duration in (cfg.duration, 7):
            tracks = cfg.truth_tracks(duration)
            assert max(max(track) for track in tracks.values()) == duration
