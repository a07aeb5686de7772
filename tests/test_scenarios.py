import dataclasses

import pytest

from sentrack.scenarios import (
    build_scenario_1,
    build_scenario_2,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)


@pytest.mark.parametrize("build", [build_scenario_1, build_scenario_2])
def test_yaml_round_trip(build, tmp_path):
    cfg = build()
    path = tmp_path / "scenario.yaml"
    save_scenario(cfg, path)
    assert load_scenario(path) == cfg


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

    def test_smallest_valid_existence_floors_accepted(self):
        d = scenario_to_dict(build_scenario_1())
        d["fusion"]["estimate_floor"] = 0.0
        d["objective"]["min_existence"] = 0.0
        cfg = scenario_from_dict(d)
        assert cfg.fusion.estimate_floor == 0.0 and cfg.objective.min_existence == 0.0


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

    def test_truth_tracks_default_to_scenario_duration(self):
        cfg = build_scenario_1()
        tracks = cfg.truth_tracks()
        assert max(max(track) for track in tracks.values()) == cfg.duration
        assert tracks == cfg.truth_tracks(cfg.duration)
