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
            (("arena",), "arena"),
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
