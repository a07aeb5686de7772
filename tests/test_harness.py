import dataclasses

import pytest

from sentrack.harness import run_single
from sentrack.scenarios import build_scenario_1


@pytest.mark.parametrize("duration", [0, -1])
def test_run_single_rejects_duration_below_one(duration):
    # 0 used to run the whole scenario and -1 no step at all (NaN means)
    with pytest.raises(ValueError, match="duration"):
        run_single(build_scenario_1(), "isc", seed=1, duration=duration)


def test_run_single_defaults_to_scenario_duration():
    scenario = dataclasses.replace(build_scenario_1(), duration=2)
    result = run_single(scenario, "fixed", seed=1)
    assert [rec.step for rec in result.steps] == [1, 2]
