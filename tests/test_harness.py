import dataclasses

import pytest

from sentrack.harness import ControlContext, run_single
from sentrack.scenarios import build_scenario_1, build_scenario_2


@pytest.mark.parametrize("duration", [0, -1])
def test_run_single_rejects_duration_below_one(duration):
    # 0 used to run the whole scenario and -1 no step at all (NaN means)
    with pytest.raises(ValueError, match="duration"):
        run_single(build_scenario_1(), "isc", seed=1, duration=duration)


def test_run_single_defaults_to_scenario_duration():
    scenario = dataclasses.replace(build_scenario_1(), duration=2)
    result = run_single(scenario, "fixed", seed=1)
    assert [rec.step for rec in result.steps] == [1, 2]


@pytest.mark.parametrize("scenario", [1, 2])
@pytest.mark.parametrize("method", ["dcd", "fdcd"])
def test_fused_evaluations_stay_in_range(monkeypatch, scenario, method):
    # wrap ControlContext.fused where the harness looks it up, as the
    # benchmark tracer does, and check every evaluation of a golden run
    original = ControlContext.__dict__["fused"]
    seen = []

    def checked(ctx, command):
        fe = original(ctx, command)
        params = ctx.params
        assert all(0.0 <= r <= 1.0 for r in fe.existences.values())
        assert 0.0 <= fe.psi <= 1.0
        assert fe.feasible == (fe.psi > params.psi_threshold and fe.eta > params.eta_threshold)
        seen.append(fe.feasible)
        return fe

    monkeypatch.setattr(ControlContext, "fused", checked)
    build = build_scenario_1 if scenario == 1 else build_scenario_2
    run_single(build(), method, seed=20260810, duration=8)
    assert seen and any(seen)
