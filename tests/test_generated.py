"""Invariants of run_single over small generated scenarios.

The golden runs cover two scenarios at one seed; these run every method for
a few steps on scenarios drawn from a derandomized strategy (so every run of
the suite sees the same examples): one to four sensors that rotate or
translate, up to four targets with staggered births, clutter on or off,
small particle counts, and association limits small enough that clusters
take the ranked (Murty) path.  Every density stage must pass
density_checks, OSPA and OSPA(2) must be finite, and a second call must
give the same result.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from density_checks import DENSITY_STAGES, check_density_stages
from sentrack import filtering
from sentrack.control import ObjectiveParams
from sentrack.filtering import FilterConfig
from sentrack.harness import METHODS, run_single
from sentrack.scenarios import (
    DEG,
    ScenarioConfig,
    SensorSpec,
    TargetSpec,
    compass_actions,
    rotation_actions,
)
from sentrack.sensors import FovModel

STEPS = 4
SEED = 20260810


def small_scenario(sensors, targets, rotating, clutter_mean, particle_count,
                   exact_enum_limit, eta_threshold):
    """A scenario in a 300 m square: sensors is a list of (x, y, bearing),
    targets a list of (x, y, vx, vy, birth)."""
    if rotating:
        fov = FovModel(rho_max=250.0, theta_max=45.0 * DEG, p_d_max=0.95, k_rho=0.5, k_theta=20.0)
        actions = rotation_actions(22.5)
    else:
        fov = FovModel(rho_max=120.0, theta_max=math.pi, p_d_max=0.95, k_rho=0.5, k_theta=20.0)
        actions = compass_actions(15.0)
    return ScenarioConfig(
        name="generated",
        duration=STEPS,
        comm_range=250.0,
        clutter_mean=clutter_mean,
        sensors=tuple(SensorSpec((x, y), b, fov, actions) for x, y, b in sensors),
        targets=tuple(TargetSpec((x, y), (vx, vy), birth) for x, y, vx, vy, birth in targets),
        filter=FilterConfig(
            clutter_intensity=0.0,
            particle_count=particle_count,
            association_gate=40.0,
            max_components=20,
            exact_enum_limit=exact_enum_limit,
            assoc_max_hypotheses=4,
        ),
        objective=ObjectiveParams(eta_threshold=eta_threshold, min_existence=0.05),
    )


coordinate = st.integers(0, 300).map(float)
speed = st.integers(-8, 8).map(float)
bearing = st.integers(-180, 179).map(lambda d: d * DEG)


@st.composite
def scenarios(draw):
    return small_scenario(
        sensors=draw(st.lists(st.tuples(coordinate, coordinate, bearing), min_size=1, max_size=4)),
        targets=draw(st.lists(st.tuples(coordinate, coordinate, speed, speed, st.integers(1, 3)),
                              max_size=4)),
        rotating=draw(st.booleans()),
        clutter_mean=draw(st.sampled_from([0.0, 3.0])),
        particle_count=draw(st.integers(1, 24)),
        exact_enum_limit=draw(st.integers(1, 3)),
        eta_threshold=draw(st.sampled_from([0.0, 50.0, 150.0])),
    )


def comparable(result):
    """The result without its one timing."""
    return dataclasses.replace(result, control_seconds_per_sensor=0.0)


@given(scenarios())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_every_method_runs_valid_finite_and_repeatable(scenario):
    for method in METHODS:
        with pytest.MonkeyPatch.context() as monkeypatch:
            seen = check_density_stages(monkeypatch)
            result = run_single(scenario, method, SEED)
        assert seen["update"] == seen["resample_component"] == len(scenario.sensors) * STEPS
        assert all(seen[f"{name} in"] and seen[f"{name} out"] for name in DENSITY_STAGES)
        assert all(math.isfinite(x) for rec in result.steps for x in (rec.ospa, rec.ospa2))
        assert math.isfinite(result.mean_ospa) and math.isfinite(result.mean_ospa2)
        assert comparable(run_single(scenario, method, SEED)) == comparable(result)


def test_the_strategy_reaches_ranked_association(monkeypatch):
    # the small exact_enum_limit sends a cluster of two targets seen by
    # one sensor, with clutter, down the ranked path
    ranked, original = [], filtering._ranked_marginals
    monkeypatch.setattr(filtering, "_ranked_marginals",
                        lambda *args: ranked.append(1) or original(*args))
    scenario = small_scenario([(150.0, 50.0, 0.0)], [(140.0, 120.0, 0.0, 0.0, 1),
                                                     (160.0, 125.0, 0.0, 0.0, 1)],
                              rotating=False, clutter_mean=3.0, particle_count=8,
                              exact_enum_limit=1, eta_threshold=50.0)
    run_single(scenario, "isc", SEED)
    assert ranked
