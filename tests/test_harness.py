import dataclasses
from collections import Counter

import numpy as np
import pytest

from sentrack import harness
from sentrack.harness import METHODS, ControlContext, run_single
from sentrack.network import message_cost
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


def test_fdcd_messages_follow_the_descent_turns(monkeypatch):
    # per component: the initial round in id order, one pseudo-posterior per
    # turn, then the final command's flood-out from the sensor of the last
    # turn; from step 10 on, this run's descents take more than one turn
    original = harness.run_flooded_descent
    blocks = []

    def recorded(participants, *args):
        outcome = original(participants, *args)
        blocks.append((participants, outcome.turns))
        return outcome

    monkeypatch.setattr(harness, "run_flooded_descent", recorded)
    scenario = build_scenario_2()
    result = run_single(scenario, "fdcd", seed=20260810, duration=12)
    n = len(scenario.sensors)
    by_step = {}
    for entry in result.comm_entries:
        by_step.setdefault(entry.step, []).append(entry)
    # each step ends with the n posterior messages of the update
    control = [e for rec in result.steps for e in by_step[rec.step][:-n]]
    at = 0
    for participants, turns in blocks:
        initial = control[at : at + len(participants)]
        assert [e.origin for e in initial] == list(participants)
        size = {e.origin: e.bytes for e in initial}
        rest = control[at + len(participants) : at + len(participants) + len(turns) + 1]
        assert [e.origin for e in rest] == [*turns, turns[-1]]
        assert [e.bytes for e in rest] == [size[s] for s in turns] + [message_cost(0)]
        at += len(participants) + len(turns) + 1
    assert at == len(control) and any(len(turns) > 1 for _, turns in blocks)


def _equal_rows(a, rows_a, b, rows_b):
    if not a.existences[rows_a].size:  # an empty density has no particle count to compare
        return
    np.testing.assert_array_equal(a.existences[rows_a], b.existences[rows_b])
    np.testing.assert_array_equal(a.states[rows_a], b.states[rows_b])
    np.testing.assert_array_equal(a.weights[rows_a], b.weights[rows_b])


@pytest.mark.parametrize("scenario,method", [(n, m) for n in (1, 2) for m in METHODS])
def test_every_density_stays_valid(monkeypatch, scenario, method):
    # wrap the density stages where the harness looks them up, as the
    # benchmark tracer does, and check every result of a golden run
    seen = Counter()

    def wrap(name, check):
        original = harness.__dict__[name]

        def checked(*args, **kwargs):
            result = check(original, *args, **kwargs)
            for density in result.values() if isinstance(result, dict) else [result]:
                density.validate()
            seen[name] += 1
            return result

        monkeypatch.setattr(harness, name, checked)

    def plain(original, *args, **kwargs):
        return original(*args, **kwargs)

    def update(original, predicted, *args, **kwargs):
        post = original(predicted, *args, **kwargs)
        k = len(predicted.labels)
        passed = post.passed_through
        assert post.labels[:k] == predicted.labels and not passed[k:].any()
        _equal_rows(post, np.flatnonzero(passed), predicted, np.flatnonzero(passed[:k]))
        seen["passed rows"] += int(passed.sum())
        return post

    def resample(original, density, count, rng):
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        out = original(density, count, rng)
        passed = density.passed_through
        assert out.labels == density.labels and out.passed_through is None
        _equal_rows(out, passed, density, passed)
        assert np.all(out.weights[~passed] == 1.0 / count)
        # one offset per resampled row, none for a row passed through
        replay.random(int(np.count_nonzero(~passed)))
        assert replay.bit_generator.state == rng.bit_generator.state
        return out

    for name in ("predict", "prune", "associate_labels", "fuse_lmb"):
        wrap(name, plain)
    wrap("update", update)
    wrap("resample_component", resample)
    build = build_scenario_1 if scenario == 1 else build_scenario_2
    run_single(build(), method, seed=20260810, duration=8)
    assert seen["update"] == seen["resample_component"] > 0 and seen["passed rows"] > 0
    assert all(seen[name] for name in ("predict", "prune", "associate_labels", "fuse_lmb"))


@pytest.mark.parametrize("scenario", [1, 2])
def test_labels_below_reach_skip_fusion_without_changing_results(monkeypatch, scenario):
    # fusing every label, as with no pre-filter, must give the same records
    build = build_scenario_1 if scenario == 1 else build_scenario_2
    fused_rows = Counter()
    original = harness.__dict__["fuse_lmb"]

    def counted(locals_, active, key):
        fused = original(locals_, active)
        fused_rows[key] += len(fused.labels)
        return fused

    monkeypatch.setattr(harness, "fuse_lmb", lambda *a: counted(*a, "filtered"))
    filtered = run_single(build(), "fixed", seed=20260810, duration=8)
    monkeypatch.setattr(harness, "fuse_lmb", lambda *a: counted(*a, "all"))
    # odds so large that every label reaches the floor switch the pre-filter off
    monkeypatch.setattr(harness, "existence_odds", lambda r: np.full(len(r), 1e300))
    everything = run_single(build(), "fixed", seed=20260810, duration=8)
    assert filtered.steps == everything.steps
    assert fused_rows["filtered"] < fused_rows["all"]
