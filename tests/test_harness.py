import dataclasses
import gc
import json
import weakref
from collections import Counter

import numpy as np
import pytest

from density_checks import validate
from sentrack import fusion, harness
from sentrack.fusion import existence_odds
from sentrack.harness import METHODS, ControlContext, run_single
from sentrack.lmb import LmbDensity, prune
from sentrack.metrics import ospa2
from sentrack.network import CommLogEntry, message_cost
from sentrack.scenarios import build_scenario_1, build_scenario_2


@pytest.mark.parametrize("duration", [0, -1])
def test_run_single_rejects_duration_below_one(duration):
    # 0 used to run the whole scenario and -1 no step at all (NaN means)
    with pytest.raises(ValueError, match="duration"):
        run_single(build_scenario_1(), "isc", seed=1, duration=duration)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("dcd_runs", [0, -3])
def test_run_single_rejects_dcd_runs_below_one(monkeypatch, method, dcd_runs):
    # checked before step 1 for every method; only dcd used to check it,
    # inside the first control step, as "runs"
    monkeypatch.setattr(harness, "predict", None)
    with pytest.raises(ValueError, match="^dcd_runs must be >= 1$"):
        run_single(build_scenario_1(), method, seed=1, dcd_runs=dcd_runs)


@pytest.mark.parametrize("method", ["dcd", "fdcd"])
def test_one_topology_per_move_read_by_the_next_control_step(monkeypatch, method):
    built = []
    build = harness.build_topology
    monkeypatch.setattr(harness, "build_topology", lambda *args: built.append(build(*args)) or built[-1])
    select = harness._select_commands

    def checked(method, scenario, cache, topology, *rest):
        assert topology is built[-1]
        poses = {s: (after[0].x, after[0].y) for s, after in cache.after.items()}
        assert topology == build(poses, scenario.comm_range)
        return select(method, scenario, cache, topology, *rest)

    monkeypatch.setattr(harness, "_select_commands", checked)
    result = run_single(build_scenario_2(), method, seed=3, duration=4)
    assert len(built) == 4 + 1
    assert any(rec.commands != result.steps[0].commands for rec in result.steps)


def test_sensor_with_empty_prediction_and_no_measurements_is_resampled():
    # at this seed a sensor predicts no target and measures nothing at step
    # 1; resampling its empty posterior used to fail to broadcast
    result = run_single(build_scenario_1(), "dcd", 222222, duration=1)
    assert [rec.step for rec in result.steps] == [1]


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
    # benchmark tracer does, and check every density of a golden run that
    # goes in or comes out: each is valid and lists its labels in ascending
    # order, which association's single path relies on to keep row order
    seen = Counter()

    def in_label_order(values, where):
        """The densities among values and the values of dicts among them,
        each checked to list its labels in ascending order."""
        found = [d for v in values for d in (v.values() if isinstance(v, dict) else [v])
                 if isinstance(d, LmbDensity)]
        for density in found:
            assert list(density.labels) == sorted(density.labels), where
        seen[where] += len(found)
        return found

    def wrap(name, check):
        original = harness.__dict__[name]

        def checked(*args, **kwargs):
            in_label_order([*args, *kwargs.values()], f"{name} in")
            result = check(original, *args, **kwargs)
            for density in in_label_order([result], f"{name} out"):
                validate(density)
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
    stages = ("predict", "update", "resample_component", "prune", "associate_labels", "fuse_lmb")
    assert all(seen[f"{name} in"] and seen[f"{name} out"] for name in stages)


@pytest.mark.parametrize("scenario", [1, 2])
def test_labels_below_reach_skip_fusion_without_changing_results(monkeypatch, scenario):
    # no label below the reporting floor reaches fuse_spatial, and the
    # records equal those of fusing every label and pruning to the floor
    build = build_scenario_1 if scenario == 1 else build_scenario_2
    floor = build().fusion.estimate_floor
    spatial = Counter()
    original_spatial, original_fuse = fusion.fuse_spatial, harness.fuse_lmb

    def counted(key):
        def fuse_spatial(components, *args):
            # fuse_lmb's existence rule: the contributors' odds add, in order
            total = sum(existence_odds(np.array([c.existence for c in components])).tolist())
            spatial[key, total / (1.0 + total) >= floor] += 1
            return original_spatial(components, *args)

        return fuse_spatial

    def pruned(locals_, active, floor):
        fused = original_fuse(locals_, active, 0.0)
        return prune(fused, floor, len(fused.labels) or 1)

    monkeypatch.setattr(fusion, "fuse_spatial", counted("floor"))
    floored = run_single(build(), "fixed", seed=20260810, duration=8)
    monkeypatch.setattr(fusion, "fuse_spatial", counted("all"))
    monkeypatch.setattr(harness, "fuse_lmb", pruned)
    everything = run_single(build(), "fixed", seed=20260810, duration=8)
    assert floored.steps == everything.steps
    assert spatial["floor", False] == 0 and spatial["floor", True] > 0
    assert spatial["all", False] > 0


def test_ospa2_of_shared_histories_equals_per_sensor_scoring(monkeypatch):
    # at half the comm range scenario 2 splits into 2 to 6 components per
    # step, so groups of sensors split, take copies of their histories and
    # later share a component with differing histories; each step's OSPA(2)
    # must have the bits of scoring every sensor's own history
    base = build_scenario_2()
    scenario = dataclasses.replace(base, comm_range=0.5 * base.comm_range)
    n, steps, metric = len(scenario.sensors), 20, scenario.metric
    calls = []
    fuse = harness._fuse_and_estimate

    def recorded(scenario, members, *args):
        estimates = fuse(scenario, members, *args)
        calls.append((members, estimates))
        return estimates

    monkeypatch.setattr(harness, "_fuse_and_estimate", recorded)
    result = run_single(scenario, "isc", seed=20260810, duration=steps)

    truth_tracks = scenario.truth_tracks(steps)
    est_tracks = [dict() for _ in range(n)]
    components, mixed = [], 0
    for rec in result.steps:
        step, total, step_calls = rec.step, 0.0, []
        # the components of a step cover every sensor once
        while sum(len(members) for members, _ in step_calls) < n:
            step_calls.append(calls.pop(0))
        for members, estimates in step_calls:
            mixed += any(est_tracks[s] != est_tracks[members[0]] for s in members)
            for s in members:
                for label, state in estimates:
                    est_tracks[s].setdefault(label, {})[step] = tuple(state[:2])
                total += ospa2(truth_tracks, est_tracks[s], metric.ospa_cutoff, metric.ospa_order,
                               min(metric.ospa2_window, step), step)
        assert (total / n).hex() == rec.ospa2.hex()
        components.append(len(step_calls))
    assert not calls
    assert min(components) >= 2 and max(components) > 2 and mixed > 0


@pytest.mark.parametrize("scenario,method", [(1, "dcd"), (2, "fdcd"), (2, "isc")])
def test_each_step_frees_its_particles_after_their_last_reader(monkeypatch, scenario, method):
    # weakrefs taken inside the harness names, with the cycle collector off,
    # so only what run_single still holds is alive: when step k+1's predict
    # runs, step k's PseudoCache and the posteriors that step k's predict
    # read are gone (those already when step k's cache is built), and when
    # step k's associate_labels runs, none of step k's predicted densities
    # is; each density's states array goes with it, so no stage's result
    # that shares the array keeps it
    read, predicted, caches, checked = {}, {}, {}, Counter()
    original_predict, original_cache = harness.predict, harness.PseudoCache
    original_associate = harness.associate_labels

    def alive(refs):
        return [ref for ref in refs if ref() is not None]

    def predict(prior, *args):
        step = prior.timestamp + 1
        assert not alive(caches.get(step - 1, [])) and not alive(read.get(step - 1, []))
        out = original_predict(prior, *args)
        read.setdefault(step, []).extend([weakref.ref(prior), weakref.ref(prior.states)])
        predicted.setdefault(step, []).extend([weakref.ref(out), weakref.ref(out.states)])
        checked["predict"] += 1
        return out

    def cache(densities, *args):
        [step] = {d.timestamp for d in densities.values()}
        assert len(read[step]) == 2 * len(densities) and not alive(read[step])
        out = original_cache(densities, *args)
        caches.setdefault(step, []).append(weakref.ref(out))
        return out

    def associate_labels(posteriors, *args, current_step):
        assert len(predicted[current_step]) == 2 * len(posteriors)
        assert not alive(predicted[current_step])
        checked["associate_labels"] += 1
        return original_associate(posteriors, *args, current_step=current_step)

    monkeypatch.setattr(harness, "predict", predict)
    monkeypatch.setattr(harness, "PseudoCache", cache)
    monkeypatch.setattr(harness, "associate_labels", associate_labels)
    build = build_scenario_1 if scenario == 1 else build_scenario_2
    steps, n = 6, len(build().sensors)
    gc.disable()
    try:
        run_single(build(), method, seed=20260810, duration=steps)
    finally:
        gc.enable()
    assert checked == {"predict": steps * n, "associate_labels": steps}
    assert all(len(caches[step]) == 1 for step in range(1, steps + 1))


def test_export_results_writes_the_pinned_csv_format(tmp_path):
    # two methods (not in name order) of two runs of two steps: every
    # column, in order, floats by repr, rows by method, run and step, and
    # the cardinality trace as the mean over runs, so a renamed or
    # reordered column or row fails here
    def run(method, index, card_est, ospa, comm):
        steps = [
            harness.StepRecord(1, 2, card_est[0], ospa[0], 0.1, 60, 3, (0, 1), [1, 2]),
            harness.StepRecord(2, 3, card_est[1], ospa[1], 0.30000000000000004, 44, 0, (2, 0), [2]),
        ]
        control = 0.5 / (1 + index)
        return harness.RunResult(method, index, 17 + index, steps, 10.125 + index, 0.2, control, comm)

    results = [
        harness.MonteCarloResult("fdcd", [
            run("fdcd", 0, (0.1, 2.0), (12.25, 8.0),
                [CommLogEntry(1, 0, 0, 36, 1), CommLogEntry(2, 1, 1, 44, 2)]),
            run("fdcd", 1, (0.2, 0.2), (4.0, 6.5), [CommLogEntry(1, 1, 0, 36, 0)]),
        ]),
        harness.MonteCarloResult("dcd", [
            run("dcd", 0, (1.0, 3.0), (7.5, 9.0), []),
            run("dcd", 1, (2.0, 2.5), (1.0, 2.0), [CommLogEntry(2, 0, 0, 44, 3)]),
        ]),
    ]
    paths = harness.export_results(results, tmp_path)
    expected = {
        "runs": (
            "method,run,seed,mean_ospa,mean_ospa2\r\n"
            "fdcd,0,17,10.125,0.2\r\n"
            "fdcd,1,18,11.125,0.2\r\n"
            "dcd,0,17,10.125,0.2\r\n"
            "dcd,1,18,11.125,0.2\r\n"
        ),
        "timesteps": (
            "method,run,step,card_truth,card_est,ospa,ospa2,bytes,control_iterations\r\n"
            "fdcd,0,1,2,0.1,12.25,0.1,60,3\r\n"
            "fdcd,0,2,3,2.0,8.0,0.30000000000000004,44,0\r\n"
            "fdcd,1,1,2,0.2,4.0,0.1,60,3\r\n"
            "fdcd,1,2,3,0.2,6.5,0.30000000000000004,44,0\r\n"
            "dcd,0,1,2,1.0,7.5,0.1,60,3\r\n"
            "dcd,0,2,3,3.0,9.0,0.30000000000000004,44,0\r\n"
            "dcd,1,1,2,2.0,1.0,0.1,60,3\r\n"
            "dcd,1,2,3,2.5,2.0,0.30000000000000004,44,0\r\n"
        ),
        "cardinality": (
            "method,step,card_truth,card_est_mean\r\n"
            "fdcd,1,2,0.15000000000000002\r\n"
            "fdcd,2,3,1.1\r\n"
            "dcd,1,2,1.5\r\n"
            "dcd,2,3,2.75\r\n"
        ),
        "comm": (
            "method,run,step,origin,sequence,bytes,rounds\r\n"
            "fdcd,0,1,0,0,36,1\r\n"
            "fdcd,0,2,1,1,44,2\r\n"
            "fdcd,1,1,1,0,36,0\r\n"
            "dcd,1,2,0,0,44,3\r\n"
        ),
    }
    for name, text in expected.items():
        assert paths[name].read_bytes() == text.encode()
    timings = json.loads(paths["timings"].read_text())
    assert list(timings) == ["fdcd", "dcd"]
    for method in timings:
        assert timings[method] == {
            "control_seconds_per_sensor": [0.5, 0.25],
            "mean_control_seconds_per_sensor": 0.375,
        }
        assert list(timings[method]) == ["control_seconds_per_sensor",
                                         "mean_control_seconds_per_sensor"]
