"""Golden runs: short seeded runs of every scenario and method.

Each fixture in tests/golden holds, per step, the commands, cardinalities,
communication bytes, flood rounds of each message (in send order),
descent iterations, OSPA and OSPA(2) of one run_single call.  A fresh run
must match it exactly, except for floats, which must agree within
FLOAT_TOLERANCE.  Refactors that keep behaviour
keep these fixtures unchanged.

The 8-step runs never evaluate an infeasible command and never take the
ranked (Murty) association path.  The 35-step scenario 2 runs of the
controlled methods do both, and their test counts that they still do, so
a change cannot move them out of that regime unnoticed.

Record the fixtures again, only for a change meant to alter results, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from sentrack import control, filtering, harness
from sentrack.harness import run_single
from sentrack.scenarios import build_scenario_1, build_scenario_2
from sentrack.sensors import apply_action

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEED = 20260810
STEPS = 8
FLOAT_TOLERANCE = 1e-9
SCENARIOS = {1: build_scenario_1, 2: build_scenario_2}
CASES = [(n, m) for n in SCENARIOS for m in ("fixed", "isc", "dcd", "fdcd")]
LONG_STEPS = 35
LONG_CASES = [(2, m) for m in ("isc", "dcd", "fdcd")]
FLOAT_FIELDS = ("card_est", "ospa", "ospa2")


def fixture_path(scenario: int, method: str, steps: int = STEPS) -> Path:
    suffix = "" if steps == STEPS else f"-{steps}steps"
    return GOLDEN_DIR / f"s{scenario}-{method}{suffix}.json"


def golden_run(scenario: int, method: str, steps: int = STEPS) -> dict:
    result = run_single(SCENARIOS[scenario](), method, SEED, duration=steps)
    rounds = {}
    for entry in result.comm_entries:
        rounds.setdefault(entry.step, []).append(entry.rounds)
    return {
        "scenario": scenario,
        "method": method,
        "seed": SEED,
        "steps": [
            {
                "step": rec.step,
                "commands": list(rec.commands),
                "card_truth": rec.card_truth,
                "card_est": rec.card_est,
                "per_sensor_card": list(rec.per_sensor_card),
                "bytes": rec.bytes,
                "rounds": rounds.get(rec.step, []),
                "control_iterations": rec.control_iterations,
                "ospa": rec.ospa,
                "ospa2": rec.ospa2,
            }
            for rec in result.steps
        ],
    }


def assert_matches(actual: dict, expected: dict) -> None:
    assert len(actual["steps"]) == len(expected["steps"])
    for got, want in zip(actual["steps"], expected["steps"]):
        for key, value in want.items():
            if key in FLOAT_FIELDS:
                assert math.isclose(got[key], value, rel_tol=0.0, abs_tol=FLOAT_TOLERANCE), (
                    f"step {want['step']} {key}: {got[key]!r} != {value!r}"
                )
            else:
                assert got[key] == value, f"step {want['step']} {key}: {got[key]!r} != {value!r}"


@pytest.mark.parametrize("scenario,method", CASES)
def test_matches_golden_run(scenario, method):
    expected = json.loads(fixture_path(scenario, method).read_text())
    assert_matches(golden_run(scenario, method), expected)


@pytest.mark.parametrize("scenario,method", LONG_CASES)
def test_long_run_reaches_constraints_and_ranked_association(scenario, method, monkeypatch):
    counts = dict.fromkeys(("eta", "psi", "ranked", "isc_eta"), 0)
    threshold = SCENARIOS[scenario]().objective.eta_threshold

    separation = control.separation

    def counted_separation(*positions):
        # eta is decided here, before any fusion
        eta = separation(*positions)
        counts["eta"] += eta <= threshold
        return eta

    fused = harness.ControlContext.fused

    def counted_fused(ctx, command):
        fe = fused(ctx, command)
        counts["psi"] += fe.psi <= ctx.params.psi_threshold
        return fe

    ranked = filtering._ranked_marginals

    def counted_ranked(*args):
        counts["ranked"] += 1
        return ranked(*args)

    actions = [spec.actions for spec in SCENARIOS[scenario]().sensors]
    isc_select = harness.isc_select

    def counted_isc(node, cache, *args, **kwargs):
        # post-action positions from the scenario, not from the cache's table
        action, score = isc_select(node, cache, *args, **kwargs)
        threshold = cache.params.eta_threshold
        others = [after[0] for t, after in cache.after.items() if t != node]
        for a, act in enumerate(actions[node]):
            p = apply_action(cache.after[node][0], act)
            if others and min(math.hypot(p.x - q.x, p.y - q.y) for q in others) <= threshold:
                counts["isc_eta"] += 1
                assert a != action or score == -math.inf
        return action, score

    monkeypatch.setattr(control, "separation", counted_separation)
    monkeypatch.setattr(harness.ControlContext, "fused", counted_fused)
    monkeypatch.setattr(filtering, "_ranked_marginals", counted_ranked)
    if method == "isc":
        monkeypatch.setattr(harness, "isc_select", counted_isc)
    expected = json.loads(fixture_path(scenario, method, LONG_STEPS).read_text())
    assert_matches(golden_run(scenario, method, LONG_STEPS), expected)

    assert counts["ranked"] > 0
    if method == "isc":
        assert counts["isc_eta"] > 0
    else:
        assert counts["eta"] > 0
    if method == "dcd":
        assert counts["psi"] > 0


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    runs = [(n, m, STEPS) for n, m in CASES] + [(n, m, LONG_STEPS) for n, m in LONG_CASES]
    for scenario, method, steps in runs:
        path = fixture_path(scenario, method, steps)
        path.write_text(json.dumps(golden_run(scenario, method, steps), indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    record()
