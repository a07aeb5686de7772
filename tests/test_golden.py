"""Golden runs: short seeded runs of every scenario and method.

Each fixture in tests/golden holds, per step, the commands, cardinalities,
communication bytes, flood rounds of each message (in send order),
descent iterations, OSPA and OSPA(2) of one run_single call.  A fresh run
must match it exactly, except for floats, which must agree within
FLOAT_TOLERANCE.  Refactors that keep behaviour
keep these fixtures unchanged.

Record the fixtures again, only for a change meant to alter results, with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
from pathlib import Path

import pytest

from sentrack.harness import run_single
from sentrack.scenarios import build_scenario_1, build_scenario_2

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SEED = 20260810
STEPS = 8
FLOAT_TOLERANCE = 1e-9
SCENARIOS = {1: build_scenario_1, 2: build_scenario_2}
CASES = [(n, m) for n in SCENARIOS for m in ("fixed", "isc", "dcd", "fdcd")]
FLOAT_FIELDS = ("card_est", "ospa", "ospa2")


def fixture_path(scenario: int, method: str) -> Path:
    return GOLDEN_DIR / f"s{scenario}-{method}.json"


def golden_run(scenario: int, method: str) -> dict:
    result = run_single(SCENARIOS[scenario](), method, SEED, duration=STEPS)
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


@pytest.mark.parametrize("scenario,method", CASES)
def test_matches_golden_run(scenario, method):
    expected = json.loads(fixture_path(scenario, method).read_text())
    actual = golden_run(scenario, method)
    assert len(actual["steps"]) == len(expected["steps"])
    for got, want in zip(actual["steps"], expected["steps"]):
        for key, value in want.items():
            if key in FLOAT_FIELDS:
                assert math.isclose(got[key], value, rel_tol=0.0, abs_tol=FLOAT_TOLERANCE), (
                    f"step {want['step']} {key}: {got[key]!r} != {value!r}"
                )
            else:
                assert got[key] == value, f"step {want['step']} {key}: {got[key]!r} != {value!r}"


def record() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for scenario, method in CASES:
        path = fixture_path(scenario, method)
        path.write_text(json.dumps(golden_run(scenario, method), indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    record()
