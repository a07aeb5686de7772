"""The result-line checker that gates the benchmark smoke runs in CI."""

import importlib.util
import io
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location(
    "check_result_line", ROOT / ".github" / "check_result_line.py"
)
check = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(check)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def workload_result(traced=False):
    """One workload's result as bench/run.py prints it: correct, none failed,
    every end-to-end metric, or with --trace 1 every per-layer metric."""
    units = PER_LAYER if traced else METRICS
    metrics = {name: {"value": 1.5, "unit": unit} for name, unit in units.items()}
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}


def all_line(traced=False):
    """The last line of `bench/run.py --workload all`, complete."""
    workloads = {n: workload_result(traced) for n in NAMES}
    return {"environment": {"python": "3"}, "workloads": workloads}


def test_complete_line_of_every_workload_passes():
    assert check.problems(json.dumps(all_line())) == []


def test_complete_line_of_one_workload_passes():
    assert check.problems(json.dumps(workload_result())) == []


@pytest.mark.parametrize("line", [all_line(traced=True), workload_result(traced=True)],
                         ids=["all", "one"])
def test_complete_traced_line_passes_without_end_to_end_metrics(line):
    assert check.problems(json.dumps(line)) == []


def test_each_fault_in_a_traced_line_is_named():
    first, second, third = NAMES[:3]
    counts, ospa = "lmb.resample.calls", "metrics.ospa_m"
    line = all_line(traced=True)
    line["workloads"][first]["correct"] = False
    line["workloads"][second]["failed"] = 1
    del line["workloads"][second]["metrics"][counts]
    # a traced result still holding an end-to-end metric is judged by the per-layer ones
    line["workloads"][third]["metrics"] = {"steps_per_s": {"value": 1.5, "unit": "steps/s"}}
    line["workloads"][third]["metrics"][ospa] = {"value": 1.5, "unit": "m"}
    assert check.problems(json.dumps(line)) == [
        f"{first}: not correct",
        f"{second}: 1 failed",
        f"{second}: no {counts}",
        *[f"{third}: no {m}" for m in PER_LAYER if m != ospa],
    ]


def test_a_traced_line_with_no_per_layer_metric_is_judged_untraced():
    # a failed traced repeat leaves no per-layer values: the line reads as
    # untraced and is named for every missing end-to-end metric
    line = all_line(traced=True)
    for result in line["workloads"].values():
        result.update(correct=False, failed=1, metrics={})
    found = check.problems(json.dumps(line))
    assert found[:3] == [f"{NAMES[0]}: not correct", f"{NAMES[0]}: 1 failed",
                         f"{NAMES[0]}: no {next(iter(METRICS))}"]


def test_each_fault_is_named():
    first, second, third = NAMES[:3]
    metric = next(iter(METRICS))
    line = all_line()
    del line["workloads"][first]
    line["workloads"][second]["correct"] = False
    line["workloads"][third]["failed"] = 1
    del line["workloads"][third]["metrics"][metric]
    assert check.problems(json.dumps(line)) == [
        f"{first}: missing",
        f"{second}: not correct",
        f"{third}: 1 failed",
        f"{third}: no {metric}",
    ]


@pytest.mark.parametrize("edit,problem", [
    (lambda r: r.update(correct=False), "the workload: not correct"),
    (lambda r: r.update(failed=2), "the workload: 2 failed"),
    (lambda r: r["metrics"].pop("ospa2_m"), "the workload: no ospa2_m"),
])
def test_fault_in_a_one_workload_line_is_named(edit, problem):
    result = workload_result()
    edit(result)
    assert check.problems(json.dumps(result)) == [problem]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_bare_non_finite_value_raises(token):
    # json.dumps prints float("nan") as a bare NaN, which json.loads accepts
    line = json.dumps(all_line()).replace("1.5", token, 1)
    assert token in line
    with pytest.raises(ValueError, match=f"non-finite value {token}"):
        check.problems(line)


@pytest.mark.parametrize("lines,code", [
    ([json.dumps(all_line())], 0),
    (["environment: {}", json.dumps(all_line())], 0),
    (["environment: {}", json.dumps(all_line(traced=True))], 0),
    ([], 1),
    ([json.dumps(all_line() | {"workloads": {}})], 1),
])
def test_main_reads_the_last_line(monkeypatch, capsys, lines, code):
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines)))
    assert check.main() == code
    assert bool(capsys.readouterr().err) == bool(code)
