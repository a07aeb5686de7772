"""Self-tests of the benchmark: output check, tracing, arithmetic, names."""

import copy
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
from tracer import LAYERS, Tracer, span_table, count_table, summarize_spans
from workloads import END_TO_END, PER_LAYER, WORKLOADS, digest, load_reference

ROOT = Path(__file__).resolve().parent.parent


def _sample(reference, **extra):
    return {"digest": copy.deepcopy(reference), "wall": 1.0, **extra}


class TestOutputCheck:
    def test_reference_matches_itself(self):
        reference = load_reference(WORKLOADS["s1-dcd"])
        failed, problems = run.judge([_sample(reference)], reference)
        assert (failed, problems) == (0, [])

    @pytest.mark.parametrize(
        "field, index, delta",
        [("commands", (3, 0), 1), ("bytes", (5,), 4), ("card_est", (7,), 0.5), ("ospa2", (9,), 1e-7)],
    )
    def test_planted_mismatch_is_a_failed_run(self, field, index, delta):
        reference = load_reference(WORKLOADS["s1-dcd"])
        planted = _sample(reference)
        target = planted["digest"][1][field]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] += delta
        failed, problems = run.judge([_sample(reference), planted], reference)
        assert failed == 1
        assert all(p.startswith("repeat 1:") for p in problems)
        assert any(field in p for p in problems)

    def test_ospa_within_tolerance_passes(self):
        reference = load_reference(WORKLOADS["s1-dcd"])
        close = _sample(reference)
        close["digest"][0]["ospa"][0] += 1e-12
        assert run.judge([close], reference)[0] == 0

    def test_other_seed_repeats_must_agree_bit_for_bit(self):
        reference = load_reference(WORKLOADS["s1-dcd"])
        drifted = _sample(reference)
        drifted["digest"][0]["ospa"][0] += 1e-12
        failed, problems = run.judge([_sample(reference), drifted], None)
        assert failed == 1 and "first repeat" in problems[0]

    def test_exception_is_a_failed_run(self):
        reference = load_reference(WORKLOADS["s1-dcd"])
        assert run.judge([_sample(reference), None], reference)[0] == 1


def _originals():
    owners = [(o, a) for o, a, *_ in span_table()] + [(o, a) for o, a, _ in count_table()]
    return {(id(o), a): o.__dict__[a] for o, a in owners}


class TestTracedRun:
    @pytest.mark.parametrize("scenario, method, steps", [(2, "fdcd", 4), (1, "dcd", 3)])
    def test_traced_outputs_equal_untraced(self, scenario, method, steps):
        from sentrack.harness import run_single
        from sentrack.scenarios import build_scenario_1, build_scenario_2

        config = build_scenario_1() if scenario == 1 else build_scenario_2()
        plain = digest([run_single(config, method, 11, duration=steps)])
        before = _originals()
        with Tracer() as tracer:
            t0 = time.perf_counter()
            traced = digest([run_single(config, method, 11, duration=steps)])
            wall = time.perf_counter() - t0
        assert _originals() == before
        assert traced == plain

        layers = tracer.summary(t0, wall)
        # added by run.py from the untraced repeats and the worker's metrics
        assert set(PER_LAYER) - set(layers) == {"harness.trace_overhead_s", "metrics.ospa_m"}
        assert layers["control.descent.iterations"] > 0
        assert layers["control.pseudo_update.calls"] <= layers["control.pseudo.calls"]
        assert run.trace_problems(layers) == []
        # the same spans judged against a region that ends before them
        late = tracer.summary(t0, wall / 2)
        assert late["harness.spans_outside"] > 0
        assert run.trace_problems(late)

    def test_install_twice_is_refused(self):
        with Tracer() as tracer:
            with pytest.raises(RuntimeError):
                tracer.install()


class TestArithmetic:
    def _spans(self):
        # control.select [0, 10] holds control.fused [1, 4], which holds
        # pseudo_update [2, 3]; a nested control.select [5, 6]; then
        # metrics.ospa2 [11, 13] at top level.  Wall is 15 s.
        names = ["control.select", "control.fused", "control.pseudo_update", "metrics.ospa2"]
        layers = ["control", "control", "filtering", "metrics"]
        name_id = np.array([0, 1, 2, 0, 3])
        parent = np.array([-1, 0, 1, 0, -1])
        start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
        end = np.array([10.0, 4.0, 3.0, 6.0, 13.0])
        counts = {"control.pseudo.calls": 4}
        return summarize_spans(names, layers, name_id, parent, start, end, counts, 0.0, 15.0)

    def test_self_time_subtracts_child_spans(self):
        out = self._spans()
        assert out["control.select.self_s"] == pytest.approx(6.0 + 1.0)
        assert out["control.select.s"] == pytest.approx(10.0)  # nested span not counted twice
        assert out["control.select.calls"] == 2
        assert out["control.fused.s"] == pytest.approx(3.0)
        assert out["control.fused.self_s"] == pytest.approx(2.0)
        assert out["control.fused.share"] == pytest.approx(3.0 / 15.0)
        assert out["control.self_s"] == pytest.approx(6.0 + 1.0 + 2.0)
        assert out["filtering.self_s"] == pytest.approx(1.0)
        assert out["metrics.self_s"] == pytest.approx(2.0)
        assert out["harness.self_s"] == pytest.approx(15.0 - 12.0)
        assert out["control.pseudo.hit_ratio"] == pytest.approx(1 - 1 / 4)
        total = sum(out[f"{layer}.self_s"] for layer in LAYERS)
        assert total == pytest.approx(15.0)

    def test_trace_check_passes_spans_that_tile_the_region(self):
        out = self._spans()
        assert (out["harness.spans_outside"], out["harness.spans_unlayered"]) == (0, 0)
        assert run.trace_problems(out) == []

    @pytest.mark.parametrize("start, end", [(14.0, 16.0), (-1.0, 0.5)])
    def test_trace_check_reports_a_span_outside_the_region(self, start, end):
        names = ["metrics.ospa2"]
        out = summarize_spans(
            names, ["metrics"], np.array([0]), np.array([-1]),
            np.array([start]), np.array([end]), {}, 0.0, 15.0,
        )
        assert out["harness.spans_outside"] == 1
        assert any("outside the traced region" in p for p in run.trace_problems(out))

    def test_trace_check_reports_overlapping_top_level_spans(self):
        # two top-level spans covering more than the wall, as threads would
        out = summarize_spans(
            ["lmb.resample"], ["lmb"], np.array([0, 0]), np.array([-1, -1]),
            np.array([0.0, 1.0]), np.array([10.0, 11.0]), {}, 0.0, 15.0,
        )
        assert out["harness.self_s"] < 0
        assert run.trace_problems(out)

    def test_trace_check_reports_a_span_in_no_layer(self):
        out = summarize_spans(
            ["cli.main"], ["cli"], np.array([0]), np.array([-1]),
            np.array([1.0]), np.array([2.0]), {}, 0.0, 15.0,
        )
        assert out["harness.spans_unlayered"] == 1
        total = sum(out[f"{layer}.self_s"] for layer in LAYERS)
        assert total == pytest.approx(14.0)  # the unlayered second is missing
        assert run.trace_problems(out)

    def test_quartiles(self):
        values = [float(v) for v in range(1, 11)]
        assert run.quartiles(values) == (2.75, 5.5, 8.25)
        assert run.quartiles(values) == tuple(statistics.quantiles(values, n=4))
        assert run.quartiles([4.0]) == (4.0, 4.0, 4.0)


class TestNames:
    def _benchmark(self):
        with open(ROOT / "BENCHMARK.json") as fh:
            return json.load(fh)

    def test_tables_equal_benchmark_json(self):
        spec = self._benchmark()
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER

    @pytest.mark.parametrize("trace", [False, True])
    def test_printed_names_equal_benchmark_json(self, trace, capsys):
        spec = self._benchmark()
        metrics = dict.fromkeys([*END_TO_END, "ospa_m"], 1.0)
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update({"harness.spans_outside": 0, "harness.spans_unlayered": 0})
        unscaled = {"steps_per_s": 1.0, "control_ms": 1.0}
        samples = [{"digest": [], "wall": 1.0, "metrics": metrics, "unscaled": unscaled}]
        if trace:
            samples.append({"digest": [], "wall": 1.0, "metrics": metrics, "layers": layers})
        line = run.result_line({"samples": samples, "setups": [0.5]}, "s2-isc", 7, trace)
        key = "per_layer" if trace else "end_to_end"
        assert line["correct"] is True
        assert {(n, m["unit"]) for n, m in line["metrics"].items()} == {
            (m["name"], m["unit"]) for m in spec[key]
        }
        assert "s2-isc" in capsys.readouterr().out


def test_no_program_means_no_result(tmp_path):
    """With only BENCHMARK.json and the benchmark's files, the run fails cleanly."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "s1-dcd", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
