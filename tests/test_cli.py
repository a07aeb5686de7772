import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import sentrack
from sentrack.cli import main
from sentrack.scenarios import build_scenario_1, scenario_to_dict

CSV_FILES = ("runs.csv", "timesteps.csv", "cardinality_trace.csv", "comm_log.csv")


def test_repeat_invocations_write_identical_csvs(tmp_path, capsys):
    written = []
    for name in ("first", "second"):
        out = tmp_path / name
        argv = ["simulate", "--scenario", "1", "--method", "fdcd", "--runs", "1"]
        assert main(argv + ["--steps", "3", "--out", str(out)]) == 0
        written.append({f: (out / f).read_bytes() for f in CSV_FILES})
    assert written[0] == written[1]
    # header plus one row per step
    assert len(written[0]["timesteps.csv"].splitlines()) == 4
    assert "scenario-1 fdcd" in capsys.readouterr().out


def test_csvs_identical_across_hash_seeds(tmp_path):
    # set and dict iteration over labels must not leak into the results
    src = str(Path(sentrack.__file__).resolve().parents[1])
    written = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / hash_seed
        argv = ["simulate", "--scenario", "1", "--method", "fdcd", "--runs", "1", "--steps", "3"]
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        subprocess.run(
            [sys.executable, "-m", "sentrack", *argv, "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        written.append({f: (out / f).read_bytes() for f in CSV_FILES})
    assert written[0] == written[1]


@pytest.mark.parametrize("steps", [0, -1])
def test_steps_below_one_rejected_before_writing(tmp_path, steps):
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", "1", "--method", "isc", "--runs", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--steps", str(steps), "--out", str(out)])
    assert exc.value.code not in (0, None)
    assert "duration" in str(exc.value.code) and "\n" not in str(exc.value.code)
    assert not out.exists()


def test_unknown_scenario_key_rejected_before_writing(tmp_path):
    d = scenario_to_dict(build_scenario_1())
    d["sensors"][0]["fov"]["colour"] = "red"
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(d))
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", str(path), "--method", "isc", "--runs", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--steps", "1", "--out", str(out)])
    assert exc.value.code not in (0, None)
    assert "colour" in str(exc.value.code) and "\n" not in str(exc.value.code)
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "name: short\nduration: 5\n"])
def test_incomplete_scenario_file_rejected_in_one_line(tmp_path, text):
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", str(path), "--method", "isc", "--runs", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--steps", "1", "--out", str(out)])
    assert exc.value.code not in (0, None)
    assert "'top level'" in str(exc.value.code) and "\n" not in str(exc.value.code)
    assert not out.exists()


def test_wrongly_typed_scenario_value_rejected_in_one_line(tmp_path):
    d = scenario_to_dict(build_scenario_1())
    d["filter"]["particle_count"] = 1.5
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(d))
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", str(path), "--method", "isc", "--runs", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--steps", "1", "--out", str(out)])
    assert exc.value.code not in (0, None)
    assert "'particle_count'" in str(exc.value.code) and "'filter'" in str(exc.value.code)
    assert "\n" not in str(exc.value.code)
    assert not out.exists()


def _rejected_in_one_line(tmp_path, scenario, *args):
    """The one-line error main gives for a scenario, having written nothing."""
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", str(scenario), "--method", "isc", "--runs", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--steps", "1", *args, "--out", str(out)])
    message = str(exc.value.code)
    assert message.startswith("sentrack: error: ") and "\n" not in message
    assert not out.exists()
    return message


def test_malformed_yaml_rejected_in_one_line(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text("name: broken\nsensors: [1, 2\nduration: 3\n")
    assert repr(str(path)) in _rejected_in_one_line(tmp_path, path)


def test_directory_as_scenario_rejected_in_one_line(tmp_path):
    assert repr(str(tmp_path)) in _rejected_in_one_line(tmp_path, tmp_path)


def test_missing_scenario_file_rejected_in_one_line(tmp_path):
    path = tmp_path / "absent.yaml"
    assert repr(str(path)) in _rejected_in_one_line(tmp_path, path)


def test_negative_seed_rejected_in_one_line(tmp_path):
    assert "base_seed" in _rejected_in_one_line(tmp_path, "1", "--seed", "-1")


@pytest.mark.parametrize("method,dcd_runs", [("fixed", "-3"), ("isc", "0"), ("dcd", "0"), ("fdcd", "-1")])
def test_dcd_runs_below_one_rejected_for_every_method(tmp_path, method, dcd_runs):
    # fixed, isc and fdcd used to accept it; dcd named the wrong option
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", "1", "--method", method, "--runs", "1", "--steps", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--dcd-runs", dcd_runs, "--out", str(out)])
    assert exc.value.code == "sentrack: error: dcd_runs must be >= 1"
    assert not out.exists()


def test_existing_file_as_out_rejected_before_simulating(tmp_path, monkeypatch):
    # it used to run the whole Monte Carlo, then fail in export_results
    monkeypatch.setattr("sentrack.cli.monte_carlo", lambda *a, **k: pytest.fail("simulated"))
    out = tmp_path / "out"
    out.write_text("kept")
    argv = ["simulate", "--scenario", "1", "--method", "fixed", "--runs", "1", "--steps", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    message = str(exc.value.code)
    assert message.startswith("sentrack: error: ") and "\n" not in message
    assert repr(str(out)) in message
    assert out.read_text() == "kept"


def test_out_under_a_regular_file_rejected_before_simulating(tmp_path, monkeypatch):
    # it used to run the whole Monte Carlo, then fail to make the directory
    monkeypatch.setattr("sentrack.cli.monte_carlo", lambda *a, **k: pytest.fail("simulated"))
    blocker = tmp_path / "file"
    blocker.write_text("kept")
    out = blocker / "sub" / "out"
    argv = ["simulate", "--scenario", "1", "--method", "fixed", "--runs", "1", "--steps", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    message = str(exc.value.code)
    assert message.startswith("sentrack: error: ") and "\n" not in message
    assert repr(str(out)) in message and f"{str(blocker)!r} is not a directory" in message
    assert blocker.read_text() == "kept"


def test_os_error_while_writing_reported_in_one_line(tmp_path):
    # --out passes the up-front check, but runs.csv cannot be opened
    out = tmp_path / "out"
    (out / "runs.csv").mkdir(parents=True)
    argv = ["simulate", "--scenario", "1", "--method", "fixed", "--runs", "1", "--steps", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    message = str(exc.value.code)
    assert message.startswith("sentrack: error: cannot write the results: ")
    assert "\n" not in message and str(out / "runs.csv") in message


def test_nan_in_scenario_file_rejected_in_one_line(tmp_path):
    d = scenario_to_dict(build_scenario_1())
    d["comm_range"] = float("nan")
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(d))
    message = _rejected_in_one_line(tmp_path, path)
    assert "'comm_range' in scenario section 'top level' must be a number, not nan" in message
