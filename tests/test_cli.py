from sentrack.cli import main

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
