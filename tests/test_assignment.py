import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import sentrack
from sentrack.assignment import min_cost_assignment

BIG_COST = 1e12  # the fill of the ranked association's infeasible cells


@st.composite
def cost_matrices(draw):
    """Finite n x m matrices with n <= m: real values, integer ties, constant
    matrices, OSPA's cut-off powers and the ranked association's fill."""
    n = draw(st.integers(0, 8))
    m = draw(st.integers(n, 12))
    kind = draw(st.sampled_from(["real", "ties", "constant", "cutoff", "filled"]))
    size = n * m
    if kind == "real":
        cells = draw(st.lists(st.floats(-1e3, 1e3), min_size=size, max_size=size))
    elif kind == "ties":
        cells = draw(st.lists(st.integers(0, 3).map(float), min_size=size, max_size=size))
    elif kind == "constant":
        cells = [draw(st.floats(-1e3, 1e3))] * size
    elif kind == "cutoff":
        x = np.array(draw(st.lists(st.floats(0.0, 300.0), min_size=size, max_size=size)))
        c, p = draw(st.floats(1.0, 200.0)), draw(st.sampled_from([1.0, 2.0, 3.0]))
        return np.minimum(x, c).reshape(n, m) ** p
    else:
        cell = st.just(BIG_COST) | st.floats(-710.0, 710.0)
        cells = draw(st.lists(cell, min_size=size, max_size=size))
    return np.array(cells, dtype=float).reshape(n, m)


@given(cost=cost_matrices())
@settings(max_examples=1000, deadline=None)
def test_matches_scipy(cost):
    rows, want = linear_sum_assignment(cost)
    got = min_cost_assignment(cost)
    assert got == want.tolist()
    total = cost[np.arange(len(got)), got].sum()
    assert total.tobytes() == cost[rows, want].sum().tobytes()


def test_constant_matrix_gives_the_identity():
    # the reverse-filled column list makes every tie go to the diagonal
    assert min_cost_assignment(np.full((4, 6), 7.0)) == [0, 1, 2, 3]


def test_matches_scipy_on_seeded_cutoff_matrices():
    # costs saturated at OSPA's cut-off tie often, and a few of these ties
    # go scipy's way only when every reduced cost rounds as
    # ((min_val + c) - u) - v; the drawn examples above rarely reach one
    rng = np.random.default_rng(0)
    for _ in range(5000):
        n = int(rng.integers(1, 9))
        cost = np.minimum(100.0 * rng.random((n, int(rng.integers(n, 13)))), 40.0) ** 2
        assert min_cost_assignment(cost) == linear_sum_assignment(cost)[1].tolist()


def test_a_cli_run_loads_no_scipy(tmp_path):
    src = str(Path(sentrack.__file__).resolve().parents[1])
    code = (
        "import json, sys\n"
        "from sentrack.cli import main\n"
        "main(['simulate', '--scenario', '1', '--method', 'fdcd', '--runs', '1',"
        " '--steps', '2', '--out', sys.argv[1]])\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src},
        check=True, capture_output=True, text=True, timeout=300,
    )
    assert json.loads(proc.stdout.splitlines()[-1]) == []
