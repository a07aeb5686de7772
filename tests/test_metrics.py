import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from sentrack.metrics import ospa, ospa2

# Allowed gap between the array OSPA(2) and the loop reference below: float
# rounding only, the same 1e-9 as the golden gate.
ORACLE_TOL = 1e-9


def pts(*rows):
    return [np.array(r, dtype=float) for r in rows]


class TestOspa:
    def test_identical_sets(self):
        x = pts((0, 0), (10, 10))
        assert ospa(x, x, 100.0, 1.0) == 0.0

    def test_pure_cardinality_penalty(self):
        assert ospa(pts((0, 0)), [], 100.0, 1.0) == pytest.approx(100.0)
        assert ospa([], pts((0, 0)), 100.0, 1.0) == pytest.approx(100.0)

    def test_both_empty(self):
        assert ospa([], [], 100.0, 1.0) == 0.0

    def test_single_pair_distance(self):
        assert ospa(pts((0, 0)), pts((30, 40)), 100.0, 1.0) == pytest.approx(50.0)

    def test_distance_saturates_at_cutoff(self):
        assert ospa(pts((0, 0)), pts((1000, 0)), 100.0, 1.0) == pytest.approx(100.0)

    def test_cardinality_mismatch_mixes(self):
        # one matched pair at 10 m, one unmatched: (10 + 100) / 2
        val = ospa(pts((0, 0), (500, 500)), pts((10, 0)), 100.0, 1.0)
        assert val == pytest.approx((10.0 + 100.0) / 2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ospa([], [], -1.0, 1.0)
        with pytest.raises(ValueError):
            ospa([], [], 100.0, 0.5)

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetry_and_triangle(self, seed):
        rng = np.random.default_rng(seed)
        sets = [
            [rng.uniform(0, 200, 2) for _ in range(rng.integers(0, 6))]
            for _ in range(3)
        ]
        a, b, c = sets
        assert ospa(a, b, 100.0, 1.0) == pytest.approx(ospa(b, a, 100.0, 1.0), abs=1e-9)
        assert ospa(a, c, 100.0, 1.0) <= ospa(a, b, 100.0, 1.0) + ospa(b, c, 100.0, 1.0) + 1e-9


def tracks(*specs):
    """spec: dict step -> (x, y)"""
    return {i: {k: np.array(v, dtype=float) for k, v in spec.items()} for i, spec in enumerate(specs)}


class TestOspa2:
    def test_identical_tracks(self):
        t = tracks({1: (0, 0), 2: (1, 1)}, {1: (50, 0), 2: (51, 1)})
        assert ospa2(t, t, 100.0, 1.0, 2, step=2) == 0.0

    def test_window_one_reduces_to_ospa(self):
        truth = tracks({5: (0, 0)}, {5: (40, 30)})
        est = tracks({5: (3, 4)}, {5: (40, 30)})
        o2 = ospa2(truth, est, 100.0, 1.0, 1, step=5)
        o1 = ospa(
            [t[5] for t in truth.values()], [t[5] for t in est.values()], 100.0, 1.0
        )
        assert o2 == pytest.approx(o1, abs=1e-12)

    def test_absent_estimate_costs_cutoff(self):
        truth = tracks({1: (0, 0), 2: (0, 0), 3: (0, 0)})
        assert ospa2(truth, {}, 100.0, 1.0, 3, step=3) == pytest.approx(100.0)

    def test_identity_switch_penalized(self):
        # positions match at every instant but labels swap halfway
        truth = tracks({1: (0, 0), 2: (0, 0)}, {1: (100, 0), 2: (100, 0)})
        swapped = tracks({1: (0, 0), 2: (100, 0)}, {1: (100, 0), 2: (0, 0)})
        same = tracks({1: (0, 0), 2: (0, 0)}, {1: (100, 0), 2: (100, 0)})
        assert ospa2(truth, swapped, 100.0, 1.0, 2, step=2) > 0.0
        assert ospa2(truth, same, 100.0, 1.0, 2, step=2) == 0.0

    def test_tracks_outside_window_ignored(self):
        truth = tracks({1: (0, 0)}, {50: (7, 7)})
        est = tracks({1: (0, 0)})
        assert ospa2(truth, est, 100.0, 1.0, 2, step=2) == 0.0

    def test_invalid_parameters(self):
        t = tracks({1: (0, 0)})
        with pytest.raises(ValueError, match="cutoff"):
            ospa2(t, t, 0.0, 1.0, 1, step=1)
        with pytest.raises(ValueError, match="cutoff"):
            ospa2(t, t, -1.0, 1.0, 1, step=1)
        with pytest.raises(ValueError, match="order"):
            ospa2(t, t, 100.0, 0.5, 1, step=1)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            ospa2({}, {}, 100.0, 1.0, 0, step=3)
        with pytest.raises(TypeError):
            ospa2({}, {}, 100.0, 1.0, 3)

    @pytest.mark.parametrize("seed", range(5))
    def test_window_one_equivalence_random(self, seed):
        rng = np.random.default_rng(seed)
        step = 4
        truth = {
            i: {step: rng.uniform(0, 100, 2)} for i in range(rng.integers(1, 5))
        }
        est = {
            i: {step: rng.uniform(0, 100, 2)} for i in range(rng.integers(1, 5))
        }
        o2 = ospa2(truth, est, 100.0, 1.0, 1, step=step)
        o1 = ospa(
            [t[step] for t in truth.values()],
            [t[step] for t in est.values()],
            100.0,
            1.0,
        )
        assert o2 == pytest.approx(o1, abs=1e-12)


def _window_distance(track_a: dict, track_b: dict, steps, c: float) -> float:
    """Loop reference: time-averaged cutoff distance between two tracks."""
    total = 0.0
    for t in steps:
        a, b = track_a.get(t), track_b.get(t)
        if a is None and b is None:
            continue
        if a is None or b is None:
            total += c
        else:
            diff = np.asarray(a, dtype=float)[:2] - np.asarray(b, dtype=float)[:2]
            total += min(c, float(np.hypot(diff[0], diff[1])))
    return total / len(steps)


def ospa2_reference(truth_tracks, estimated_tracks, c, p, window, step):
    """Loop reference for ospa2: one _window_distance per track pair."""
    steps = list(range(step - window + 1, step + 1))
    in_window = lambda track: any(t in track for t in steps)
    xs = [track for track in truth_tracks.values() if in_window(track)]
    ys = [track for track in estimated_tracks.values() if in_window(track)]
    n, m = len(xs), len(ys)
    if n == 0 and m == 0:
        return 0.0
    if n == 0 or m == 0:
        return float(c)
    if n > m:
        xs, ys, n, m = ys, xs, m, n
    base = np.array([[_window_distance(a, b, steps, c) for b in ys] for a in xs])
    d = np.minimum(base, c) ** p
    rows, cols = linear_sum_assignment(d)
    cost = float(d[rows, cols].sum())
    return float(((cost + c**p * (m - n)) / m) ** (1.0 / p))


@st.composite
def track_sets(draw, step):
    """Tracks with gaps over steps around the window; states of 2 to 4 entries."""
    coord = st.floats(min_value=0.0, max_value=300.0, allow_nan=False)
    out = {}
    for key in range(draw(st.integers(0, 6))):
        present = draw(st.sets(st.integers(step - 15, step + 2), max_size=18))
        dim = draw(st.integers(2, 4))
        out[key] = {
            t: np.array(draw(st.lists(coord, min_size=dim, max_size=dim))) for t in present
        }
    return out


class TestOspa2Oracle:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        window=st.integers(1, 12),
        p=st.sampled_from([1.0, 2.0]),
        c=st.sampled_from([20.0, 100.0]),
    )
    def test_matches_loop_reference(self, data, window, p, c):
        step = 20
        truth = data.draw(track_sets(step))
        est = data.draw(track_sets(step))
        expected = ospa2_reference(truth, est, c, p, window, step)
        assert ospa2(truth, est, c, p, window, step) == pytest.approx(expected, abs=ORACLE_TOL)
