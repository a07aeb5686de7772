from dataclasses import replace

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from density_checks import validate
from sentrack.lmb import (
    Component,
    Label,
    LmbDensity,
    connected_groups,
    eap_cardinality,
    eap_states,
    empty_density,
    label_index,
    prune,
    resample_component,
    row_means,
)


def comp(existence, positions, weights=None, label=None, velocity=(0.0, 0.0)):
    positions = np.atleast_1d(np.asarray(positions, dtype=float))
    if positions.ndim == 1:
        positions = np.column_stack([positions, np.zeros_like(positions)])
    states = np.column_stack([positions, np.tile(velocity, (len(positions), 1))])
    if weights is None:
        weights = np.full(len(states), 1.0 / len(states))
    return Component(
        label=label or Label(0, 0, 0),
        existence=existence,
        states=states,
        weights=np.asarray(weights, dtype=float),
    )


def density(existences, role="posterior", timestamp=0):
    comps = tuple(
        comp(r, [float(i)], label=Label(0, i, 0)) for i, r in enumerate(existences)
    )
    return LmbDensity.from_rows(comps, timestamp, role)


def rows(*comps, passed=None):
    d = LmbDensity.from_rows(comps, 0, "posterior")
    return d if passed is None else replace(d, passed_through=np.array(passed))


def random_density(rng, k, j, ties=False):
    existences = rng.choice([0.3, 0.6, 0.9], k) if ties else rng.random(k)
    weights = rng.random((k, j))
    weights /= weights.sum(axis=1, keepdims=True)
    labels = [Label(0, i, int(rng.integers(3))) for i in rng.permutation(k)]
    return LmbDensity(labels, existences, rng.normal(0, 100, (k, j, 4)), weights, 0, "posterior")


def systematic_row(weights, count, offset):
    """Reference: one row's systematic resample with a scalar offset."""
    cumulative = np.cumsum(weights / float(weights.sum()))
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, (offset + np.arange(count)) / count, side="left")


class TestEapCardinality:
    def test_direct_sum(self):
        assert eap_cardinality(density([0.9, 0.8, 0.3])) == pytest.approx(2.0)

    def test_empty(self):
        assert eap_cardinality(empty_density(0, "posterior")) == 0.0

    def test_certain(self):
        assert eap_cardinality(density([1.0])) == pytest.approx(1.0)

    def test_reorder_invariant(self):
        rng = np.random.default_rng(3)
        rs = rng.random(7)
        d1 = density(rs)
        d2 = density(rs[::-1])
        assert eap_cardinality(d1) == pytest.approx(eap_cardinality(d2))


class TestEapStates:
    def test_symmetric_average(self):
        c = comp(1.0, [0.0, 10.0], weights=[0.5, 0.5])
        [(label, state)] = eap_states(rows(c))
        assert state[0] == pytest.approx(5.0)

    def test_highest_existence_wins(self):
        d = density([0.9, 0.2])
        picked = eap_states(d)
        assert len(picked) == 1  # round(1.1) = 1
        assert picked[0][0] == Label(0, 0, 0)

    def test_all_zero(self):
        assert eap_states(density([0.0, 0.0])) == []

    def test_tie_breaks_by_label(self):
        comps = (
            comp(0.8, [2.0], label=Label(0, 1, 0)),
            comp(0.8, [1.0], label=Label(0, 0, 0)),
        )
        picked = eap_states(rows(*comps))
        assert len(picked) == 2  # round(1.6) = 2
        assert picked[0][0] == Label(0, 0, 0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_per_row_means(self, seed):
        rng = np.random.default_rng(seed)
        d = random_density(rng, int(rng.integers(1, 40)), int(rng.choice([1, 60, 500])), ties=True)
        means = d.mean_positions()
        for c, mean in zip(d.components, means):
            np.testing.assert_array_equal(mean, c.weights @ c.states[:, :2])
        ranked = sorted(d.components, key=lambda c: (-c.existence, c.label))
        n = int(np.floor(sum(c.existence for c in d.components) + 0.5))
        picked = eap_states(d)
        assert [label for label, _ in picked] == [c.label for c in ranked[:n]]
        for (_, state), c in zip(picked, ranked):
            np.testing.assert_array_equal(state, c.weights @ c.states)


    def test_mean_positions_computed_once_and_read_only(self):
        # the update's gate and the estimate share one array, so no caller may write it
        rng = np.random.default_rng(3)
        d = random_density(rng, 7, 60, ties=False)
        means = d.mean_positions()
        assert d.mean_positions() is means and not means.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            means[0, 0] = 0.0
        # a density built from this one computes its own means
        moved = replace(d, states=d.states + 1.0)
        want = row_means(d.weights, moved.states[:, :, :2])
        np.testing.assert_array_equal(moved.mean_positions(), want)
        assert prune(d, 0.0, 7).mean_positions() is not means


class TestResample:
    def test_single_particle(self):
        c = comp(1.0, [7.0], weights=[1.0])
        out = resample_component(rows(c), 100, np.random.default_rng(0))
        assert out.states.shape == (1, 100, 4)
        assert np.allclose(out.weights, 0.01)
        assert np.allclose(out.states[0, :, 0], 7.0)

    def test_dominant_weight_guarantee(self):
        c = comp(1.0, [0.0, 1.0], weights=[0.999, 0.001])
        out = resample_component(rows(c), 1000, np.random.default_rng(1))
        copies = int((out.states[0, :, 0] == 0.0).sum())
        assert copies >= 990

    def test_deterministic_under_seed(self):
        c = comp(1.0, np.arange(10.0), weights=np.full(10, 0.1))
        a = resample_component(rows(c), 50, np.random.default_rng(42))
        b = resample_component(rows(c), 50, np.random.default_rng(42))
        assert np.array_equal(a.states, b.states)

    def test_all_zero_weights_error(self):
        c = comp(0.5, [0.0, 1.0], weights=[0.5, 0.5])
        bad = c._replace(weights=np.zeros(2))
        with pytest.raises(ValueError):
            resample_component(rows(bad), 10, np.random.default_rng(0))

    def test_weights_sum_and_mean_preserved(self):
        rng = np.random.default_rng(5)
        w = rng.random(200)
        w /= w.sum()
        c = comp(1.0, rng.normal(0, 30, 200), weights=w)
        out = resample_component(rows(c), 2000, rng)
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-9)
        before = (c.weights @ c.states)[0]
        after = (out.weights[0] @ out.states[0])[0]
        spread = float(np.sqrt(np.sum(c.weights * (c.states[:, 0] - before) ** 2)))
        assert abs(after - before) <= max(0.05 * abs(before), 3 * spread / np.sqrt(2000))

    @pytest.mark.parametrize("seed", range(10))
    def test_batched_rows_match_single_row_resamples(self, seed):
        rng = np.random.default_rng(seed)
        k, j = int(rng.integers(1, 30)), int(rng.choice([1, 60, 500]))
        d = replace(random_density(rng, k, j), passed_through=rng.random(k) < 0.3)
        out = resample_component(d, j, np.random.default_rng(seed))
        draws = np.random.default_rng(seed)
        for row in range(k):
            if d.passed_through[row]:
                np.testing.assert_array_equal(out.states[row], d.states[row])
                np.testing.assert_array_equal(out.weights[row], d.weights[row])
            else:
                idx = systematic_row(d.weights[row], j, draws.random())
                np.testing.assert_array_equal(out.states[row], d.states[row][idx])
                np.testing.assert_array_equal(out.weights[row], np.full(j, 1.0 / j))
        assert out.passed_through is None

    def test_passed_rows_must_hold_target_count(self):
        d = rows(comp(0.5, [0.0, 1.0]), comp(0.5, [2.0, 3.0], label=Label(0, 1, 0)),
                 passed=[True, False])
        with pytest.raises(ValueError, match="target_count"):
            resample_component(d, 3, np.random.default_rng(0))

    def test_empty_update_result_resamples_to_empty(self):
        # an update of an empty prediction with no measurements: no rows,
        # no particles, and an empty passed_through mask
        d = replace(empty_density(1, "posterior"), passed_through=np.zeros(0, dtype=bool))
        out = resample_component(d, 500, np.random.default_rng(0))
        assert out.states.shape == (0, 500, 4) and out.weights.shape == (0, 500)
        assert out.labels == () and out.passed_through is None

    def test_no_row_passed_resamples_to_another_count(self):
        rng = np.random.default_rng(7)
        d = replace(random_density(rng, 3, 4), passed_through=np.zeros(3, dtype=bool))
        out = resample_component(d, 9, np.random.default_rng(1))
        draws = np.random.default_rng(1)
        for row in range(3):
            idx = systematic_row(d.weights[row], 9, draws.random())
            np.testing.assert_array_equal(out.states[row], d.states[row][idx])
        np.testing.assert_array_equal(out.weights, np.full((3, 9), 1.0 / 9))


class TestPrune:
    def test_floor(self):
        out = prune(density([0.5, 0.005]), 0.01, 10)
        assert [c.existence for c in out.components] == [0.5]

    def test_cap(self):
        out = prune(density([0.9, 0.8, 0.7]), 0.0, 2)
        assert [c.existence for c in out.components] == [0.9, 0.8]

    def test_empty(self):
        out = prune(empty_density(0, "posterior"), 0.1, 5)
        assert out.components == ()


class TestDensityInvariants:
    def test_duplicate_labels_rejected(self):
        c = comp(0.5, [0.0])
        with pytest.raises(ValueError):
            rows(c, c)

    def test_rows_of_different_lengths_rejected(self):
        short = comp(0.5, [0.0, 1.0])
        long = comp(0.5, [0.0, 1.0, 2.0], label=Label(0, 1, 0))
        with pytest.raises(ValueError, match="different particle counts"):
            rows(short, long)

    @pytest.mark.parametrize("states,weights", [((1, 3, 4), (1, 2)), ((1, 4), (1,))])
    def test_inconsistent_arrays_rejected(self, states, weights):
        with pytest.raises(ValueError, match="inconsistent"):
            LmbDensity([Label(0, 0, 0)], [0.5], np.zeros(states), np.ones(weights), 0, "posterior")

    @pytest.mark.parametrize(
        "existence,weights",
        [(1.5, [0.5, 0.5]), (-0.1, [0.5, 0.5]), (0.5, [0.7, 0.7]), (0.5, [1.5, -0.5])],
    )
    def test_validate_rejects_bad_values(self, existence, weights):
        # validate is the test helper that the density checks of other tests use
        d = rows(comp(existence, [0.0, 1.0], weights=weights))
        with pytest.raises(ValueError):
            validate(d)
        validate(rows(comp(0.5, [0.0, 1.0])))

    @pytest.mark.parametrize("role", ["nonsense", "prior"])
    def test_bad_role_rejected(self, role):
        with pytest.raises(ValueError, match="unknown role"):
            empty_density(0, role)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_cardinality_bounds(self, existences):
        d = density(existences)
        card = eap_cardinality(d)
        assert 0.0 <= card <= len(existences)


@st.composite
def graphs(draw):
    """A node count and a list of edges between its nodes, self-loops and
    repeats included."""
    n = draw(st.integers(0, 12))
    node = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    return n, edges


class TestConnectedGroups:
    @given(case=graphs(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_networkx(self, case, data):
        n, edges = case
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        # ascending members, groups by their smallest member
        expected = sorted(sorted(c) for c in nx.connected_components(g))
        assert connected_groups(n, edges) == expected
        # a partition does not depend on the order of its unions
        shuffled = data.draw(st.permutations(edges))
        assert connected_groups(n, [(b, a) for a, b in shuffled]) == expected

    def test_no_edges(self):
        assert connected_groups(0, []) == []
        assert connected_groups(3, []) == [[0], [1], [2]]

    def test_chain_joins_late_members(self):
        assert connected_groups(5, [(4, 1), (3, 4), (0, 2)]) == [[0, 2], [1, 3, 4]]


small_labels = st.builds(Label, st.integers(0, 3), st.integers(0, 2), st.integers(0, 2))


class TestLabelIndex:
    @given(st.lists(st.sets(small_labels), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_rows_index_the_sorted_union(self, label_sets):
        # every density lists its rows in label order
        densities = [rows(*(comp(0.5, [0.0], label=l) for l in sorted(s))) for s in label_sets]
        labels, idx = label_index(iter(densities))
        assert labels == sorted(set().union(*label_sets))
        assert len(idx) == len(densities)
        for d, i in zip(densities, idx):
            assert i.dtype == np.intp and i.shape == (len(d.labels),)
            assert [labels[k] for k in i.tolist()] == list(d.labels)
            assert np.all(np.diff(i) > 0)

    def test_no_densities(self):
        assert label_index([]) == ([], [])
