import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentrack.lmb import (
    BernoulliComponent,
    Label,
    LmbDensity,
    eap_cardinality,
    eap_states,
    empty_density,
    prune,
    resample_component,
)


def comp(existence, positions, weights=None, label=None, velocity=(0.0, 0.0)):
    positions = np.atleast_1d(np.asarray(positions, dtype=float))
    if positions.ndim == 1:
        positions = np.column_stack([positions, np.zeros_like(positions)])
    states = np.column_stack([positions, np.tile(velocity, (len(positions), 1))])
    if weights is None:
        weights = np.full(len(states), 1.0 / len(states))
    return BernoulliComponent(
        label=label or Label(0, 0, 0),
        existence=existence,
        states=states,
        weights=np.asarray(weights, dtype=float),
    )


def density(existences, role="posterior", timestamp=0):
    comps = tuple(
        comp(r, [float(i)], label=Label(0, i, 0)) for i, r in enumerate(existences)
    )
    return LmbDensity(comps, timestamp, role)


class TestEapCardinality:
    def test_direct_sum(self):
        assert eap_cardinality(density([0.9, 0.8, 0.3])) == pytest.approx(2.0)

    def test_empty(self):
        assert eap_cardinality(empty_density(0)) == 0.0

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
        d = LmbDensity((c,), 0, "posterior")
        [(label, state)] = eap_states(d)
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
        d = LmbDensity(comps, 0, "posterior")
        picked = eap_states(d)
        assert len(picked) == 2  # round(1.6) = 2
        assert picked[0][0] == Label(0, 0, 0)


class TestResample:
    def test_single_particle(self):
        c = comp(1.0, [7.0], weights=[1.0])
        out = resample_component(c, 100, np.random.default_rng(0))
        assert out.particle_count == 100
        assert np.allclose(out.weights, 0.01)
        assert np.allclose(out.states[:, 0], 7.0)

    def test_dominant_weight_guarantee(self):
        c = comp(1.0, [0.0, 1.0], weights=[0.999, 0.001])
        out = resample_component(c, 1000, np.random.default_rng(1))
        copies = int((out.states[:, 0] == 0.0).sum())
        assert copies >= 990

    def test_deterministic_under_seed(self):
        c = comp(1.0, np.arange(10.0), weights=np.full(10, 0.1))
        a = resample_component(c, 50, np.random.default_rng(42))
        b = resample_component(c, 50, np.random.default_rng(42))
        assert np.array_equal(a.states, b.states)

    def test_all_zero_weights_error(self):
        c = comp(0.5, [0.0, 1.0], weights=[0.5, 0.5])
        bad = BernoulliComponent(c.label, c.existence, c.states, np.zeros(2))
        with pytest.raises(ValueError):
            resample_component(bad, 10, np.random.default_rng(0))

    def test_weights_sum_and_mean_preserved(self):
        rng = np.random.default_rng(5)
        w = rng.random(200)
        w /= w.sum()
        c = comp(1.0, rng.normal(0, 30, 200), weights=w)
        out = resample_component(c, 2000, rng)
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-9)
        before = c.mean_state()[0]
        after = out.mean_state()[0]
        spread = float(np.sqrt(np.sum(c.weights * (c.states[:, 0] - before) ** 2)))
        assert abs(after - before) <= max(0.05 * abs(before), 3 * spread / np.sqrt(2000))


class TestPrune:
    def test_floor(self):
        out = prune(density([0.5, 0.005]), 0.01, 10)
        assert [c.existence for c in out.components] == [0.5]

    def test_cap(self):
        out = prune(density([0.9, 0.8, 0.7]), 0.0, 2)
        assert [c.existence for c in out.components] == [0.9, 0.8]

    def test_empty(self):
        out = prune(empty_density(0), 0.1, 5)
        assert out.components == ()

    def test_bad_floor(self):
        with pytest.raises(ValueError):
            prune(density([0.5]), 1.0, 5)


class TestDensityInvariants:
    def test_duplicate_labels_rejected(self):
        c = comp(0.5, [0.0])
        with pytest.raises(ValueError):
            LmbDensity((c, c), 0, "posterior")

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            empty_density(0, role="nonsense")

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_cardinality_bounds(self, existences):
        d = density(existences)
        card = eap_cardinality(d)
        assert 0.0 <= card <= len(existences)
