import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from density_checks import validate
from sentrack import fusion
from sentrack.fusion import (
    associate_labels,
    compute_active_set,
    fuse_lmb,
    fuse_spatial,
)
from sentrack.lmb import Component, Label, LmbDensity, prune
from sentrack.sensors import FovModel, SensorState, detection_probabilities

FOV = FovModel(rho_max=500.0, theta_max=math.pi / 4, p_d_max=0.99, k_rho=0.5, k_theta=20.0)

unit_prob = st.floats(min_value=0.0, max_value=0.999, allow_nan=False)


def cloud(center, existence, label=Label(0, 0, 0), n=50, spread=5.0, seed=0):
    rng = np.random.default_rng(seed)
    states = np.zeros((n, 4))
    states[:, :2] = np.asarray(center, dtype=float) + rng.normal(0, spread, (n, 2))
    return Component(label, existence, states, np.full(n, 1.0 / n))


def density(comps, timestamp=1, role="posterior"):
    return LmbDensity.from_rows(comps, timestamp, role)


def fused_existence(existences):
    """Existence fuse_lmb gives one label held, as a one-row density, by one
    sensor per entry of existences (sensors 1, 2, ... in that order), with no
    sensor active, so every holder contributes."""
    locals_ = {
        s: density([cloud((0, 300), r, seed=s)]) for s, r in enumerate(existences, start=1)
    }
    inactive = {s: np.zeros(1, dtype=bool) for s in locals_}
    return float(fuse_lmb(locals_, inactive, 0.0).existences[0])


class TestFuseExistence:
    # fuse_lmb's existence rule: the holders' odds add

    def test_half_half(self):
        assert fused_existence([0.5, 0.5]) == pytest.approx(2.0 / 3.0)

    def test_singleton_identity(self):
        assert fused_existence([0.9]) == pytest.approx(0.9, abs=1e-15)

    def test_zeros(self):
        # a zero existence adds no odds; with no odds at all the clouds
        # share equally and the label fuses to existence 0
        assert fused_existence([0.0, 0.5, 0.0]) == 0.5
        assert fused_existence([0.0, 0.0]) == 0.0

    @given(st.lists(unit_prob, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_never_lowers_belief(self, rs):
        assume(any(rs))
        assert fused_existence(rs) >= max(rs) - 1e-12

    @given(st.lists(unit_prob, min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_symmetric(self, rs):
        assume(any(rs))
        assert fused_existence(rs) == pytest.approx(fused_existence(rs[::-1]), abs=1e-12)

    @given(unit_prob, unit_prob, st.floats(min_value=0.0, max_value=0.4))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_each_argument(self, a, b, bump):
        assume(a + b > 0.0)
        lo = fused_existence([a, b])
        hi = fused_existence([min(a + bump, 0.999), b])
        assert hi >= lo - 1e-12

    @given(st.floats(min_value=0.0, max_value=0.999))
    @settings(max_examples=100, deadline=None)
    def test_singleton_identity_property(self, r):
        assert fused_existence([r]) == pytest.approx(r, abs=1e-12)

    @given(st.lists(unit_prob, min_size=2, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_odds_summed_in_holder_order(self, rs):
        assume(any(rs))
        total = 0.0
        for r in rs:
            total += r / (1.0 - r)
        assert fused_existence(rs) == total / (1.0 + total)


def drawn_per_cloud(states, comps):
    """How many of the resampled particles each cloud gave, matching each
    particle to the clouds that hold it."""
    return [int((states[:, None] == c.states).all(axis=2).any(axis=1).sum()) for c in comps]


class TestFuseSpatial:
    # fuse_spatial resamples the odds-weighted union, so each claim is read
    # off the resampled particles: systematic resampling draws from a cloud
    # within one of its mass times the count

    def test_identical_clouds_preserved(self):
        a = cloud((0, 0), 0.5, seed=1)
        b = Component(a.label, 0.5, a.states.copy(), a.weights.copy())
        states, weights = fuse_spatial([a, b], 100)
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        # both halves carry equal mass over the same atoms: each atom is
        # drawn within one of its mass in a times the count
        copies = (states[:, None] == a.states).all(axis=2).sum(axis=0)
        assert copies.sum() == 100 and np.all(np.abs(copies - 100 * a.weights) <= 1)

    @given(st.lists(unit_prob, min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_odds_weighted_mass(self, rs):
        comps = [cloud((100 * i, 0), r, seed=i) for i, r in enumerate(rs)]
        states, weights = fuse_spatial(comps, 120)
        odds = np.array([r / (1.0 - r) for r in rs])
        shares = odds / odds.sum() if odds.sum() > 0 else np.full(len(rs), 1.0 / len(rs))
        drawn = drawn_per_cloud(states, comps)
        assert sum(drawn) == 120
        assert np.all(np.abs(np.array(drawn) - 120 * shares) <= 1)

    def test_single_cloud_identity(self):
        a = cloud((3, 4), 0.7)
        states, weights = fuse_spatial([a], len(a.weights))
        assert np.array_equal(states, a.states)
        assert np.allclose(weights, a.weights)

    def test_zero_odds_share_equally(self):
        a = cloud((0, 0), 0.0, seed=1)
        b = cloud((100, 100), 0.0, seed=2)
        states, weights = fuse_spatial([a, b], 50)
        assert drawn_per_cloud(states, [a, b]) == [25, 25]

    def test_resampled_output_size(self):
        a = cloud((0, 0), 0.6, seed=1)
        b = cloud((1, 1), 0.6, seed=2)
        states, weights = fuse_spatial([a, b], 80)
        assert states.shape == (80, 4)
        assert np.allclose(weights, 1.0 / 80)


def active_set_reference(state, fov, updated, predicted):
    """The label-keyed form of the active-set rule: updated and predicted map
    label -> (x, y); returns the set of labels the sensor is active for."""
    labels = [*updated, *predicted]
    pd = detection_probabilities(fov, state, [*updated.values(), *predicted.values()])
    return {label for label, p in zip(labels, pd) if p > fov.p_d_threshold}


OMNI_FOV = FovModel(rho_max=500.0, theta_max=math.pi, p_d_max=0.99, k_rho=0.5, k_theta=20.0)
NO_ESTIMATE = (math.nan, math.nan)


class TestComputeActiveSet:
    INSIDE, OUTSIDE = (0.0, 300.0), (0.0, -300.0)

    def active(self, updated, predicted, state=SensorState(0, 0, 0), fov=FOV):
        updated = np.array(updated, dtype=float).reshape(-1, 2)
        predicted = np.array(predicted, dtype=float).reshape(-1, 2)
        return compute_active_set(state, fov, updated, predicted).tolist()

    def test_updated_estimate_inside_one_fov(self):
        assert self.active([self.INSIDE], [NO_ESTIMATE]) == [True]
        assert self.active([self.INSIDE], [NO_ESTIMATE], SensorState(0, 0, math.pi)) == [False]

    def test_predicted_estimate_rescues_sensor(self):
        assert self.active([self.OUTSIDE], [self.INSIDE]) == [True]

    def test_both_outside_everywhere(self):
        assert self.active([self.OUTSIDE], [self.OUTSIDE]) == [False]

    def test_labels_judged_one_by_one(self):
        both = [NO_ESTIMATE, NO_ESTIMATE]
        assert self.active([self.INSIDE, self.OUTSIDE], both) == [True, False]
        assert self.active([], []) == []

    def test_range_edge_is_inactive(self):
        # at the range edge the detection probability is 0.49, below 0.5
        assert self.active([(0.0, 500.0)], [NO_ESTIMATE]) == [False]

    @pytest.mark.parametrize("fov", [FOV, OMNI_FOV], ids=["sector", "omni"])
    def test_no_estimate_is_never_active(self, fov):
        # a NaN position has detection probability 0, with no warning
        state = SensorState(1.0, 2.0, 0.3)
        assert detection_probabilities(fov, state, [NO_ESTIMATE]).tolist() == [0.0]
        assert self.active([NO_ESTIMATE], [NO_ESTIMATE], state, fov) == [False]

    @given(
        st.lists(
            st.tuples(
                st.floats(-math.pi, math.pi),
                st.one_of(st.floats(0.0, 700.0), st.sampled_from([499.9, 500.0, 500.1])),
                st.floats(-math.pi, math.pi),
                st.one_of(st.none(), st.floats(0.0, 700.0)),
            ),
            max_size=8,
        ),
        st.sampled_from([FOV, OMNI_FOV]),
        st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_mask_equals_label_keyed_rule(self, rows, fov, bearing):
        # row k holds label k; a None predicted range means no predicted
        # estimate: a NaN row in the mask form, no entry in the label form
        state = SensorState(10.0, -20.0, bearing)
        labels = [Label(0, k, 0) for k in range(len(rows))]

        def at(angle, rho):
            return (state.x + rho * math.sin(angle), state.y + rho * math.cos(angle))

        updated = [at(a, rho) for a, rho, _b, _p in rows]
        predicted = [NO_ESTIMATE if p is None else at(b, p) for _a, _rho, b, p in rows]
        expected = active_set_reference(
            state,
            fov,
            {label: np.array(xy) for label, xy in zip(labels, updated)},
            {label: np.array(xy) for label, xy in zip(labels, predicted) if not np.isnan(xy[0])},
        )
        mask = self.active(updated, predicted, state, fov)
        assert mask == [label in expected for label in labels]


@st.composite
def local_densities(draw):
    """Up to three sensors' densities over four labels, rows in any order,
    with their row masks; existences include 0 and 1."""
    labels = [Label(0, i, 0) for i in range(4)]
    existence = st.sampled_from([0.0, 0.25, 1.0]) | unit_prob
    locals_, active = {}, {}
    for s in range(1, draw(st.integers(1, 3)) + 1):
        held = draw(st.permutations(labels))[: draw(st.integers(0, len(labels)))]
        comps = [cloud((30 * l.index, 300), draw(existence), l, n=4, seed=s) for l in held]
        locals_[s] = density(comps)
        active[s] = np.array([draw(st.booleans()) for _ in comps], dtype=bool)
    return locals_, active


def masks(locals_, *active):
    """Row masks that set every row of the given sensors and no other."""
    return {s: np.full(len(d.labels), s in active) for s, d in locals_.items()}


class TestFuseLmb:
    LABEL = Label(0, 0, 0)

    def make_locals(self, existences, centers=None):
        locals_ = {}
        for i, r in enumerate(existences):
            center = (0, 300) if centers is None else centers[i]
            locals_[i + 1] = density([cloud(center, r, self.LABEL, seed=i)])
        return locals_

    def test_two_active_sensors_fuse(self):
        locals_ = self.make_locals([0.5, 0.5])
        fused = fuse_lmb(locals_, masks(locals_, 1, 2), 0.0)
        assert fused.components[0].existence == pytest.approx(2.0 / 3.0)
        assert fused.role == "fused"

    def test_single_active_sensor_copies(self):
        locals_ = self.make_locals([0.5, 0.9])
        fused = fuse_lmb(locals_, masks(locals_, 2), 0.0)
        [got], [want] = fused.components, locals_[2].components
        assert got.label == want.label and got.existence == want.existence
        np.testing.assert_array_equal(got.states, want.states)
        np.testing.assert_array_equal(got.weights, want.weights)

    def test_empty_active_update_uses_all_holders(self):
        locals_ = self.make_locals([0.5, 0.5])
        fused = fuse_lmb(locals_, masks(locals_), 0.0)
        assert fused.components[0].existence == pytest.approx(2.0 / 3.0)

    def test_death_observed_by_only_active_sensor(self):
        # the sole active sensor saw the death; its low existence wins
        locals_ = self.make_locals([0.05, 0.95, 0.9])
        fused = fuse_lmb(locals_, masks(locals_, 1), 0.0)
        assert fused.components[0].existence == pytest.approx(0.05)

    def test_masks_judge_each_row(self):
        # label 0: only sensor 2 is active; label 1: no sensor is, so both fuse
        labels = [Label(0, 0, 0), Label(0, 1, 0)]
        locals_ = {
            s: density([cloud((i * 30, 300), r, labels[i], seed=s + i) for i in range(2)])
            for s, r in ((1, 0.5), (2, 0.8))
        }
        active = {1: np.array([False, False]), 2: np.array([True, False])}
        fused = fuse_lmb(locals_, active, 0.0)
        assert fused.existences.tolist() == [0.8, pytest.approx(5.0 / 6.0)]  # odds 1 + 4

    def test_inconsistent_timestamps_rejected(self):
        locals_ = {
            1: density([cloud((0, 0), 0.5)], timestamp=1),
            2: density([cloud((0, 0), 0.5)], timestamp=2),
        }
        with pytest.raises(ValueError):
            fuse_lmb(locals_, masks(locals_), 0.0)

    def test_output_labels_distinct_and_valid(self):
        labels = [Label(0, i, 0) for i in range(3)]
        locals_ = {
            1: density([cloud((i * 30, 300), 0.6, labels[i], seed=i) for i in range(3)]),
            2: density([cloud((i * 30, 300), 0.7, labels[i], seed=5 + i) for i in range(3)]),
        }
        fused = fuse_lmb(locals_, masks(locals_, 1, 2), 0.0)
        validate(fused)
        assert fused.labels == tuple(labels)
        assert fused.states.shape == (3, 50, 4)

    def test_floor_drops_labels_before_spatial_fusion(self, monkeypatch):
        # odds 0.25 + 0.25 fuse to existence 1/3
        calls = []
        monkeypatch.setattr(fusion, "fuse_spatial", lambda *a: calls.append(a) or fuse_spatial(*a))
        locals_ = self.make_locals([0.2, 0.2])
        assert fuse_lmb(locals_, masks(locals_, 1, 2), 0.34).labels == ()
        assert not calls
        fused = fuse_lmb(locals_, masks(locals_, 1, 2), 1.0 / 3.0)
        assert fused.labels == (self.LABEL,) and len(calls) == 1
        # a copied component is held to the floor too
        assert fuse_lmb(locals_, masks(locals_, 2), 0.21).labels == ()
        assert fuse_lmb(locals_, masks(locals_, 2), 0.2).labels == (self.LABEL,)

    @given(local_densities(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_floor_equals_pruning_after_fusion(self, case, data):
        locals_, active = case
        everything = fuse_lmb(locals_, active, 0.0)
        # floors exactly at a fused existence test the boundary
        exact = st.sampled_from([0.0, *everything.existences.tolist()]).filter(lambda r: r < 1.0)
        floor = data.draw(st.floats(0.0, 1.0, exclude_max=True) | exact)
        got = fuse_lmb(locals_, active, floor)
        want = prune(everything, floor, len(everything.labels) or 1)
        assert got.labels == want.labels
        for name in ("existences", "states", "weights"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_locals_of_different_particle_counts_rejected(self):
        locals_ = {1: density([cloud((0, 300), 0.5, n=50)]),
                   2: density([cloud((0, 300), 0.5, Label(0, 1, 0), n=40)])}
        with pytest.raises(ValueError, match="different particle counts"):
            fuse_lmb(locals_, masks(locals_), 0.0)


class TestAssociateLabels:
    def test_simultaneous_births_merge(self):
        a = Label(5, 0, 0)
        b = Label(5, 0, 1)
        locals_ = {
            0: density([cloud((100, 100), 0.8, a)], timestamp=5),
            1: density([cloud((100.7, 100.7), 0.7, b)], timestamp=5),
        }
        out = associate_labels(locals_, 10.0, current_step=5)
        assert set(out[0].labels) == {a}
        assert set(out[1].labels) == {a}

    def test_distant_targets_untouched(self):
        a = Label(5, 0, 0)
        b = Label(5, 0, 1)
        locals_ = {
            0: density([cloud((0, 0), 0.8, a)], timestamp=5),
            1: density([cloud((500, 0), 0.7, b)], timestamp=5),
        }
        out = associate_labels(locals_, 10.0, current_step=5)
        assert set(out[0].labels) == {a}
        assert set(out[1].labels) == {b}

    def test_single_sensor_identity(self):
        a = Label(5, 0, 0)
        locals_ = {0: density([cloud((0, 0), 0.8, a)], timestamp=5)}
        out = associate_labels(locals_, 10.0, current_step=5)
        assert out[0] is locals_[0]

    def test_fresh_birth_adopts_established_track(self):
        established = Label(1, 0, 0)
        fresh = Label(40, 2, 1)
        locals_ = {
            0: density([cloud((200, 200), 0.9, established)], timestamp=40),
            1: density([cloud((204, 200), 0.3, fresh)], timestamp=40),
        }
        out = associate_labels(locals_, 10.0, current_step=40)
        assert set(out[1].labels) == {established}

    def test_established_tracks_never_merge(self):
        a = Label(1, 0, 0)
        b = Label(2, 0, 1)
        locals_ = {
            0: density([cloud((200, 200), 0.9, a)], timestamp=40),
            1: density([cloud((201, 200), 0.9, b)], timestamp=40),
        }
        out = associate_labels(locals_, 10.0, current_step=40)
        assert set(out[0].labels) == {a}
        assert set(out[1].labels) == {b}

    def test_same_origin_never_merges(self):
        a = Label(5, 0, 0)
        b = Label(5, 1, 0)
        locals_ = {0: density([cloud((0, 0), 0.8, a), cloud((1, 1), 0.8, b)], timestamp=5)}
        out = associate_labels(locals_, 10.0, current_step=5)
        assert set(out[0].labels) == {a, b}

    def test_collision_keeps_higher_existence(self):
        # two components of one density mapping onto one canonical label
        a = Label(5, 0, 0)
        b1 = Label(5, 0, 1)
        b2 = Label(5, 1, 1)
        locals_ = {
            0: density([cloud((0, 0), 0.9, a)], timestamp=5),
            1: density([cloud((2, 0), 0.3, b1), cloud((0, 2), 0.6, b2)], timestamp=5),
        }
        out = associate_labels(locals_, 10.0, current_step=5)
        assert set(out[1].labels) == {a}
        assert out[1].components[0].existence == pytest.approx(0.6)


def associate_labels_reference(locals_, merge_distance, current_step):
    """Per-pair scan reference for associate_labels."""
    densities = dict(locals_)
    if not densities:
        return {}
    best_holder = {}
    for s in sorted(densities):
        for c in densities[s].components:
            cur = best_holder.get(c.label)
            if cur is None or c.existence > cur[0]:
                best_holder[c.label] = (c.existence, c.weights @ c.states[:, :2])
    positions = {label: pos for label, (_r, pos) in best_holder.items()}
    labels = sorted(positions)

    def is_fresh(label):
        return label.birth_time >= current_step - 1

    parent = {l: l for l in labels}

    def find(l):
        while parent[l] != l:
            parent[l] = parent[parent[l]]
            l = parent[l]
        return l

    for lf in filter(is_fresh, labels):
        best = None
        pf = positions[lf]
        for other in labels:
            if other is lf:
                continue
            if is_fresh(other) and other.origin_sensor == lf.origin_sensor:
                continue
            d = float(np.hypot(*(positions[other] - pf)))
            if d <= merge_distance and (best is None or (d, other) < best):
                best = (d, other)
        if best is not None:
            a, b = find(lf), find(best[1])
            if a != b:
                root, child = (a, b) if a < b else (b, a)
                parent[child] = root

    mapping = {l: find(l) for l in labels}
    if all(k == v for k, v in mapping.items()):
        return densities
    out = {}
    for s, density in densities.items():
        merged = {}
        for c in density.components:
            canon = mapping[c.label]
            prev = merged.get(canon)
            if prev is None or (-c.existence, c.label) < (-prev[1].existence, prev[0]):
                merged[canon] = (c.label, c._replace(label=canon))
        out[s] = LmbDensity.from_rows(
            [merged[k][1] for k in sorted(merged)], density.timestamp, density.role
        )
    return out


def point(label, xy, existence):
    """One-particle component: its mean position is exactly xy."""
    return Component(label, existence, np.array([[*xy, 0.0, 0.0]]), np.ones(1))


@st.composite
def label_sets(draw):
    """Per-sensor densities on an integer grid, so distance ties and
    distances exactly at the merge gate (3-4-5 triangles) occur often."""
    n_sensors = draw(st.integers(1, 4))
    label = st.builds(Label, st.integers(2, 6), st.integers(0, 2), st.integers(0, n_sensors - 1))
    locals_ = {}
    for s in range(n_sensors):
        comps = draw(st.dictionaries(label, st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=6))
        existence = st.sampled_from([0.3, 0.6, 0.9])
        locals_[s] = density(
            [point(l, xy, draw(existence)) for l, xy in sorted(comps.items())], timestamp=6
        )
    return locals_


def assert_same_densities(got, expected):
    """Equal labels, existences and particles per sensor, which also pins
    the label mapping: each output label is the canonical one of its input."""
    assert got.keys() == expected.keys()
    for s in expected:
        assert got[s].timestamp == expected[s].timestamp and got[s].role == expected[s].role
        assert [c.label for c in got[s].components] == [c.label for c in expected[s].components]
        for a, b in zip(got[s].components, expected[s].components):
            assert a.existence == b.existence
            np.testing.assert_array_equal(a.states, b.states)
            np.testing.assert_array_equal(a.weights, b.weights)


class TestAssociateLabelsOracle:
    @settings(max_examples=300, deadline=None)
    @given(locals_=label_sets(), merge_distance=st.sampled_from([0.0, 3.0, 5.0, 10.0]), step=st.integers(5, 8))
    def test_matches_pair_scan(self, locals_, merge_distance, step):
        assert_same_densities(
            associate_labels(locals_, merge_distance, current_step=step),
            associate_labels_reference(locals_, merge_distance, current_step=step),
        )

    def test_equal_distance_tie_goes_to_lower_label(self):
        fresh = Label(5, 0, 2)
        low, high = Label(1, 0, 0), Label(1, 0, 1)
        locals_ = {
            0: density([point(high, (8, 0), 0.9), point(low, (-8, 0), 0.9)], timestamp=5),
            2: density([point(fresh, (0, 0), 0.5)], timestamp=5),
        }
        out = associate_labels(locals_, 10.0, current_step=5)
        assert set(out[2].labels) == {low}
        assert_same_densities(out, associate_labels_reference(locals_, 10.0, current_step=5))

    def test_fresh_labels_of_one_sensor_skip_each_other(self):
        # a's nearest label is its same-sensor sibling b; it merges onto c
        a, b, c = Label(5, 0, 0), Label(5, 1, 0), Label(5, 0, 1)
        locals_ = {
            0: density([point(a, (0, 0), 0.9), point(b, (4, 0), 0.9)], timestamp=5),
            1: density([point(c, (-7, 0), 0.9)], timestamp=5),
        }
        out = associate_labels(locals_, 10.0, current_step=5)
        assert set(out[1].labels) == {a}
        assert set(out[0].labels) == {a, b}
        assert_same_densities(out, associate_labels_reference(locals_, 10.0, current_step=5))

    @pytest.mark.parametrize("gate,merged", [(5.0, True), (4.999, False)])
    def test_gate_is_inclusive(self, gate, merged):
        a, b = Label(5, 0, 0), Label(5, 0, 1)
        locals_ = {
            0: density([point(a, (0, 0), 0.9)], timestamp=5),
            1: density([point(b, (3, 4), 0.9)], timestamp=5),
        }
        out = associate_labels(locals_, gate, current_step=5)
        assert set(out[1].labels) == ({a} if merged else {b})
        assert_same_densities(out, associate_labels_reference(locals_, gate, current_step=5))

    def test_no_fresh_labels_returns_input(self):
        locals_ = {
            0: density([point(Label(1, 0, 0), (0, 0), 0.9)], timestamp=30),
            1: density([point(Label(2, 0, 1), (0, 0), 0.9)], timestamp=30),
        }
        out = associate_labels(locals_, 10.0, current_step=30)
        assert out == locals_
        assert all(out[s] is locals_[s] for s in locals_)
