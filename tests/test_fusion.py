import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentrack.fusion import (
    associate_labels,
    compute_active_set,
    fuse_existence,
    fuse_lmb,
    fuse_spatial,
)
from sentrack.lmb import BernoulliComponent, Label, LmbDensity
from sentrack.sensors import FovModel, SensorState

FOV = FovModel(rho_max=500.0, theta_max=math.pi / 4, p_d_max=0.99, k_rho=0.5, k_theta=20.0)

unit_prob = st.floats(min_value=0.0, max_value=0.999, allow_nan=False)


def cloud(center, existence, label=Label(0, 0, 0), n=50, spread=5.0, seed=0):
    rng = np.random.default_rng(seed)
    states = np.zeros((n, 4))
    states[:, :2] = np.asarray(center, dtype=float) + rng.normal(0, spread, (n, 2))
    return BernoulliComponent(label, existence, states, np.full(n, 1.0 / n))


def density(comps, timestamp=1, role="posterior"):
    return LmbDensity(tuple(comps), timestamp, role)


class TestFuseExistence:
    def test_half_half(self):
        assert fuse_existence([0.5, 0.5]) == pytest.approx(2.0 / 3.0)

    def test_singleton_identity(self):
        assert fuse_existence([0.9]) == pytest.approx(0.9, abs=1e-15)

    def test_zeros(self):
        assert fuse_existence([0.0, 0.0]) == 0.0

    def test_saturates_at_one(self):
        assert fuse_existence([1.0, 0.3]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fuse_existence([])

    @given(st.lists(unit_prob, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_never_lowers_belief(self, rs):
        assert fuse_existence(rs) >= max(rs) - 1e-12

    @given(st.lists(unit_prob, min_size=2, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_symmetric(self, rs):
        assert fuse_existence(rs) == pytest.approx(fuse_existence(rs[::-1]), abs=1e-12)

    @given(unit_prob, unit_prob, st.floats(min_value=0.0, max_value=0.4))
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_each_argument(self, a, b, bump):
        lo = fuse_existence([a, b])
        hi = fuse_existence([min(a + bump, 0.999), b])
        assert hi >= lo - 1e-12

    @given(st.floats(min_value=0.0, max_value=0.999))
    @settings(max_examples=100, deadline=None)
    def test_singleton_identity_property(self, r):
        assert fuse_existence([r]) == pytest.approx(r, abs=1e-12)


class TestFuseSpatial:
    def test_identical_clouds_preserved(self):
        a = cloud((0, 0), 0.5, seed=1)
        b = BernoulliComponent(a.label, 0.5, a.states.copy(), a.weights.copy())
        states, weights = fuse_spatial([a, b])
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        # both halves carry equal mass over the same atoms
        assert np.allclose(weights[:50] + weights[50:], a.weights)

    def test_odds_weighted_mass(self):
        a = cloud((0, 0), 0.9, seed=1)
        b = cloud((100, 100), 0.1, seed=2)
        states, weights = fuse_spatial([a, b])
        share = weights[:50].sum()
        assert share == pytest.approx(9.0 / (9.0 + 1.0 / 9.0), abs=1e-9)

    def test_single_cloud_identity(self):
        a = cloud((3, 4), 0.7)
        states, weights = fuse_spatial([a])
        assert np.array_equal(states, a.states)
        assert np.allclose(weights, a.weights)

    def test_zero_odds_rejected(self):
        a = cloud((0, 0), 0.0)
        with pytest.raises(ValueError):
            fuse_spatial([a, a])

    def test_resampled_output_size(self):
        a = cloud((0, 0), 0.6, seed=1)
        b = cloud((1, 1), 0.6, seed=2)
        states, weights = fuse_spatial([a, b], particle_count=80)
        assert states.shape == (80, 4)
        assert np.allclose(weights, 1.0 / 80)


class TestComputeActiveSet:
    LABEL = Label(0, 0, 0)

    def test_updated_estimate_inside_one_fov(self):
        est = {self.LABEL: np.array([0.0, 300.0])}
        assert compute_active_set(SensorState(0, 0, 0), FOV, est, {}) == {self.LABEL}
        assert compute_active_set(SensorState(0, 0, math.pi), FOV, est, {}) == set()

    def test_predicted_estimate_rescues_sensor(self):
        outside = {self.LABEL: np.array([0.0, -300.0])}
        inside = {self.LABEL: np.array([0.0, 300.0])}
        sensor = SensorState(0, 0, 0)
        assert compute_active_set(sensor, FOV, outside, inside) == {self.LABEL}

    def test_both_outside_everywhere(self):
        outside = {self.LABEL: np.array([0.0, -300.0])}
        assert compute_active_set(SensorState(0, 0, 0), FOV, outside, outside) == set()

    def test_labels_judged_one_by_one(self):
        other = Label(0, 1, 0)
        updated = {self.LABEL: np.array([0.0, 300.0]), other: np.array([0.0, -300.0])}
        assert compute_active_set(SensorState(0, 0, 0), FOV, updated, {}) == {self.LABEL}
        assert compute_active_set(SensorState(0, 0, 0), FOV, {}, {}) == set()

    def test_range_edge_is_inactive(self):
        # at the range edge the detection probability is 0.49, below 0.5
        edge = {self.LABEL: np.array([0.0, 500.0])}
        assert compute_active_set(SensorState(0, 0, 0), FOV, edge, {}) == set()


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
        fused = fuse_lmb(locals_, {self.LABEL: {1, 2}}, "pseudo")
        assert fused.components[0].existence == pytest.approx(2.0 / 3.0)
        assert fused.role == "fused"

    def test_single_active_sensor_copies(self):
        locals_ = self.make_locals([0.5, 0.9])
        fused = fuse_lmb(locals_, {self.LABEL: {2}}, "pseudo")
        assert fused.components[0] is locals_[2].components[0]

    def test_empty_active_pseudo_omits(self):
        locals_ = self.make_locals([0.5, 0.5])
        fused = fuse_lmb(locals_, {}, "pseudo")
        assert fused.components == ()

    def test_empty_active_update_uses_all_holders(self):
        locals_ = self.make_locals([0.5, 0.5])
        fused = fuse_lmb(locals_, {}, "update")
        assert fused.components[0].existence == pytest.approx(2.0 / 3.0)

    def test_death_observed_by_only_active_sensor(self):
        # the sole active sensor saw the death; its low existence wins
        locals_ = self.make_locals([0.05, 0.95, 0.9])
        fused = fuse_lmb(locals_, {self.LABEL: {1}}, "update")
        assert fused.components[0].existence == pytest.approx(0.05)

    def test_inconsistent_timestamps_rejected(self):
        locals_ = {
            1: density([cloud((0, 0), 0.5)], timestamp=1),
            2: density([cloud((0, 0), 0.5)], timestamp=2),
        }
        with pytest.raises(ValueError):
            fuse_lmb(locals_, {}, "update")

    def test_output_labels_distinct_and_valid(self):
        labels = [Label(0, i, 0) for i in range(3)]
        locals_ = {
            1: density([cloud((i * 30, 300), 0.6, labels[i], seed=i) for i in range(3)]),
            2: density([cloud((i * 30, 300), 0.7, labels[i], seed=5 + i) for i in range(3)]),
        }
        active = {l: {1, 2} for l in labels}
        fused = fuse_lmb(locals_, active, "update", particle_count=64)
        fused.validate()
        assert fused.labels() == set(labels)


class TestAssociateLabels:
    def test_simultaneous_births_merge(self):
        a = Label(5, 0, 0)
        b = Label(5, 0, 1)
        locals_ = {
            0: density([cloud((100, 100), 0.8, a)], timestamp=5),
            1: density([cloud((100.7, 100.7), 0.7, b)], timestamp=5),
        }
        out = associate_labels(locals_, 10.0, current_step=5)
        assert out[0].labels() == {a}
        assert out[1].labels() == {a}

    def test_distant_targets_untouched(self):
        a = Label(5, 0, 0)
        b = Label(5, 0, 1)
        locals_ = {
            0: density([cloud((0, 0), 0.8, a)], timestamp=5),
            1: density([cloud((500, 0), 0.7, b)], timestamp=5),
        }
        out = associate_labels(locals_, 10.0, current_step=5)
        assert out[0].labels() == {a}
        assert out[1].labels() == {b}

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
        assert out[1].labels() == {established}

    def test_established_tracks_never_merge(self):
        a = Label(1, 0, 0)
        b = Label(2, 0, 1)
        locals_ = {
            0: density([cloud((200, 200), 0.9, a)], timestamp=40),
            1: density([cloud((201, 200), 0.9, b)], timestamp=40),
        }
        out = associate_labels(locals_, 10.0, current_step=40)
        assert out[0].labels() == {a}
        assert out[1].labels() == {b}

    def test_same_origin_never_merges(self):
        a = Label(5, 0, 0)
        b = Label(5, 1, 0)
        locals_ = {0: density([cloud((0, 0), 0.8, a), cloud((1, 1), 0.8, b)], timestamp=5)}
        out = associate_labels(locals_, 10.0, current_step=5)
        assert out[0].labels() == {a, b}

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
        assert out[1].labels() == {a}
        assert out[1].components[0].existence == pytest.approx(0.6)
