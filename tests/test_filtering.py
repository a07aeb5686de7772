import itertools
import math

import numpy as np
import pytest

from sentrack.filtering import (
    FilterConfig,
    _exact_marginals,
    _ranked_marginals,
    generate_pims,
    murty_assignments,
    predict,
    pseudo_update,
    update,
)
from sentrack.lmb import BernoulliComponent, Label, LmbDensity, empty_density
from sentrack.sensors import (
    FovModel,
    MotionModel,
    SensorState,
    detection_probabilities,
)

FOV = FovModel(rho_max=500.0, theta_max=math.pi / 4, p_d_max=0.99, k_rho=0.5, k_theta=20.0)
SENSOR = SensorState(0.0, 0.0, 0.0)
MOTION = MotionModel(period=1.0, process_noise_std=1.0, survival_probability=0.99)
CFG = FilterConfig(
    clutter_intensity=2.5e-5,
    birth_existence=0.1,
    birth_particle_std=10.0,
    birth_velocity_std=10.0,
    association_gate=50.0,
    particle_count=200,
    meas_noise_std=5.0,
)


def cloud(center, existence, label=Label(0, 0, 0), n=200, spread=8.0, seed=0):
    rng = np.random.default_rng(seed)
    states = np.zeros((n, 4))
    states[:, :2] = np.asarray(center, dtype=float) + rng.normal(0, spread, (n, 2))
    return BernoulliComponent(label, existence, states, np.full(n, 1.0 / n))


def predicted_density(components, timestamp=1):
    return LmbDensity(tuple(components), timestamp, "predicted")


class TestFilterConfig:
    @pytest.mark.parametrize(
        "name,value",
        [
            ("existence_floor", -0.1),
            ("existence_floor", 1.0),
            ("max_components", 0),
            ("exact_enum_limit", 0),
            ("assoc_max_hypotheses", 0),
        ],
    )
    def test_out_of_range_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            FilterConfig(clutter_intensity=0.0, **{name: value})

    def test_smallest_valid_values_accepted(self):
        FilterConfig(
            clutter_intensity=0.0,
            existence_floor=0.0,
            max_components=1,
            exact_enum_limit=1,
            assoc_max_hypotheses=1,
        )


class TestPredict:
    def test_birth_into_empty_prior(self):
        birth = cloud((0, 300), 0.1)
        out = predict(empty_density(0, "posterior"), MOTION, [birth], np.random.default_rng(0))
        assert len(out.components) == 1
        assert out.components[0].existence == pytest.approx(0.1)
        assert out.role == "predicted" and out.timestamp == 1

    def test_survival_scaling(self):
        prior = LmbDensity((cloud((0, 300), 0.5),), 0, "posterior")
        out = predict(prior, MOTION, [], np.random.default_rng(0))
        assert out.components[0].existence == pytest.approx(0.5 * 0.99)

    def test_noiseless_shift_by_velocity(self):
        c = cloud((0, 300), 0.5)
        states = c.states.copy()
        states[:, 2:] = [3.0, -2.0]
        prior = LmbDensity(
            (BernoulliComponent(c.label, 0.5, states, c.weights),), 0, "posterior"
        )
        quiet = MotionModel(period=1.0, process_noise_std=1e-12, survival_probability=0.99)
        out = predict(prior, quiet, [], None)
        assert np.allclose(out.components[0].states[:, 0], states[:, 0] + 3.0)
        assert np.allclose(out.components[0].states[:, 1], states[:, 1] - 2.0)

    def test_label_collision_rejected(self):
        prior = LmbDensity((cloud((0, 300), 0.5),), 0, "posterior")
        with pytest.raises(ValueError):
            predict(prior, MOTION, [cloud((5, 5), 0.1)], np.random.default_rng(0))


class TestUpdate:
    def test_component_outside_fov_unchanged(self):
        behind = cloud((0, -300), 0.7)  # behind the sensor, p_D = 0
        pred = predicted_density([behind])
        out = update(pred, [np.array([0.0, 250.0])], SENSOR, FOV, CFG,
                     np.random.default_rng(0), origin=0)
        same = out.by_label()[behind.label]
        assert same is pred.components[0]

    def test_miss_update_matches_bernoulli_algebra(self):
        c = cloud((0, 300), 0.8)
        pred = predicted_density([c])
        out = update(pred, [], SENSOR, FOV, CFG, np.random.default_rng(0), origin=0)
        # independent oracle: r (1 - pbar) / (1 - r pbar) with pbar the
        # weighted mean detection probability over the particles
        pd = detection_probabilities(FOV, SENSOR, c.states[:, :2])
        pbar = float(c.weights @ pd)
        expected = 0.8 * (1 - pbar) / (1 - 0.8 * pbar)
        assert out.by_label()[c.label].existence == pytest.approx(expected, rel=1e-12)

    def test_detection_raises_existence(self):
        c = cloud((0, 300), 0.5)
        pred = predicted_density([c])
        z = c.mean_position() - SENSOR.position
        out = update(pred, [z], SENSOR, FOV, CFG, np.random.default_rng(0), origin=0)
        assert out.by_label()[c.label].existence > 0.9

    def test_existences_stay_in_unit_interval(self):
        rng = np.random.default_rng(4)
        comps = [
            cloud(rng.uniform(-200, 200, 2) + [0, 250], rng.uniform(0.05, 0.99),
                  label=Label(0, i, 0), seed=i)
            for i in range(4)
        ]
        pred = predicted_density(comps)
        meas = [rng.normal(0, 150, 2) + [0, 250] for _ in range(6)]
        out = update(pred, meas, SENSOR, FOV, CFG, rng, origin=0)
        for c in out.components:
            assert 0.0 <= c.existence <= 1.0

    def test_adaptive_birth_on_ungated_measurement(self):
        pred = predicted_density([cloud((0, 300), 0.9)])
        far = np.array([200.0, 150.0])  # > association gate from the component
        out = update(pred, [far], SENSOR, FOV, CFG, np.random.default_rng(0), origin=3)
        births = [c for c in out.components if c.label.birth_time == 1]
        assert len(births) == 1
        assert births[0].label == Label(1, 0, 3)
        assert births[0].existence == pytest.approx(CFG.birth_existence)
        center = births[0].mean_position()
        assert np.linalg.norm(center - (SENSOR.position + far)) < 5.0

    def test_gated_measurement_spawns_no_birth(self):
        c = cloud((0, 300), 0.9)
        pred = predicted_density([c])
        z = c.mean_position() - SENSOR.position + np.array([3.0, -2.0])
        out = update(pred, [z], SENSOR, FOV, CFG, np.random.default_rng(0), origin=0)
        assert out.labels() == pred.labels()


class TestPseudoUpdate:
    def test_matches_update_on_same_measurements(self):
        comps = [cloud((0, 300), 0.6), cloud((100, 250), 0.4, label=Label(0, 1, 0), seed=2)]
        pred = predicted_density(comps)
        meas = [np.array([0.0, 300.0]), np.array([100.0, 250.0])]
        via_update = update(pred, meas, SENSOR, FOV, CFG, np.random.default_rng(0), origin=0)
        via_pseudo = pseudo_update(pred, meas, SENSOR, FOV, CFG)
        for label in pred.labels():
            a, b = via_update.by_label()[label], via_pseudo.by_label()[label]
            assert a.existence == pytest.approx(b.existence, rel=1e-12)
            assert np.allclose(a.weights, b.weights)

    def test_covered_existences_rise(self):
        pred = predicted_density([cloud((0, 300), 0.5)])
        pims = generate_pims(pred, SENSOR, FOV)
        out = pseudo_update(pred, pims, SENSOR, FOV, CFG)
        assert out.components[0].existence > 0.9

    def test_empty_pims_drops_in_fov_existence(self):
        pred = predicted_density([cloud((0, 300), 0.9)])
        out = pseudo_update(pred, [], SENSOR, FOV, CFG)
        assert out.components[0].existence < 0.5

    def test_out_of_fov_unchanged_and_no_birth(self):
        behind = cloud((0, -300), 0.7)
        pred = predicted_density([behind])
        out = pseudo_update(pred, [np.array([50.0, 50.0])], SENSOR, FOV, CFG)
        assert out.by_label()[behind.label] is pred.components[0]
        assert out.labels() == pred.labels()
        assert out.role == "pseudo-posterior"


class TestGeneratePims:
    def test_zero_action_measurement(self):
        pred = predicted_density([cloud((0, 300), 0.9, spread=1e-9)])
        [z] = generate_pims(pred, SENSOR, FOV)
        assert np.allclose(z, [0.0, 300.0], atol=1e-6)

    def test_rotated_away_object_missed(self):
        pred = predicted_density([cloud((0, 300), 0.9)])
        rotated = SensorState(0.0, 0.0, math.pi)  # facing away
        assert generate_pims(pred, rotated, FOV) == []

    def test_translation_shifts_measurement(self):
        pred = predicted_density([cloud((0, 300), 0.9, spread=1e-9)])
        moved = SensorState(10.0, 0.0, 0.0)
        [z] = generate_pims(pred, moved, FOV)
        assert np.allclose(z, [-10.0, 300.0], atol=1e-6)

    def test_low_existence_components_not_estimated(self):
        pred = predicted_density(
            [cloud((0, 300), 0.9), cloud((50, 300), 0.1, label=Label(0, 1, 0))]
        )
        assert len(generate_pims(pred, SENSOR, FOV)) == 1


class TestAssociationMarginals:
    @staticmethod
    def brute_force(events_per_comp):
        """Enumerate matchings directly from (event, weight) lists."""
        n = len(events_per_comp)
        total = 0.0
        sums = [dict() for _ in range(n)]

        def rec(i, used, weight, chosen):
            nonlocal total
            if i == n:
                total += weight
                for k, ev in enumerate(chosen):
                    sums[k][ev] = sums[k].get(ev, 0.0) + weight
                return
            for ev, w in events_per_comp[i]:
                if ev is not None and ev in used:
                    continue
                rec(i + 1, used | ({ev} if ev is not None else set()), weight * w, chosen + [ev])

        rec(0, frozenset(), 1.0, [])
        return [{e: v / total for e, v in s.items()} for s in sums]

    class FakeTerms:
        def __init__(self, no_det, det):
            self.no_det_weight = no_det
            self.det_weights = det

    def _random_terms(self, rng, n_comp, n_meas):
        terms = []
        for _ in range(n_comp):
            det = {
                j: float(rng.uniform(0.1, 20.0))
                for j in range(n_meas)
                if rng.random() < 0.7
            }
            terms.append(self.FakeTerms(float(rng.uniform(0.05, 1.0)), det))
        return terms

    @pytest.mark.parametrize("trial", range(20))
    def test_exact_matches_brute_force(self, trial):
        rng = np.random.default_rng(trial)
        terms = self._random_terms(rng, rng.integers(1, 4), rng.integers(0, 4))
        events = [
            [(None, t.no_det_weight)] + sorted(t.det_weights.items()) for t in terms
        ]
        expected = self.brute_force(events)
        got = _exact_marginals(terms)
        for e, g in zip(expected, got):
            assert set(e) == set(g)
            for k in e:
                assert g[k] == pytest.approx(e[k], abs=1e-12)

    @pytest.mark.parametrize("trial", range(10))
    def test_ranked_converges_to_exact(self, trial):
        rng = np.random.default_rng(100 + trial)
        terms = self._random_terms(rng, 3, 3)
        exact = _exact_marginals(terms)
        ranked = _ranked_marginals(terms, 10_000)  # enough to cover all matchings
        for e, g in zip(exact, ranked):
            for k in e:
                assert g.get(k, 0.0) == pytest.approx(e[k], abs=1e-9)


class TestMurty:
    @pytest.mark.parametrize("trial", range(15))
    def test_orders_all_assignments(self, trial):
        rng = np.random.default_rng(trial)
        n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        if n > m:
            n, m = m, n
        cost = rng.uniform(0, 10, (n, m))
        got = murty_assignments(cost, 10_000)
        brute = sorted(
            (sum(cost[i, p[i]] for i in range(n)), tuple(p))
            for p in itertools.permutations(range(m), n)
        )
        assert len(got) == len(brute)
        for (gc, _), (bc, _) in zip(got, brute):
            assert gc == pytest.approx(bc, abs=1e-9)

    def test_infeasible_cells_avoided(self):
        cost = np.array([[1.0, np.inf], [np.inf, 1.0]])
        [(total, assign)] = murty_assignments(cost, 5)
        assert assign == (0, 1)
        assert total == pytest.approx(2.0)
