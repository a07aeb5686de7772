import dataclasses
import heapq
import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from density_checks import every_row
from sentrack.filtering import (
    FilterConfig,
    PseudoPosterior,
    _exact_marginals,
    _ranked_marginals,
    _RowTerms,
    _single_row_marginals,
    _solve_assignment,
    generate_pims,
    murty_assignments,
    predict,
    pseudo_update,
    update,
)
from sentrack.lmb import (
    EXISTENCE_CEIL,
    STATE_DIM,
    Component,
    Label,
    LmbDensity,
    connected_groups,
    eap_states,
    resample_component,
    row_means,
)
from sentrack.sensors import (
    FovModel,
    MotionModel,
    SensorState,
    detection_probabilities,
    propagate_states,
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
    return Component(label, existence, states, np.full(n, 1.0 / n))


def predicted_density(components, timestamp=1):
    return LmbDensity.from_rows(components, timestamp, "predicted")


def comp_of(density, label):
    return density.components[density.labels.index(label)]


def mean_position(c):
    return c.weights @ c.states[:, :2]


def gathered_log_likelihoods(positions, origin, measurement, noise_std):
    """The tests' own displacement likelihood, from particle positions (..., 2)
    or states (..., 4) and a sensor origin, each (2,) or broadcast."""
    origin, z = np.asarray(origin, dtype=float), np.asarray(measurement, dtype=float)
    ex = (positions[..., 0] - origin[..., 0]) - z[..., 0]
    ey = (positions[..., 1] - origin[..., 1]) - z[..., 1]
    var = noise_std**2
    return -0.5 * (ex * ex + ey * ey) / var - math.log(2.0 * math.pi * var)


def pims(predicted, sensor):
    positions = np.array([state[:2] for _label, state in eap_states(predicted)]).reshape(-1, 2)
    [z] = generate_pims(positions, [sensor], FOV)
    return z


class TestFilterConfig:
    @pytest.mark.parametrize(
        "name,value",
        [
            ("particle_count", 0),
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
    def test_survival_scaling(self):
        prior = LmbDensity.from_rows([cloud((0, 300), 0.5)], 0, "posterior")
        out = predict(prior, MOTION, np.random.default_rng(0))
        assert out.components[0].existence == pytest.approx(0.5 * 0.99)
        assert out.role == "predicted" and out.timestamp == 1

    def test_noiseless_shift_by_velocity(self):
        c = cloud((0, 300), 0.5)
        states = c.states.copy()
        states[:, 2:] = [3.0, -2.0]
        prior = LmbDensity.from_rows([c._replace(states=states)], 0, "posterior")
        quiet = MotionModel(period=1.0, process_noise_std=0.0, survival_probability=0.99)
        out = predict(prior, quiet, np.random.default_rng(0))
        assert np.allclose(out.components[0].states[:, 0], states[:, 0] + 3.0)
        assert np.allclose(out.components[0].states[:, 1], states[:, 1] - 2.0)

    def test_batched_noise_matches_per_row_propagation(self):
        rows = [cloud((i * 50, 300), 0.5, Label(0, i, 0), n=200, seed=i) for i in range(4)]
        prior = LmbDensity.from_rows(rows, 0, "posterior")
        rng = np.random.default_rng(7)
        out = predict(prior, MOTION, rng)
        draws = np.random.default_rng(7)
        for k, c in enumerate(rows):
            np.testing.assert_array_equal(out.states[k], propagate_states(MOTION, c.states, draws))
        assert rng.bit_generator.state == draws.bit_generator.state


class TestUpdate:
    def test_component_outside_fov_unchanged(self):
        behind = cloud((0, -300), 0.7)  # behind the sensor, p_D = 0
        pred = predicted_density([behind])
        out = update(pred, [np.array([0.0, 250.0])], SENSOR, FOV, CFG,
                     np.random.default_rng(0), origin=0)
        assert out.labels[0] == behind.label and out.passed_through.tolist() == [True, False]
        np.testing.assert_array_equal(out.states[0], pred.states[0])
        np.testing.assert_array_equal(out.weights[0], pred.weights[0])
        assert out.existences[0] == pred.existences[0]

    def test_miss_update_matches_bernoulli_algebra(self):
        c = cloud((0, 300), 0.8)
        pred = predicted_density([c])
        out = update(pred, [], SENSOR, FOV, CFG, np.random.default_rng(0), origin=0)
        # independent oracle: r (1 - pbar) / (1 - r pbar) with pbar the
        # weighted mean detection probability over the particles
        pd = detection_probabilities(FOV, SENSOR, c.states[:, :2])
        pbar = float(c.weights @ pd)
        expected = 0.8 * (1 - pbar) / (1 - 0.8 * pbar)
        assert comp_of(out, c.label).existence == pytest.approx(expected, rel=1e-12)

    def test_detection_raises_existence(self):
        c = cloud((0, 300), 0.5)
        pred = predicted_density([c])
        z = mean_position(c) - SENSOR.position
        out = update(pred, [z], SENSOR, FOV, CFG, np.random.default_rng(0), origin=0)
        assert comp_of(out, c.label).existence > 0.9

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
        center = mean_position(births[0])
        assert np.linalg.norm(center - (SENSOR.position + far)) < 5.0

    def test_gated_measurement_spawns_no_birth(self):
        c = cloud((0, 300), 0.9)
        pred = predicted_density([c])
        z = mean_position(c) - SENSOR.position + np.array([3.0, -2.0])
        out = update(pred, [z], SENSOR, FOV, CFG, np.random.default_rng(0), origin=0)
        assert out.labels == pred.labels


class TestPassThrough:
    # p_d_max squared bounds the detection probability, so a FoV this faint
    # puts a row's maximum right at the 1e-12 pass-through threshold
    FAINT = dataclasses.replace(FOV, p_d_max=1.001e-6)

    def test_threshold_row_passes_and_draws_no_offset(self):
        below = cloud((0, 497), 0.5, Label(0, 0, 0), spread=1e-6)
        above = cloud((0, 100), 0.5, Label(0, 1, 0), spread=1e-6, seed=1)
        pd_below = detection_probabilities(self.FAINT, SENSOR, below.states[:, :2]).max()
        pd_above = detection_probabilities(self.FAINT, SENSOR, above.states[:, :2]).max()
        assert 0.0 < pd_below <= 1e-12 < pd_above < 1.01e-12
        pred = predicted_density([below, above])
        post = update(pred, [], SENSOR, self.FAINT, CFG, np.random.default_rng(0), origin=0)
        assert post.passed_through.tolist() == [True, False]
        assert post.states is pred.states
        assert post.existences[0] == pred.existences[0]
        assert post.existences[1] < pred.existences[1]
        np.testing.assert_array_equal(post.weights[0], pred.weights[0])

        rng = np.random.default_rng(3)
        out = resample_component(post, CFG.particle_count, rng)
        draws = np.random.default_rng(3)
        offset = draws.random()  # the only draw: one offset, for the updated row
        assert rng.bit_generator.state == draws.bit_generator.state
        np.testing.assert_array_equal(out.states[0], pred.states[0])
        positions = (offset + np.arange(CFG.particle_count)) / CFG.particle_count
        cumulative = np.cumsum(post.weights[1] / post.weights[1].sum())
        cumulative[-1] = 1.0
        idx = np.searchsorted(cumulative, positions, side="left")
        np.testing.assert_array_equal(out.states[1], pred.states[1][idx])


class TestPseudoUpdate:
    def test_matches_update_on_same_measurements(self):
        comps = [cloud((0, 300), 0.6), cloud((100, 250), 0.4, label=Label(0, 1, 0), seed=2)]
        pred = predicted_density(comps)
        meas = [np.array([0.0, 300.0]), np.array([100.0, 250.0])]
        via_update = update(pred, meas, SENSOR, FOV, CFG, np.random.default_rng(0), origin=0)
        [via_pseudo] = pseudo_update(pred, [meas], [SENSOR], FOV, CFG)
        for label in pred.labels:
            a, b = comp_of(via_update, label), comp_of(every_row(via_pseudo), label)
            assert a.existence == pytest.approx(b.existence, rel=1e-12)
            assert np.allclose(a.weights, b.weights)

    def test_covered_existences_rise(self):
        pred = predicted_density([cloud((0, 300), 0.5)])
        [out] = pseudo_update(pred, [pims(pred, SENSOR)], [SENSOR], FOV, CFG)
        assert out.existences[0] > 0.9

    def test_empty_pims_drops_in_fov_existence(self):
        pred = predicted_density([cloud((0, 300), 0.9)])
        [out] = pseudo_update(pred, [[]], [SENSOR], FOV, CFG)
        assert out.existences[0] < 0.5

    def test_out_of_fov_unchanged_and_no_birth(self):
        behind = cloud((0, -300), 0.7)
        pred = predicted_density([behind])
        [out] = pseudo_update(pred, [[np.array([50.0, 50.0])]], [SENSOR], FOV, CFG)
        assert out.passed_through.tolist() == [True]
        assert out.states is pred.states and out.existences[0] == pred.existences[0]
        np.testing.assert_array_equal(every_row(out).weights, pred.weights)
        assert out.labels == pred.labels
        assert isinstance(out, PseudoPosterior)


class TestBayesCore:
    # update and pseudo_update run one Bayes core; update alone appends births

    @pytest.mark.parametrize("role", ["posterior", "fused"])
    def test_density_not_predicted_is_rejected(self, role):
        pred = dataclasses.replace(predicted_density([cloud((0, 300), 0.6)]), role=role)
        with pytest.raises(ValueError, match="expects a predicted density"):
            update(pred, [], SENSOR, FOV, CFG, np.random.default_rng(0), origin=0)
        with pytest.raises(ValueError, match="expects a predicted density"):
            pseudo_update(pred, [[]], [SENSOR], FOV, CFG)

    @pytest.mark.parametrize("meas", [[], [(0.0, 300.0)], [(0.0, 300.0), (200.0, 150.0)]])
    def test_pseudo_update_shares_predicted_labels_and_states(self, meas):
        pred = predicted_density(
            [cloud((0, 300), 0.6), cloud((100, 250), 0.4, label=Label(0, 1, 0), seed=2)]
        )
        [out] = pseudo_update(pred, [meas], [SENSOR], FOV, CFG)
        assert out.labels is pred.labels and out.states is pred.states

    def test_update_rows_have_the_pseudo_update_bits(self):
        pred = predicted_density(
            [cloud((0, 300), 0.6), cloud((0, -300), 0.4, label=Label(0, 1, 0), seed=2)]
        )
        meas = [np.array([0.0, 300.0]), np.array([200.0, 150.0])]  # gated, then ungated
        post = update(pred, meas, SENSOR, FOV, CFG, np.random.default_rng(0), origin=2)
        [pseudo] = pseudo_update(pred, [meas], [SENSOR], FOV, CFG)
        assert post.labels == pred.labels + (Label(1, 0, 2),)
        np.testing.assert_array_equal(post.existences[:2], pseudo.existences)
        np.testing.assert_array_equal(post.weights[:2], every_row(pseudo).weights)
        assert post.passed_through.tolist() == pseudo.passed_through.tolist() + [False]
        assert pseudo.passed_through.tolist() == [False, True]


class TestGeneratePims:
    def test_zero_action_measurement(self):
        pred = predicted_density([cloud((0, 300), 0.9, spread=1e-9)])
        [z] = pims(pred, SENSOR)
        assert np.allclose(z, [0.0, 300.0], atol=1e-6)

    def test_rotated_away_object_missed(self):
        pred = predicted_density([cloud((0, 300), 0.9)])
        rotated = SensorState(0.0, 0.0, math.pi)  # facing away
        assert pims(pred, rotated).shape == (0, 2)

    def test_translation_shifts_measurement(self):
        pred = predicted_density([cloud((0, 300), 0.9, spread=1e-9)])
        moved = SensorState(10.0, 0.0, 0.0)
        [z] = pims(pred, moved)
        assert np.allclose(z, [-10.0, 300.0], atol=1e-6)

    def test_low_existence_components_not_estimated(self):
        pred = predicted_density(
            [cloud((0, 300), 0.9), cloud((50, 300), 0.1, label=Label(0, 1, 0))]
        )
        assert len(pims(pred, SENSOR)) == 1

    @given(
        positions=st.lists(st.tuples(st.floats(-600.0, 600.0), st.floats(-600.0, 600.0)),
                           max_size=6),
        poses=st.lists(st.builds(SensorState, st.floats(-100.0, 100.0), st.floats(-100.0, 100.0),
                                 st.sampled_from([math.pi, math.nextafter(-math.pi, 0)])
                                 | st.floats(-4.0, 4.0)),
                       min_size=1, max_size=5),
        fov=st.sampled_from([FOV, dataclasses.replace(FOV, theta_max=math.pi)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_each_pose_has_the_bits_of_a_single_pose_call(self, positions, poses, fov):
        positions = np.array(positions, dtype=float).reshape(-1, 2)
        got = generate_pims(positions, poses, fov)
        assert len(got) == len(poses)
        for z, pose in zip(got, poses):
            # the single-pose form generate_pims had before it took a pose set
            pd = detection_probabilities(fov, pose, positions)
            want = positions[pd > fov.p_d_threshold] - pose.position
            assert z.shape == want.shape and z.tobytes() == want.tobytes()


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


def exact_marginals_reference(cluster_terms):
    """The recursive matcher: a depth-first walk over each row's events
    that never takes a measurement already used above it."""
    n = len(cluster_terms)
    sums = [dict() for _ in range(n)]
    total = 0.0
    events = []
    for t in cluster_terms:
        ev = [(None, t.no_det_weight)] + sorted(t.det_weights.items())
        s = max(w for _, w in ev)
        scale = s if s > 0 else 1.0
        events.append([(e, w / scale) for e, w in ev])
    used, chosen = set(), []

    def recurse(i, weight):
        nonlocal total
        if i == n:
            total += weight
            for idx, ev in enumerate(chosen):
                sums[idx][ev] = sums[idx].get(ev, 0.0) + weight
            return
        for ev, w in events[i]:
            if ev is not None and ev in used:
                continue
            if ev is not None:
                used.add(ev)
            chosen.append(ev)
            recurse(i + 1, weight * w)
            chosen.pop()
            if ev is not None:
                used.discard(ev)

    recurse(0, 1.0)
    if total <= 0.0:
        return [{None: 1.0} for _ in range(n)]
    return [{e: v / total for e, v in s.items()} for s in sums]


weights_or_zero = st.one_of(st.just(0.0), st.floats(1e-300, 1e6), st.floats(0.0, 1.0))


@st.composite
def cluster_terms(draw):
    """1-5 rows over up to 5 measurements, in any key order, zeros included."""
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        det = draw(st.dictionaries(st.integers(0, 4), weights_or_zero, max_size=5))
        terms.append(TestAssociationMarginals.FakeTerms(draw(weights_or_zero), det))
    return terms


class TestExactMarginalsOracle:
    @given(terms=cluster_terms())
    @settings(max_examples=500, deadline=None)
    def test_same_bits_and_key_order_as_the_recursion(self, terms):
        got = _exact_marginals(terms)
        expected = exact_marginals_reference(terms)
        assert [list(g.items()) for g in got] == [list(e.items()) for e in expected]

    def test_measurement_used_twice_is_skipped(self):
        fake = TestAssociationMarginals.FakeTerms
        terms = [fake(1.0, {0: 1.0}), fake(1.0, {0: 1.0})]
        # hypotheses (miss, miss), (miss, 0) and (0, miss); never (0, 0)
        assert _exact_marginals(terms) == [{None: 2 / 3, 0: 1 / 3}, {None: 2 / 3, 0: 1 / 3}]


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

    @given(terms=st.lists(
        st.tuples(weights_or_zero, st.dictionaries(st.integers(0, 4),
                                                   weights_or_zero | st.floats(1.0, 1e10))),
        min_size=1, max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_a_cost_matrix_with_miss_columns_has_a_solution(self, terms):
        # the matrix _ranked_marginals builds: measurement columns, then one
        # miss column per row, +inf elsewhere and for zero weights
        meas_ids = sorted({j for _miss, det in terms for j in det})
        n, m = len(terms), len(meas_ids)
        cost = np.full((n, m + n), np.inf)
        for i, (miss, det) in enumerate(terms):
            cost[i, m + i] = -math.log(max(miss, 1e-300))
            for j, w in det.items():
                if w > 0:
                    cost[i, meas_ids.index(j)] = -math.log(w)
        solutions = murty_assignments(cost, 3)
        assert solutions
        total, assign = solutions[0]
        assert all(np.isfinite(cost[i, c]) for i, c in enumerate(assign))
        assert total <= sum(cost[i, m + i] for i in range(n)) + 1e-9

    def test_infeasible_cells_avoided(self):
        cost = np.array([[1.0, np.inf], [np.inf, 1.0]])
        [(total, assign)] = murty_assignments(cost, 5)
        assert assign == (0, 1)
        assert total == pytest.approx(2.0)

    @given(data=st.data(), n=st.integers(1, 4), extra=st.integers(0, 2), k=st.integers(1, 30))
    @settings(max_examples=300, deadline=None)
    def test_children_from_the_forced_prefix_change_nothing(self, data, n, extra, k):
        # small integer costs tie often; +inf cells make children infeasible
        cell = st.sampled_from([0.0, 1.0, 2.0, np.inf])
        cost = np.array(data.draw(st.lists(st.lists(cell, min_size=n + extra, max_size=n + extra),
                                           min_size=n, max_size=n)))
        assert murty_assignments(cost, k) == murty_every_child(cost, k)


def murty_every_child(cost, k):
    """Reference: Murty partitioning that makes a child at every row of every
    popped solution, the rows below the node's forced prefix included."""
    best = _solve_assignment(cost)
    if best is None:
        return []
    out = []
    counter = itertools.count()
    heap = [(best[0], next(counter), cost, best[1])]
    while heap and len(out) < k:
        total, _, sub, assign = heapq.heappop(heap)
        out.append((total, assign))
        for i in range(len(assign)):
            child = sub.copy()
            child[i, assign[i]] = np.inf
            for r in range(i):
                keep = assign[r]
                child[r, :] = np.inf
                child[r, keep] = sub[r, keep]
            sol = _solve_assignment(child)
            if sol is not None:
                heapq.heappush(heap, (sol[0], next(counter), child, sol[1]))
    return out


# ---------------------------------------------------------------------------
# Per-row oracle of the batched update
# ---------------------------------------------------------------------------


class RowTerms(NamedTuple):
    row: int
    no_det_weight: float
    det_weights: dict  # {meas_idx: r * G_z / clutter}
    det_particle_w: dict  # {meas_idx: normalized particle weights}


def row_terms(k, predicted, pd, no_det, mean_disp, sensor, measurements, cfg):
    """Gate and likelihoods of one row, one measurement at a time."""
    terms = RowTerms(k, no_det, {}, {})
    r = min(float(predicted.existences[k]), EXISTENCE_CEIL)
    kappa = max(cfg.clutter_intensity, 1e-12)
    for j, z in enumerate(measurements):
        if np.hypot(*(z - mean_disp)) > cfg.association_gate:
            continue
        positions = predicted.states[k, :, :2]
        logg = gathered_log_likelihoods(positions, sensor.position, z, cfg.meas_noise_std)
        raw = predicted.weights[k] * pd * np.exp(logg)
        g_sum = float(raw.sum())
        if g_sum > 0.0:
            terms.det_weights[j] = r * g_sum / kappa
            terms.det_particle_w[j] = raw / g_sum
    return terms


def posterior_row(existence, weights, pd, miss_lik, t, marginals):
    """Posterior existence and particle weights of one row."""
    r = min(existence, EXISTENCE_CEIL)
    beta_miss = marginals.get(None, 0.0)
    exist_miss = beta_miss * (r * miss_lik / t.no_det_weight) if t.no_det_weight > 0 else 0.0
    new_r = exist_miss + sum(p for ev, p in marginals.items() if ev is not None)
    new_r = min(new_r, EXISTENCE_CEIL)
    if new_r <= 0.0:
        return 0.0, weights
    w = np.zeros(len(weights))
    if exist_miss > 0.0 and miss_lik > 0.0:
        w += exist_miss * weights * (1.0 - pd) / miss_lik
    for ev, p in marginals.items():
        if ev is not None and p > 0.0:
            w += p * t.det_particle_w[ev]
    total = float(w.sum())
    if total <= 0.0:
        return new_r, weights
    return new_r, w / total


def reference_update(predicted, measurements, sensor, fov, cfg, role, rng=None, origin=None):
    """The update row by row: terms per (row, measurement), posterior per row."""
    measurements = [np.asarray(z, dtype=float) for z in measurements]
    k, j = predicted.weights.shape
    pd = detection_probabilities(fov, sensor, predicted.states[:, :, :2].reshape(-1, 2))
    pd = pd.reshape(k, j)
    passed = pd.max(axis=1, initial=0.0) <= 1e-12
    r = np.minimum(predicted.existences, EXISTENCE_CEIL)
    miss_lik = row_means(predicted.weights, (1.0 - pd)[:, :, None])[:, 0]
    no_det = ((1.0 - r) + r * miss_lik).tolist()
    mean_disp = predicted.mean_positions() - sensor.position
    terms = [
        row_terms(i, predicted, pd[i], no_det[i], mean_disp[i], sensor, measurements, cfg)
        for i in np.flatnonzero(~passed).tolist()
    ]
    existences = predicted.existences.copy()
    weights = predicted.weights.copy()
    holders = {}  # measurement -> the row terms that gate it
    for i, t in enumerate(terms):
        for m in t.det_weights:
            holders.setdefault(m, []).append(i)
    shared = [(rows[0], i) for rows in holders.values() for i in rows]
    for cluster in connected_groups(len(terms), shared):
        cluster_terms = [terms[i] for i in cluster]
        if math.prod(1 + len(t.det_weights) for t in cluster_terms) <= cfg.exact_enum_limit:
            marginals = _exact_marginals(cluster_terms)
        else:
            marginals = _ranked_marginals(cluster_terms, cfg.assoc_max_hypotheses)
        for t, marg in zip(cluster_terms, marginals):
            i = t.row
            existences[i], weights[i] = posterior_row(
                existences[i], weights[i], pd[i], miss_lik[i], t, marg
            )
    labels, states = predicted.labels, predicted.states
    if rng is not None:
        gated = {j for t in terms for j in t.det_weights}
        centers = [sensor.position + z for i, z in enumerate(measurements) if i not in gated]
        if centers:
            n = cfg.particle_count
            births = np.empty((len(centers), n, STATE_DIM))
            for b, center in enumerate(centers):
                births[b, :, :2] = center + rng.normal(0.0, cfg.birth_particle_std, (n, 2))
                births[b, :, 2:] = rng.normal(0.0, cfg.birth_velocity_std, (n, 2))
            labels += tuple(Label(predicted.timestamp, b, origin) for b in range(len(centers)))
            existences = np.concatenate([existences, np.full(len(centers), cfg.birth_existence)])
            states = np.concatenate([states.reshape(k, n, STATE_DIM), births])
            weights = np.concatenate([weights.reshape(k, n), np.full((len(centers), n), 1.0 / n)])
            passed = np.concatenate([passed, np.zeros(len(centers), dtype=bool)])
    return LmbDensity(labels, existences, states, weights, predicted.timestamp, role, passed)


ORACLE_CASES = (
    "random",
    "no_measurements",
    "all_passed",
    "gate_edge",
    "zero_g_sum",
    "zero_existence",
    "murty",
)


def oracle_inputs(case, seed):
    """A predicted density, measurements and config exercising one case.

    Rows hold 16 particles (a power of two, so a row whose particles all sit
    at one point has that point as its exact mean) and the config's birth
    clouds hold 16 too.
    """
    rng = np.random.default_rng(seed)
    cfg = dataclasses.replace(CFG, particle_count=16)
    n_rows = int(rng.integers(1, 5))
    centers = rng.uniform([-150.0, 150.0], [150.0, 400.0], (n_rows, 2))
    existences = rng.uniform(0.01, 1.0, n_rows)
    spread = rng.uniform(0.5, 15.0, n_rows)
    if case == "all_passed":
        centers[:, 1] *= -1.0  # behind the sensor: detection probability 0
    rows = [
        cloud(c, e, Label(0, i, 0), n=16, spread=s, seed=seed + i)
        for i, (c, e, s) in enumerate(zip(centers, existences, spread))
    ]
    n_meas = 0 if case == "no_measurements" else int(rng.integers(1, 6))
    meas = [c + rng.normal(0.0, 20.0, 2) for c in rng.permutation(centers)[: n_meas]]
    meas += [rng.uniform([-200.0, 100.0], [200.0, 450.0]) for _ in range(n_meas - len(meas))]
    if case == "gate_edge":
        point = Component(Label(1, 0, 0), 0.6, np.tile([0.0, 300.0, 0.0, 0.0], (16, 1)),
                          np.full(16, 1 / 16))
        rows.append(point)
        meas += [np.array([0.0, 350.0]), np.array([30.0, 340.0])]  # exactly 50 m away
    if case == "zero_g_sum":
        states = np.zeros((16, 4))
        states[:, :2] = [0.0, 300.0]
        states[::2, 0], states[1::2, 0] = -200.0, 200.0  # mean at x = 0, no particle there
        rows.append(Component(Label(1, 0, 0), 0.6, states, np.full(16, 1 / 16)))
        meas.append(np.array([0.0, 300.0]))
    if case == "zero_existence":
        rows[0] = rows[0]._replace(existence=0.0)
        meas.append(centers[0] + rng.normal(0.0, 3.0, 2))
    if case == "murty":
        cfg = dataclasses.replace(cfg, exact_enum_limit=1, assoc_max_hypotheses=8)
        meas.append(centers[0] + rng.normal(0.0, 3.0, 2))
    order = rng.permutation(len(meas)).tolist()
    return predicted_density(rows), [meas[i] for i in order], cfg


def assert_same_density(a, b):
    assert a.labels == b.labels and a.role == b.role and a.timestamp == b.timestamp
    np.testing.assert_array_equal(a.existences, b.existences)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.states, b.states)
    np.testing.assert_array_equal(a.passed_through, b.passed_through)


def assert_same_rows(pseudo, density):
    """A pseudo-posterior, every row built, has the bits of a density's rows."""
    assert_same_density(every_row(pseudo), dataclasses.replace(density, timestamp=0))


class TestBatchedUpdateOracle:
    """update and pseudo_update equal the per-row update bit for bit."""

    def check(self, case, seed):
        pred, meas, cfg = oracle_inputs(case, seed)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = update(pred, meas, SENSOR, FOV, cfg, rng, origin=2)
        assert_same_density(
            got, reference_update(pred, meas, SENSOR, FOV, cfg, "posterior", ref_rng, 2)
        )
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        [pseudo] = pseudo_update(pred, [meas], [SENSOR], FOV, cfg)
        assert_same_rows(pseudo, reference_update(pred, meas, SENSOR, FOV, cfg, "posterior"))
        return pred, meas, cfg, got

    @given(case=st.sampled_from(ORACLE_CASES), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_matches_per_row_update(self, case, seed):
        self.check(case, seed)

    def test_no_measurements(self):
        pred, _meas, _cfg, got = self.check("no_measurements", 1)
        assert got.labels == pred.labels

    def test_every_row_passed_through(self):
        _pred, meas, _cfg, got = self.check("all_passed", 2)
        k = len(got.labels) - len(meas)
        assert got.passed_through[:k].all() and not got.passed_through[k:].any()

    def test_measurement_exactly_at_gate(self):
        pred, meas, cfg, got = self.check("gate_edge", 3)
        assert pred.mean_positions()[-1].tolist() == [0.0, 300.0]
        assert np.hypot(30.0, 40.0) == cfg.association_gate
        edge = np.array([[0.0, 350.0], [30.0, 340.0]])

        def births_at_edge(density):
            births = density.states[len(pred.labels):, :, :2].mean(axis=1)
            return sum(np.min(np.hypot(*(births - e).T), initial=np.inf) < 10.0 for e in edge)

        assert births_at_edge(got) == 0  # a pair at exactly the gate distance is gated
        narrower = dataclasses.replace(cfg, association_gate=np.nextafter(50.0, 0.0))
        assert births_at_edge(update(pred, meas, SENSOR, FOV, narrower,
                                     np.random.default_rng(0), origin=2)) == 2

    def test_passed_row_gates_no_measurement(self):
        faint = TestPassThrough.FAINT
        row = cloud((0, 497), 0.5, n=16, spread=1e-6)
        assert 0.0 < detection_probabilities(faint, SENSOR, row.states[:, :2]).max() <= 1e-12
        pred, meas = predicted_density([row]), [np.array([0.0, 497.0])]
        cfg = dataclasses.replace(CFG, particle_count=16)
        got = update(pred, meas, SENSOR, faint, cfg, np.random.default_rng(0), origin=2)
        ref = reference_update(pred, meas, SENSOR, faint, cfg, "posterior",
                               np.random.default_rng(0), 2)
        assert_same_density(got, ref)
        assert got.passed_through.tolist() == [True, False]  # the measurement spawns a birth

    def test_pair_with_zero_likelihood_sum(self):
        pred, meas, cfg, got = self.check("zero_g_sum", 4)
        positions = pred.states[-1, :, :2]
        logg = gathered_log_likelihoods(positions, SENSOR.position, [0.0, 300.0], cfg.meas_noise_std)
        assert not np.exp(logg).any()  # gated, yet the pair has no likelihood mass
        births = got.states[len(pred.labels):, :, :2].mean(axis=1)
        assert np.min(np.hypot(*(births - [0.0, 300.0]).T)) < 10.0

    def test_row_whose_existence_becomes_zero(self):
        pred, _meas, _cfg, got = self.check("zero_existence", 5)
        assert got.existences[0] == 0.0
        np.testing.assert_array_equal(got.weights[0], pred.weights[0])

    def test_exact_marginals_only_for_clusters_with_a_gated_pair(self, monkeypatch):
        import sentrack.filtering as filtering

        singles, clusters, ranked = [], [], []
        single, exact = filtering._single_row_marginals, filtering._exact_marginals
        monkeypatch.setattr(filtering, "_single_row_marginals",
                            lambda weights: singles.append(len(weights)) or single(weights))
        monkeypatch.setattr(filtering, "_exact_marginals",
                            lambda terms: clusters.append([t.row for t in terms]) or exact(terms))
        monkeypatch.setattr(filtering, "_ranked_marginals", lambda *a: ranked.append(a))
        # row 0 alone is gated to the first measurement, row 1 is in view with
        # no gated pair, row 2 lies behind the sensor and is passed through,
        # and rows 3 and 4 are both gated to the second measurement
        rows = [cloud((0, 300), 0.6, Label(0, 0, 0), n=16, spread=2.0, seed=1),
                cloud((-150, 200), 0.6, Label(0, 1, 0), n=16, seed=2),
                cloud((0, -300), 0.6, Label(0, 2, 0), n=16, seed=3),
                cloud((150, 300), 0.6, Label(0, 3, 0), n=16, spread=2.0, seed=4),
                cloud((160, 305), 0.6, Label(0, 4, 0), n=16, spread=2.0, seed=5)]
        pred, meas = predicted_density(rows), [np.array([0.0, 302.0]), np.array([155.0, 303.0])]
        cfg = dataclasses.replace(CFG, particle_count=16)
        [got] = pseudo_update(pred, [meas], [SENSOR], FOV, cfg)
        assert singles == [2]  # row 0's miss and its one measurement, in closed form
        assert clusters == [[3, 4]] and not ranked
        assert got.passed_through.tolist() == [False, False, True, False, False]
        assert got.existences[1] < pred.existences[1]  # the miss-only update
        assert_same_rows(got, reference_update(pred, meas, SENSOR, FOV, cfg, "posterior"))

    def test_passed_row_keeps_uneven_weights(self):
        # a row passed through takes no miss-only update: its weights, not
        # a power-of-two count of equal ones, come back bit for bit
        behind = cloud((0, -300), 0.6, Label(0, 1, 0), n=15, seed=2)
        weights = np.random.default_rng(3).dirichlet(np.ones(15))
        rows = [cloud((0, 300), 0.6, Label(0, 0, 0), n=15, seed=1), behind._replace(weights=weights)]
        pred, meas = predicted_density(rows), [np.array([0.0, 302.0])]
        cfg = dataclasses.replace(CFG, particle_count=15)
        [got] = pseudo_update(pred, [meas], [SENSOR], FOV, cfg)
        assert got.passed_through.tolist() == [False, True]
        assert np.array_equal(every_row(got).weights[1], weights) and got.existences[1] == 0.6
        assert_same_rows(got, reference_update(pred, meas, SENSOR, FOV, cfg, "posterior"))

    def test_cluster_on_murty_path(self, monkeypatch):
        import sentrack.filtering as filtering

        calls = []
        ranked = filtering._ranked_marginals
        monkeypatch.setattr(filtering, "_ranked_marginals",
                            lambda *a: calls.append(1) or ranked(*a))
        self.check("murty", 6)
        assert calls


# ---------------------------------------------------------------------------
# Per-action oracle of the batched pseudo-update
# ---------------------------------------------------------------------------

OMNI = FovModel(rho_max=500.0, theta_max=math.pi, p_d_max=0.99, k_rho=0.5, k_theta=20.0)
SEAM_BEARINGS = (math.pi, math.nextafter(-math.pi, 0))


def per_action_bayes_update(predicted, z, sensor, fov, cfg):
    """The Bayes core for one sensor pose, as it was before it took a pose
    set: every row with a gated pair goes through connected_groups."""
    k, j = predicted.weights.shape
    pd = detection_probabilities(fov, sensor, predicted.states[:, :, :2]).reshape(k, j)
    passed = pd.max(axis=1, initial=0.0) <= 1e-12
    r = np.minimum(predicted.existences, EXISTENCE_CEIL)
    miss_p = 1.0 - pd
    miss_lik = np.matmul(predicted.weights[:, None, :], miss_p[:, :, None])[:, 0][:, 0]
    no_det = (1.0 - r) + r * miss_lik
    rows = meas = np.empty(0, dtype=np.intp)
    particle_w, det_w = np.empty((0, j)), np.empty(0)
    if len(z):
        means = predicted.mean_positions()
        dx = z[:, 0] - (means[:, 0] - sensor.x)[:, None]
        dy = z[:, 1] - (means[:, 1] - sensor.y)[:, None]
        gated = ~(np.hypot(dx, dy) > cfg.association_gate) & ~passed[:, None]
        rows, meas = np.nonzero(gated)
        pair_states, pair_z = predicted.states.take(rows, axis=0), z.take(meas, axis=0)[:, None]
        logg = gathered_log_likelihoods(pair_states, sensor.position, pair_z, cfg.meas_noise_std)
        raw = predicted.weights.take(rows, axis=0) * pd.take(rows, axis=0)
        raw *= np.exp(logg)
        g_sum = raw.sum(axis=1)
        hit = g_sum > 0.0
        if not hit.all():
            rows, meas, raw, g_sum = rows[hit], meas[hit], raw[hit], g_sum[hit]
        particle_w = raw / g_sum[:, None]
        det_w = r.take(rows) * g_sum / max(cfg.clutter_intensity, 1e-12)
    miss_r = np.zeros(k)
    np.divide(r * miss_lik, no_det, out=miss_r, where=~passed & (no_det > 0))
    existences = np.where(passed, predicted.existences, np.minimum(miss_r, EXISTENCE_CEIL))
    events = [[] for _ in range(k)]
    terms, no_det = {}, no_det.tolist()
    for g, (i, m, weight) in enumerate(zip(rows.tolist(), meas.tolist(), det_w.tolist())):
        if i not in terms:
            terms[i] = _RowTerms(i, no_det[i], {}, {})
        terms[i].det_weights[m], terms[i].pairs[m] = weight, g
    terms = list(terms.values())
    first = {}
    shared = [(first.setdefault(m, i), i) for i, t in enumerate(terms) for m in t.det_weights]
    for cluster in connected_groups(len(terms), shared):
        cluster_terms = [terms[i] for i in cluster]
        if math.prod(1 + len(t.det_weights) for t in cluster_terms) <= cfg.exact_enum_limit:
            marginals = _exact_marginals(cluster_terms)
        else:
            marginals = _ranked_marginals(cluster_terms, cfg.assoc_max_hypotheses)
        for t, marg in zip(cluster_terms, marginals):
            i = t.row
            miss_r[i] *= marg.get(None, 0.0)
            new_r = miss_r[i] + sum(p for ev, p in marg.items() if ev is not None)
            existences[i] = min(new_r, EXISTENCE_CEIL)
            events[i] = [(t.pairs[e], p) for e, p in marg.items() if e is not None and p > 0.0]
    weights = predicted.weights.copy()
    if not passed.all():
        w = miss_r[:, None] * predicted.weights * miss_p
        w /= np.where(miss_lik == 0.0, 1.0, miss_lik)[:, None]
        for s in range(max(map(len, events))):
            at = [i for i, row_events in enumerate(events) if len(row_events) > s]
            pair, p = zip(*(events[i][s] for i in at))
            w[np.array(at)] += np.array(p)[:, None] * particle_w.take(pair, axis=0)
        total = w.sum(axis=1)[:, None]
        np.divide(w, total, out=weights, where=total > 0.0)
    return LmbDensity(predicted.labels, existences, predicted.states, weights,
                      predicted.timestamp, "posterior", passed)


@st.composite
def pose_sets(draw):
    """A predicted density from oracle_inputs, one time in ten an empty one,
    a FoV model, and 1-5 poses with their measurement sets: the case's own
    at SENSOR, then ideal measurement sets, the same points seen from
    elsewhere, empty sets and poses that pass every row through."""
    case, seed = draw(st.sampled_from(ORACLE_CASES)), draw(st.integers(0, 2**16))
    pred, meas, cfg = oracle_inputs(case, seed)
    if draw(st.integers(0, 9)) == 0:
        pred = predicted_density([])
    fov = draw(st.sampled_from([FOV, OMNI]))
    positions = np.array([state[:2] for _label, state in eap_states(pred)]).reshape(-1, 2)
    poses, zs, away = [SENSOR], [meas], []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["pims", "shifted", "empty", "away"]))
        x, y = draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))
        bearing = draw(st.sampled_from(SEAM_BEARINGS) | st.floats(-4.0, 4.0))
        if kind == "away":
            # the rows lie at |y| >= 150 on one side; a sector faces the
            # other way, and an omnidirectional sensor stands far off
            facing = 0.0 if case == "all_passed" else math.pi
            pose = SensorState(x, y, facing) if fov is FOV else SensorState(5e4, 5e4, bearing)
            away.append(len(poses))
        else:
            pose = SensorState(x, y, bearing)
        if kind == "pims":
            [z] = generate_pims(positions, [pose], fov)
        elif kind == "shifted":
            z = [m - pose.position for m in meas]
        else:
            z = [] if kind == "empty" else meas
        poses.append(pose)
        zs.append(z)
    return pred, zs, poses, fov, cfg, away


class TestBatchedPseudoUpdateOracle:
    """pseudo_update over a pose set equals the per-action core for every pose."""

    def check(self, pred, zs, poses, fov, cfg):
        got = pseudo_update(pred, zs, poses, fov, cfg)
        assert len(got) == len(poses)
        for out, z, pose in zip(got, zs, poses):
            z = np.asarray(z, dtype=float).reshape(-1, 2)
            assert_same_rows(out, per_action_bayes_update(pred, z, pose, fov, cfg))
            assert out.labels is pred.labels and out.states is pred.states
        return got

    @given(inputs=pose_sets(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_on_demand_match_the_per_action_core(self, inputs, data):
        # random row subsets in random order, rows repeated across requests;
        # each row's weights and mean have the bits of the per-action core's
        pred, zs, poses, fov, cfg, _away = inputs
        k = len(pred.labels)
        for out, z, pose in zip(pseudo_update(pred, zs, poses, fov, cfg), zs, poses):
            want = per_action_bayes_update(pred, np.asarray(z, dtype=float).reshape(-1, 2),
                                           pose, fov, cfg)
            means = want.mean_positions()
            for _ in range(data.draw(st.integers(1, 3))):
                rows = data.draw(st.permutations(range(k)))[: data.draw(st.integers(0, k))]
                for row, weights in zip(rows, out.row_weights(rows)):
                    assert np.array_equal(bits_of(weights), bits_of(want.weights[row]))
                got_means = out.mean_positions(rows)
                assert np.array_equal(bits_of(got_means), bits_of(means[rows].reshape(-1, 2)))
            assert np.array_equal(bits_of(out.existences), bits_of(want.existences))
            assert out.passed_through.tolist() == want.passed_through.tolist()

    @given(inputs=pose_sets())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_action_core(self, inputs):
        pred, zs, poses, fov, cfg, away = inputs
        got = self.check(pred, zs, poses, fov, cfg)
        for a in away:
            assert got[a].passed_through.all()

    @pytest.mark.parametrize("fov", [FOV, OMNI], ids=["sector", "omni"])
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_each_case_beside_an_empty_set_and_a_pose_facing_away(self, fov, case):
        pred, meas, cfg = oracle_inputs(case, 7)
        facing = 0.0 if case == "all_passed" else math.pi
        away = SensorState(0.0, 0.0, facing) if fov is FOV else SensorState(5e4, 5e4, 0.0)
        poses = [SENSOR, SensorState(20.0, -10.0, SEAM_BEARINGS[1]), away, SensorState(5.0, 5.0, 0.1)]
        got = self.check(pred, [meas, meas, meas, []], poses, fov, cfg)
        assert got[2].passed_through.all()
        np.testing.assert_array_equal(every_row(got[2]).weights, pred.weights)
        np.testing.assert_array_equal(got[2].existences, pred.existences)

    def test_empty_predicted_density(self):
        pred = predicted_density([])
        got = self.check(pred, [[], [(0.0, 300.0)]], [SENSOR, SensorState(5.0, 0.0, 1.0)], FOV, CFG)
        assert [out.labels for out in got] == [(), ()]
        assert [out.row_weights([]) for out in got] == [[], []]
        assert [out.mean_positions([]).shape for out in got] == [(0, 2), (0, 2)]


class TestSingleRowMarginals:
    @given(miss=weights_or_zero, dets=st.lists(weights_or_zero, max_size=4),
           keys=st.lists(st.integers(0, 9), min_size=4, max_size=4, unique=True))
    @settings(max_examples=500, deadline=None)
    def test_has_the_bits_of_the_exact_path(self, miss, dets, keys):
        # a row with 0-4 gated measurements, zero weights included
        det_weights = dict(zip(sorted(keys), dets))
        [expected] = _exact_marginals([TestAssociationMarginals.FakeTerms(miss, det_weights)])
        got = _single_row_marginals([miss] + dets)
        assert len(got) == len(expected)
        assert np.array_equal(bits_of(got), bits_of(list(expected.values())))

    def test_all_zero_weights_give_a_sure_miss(self):
        assert _single_row_marginals([0.0, 0.0, 0.0]) == [1.0]


def bits_of(values):
    return np.array(values, dtype=float).view(np.int64)


class TestStackedRowMeans:
    @given(a=st.integers(1, 9), k=st.integers(0, 24), j=st.integers(16, 501),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_each_pose_has_the_bits_of_its_own_call(self, a, k, j, seed):
        # the miss likelihoods of a pose set: one weights array over
        # (A, K, J, 1) values, against the (K, 1, J) @ (K, J, 1) form per pose
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.ones(j), k).reshape(k, j)
        values = 1.0 - rng.uniform(0.0, 1.0, (a, k, j)) * (rng.random((a, k, j)) < 0.8)
        got = row_means(weights, values[..., None])
        assert got.shape == (a, k, 1)
        for pose in range(a):
            want = np.matmul(weights[:, None, :], values[pose][:, :, None])[:, 0]
            assert np.array_equal(bits_of(got[pose]), bits_of(want))
