import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentrack.control import (
    ControlContext,
    DescentState,
    ObjectiveParams,
    PseudoCache,
    bernoulli_kld,
    dcd_runs_required,
    dcd_sc_select,
    detect_cycle,
    drop_penalty,
    isc_select,
    kld_existence,
    objective,
    run_flooded_descent,
    select_final_command,
    sensor_sensor_constraint,
    void_probability,
)
from sentrack.filtering import FilterConfig
from sentrack.lmb import BernoulliComponent, Label, LmbDensity, empty_density
from sentrack.sensors import FovModel, SensorAction, SensorState

PARAMS = ObjectiveParams(psi_feasible_below=False)

unit_prob = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)


def cloud(center, existence, label=Label(0, 0, 0), n=60, spread=5.0, seed=0, velocity=(0, 0)):
    rng = np.random.default_rng(seed)
    states = np.zeros((n, 4))
    states[:, :2] = np.asarray(center, dtype=float) + rng.normal(0, spread, (n, 2))
    states[:, 2:] = velocity
    return BernoulliComponent(label, existence, states, np.full(n, 1.0 / n))


def density(comps, timestamp=1, role="predicted"):
    return LmbDensity(tuple(comps), timestamp, role)


def exist_density(existences, role="predicted"):
    comps = [cloud((i * 100, 0), r, Label(0, i, 0), seed=i) for i, r in enumerate(existences)]
    return density(comps, role=role)


class TestKldExistence:
    def test_identical_is_zero(self):
        d = exist_density([0.3, 0.9]).existences()
        assert kld_existence(d, d, 1e-6) == pytest.approx(0.0, abs=1e-12)

    def test_dropped_label_reduction(self):
        d2 = exist_density([0.5]).existences()
        d1 = empty_density(1, "predicted").existences()
        assert kld_existence(d1, d2, 1e-6) == pytest.approx(-math.log(0.5), abs=1e-9)

    def test_new_label_epsilon_substitution(self):
        d1 = exist_density([0.9]).existences()
        d2 = empty_density(1, "predicted").existences()
        expected = 0.9 * math.log(0.9 / 1e-6) + 0.1 * math.log(0.1 / (1 - 1e-6))
        assert kld_existence(d1, d2, 1e-6) == pytest.approx(expected, abs=1e-6)
        assert kld_existence(d1, d2, 1e-6) == pytest.approx(12.109, abs=1e-3)

    @given(st.lists(st.tuples(unit_prob, unit_prob), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_on_shared_labels(self, pairs):
        d1 = exist_density([a for a, _ in pairs]).existences()
        d2 = exist_density([b for _, b in pairs]).existences()
        assert kld_existence(d1, d2, 1e-6) >= -1e-12

    @given(unit_prob, unit_prob)
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_two_point_enumeration(self, r1, r2):
        # independent oracle: KLD between (r, 1-r) two-point distributions
        numeric = r1 * math.log(r1 / r2) + (1 - r1) * math.log((1 - r1) / (1 - r2))
        assert bernoulli_kld(r1, r2) == pytest.approx(numeric, abs=1e-9)


class TestDropPenalty:
    def test_no_drop(self):
        d = exist_density([0.5]).existences()
        assert drop_penalty(d, d, 100.0) == 0.0

    def test_single_drop(self):
        d2 = exist_density([0.5]).existences()
        d1 = empty_density(1, "predicted").existences()
        assert drop_penalty(d1, d2, 100.0) == pytest.approx(69.31, abs=0.01)

    def test_net_contribution_negative(self):
        d2 = exist_density([0.5]).existences()
        d1 = empty_density(1, "predicted").existences()
        net = kld_existence(d1, d2, 1e-6) - drop_penalty(d1, d2, 100.0)
        assert net == pytest.approx(0.6931 - 69.31, abs=0.01)
        assert net < 0

    def test_lambda_below_one_rejected(self):
        d = exist_density([0.5]).existences()
        with pytest.raises(ValueError):
            drop_penalty(d, d, 0.5)


class TestObjective:
    def test_identical_zero(self):
        d = exist_density([0.4, 0.8]).existences()
        assert objective(d, d, PARAMS) == pytest.approx(0.0, abs=1e-12)

    def test_new_label_gain(self):
        d1 = exist_density([0.9]).existences()
        d2 = empty_density(1, "predicted").existences()
        assert objective(d1, d2, PARAMS) == pytest.approx(12.109, abs=1e-3)

    def test_dropped_label_cost(self):
        d2 = exist_density([0.5]).existences()
        d1 = empty_density(1, "predicted").existences()
        assert objective(d1, d2, PARAMS) == pytest.approx(-68.62, abs=0.01)


class TestVoidProbability:
    def test_all_outside(self):
        d = density([cloud((500, 500), 0.9)], role="pseudo-posterior")
        assert void_probability(d, SensorState(0, 0, 0), 20.0) == 1.0

    def test_all_inside(self):
        d = density([cloud((0, 0), 0.8, spread=1.0)], role="pseudo-posterior")
        assert void_probability(d, SensorState(0, 0, 0), 20.0) == pytest.approx(0.2)

    def test_half_inside(self):
        c = cloud((0, 0), 0.5, n=10, spread=1.0)
        states = c.states.copy()
        states[5:, :2] += 1000.0
        d = density([BernoulliComponent(c.label, 0.5, states, c.weights)],
                    role="pseudo-posterior")
        assert void_probability(d, SensorState(0, 0, 0), 20.0) == pytest.approx(0.75)

    def test_empty_density_is_one(self):
        assert void_probability(empty_density(1, "fused"), SensorState(0, 0, 0), 20.0) == 1.0

    @pytest.mark.parametrize("trial", range(25))
    def test_matches_pure_python_enumeration(self, trial):
        rng = np.random.default_rng(trial)
        comps = [
            cloud(rng.uniform(-30, 30, 2), rng.uniform(0, 0.99),
                  Label(0, i, 0), n=40, spread=15.0, seed=trial * 10 + i)
            for i in range(rng.integers(1, 5))
        ]
        d = density(comps, role="pseudo-posterior")
        sensor = SensorState(*rng.uniform(-20, 20, 2), 0.0)
        rho = float(rng.uniform(5, 40))
        expected = 1.0
        for c in d.components:
            inside_w = 0.0
            for w, s in zip(c.weights, c.states):
                if math.hypot(s[0] - sensor.x, s[1] - sensor.y) <= rho:
                    inside_w += w
            expected *= 1.0 - c.existence * inside_w
        assert void_probability(d, sensor, rho) == pytest.approx(expected, abs=1e-12)


def stay_only_cache(predicted, states):
    """A PseudoCache whose sensors can only stay, all with the narrow FoV."""
    fovs = {s: NARROW_FOV for s in states}
    actions = {s: [SensorAction()] for s in states}
    return PseudoCache(predicted, states, fovs, actions, FCFG, PARAMS)


class TestConstraints:
    # psi, the fused void probability: the max over sensors of the void
    # probability of each sensor's exclusion disk
    def test_psi_far_from_everything(self):
        d = density([cloud((5000, 5000), 0.9)])
        states = {0: SensorState(0, 0, 0), 1: SensorState(100, 0, 0)}
        cache = stay_only_cache({0: d, 1: d}, states)
        psi = ControlContext(cache, (0, 1)).fused((0, 0)).psi
        assert psi == 1.0
        # under the stated direction psi < threshold this is infeasible
        assert not (psi < PARAMS.psi_threshold)

    def test_sensor_on_cloud_contributes(self):
        d = density([cloud((0, 5), 0.9, LABEL_A, spread=0.5)])
        cache = stay_only_cache({0: d}, {0: SensorState(0, 0, 0)})
        fe = ControlContext(cache, (0,)).fused((0,))
        # every particle lies in the exclusion disk
        assert fe.psi == pytest.approx(1.0 - fe.existences[LABEL_A], abs=1e-12)
        assert fe.psi < 0.1

    def test_empty_density_psi_one(self):
        cache = stay_only_cache({0: empty_density(1, "predicted")}, {0: SensorState(0, 0, 0)})
        assert ControlContext(cache, (0,)).fused((0,)).psi == 1.0

    def test_eta_three_four_five(self):
        sensors = {0: SensorState(0, 0, 0), 1: SensorState(30, 40, 0)}
        eta = sensor_sensor_constraint(sensors)
        assert eta == pytest.approx(50.0)
        assert not eta > PARAMS.eta_threshold  # strict inequality: infeasible

    def test_eta_minimum_of_pairs(self):
        sensors = {
            0: SensorState(0, 0, 0),
            1: SensorState(100, 0, 0),
            2: SensorState(100, 60, 0),
        }
        assert sensor_sensor_constraint(sensors) == pytest.approx(60.0)

    def test_eta_identical_positions(self):
        sensors = {0: SensorState(5, 5, 0), 1: SensorState(5, 5, 0)}
        assert sensor_sensor_constraint(sensors) == 0.0

    def test_eta_single_sensor_vacuous(self):
        assert sensor_sensor_constraint({0: SensorState(0, 0, 0)}) == math.inf


class TestDcdRunsRequired:
    def test_paper_values(self):
        assert dcd_runs_required(12, 0.95) == 35
        assert dcd_runs_required(16, 0.95) == 47

    def test_two_optima_even_odds(self):
        assert dcd_runs_required(2, 0.5) == 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            dcd_runs_required(1, 0.95)
        with pytest.raises(ValueError):
            dcd_runs_required(4, 1.0)
        with pytest.raises(ValueError):
            dcd_runs_required(4, 0.0)


class TestDetectCycle:
    def test_aba(self):
        assert detect_cycle(["a", "b", "a"]) == (1, 3)

    def test_immediate_convergence(self):
        assert detect_cycle(["a", "a"]) == (1, 2)

    def test_distinct_history(self):
        assert detect_cycle(["a", "b", "c"]) is None

    def test_earliest_pair_wins(self):
        assert detect_cycle(["a", "b", "b", "a"]) == (2, 3)


class TestSelectFinalCommand:
    def make_state(self, history, scores):
        s = DescentState(sensors=(0,))
        s.history = history
        s.scores = scores
        return s

    def test_argmax_inside_cycle(self):
        s = self.make_state(["a", "b", "a"], [5.0, 7.0, 5.0])
        assert select_final_command(s, 1, 3) == "b"

    def test_length_one_cycle(self):
        s = self.make_state(["a", "a"], [3.0, 3.0])
        assert select_final_command(s, 1, 2) == "a"

    def test_tie_takes_earliest(self):
        s = self.make_state(["a", "b", "a"], [4.0, 4.0, 4.0])
        assert select_final_command(s, 1, 3) == "a"


class TestDescentCore:
    def test_terminates_within_pigeonhole_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_sensors = int(rng.integers(1, 5))
            n_act = int(rng.integers(1, 4))
            ids = tuple(range(n_sensors))
            table = rng.normal(size=(n_sensors,) + (n_act,) * n_sensors)
            feasible = rng.random(size=(n_act,) * n_sensors) < 0.9

            def evaluate(s, cmd):
                if not feasible[cmd]:
                    return float("-inf")
                return float(table[s][cmd])

            init = {s: int(rng.integers(n_act)) for s in ids}
            out = run_flooded_descent(ids, {s: n_act for s in ids}, evaluate, init)
            assert out.iterations <= n_act**n_sensors + 1

    def test_deterministic(self):
        table = np.random.default_rng(1).normal(size=(3, 2, 2, 2))
        evaluate = lambda s, cmd: float(table[s][cmd])
        ids = (0, 1, 2)
        init = {0: 1, 1: 0, 2: 1}
        a = run_flooded_descent(ids, {s: 2 for s in ids}, evaluate, init)
        b = run_flooded_descent(ids, {s: 2 for s in ids}, evaluate, init)
        assert a.command == b.command and a.score == b.score

    def test_final_score_matches_reevaluation(self):
        table = np.random.default_rng(2).normal(size=(2, 3, 3))
        evaluate = lambda s, cmd: float(table[s][cmd])
        ids = (0, 1)
        out = run_flooded_descent(ids, {0: 3, 1: 3}, evaluate, {0: 0, 1: 0})
        assert out.score == pytest.approx(
            evaluate(out.stopped_at_sensor, out.command)
        )

    def test_all_infeasible_falls_back_to_zero(self):
        evaluate = lambda s, cmd: float("-inf")
        out = run_flooded_descent((0, 1), {0: 2, 1: 2}, evaluate, {0: 1, 1: 1})
        assert out.command == (0, 0)


# ---------------------------------------------------------------------------
# Production pipeline fixtures
# ---------------------------------------------------------------------------

NARROW_FOV = FovModel(
    rho_max=500.0, theta_max=math.radians(20.0), p_d_max=0.99, k_rho=0.5, k_theta=20.0
)
FCFG = FilterConfig(clutter_intensity=2.5e-5, particle_count=100, association_gate=50.0)

LABEL_A = Label(0, 0, 0)
LABEL_B = Label(0, 1, 0)
TOWARD_B = math.atan2(200.0, 300.0)  # bearing from s0 at (0,0) to B at (200,300)


def two_sensor_cache(r_a=0.9, r_b=0.9):
    """Two sensors, two shared targets; action 0 watches own target,
    action 1 rotates to the other."""
    predicted = {
        0: density(
            [cloud((0, 300), r_a, LABEL_A, spread=3.0, seed=1),
             cloud((200, 300), r_b, LABEL_B, spread=3.0, seed=2)]
        ),
        1: density(
            [cloud((0, 300), r_a, LABEL_A, spread=3.0, seed=3),
             cloud((200, 300), r_b, LABEL_B, spread=3.0, seed=4)]
        ),
    }
    states = {0: SensorState(0, 0, 0), 1: SensorState(200, 0, 0)}
    actions = {
        0: [SensorAction(), SensorAction(rotation=TOWARD_B)],
        1: [SensorAction(), SensorAction(rotation=-TOWARD_B)],
    }
    fovs = {0: NARROW_FOV, 1: NARROW_FOV}
    return PseudoCache(predicted, states, fovs, actions, FCFG, PARAMS)


class TestIscSelect:
    def test_rotation_toward_target_wins(self):
        predicted = {0: density([cloud((0, 300), 0.5, LABEL_A, spread=3.0)])}
        states = {0: SensorState(0, 0, math.pi / 2)}  # facing east, target north
        actions = {0: [SensorAction(), SensorAction(rotation=-math.pi / 2)]}
        cache = PseudoCache(predicted, states, {0: NARROW_FOV}, actions, FCFG, PARAMS)
        action, score = isc_select(0, cache)
        assert action == 1  # rotate back toward the target
        assert score > 0

    def test_identical_outcomes_tie_break_to_zero(self):
        predicted = {0: density([cloud((0, 300), 0.5, LABEL_A, spread=3.0)])}
        states = {0: SensorState(0, 0, 0)}
        actions = {0: [SensorAction(), SensorAction()]}  # two identical actions
        cache = PseudoCache(predicted, states, {0: NARROW_FOV}, actions, FCFG, PARAMS)
        action, _ = isc_select(0, cache)
        assert action == 0

    def test_single_target_one_action_keeps_it(self):
        cache = two_sensor_cache()
        action, _ = isc_select(0, cache)
        assert action == 0  # staying keeps its own target in view


class TestFdcdPipeline:
    def test_complementary_assignment_from_bad_start(self):
        cache = two_sensor_cache()
        ctx = ControlContext(cache, (0, 1))
        # both start watching target A: s0 stays, s1 rotates toward A
        out = run_flooded_descent((0, 1), ctx.n_actions(), ctx.evaluate, {0: 0, 1: 1})
        assert out.command in {(0, 0), (1, 1)}  # one sensor per target

    def test_covering_covered_target_scores_no_higher(self):
        cache = two_sensor_cache()
        ctx = ControlContext(cache, (0, 1))
        # sensor 1 watches B either way; sensor 0 choosing B too (duplicating)
        # cannot beat covering the otherwise-dropped A
        dup = ctx.evaluate(0, (1, 0))   # both watch B, A dropped
        split = ctx.evaluate(0, (0, 0))  # complementary
        assert split > dup

    def test_single_sensor_degenerates_to_greedy_choice(self):
        predicted = {0: density([cloud((0, 300), 0.5, LABEL_A, spread=3.0)])}
        states = {0: SensorState(0, 0, math.pi / 2)}
        actions = {0: [SensorAction(), SensorAction(rotation=-math.pi / 2)]}
        cache = PseudoCache(predicted, states, {0: NARROW_FOV}, actions, FCFG, PARAMS)
        ctx = ControlContext(cache, (0,))
        isc_action, _ = isc_select(0, cache)
        out = run_flooded_descent((0,), ctx.n_actions(), ctx.evaluate, {0: isc_action})
        assert out.command == (isc_action,)

    def test_fused_existences_match_fuse_lmb(self):
        from sentrack.fusion import compute_active_set, fuse_lmb

        cache = two_sensor_cache(r_a=0.7, r_b=0.8)
        ctx = ControlContext(cache, (0, 1))
        cmd = (0, 0)
        fe = ctx.fused(cmd)
        locals_ = {s: cache.pseudo(s, cmd[s]) for s in (0, 1)}
        active = {}
        for s in (0, 1):
            upd = {c.label: c.mean_position() for c in locals_[s].components}
            pred = cache.predicted_means[s]
            for label in compute_active_set(cache.state_after(s, cmd[s]), NARROW_FOV, upd, pred):
                active.setdefault(label, set()).add(s)
        fused = fuse_lmb(locals_, active, "pseudo")
        assert set(fe.existences) == fused.labels()
        for label, r in fe.existences.items():
            assert r == pytest.approx(fused.by_label()[label].existence, abs=1e-12)


class TestDcdSelect:
    def test_isolated_node_matches_isc(self):
        cache = two_sensor_cache()
        rng = np.random.default_rng(0)
        action = dcd_sc_select(0, set(), cache, runs=1, rng=rng)
        isc_action, _ = isc_select(0, cache)
        assert action == isc_action

    def test_full_neighborhood_complementary(self):
        cache = two_sensor_cache()
        rng = np.random.default_rng(1)
        a0 = dcd_sc_select(0, {1}, cache, runs=4, rng=rng)
        rng = np.random.default_rng(1)
        a1 = dcd_sc_select(1, {0}, cache, runs=4, rng=rng)
        # both nodes descend the same landscape; their own components must
        # form a complementary pair
        assert (a0, a1) in {(0, 0), (1, 1)}

    def test_more_runs_never_hurt_expected_score(self):
        cache = two_sensor_cache()
        ctx = ControlContext(cache, (0, 1))
        n_act = ctx.n_actions()

        def best_score(runs, seed):
            rng = np.random.default_rng(seed)
            best = -math.inf
            for _ in range(runs):
                init = {s: int(rng.integers(n_act[s])) for s in (0, 1)}
                out = run_flooded_descent((0, 1), n_act, ctx.evaluate, init)
                best = max(best, out.score)
            return best

        scores1 = [best_score(1, s) for s in range(8)]
        scores4 = [best_score(4, s) for s in range(8)]
        assert np.mean(scores4) >= np.mean(scores1) - 1e-9
