import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from density_checks import every_row
from sentrack import control, filtering
from sentrack.control import (
    NEG_INF,
    ControlContext,
    ObjectiveParams,
    PseudoCache,
    bernoulli_kld,
    dcd_sc_select,
    drop_penalty,
    existence_map,
    isc_select,
    kld_existence,
    objective,
    run_flooded_descent,
    separation,
    void_probability,
)
from sentrack.filtering import FilterConfig, pseudo_update
from sentrack.fusion import compute_active_set, existence_odds, fuse_lmb
from sentrack.lmb import Component, Label, LmbDensity, empty_density
from sentrack.sensors import (
    FovModel,
    SensorAction,
    SensorState,
    apply_action,
    detection_probabilities,
)

PARAMS = ObjectiveParams()

unit_prob = st.floats(min_value=1e-6, max_value=1.0 - 1e-6, allow_nan=False)


def cloud(center, existence, label=Label(0, 0, 0), n=60, spread=5.0, seed=0, velocity=(0, 0)):
    rng = np.random.default_rng(seed)
    states = np.zeros((n, 4))
    states[:, :2] = np.asarray(center, dtype=float) + rng.normal(0, spread, (n, 2))
    states[:, 2:] = velocity
    return Component(label, existence, states, np.full(n, 1.0 / n))


def density(comps, timestamp=1, role="predicted"):
    return LmbDensity.from_rows(comps, timestamp, role)


def comp_of(density, label):
    return density.components[density.labels.index(label)]


def exist_density(existences, role="predicted"):
    comps = [cloud((i * 100, 0), r, Label(0, i, 0), seed=i) for i, r in enumerate(existences)]
    return density(comps, role=role)


class TestKldExistence:
    def test_identical_is_zero(self):
        d = existence_map(exist_density([0.3, 0.9]))
        assert kld_existence(d, d, 1e-6) == pytest.approx(0.0, abs=1e-12)

    def test_dropped_label_reduction(self):
        d2 = existence_map(exist_density([0.5]))
        d1 = existence_map(empty_density(1, "predicted"))
        assert kld_existence(d1, d2, 1e-6) == pytest.approx(-math.log(0.5), abs=1e-9)

    def test_new_label_epsilon_substitution(self):
        d1 = existence_map(exist_density([0.9]))
        d2 = existence_map(empty_density(1, "predicted"))
        expected = 0.9 * math.log(0.9 / 1e-6) + 0.1 * math.log(0.1 / (1 - 1e-6))
        assert kld_existence(d1, d2, 1e-6) == pytest.approx(expected, abs=1e-6)
        assert kld_existence(d1, d2, 1e-6) == pytest.approx(12.109, abs=1e-3)

    @given(st.lists(st.tuples(unit_prob, unit_prob), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_nonnegative_on_shared_labels(self, pairs):
        d1 = existence_map(exist_density([a for a, _ in pairs]))
        d2 = existence_map(exist_density([b for _, b in pairs]))
        assert kld_existence(d1, d2, 1e-6) >= -1e-12

    @given(unit_prob, unit_prob)
    @settings(max_examples=300, deadline=None)
    def test_closed_form_matches_two_point_enumeration(self, r1, r2):
        # independent oracle: KLD between (r, 1-r) two-point distributions
        numeric = r1 * math.log(r1 / r2) + (1 - r1) * math.log((1 - r1) / (1 - r2))
        assert bernoulli_kld(r1, r2) == pytest.approx(numeric, abs=1e-9)


class TestDropPenalty:
    def test_no_drop(self):
        d = existence_map(exist_density([0.5]))
        assert drop_penalty(d, d, 100.0) == 0.0

    def test_single_drop(self):
        d2 = existence_map(exist_density([0.5]))
        d1 = existence_map(empty_density(1, "predicted"))
        assert drop_penalty(d1, d2, 100.0) == pytest.approx(69.31, abs=0.01)

    def test_net_contribution_negative(self):
        d2 = existence_map(exist_density([0.5]))
        d1 = existence_map(empty_density(1, "predicted"))
        net = kld_existence(d1, d2, 1e-6) - drop_penalty(d1, d2, 100.0)
        assert net == pytest.approx(0.6931 - 69.31, abs=0.01)
        assert net < 0


class TestObjective:
    def test_identical_zero(self):
        d = existence_map(exist_density([0.4, 0.8]))
        assert objective(d, d, PARAMS) == pytest.approx(0.0, abs=1e-12)

    def test_new_label_gain(self):
        d1 = existence_map(exist_density([0.9]))
        d2 = existence_map(empty_density(1, "predicted"))
        assert objective(d1, d2, PARAMS) == pytest.approx(12.109, abs=1e-3)

    def test_dropped_label_cost(self):
        d2 = existence_map(exist_density([0.5]))
        d1 = existence_map(empty_density(1, "predicted"))
        assert objective(d1, d2, PARAMS) == pytest.approx(-68.62, abs=0.01)


def enumerated_psi(components, sensor, rho):
    """Oracle for the psi rule: one pure-Python pass over every particle."""
    expected = 1.0
    for c in components:
        inside_w = 0.0
        for w, s in zip(c.weights, c.states):
            if math.hypot(s[0] - sensor.x, s[1] - sensor.y) <= rho:
                inside_w += w
        expected *= 1.0 - c.existence * inside_w
    return expected


def stay_psi(predicted, sensor, rho):
    """psi of one staying sensor over its own pseudo-posterior, as isc_select
    computes it, and that pseudo-posterior with every row built."""
    cache = stay_only_cache({0: predicted}, {0: sensor}, replace(PARAMS, exclusion_radius=rho))
    inside = cache.indisk_weight(0, 0, (sensor.x, sensor.y))
    psi = 1.0 if inside is None else void_probability(cache.pseudo(0, 0).existences, inside)
    return psi, every_row(cache.pseudo(0, 0))


class TestVoidProbability:
    def test_all_outside(self):
        psi, _ = stay_psi(density([cloud((500, 500), 0.9)]), SensorState(0, 0, 0), 20.0)
        assert psi == 1.0

    def test_all_inside(self):
        d = density([cloud((0, 0), 0.8, spread=1.0)])
        psi, pseudo = stay_psi(d, SensorState(0, 0, 0), 20.0)
        assert psi == pytest.approx(1.0 - pseudo.components[0].existence, abs=1e-12)

    def test_half_inside(self):
        c = cloud((0, 0), 0.5, n=10, spread=1.0)
        states = c.states.copy()
        states[5:, :2] += 1000.0
        d = density([Component(c.label, 0.5, states, c.weights)])
        psi, pseudo = stay_psi(d, SensorState(0, 0, 0), 20.0)
        comp = pseudo.components[0]
        assert np.array_equal(comp.states, states)
        expected = 1.0 - comp.existence * comp.weights[:5].sum()
        assert psi == pytest.approx(expected, abs=1e-12)

    def test_empty_density_is_one(self):
        psi, _ = stay_psi(empty_density(1, "predicted"), SensorState(0, 0, 0), 20.0)
        assert psi == 1.0

    @pytest.mark.parametrize("trial", range(25))
    def test_matches_pure_python_enumeration(self, trial):
        rng = np.random.default_rng(trial)
        comps = [
            cloud(rng.uniform(-30, 30, 2), rng.uniform(0, 0.99),
                  Label(0, i, 0), n=40, spread=15.0, seed=trial * 10 + i)
            for i in range(rng.integers(1, 5))
        ]
        sensor = SensorState(*rng.uniform(-20, 20, 2), 0.0)
        rho = float(rng.uniform(5, 40))
        psi, pseudo = stay_psi(density(comps), sensor, rho)
        assert len(pseudo.components) == len(comps)
        assert psi == pytest.approx(enumerated_psi(pseudo.components, sensor, rho), abs=1e-12)


def stay_only_cache(predicted, states, params=PARAMS):
    """A PseudoCache whose sensors can only stay, all with the narrow FoV."""
    fovs = {s: NARROW_FOV for s in states}
    actions = {s: [SensorAction()] for s in states}
    return pseudo_cache(predicted, states, fovs, actions, params)


class TestConstraints:
    # psi, the fused void probability: the max over sensors of the void
    # probability of each sensor's exclusion disk
    def test_psi_far_from_everything(self):
        d = density([cloud((5000, 5000), 0.9)])
        states = {0: SensorState(0, 0, 0), 1: SensorState(100, 0, 0)}
        cache = stay_only_cache({0: d, 1: d}, states)
        ctx = ControlContext(cache, (0, 1))
        fe = ctx.fused((0, 0))
        assert fe.psi == 1.0
        # exclusion disks certainly empty: feasible
        assert fe.psi > PARAMS.psi_threshold and ctx.evaluate(0, (0, 0)) > NEG_INF

    def test_sensor_on_cloud_contributes(self):
        d = density([cloud((0, 5), 0.9, LABEL_A, spread=0.5)])
        cache = stay_only_cache({0: d}, {0: SensorState(0, 0, 0)})
        ctx = ControlContext(cache, (0,))
        fe = ctx.fused((0,))
        # every particle lies in the exclusion disk
        assert fe.psi == pytest.approx(1.0 - fe.existences[LABEL_A], abs=1e-12)
        assert fe.psi < 0.1
        assert ctx.evaluate(0, (0,)) == NEG_INF

    def test_close_sensors_infeasible_with_empty_disks(self):
        d = density([cloud((5000, 5000), 0.9)])
        states = {0: SensorState(0, 0, 0), 1: SensorState(30, 40, 0)}
        ctx = ControlContext(stay_only_cache({0: d, 1: d}, states), (0, 1))
        assert ctx.fused((0, 0)).psi == 1.0
        assert separation(ctx.centers((0, 0))) == pytest.approx(50.0)
        assert ctx.evaluate(0, (0, 0)) == NEG_INF

    def test_empty_density_psi_one(self):
        cache = stay_only_cache({0: empty_density(1, "predicted")}, {0: SensorState(0, 0, 0)})
        assert ControlContext(cache, (0,)).fused((0,)).psi == 1.0

    # eta, the smallest distance between two participants after the command,
    # decided by separation before any fusion
    @staticmethod
    def eta_context(states):
        d = density([cloud((5000, 5000), 0.9)])
        return ControlContext(stay_only_cache({s: d for s in states}, states), tuple(states))

    def test_eta_three_four_five(self):
        ctx = self.eta_context({0: SensorState(0, 0, 0), 1: SensorState(30, 40, 0)})
        assert separation(ctx.centers((0, 0))) == pytest.approx(50.0)
        assert ctx.evaluate(0, (0, 0)) == NEG_INF  # strict inequality: infeasible

    def test_eta_minimum_of_pairs(self):
        states = {0: SensorState(0, 0, 0), 1: SensorState(100, 0, 0), 2: SensorState(100, 60, 0)}
        ctx = self.eta_context(states)
        assert separation(ctx.centers((0, 0, 0))) == pytest.approx(60.0)
        assert ctx.evaluate(0, (0, 0, 0)) > NEG_INF

    def test_eta_identical_positions(self):
        ctx = self.eta_context({0: SensorState(5, 5, 0), 1: SensorState(5, 5, 0)})
        assert separation(ctx.centers((0, 0))) == 0.0

    def test_eta_single_sensor_vacuous(self):
        ctx = self.eta_context({0: SensorState(0, 0, 0)})
        assert separation(ctx.centers((0,))) == math.inf and ctx.evaluate(0, (0,)) > NEG_INF

    @staticmethod
    def approaching_context():
        """Sensors 100 m apart, each able to step 30 m toward the other."""
        d = density([cloud((5000, 5000), 0.9)])
        states = {0: SensorState(0, 0, 0), 1: SensorState(100, 0, 0)}
        actions = {0: [SensorAction(), SensorAction(dx=30.0)],
                   1: [SensorAction(), SensorAction(dx=-30.0)]}
        cache = pseudo_cache({0: d, 1: d}, states, {0: NARROW_FOV, 1: NARROW_FOV}, actions)
        return ControlContext(cache, (0, 1))

    def test_eta_uses_post_action_positions(self):
        # 40 m apart when both step
        ctx = self.approaching_context()
        eta = {cmd: separation(ctx.centers(cmd)) for cmd in [(0, 0), (0, 1), (1, 1)]}
        assert eta == {(0, 0): 100.0, (0, 1): 70.0, (1, 1): 40.0}
        assert ctx.evaluate(0, (1, 1)) == NEG_INF

    def test_eta_failure_skips_fusion_and_psi(self, monkeypatch):
        ctx = self.approaching_context()
        fused, calls, original = [], count_indisk_calls(monkeypatch, ctx.cache), ctx.fused
        monkeypatch.setattr(ctx, "fused", lambda command: fused.append(command) or original(command))
        assert ctx.evaluate(0, (1, 1)) == NEG_INF
        assert fused == [] and calls == []


coordinate = st.one_of(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False),
    st.integers(min_value=-1000, max_value=1000).map(float),
)
# offsets exactly PARAMS.eta_threshold (50 m) long, in exact arithmetic and in floats
THRESHOLD_OFFSETS = [(50.0, 0.0), (0.0, -50.0), (30.0, 40.0), (-40.0, 30.0), (-14.0, -48.0)]
point = st.tuples(coordinate, coordinate)


@st.composite
def positions(draw):
    """Up to 7 points, some placed at an exact threshold offset from an
    integer point among them."""
    points = draw(st.lists(point, max_size=5))
    anchors = [p for p in points if p[0].is_integer() and p[1].is_integer()]
    if anchors:
        for dx, dy in draw(st.lists(st.sampled_from(THRESHOLD_OFFSETS), max_size=2)):
            x, y = draw(st.sampled_from(anchors))
            points.insert(draw(st.integers(0, len(points))), (x + dx, y + dy))
    return points


class TestSeparation:
    # separation keeps the bits of the two eta forms it replaced: fused's
    # math.dist over the pairs of post-action positions, and isc_select's
    # math.hypot from the node's position to each fixed position

    @given(positions())
    @settings(max_examples=300, deadline=None)
    def test_pairs_of_moving_positions_equal_the_dist_form(self, moving):
        pairs = itertools.combinations(moving, 2)
        assert separation(moving) == min(itertools.starmap(math.dist, pairs), default=math.inf)

    @given(point, positions())
    @settings(max_examples=300, deadline=None)
    def test_one_moving_against_fixed_equals_the_hypot_form(self, p, fixed):
        old = min((math.hypot(p[0] - q[0], p[1] - q[1]) for q in fixed), default=math.inf)
        assert separation([p], fixed) == old

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000), st.sampled_from(THRESHOLD_OFFSETS))
    @settings(max_examples=30, deadline=None)
    def test_exactly_the_threshold_apart_is_infeasible_in_both_selectors(self, x, y, offset):
        states = {0: SensorState(x, y, 0), 1: SensorState(x + offset[0], y + offset[1], 0)}
        cache = stay_only_cache({s: empty_density(1, "predicted") for s in states}, states)
        ctx = ControlContext(cache, (0, 1))
        assert separation(ctx.centers((0, 0))) == PARAMS.eta_threshold
        assert separation(ctx.centers((0, 0))[:1], ctx.centers((0, 0))[1:]) == PARAMS.eta_threshold
        # the strict rule: a command exactly eta_threshold apart scores -inf
        assert ctx.evaluate(0, (0, 0)) == NEG_INF
        assert isc_select(0, cache, [1]) == (0, NEG_INF)
        assert isc_select(0, cache) == (0, 0.0)


# ---------------------------------------------------------------------------
# Descent oracle: the stopping rule kept as a scan of parallel command and
# score histories, rebuilt after every turn
# ---------------------------------------------------------------------------


def detect_cycle(history: list) -> tuple | None:
    """First repeated command in a descent history.

    Returns 1-based positions (t_start, t_end) of the first pair of equal
    commands, or None when all commands are distinct.
    """
    seen = {}
    for t, cmd in enumerate(history):
        if cmd in seen:
            return seen[cmd] + 1, t + 1
        seen[cmd] = t
    return None


def select_final_command(history: list, scores: list, t_start: int, t_end: int) -> tuple:
    """Command in the cycle [t_start, t_end] with the highest stored score.

    history[i] is one sensor's multi-sensor command after its turn at
    iteration i (entry 0 is the initialization round) and scores[i] its
    objective value.  Positions are 1-based as returned by detect_cycle;
    ties go to the earliest iteration.
    """
    best_t = t_start
    for t in range(t_start, t_end + 1):
        if scores[t - 1] > scores[best_t - 1]:
            best_t = t
    return history[best_t - 1]


def best_own_action_reference(node, position, latest, n_actions, evaluate):
    """Exhaustive own-action search that starts from no action (None); the
    stay action scores -inf when every candidate does, with no second call."""
    best_action, best_score = None, NEG_INF
    for a in range(n_actions):
        candidate = latest.copy()
        candidate[position] = a
        score = evaluate(node, tuple(candidate))
        if score > best_score:
            best_action, best_score = a, score
    if best_action is None:
        return 0, NEG_INF
    return best_action, best_score


def descent_reference(sensor_ids, n_actions, evaluate, initial_actions):
    """(command, score, iterations, turns) of the history-scan descent."""
    ids = tuple(sorted(sensor_ids))
    pos = {s: i for i, s in enumerate(ids)}
    latest = [initial_actions[s] for s in ids]
    cmd0 = tuple(latest)
    history = {s: [cmd0] for s in ids}
    scores = {s: [evaluate(s, cmd0)] for s in ids}
    turns = []

    bound = 1
    for s in ids:
        bound *= max(n_actions[s], 1)

    for t in range(1, bound + 2):
        for s in ids:
            action, score = best_own_action_reference(s, pos[s], latest, n_actions[s], evaluate)
            latest[pos[s]] = action
            turns.append(s)
            history[s].append(tuple(latest))
            scores[s].append(score)
            cycle = detect_cycle(history[s])
            if cycle is not None:
                final = select_final_command(history[s], scores[s], *cycle)
                return final, scores[s][history[s].index(final)], t, tuple(turns)
    raise RuntimeError("coordinate descent failed to cycle within its pigeonhole bound")


def table_evaluator(table, calls=None):
    """evaluate(s, cmd) from {(s, cmd): score}, logging each call in calls."""

    def evaluate(s, cmd):
        if calls is not None:
            calls.append((s, cmd))
        return table[(s, cmd)]

    return evaluate


@st.composite
def score_tables(draw):
    """Unsorted sensor ids, per-sensor action counts, initial actions and a
    full (sensor, command) score table with ties and -inf cells."""
    n = draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n, unique=True))
    n_actions = {s: draw(st.integers(1, 3)) for s in ids}
    ordered = sorted(ids)
    cell = st.one_of(st.integers(-3, 3).map(float), st.just(NEG_INF))
    table = {
        (s, cmd): draw(cell)
        for cmd in itertools.product(*(range(n_actions[s]) for s in ordered))
        for s in ids
    }
    init = {s: draw(st.integers(0, n_actions[s] - 1)) for s in ids}
    return ids, n_actions, table, init


class TestDescentOracle:
    @settings(max_examples=500, deadline=None)
    @given(case=score_tables())
    def test_matches_history_scan(self, case):
        ids, n_actions, table, init = case
        out = run_flooded_descent(ids, n_actions, table_evaluator(table), init)
        expected = descent_reference(ids, n_actions, table_evaluator(table), init)
        assert (out.command, out.score, out.iterations, out.turns) == expected

    @settings(max_examples=200, deadline=None)
    @given(case=score_tables())
    def test_same_evaluations_in_the_same_order(self, case):
        ids, n_actions, table, init = case
        ours, theirs = [], []
        run_flooded_descent(ids, n_actions, table_evaluator(table, ours), init)
        descent_reference(ids, n_actions, table_evaluator(table, theirs), init)
        assert ours == theirs

    @staticmethod
    def chase(reply_score):
        """Two sensors, two actions: sensor 0 scores 1 for differing from
        sensor 1's action, sensor 1 scores reply_score[cmd] (it wants to match)."""
        table = {}
        for cmd in itertools.product(range(2), range(2)):
            table[(0, cmd)] = float(cmd[0] != cmd[1])
            table[(1, cmd)] = reply_score.get(cmd, 0.0)
        return table_evaluator(table)

    def test_first_repeat_closes_the_cycle(self):
        # sensor 1 records (0, 0), then (1, 1), then meets (0, 0) again at
        # iteration 2; the best entry from (0, 0)'s first entry on is (1, 1)
        evaluate = self.chase({(0, 0): 1.0, (1, 1): 2.0})
        out = run_flooded_descent((0, 1), {0: 2, 1: 2}, evaluate, {0: 0, 1: 0})
        assert (out.command, out.score, out.iterations) == ((1, 1), 2.0, 2)
        assert out.turns == (0, 1, 0, 1)

    def test_tie_in_the_cycle_goes_to_the_earliest_entry(self):
        # the same cycle as above, with both of its entries scoring 1
        evaluate = self.chase({(0, 0): 1.0, (1, 1): 1.0})
        out = run_flooded_descent((0, 1), {0: 2, 1: 2}, evaluate, {0: 0, 1: 0})
        assert (out.command, out.score, out.iterations) == ((0, 0), 1.0, 2)
        assert out.turns == (0, 1, 0, 1)

    def test_cycle_of_length_one(self):
        # the initial command is already sensor 0's best reply
        commands = list(itertools.product(range(2), repeat=2))
        table = {(s, cmd): float(cmd == (1, 0)) for s in (0, 1) for cmd in commands}
        out = run_flooded_descent((0, 1), {0: 2, 1: 2}, table_evaluator(table), {0: 1, 1: 0})
        assert (out.command, out.score, out.iterations, out.turns) == ((1, 0), 1.0, 1, (0,))

    def test_repeat_in_another_sensors_record_does_not_stop(self):
        # both sensors prefer action 1: sensor 1 records (1, 1) first, and
        # sensor 0 reaching (1, 1) next is new to its own record, so the
        # descent stops only at sensor 1's second turn
        commands = list(itertools.product(range(2), repeat=2))
        table = {(s, cmd): float(cmd[s] == 1) for s in (0, 1) for cmd in commands}
        out = run_flooded_descent((0, 1), {0: 2, 1: 2}, table_evaluator(table), {0: 0, 1: 0})
        assert (out.command, out.score, out.iterations) == ((1, 1), 1.0, 2)
        assert out.turns == (0, 1, 0, 1)


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
        assert out.score == evaluate(out.turns[-1], out.command)

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


def pseudo_cache(predicted, states, fovs, actions, params=PARAMS):
    """A PseudoCache with the test filter config for every sensor."""
    return PseudoCache(predicted, states, fovs, actions, {s: FCFG for s in predicted}, params)


LABEL_A = Label(0, 0, 0)
LABEL_B = Label(0, 1, 0)
TOWARD_B = math.atan2(200.0, 300.0)  # bearing from s0 at (0,0) to B at (200,300)


TWO_SENSOR_ACTIONS = {
    0: [SensorAction(), SensorAction(rotation=TOWARD_B)],
    1: [SensorAction(), SensorAction(rotation=-TOWARD_B)],
}


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
    fovs = {0: NARROW_FOV, 1: NARROW_FOV}
    return pseudo_cache(predicted, states, fovs, TWO_SENSOR_ACTIONS)


def isc_cache(others):
    """Sensor 0 at the origin facing east, a target to its north; its
    action 1 steps 30 m east and turns north, the only way to see it.
    Sensors 1, 2, ... stand at the given positions and can only stay."""
    predicted = {0: density([cloud((0, 300), 0.5, LABEL_A, spread=3.0)])}
    states = {0: SensorState(0, 0, math.pi / 2)}
    actions = {0: [SensorAction(), SensorAction(dx=30.0, rotation=-math.pi / 2)]}
    for s, (x, y) in enumerate(others, start=1):
        predicted[s], states[s] = empty_density(1, "predicted"), SensorState(x, y, 0)
        actions[s] = [SensorAction()]
    return pseudo_cache(predicted, states, {s: NARROW_FOV for s in states}, actions)


class TestIscSelect:
    def test_rotation_toward_target_wins(self):
        predicted = {0: density([cloud((0, 300), 0.5, LABEL_A, spread=3.0)])}
        states = {0: SensorState(0, 0, math.pi / 2)}  # facing east, target north
        actions = {0: [SensorAction(), SensorAction(rotation=-math.pi / 2)]}
        cache = pseudo_cache(predicted, states, {0: NARROW_FOV}, actions)
        action, score = isc_select(0, cache)
        assert action == 1  # rotate back toward the target
        assert score > 0

    def test_identical_outcomes_tie_break_to_zero(self):
        predicted = {0: density([cloud((0, 300), 0.5, LABEL_A, spread=3.0)])}
        states = {0: SensorState(0, 0, 0)}
        actions = {0: [SensorAction(), SensorAction()]}  # two identical actions
        cache = pseudo_cache(predicted, states, {0: NARROW_FOV}, actions)
        action, _ = isc_select(0, cache)
        assert action == 0

    def test_single_target_one_action_keeps_it(self):
        cache = two_sensor_cache()
        action, _ = isc_select(0, cache)
        assert action == 0  # staying keeps its own target in view

    # eta: the post-action position against the others' current positions
    def test_action_landing_near_another_sensor_skipped(self):
        # the step lands 30 m from sensor 1; staying keeps 60 m
        cache = isc_cache([(60.0, 0.0)])
        assert isc_select(0, cache)[0] == 1
        assert isc_select(0, cache, [1]) == (0, 0.0)

    def test_distance_equal_to_threshold_rejected(self):
        # the step lands exactly eta_threshold (50 m) from sensor 1
        cache = isc_cache([(80.0, 0.0)])
        assert isc_select(0, cache, [1])[0] == 0

    def test_other_sensors_close_to_each_other_do_not_constrain_the_node(self):
        cache = isc_cache([(500.0, 0.0), (505.0, 0.0)])
        best = isc_select(0, cache)
        assert best[0] == 1 and best[1] > 0
        assert isc_select(0, cache, [1, 2]) == best

    def test_without_others_distance_never_rejects(self):
        # sensor 1 stands where the step lands, and next to the origin
        cache = isc_cache([(30.0, 0.0)])
        assert isc_select(0, cache)[0] == 1
        assert isc_select(0, cache, [1]) == (0, NEG_INF)


class TestPseudoCache:
    def test_after_holds_every_post_action_state(self):
        states = {0: SensorState(10, 20, 0.5), 1: SensorState(-5, 0, -3.0)}
        actions = {0: [SensorAction(), SensorAction(dx=3.0, dy=-4.0, rotation=1.0)],
                   1: [SensorAction(), SensorAction(rotation=0.5), SensorAction(dy=15.0)]}
        d = density([cloud((0, 300), 0.5)])
        cache = pseudo_cache({0: d, 1: d}, states, {0: NARROW_FOV, 1: NARROW_FOV}, actions)
        assert cache.after == {
            s: [apply_action(states[s], action) for action in actions[s]] for s in states
        }

    def test_empty_predicted_density_pseudo_updated_once(self, monkeypatch):
        calls = []

        def counted(predicted, pims_sets, states, *args):
            calls.append((len(predicted.labels), len(states)))
            return pseudo_update(predicted, pims_sets, states, *args)

        monkeypatch.setattr(control, "pseudo_update", counted)
        base = two_sensor_cache()
        cache = pseudo_cache(
            {0: base.predicted[0], 1: empty_density(1, "predicted")},
            {s: after[0] for s, after in base.after.items()},
            base.fovs,
            TWO_SENSOR_ACTIONS,
        )
        # each sensor's density, empty or not, is pseudo-updated at every
        # action's pose on its first look-up, by one call
        pseudos = [cache.pseudo(1, a) for a in range(len(cache.after[1]))]
        assert calls == [(0, len(cache.after[1]))]
        assert len({id(p) for p in pseudos}) == len(pseudos)
        assert all(p.labels == () for p in pseudos)
        for a in range(len(cache.after[0])):
            cache.pseudo(0, a)
        assert calls == [(0, len(cache.after[1])), (2, 2)]


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
        cache = pseudo_cache(predicted, states, {0: NARROW_FOV}, actions)
        ctx = ControlContext(cache, (0,))
        isc_action, _ = isc_select(0, cache)
        out = run_flooded_descent((0,), ctx.n_actions(), ctx.evaluate, {0: isc_action})
        assert out.command == (isc_action,)

    def test_fused_existences_match_fuse_lmb(self):
        cache = two_sensor_cache(r_a=0.7, r_b=0.8)
        ctx = ControlContext(cache, (0, 1))
        cmd = (0, 0)
        fe = ctx.fused(cmd)
        locals_ = {s: every_row(cache.pseudo(s, cmd[s])) for s in (0, 1)}
        active = active_sets(cache, (0, 1), cmd)
        # fuse_lmb over the labels some participant is active for
        fused = fuse_lmb(locals_, active_masks(cache, (0, 1), cmd), 0.0)
        assert set(fe.existences) == set(active) == set(fused.labels)
        for label, r in fe.existences.items():
            assert r == pytest.approx(comp_of(fused, label).existence, abs=1e-12)


def component_means(density):
    """(K, 2) mean position of each component, one component at a time."""
    return np.array([c.weights @ c.states[:, :2] for c in density.components]).reshape(-1, 2)


def active_masks(cache, participants, command):
    """participant -> row mask of its pseudo-posterior, by compute_active_set
    on component-by-component means of every row; a pseudo-posterior keeps
    its predicted density's rows."""
    return {
        s: compute_active_set(
            cache.after[s][a],
            cache.fovs[s],
            component_means(cache.predicted[s]),
            component_means(every_row(cache.pseudo(s, a))).__getitem__,
        )
        for s, a in zip(participants, command)
    }


def active_sets(cache, participants, command):
    """label -> participants active for it, by active_masks."""
    active = {}
    for (s, mask), a in zip(active_masks(cache, participants, command).items(), command):
        for label, on in zip(cache.pseudo(s, a).labels, mask.tolist()):
            if on:
                active.setdefault(label, set()).add(s)
    return active


def odds_add(existences):
    """Complementary existence fusion: the odds r / (1 - r) add."""
    total = sum(r / (1.0 - r) for r in existences)
    return total / (1.0 + total)


def odds_weighted_union(components):
    """The union of same-label clouds that fuse_spatial resamples: each
    cloud's weights scaled by its share of the existence odds."""
    odds = existence_odds(np.array([c.existence for c in components]))
    states = np.concatenate([c.states for c in components])
    weights = np.concatenate([c.weights * share for c, share in zip(components, odds / odds.sum())])
    return states, weights


WIDE_FOV = FovModel(rho_max=120.0, theta_max=math.pi, p_d_max=0.99, k_rho=0.5, k_theta=20.0)


def seeded_cache(seed):
    """2-3 sensors amid 3-5 targets; each sensor holds its own particles for
    a random subset of the targets, some beyond its range; every sensor can
    stay, step or rotate."""
    rng = np.random.default_rng(seed)
    n_sensors = int(rng.integers(2, 4))
    n_targets = int(rng.integers(3, 6))
    labels = [Label(0, i, 0) for i in range(n_targets)]
    centers = rng.uniform(-100, 100, (n_targets, 2))
    predicted, states, actions = {}, {}, {}
    for s in range(n_sensors):
        held = [i for i in range(n_targets) if rng.random() < 0.8] or [0]
        predicted[s] = density(
            [cloud(centers[i] + rng.normal(0, 3, 2), float(rng.uniform(0.2, 0.9)), labels[i],
                   n=50, spread=float(rng.uniform(5, 25)), seed=seed * 100 + s * 10 + i)
             for i in held]
        )
        states[s] = SensorState(*rng.uniform(-60, 60, 2), float(rng.uniform(-math.pi, math.pi)))
        step = rng.uniform(-30, 30, 2)
        actions[s] = [SensorAction(), SensorAction(dx=step[0], dy=step[1]),
                      SensorAction(rotation=float(rng.uniform(-1, 1)))]
    params = replace(PARAMS, exclusion_radius=float(rng.uniform(30, 80)))
    fovs = {s: WIDE_FOV for s in states}
    return pseudo_cache(predicted, states, fovs, actions, params)


def all_commands(cache):
    n = [len(cache.after[s]) for s in sorted(cache.predicted)]
    return list(itertools.product(*(range(k) for k in n)))


def old_hits(cache, owner, center):
    """Oracle: PseudoCache._hits from the (K, J, 2) displacements to center."""
    d = cache.predicted[owner].states[:, :, :2] - center
    inside = (d[..., 0] ** 2 + d[..., 1] ** 2) <= cache.params.exclusion_radius**2
    return [(k, inside[k]) for k in np.flatnonzero(inside.any(axis=1)).tolist()]


class TestFusedEvaluation:
    @pytest.mark.parametrize("seed", range(6))
    def test_disk_hits_match_the_broadcast_form(self, seed):
        cache = seeded_cache(seed)
        # every post-action position, and every row's mean so that disks cut clouds
        centers = {(state.x, state.y) for after in cache.after.values() for state in after}
        means = (d.mean_positions() for d in cache.predicted.values())
        centers |= {tuple(m) for rows in means for m in rows.tolist()}
        partial = 0
        for owner in cache.predicted:
            for center in sorted(centers):
                got, want = cache._hits(owner, center), old_hits(cache, owner, center)
                assert [k for k, _ in got] == [k for k, _ in want]
                assert all(np.array_equal(g, w) for (_, g), (_, w) in zip(got, want))
                partial += sum(0 < mask.sum() < len(mask) for _, mask in got)
        assert partial > 0

    def test_pseudo_components_keep_predicted_particles(self):
        # the in-disk mask is found once per (sensor, center) from the
        # predicted particles: pseudo_update must reweight, never move them
        reweighted = 0
        for seed in range(6):
            cache = seeded_cache(seed)
            for s in cache.predicted:
                for a in range(len(cache.after[s])):
                    assert cache.pseudo(s, a).states is cache.predicted[s].states
                    pseudo = every_row(cache.pseudo(s, a)).components
                    predicted = cache.predicted[s].components
                    assert [c.label for c in pseudo] == [c.label for c in predicted]
                    for p, c in zip(pseudo, predicted):
                        assert np.array_equal(p.states, c.states)
                        reweighted += not np.array_equal(p.weights, c.weights)
        assert reweighted > 0

    @pytest.mark.parametrize("seed", range(12))
    def test_psi_matches_enumeration_over_fused_union(self, seed):
        cache = seeded_cache(seed)
        participants = tuple(sorted(cache.predicted))
        ctx = ControlContext(cache, participants)
        rho = cache.params.exclusion_radius
        for cmd in all_commands(cache):
            fe = ctx.fused(cmd)
            active = active_sets(cache, participants, cmd)
            union = []
            for label in sorted(active):
                comps = [comp_of(every_row(cache.pseudo(s, cmd[s])), label)
                         for s in sorted(active[label])]
                r = odds_add([c.existence for c in comps])
                assert fe.existences[label] == pytest.approx(r, abs=1e-12)
                union.append(Component(label, r, *odds_weighted_union(comps)))
            assert list(fe.existences) == sorted(active)
            expected = max(
                enumerated_psi(union, cache.after[s][a], rho)
                for s, a in zip(participants, cmd)
            )
            assert fe.psi == pytest.approx(expected, abs=1e-12)
            assert 0.0 <= fe.psi <= 1.0

    def test_seeded_caches_exercise_shared_labels_and_occupied_disks(self):
        shared = occupied = 0
        for seed in range(12):
            cache = seeded_cache(seed)
            participants = tuple(sorted(cache.predicted))
            ctx = ControlContext(cache, participants)
            for cmd in all_commands(cache):
                shared += any(len(v) > 1 for v in active_sets(cache, participants, cmd).values())
                occupied += ctx.fused(cmd).psi < 1.0
        assert shared > 20 and occupied > 20

    def test_label_no_participant_is_active_for_is_omitted(self):
        # B sits in sensor 0's exclusion disk but behind both sensors
        predicted = density(
            [cloud((0, 300), 0.9, LABEL_A, spread=3.0, seed=1),
             cloud((0, -5), 0.9, LABEL_B, spread=1.0, seed=2)]
        )
        states = {0: SensorState(0, 0, 0), 1: SensorState(200, 0, 0)}
        cache = stay_only_cache({0: predicted, 1: predicted}, states)
        fe = ControlContext(cache, (0, 1)).fused((0, 0))
        assert list(fe.existences) == [LABEL_A]
        assert fe.psi == 1.0
        # isc_select's void probability runs over every pseudo component
        assert stay_psi(predicted, states[0], PARAMS.exclusion_radius)[0] < 0.2


def fused_reference(cache, participants, command):
    """Oracle for ControlContext.fused without its shortcuts: each
    participant's masked odds computed for this command, and psi by the
    full loop over every center.  Returns (existences, psi, eta, feasible)."""
    n_labels = len(cache.labels)
    odds_sum, held, terms = np.zeros(n_labels), np.zeros(n_labels, dtype=bool), []
    for s, a in zip(participants, command):
        (active, _odds), rows = cache.active(s, a), cache.rows[s]
        odds = np.where(active, existence_odds(cache.pseudo(s, a).existences), 0.0)
        odds_sum[rows] += odds
        held[rows] |= active
        terms.append((s, a, rows, odds))
    used = np.flatnonzero(held)
    existences = odds_sum[used] / (1.0 + odds_sum[used])
    total = np.where(odds_sum > 0.0, odds_sum, 1.0)
    states_after = [cache.after[s][a] for s, a in zip(participants, command)]
    pairs = itertools.combinations(states_after, 2)
    eta = min((math.hypot(p.x - q.x, p.y - q.y) for p, q in pairs), default=math.inf)
    psi = 0.0
    for state in states_after:
        center = (state.x, state.y)
        inside = np.zeros(n_labels)
        for s, a, rows, odds in terms:
            weight = cache.indisk_weight(s, a, center)
            if weight is not None:
                inside[rows] += odds / total[rows] * weight
        psi = max(psi, void_probability(existences, inside[used]))
    feasible = eta > cache.params.eta_threshold and psi > cache.params.psi_threshold
    labels = [cache.labels[i] for i in used.tolist()]
    return dict(zip(labels, existences.tolist())), psi, eta, feasible


def record_built_rows(monkeypatch):
    """Record (association, pose, row) for every row the weights phase builds."""
    built, weights = [], filtering._Association.weights

    def recorded(association, pose, rows):
        built.extend((id(association), pose, row) for row in rows.tolist())
        return weights(association, pose, rows)

    monkeypatch.setattr(filtering._Association, "weights", recorded)
    return built


class TestRowsBuiltOnDemand:
    # control builds a pseudo-posterior row's weights only where it reads
    # them, and each (sensor, action, row) at most once

    @pytest.mark.parametrize("seed", range(6))
    def test_active_builds_only_the_rows_inactive_by_their_prediction(self, monkeypatch, seed):
        built = record_built_rows(monkeypatch)
        cache = seeded_cache(seed)
        for s in cache.predicted:
            for a in range(len(cache.after[s])):
                start = len(built)
                cache.active(s, a)
                fov, state = cache.fovs[s], cache.after[s][a]
                pd = detection_probabilities(fov, state, cache.predicted[s].mean_positions())
                assert [row for *_, row in built[start:]] == np.flatnonzero(
                    ~(pd > fov.p_d_threshold)
                ).tolist()

    @pytest.mark.parametrize("seed", range(6))
    def test_indisk_weight_builds_only_its_hit_rows(self, monkeypatch, seed):
        cache = seeded_cache(seed)
        centers = sorted({(q.x, q.y) for after in cache.after.values() for q in after})
        for s in cache.predicted:
            for a in range(len(cache.after[s])):
                for center in centers:
                    fresh = seeded_cache(seed)
                    built = record_built_rows(monkeypatch)
                    fresh.indisk_weight(s, a, center)
                    assert [row for *_, row in built] == [k for k, _ in fresh._hits(s, center)]
                    monkeypatch.undo()

    @pytest.mark.parametrize("seed", range(6))
    def test_a_sweep_builds_each_row_at_most_once(self, monkeypatch, seed):
        built = record_built_rows(monkeypatch)
        cache = seeded_cache(seed)
        participants = tuple(sorted(cache.predicted))
        ctx = ControlContext(cache, participants)
        for cmd in all_commands(cache):
            ctx.fused(cmd)
        for s in participants:
            isc_select(s, cache)
        assert built and len(set(built)) == len(built)


class TestActiveMemo:
    # PseudoCache.active keeps one (mask, odds) entry per (sensor, action)

    @pytest.mark.parametrize("seed", range(4))
    def test_sweep_computes_each_active_set_once(self, monkeypatch, seed):
        cache = seeded_cache(seed)
        calls, compute = [], control.compute_active_set

        def counted(state, *args):
            calls.append(id(state))
            return compute(state, *args)

        monkeypatch.setattr(control, "compute_active_set", counted)
        sensors = sorted(cache.predicted)
        for k in range(len(sensors), 0, -1):
            for participants in itertools.combinations(sensors, k):
                ctx = ControlContext(cache, participants)
                for cmd in itertools.product(*(range(n) for n in ctx.n_actions().values())):
                    ctx.fused(cmd)
        states = [state for s in sensors for state in cache.after[s]]
        assert sorted(calls) == sorted(map(id, states))

    def test_odds_are_the_pseudo_odds_inside_the_mask_and_zero_outside(self):
        masked = 0
        for seed in range(6):
            cache = seeded_cache(seed)
            for s in cache.predicted:
                for a in range(len(cache.after[s])):
                    mask, odds = cache.active(s, a)
                    assert cache.active(s, a)[1] is odds
                    expected = existence_odds(cache.pseudo(s, a).existences)
                    assert odds[mask].tolist() == expected[mask].tolist()
                    assert not odds[~mask].any()
                    masked += int((~mask).sum())
        assert masked > 0


def count_indisk_calls(monkeypatch, cache):
    """Count the cache's indisk_weight calls from here on."""
    calls, indisk_weight = [], cache.indisk_weight

    def counted(*key):
        calls.append(key)
        return indisk_weight(*key)

    monkeypatch.setattr(cache, "indisk_weight", counted)
    return calls


def psi_shortcut(cache, participants, command):
    """Whether fused sets psi to 1.0 without the loop: some participant's
    post-action disk holds no particle of any participant."""
    centers = [(cache.after[s][a].x, cache.after[s][a].y) for s, a in zip(participants, command)]
    return not all(any(cache._hits(s, c) for s in participants) for c in centers)


class TestFusedShortcuts:
    # fused reads memoized masked odds, and sets psi to 1.0 without the
    # per-center loop when some center's disk holds no participant's particle;
    # evaluate decides eta before it fuses
    @pytest.mark.parametrize("seed", range(12))
    def test_bit_identical_to_oracle_for_every_participant_set(self, seed):
        cache, fresh = seeded_cache(seed), seeded_cache(seed)
        sensors = sorted(cache.predicted)
        for k in range(1, len(sensors) + 1):
            for participants in itertools.combinations(sensors, k):
                ctx = ControlContext(cache, participants)
                n = ctx.n_actions()
                for cmd in itertools.product(*(range(n[s]) for s in participants)):
                    existences, psi, _eta, feasible = fused_reference(fresh, participants, cmd)
                    for s in participants:
                        want = objective(existences, fresh.predicted_existences[s], fresh.params)
                        assert ctx.evaluate(s, cmd) == (want if feasible else NEG_INF)
                    fe = ctx.fused(cmd)
                    assert list(fe.existences.items()) == list(existences.items())
                    assert fe.psi == psi

    def test_seeded_caches_take_both_psi_paths(self):
        shortcut = loop = 0
        for seed in range(12):
            cache = seeded_cache(seed)
            participants = tuple(sorted(cache.predicted))
            for cmd in all_commands(cache):
                empty = psi_shortcut(cache, participants, cmd)
                shortcut, loop = shortcut + empty, loop + (not empty)
        assert shortcut > 20 and loop > 20

    @staticmethod
    def two_sensor_context(occupied):
        """Sensors 0 at (0, 0) and 1 at (200, 0), both staying and both
        holding one cloud on each sensor in occupied."""
        states = {0: SensorState(0, 0, 0), 1: SensorState(200, 0, 0)}
        d = density([cloud((states[s].x, 5), 0.9, Label(0, s, 0), spread=1.0, seed=s)
                     for s in occupied])
        return ControlContext(stay_only_cache({0: d, 1: d}, states), (0, 1))

    @pytest.mark.parametrize("empty", [0, 1])
    def test_one_empty_disk_gives_psi_one_without_the_loop(self, monkeypatch, empty):
        ctx = self.two_sensor_context([1 - empty])
        calls = count_indisk_calls(monkeypatch, ctx.cache)
        score = ctx.evaluate(0, (0, 0))
        fe = ctx.fused((0, 0))
        assert fe.psi == 1.0 and score > NEG_INF
        assert calls == []
        occupied = ctx.cache.after[1 - empty][0]
        assert all(ctx.cache._hits(s, (occupied.x, occupied.y)) for s in (0, 1))
        reference = fused_reference(self.two_sensor_context([1 - empty]).cache, (0, 1), (0, 0))
        assert reference[1] == 1.0

    def test_every_disk_occupied_runs_the_loop(self, monkeypatch):
        ctx = self.two_sensor_context([0, 1])
        calls = count_indisk_calls(monkeypatch, ctx.cache)
        fe = ctx.fused((0, 0))
        assert len(calls) == 4  # each participant at each center
        assert fe.psi < 0.2 and ctx.evaluate(0, (0, 0)) == NEG_INF
        reference = fused_reference(self.two_sensor_context([0, 1]).cache, (0, 1), (0, 0))
        assert fe.psi == reference[1] and not reference[3]

    def test_non_participant_particles_keep_the_shortcut(self, monkeypatch):
        # only sensor 1, which does not take part, holds a particle in
        # sensor 0's disk
        def context():
            states = {0: SensorState(0, 0, 0), 1: SensorState(200, 0, 0)}
            predicted = {0: density([cloud((0, 300), 0.9, LABEL_A, spread=1.0, seed=0)]),
                         1: density([cloud((0, 5), 0.9, LABEL_B, spread=1.0, seed=1)])}
            return ControlContext(stay_only_cache(predicted, states), (0,))

        ctx = context()
        assert ctx.cache._hits(1, (0.0, 0.0)) and not ctx.cache._hits(0, (0.0, 0.0))
        calls = count_indisk_calls(monkeypatch, ctx.cache)
        assert ctx.fused((0,)).psi == 1.0
        assert calls == []
        assert fused_reference(context().cache, (0,), (0,))[1] == 1.0


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


def dcd_reference(node, neighborhood, cache, runs, rng):
    """The restart loop: a later restart wins only on a strictly higher score."""
    participants = tuple(sorted(set(neighborhood) | {node}))
    ctx = ControlContext(cache, participants)
    n_actions = ctx.n_actions()
    best_cmd, best_score = None, NEG_INF
    for _ in range(runs):
        init = {s: int(rng.integers(n_actions[s])) for s in participants}
        outcome = run_flooded_descent(participants, n_actions, ctx.evaluate, init)
        if outcome.score > best_score or best_cmd is None:
            best_cmd, best_score = outcome.command, outcome.score
    return best_cmd[participants.index(node)]


class TestDcdRestarts:
    # every golden and benchmark run takes one restart; these pin more

    @pytest.mark.parametrize("runs", [2, 3, 5])
    @pytest.mark.parametrize("seed", range(8))
    def test_argmax_matches_the_restart_loop(self, seed, runs):
        cache = seeded_cache(seed)
        ids = sorted(cache.predicted)
        for node in ids:
            neighborhood = set(ids) - {node}
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = dcd_sc_select(node, neighborhood, cache, runs, rng)
            assert got == dcd_reference(node, neighborhood, cache, runs, ref_rng)
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize(
        "scores,expected",
        [((1.0, 2.0, 2.0), 1), ((NEG_INF, NEG_INF, NEG_INF), 0), ((3.0, NEG_INF, 3.0), 0)],
    )
    def test_ties_go_to_the_earliest_restart(self, monkeypatch, scores, expected):
        # restart i ends on command (i, 0); node 0 takes its first component
        outcomes = iter(control.DescentOutcome((i, 0), v, 1, (0,)) for i, v in enumerate(scores))
        monkeypatch.setattr(control, "run_flooded_descent", lambda *args: next(outcomes))
        rng = np.random.default_rng(0)
        assert dcd_sc_select(0, {1}, two_sensor_cache(), len(scores), rng) == expected


def unconstrained_best(ctx, node):
    """First command, in index order, with the highest objective when the
    constraints are ignored."""
    best, best_score = None, -math.inf
    for cmd in itertools.product(*(range(n) for n in ctx.n_actions().values())):
        existences = ctx.fused(cmd).existences
        score = objective(existences, ctx.cache.predicted_existences[node], ctx.params)
        if score > best_score:
            best, best_score = cmd, score
    return best


class TestInfeasibleBestCommand:
    """Descent over real pseudo-posteriors when the best-scoring command
    breaks one constraint and meets the other: it must not be chosen."""

    def eta_breaking_context(self):
        # both sensors stepping toward the target sees it twice but puts
        # them 40 m apart; their exclusion disks stay empty
        target = cloud((100, 300), 0.5, LABEL_A, spread=3.0)
        states = {0: SensorState(0, 0, 0), 1: SensorState(200, 0, 0)}
        actions = {0: [SensorAction(), SensorAction(dx=80.0)],
                   1: [SensorAction(), SensorAction(dx=-80.0)]}
        cache = pseudo_cache({0: density([target]), 1: density([target])}, states,
                             {0: NARROW_FOV, 1: NARROW_FOV}, actions)
        return ControlContext(cache, (0, 1))

    def psi_breaking_context(self):
        # moving onto the target sees it best but puts it in the exclusion
        # disk; the single sensor meets the distance constraint vacuously
        target = cloud((0, 150), 0.5, LABEL_A, spread=3.0)
        fov = FovModel(rho_max=100.0, theta_max=math.pi, p_d_max=0.99, k_rho=0.05, k_theta=1.0)
        actions = {0: [SensorAction(), SensorAction(dy=145.0), SensorAction(dy=60.0)]}
        cache = pseudo_cache({0: density([target])}, {0: SensorState(0, 0, 0)}, {0: fov},
                             actions)
        return ControlContext(cache, (0,))

    @staticmethod
    def met(ctx, command):
        params = ctx.params
        return {"eta": separation(ctx.centers(command)) > params.eta_threshold,
                "psi": ctx.fused(command).psi > params.psi_threshold}

    @pytest.mark.parametrize("broken", ["eta", "psi"])
    def test_descent_returns_a_feasible_command(self, broken):
        ctx = getattr(self, f"{broken}_breaking_context")()
        best = unconstrained_best(ctx, 0)
        met = self.met(ctx, best)
        assert not met[broken] and all(v for k, v in met.items() if k != broken)

        initial = dict(zip(ctx.participants, best))
        out = run_flooded_descent(ctx.participants, ctx.n_actions(), ctx.evaluate, initial)
        assert out.command != best
        assert all(self.met(ctx, out.command).values())
        assert out.score > -math.inf
