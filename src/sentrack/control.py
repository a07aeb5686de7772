"""Information-driven multi-sensor control.

The objective scores a hypothesized multi-sensor command by the
existence-probability divergence from a fused pseudo-posterior to the
local predicted density, minus a penalty for every predicted label that
the command would drop, subject to two feasibility constraints: a void
probability over a per-sensor exclusion disk and a minimum inter-sensor
distance.

Three selectors are provided:
  * independent selection: each sensor greedily optimizes its local
    pseudo-posterior (CLI method "isc"),
  * neighborhood coordinate descent with random restarts (CLI "dcd"),
  * flooded coordinate descent over the whole reachable network with
    cycle-detection stopping (CLI "fdcd").
All three share one descent core driven by a command evaluator, which the
simulation harness wires to the pseudo-update/fusion pipeline and tests
may replace with synthetic score tables.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .filtering import FilterConfig, generate_pims, pseudo_update
from .fusion import compute_active_set, fuse_existence
from .lmb import EXISTENCE_CEIL, LmbDensity, prune
from .sensors import FovModel, SensorState, apply_action

_CLAMP = 1e-12
NEG_INF = float("-inf")


@dataclass(frozen=True)
class ObjectiveParams:
    """Objective and constraint parameters.

    psi_feasible_below keeps the stated void-constraint direction
    (feasible iff psi < psi_threshold).  That direction rejects commands
    whose exclusion zones are certainly empty, so scenario configs flip it;
    see the scenario builders.
    """

    epsilon: float = 1e-6
    penalty_lambda: float = 100.0
    psi_threshold: float = 0.8
    eta_threshold: float = 50.0
    exclusion_radius: float = 20.0
    psi_feasible_below: bool = True
    min_existence: float = 0.0

    def __post_init__(self):
        if not 0 < self.epsilon < 0.5:
            raise ValueError("epsilon must be in (0, 0.5)")
        if self.penalty_lambda < 1:
            raise ValueError("penalty_lambda must be >= 1")
        if self.exclusion_radius <= 0:
            raise ValueError("exclusion_radius must be positive")


def _clamp01(r: float) -> float:
    return min(max(r, _CLAMP), 1.0 - _CLAMP)


def bernoulli_kld(r1: float, r2: float) -> float:
    """KL divergence between two Bernoulli existence probabilities."""
    r1, r2 = _clamp01(r1), _clamp01(r2)
    return r1 * math.log(r1 / r2) + (1.0 - r1) * math.log((1.0 - r1) / (1.0 - r2))


def kld_existence(r1: Mapping, r2: Mapping, epsilon: float) -> float:
    """Existence-only KL divergence between two LMB densities.

    r1 and r2 map label -> existence probability.  Shared labels contribute
    the Bernoulli divergence; labels only in r2 contribute -log(r2); labels
    only in r1 use epsilon in place of the missing r2 so new-target
    information stays finite.
    """
    total = 0.0
    for label in set(r1) | set(r2):
        if label in r1 and label in r2:
            total += bernoulli_kld(r1[label], r2[label])
        elif label in r2:
            # dropped label: the stated reduction -log(r2)
            total += -math.log(_clamp01(r2[label]))
        else:
            # new label: substitute epsilon for the missing r2
            total += bernoulli_kld(r1[label], epsilon)
    return total


def drop_penalty(r1: Mapping, r2: Mapping, lam: float) -> float:
    """Penalty for labels present in r2 but dropped from r1 (nonnegative)."""
    if lam < 1:
        raise ValueError("penalty scale must be >= 1")
    return -lam * sum(
        math.log(_clamp01(r2[label])) for label in set(r2) - set(r1)
    )


def objective(r1: Mapping, r2: Mapping, params: ObjectiveParams) -> float:
    """Control objective: existence KLD minus the dropped-target penalty.

    r1 and r2 map label -> existence: the candidate (pseudo-)posterior and
    the local predicted density.
    """
    return kld_existence(r1, r2, params.epsilon) - drop_penalty(
        r1, r2, params.penalty_lambda
    )


def void_probability(density: LmbDensity, sensor_after_action: SensorState, rho_eps: float) -> float:
    """Probability that no target lies within rho_eps of the sensor.

    The product over labels of (1 - r * in-disk particle weight); 1 for an
    empty density.
    """
    if rho_eps <= 0:
        raise ValueError("rho_eps must be positive")
    center = sensor_after_action.position
    result = 1.0
    for c in density.components:
        d = c.states[:, :2] - center
        inside = (d[:, 0] ** 2 + d[:, 1] ** 2) <= rho_eps**2
        result *= 1.0 - c.existence * float(c.weights[inside].sum())
    return result


def sensor_sensor_constraint(sensors_after) -> float:
    """Minimum pairwise distance between sensors; +inf for a single sensor."""
    states = list(sensors_after.values()) if isinstance(sensors_after, Mapping) else list(sensors_after)
    if len(states) < 2:
        return math.inf
    eta = math.inf
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            eta = min(eta, math.hypot(states[i].x - states[j].x, states[i].y - states[j].y))
    return eta


def void_feasible(psi: float, params: ObjectiveParams) -> bool:
    if params.psi_feasible_below:
        return psi < params.psi_threshold
    return psi > params.psi_threshold


def distance_feasible(eta: float, params: ObjectiveParams) -> bool:
    return eta > params.eta_threshold


def dcd_runs_required(num_local_optima: int, p_success: float) -> int:
    """Restarts needed to hit the global optimum with probability p_success.

    ceil(log(1 - P) / log(1 - 1/M)) for M local optima.
    """
    if num_local_optima < 2:
        raise ValueError("num_local_optima must be >= 2")
    if not 0 < p_success < 1:
        raise ValueError("p_success must be in (0, 1)")
    return math.ceil(math.log(1.0 - p_success) / math.log(1.0 - 1.0 / num_local_optima))


# ---------------------------------------------------------------------------
# Coordinate descent core
# ---------------------------------------------------------------------------

# evaluator: (sensor id, full command tuple) -> objective score, -inf if infeasible
CommandEvaluator = Callable[[int, tuple], float]


@dataclass
class DescentState:
    """One sensor's descent bookkeeping: command history and scores.

    history[i] is the sensor's multi-sensor command after its turn at
    iteration i (entry 0 is the initialization round); scores[i] is the
    associated objective value.
    """

    sensors: tuple
    history: list = field(default_factory=list)
    scores: list = field(default_factory=list)

    @property
    def iteration(self) -> int:
        return len(self.history)


def detect_cycle(state) -> tuple | None:
    """First repeated command in a descent history.

    Accepts a DescentState or a plain history list; returns 1-based
    positions (t_start, t_end) of the first pair of equal commands, or
    None when all commands are distinct.
    """
    history = state.history if isinstance(state, DescentState) else list(state)
    seen = {}
    for t, cmd in enumerate(history):
        if cmd in seen:
            return seen[cmd] + 1, t + 1
        seen[cmd] = t
    return None


def select_final_command(state: DescentState, t_start: int, t_end: int) -> tuple:
    """Command in the cycle [t_start, t_end] with the highest stored score.

    Positions are 1-based as returned by detect_cycle; ties go to the
    earliest iteration.
    """
    best_t = t_start
    for t in range(t_start, t_end + 1):
        if state.scores[t - 1] > state.scores[best_t - 1]:
            best_t = t
    return state.history[best_t - 1]


@dataclass
class DescentOutcome:
    command: tuple
    score: float
    iterations: int
    stopped_at_sensor: int
    cycle: tuple
    states: dict


def _best_own_action(
    node: int,
    position: int,
    latest: list,
    n_actions: int,
    evaluate: CommandEvaluator,
) -> tuple:
    """Exhaustive search over one sensor's actions with the others fixed.

    Ties break to the lowest action index; if every candidate is
    infeasible the stay action (index 0) is used.
    """
    best_action, best_score = None, NEG_INF
    for a in range(n_actions):
        candidate = latest.copy()
        candidate[position] = a
        score = evaluate(node, tuple(candidate))
        if score > best_score:
            best_action, best_score = a, score
    if best_action is None or best_score == NEG_INF:
        fallback = latest.copy()
        fallback[position] = 0
        return 0, evaluate(node, tuple(fallback))
    return best_action, best_score


def run_flooded_descent(
    sensor_ids,
    n_actions: Mapping[int, int],
    evaluate: CommandEvaluator,
    initial_actions: Mapping[int, int],
    max_iterations: int | None = None,
    on_turn: Callable[[int, int], None] | None = None,
) -> DescentOutcome:
    """Sequential coordinate descent over the given sensors until a cycle.

    Each iteration visits sensors in ascending id order; each sensor
    exhaustively re-optimizes its own action against the latest actions of
    the others, then records the resulting full command and score.  The
    descent stops the first time any sensor sees a repeated command in its
    own history, and returns the best-scoring command within that cycle.

    Because the update is deterministic over a finite command space, a
    cycle must appear within prod(n_actions) + 1 iterations.
    """
    ids = tuple(sorted(sensor_ids))
    pos = {s: i for i, s in enumerate(ids)}
    latest = [initial_actions[s] for s in ids]
    states = {s: DescentState(ids) for s in ids}

    cmd0 = tuple(latest)
    for s in ids:
        states[s].history.append(cmd0)
        states[s].scores.append(evaluate(s, cmd0))

    if max_iterations is None:
        bound = 1
        for s in ids:
            bound *= max(n_actions[s], 1)
        max_iterations = bound + 1

    for t in range(1, max_iterations + 1):
        for s in ids:
            action, score = _best_own_action(s, pos[s], latest, n_actions[s], evaluate)
            latest[pos[s]] = action
            if on_turn is not None:
                on_turn(s, action)
            cmd = tuple(latest)
            states[s].history.append(cmd)
            states[s].scores.append(score)
            cycle = detect_cycle(states[s])
            if cycle is not None:
                final = select_final_command(states[s], *cycle)
                final_score = states[s].scores[states[s].history.index(final)]
                return DescentOutcome(
                    command=final,
                    score=final_score,
                    iterations=t,
                    stopped_at_sensor=s,
                    cycle=cycle,
                    states=states,
                )
    raise RuntimeError("coordinate descent failed to cycle within its pigeonhole bound")


# ---------------------------------------------------------------------------
# Production command evaluation: pseudo-update + fusion pipeline
# ---------------------------------------------------------------------------


class PseudoCache:
    """Per-step cache of everything control evaluation reuses.

    Holds, per (sensor, action): the post-action sensor state, the
    pseudo-posterior of the sensor's control-view predicted density, the
    per-label pseudo existences and mean positions, the labels the sensor
    is active for (the active set depends only on the holder's own action),
    and lazily computed in-disk particle weights for the void constraint.
    """

    def __init__(
        self,
        predicted: Mapping[int, LmbDensity],
        sensor_states: Mapping[int, SensorState],
        fovs: Mapping[int, FovModel],
        action_sets: Mapping[int, list],
        filter_cfgs: Mapping[int, FilterConfig] | FilterConfig,
        params: ObjectiveParams,
    ):
        self.params = params
        if isinstance(filter_cfgs, FilterConfig):
            filter_cfgs = {s: filter_cfgs for s in predicted}
        self.filter_cfgs = dict(filter_cfgs)
        self.sensor_states = dict(sensor_states)
        self.fovs = dict(fovs)
        self.action_sets = {s: list(a) for s, a in action_sets.items()}
        self.predicted = {
            s: prune(d, params.min_existence, len(d.components) or 1)
            if params.min_existence > 0
            else d
            for s, d in predicted.items()
        }
        self.predicted_existences = {s: d.existences() for s, d in self.predicted.items()}
        self.predicted_means = {
            s: {c.label: c.mean_position() for c in d.components}
            for s, d in self.predicted.items()
        }
        self._state_after = {}
        self._pseudo = {}
        self._pseudo_exist = {}
        self._pseudo_means = {}
        self._active = {}
        self._indisk = {}

    def sensors(self):
        return sorted(self.predicted)

    def n_actions(self, s: int) -> int:
        return len(self.action_sets[s])

    def state_after(self, s: int, a: int) -> SensorState:
        key = (s, a)
        if key not in self._state_after:
            self._state_after[key] = apply_action(self.sensor_states[s], self.action_sets[s][a])
        return self._state_after[key]

    def pseudo(self, s: int, a: int) -> LmbDensity:
        key = (s, a)
        if key not in self._pseudo:
            state = self.state_after(s, a)
            pims = generate_pims(self.predicted[s], state, self.fovs[s])
            density = pseudo_update(
                self.predicted[s], pims, state, self.fovs[s], self.filter_cfgs[s]
            )
            self._pseudo[key] = density
            self._pseudo_exist[key] = density.existences()
            self._pseudo_means[key] = {
                c.label: c.mean_position() for c in density.components
            }
        return self._pseudo[key]

    def pseudo_existences(self, s: int, a: int) -> dict:
        self.pseudo(s, a)
        return self._pseudo_exist[(s, a)]

    def pseudo_means(self, s: int, a: int) -> dict:
        self.pseudo(s, a)
        return self._pseudo_means[(s, a)]

    def active_labels(self, s: int, a: int) -> set:
        """Labels sensor s is active for after action a, by compute_active_set."""
        key = (s, a)
        if key not in self._active:
            self._active[key] = compute_active_set(
                self.state_after(s, a),
                self.fovs[s],
                self.pseudo_means(s, a),
                self.predicted_means[s],
            )
        return self._active[key]

    def indisk_weight(self, owner: int, action: int, label, center: np.ndarray) -> float:
        """In-disk particle weight of one pseudo component around a point."""
        key = (owner, action, label, round(float(center[0]), 6), round(float(center[1]), 6))
        if key not in self._indisk:
            comp = self.pseudo(owner, action).by_label()[label]
            d = comp.states[:, :2] - center
            inside = (d[:, 0] ** 2 + d[:, 1] ** 2) <= self.params.exclusion_radius**2
            self._indisk[key] = float(comp.weights[inside].sum())
        return self._indisk[key]


@dataclass
class FusedEvaluation:
    existences: dict  # label -> fused existence
    contributors: dict  # label -> list of (sensor, odds share)
    psi: float
    eta: float
    feasible: bool


class ControlContext:
    """Evaluates multi-sensor commands over a fixed participant set.

    Commands index each participant's action set in ascending sensor-id
    order.  Fusion results and per-node scores are memoized, so repeated
    commands during descent cycling cost nothing.
    """

    def __init__(self, cache: PseudoCache, participants):
        self.cache = cache
        self.participants = tuple(sorted(participants))
        self.params = cache.params
        self._holders = {}
        for s in self.participants:
            for label in cache.predicted_existences[s]:
                self._holders.setdefault(label, []).append(s)
        self._fused = {}
        self._scores = {}

    def n_actions(self) -> dict:
        return {s: self.cache.n_actions(s) for s in self.participants}

    def fused(self, command: tuple) -> FusedEvaluation:
        if command in self._fused:
            return self._fused[command]
        cache, params = self.cache, self.params
        command_of = dict(zip(self.participants, command))

        active_of = {s: cache.active_labels(s, a) for s, a in command_of.items()}
        existences = {}
        contributors = {}
        for label in sorted(self._holders):
            active = [s for s in self._holders[label] if label in active_of[s]]
            if not active:
                continue  # pseudo-mode fusion omits labels with an empty active set
            rs = [cache.pseudo_existences(s, command_of[s])[label] for s in active]
            existences[label] = fuse_existence(rs)
            odds = [min(r, EXISTENCE_CEIL) / (1.0 - min(r, EXISTENCE_CEIL)) for r in rs]
            total = sum(odds) or 1.0
            contributors[label] = [(s, o / total) for s, o in zip(active, odds)]

        states_after = {s: cache.state_after(s, command_of[s]) for s in self.participants}
        eta = sensor_sensor_constraint(states_after)
        psi = 0.0
        for s, state in states_after.items():
            v = 1.0
            for label, share in contributors.items():
                inside = sum(
                    frac * cache.indisk_weight(owner, command_of[owner], label, state.position)
                    for owner, frac in share
                )
                v *= 1.0 - existences[label] * inside
            psi = max(psi, v)
        feasible = distance_feasible(eta, params) and void_feasible(psi, params)

        out = FusedEvaluation(existences, contributors, psi, eta, feasible)
        self._fused[command] = out
        return out

    def evaluate(self, node: int, command: tuple) -> float:
        key = (node, command)
        if key in self._scores:
            return self._scores[key]
        fe = self.fused(command)
        if not fe.feasible:
            score = NEG_INF
        else:
            score = objective(fe.existences, self.cache.predicted_existences[node], self.params)
        self._scores[key] = score
        return score


def isc_select(
    node: int,
    cache: PseudoCache,
    other_positions=(),
) -> tuple:
    """Independent single-sensor selection on the local pseudo-posterior.

    Exhaustive over the node's actions, scoring the local pseudo-posterior
    against the local prediction; feasibility uses the node's own
    exclusion disk and, when given, the current positions of the other
    sensors.  Returns (action index, score); the stay action (index 0)
    with score -inf when no action is feasible.
    """
    params = cache.params
    predicted_exist = cache.predicted_existences[node]
    best_action, best_score = None, NEG_INF
    for a in range(cache.n_actions(node)):
        state = cache.state_after(node, a)
        psi = void_probability(cache.pseudo(node, a), state, params.exclusion_radius)
        feasible = void_feasible(psi, params)
        if feasible and other_positions:
            eta = min(
                math.hypot(state.x - p[0], state.y - p[1]) for p in other_positions
            )
            feasible = distance_feasible(eta, params)
        if not feasible:
            continue
        score = objective(cache.pseudo_existences(node, a), predicted_exist, params)
        if score > best_score:
            best_action, best_score = a, score
    if best_action is None:
        return 0, NEG_INF
    return best_action, best_score


def dcd_sc_select(
    node: int,
    neighborhood,
    cache: PseudoCache,
    runs: int,
    rng: np.random.Generator,
) -> int:
    """Neighborhood coordinate descent with random restarts.

    Runs `runs` independent descents over the node's neighborhood, each
    from uniformly random initial actions, and returns the node's own
    component of the best-scoring final command.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
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
