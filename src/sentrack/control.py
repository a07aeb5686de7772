"""Information-driven multi-sensor control.

The objective scores a hypothesized multi-sensor command by the
existence-probability divergence from a fused pseudo-posterior to the
local predicted density, minus a penalty for every predicted label that
the command would drop, subject to two feasibility constraints: a void
probability over a per-sensor exclusion disk and a minimum inter-sensor
distance.  One rule, void_probability, computes the void probability for
both the single-sensor and the fused evaluation from vectors over one
per-step label index (see PseudoCache).

Three selectors are provided:
  * independent selection: each sensor greedily optimizes its local
    pseudo-posterior (CLI method "isc"),
  * neighborhood coordinate descent with random restarts (CLI "dcd"),
  * flooded coordinate descent over the whole reachable network with
    cycle-detection stopping (CLI "fdcd").
All three share one descent core driven by a command evaluator, which the
simulation harness wires to the pseudo-update/fusion pipeline and tests
may replace with synthetic score tables.  The core reports the sensor of
each turn (DescentOutcome.turns), from which the harness counts the
messages a flooded descent sends.
"""

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .filtering import FilterConfig, generate_pims, pseudo_update
from .fusion import compute_active_set, existence_odds
from .lmb import LmbDensity, eap_states, prune
from .sensors import FovModel, SensorState, apply_action

_CLAMP = 1e-12
NEG_INF = float("-inf")


@dataclass(frozen=True)
class ObjectiveParams:
    """Objective and constraint parameters.

    epsilon stands in for the missing existence of a new label in the
    divergence, and penalty_lambda scales the dropped-label penalty.
    psi is the probability that no target lies within exclusion_radius of
    a sensor after its action (the largest over a command's sensors); a
    command is feasible when psi > psi_threshold, so its exclusion disks
    are likely empty, and when every pair of sensors is more than
    eta_threshold apart.  Control sees each sensor's predicted density
    without the components whose existence is below min_existence.
    """

    epsilon: float = 1e-6
    penalty_lambda: float = 100.0
    psi_threshold: float = 0.8
    eta_threshold: float = 50.0
    exclusion_radius: float = 20.0
    min_existence: float = 0.0

    def __post_init__(self):
        if not 0 < self.epsilon < 0.5:
            raise ValueError("epsilon must be in (0, 0.5)")
        if self.penalty_lambda < 1:
            raise ValueError("penalty_lambda must be >= 1")
        if self.exclusion_radius <= 0:
            raise ValueError("exclusion_radius must be positive")
        if not 0.0 <= self.min_existence < 1.0:
            raise ValueError("min_existence must be in [0, 1)")


def existence_map(density: LmbDensity) -> dict:
    """label -> existence, the form the objective takes."""
    return dict(zip(density.labels, density.existences.tolist()))


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


def sensor_sensor_constraint(sensors_after) -> float:
    """Minimum pairwise distance between sensors; +inf for a single sensor.

    sensors_after maps sensor id -> post-action SensorState.
    """
    states = list(sensors_after.values())
    if len(states) < 2:
        return math.inf
    eta = math.inf
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            eta = min(eta, math.hypot(states[i].x - states[j].x, states[i].y - states[j].y))
    return eta


def void_feasible(psi: float, params: ObjectiveParams) -> bool:
    return psi > params.psi_threshold


def distance_feasible(eta: float, params: ObjectiveParams) -> bool:
    return eta > params.eta_threshold


# ---------------------------------------------------------------------------
# Coordinate descent core
# ---------------------------------------------------------------------------

# evaluator: (sensor id, full command tuple) -> objective score, -inf if infeasible
CommandEvaluator = Callable[[int, tuple], float]


@dataclass
class DescentOutcome:
    command: tuple
    score: float
    iterations: int
    turns: tuple  # the sensor of each turn, in order; the last met the stopping rule


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
    best_action, best_score = 0, NEG_INF
    for a in range(n_actions):
        candidate = latest.copy()
        candidate[position] = a
        score = evaluate(node, tuple(candidate))
        if score > best_score:
            best_action, best_score = a, score
    if best_score == NEG_INF:
        fallback = latest.copy()
        fallback[position] = 0
        return 0, evaluate(node, tuple(fallback))
    return best_action, best_score


def run_flooded_descent(
    sensor_ids,
    n_actions: Mapping[int, int],
    evaluate: CommandEvaluator,
    initial_actions: Mapping[int, int],
) -> DescentOutcome:
    """Sequential coordinate descent over the given sensors until a cycle.

    Each iteration visits sensors in ascending id order; each sensor
    exhaustively re-optimizes its own action against the latest actions of
    the others.  Every sensor keeps one record of (command, score) entries,
    starting with the initial command, and the position of each command's
    first entry.  The descent stops the first time a sensor's turn yields
    a command already in its own record, and returns the best entry of
    that record from the command's first entry on, ties going to the
    earliest.  A recorded score is evaluate(sensor, command), so the
    repeated entry, left out, would change nothing.

    Because the update is deterministic over a finite command space, a
    cycle must appear within prod(n_actions) + 1 iterations.
    """
    ids = tuple(sorted(sensor_ids))
    pos = {s: i for i, s in enumerate(ids)}
    latest = [initial_actions[s] for s in ids]
    cmd0 = tuple(latest)
    record = {s: [(cmd0, evaluate(s, cmd0))] for s in ids}
    first = {s: {cmd0: 0} for s in ids}
    turns = []

    bound = 1
    for s in ids:
        bound *= max(n_actions[s], 1)

    for t in range(1, bound + 2):
        for s in ids:
            action, score = _best_own_action(s, pos[s], latest, n_actions[s], evaluate)
            latest[pos[s]] = action
            turns.append(s)
            command = tuple(latest)
            if command in first[s]:
                command, score = max(record[s][first[s][command] :], key=lambda e: e[1])
                return DescentOutcome(command, score, t, tuple(turns))
            first[s][command] = len(record[s])
            record[s].append((command, score))
    raise RuntimeError("coordinate descent failed to cycle within its pigeonhole bound")


# ---------------------------------------------------------------------------
# Production command evaluation: pseudo-update + fusion pipeline
# ---------------------------------------------------------------------------


class PseudoCache:
    """Per-step cache of everything control evaluation reuses.

    labels is the step's sorted label index; rows[s] maps sensor s's
    components onto it.  Per sensor: the EAP positions of its predicted
    density, which every action's ideal measurement set starts from.  Per
    (sensor, action): the post-action state, the pseudo-posterior and, on
    first use, the mask of components the sensor is active for.  Per
    (owner, action, center), on first use: the in-disk weight of each of
    the owner's pseudo components.  A pseudo-posterior shares its predicted
    density's states array, since pseudo_update never moves a particle, so
    which particles lie in a disk is found once per (sensor, center) from
    predicted.states, and only components with a particle inside are
    summed.
    """

    def __init__(
        self,
        predicted: Mapping[int, LmbDensity],
        sensor_states: Mapping[int, SensorState],
        fovs: Mapping[int, FovModel],
        action_sets: Mapping[int, list],
        filter_cfgs: Mapping[int, FilterConfig],
        params: ObjectiveParams,
    ):
        self.params = params
        self.filter_cfgs = dict(filter_cfgs)
        self.sensor_states = dict(sensor_states)
        self.fovs = dict(fovs)
        self.action_sets = {s: list(a) for s, a in action_sets.items()}
        self.predicted = {
            s: prune(d, params.min_existence, len(d.labels) or 1)
            if params.min_existence > 0
            else d
            for s, d in predicted.items()
        }
        self.predicted_existences = {s: existence_map(d) for s, d in self.predicted.items()}
        self.eap_positions = {
            s: np.array([state[:2] for _label, state in eap_states(d)]).reshape(-1, 2)
            for s, d in self.predicted.items()
        }
        self.predicted_means = {s: d.mean_positions() for s, d in self.predicted.items()}
        self.labels = sorted({label for d in self.predicted.values() for label in d.labels})
        index = {label: i for i, label in enumerate(self.labels)}
        self.rows = {
            s: np.array([index[label] for label in d.labels], dtype=np.intp)
            for s, d in self.predicted.items()
        }
        self._state_after = {}
        self._pseudo = {}
        self._active = {}
        self._disk = {}
        self._indisk = {}

    def n_actions(self, s: int) -> int:
        return len(self.action_sets[s])

    def state_after(self, s: int, a: int) -> SensorState:
        key = (s, a)
        if key not in self._state_after:
            self._state_after[key] = apply_action(self.sensor_states[s], self.action_sets[s][a])
        return self._state_after[key]

    def pseudo(self, s: int, a: int) -> LmbDensity:
        # an empty predicted density has one pseudo-posterior, with no rows
        key = (s, a if self.predicted[s].labels else 0)
        if key not in self._pseudo:
            state = self.state_after(*key)
            pims = generate_pims(self.eap_positions[s], state, self.fovs[s])
            density = pseudo_update(
                self.predicted[s], pims, state, self.fovs[s], self.filter_cfgs[s]
            )
            self._pseudo[key] = density
        return self._pseudo[key]

    def existences(self, s: int, a: int) -> np.ndarray:
        """Pseudo existence of each of sensor s's components after action a."""
        return self.pseudo(s, a).existences

    def active(self, s: int, a: int) -> np.ndarray:
        """Mask of sensor s's components it is active for after action a,
        by compute_active_set; a pseudo-posterior keeps its predicted rows."""
        key = (s, a)
        if key not in self._active:
            state, pseudo = self.state_after(s, a), self.pseudo(s, a)
            self._active[key] = compute_active_set(
                state, self.fovs[s], pseudo.mean_positions(), self.predicted_means[s]
            )
        return self._active[key]

    def indisk_weight(self, owner: int, action: int, center: tuple) -> np.ndarray | None:
        """Particle weight of each of the owner's pseudo components within
        the exclusion radius of center, an exact post-action position (x, y);
        None when none of the owner's particles lies in that disk."""
        key = (owner, action, center)
        if key not in self._indisk:
            hits = self._disk.get((owner, center))
            if hits is None:  # (component, particle mask) with a particle inside
                d = self.predicted[owner].states[:, :, :2] - center
                inside = (d[..., 0] ** 2 + d[..., 1] ** 2) <= self.params.exclusion_radius**2
                ks = np.flatnonzero(inside.any(axis=1)).tolist()
                hits = self._disk[(owner, center)] = [(k, inside[k]) for k in ks]
            weight = None
            if hits:
                weights = self.pseudo(owner, action).weights
                weight = np.zeros(len(weights))
                for k, inside in hits:
                    weight[k] = weights[k][inside].sum()
            self._indisk[key] = weight
        return self._indisk[key]


def void_probability(existences: np.ndarray, inside: np.ndarray) -> float:
    """Void probability of an exclusion disk, the psi rule: the product, in
    the given order, of (1 - r * w) over components, with r a component's
    existence and w its particle weight inside the disk."""
    return math.prod((1.0 - existences * inside).tolist(), start=1.0)


@dataclass
class FusedEvaluation:
    existences: dict  # label -> fused existence, in label order
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
        self._fused = {}
        self._scores = {}

    def n_actions(self) -> dict:
        return {s: self.cache.n_actions(s) for s in self.participants}

    def fused(self, command: tuple) -> FusedEvaluation:
        """Pseudo-mode fusion under command, and its feasibility.

        A label fuses over the participants active for it: existence odds
        add, and each one's pseudo component enters psi with its share of
        the odds; a label no participant is active for is omitted.
        """
        if command in self._fused:
            return self._fused[command]
        cache, params = self.cache, self.params
        n_labels = len(cache.labels)
        odds_sum, held, terms = np.zeros(n_labels), np.zeros(n_labels, dtype=bool), []
        for s, a in zip(self.participants, command):
            active, rows = cache.active(s, a), cache.rows[s]
            # the update caps existences at EXISTENCE_CEIL, so no odds are clamped
            odds = np.where(active, existence_odds(cache.existences(s, a)), 0.0)
            odds_sum[rows] += odds  # in participant order, as a sequential sum
            held[rows] |= active
            terms.append((s, a, rows, odds))
        used = np.flatnonzero(held)
        existences = odds_sum[used] / (1.0 + odds_sum[used])
        total = np.where(odds_sum > 0.0, odds_sum, 1.0)
        shares = [(s, a, rows, odds / total[rows]) for s, a, rows, odds in terms]

        states_after = [cache.state_after(s, a) for s, a in zip(self.participants, command)]
        eta = sensor_sensor_constraint(dict(zip(self.participants, states_after)))
        psi = 0.0
        for state in states_after:
            center = (state.x, state.y)
            inside = np.zeros(n_labels)
            for s, a, rows, share in shares:
                weight = cache.indisk_weight(s, a, center)
                if weight is not None:
                    inside[rows] += share * weight
            psi = max(psi, void_probability(existences, inside[used]))
        feasible = distance_feasible(eta, params) and void_feasible(psi, params)

        labels = [cache.labels[i] for i in used.tolist()]
        out = FusedEvaluation(dict(zip(labels, existences.tolist())), psi, eta, feasible)
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
    sensors.  The void probability runs over every component of the node's
    pseudo-posterior, in component order.  Returns (action index, score);
    the stay action (index 0) with score -inf when no action is feasible.
    """
    params = cache.params
    predicted_exist = cache.predicted_existences[node]
    best_action, best_score = None, NEG_INF
    for a in range(cache.n_actions(node)):
        state = cache.state_after(node, a)
        inside = cache.indisk_weight(node, a, (state.x, state.y))
        psi = 1.0 if inside is None else void_probability(cache.existences(node, a), inside)
        feasible = void_feasible(psi, params)
        if feasible and other_positions:
            eta = min(math.hypot(state.x - p[0], state.y - p[1]) for p in other_positions)
            feasible = distance_feasible(eta, params)
        if not feasible:
            continue
        score = objective(existence_map(cache.pseudo(node, a)), predicted_exist, params)
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
    component of the best-scoring final command.  Reaching the global
    optimum with probability P among M equally likely local optima takes
    ceil(log(1 - P) / log(1 - 1/M)) restarts.
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
