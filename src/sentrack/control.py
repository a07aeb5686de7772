"""Information-driven multi-sensor control.

The objective scores a hypothesized multi-sensor command by the
existence-probability divergence from a fused pseudo-posterior to the
local predicted density, minus a penalty for every predicted label that
the command would drop, subject to two feasibility constraints, each one
rule for both the single-sensor and the fused evaluation: separation, the
smallest inter-sensor distance, tested first, and void_probability, the
void probability of a per-sensor exclusion disk, from vectors over one
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

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .filtering import FilterConfig, PseudoPosterior, generate_pims, pseudo_update
from .fusion import compute_active_set, existence_odds
from .lmb import LmbDensity, eap_states, label_index, prune
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
        if not 0.0 <= self.psi_threshold < 1.0:
            raise ValueError("psi_threshold must be in [0, 1)")
        if self.eta_threshold < 0:
            raise ValueError("eta_threshold must be nonnegative")
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
    """Penalty for labels present in r2 but dropped from r1 (nonnegative);
    lam >= 1, as ObjectiveParams checks of penalty_lambda."""
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

    Each action a is scored once, in index order, as evaluate(node, latest
    with a at position).  Returns the first maximum (action, score), so
    ties go to the lowest action index, and when every score is -inf
    (every candidate infeasible), the stay action (index 0) with -inf.
    """
    scores = []
    for a in range(n_actions):
        candidate = latest.copy()
        candidate[position] = a
        scores.append(evaluate(node, tuple(candidate)))
    best = max(scores)
    return scores.index(best), best


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

    bound = math.prod(max(n_actions[s], 1) for s in ids)
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

    after[s][a] is sensor s's state after its action a, built for every
    action up front; every post-action geometry of the step is read from
    it, and after[s][0], the stay action's, is sensor s's current pose.
    (labels, rows) is lmb.label_index of the pruned predicted densities.
    Built up front, per sensor: its pruned predicted density and the
    predicted existences.

    Built on first use:
      * per sensor, when any of its actions is first read: the
        PseudoPosteriors of all its actions, from the ideal measurement
        sets of its EAP positions and one pseudo_update call, each holding
        its rows' existences (none for an empty predicted density);
      * per (sensor, action, row), at most once: the row's pseudo-posterior
        particle weights, built only when active or indisk_weight reads
        them: active for the rows the predicted estimates leave inactive,
        indisk_weight for the rows with a particle in the disk;
      * per (sensor, action): one memo of (mask, odds), the components the
        sensor is active for and their pseudo existence odds, 0.0 elsewhere;
      * per (owner, action, center): the in-disk weight of each of the
        owner's pseudo components;
      * per (sensor, center): which of its components have a particle in
        the disk, and which particles, read from predicted.states, since
        a pseudo-posterior shares its predicted density's particles and
        pseudo_update never moves one.
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
        self.fovs = dict(fovs)
        self.after = {
            s: [apply_action(sensor_states[s], action) for action in actions]
            for s, actions in action_sets.items()
        }
        self.predicted = {
            s: prune(d, params.min_existence, len(d.labels)) for s, d in predicted.items()
        }
        self.predicted_existences = {s: existence_map(d) for s, d in self.predicted.items()}
        self.labels, rows = label_index(self.predicted.values())
        self.rows = dict(zip(self.predicted, rows))
        self._pseudo = {}
        self._active = {}
        self._disk = {}
        self._indisk = {}

    def pseudo(self, s: int, a: int) -> PseudoPosterior:
        if (s, a) not in self._pseudo:
            predicted, after, fov = self.predicted[s], self.after[s], self.fovs[s]
            eap = np.array([state[:2] for _label, state in eap_states(predicted)]).reshape(-1, 2)
            pims = generate_pims(eap, after, fov)
            pseudos = pseudo_update(predicted, pims, after, fov, self.filter_cfgs[s])
            self._pseudo.update(((s, b), p) for b, p in enumerate(pseudos))
        return self._pseudo[(s, a)]

    def active(self, s: int, a: int) -> tuple:
        """(mask, odds) of sensor s after action a: the components it is active
        for, by compute_active_set, and their pseudo existence odds, 0.0 elsewhere."""
        key = (s, a)
        if key not in self._active:
            pseudo = self.pseudo(s, a)  # it keeps its predicted rows
            means = self.predicted[s].mean_positions(), pseudo.mean_positions
            mask = compute_active_set(self.after[s][a], self.fovs[s], *means)
            # the update caps existences at EXISTENCE_CEIL, so no odds are clamped
            self._active[key] = mask, np.where(mask, existence_odds(pseudo.existences), 0.0)
        return self._active[key]

    def _hits(self, owner: int, center: tuple) -> list:
        """(component, particle mask) of the owner's components with a particle in center's disk."""
        key = (owner, center)
        if key not in self._disk:
            states = self.predicted[owner].states
            dx, dy = states[:, :, 0] - center[0], states[:, :, 1] - center[1]
            inside = (dx**2 + dy**2) <= self.params.exclusion_radius**2
            ks = np.flatnonzero(inside.any(axis=1)).tolist()
            self._disk[key] = [(k, inside[k]) for k in ks]
        return self._disk[key]

    def indisk_weight(self, owner: int, action: int, center: tuple) -> np.ndarray | None:
        """Particle weight of each of the owner's pseudo components within
        the exclusion radius of center, an exact post-action position (x, y);
        None when none of the owner's particles lies in that disk."""
        key = (owner, action, center)
        if key not in self._indisk:
            hits = self._hits(owner, center)
            weight = None
            if hits:
                pseudo = self.pseudo(owner, action)
                weights = pseudo.row_weights(k for k, _inside in hits)
                weight = np.zeros(len(pseudo.labels))
                for (k, inside), row in zip(hits, weights):
                    weight[k] = row[inside].sum()
            self._indisk[key] = weight
        return self._indisk[key]


def separation(moving, fixed=()) -> float:
    """The eta rule: the smallest distance between two moving (x, y) positions
    or between a moving and a fixed one; inf when there is no such pair."""
    pairs = itertools.chain(itertools.combinations(moving, 2), itertools.product(moving, fixed))
    return min(itertools.starmap(math.dist, pairs), default=math.inf)


def void_probability(existences: np.ndarray, inside: np.ndarray) -> float:
    """Void probability of an exclusion disk, the psi rule: the product, in
    the given order, of (1 - r * w) over components, with r a component's
    existence and w its particle weight inside the disk."""
    return math.prod((1.0 - existences * inside).tolist(), start=1.0)


@dataclass
class FusedEvaluation:
    existences: dict  # label -> fused existence, in label order
    psi: float


class ControlContext:
    """Evaluates multi-sensor commands over a fixed participant set.

    Commands index each participant's action set in ascending sensor-id
    order.  Fusion results are memoized, so a command revisited during
    descent cycling is fused once.
    """

    def __init__(self, cache: PseudoCache, participants):
        self.cache = cache
        self.participants = tuple(sorted(participants))
        self.params = cache.params
        self._fused = {}

    def n_actions(self) -> dict:
        return {s: len(self.cache.after[s]) for s in self.participants}

    def centers(self, command: tuple) -> list:
        """The participants' post-action positions (x, y) under command."""
        after = self.cache.after
        return [(after[s][a].x, after[s][a].y) for s, a in zip(self.participants, command)]

    def fused(self, command: tuple) -> FusedEvaluation:
        """Pseudo-mode fusion under command, and its psi.

        A label fuses over the participants active for it: existence odds
        add, and each one's pseudo component enters psi with its share of
        the odds; a label no participant is active for is omitted.
        """
        if command in self._fused:
            return self._fused[command]
        cache, n_labels = self.cache, len(self.cache.labels)
        odds_sum, held, terms = np.zeros(n_labels), np.zeros(n_labels, dtype=bool), []
        for s, a in zip(self.participants, command):
            (mask, odds), rows = cache.active(s, a), cache.rows[s]
            odds_sum[rows] += odds  # in participant order, as a sequential sum
            held[rows] |= mask
            terms.append((s, a, rows, odds))
        used = np.flatnonzero(held)
        existences = odds_sum[used] / (1.0 + odds_sum[used])

        centers = self.centers(command)
        # a disk with no participant's particle has void probability exactly 1.0, the most a
        # product of factors 1 - r * w can be, so psi, the maximum, is 1.0: change this with psi
        if not all(any(cache._hits(s, c) for s in self.participants) for c in centers):
            psi = 1.0
        else:
            total = np.where(odds_sum > 0.0, odds_sum, 1.0)
            shares = [odds / total[rows] for _s, _a, rows, odds in terms]
            psi = 0.0
            for center in centers:
                inside = np.zeros(n_labels)
                for (s, a, rows, _odds), share in zip(terms, shares):
                    weight = cache.indisk_weight(s, a, center)
                    if weight is not None:
                        inside[rows] += share * weight
                psi = max(psi, void_probability(existences, inside[used]))
        labels = [cache.labels[i] for i in used.tolist()]
        out = FusedEvaluation(dict(zip(labels, existences.tolist())), psi)
        self._fused[command] = out
        return out

    def evaluate(self, node: int, command: tuple) -> float:
        """node's objective under command; -inf when eta fails, tested first, or psi does."""
        if separation(self.centers(command)) <= self.params.eta_threshold:
            return NEG_INF
        fe = self.fused(command)
        if fe.psi <= self.params.psi_threshold:
            return NEG_INF
        return objective(fe.existences, self.cache.predicted_existences[node], self.params)


def isc_select(node: int, cache: PseudoCache, others=()) -> tuple:
    """Independent single-sensor selection on the local pseudo-posterior.

    The descent's own-action search, _best_own_action, over the node's
    actions alone (cache.after[node]), scoring the local pseudo-posterior
    against the local prediction; it returns (action index, score).  An
    action scores -inf when its position is within eta_threshold of the
    current position, cache.after[t][0], of a sensor id t in others
    (separation, tested first), or when the void probability of the node's
    own exclusion disk, over every component of its pseudo-posterior in
    component order, is at most psi_threshold.
    """
    params = cache.params
    predicted_exist = cache.predicted_existences[node]
    fixed = [(cache.after[t][0].x, cache.after[t][0].y) for t in others]

    def score(_node, command):
        [a] = command
        center = (cache.after[node][a].x, cache.after[node][a].y)
        if separation([center], fixed) <= params.eta_threshold:
            return NEG_INF
        inside = cache.indisk_weight(node, a, center)
        psi = 1.0 if inside is None else void_probability(cache.pseudo(node, a).existences, inside)
        if psi <= params.psi_threshold:
            return NEG_INF
        return objective(existence_map(cache.pseudo(node, a)), predicted_exist, params)

    return _best_own_action(node, 0, [0], len(cache.after[node]), score)


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
    component of the best-scoring final command, ties going to the
    earliest restart.  Reaching the global optimum with probability P among
    M equally likely local optima takes ceil(log(1 - P) / log(1 - 1/M))
    restarts.  runs >= 1, as run_single checks of dcd_runs.
    """
    participants = tuple(sorted(set(neighborhood) | {node}))
    ctx = ControlContext(cache, participants)
    n_actions = ctx.n_actions()
    outcomes = []
    for _ in range(runs):
        init = {s: int(rng.integers(n_actions[s])) for s in participants}
        outcomes.append(run_flooded_descent(participants, n_actions, ctx.evaluate, init))
    best = max(outcomes, key=lambda outcome: outcome.score)  # the first of equal scores
    return best.command[participants.index(node)]
