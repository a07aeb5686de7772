"""Per-sensor sequential Monte Carlo LMB filter.

Prediction, ideal measurement sets for hypothesized actions, and one
Bayes core, shared by the measurement update, which alone appends births,
and the pseudo-update used for control scoring.

The update is the standard SMC-LMB component-wise Bayes update: particles
are reweighted by detection probability and measurement likelihood, and
association hypotheses are marginalized per cluster of components that
share gated measurements.  Every row with a gated pair is in one cluster,
a row whose measurements no other row gates in a cluster of its own, and
every cluster takes one rule: while the product of its rows' event counts
(a miss or a gated measurement each) is within exact_enum_limit, a
depth-first walk over that product sums the matchings exactly; larger
clusters fall back to the best-k ranked assignments, each solved by
min_cost_assignment, the in-house port of scipy's rectangular assignment
solver.  The update itself never resamples: resampling and pruning are
separate steps so that a no-information update is exactly the identity on
the density.

The core runs in two phases against a set of A sensor poses, each with
its own measurements: update passes one pose, pseudo_update every action's
pose of a sensor.  The association phase holds the (A * K) block rows of
all poses in arrays: each pose's particle offsets (x - x_a, y - y_a) are
computed once and read by both the detection model and the gated pairs'
likelihoods, and one pose x rows x measurements distance matrix gates the
pairs.  Each pose's measurements have their own indices, so no cluster
spans two poses.  Every updated row first takes the miss-only update as
arrays; only the rows with a gated pair go on to the association
marginals, which give each row's posterior existence.  The weights phase
then builds the normalized particle weights of any requested block rows:
each row's terms are summed in its own event order (miss term first, then
the detections in marginal order) and divided by their sum, so a row has
the bits of a row-by-row update at its pose alone, whichever rows are
built with it.  update requests every row.  A row's existence does not
depend on its reweighted particles, and control reads most rows'
existences only, so a PseudoPosterior requests a row's weights the first
time they are read.

Pass-through rule: a component whose maximum detection probability over
its particles is at most 1e-12 at a pose has no gated measurement there,
so it forms a cluster of its own, and the update passes it through
unchanged.  The posterior marks those rows in passed_through; they are the
rows the harness does not resample.  Whole densities go through the
update: one detection-model call per density and pose set.
"""

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assignment import min_cost_assignment
from .lmb import EXISTENCE_CEIL, STATE_DIM, Label, LmbDensity, connected_groups, row_means
from .sensors import (
    FovModel,
    MotionModel,
    SensorState,
    detection_model,
    detection_probabilities,
    displacement_log_likelihoods,
    propagate_states,
)

_BIG_COST = 1e12
_MIN_CLUTTER = 1e-12


@dataclass(frozen=True)
class FilterConfig:
    """Tuning constants for the per-sensor filter.

    clutter_intensity is the spatial clutter density (per m^2) assumed by
    the update; adaptive birth spawns a component at every measurement not
    gated to an existing component.
    """

    clutter_intensity: float
    birth_existence: float = 0.1
    birth_particle_std: float = 10.0
    birth_velocity_std: float = 10.0
    association_gate: float = 50.0
    particle_count: int = 500
    meas_noise_std: float = 5.0
    existence_floor: float = 1e-2
    max_components: int = 100
    exact_enum_limit: int = 5000
    assoc_max_hypotheses: int = 64

    def __post_init__(self):
        if not 0 < self.birth_existence < 1:
            raise ValueError("birth_existence must be in (0, 1)")
        for name in (
            "birth_particle_std",
            "birth_velocity_std",
            "association_gate",
            "particle_count",
            "meas_noise_std",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.clutter_intensity < 0:
            raise ValueError("clutter_intensity must be nonnegative")
        if not 0.0 <= self.existence_floor < 1.0:
            raise ValueError("existence_floor must be in [0, 1)")
        for name in ("max_components", "exact_enum_limit", "assoc_max_hypotheses"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def predict(
    prior: LmbDensity,
    motion: MotionModel,
    rng: np.random.Generator,
) -> LmbDensity:
    """Predict one step ahead: survival-scaled existence, propagated particles.

    Births are not predicted: update spawns them from unassociated
    measurements.
    """
    states = propagate_states(motion, prior.states.reshape(-1, STATE_DIM), rng)
    return LmbDensity(
        prior.labels,
        prior.existences * motion.survival_probability,
        states.reshape(prior.states.shape),
        prior.weights,
        prior.timestamp + 1,
        "predicted",
    )


def generate_pims(positions: np.ndarray, poses: list, fov: FovModel) -> list:
    """Ideal measurement set of each of A hypothesized sensor poses.

    positions holds the (N, 2) positions of the predicted density's EAP
    estimates (eap_states), so one sensor's actions share them.  At each
    pose, each estimate whose detection probability exceeds the model
    threshold emits its exact noiseless relative displacement, a row of
    that pose's (M_a, 2) set; the others are treated as missed and omitted.
    One detection-probability call covers every pose, and each pose's row
    of it has the bits of its own call.
    """
    pd = detection_probabilities(fov, poses, positions)
    return [positions[row > fov.p_d_threshold] - pose.position for pose, row in zip(poses, pd)]


# ---------------------------------------------------------------------------
# Association marginalization
# ---------------------------------------------------------------------------


class _RowTerms(NamedTuple):
    """One row with a gated pair and its association events for one scan, in
    event order: the miss, then its gated measurements in ascending index.
    The three lists are aligned, so an event is a position in them."""

    row: int
    keys: list  # None, then the measurement indices
    weights: list  # the miss weight, then r * G_z / clutter per measurement
    pairs: list  # None, then each (row, measurement) pair's index in the gated arrays


def _exact_marginals(cluster_terms: list) -> list:
    """Exact association marginals by a depth-first walk over the rows'
    events that never takes a measurement already taken above.

    The walk visits the matchings in the lexicographic order of the product
    of the rows' event lists, each weight the product of its events' scaled
    weights from the first row on, so every sum adds the same products in
    the same order as an enumeration of the whole product that skips the
    hypotheses using a measurement twice.  Every event of a row first
    appears in the matching where all other rows miss, so the marginals
    come out in event order.  Returns, per row, a dict {event: probability},
    event 0 being the miss; {0: 1.0}, a sure miss, when every matching
    weighs 0.
    """
    scaled = []
    for t in cluster_terms:
        # scale each row's events so products stay near unity
        s = max(t.weights)
        scale = s if s > 0 else 1.0
        scaled.append([w / scale for w in t.weights])
    last = len(scaled) - 1
    sums = [[0.0] * len(w) for w in scaled]
    chosen = [0] * len(scaled)  # the event of each row on the walk's path
    taken = set()  # the measurements taken above the walk's row; never None
    total = 0.0

    def walk(i, prefix):
        nonlocal total
        for e, (key, w) in enumerate(zip(cluster_terms[i].keys, scaled[i])):
            if key in taken:
                continue
            weight = prefix * w
            chosen[i] = e
            if i == last:
                total += weight
                for row_sums, event in zip(sums, chosen):
                    row_sums[event] += weight
            elif e:
                taken.add(key)
                walk(i + 1, weight)
                taken.discard(key)
            else:
                walk(i + 1, weight)

    walk(0, 1.0)
    if total <= 0.0:
        return [{0: 1.0} for _ in scaled]
    return [{e: v / total for e, v in enumerate(row_sums)} for row_sums in sums]


def _solve_assignment(cost: np.ndarray):
    """(total cost, column per row) of the best assignment avoiding +inf
    cells, or None when every assignment meets one.  The +inf cells are
    filled with _BIG_COST, so min_cost_assignment sees only finite entries;
    the cost is never taller than wide."""
    cols = min_cost_assignment(np.where(np.isfinite(cost), cost, _BIG_COST))
    picked = cost[np.arange(len(cols)), cols]
    if not np.isfinite(picked).all():
        return None
    return float(picked.sum()), tuple(cols)


def murty_assignments(cost: np.ndarray, k: int) -> list:
    """Up to k lowest-cost assignments of rows to distinct columns.

    Standard Murty partitioning over min_cost_assignment solutions, with
    at most as many rows as columns; infeasible cells are +inf; a node's
    children partition its other solutions, so none repeats.  Returns
    (total_cost, column_per_row) pairs in nondecreasing cost order.
    """
    best = _solve_assignment(cost)
    if best is None:
        return []
    out = []
    counter = itertools.count()
    heap = [(best[0], next(counter), cost, best[1], 0)]
    while heap and len(out) < k:
        total, _, sub, assign, forced = heapq.heappop(heap)
        out.append((total, assign))
        # children start at the forced prefix: a row below it holds one finite cell
        for i in range(forced, len(assign)):
            child = sub.copy()
            # forbid row i's current column, keep rows < i forced
            child[i, assign[i]] = np.inf
            for r in range(forced, i):
                keep = assign[r]
                child[r, :] = np.inf
                child[r, keep] = sub[r, keep]
            sol = _solve_assignment(child)
            if sol is not None:
                heapq.heappush(heap, (sol[0], next(counter), child, sol[1], i))
    return out


def _ranked_marginals(cluster_terms: list, k: int) -> list:
    """Approximate association marginals from the k best assignments.

    Every row has a finite miss column of its own, costing at most about
    691 (-log of 1e-300), so murty_assignments returns at least one
    solution: a finite cell is -log of a float, at least about -710, so an
    assignment through an infeasible cell, filled with 1e12, costs more
    than the all-miss one for any cluster of fewer than 7e8 rows.  Returns,
    per row, a dict {event: probability} in the order the row's events
    first appear among the assignments, which the weights phase keeps.
    """
    n = len(cluster_terms)
    meas_ids = sorted({j for t in cluster_terms for j in t.keys[1:]})
    col_of = {j: idx for idx, j in enumerate(meas_ids)}
    m = len(meas_ids)
    cost = np.full((n, m + n), np.inf)
    event_of = []  # per row: {column: event}, its miss column m + i the miss
    for i, t in enumerate(cluster_terms):
        cost[i, m + i] = -math.log(max(t.weights[0], 1e-300))
        event_of.append({m + i: 0})
        for e in range(1, len(t.keys)):
            col = col_of[t.keys[e]]
            event_of[i][col] = e
            if t.weights[e] > 0:
                cost[i, col] = -math.log(t.weights[e])
    solutions = murty_assignments(cost, k)
    best = solutions[0][0]
    sums = [dict() for _ in range(n)]
    total = 0.0
    for c, assign in solutions:
        w = math.exp(-(c - best))
        total += w
        for i, col in enumerate(assign):
            ev = event_of[i][col]
            sums[i][ev] = sums[i].get(ev, 0.0) + w
    return [{e: v / total for e, v in s.items()} for s in sums]


class _Association(NamedTuple):
    """The association phase's result over the (A * K) block rows of A poses,
    pose a's row k being block row a * K + k, and what the weights phase reads.

    existences and passed are (A, K); meas holds the measurement of each gated
    pair, an index into the poses' measurements concatenated in pose order.
    miss_r is each block row's existence after a miss, scaled by its miss
    marginal, miss_p its particles' miss probabilities, miss_lik their
    weight-average (1.0 where that is 0, as the divisor), and events its
    detection events [(pair, p)] in marginal order; raw and g_sum are each
    gated pair's unnormalized particle likelihoods and their sum."""

    existences: np.ndarray
    passed: np.ndarray
    meas: np.ndarray
    prior: np.ndarray  # the predicted (K, J) weights
    miss_r: np.ndarray
    miss_p: np.ndarray
    miss_lik: np.ndarray
    events: list
    raw: np.ndarray
    g_sum: np.ndarray

    def weights(self, pose: int, rows: np.ndarray) -> np.ndarray:
        """The weights phase: (len(rows), J) normalized posterior particle
        weights of pose's given distinct rows, in the given order.

        Each row is summed term by term in its own event order: the miss
        term, then the detections in marginal order, then divided by its
        sum.  The miss term is 0 where miss_r is (so where the miss
        likelihood is, and on the rows passed through); a row whose sum is
        0 keeps its predicted weights.  Every step is per row, so a row has
        the same bits whichever rows are built with it.
        """
        block = pose * len(self.prior) + rows
        prior = self.prior.take(rows, axis=0)
        w = self.miss_r.take(block)[:, None] * prior * self.miss_p.take(block, axis=0)
        w /= self.miss_lik.take(block)[:, None]
        for row, i in zip(w, block.tolist()):
            for pair, p in self.events[i]:
                row += p * (self.raw[pair] / self.g_sum[pair])
        total = w.sum(axis=1)[:, None]
        return np.divide(w, total, out=prior, where=total > 0.0)


def _bayes_update(
    predicted: LmbDensity,
    zs: list,
    sensors: list,
    fov: FovModel,
    cfg: FilterConfig,
) -> _Association:
    """The association phase of the Bayes update against each of A sensor
    poses with its (M_a, 2) measurements."""
    if predicted.role != "predicted":
        raise ValueError(f"the update expects a predicted density, got role {predicted.role!r}")
    k, j = predicted.weights.shape
    n_poses = len(sensors)
    # each pose's (A, K, J) particle offsets, read by the detection model and
    # the pair likelihoods
    poses = np.array([(s.x, s.y, s.bearing) for s in sensors])
    xs, ys, bearings = poses.T[:, :, None, None]
    dx, dy = predicted.states[:, :, 0] - xs, predicted.states[:, :, 1] - ys
    pd = detection_model(fov, dx, dy, bearings)
    passed = pd.max(axis=2, initial=0.0) <= 1e-12
    r = np.minimum(predicted.existences, EXISTENCE_CEIL)

    # gated pairs: an updated row and a measurement of the same pose within
    # the gate of its mean; a pair whose likelihood sum is 0 is dropped.  A
    # pair's row in the (A * K) block of all poses' rows is `block`.
    z = np.concatenate(zs)
    pose_of = np.repeat(np.arange(n_poses), [len(zp) for zp in zs])
    means = predicted.mean_positions()
    gx = z[:, 0] - (means[:, 0, None] - poses[pose_of, 0])
    gy = z[:, 1] - (means[:, 1, None] - poses[pose_of, 1])
    gated = ~(np.hypot(gx, gy) > cfg.association_gate) & ~passed.T[:, pose_of]
    rows, meas = np.nonzero(gated)
    block = pose_of.take(meas) * k + rows
    # (G, J) likelihoods of each pair's particles, from their offsets
    pair_dx, pair_dy = (d.reshape(n_poses * k, j).take(block, axis=0) for d in (dx, dy))
    pair_z = z.take(meas, axis=0)[:, None]
    logg = displacement_log_likelihoods(pair_dx, pair_dy, pair_z, cfg.meas_noise_std)
    del pair_dx, pair_dy  # only their likelihoods are read from here on
    raw = predicted.weights.take(rows, axis=0)
    raw *= pd.reshape(n_poses * k, j).take(block, axis=0)
    raw *= np.exp(logg, out=logg)
    g_sum = raw.sum(axis=1)
    hit = g_sum > 0.0
    if not hit.all():
        rows, block, meas, raw, g_sum = rows[hit], block[hit], meas[hit], raw[hit], g_sum[hit]
    det_w = r.take(rows) * g_sum / max(cfg.clutter_intensity, _MIN_CLUTTER)

    # the pairs have read pd: its array now holds the miss probabilities
    miss_p = np.subtract(1.0, pd, out=pd)
    miss_lik = row_means(predicted.weights, miss_p[..., None])[..., 0]
    no_det = (1.0 - r) + r * miss_lik

    # every updated row gets the miss-only update; rows with a gated pair
    # are then associated and scaled by their miss marginal.  Each cluster of
    # rows that share a measurement takes the exact walk within the limit,
    # the ranked assignments above it; a row whose measurements no other row
    # gates is a cluster of its own.
    miss_r = np.zeros((n_poses, k))  # per row: existence after a miss
    np.divide(r * miss_lik, no_det, out=miss_r, where=~passed & (no_det > 0))
    existences = np.where(passed, predicted.existences, np.minimum(miss_r, EXISTENCE_CEIL))
    flat_miss_r, flat_existences = miss_r.reshape(-1), existences.reshape(-1)
    events = [[] for _ in range(n_poses * k)]  # per block row: [(pair, p)]
    pairs = {}  # block row -> its pairs, in ascending measurement order
    for g, i in enumerate(block.tolist()):
        pairs.setdefault(i, []).append(g)
    meas_of, weight_of, no_det = meas.tolist(), det_w.tolist(), no_det.reshape(-1).tolist()
    terms = [
        _RowTerms(i, [None] + [meas_of[g] for g in gs], [no_det[i]] + [weight_of[g] for g in gs],
                  [None] + gs)
        for i, gs in pairs.items()
    ]
    first = {}  # measurement -> the first row term that holds it
    shared = [(first.setdefault(m, i), i) for i, t in enumerate(terms) for m in t.keys[1:]]
    for cluster in connected_groups(len(terms), shared):
        cluster_terms = [terms[i] for i in cluster]
        # the number of hypotheses the exact walk's product spans
        if math.prod(len(t.keys) for t in cluster_terms) <= cfg.exact_enum_limit:
            marginals = _exact_marginals(cluster_terms)
        else:
            marginals = _ranked_marginals(cluster_terms, cfg.assoc_max_hypotheses)
        # each row's detections, summed and kept in marginal order
        for t, marg in zip(cluster_terms, marginals):
            i = t.row
            flat_miss_r[i] *= marg.pop(0, 0.0)
            flat_existences[i] = min(flat_miss_r[i] + sum(marg.values()), EXISTENCE_CEIL)
            events[i] = [(t.pairs[e], p) for e, p in marg.items() if p > 0.0]

    divisor = np.where(miss_lik == 0.0, 1.0, miss_lik).reshape(-1)
    flat_miss_p = miss_p.reshape(n_poses * k, j)
    return _Association(
        existences, passed, meas, predicted.weights, flat_miss_r, flat_miss_p, divisor, events,
        raw, g_sum,
    )


def update(
    predicted: LmbDensity,
    measurements,
    sensor: SensorState,
    fov: FovModel,
    cfg: FilterConfig,
    rng: np.random.Generator,
    origin: int,
) -> LmbDensity:
    """Measurement update with adaptive birth.

    Rows whose maximum detection probability is at most 1e-12 pass through
    unchanged and are marked in the result's passed_through.  Measurements
    not gated to any component spawn birth components labeled
    (timestep, i, origin), appended after the predicted rows.
    """
    z = np.asarray(measurements, dtype=float).reshape(-1, 2)
    association = _bayes_update(predicted, [z], [sensor], fov, cfg)
    existences, passed = association.existences[0], association.passed[0]
    labels, states = predicted.labels, predicted.states
    weights = association.weights(0, np.arange(len(labels)))
    centers = sensor.position + np.delete(z, association.meas, axis=0)
    if len(centers):
        k, n = len(labels), cfg.particle_count
        births = np.empty((len(centers), n, STATE_DIM))
        for b, center in enumerate(centers):  # drawn birth by birth
            births[b, :, :2] = center + rng.normal(0.0, cfg.birth_particle_std, (n, 2))
            births[b, :, 2:] = rng.normal(0.0, cfg.birth_velocity_std, (n, 2))
        labels += tuple(Label(predicted.timestamp, b, origin) for b in range(len(centers)))
        existences = np.concatenate([existences, np.full(len(centers), cfg.birth_existence)])
        # an empty density has no particle count of its own: reshape gives it n
        states = np.concatenate([states.reshape(k, n, STATE_DIM), births])
        weights = np.concatenate([weights.reshape(k, n), np.full((len(centers), n), 1.0 / n)])
        passed = np.concatenate([passed, np.zeros(len(centers), dtype=bool)])
    return LmbDensity(labels, existences, states, weights, predicted.timestamp, "posterior", passed)


class PseudoPosterior:
    """One hypothesized action's pseudo-posterior, from pseudo_update.

    It holds its rows' existences and passed_through flags, as the shared
    association phase gave them, and builds a row's normalized particle
    weights by the weights phase on the row's first request, once.  It
    shares its predicted density's labels and states, since pseudo_update
    never moves a particle.
    """

    def __init__(self, predicted: LmbDensity, association: _Association, pose: int):
        self.labels, self.states = predicted.labels, predicted.states
        self.existences = association.existences[pose]
        self.passed_through = association.passed[pose]
        self._association, self._pose = association, pose
        self._weights = {}  # row -> its built (J,) weights

    def row_weights(self, rows) -> list:
        """The (J,) weights of each of the given rows, in the given order."""
        rows = list(rows)
        new = [k for k in dict.fromkeys(rows) if k not in self._weights]
        if new:
            built = self._association.weights(self._pose, np.array(new, dtype=np.intp))
            self._weights.update(zip(new, built))
        return [self._weights[k] for k in rows]

    def mean_positions(self, rows) -> np.ndarray:
        """(len(rows), 2) weight-averaged particle position of the given rows."""
        rows = np.asarray(rows, dtype=np.intp)
        weights = np.array(self.row_weights(rows.tolist())).reshape(len(rows), self.states.shape[1])
        # whole states gathered, then viewed: the (J, 2) operands keep the
        # strides a full density's mean_positions reads
        return row_means(weights, self.states[rows][:, :, :2])


def pseudo_update(
    predicted: LmbDensity,
    pims_sets: list,
    sensors_after_actions: list,
    fov: FovModel,
    cfg: FilterConfig,
) -> list:
    """Update against the ideal measurement set of each of A hypothesized
    sensor states; no birth, fully deterministic.  Returns the A
    pseudo-posteriors, in the order of the states.

    One association phase of the Bayes core that update runs with one pose,
    so a pseudo-posterior has the bits of update's rows on the same
    measurements; its rows' weights are built when first asked for.
    """
    zs = [np.asarray(pims, dtype=float).reshape(-1, 2) for pims in pims_sets]
    association = _bayes_update(predicted, zs, sensors_after_actions, fov, cfg)
    return [PseudoPosterior(predicted, association, a) for a in range(len(zs))]
