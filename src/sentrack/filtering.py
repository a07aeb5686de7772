"""Per-sensor sequential Monte Carlo LMB filter.

Prediction, ideal measurement sets for hypothesized actions, and one
Bayes core, shared by the measurement update, which alone appends births,
and the pseudo-update used for control scoring.

The update is the standard SMC-LMB component-wise Bayes update: particles
are reweighted by detection probability and measurement likelihood, and
association hypotheses are marginalized per cluster of components that
share gated measurements.  The exact path enumerates the product of the
rows' events (a miss or a gated measurement each) when its size is within
exact_enum_limit, keeping the partial matchings; larger clusters fall back
to the best-k ranked assignments, each solved by min_cost_assignment, the
in-house port of scipy's rectangular assignment solver.  A lone row, whose
gated measurements no other row holds, is a cluster of one; within the
limit it takes the exact path's single-row case in closed form
(_single_row_marginals), with the same bits.  The update itself never
resamples: resampling and pruning are separate steps so that a
no-information update is exactly the identity on the density.

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
    """Association weights of one row with a gated pair for one measurement scan."""

    row: int
    no_det_weight: float
    det_weights: dict  # {meas_idx: r * G_z / clutter}
    pairs: dict  # {meas_idx: index of the (row, meas_idx) pair in the gated arrays}


def _exact_marginals(cluster_terms: list) -> list:
    """Exact association marginals over the product of the rows' events,
    skipping every hypothesis that uses a measurement twice.

    Returns, per component, a dict {event: probability} where the event is
    None for no-detection or a measurement index.
    """
    n = len(cluster_terms)
    sums = [dict() for _ in range(n)]
    total = 0.0

    # Scale each component's events so products stay near unity.
    events = []
    for t in cluster_terms:
        ev = [(None, t.no_det_weight)] + sorted(t.det_weights.items())
        s = max(w for _, w in ev)
        scale = s if s > 0 else 1.0
        events.append([(e, w / scale) for e, w in ev])

    for hypothesis in itertools.product(*events):
        detections = [e for e, _w in hypothesis if e is not None]
        if len(set(detections)) < len(detections):
            continue
        weight = math.prod((w for _e, w in hypothesis), start=1.0)
        total += weight
        for idx, (ev, _w) in enumerate(hypothesis):
            sums[idx][ev] = sums[idx].get(ev, 0.0) + weight
    if total <= 0.0:
        return [{None: 1.0} for _ in range(n)]
    return [{e: v / total for e, v in s.items()} for s in sums]


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
    than the all-miss one for any cluster of fewer than 7e8 rows.
    """
    n = len(cluster_terms)
    meas_ids = sorted({j for t in cluster_terms for j in t.det_weights})
    col_of = {j: idx for idx, j in enumerate(meas_ids)}
    m = len(meas_ids)
    cost = np.full((n, m + n), np.inf)
    for i, t in enumerate(cluster_terms):
        cost[i, m + i] = -math.log(max(t.no_det_weight, 1e-300))
        for j, w in t.det_weights.items():
            if w > 0:
                cost[i, col_of[j]] = -math.log(w)
    solutions = murty_assignments(cost, k)
    best = solutions[0][0]
    sums = [dict() for _ in range(n)]
    total = 0.0
    for c, assign in solutions:
        w = math.exp(-(c - best))
        total += w
        for i, col in enumerate(assign):
            ev = None if col >= m else meas_ids[col]
            sums[i][ev] = sums[i].get(ev, 0.0) + w
    return [{e: v / total for e, v in s.items()} for s in sums]


def _single_row_marginals(weights: list) -> list:
    """_exact_marginals of a cluster of one row, in closed form.

    weights are the row's event weights, the miss first, then its gated
    measurements in ascending index.  The product has one hypothesis per
    event, so each marginal is the event's weight, scaled by the largest,
    over the sequential sum of the scaled weights; [1.0], a sure miss, when
    that sum is 0.  The values, in event order, have the exact path's bits.
    """
    s = max(weights)
    scale = s if s > 0 else 1.0
    scaled = [w / scale for w in weights]
    total = 0.0
    for w in scaled:
        total += w
    if total <= 0.0:
        return [1.0]
    return [w / total for w in scaled]


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
    block = meas = np.empty(0, dtype=np.intp)
    raw, g_sum, det_w = np.empty((0, j)), np.empty(0), np.empty(0)
    if len(z):
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
    # are then associated and scaled by their miss marginal.  A lone row,
    # whose measurements no other row gates, is a cluster of its own.
    miss_r = np.zeros((n_poses, k))  # per row: existence after a miss
    np.divide(r * miss_lik, no_det, out=miss_r, where=~passed & (no_det > 0))
    existences = np.where(passed, predicted.existences, np.minimum(miss_r, EXISTENCE_CEIL))
    flat_miss_r, flat_existences = miss_r.reshape(-1), existences.reshape(-1)
    events = [[] for _ in range(n_poses * k)]  # per block row: [(pair, p)]
    pairs = {}  # block row -> its pairs, in ascending measurement order
    for g, i in enumerate(block.tolist()):
        pairs.setdefault(i, []).append(g)
    meas_of, weight_of, no_det = meas.tolist(), det_w.tolist(), no_det.reshape(-1).tolist()
    holders = dict.fromkeys(meas_of, 0)
    for m in meas_of:
        holders[m] += 1
    terms = []
    for i, row_pairs in pairs.items():
        lone = all(holders[meas_of[g]] == 1 for g in row_pairs)
        if lone and 1 + len(row_pairs) <= cfg.exact_enum_limit:
            marg = _single_row_marginals([no_det[i]] + [weight_of[g] for g in row_pairs])
            flat_miss_r[i] *= marg[0]
            flat_existences[i] = min(flat_miss_r[i] + sum(marg[1:]), EXISTENCE_CEIL)
            events[i] = [(g, p) for g, p in zip(row_pairs, marg[1:]) if p > 0.0]
        else:
            det_weights = {meas_of[g]: weight_of[g] for g in row_pairs}
            terms.append(_RowTerms(i, no_det[i], det_weights, {meas_of[g]: g for g in row_pairs}))
    first = {}  # measurement -> the first row term that holds it
    shared = [(first.setdefault(m, i), i) for i, t in enumerate(terms) for m in t.det_weights]
    for cluster in connected_groups(len(terms), shared):
        cluster_terms = [terms[i] for i in cluster]
        # the number of hypotheses the exact path enumerates
        if math.prod(1 + len(t.det_weights) for t in cluster_terms) <= cfg.exact_enum_limit:
            marginals = _exact_marginals(cluster_terms)
        else:
            marginals = _ranked_marginals(cluster_terms, cfg.assoc_max_hypotheses)
        for t, marg in zip(cluster_terms, marginals):
            i = t.row
            flat_miss_r[i] *= marg.get(None, 0.0)
            new_r = flat_miss_r[i] + sum(p for ev, p in marg.items() if ev is not None)
            flat_existences[i] = min(new_r, EXISTENCE_CEIL)
            events[i] = [(t.pairs[e], p) for e, p in marg.items() if e is not None and p > 0.0]

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
