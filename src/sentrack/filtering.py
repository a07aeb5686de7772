"""Per-sensor sequential Monte Carlo LMB filter.

Prediction, ideal measurement sets for hypothesized actions, and one
Bayes core that returns arrays, shared by the measurement update, which
alone appends births, and the pseudo-update used for control scoring.

The update is the standard SMC-LMB component-wise Bayes update: particles
are reweighted by detection probability and measurement likelihood, and
association hypotheses are marginalized per cluster of components that
share gated measurements.  The exact path enumerates the product of the
rows' events (a miss or a gated measurement each) when its size is within
exact_enum_limit, keeping the partial matchings; larger clusters fall back
to the best-k ranked assignments.  The update itself never resamples:
resampling and pruning are separate steps so that a no-information update
is exactly the identity on the density.

The update works on arrays of gated (row, measurement) pairs: one rows x
measurements distance matrix gates them, one pass over all gated pairs
computes their likelihoods and normalized particle weights, and each
row's posterior weights are summed term by term in its own event order
(miss term first, then the detections in marginal order), so the result
has the bits of a row-by-row update.  Every updated row first takes the
miss-only update as arrays; only the rows with a gated pair go on to the
association marginals, computed cluster by cluster.

Pass-through rule: a component whose maximum detection probability over
its particles is at most 1e-12 has no gated measurement, so it forms a
cluster of its own, and the update passes it through unchanged.  The
posterior marks those rows in passed_through; they are the rows the
harness does not resample.  Whole densities go through the update: one
detection-probability call per density and sensor state.
"""

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .lmb import EXISTENCE_CEIL, STATE_DIM, Label, LmbDensity, connected_groups, row_means
from .sensors import (
    FovModel,
    MotionModel,
    SensorState,
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


def generate_pims(
    positions: np.ndarray, sensor_after_action: SensorState, fov: FovModel
) -> np.ndarray:
    """Ideal measurement set for a hypothesized sensor state.

    positions holds the (N, 2) positions of the predicted density's EAP
    estimates (eap_states), so one sensor's actions share them.  Each
    estimate whose detection probability exceeds the model threshold emits
    its exact noiseless relative displacement, a row of the (M, 2) result;
    the others are treated as missed and omitted.
    """
    pd = detection_probabilities(fov, sensor_after_action, positions)
    return positions[pd > fov.p_d_threshold] - sensor_after_action.position


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
    filled = np.where(np.isfinite(cost), cost, _BIG_COST)
    rows, cols = linear_sum_assignment(filled)
    if any(not np.isfinite(cost[r, c]) for r, c in zip(rows, cols)):
        return None
    return float(cost[rows, cols].sum()), tuple(int(c) for c in cols[np.argsort(rows)])


def murty_assignments(cost: np.ndarray, k: int) -> list:
    """Up to k lowest-cost assignments of rows to distinct columns.

    Standard Murty partitioning over linear_sum_assignment solutions;
    infeasible cells are +inf; a node's children partition its other
    solutions, so none repeats.  Returns (total_cost, column_per_row) pairs
    in nondecreasing cost order.
    """
    best = _solve_assignment(cost)
    if best is None:
        return []
    out = []
    counter = itertools.count()
    heap = [(best[0], next(counter), cost, best[1])]
    while heap and len(out) < k:
        total, _, sub, assign = heapq.heappop(heap)
        out.append((total, assign))
        n = len(assign)
        for i in range(n):
            child = sub.copy()
            # forbid row i's current column, keep rows < i forced
            child[i, assign[i]] = np.inf
            for r in range(i):
                keep = assign[r]
                child[r, :] = np.inf
                child[r, keep] = sub[r, keep]
            sol = _solve_assignment(child)
            if sol is not None:
                heapq.heappush(heap, (sol[0], next(counter), child, sol[1]))
    return out


def _ranked_marginals(cluster_terms: list, k: int) -> list:
    """Approximate association marginals from the k best assignments."""
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
    if not solutions:
        return [{None: 1.0} for _ in range(n)]
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


def _bayes_update(
    predicted: LmbDensity,
    z: np.ndarray,
    sensor: SensorState,
    fov: FovModel,
    cfg: FilterConfig,
) -> tuple:
    """The rows' (existences, weights, passed_through) after the Bayes update
    against the (M, 2) measurements z, and the measurement of each gated pair."""
    if predicted.role != "predicted":
        raise ValueError(f"the update expects a predicted density, got role {predicted.role!r}")
    k, j = predicted.weights.shape
    pd = detection_probabilities(fov, sensor, predicted.states[:, :, :2]).reshape(k, j)
    passed = pd.max(axis=1, initial=0.0) <= 1e-12
    r = np.minimum(predicted.existences, EXISTENCE_CEIL)
    miss_p = 1.0 - pd
    miss_lik = row_means(predicted.weights, miss_p[:, :, None])[:, 0]
    no_det = (1.0 - r) + r * miss_lik

    # gated pairs: an updated row and a measurement within the gate of its
    # mean; a pair whose likelihood sum is 0 is dropped
    rows = meas = np.empty(0, dtype=np.intp)
    particle_w, det_w = np.empty((0, j)), np.empty(0)
    if len(z):
        means = predicted.mean_positions()
        dx = z[:, 0] - (means[:, 0] - sensor.x)[:, None]
        dy = z[:, 1] - (means[:, 1] - sensor.y)[:, None]
        gated = ~(np.hypot(dx, dy) > cfg.association_gate) & ~passed[:, None]
        rows, meas = np.nonzero(gated)
        # (G, J) likelihoods of each pair's particles, read from their states
        pair_states, pair_z = predicted.states.take(rows, axis=0), z.take(meas, axis=0)[:, None]
        logg = displacement_log_likelihoods(pair_states, sensor, pair_z, cfg.meas_noise_std)
        raw = predicted.weights.take(rows, axis=0) * pd.take(rows, axis=0)
        raw *= np.exp(logg)
        g_sum = raw.sum(axis=1)
        hit = g_sum > 0.0
        if not hit.all():
            rows, meas, raw, g_sum = rows[hit], meas[hit], raw[hit], g_sum[hit]
        particle_w = raw / g_sum[:, None]
        det_w = r.take(rows) * g_sum / max(cfg.clutter_intensity, _MIN_CLUTTER)

    # every updated row gets the miss-only update; rows with a gated pair
    # are then associated cluster by cluster and scaled by their miss marginal
    miss_r = np.zeros(k)  # per row: existence after a miss
    np.divide(r * miss_lik, no_det, out=miss_r, where=~passed & (no_det > 0))
    existences = np.where(passed, predicted.existences, np.minimum(miss_r, EXISTENCE_CEIL))
    events = [[] for _ in range(k)]  # per row: [(pair, p)]
    terms, no_det = {}, no_det.tolist()
    for g, (i, m, weight) in enumerate(zip(rows.tolist(), meas.tolist(), det_w.tolist())):
        if i not in terms:
            terms[i] = _RowTerms(i, no_det[i], {}, {})
        terms[i].det_weights[m], terms[i].pairs[m] = weight, g
    terms = list(terms.values())
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
            miss_r[i] *= marg.get(None, 0.0)
            new_r = miss_r[i] + sum(p for ev, p in marg.items() if ev is not None)
            existences[i] = min(new_r, EXISTENCE_CEIL)
            events[i] = [(t.pairs[e], p) for e, p in marg.items() if e is not None and p > 0.0]

    # posterior weights, summed term by term in each row's event order: the
    # miss term, then the detections in marginal order, one slot at a time.
    # The miss term is 0 where exist_miss is (so where miss_lik is, and on
    # the rows passed through); a row with no term to sum keeps its weights.
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

    return existences, weights, passed, meas


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
    existences, weights, passed, meas = _bayes_update(predicted, z, sensor, fov, cfg)
    labels, states = predicted.labels, predicted.states
    centers = sensor.position + np.delete(z, meas, axis=0)
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


def pseudo_update(
    predicted: LmbDensity,
    pims,
    sensor_after_action: SensorState,
    fov: FovModel,
    cfg: FilterConfig,
) -> LmbDensity:
    """Update against an ideal measurement set; no birth, fully deterministic.

    Mechanics are identical to update (same code path), so feeding the same
    measurements produces the same component updates.  pseudo_update never
    moves a particle: the result shares predicted.labels and predicted.states.
    """
    z = np.asarray(pims, dtype=float).reshape(-1, 2)
    existences, weights, passed, _meas = _bayes_update(predicted, z, sensor_after_action, fov, cfg)
    labels, states, timestamp = predicted.labels, predicted.states, predicted.timestamp
    return LmbDensity(labels, existences, states, weights, timestamp, "pseudo-posterior", passed)
