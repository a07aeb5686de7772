"""Per-sensor sequential Monte Carlo LMB filter.

Prediction, measurement update with marginalized association, ideal
measurement set generation for hypothesized actions, and the pseudo-update
used for control scoring.

The update is the standard SMC-LMB component-wise Bayes update: particles
are reweighted by detection probability and measurement likelihood, and
association hypotheses are marginalized per cluster of components that
share gated measurements.  Small clusters are marginalized exactly by
enumerating all partial matchings; large clusters fall back to the best-k
ranked assignments.  The update itself never resamples: resampling and
pruning are separate steps so that a no-information update is exactly the
identity on the density.

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

from .lmb import EXISTENCE_CEIL, STATE_DIM, Label, LmbDensity, eap_states, row_means
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
    rng: np.random.Generator | None,
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
    predicted: LmbDensity, sensor_after_action: SensorState, fov: FovModel
) -> list:
    """Ideal measurement set for a hypothesized sensor state.

    For each EAP-estimated object, if the detection probability at the
    estimated position exceeds the model threshold, the exact noiseless
    relative displacement is emitted; otherwise the object is treated as
    missed and omitted.
    """
    positions = [state[:2] for _label, state in eap_states(predicted)]
    pd = detection_probabilities(fov, sensor_after_action, positions)
    return [
        pos - sensor_after_action.position
        for pos, p in zip(positions, pd)
        if p > fov.p_d_threshold
    ]


# ---------------------------------------------------------------------------
# Association marginalization
# ---------------------------------------------------------------------------


class _RowTerms(NamedTuple):
    """Association weights of one updated row for one measurement scan."""

    row: int
    no_det_weight: float
    det_weights: dict  # {meas_idx: r * G_z / clutter}
    det_particle_w: dict  # {meas_idx: normalized particle weights}


def _row_terms(k, predicted, pd, no_det, mean_disp, sensor, measurements, cfg) -> _RowTerms:
    terms = _RowTerms(k, no_det, {}, {})
    r = min(float(predicted.existences[k]), EXISTENCE_CEIL)
    kappa = max(cfg.clutter_intensity, _MIN_CLUTTER)
    for j, z in enumerate(measurements):
        if np.hypot(*(z - mean_disp)) > cfg.association_gate:
            continue
        positions = predicted.states[k, :, :2]
        logg = displacement_log_likelihoods(positions, sensor, z, cfg.meas_noise_std)
        raw = predicted.weights[k] * pd * np.exp(logg)
        g_sum = float(raw.sum())
        if g_sum > 0.0:
            terms.det_weights[j] = r * g_sum / kappa
            terms.det_particle_w[j] = raw / g_sum
    return terms


def _cluster_components(terms: list) -> list:
    """Group components that share gated measurements (union-find)."""
    parent = list(range(len(terms)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    meas_owner = {}
    for i, t in enumerate(terms):
        for j in t.det_weights:
            if j in meas_owner:
                a, b = find(meas_owner[j]), find(i)
                if a != b:
                    parent[b] = a
            else:
                meas_owner[j] = i
    clusters = {}
    for i in range(len(terms)):
        clusters.setdefault(find(i), []).append(i)
    return list(clusters.values())


def _exact_marginals(cluster_terms: list) -> list:
    """Exact association marginals by enumerating all partial matchings.

    Returns, per component, a dict {event: probability} where the event is
    None for no-detection or a measurement index.
    """
    n = len(cluster_terms)
    sums = [dict() for _ in range(n)]
    total = 0.0

    # Scale each component's events so products stay near unity.
    scales = []
    events = []
    for t in cluster_terms:
        ev = [(None, t.no_det_weight)] + sorted(t.det_weights.items())
        s = max(w for _, w in ev)
        scales.append(s if s > 0 else 1.0)
        events.append([(e, w / scales[-1]) for e, w in ev])

    used = set()

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

    chosen = []
    recurse(0, 1.0)
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
    infeasible cells are +inf.  Returns (total_cost, column_per_row) pairs
    in nondecreasing cost order.
    """
    best = _solve_assignment(cost)
    if best is None:
        return []
    out = []
    counter = itertools.count()
    heap = [(best[0], next(counter), cost, best[1], [])]
    seen = set()
    while heap and len(out) < k:
        total, _, sub, assign, forced = heapq.heappop(heap)
        if assign in seen:
            continue
        seen.add(assign)
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
                heapq.heappush(heap, (sol[0], next(counter), child, sol[1], None))
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


def _posterior_row(existence, weights, pd, miss_lik, t: _RowTerms, marginals: dict):
    """Posterior existence and particle weights of one updated row."""
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


def _bayes_update(
    predicted: LmbDensity,
    measurements,
    sensor: SensorState,
    fov: FovModel,
    cfg: FilterConfig,
    role: str,
    rng: np.random.Generator | None = None,
    origin: int | None = None,
) -> LmbDensity:
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
        _row_terms(i, predicted, pd[i], no_det[i], mean_disp[i], sensor, measurements, cfg)
        for i in np.flatnonzero(~passed).tolist()
    ]

    existences = predicted.existences.copy()
    weights = predicted.weights.copy()
    for cluster in _cluster_components(terms):
        cluster_terms = [terms[i] for i in cluster]
        bound = 1
        for t in cluster_terms:
            bound *= 1 + len(t.det_weights)
            if bound > cfg.exact_enum_limit:
                break
        if bound <= cfg.exact_enum_limit:
            marginals = _exact_marginals(cluster_terms)
        else:
            marginals = _ranked_marginals(cluster_terms, cfg.assoc_max_hypotheses)
        for t, marg in zip(cluster_terms, marginals):
            i = t.row
            existences[i], weights[i] = _posterior_row(
                existences[i], weights[i], pd[i], miss_lik[i], t, marg
            )

    labels, states = predicted.labels, predicted.states
    if rng is not None and origin is not None:
        gated = {j for t in terms for j in t.det_weights}
        centers = [sensor.position + z for i, z in enumerate(measurements) if i not in gated]
        if centers:
            n = cfg.particle_count
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
    return LmbDensity(labels, existences, states, weights, predicted.timestamp, role, passed)


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
    if predicted.role != "predicted":
        raise ValueError(f"update expects a predicted density, got role {predicted.role!r}")
    return _bayes_update(
        predicted, measurements, sensor, fov, cfg, "posterior", rng=rng, origin=origin
    )


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
    moves a particle: the result shares predicted.states.
    """
    if predicted.role != "predicted":
        raise ValueError(f"pseudo_update expects a predicted density, got {predicted.role!r}")
    return _bayes_update(predicted, pims, sensor_after_action, fov, cfg, "pseudo-posterior")
