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
"""

import heapq
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .lmb import (
    EXISTENCE_CEIL,
    STATE_DIM,
    BernoulliComponent,
    Label,
    LmbDensity,
    eap_states,
)
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
    predicted = []
    for c in prior.components:
        predicted.append(
            replace(
                c,
                existence=c.existence * motion.survival_probability,
                states=propagate_states(motion, c.states, rng),
            )
        )
    return LmbDensity(tuple(predicted), prior.timestamp + 1, "predicted")


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


class _CompTerms:
    """Per-component update quantities for one measurement scan."""

    __slots__ = ("comp", "pd", "miss_lik", "no_det_weight", "det_weights", "det_particle_w")

    def __init__(self, comp, pd, miss_lik, no_det_weight, det_weights, det_particle_w):
        self.comp = comp
        self.pd = pd
        self.miss_lik = miss_lik
        self.no_det_weight = no_det_weight
        self.det_weights = det_weights  # {meas_idx: r * G_z / clutter}
        self.det_particle_w = det_particle_w  # {meas_idx: normalized particle weights}


def _component_terms(comp, sensor, fov, measurements, cfg) -> _CompTerms:
    positions = comp.states[:, :2]
    pd = detection_probabilities(fov, sensor, positions)
    miss_lik = float(comp.weights @ (1.0 - pd))
    r = min(comp.existence, EXISTENCE_CEIL)
    no_det = (1.0 - r) + r * miss_lik
    det_weights = {}
    det_particle_w = {}
    if len(measurements) and pd.max() > 1e-12:
        mean_disp = comp.mean_position() - sensor.position
        kappa = max(cfg.clutter_intensity, _MIN_CLUTTER)
        for j, z in enumerate(measurements):
            if np.hypot(*(np.asarray(z) - mean_disp)) > cfg.association_gate:
                continue
            logg = displacement_log_likelihoods(positions, sensor, z, cfg.meas_noise_std)
            raw = comp.weights * pd * np.exp(logg)
            g_sum = float(raw.sum())
            if g_sum <= 0.0:
                continue
            det_weights[j] = r * g_sum / kappa
            det_particle_w[j] = raw / g_sum
    return _CompTerms(comp, pd, miss_lik, no_det, det_weights, det_particle_w)


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


def _posterior_component(t: _CompTerms, marginals: dict) -> BernoulliComponent:
    comp = t.comp
    r = min(comp.existence, EXISTENCE_CEIL)
    beta_miss = marginals.get(None, 0.0)
    exist_miss = beta_miss * (r * t.miss_lik / t.no_det_weight) if t.no_det_weight > 0 else 0.0
    new_r = exist_miss + sum(p for ev, p in marginals.items() if ev is not None)
    new_r = min(new_r, EXISTENCE_CEIL)
    if new_r <= 0.0:
        return replace(comp, existence=0.0)
    w = np.zeros(comp.particle_count)
    if exist_miss > 0.0 and t.miss_lik > 0.0:
        w += exist_miss * comp.weights * (1.0 - t.pd) / t.miss_lik
    for ev, p in marginals.items():
        if ev is not None and p > 0.0:
            w += p * t.det_particle_w[ev]
    total = float(w.sum())
    if total <= 0.0:
        return replace(comp, existence=new_r)
    return replace(comp, existence=new_r, weights=w / total)


def _birth_components(
    measurements, gated, sensor, timestep, origin, cfg, rng
) -> list:
    births = []
    index = 0
    for j, z in enumerate(measurements):
        if j in gated:
            continue
        center = sensor.position + np.asarray(z, dtype=float)
        states = np.empty((cfg.particle_count, STATE_DIM))
        states[:, :2] = center + rng.normal(0.0, cfg.birth_particle_std, (cfg.particle_count, 2))
        states[:, 2:] = rng.normal(0.0, cfg.birth_velocity_std, (cfg.particle_count, 2))
        births.append(
            BernoulliComponent(
                label=Label(timestep, index, origin),
                existence=cfg.birth_existence,
                states=states,
                weights=np.full(cfg.particle_count, 1.0 / cfg.particle_count),
            )
        )
        index += 1
    return births


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
    terms = [_component_terms(c, sensor, fov, measurements, cfg) for c in predicted.components]

    updated = {}
    for cluster in _cluster_components(terms):
        cluster_terms = [terms[i] for i in cluster]
        untouched = all(
            not t.det_weights and t.pd.max(initial=0.0) <= 1e-12 for t in cluster_terms
        )
        if untouched:
            for i in cluster:
                updated[i] = terms[i].comp  # identity: same object, no resample needed
            continue
        bound = 1
        for t in cluster_terms:
            bound *= 1 + len(t.det_weights)
            if bound > cfg.exact_enum_limit:
                break
        if bound <= cfg.exact_enum_limit:
            marginals = _exact_marginals(cluster_terms)
        else:
            marginals = _ranked_marginals(cluster_terms, cfg.assoc_max_hypotheses)
        for i, marg in zip(cluster, marginals):
            updated[i] = _posterior_component(terms[i], marg)

    components = [updated[i] for i in range(len(terms))]
    if rng is not None and origin is not None:
        gated = {j for t in terms for j in t.det_weights}
        components.extend(
            _birth_components(measurements, gated, sensor, predicted.timestamp, origin, cfg, rng)
        )
    return LmbDensity(tuple(components), predicted.timestamp, role)


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

    Components with no detection probability mass and no gated measurement
    pass through unchanged (same object).  Measurements not gated to any
    component spawn birth components labeled (timestep, i, origin).
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
    measurements produces the same component updates.
    """
    if predicted.role != "predicted":
        raise ValueError(f"pseudo_update expects a predicted density, got {predicted.role!r}")
    return _bayes_update(predicted, pims, sensor_after_action, fov, cfg, "pseudo-posterior")
