"""Adaptive complementary fusion of LMB densities across sensors.

Fusion is complementary (union-style) per label, restricted to the active
sensors for that label.  compute_active_set states the rule once, per
sensor, as a row mask: a sensor is active for a row it holds when the
detection probability at its own updated or predicted estimate of the
row's label exceeds its FoV's p_d_threshold.  The harness applies it to
each member sensor's posterior, and control to each sensor's
pseudo-posterior under the sensor's own hypothesized action.  Existence
probabilities fuse by one odds rule, existence_odds: the odds of the
contributors add, in holder order, and the fused existence is
total / (1 + total); spatial clouds fuse as an odds-weighted mixture,
resampled to the common particle count.

fuse_lmb handles a label by its active set A, the holders whose row masks
are set:
  |A| > 1  fuse over A,
  |A| = 1  copy that sensor's component unchanged,
  A empty  every sensor holding the label contributes equally, so tracks
           are retained while unobserved.
A label whose fused existence is below the reporting floor (the harness
passes FusionConfig.estimate_floor) is left out, its clouds never fused.
Control fuses pseudo-posteriors by the same odds rule but omits a label
with an empty active set, since it carries no information for control;
that pseudo-mode fusion lives only in control.ControlContext.fused.
"""

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .lmb import EXISTENCE_CEIL, LmbDensity, connected_groups, systematic_resample_indices
from .sensors import FovModel, SensorState, detection_probabilities


@dataclass(frozen=True)
class FusionConfig:
    """Harness-level fusion settings."""

    merge_distance: float = 10.0
    estimate_floor: float = 0.4  # reporting floor: fuse_lmb returns no label below it

    def __post_init__(self):
        if self.merge_distance < 0:
            raise ValueError("merge_distance must be nonnegative")
        if not 0.0 <= self.estimate_floor < 1.0:
            raise ValueError("estimate_floor must be in [0, 1)")


def existence_odds(r):
    """Odds r / (1 - r) of existences clamped to [0, EXISTENCE_CEIL]."""
    r = np.minimum(np.maximum(r, 0.0), EXISTENCE_CEIL)
    return r / (1.0 - r)


def compute_active_set(
    state: SensorState, fov: FovModel, updated: np.ndarray, predicted: np.ndarray
) -> np.ndarray:
    """(K,) mask of the rows one sensor is active for: the active-set rule.

    A sensor is active for a row when the detection probability at the
    row's updated or predicted position estimate, as held by that sensor,
    exceeds fov.p_d_threshold.  updated and predicted are row-aligned
    (K, 2) arrays; a NaN row in predicted (no predicted estimate) has
    detection probability 0.
    """
    pd = detection_probabilities(fov, state, np.concatenate([updated, predicted]))
    return (pd > fov.p_d_threshold).reshape(2, -1).any(axis=0)


def fuse_spatial(components, particle_count: int):
    """Odds-weighted union of the particle clouds of same-label components,
    resampled to particle_count equally weighted particles.

    Each cloud's weights are scaled by its share of the total existence
    odds, or by an equal share when the total is 0 (every existence is).
    The union is resampled systematically with the deterministic mid-cell
    offset, so every node computes the identical fusion.  Returns (states,
    weights).
    """
    components = list(components)
    if not components:
        raise ValueError("fuse_spatial requires at least one component")
    odds = existence_odds(np.array([c.existence for c in components]))
    total = float(odds.sum())
    shares = odds / total if total > 0.0 else np.full(len(odds), 1.0 / len(odds))
    states = np.concatenate([c.states for c in components])
    weights = np.concatenate([c.weights * share for c, share in zip(components, shares)])
    [idx] = systematic_resample_indices(weights, particle_count, 0.5)
    return states[idx], np.full(particle_count, 1.0 / particle_count)


def fuse_lmb(locals_: Mapping[int, LmbDensity], active: Mapping, floor: float) -> LmbDensity:
    """Fuse per-sensor LMB densities into one density by the active sets.

    active[s] is the row mask of locals_[s] that compute_active_set gives;
    a label whose fused existence is below floor is dropped unfused.  The
    densities must share one particle count J; a fused label's union of
    clouds is resampled to J particles.  A label whose contributors all
    have existence 0 fuses to existence 0, their clouds sharing equally.
    """
    densities = dict(locals_)
    if not densities:
        raise ValueError("nothing to fuse")
    timestamps = {d.timestamp for d in densities.values()}
    if len(timestamps) != 1:
        raise ValueError(f"inconsistent timestamps: {sorted(timestamps)}")
    roles = {d.role for d in densities.values()}
    if len(roles) != 1:
        raise ValueError(f"inconsistent roles: {sorted(roles)}")

    rows = {s: d.components for s, d in densities.items()}
    odds = {s: existence_odds(d.existences).tolist() for s, d in densities.items()}
    holders_of = {}
    for s in sorted(densities):
        for k, label in enumerate(densities[s].labels):
            holders_of.setdefault(label, []).append((s, k))

    fused = []
    for label in sorted(holders_of):
        holders = holders_of[label]
        contributors = [(s, k) for s, k in holders if active[s][k]] or holders
        comps = [rows[s][k] for s, k in contributors]
        if len(comps) == 1:
            if comps[0].existence >= floor:
                fused.append(comps[0])
            continue
        total = sum(odds[s][k] for s, k in contributors)
        existence = total / (1.0 + total)
        if existence >= floor:
            fused.append((label, existence, *fuse_spatial(comps, len(comps[0].weights))))
    return LmbDensity.from_rows(fused, timestamps.pop(), "fused")


# ---------------------------------------------------------------------------
# Cross-sensor label association
#
# Local filters birth their own labels, so two sensors that observe the
# same physical target hold different labels for it.  Each step, freshly
# born labels are merged onto the closest label within the merge gate; the
# lexicographically smallest label is canonical.  Two fresh labels merge
# only when born at different sensors (one sensor's gating already keeps
# its own simultaneous births apart); a fresh label may merge onto an
# established track from any sensor, which both hands tracks over between
# fields of view and absorbs clutter births that would otherwise ride
# along next to a real track.  Established labels never merge with each
# other, so distinct targets that pass close by keep their identities.
# ---------------------------------------------------------------------------


def _label_positions(densities: Mapping[int, LmbDensity]) -> dict:
    """Representative EAP position per label, from its most confident holder."""
    best = {}
    for s in sorted(densities):
        d = densities[s]
        for label, r, pos in zip(d.labels, d.existences.tolist(), d.mean_positions()):
            cur = best.get(label)
            if cur is None or r > cur[0]:
                best[label] = (r, pos)
    return {label: pos for label, (_r, pos) in best.items()}


def associate_labels(
    locals_: Mapping[int, LmbDensity], merge_distance: float, current_step: int
) -> dict:
    """Assign one canonical label to same-target components across sensors.

    A label is "fresh" if born at current_step or the step before.  Every
    fresh label is merged onto the nearest label of a different origin
    sensor within merge_distance (lowest label wins); established labels
    are left alone.  Deterministic.
    """
    densities = dict(locals_)
    if not densities:
        return {}

    positions = _label_positions(densities)
    labels = sorted(positions)
    xy = np.array([positions[l] for l in labels]).reshape(-1, 2)
    fresh = np.array([l.birth_time >= current_step - 1 for l in labels], dtype=bool)
    origin = np.array([l.origin_sensor for l in labels])

    merges = []  # (fresh label, its nearest candidate), as indices into labels
    for i in np.flatnonzero(fresh).tolist():
        d = np.hypot(xy[:, 0] - xy[i, 0], xy[:, 1] - xy[i, 1])
        candidate = (d <= merge_distance) & ~(fresh & (origin == origin[i]))
        candidate[i] = False
        near = np.flatnonzero(candidate)
        if near.size:
            # first minimum in sorted label order: ties go to the lower label
            merges.append((i, int(near[np.argmin(d[near])])))
    if not merges:
        return densities

    # canonical is the smallest label of each merged group
    mapping = {labels[i]: labels[group[0]] for group in connected_groups(len(labels), merges)
               for i in group}

    out = {}
    for s, density in densities.items():
        existences = density.existences.tolist()
        merged = {}  # canonical label -> row
        for k, label in enumerate(density.labels):
            canon = mapping[label]
            prev = merged.get(canon)
            # on a within-density collision keep the higher existence,
            # breaking ties by the smaller original label
            if prev is None or (-existences[k], label) < (-existences[prev], density.labels[prev]):
                merged[canon] = k
        order = sorted(merged)
        out[s] = replace(density.take([merged[c] for c in order]), labels=tuple(order))
    return out
