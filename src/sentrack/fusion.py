"""Adaptive complementary fusion of LMB densities across sensors.

Fusion is complementary (union-style) per label, restricted to the active
sensors for that label.  compute_active_set states the rule once, per
sensor, as a row mask: a sensor is active for a row it holds when the
detection probability at its own updated or predicted estimate of the
row's label exceeds its FoV's p_d_threshold.  The harness applies it to
each member sensor's posterior, and control to each sensor's
pseudo-posterior under the sensor's own hypothesized action.  Existence
probabilities fuse by one odds rule, existence_odds: the odds of the
contributors add, one sensor at a time in ascending id, and the fused
existence is total / (1 + total); spatial clouds fuse as an odds-weighted
mixture, resampled to the common particle count.

fuse_lmb handles a label by its active set A, the holders whose row masks
are set:
  |A| > 1  fuse over A,
  |A| = 1  copy that sensor's component unchanged, existence included
           (total / (1 + total) would differ in the last bits),
  A empty  every sensor holding the label contributes equally, so tracks
           are retained while unobserved.
A label whose fused existence is below the reporting floor (the harness
passes FusionConfig.estimate_floor) is left out, its clouds never fused.
Control fuses pseudo-posteriors by the same odds rule but omits a label
with an empty active set, since it carries no information for control;
that pseudo-mode fusion lives only in control.ControlContext.fused.
"""

from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .lmb import (
    EXISTENCE_CEIL,
    Component,
    LmbDensity,
    connected_groups,
    label_index,
    ranked_rows,
    systematic_resample_indices,
)
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
    state: SensorState,
    fov: FovModel,
    predicted: np.ndarray,
    updated: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """(K,) mask of the rows one sensor is active for: the active-set rule.

    A sensor is active for a row when the detection probability at the
    row's predicted or updated position estimate, as held by that sensor,
    exceeds fov.p_d_threshold.  The rule is evaluated in that order:
    predicted is the (K, 2) array of predicted estimates, a NaN row (no
    predicted estimate) having detection probability 0, and updated(rows)
    gives the (len(rows), 2) updated estimates of the given row indices.
    It is asked once, and only for the rows the predicted estimates leave
    inactive, so a caller that builds updated estimates on demand builds
    no others.
    """
    active = detection_probabilities(fov, state, predicted) > fov.p_d_threshold
    rest = np.flatnonzero(~active)
    if len(rest):
        active[rest] = detection_probabilities(fov, state, updated(rest)) > fov.p_d_threshold
    return active


def fuse_spatial(components, particle_count: int):
    """Odds-weighted union of the particle clouds of same-label components,
    resampled to particle_count equally weighted particles.

    Each cloud's weights are scaled by its share of the total existence
    odds, or by an equal share when the total is 0 (every existence is).
    The union is resampled systematically with the deterministic mid-cell
    offset, so every node computes the identical fusion.  Takes at least
    one component (fuse_lmb passes two or more).  Returns (states, weights).
    """
    components = list(components)
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
    contributors' odds add as arrays, one sensor at a time in ascending id;
    a lone contributor's row is copied, its own existence included.  The
    densities must share one particle count J; a fused label's union of
    clouds is resampled to J particles.  A label whose contributors all
    have existence 0 fuses to existence 0, their clouds sharing equally.
    locals_ holds at least one density: a topology component has a member.
    """
    densities = [locals_[s] for s in sorted(locals_)]
    for name in ("timestamp", "role"):
        values = {getattr(d, name) for d in densities}
        if len(values) != 1:
            raise ValueError(f"inconsistent {name}s: {sorted(values)}")

    labels, rows = label_index(densities)
    # (sensor, label) tables: the sensor's row of the label (-1 where it holds
    # none), that row's existence (0.0 where none) and its active flag
    row = np.full((len(densities), len(labels)), -1)
    r, act = np.zeros(row.shape), np.zeros(row.shape, dtype=bool)
    for m, (s, idx) in enumerate(zip(sorted(locals_), rows)):
        row[m, idx], r[m, idx] = np.arange(len(idx)), densities[m].existences
        act[m, idx] = active[s]
    contrib = np.where(act.any(axis=0), act, row >= 0)  # the active holders, else all
    # a sequential sum over sensors: adding 0.0 for a non-contributor keeps its bits
    total = np.cumsum(np.where(contrib, existence_odds(r), 0.0), axis=0)[-1]
    own = np.where(contrib, r, 0.0).sum(axis=0)  # a lone contributor's existence
    existence = np.where(contrib.sum(axis=0) == 1, own, total / (1.0 + total))

    fused = []
    for i in np.flatnonzero(existence >= floor).tolist():
        comps = [
            Component(labels[i], r[m, i], d.states[row[m, i]], d.weights[row[m, i]])
            for m, d in enumerate(densities) if contrib[m, i]
        ]
        spatial = fuse_spatial(comps, len(comps[0].weights)) if len(comps) > 1 else comps[0][2:]
        fused.append((labels[i], existence[i], *spatial))
    return LmbDensity.from_rows(fused, densities[0].timestamp, "fused")


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


def associate_labels(
    locals_: Mapping[int, LmbDensity], merge_distance: float, current_step: int
) -> dict:
    """Assign one canonical label to same-target components across sensors.

    A label is "fresh" if born at current_step or the step before.  Every
    fresh label is merged onto the nearest label of a different origin
    sensor within merge_distance (lowest label wins); established labels
    are left alone.  Where rows of one density map onto one canonical
    label, the first in ranked_rows order is kept.  Returns every density
    with its rows in label order.  Deterministic.
    """
    densities = [locals_[s] for s in sorted(locals_)]
    labels, rows = label_index(densities)
    # each label's EAP position, from its most confident holder; ties go to the lowest sensor id
    confidence, xy = np.full(len(labels), -np.inf), np.zeros((len(labels), 2))
    for d, idx in zip(densities, rows):
        better = d.existences > confidence[idx]
        confidence[idx[better]] = d.existences[better]
        xy[idx[better]] = d.mean_positions()[better]
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

    # canonical is the smallest label of each merged group
    mapping = {labels[i]: labels[group[0]] for group in connected_groups(len(labels), merges)
               for i in group}

    out = {}
    for s, density in locals_.items():
        merged = {}  # canonical label -> row
        for k in ranked_rows(density):
            merged.setdefault(mapping[density.labels[k]], k)
        order = sorted(merged)
        out[s] = replace(density.take([merged[c] for c in order]), labels=tuple(order))
    return out
