"""Adaptive complementary fusion of LMB densities across sensors.

Fusion is complementary (union-style) per label, restricted to the active
sensors for that label.  compute_active_set states the rule once, per
sensor: a sensor is active for a label it holds when the detection
probability at its own updated or predicted estimate of the label exceeds
its FoV's p_d_threshold.  The harness applies it to each member sensor's
posterior, and control to each sensor's pseudo-posterior under the
sensor's own hypothesized action.  Existence probabilities fuse in odds
space; spatial clouds fuse as an odds-weighted mixture.

A label's handling depends on its active set A:
  |A| > 1  fuse over A,
  |A| = 1  copy that sensor's component unchanged,
  A empty  mode "pseudo": the label is omitted (it carries no information
           for control); mode "update": every sensor holding the label
           contributes equally, so tracks are retained while unobserved.
"""

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .lmb import (
    EXISTENCE_CEIL,
    BernoulliComponent,
    Label,
    LmbDensity,
    systematic_resample_indices,
)
from .sensors import FovModel, SensorState, detection_probabilities

FUSION_MODES = ("pseudo", "update")


@dataclass(frozen=True)
class FusionConfig:
    """Harness-level fusion settings."""

    merge_distance: float = 10.0
    estimate_floor: float = 0.4  # reporting floor applied before estimate extraction

    def __post_init__(self):
        if self.merge_distance < 0:
            raise ValueError("merge_distance must be nonnegative")


def _odds(r: float) -> float:
    r = min(max(r, 0.0), EXISTENCE_CEIL)
    return r / (1.0 - r)


def compute_active_set(
    state: SensorState,
    fov: FovModel,
    updated: Mapping[Label, np.ndarray],
    predicted: Mapping[Label, np.ndarray],
) -> set:
    """Labels one sensor is active for: the active-set rule.

    A sensor is active for a label when the detection probability at the
    label's updated or predicted position estimate, as held by that sensor,
    exceeds fov.p_d_threshold.  updated and predicted map label -> (x, y).
    """
    labels = [*updated, *predicted]
    pd = detection_probabilities(fov, state, [*updated.values(), *predicted.values()])
    return {label for label, p in zip(labels, pd) if p > fov.p_d_threshold}


def fuse_existence(existences) -> float:
    """Complementary fusion of existence probabilities: odds add.

    Returns S / (1 + S) with S the sum of odds r / (1 - r).  An input of
    exactly 1 has infinite odds, so the result saturates to 1.
    """
    existences = list(existences)
    if not existences:
        raise ValueError("fuse_existence requires at least one input")
    if any(r >= 1.0 for r in existences):
        return 1.0
    s = sum(r / (1.0 - r) for r in existences)
    return s / (1.0 + s)


def fuse_spatial(components, particle_count: int | None = None):
    """Odds-weighted union of the particle clouds of same-label components.

    Each cloud's weights are scaled by its share of the total existence
    odds.  If particle_count is given the union is resampled to that many
    equally weighted particles with the deterministic mid-cell offset (so
    every node computes the identical fusion).  Returns (states, weights).
    """
    components = list(components)
    if not components:
        raise ValueError("fuse_spatial requires at least one component")
    odds = np.array([_odds(c.existence) for c in components])
    total = float(odds.sum())
    if total <= 0.0:
        raise ValueError("total existence odds is zero; nothing to fuse")
    states = np.concatenate([c.states for c in components])
    weights = np.concatenate(
        [c.weights * (o / total) for c, o in zip(components, odds)]
    )
    if particle_count is not None:
        idx = systematic_resample_indices(weights, particle_count, 0.5)
        states = states[idx].copy()
        weights = np.full(particle_count, 1.0 / particle_count)
    return states, weights


def fuse_lmb(
    locals_: Mapping[int, LmbDensity],
    active: Mapping[Label, set],
    mode: str,
    particle_count: int | None = None,
) -> LmbDensity:
    """Fuse per-sensor LMB densities into one density under the given mode."""
    if mode not in FUSION_MODES:
        raise ValueError(f"unknown fusion mode {mode!r}")
    densities = dict(locals_)
    if not densities:
        raise ValueError("nothing to fuse")
    timestamps = {d.timestamp for d in densities.values()}
    if len(timestamps) != 1:
        raise ValueError(f"inconsistent timestamps: {sorted(timestamps)}")
    roles = {d.role for d in densities.values()}
    if len(roles) != 1:
        raise ValueError(f"inconsistent roles: {sorted(roles)}")

    holders_of = {}
    for s in sorted(densities):
        for c in densities[s].components:
            holders_of.setdefault(c.label, []).append(s)

    fused = []
    for label in sorted(holders_of):
        holders = holders_of[label]
        contributors = sorted(set(active.get(label, set())) & set(holders))
        if not contributors:
            if mode == "pseudo":
                continue
            contributors = holders
        comps = [densities[s].by_label()[label] for s in contributors]
        if len(comps) == 1:
            fused.append(comps[0])
            continue
        r = fuse_existence([c.existence for c in comps])
        states, weights = fuse_spatial(comps, particle_count)
        fused.append(BernoulliComponent(label, r, states, weights))
    return LmbDensity(tuple(fused), timestamps.pop(), "fused")


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
        for c in densities[s].components:
            cur = best.get(c.label)
            if cur is None or c.existence > cur[0]:
                best[c.label] = (c.existence, c.mean_position())
    return {label: pos for label, (_r, pos) in best.items()}


def associate_labels(
    locals_: Mapping[int, LmbDensity],
    merge_distance: float,
    current_step: int | None = None,
    fresh_window: int = 1,
) -> dict:
    """Assign one canonical label to same-target components across sensors.

    A label is "fresh" if born within fresh_window steps of current_step
    (default: the densities' timestamp).  Every fresh label is merged onto
    the nearest label of a different origin sensor within merge_distance
    (lowest label wins); established labels are left alone.  Deterministic.
    """
    densities = dict(locals_)
    if not densities:
        return {}
    if current_step is None:
        current_step = max(d.timestamp for d in densities.values())

    positions = _label_positions(densities)
    labels = sorted(positions)

    def is_fresh(label):
        return label.birth_time >= current_step - fresh_window

    parent = {l: l for l in labels}

    def find(l):
        while parent[l] != l:
            parent[l] = parent[parent[l]]
            l = parent[l]
        return l

    for lf in filter(is_fresh, labels):
        best = None
        pf = positions[lf]
        for other in labels:
            if other is lf:
                continue
            if is_fresh(other) and other.origin_sensor == lf.origin_sensor:
                continue
            d = float(np.hypot(*(positions[other] - pf)))
            if d <= merge_distance and (best is None or (d, other) < best):
                best = (d, other)
        if best is not None:
            a, b = find(lf), find(best[1])
            if a != b:
                # canonical is the smaller label
                root, child = (a, b) if a < b else (b, a)
                parent[child] = root

    mapping = {l: find(l) for l in labels}
    if all(k == v for k, v in mapping.items()):
        return densities

    out = {}
    for s, density in densities.items():
        merged = {}  # canonical label -> (original label, component)
        for c in density.components:
            canon = mapping[c.label]
            prev = merged.get(canon)
            # on a within-density collision keep the higher existence,
            # breaking ties by the smaller original label
            if prev is None or (-c.existence, c.label) < (-prev[1].existence, prev[0]):
                merged[canon] = (c.label, replace(c, label=canon) if c.label != canon else c)
        out[s] = LmbDensity(
            tuple(merged[k][1] for k in sorted(merged)), density.timestamp, density.role
        )
    return out
