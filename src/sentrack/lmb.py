"""Labeled multi-Bernoulli (LMB) densities in particle form.

An LMB density is a set of labeled Bernoulli components, each an existence
probability and a weighted particle cloud over the planar constant-velocity
state [x, y, vx, vy].  This module owns the layout: the K components are
rows of dense arrays, labels (K unique labels), existences (K,), states
(K, J, 4) and weights (K, J), so every component has the same particle
count J.  Every density the simulator builds lists its rows in label
order: prediction, update, resampling and prune keep row order; births
follow the predicted rows by ascending index and are labeled with the
current step, so they sort after every older label; and fusion and label
association emit rows in label order.  label_index is the one rule that
matches rows of several densities by label.  A sum over the contiguous last
axis, such as the row sums of a (K, J) array, gives the bits of the
per-row sums.  A reduction over the middle J axis of (K, J, D), by einsum
or (a * b).sum(axis=1), does not give the bits of each row's w @ values,
so row_means uses np.matmul.

Densities are immutable snapshots: operations return new values and never
mutate their inputs, though a result may share an input's arrays (a
posterior shares its predicted density's states when no birth is added).
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

STATE_DIM = 4

# The stage that made a density: predict, update (and the empty posterior
# every node starts from) and fuse_lmb.
VALID_ROLES = ("predicted", "posterior", "fused")

# Existence probabilities are clamped below 1 before any odds computation
# so that r / (1 - r) stays finite.
EXISTENCE_CEIL = 1.0 - 1e-9


class Label(NamedTuple):
    """Track label: unique (birth_time, index, origin_sensor) triple.

    Labels order lexicographically, which is the tie-break order used
    throughout estimation and fusion.
    """

    birth_time: int
    index: int
    origin_sensor: int


class Component(NamedTuple):
    """One row of a density: label, existence, (J, 4) states, (J,) weights."""

    label: Label
    existence: float
    states: np.ndarray
    weights: np.ndarray


def row_means(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Weight-average of each row: (K, J) weights over (..., K, J, D) values,
    giving (..., K, D); the weights broadcast over values' leading axes."""
    return np.matmul(weights[..., None, :], values)[..., 0, :]


@dataclass(frozen=True, eq=False)
class LmbDensity:
    """A labeled multi-Bernoulli density at one discrete time step.

    passed_through, set by the measurement update, marks the rows it left
    exactly as predicted; None elsewhere.
    """

    labels: tuple
    existences: np.ndarray
    states: np.ndarray
    weights: np.ndarray
    timestamp: int
    role: str
    passed_through: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        for name in ("existences", "states", "weights"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        k, j = len(self.labels), self.weights.shape[-1] if self.weights.ndim == 2 else -1
        shapes = (self.existences.shape, self.states.shape, self.weights.shape)
        if shapes != ((k,), (k, j, STATE_DIM), (k, j)) or (
            self.passed_through is not None and self.passed_through.shape != (k,)
        ):
            raise ValueError(f"inconsistent density arrays: {k} labels, shapes {shapes}")
        if len(set(self.labels)) != k:
            raise ValueError("duplicate labels in density")
        if self.role not in VALID_ROLES:
            raise ValueError(f"unknown role {self.role!r}")

    @classmethod
    def from_rows(cls, rows, timestamp: int, role: str) -> "LmbDensity":
        """Stack (label, existence, states, weights) rows into one density.

        Every row must hold the same number of particles.
        """
        rows = list(rows)
        labels, existences, states, weights = zip(*rows) if rows else ((),) * 4
        counts = sorted({len(w) for w in weights})
        if len(counts) > 1:
            raise ValueError(f"rows hold different particle counts {counts}")
        k, j = len(labels), counts[0] if counts else 0
        states = np.array(states, dtype=float).reshape(k, j, STATE_DIM)
        return cls(labels, existences, states, np.array(weights).reshape(k, j), timestamp, role)

    @property
    def components(self) -> tuple:
        """The rows as read-only Components, in row order."""
        existences = self.existences.tolist()
        return tuple(map(Component, self.labels, existences, self.states, self.weights))

    def take(self, rows) -> "LmbDensity":
        """The density of the given rows, in the given order; it shares this
        density's arrays when that is every row in row order."""
        rows = np.asarray(rows, dtype=np.intp)
        if np.array_equal(rows, np.arange(len(self.labels))):
            return replace(self, passed_through=None)
        labels = [self.labels[k] for k in rows.tolist()]
        existences, states, weights = self.existences[rows], self.states[rows], self.weights[rows]
        return LmbDensity(labels, existences, states, weights, self.timestamp, self.role)

    def mean_positions(self) -> np.ndarray:
        """(K, 2) weight-averaged particle position of each row."""
        return row_means(self.weights, self.states[:, :, :2])


def label_index(densities) -> tuple:
    """(labels, rows): the sorted union of the densities' labels and, per
    density in the given order, the (K,) index of each row's label in it."""
    densities = list(densities)
    labels = sorted({label for d in densities for label in d.labels})
    index = dict(zip(labels, range(len(labels))))
    return labels, [np.array([index[l] for l in d.labels], dtype=np.intp) for d in densities]


def empty_density(timestamp: int, role: str) -> LmbDensity:
    return LmbDensity.from_rows((), timestamp, role)


def round_half_up(x: float) -> int:
    """Round to nearest integer with halves going up (0.5 -> 1)."""
    return int(math.floor(x + 0.5))


def eap_cardinality(density: LmbDensity) -> float:
    """Expected a-posteriori cardinality: the sum of all existence probabilities."""
    return float(sum(density.existences.tolist()))


def ranked_rows(density: LmbDensity) -> list:
    """Rows by descending existence, ties broken by the smaller label."""
    existences = density.existences.tolist()
    return sorted(range(len(existences)), key=lambda k: (-existences[k], density.labels[k]))


def eap_states(density: LmbDensity) -> list:
    """EAP point estimates: (label, state) for the most-likely-existing components.

    Selects the round_half_up(eap_cardinality) components with highest
    existence (ties broken by smaller label) and returns each component's
    weight-averaged particle state.
    """
    n = min(round_half_up(eap_cardinality(density)), len(density.labels))
    if n <= 0:
        return []
    rows = ranked_rows(density)[:n]
    means = row_means(density.weights[rows], density.states[rows])
    return [(density.labels[k], mean) for k, mean in zip(rows, means)]


def systematic_resample_indices(weights: np.ndarray, count: int, offsets) -> np.ndarray:
    """Systematic resampling: indices drawn at evenly spaced quantiles.

    weights is one (J,) row or a (k, J) stack and offsets holds one uniform
    draw in [0, 1) per row; returns (k, count) indices.  A weight w receives
    at least floor(count * w) copies.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    total = weights.sum(axis=1, keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("cannot resample from all-zero weights")
    positions = (np.atleast_1d(offsets)[:, None] + np.arange(count)) / count
    cumulative = np.cumsum(weights / total, axis=1)
    cumulative[:, -1:] = 1.0
    return np.array(
        [np.searchsorted(c, p, side="left") for c, p in zip(cumulative, positions)],
        dtype=np.intp,
    ).reshape(len(weights), count)


def resample_component(
    density: LmbDensity,
    target_count: int,
    rng: np.random.Generator,
) -> LmbDensity:
    """Systematic resampling of every row not passed through by the update
    to target_count equal weights.

    One offset per resampled row, drawn in row order from rng; rows passed
    through keep their particles and draw nothing, so they must already
    hold target_count particles.  target_count >= 1, as FilterConfig checks
    of particle_count.
    """
    k, j = density.weights.shape
    passed = density.passed_through
    rows = np.arange(k) if passed is None else np.flatnonzero(~passed)
    if rows.size < k and j != target_count:
        raise ValueError("rows passed through hold a particle count other than target_count")
    idx = systematic_resample_indices(density.weights[rows], target_count, rng.random(rows.size))
    states = np.empty((k, target_count, STATE_DIM))
    weights = np.empty((k, target_count))
    if rows.size < k:  # some row passed through, so it holds target_count particles
        states[passed], weights[passed] = density.states[passed], density.weights[passed]
    flat = (rows[:, None] * j + idx).ravel()  # one gather over all rows' particles
    particles = np.take(density.states.reshape(-1, STATE_DIM), flat, axis=0)
    states[rows] = particles.reshape(rows.size, target_count, STATE_DIM)
    weights[rows] = 1.0 / target_count
    return replace(density, states=states, weights=weights, passed_through=None)


def prune(density: LmbDensity, existence_floor: float, max_components: int) -> LmbDensity:
    """Drop components below existence_floor, then cap at max_components.

    The cap keeps the highest-existence components; surviving components
    keep their original relative order.  existence_floor is in [0, 1), as
    FilterConfig and ObjectiveParams check.
    """
    keep = density.existences >= existence_floor
    if np.count_nonzero(keep) > max_components:
        ranked = [k for k in ranked_rows(density) if keep[k]]
        keep[:] = False
        keep[ranked[:max_components]] = True
    return density.take(np.flatnonzero(keep))


def connected_groups(n: int, edges) -> list:
    """Connected components of the graph on nodes 0..n-1 with the given
    (a, b) edges, by union-find: lists of ascending nodes, ordered by their
    smallest node.  Association clusters rows that share a measurement by
    it, and label association groups the labels it merges."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in edges:
        a, b = find(a), find(b)
        parent[max(a, b)] = min(a, b)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())
