"""Labeled multi-Bernoulli (LMB) densities in particle form.

An LMB density is a set of labeled Bernoulli components.  Each component
carries an existence probability and a weighted particle cloud over the
planar constant-velocity state [x, y, vx, vy].  Densities are treated as
immutable snapshots: every operation returns new values and never mutates
its inputs.
"""

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

STATE_DIM = 4

VALID_ROLES = ("prior", "predicted", "posterior", "pseudo-posterior", "fused")

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


@dataclass(frozen=True)
class BernoulliComponent:
    """One labeled Bernoulli component: existence plus a particle cloud.

    states has shape (J, 4) with rows [x, y, vx, vy]; weights has shape
    (J,) and sums to one whenever existence > 0.
    """

    label: Label
    existence: float
    states: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "states", np.asarray(self.states, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))

    @property
    def particle_count(self) -> int:
        return self.states.shape[0]

    def mean_state(self) -> np.ndarray:
        """Weight-averaged particle state (the per-component EAP state)."""
        return self.weights @ self.states

    def mean_position(self) -> np.ndarray:
        return self.weights @ self.states[:, :2]

    def validate(self, tol: float = 1e-9) -> None:
        if not 0.0 <= self.existence <= 1.0:
            raise ValueError(f"existence {self.existence} outside [0, 1]")
        if self.existence > 0 and self.particle_count == 0:
            raise ValueError("component with positive existence has no particles")
        if self.particle_count:
            if self.states.shape != (self.particle_count, STATE_DIM):
                raise ValueError(f"bad state shape {self.states.shape}")
            if np.any(self.weights < 0):
                raise ValueError("negative particle weight")
            if abs(float(self.weights.sum()) - 1.0) > tol:
                raise ValueError(f"weights sum to {self.weights.sum()}, not 1")


@dataclass(frozen=True)
class LmbDensity:
    """A labeled multi-Bernoulli density at one discrete time step."""

    components: tuple
    timestamp: int
    role: str

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        labels = [c.label for c in self.components]
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels in density")
        if self.role not in VALID_ROLES:
            raise ValueError(f"unknown role {self.role!r}")

    def labels(self) -> set:
        return {c.label for c in self.components}

    def by_label(self) -> dict:
        return {c.label: c for c in self.components}

    def existences(self) -> dict:
        return {c.label: c.existence for c in self.components}

    def validate(self) -> None:
        for c in self.components:
            c.validate()


def empty_density(timestamp: int, role: str = "prior") -> LmbDensity:
    return LmbDensity(components=(), timestamp=timestamp, role=role)


def round_half_up(x: float) -> int:
    """Round to nearest integer with halves going up (0.5 -> 1)."""
    return int(math.floor(x + 0.5))


def eap_cardinality(density: LmbDensity) -> float:
    """Expected a-posteriori cardinality: the sum of all existence probabilities."""
    return float(sum(c.existence for c in density.components))


def eap_states(density: LmbDensity) -> list:
    """EAP point estimates: (label, state) for the most-likely-existing components.

    Selects the round_half_up(eap_cardinality) components with highest
    existence (ties broken by smaller label) and returns each component's
    weight-averaged particle state.
    """
    n = min(round_half_up(eap_cardinality(density)), len(density.components))
    if n <= 0:
        return []
    ranked = sorted(density.components, key=lambda c: (-c.existence, c.label))
    return [(c.label, c.mean_state()) for c in ranked[:n]]


def systematic_resample_indices(weights: np.ndarray, count: int, offset: float) -> np.ndarray:
    """Systematic resampling: indices drawn at evenly spaced quantiles.

    offset is the single uniform draw in [0, 1); a weight w receives at
    least floor(count * w) copies.
    """
    weights = np.asarray(weights, dtype=float)
    total = float(weights.sum())
    if total <= 0.0:
        raise ValueError("cannot resample from all-zero weights")
    positions = (offset + np.arange(count)) / count
    cumulative = np.cumsum(weights / total)
    cumulative[-1] = 1.0
    return np.searchsorted(cumulative, positions, side="left")


def resample_component(
    component: BernoulliComponent,
    target_count: int,
    rng: np.random.Generator,
) -> BernoulliComponent:
    """Systematic resampling of one component to target_count equal weights.

    Deterministic given the rng state, which supplies the offset.
    """
    if target_count < 1:
        raise ValueError("target_count must be >= 1")
    idx = systematic_resample_indices(component.weights, target_count, float(rng.random()))
    states = component.states[idx].copy()
    weights = np.full(target_count, 1.0 / target_count)
    return replace(component, states=states, weights=weights)


def prune(density: LmbDensity, existence_floor: float, max_components: int) -> LmbDensity:
    """Drop components below existence_floor, then cap at max_components.

    The cap keeps the highest-existence components; surviving components
    keep their original relative order.
    """
    if not 0.0 <= existence_floor < 1.0:
        raise ValueError("existence_floor must be in [0, 1)")
    survivors = [c for c in density.components if c.existence >= existence_floor]
    if len(survivors) > max_components:
        ranked = sorted(survivors, key=lambda c: (-c.existence, c.label))
        keep = {c.label for c in ranked[:max_components]}
        survivors = [c for c in survivors if c.label in keep]
    return replace(density, components=tuple(survivors))
