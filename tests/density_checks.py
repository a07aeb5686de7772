"""Value checks on an LmbDensity that its constructor does not make, and
the densities of pseudo-posteriors with every row built."""

import numpy as np

from sentrack.lmb import LmbDensity


def validate(density, tol: float = 1e-9) -> None:
    """Raise ValueError unless existences lie in [0, 1] and every row's
    weights are nonnegative and sum to one.  Shapes, one particle count
    and unique labels already hold by construction."""
    if np.any((density.existences < 0.0) | (density.existences > 1.0)):
        raise ValueError(f"existences {density.existences} outside [0, 1]")
    if np.any(density.weights < 0.0):
        raise ValueError("negative particle weight")
    sums = density.weights.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > tol):
        raise ValueError(f"row weights sum to {sums}, not 1")


def every_row(pseudo) -> LmbDensity:
    """A pseudo-posterior as an LmbDensity of role "posterior", every row's
    weights built through its row_weights.  A pseudo-posterior holds no
    time step of its own, so the density's timestamp is 0."""
    k = len(pseudo.labels)
    weights = np.array(pseudo.row_weights(range(k))).reshape(k, pseudo.states.shape[1])
    existences, passed = pseudo.existences, pseudo.passed_through
    return LmbDensity(pseudo.labels, existences, pseudo.states, weights, 0, "posterior", passed)
