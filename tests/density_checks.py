"""Value checks on an LmbDensity that its constructor does not make."""

import numpy as np


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
