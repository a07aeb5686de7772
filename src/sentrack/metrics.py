"""OSPA and windowed track OSPA tracking-accuracy metrics.

The optimal assignments come from min_cost_assignment, the in-house port
of scipy's rectangular assignment solver.
"""

import numpy as np

from .assignment import min_cost_assignment


def _as_matrix(states) -> np.ndarray:
    rows = [np.asarray(s, dtype=float)[:2] for s in states]
    return np.array(rows) if rows else np.zeros((0, 2))


def _assignment_distance(base: np.ndarray, c: float, p: float) -> float:
    """OSPA from an n x m matrix of base distances between two sets.

    Localization error is the optimal assignment on base distances cut off
    at c, cardinality error costs c per unassigned element; both sets
    empty gives 0 by convention.  The matrix is transposed to at most as
    many rows as columns, as min_cost_assignment requires.
    """
    if base.shape[0] > base.shape[1]:
        base = base.T
    n, m = base.shape
    if m == 0:
        return 0.0
    if n == 0:
        return float(c)
    d = np.minimum(base, c) ** p
    cost = float(d[np.arange(n), min_cost_assignment(d)].sum())
    return float(((cost + c**p * (m - n)) / m) ** (1.0 / p))


def ospa(truth, estimate, c: float, p: float) -> float:
    """Optimal subpattern assignment distance between two point sets.

    Combines localization error (optimal assignment on distances cut off
    at c) and cardinality error; both sets empty gives 0 by convention.
    c > 0 and p >= 1, as MetricConfig checks.
    """
    x = _as_matrix(truth)
    y = _as_matrix(estimate)
    return _assignment_distance(np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2), c, p)


_ABSENT = (np.nan, np.nan)


def _window_tracks(tracks: dict, steps) -> np.ndarray:
    """Dense (len(steps), tracks, 2) positions of the tracks present in the window.

    A step where a track is absent holds NaN; tracks absent at every step
    are left out.
    """
    dense = [
        np.array([track.get(t, _ABSENT)[:2] for t in steps], dtype=float)
        for track in tracks.values()
        if any(t in track for t in steps)
    ]
    return np.stack(dense, axis=1) if dense else np.zeros((len(steps), 0, 2))


def ospa2(truth_tracks: dict, estimated_tracks: dict, c: float, p: float, window: int, step: int) -> float:
    """OSPA over track segments in the `window` steps trailing `step` (inclusive).

    Tracks map a track key to {step: state}; the first two entries of a
    state are its position.  Each track present at some step of the window
    becomes a (W, 2) array of its positions over the W window steps, NaN
    where it is absent; tracks absent from the whole window are excluded.
    The base distance between a truth track and an estimated track is the
    mean over the window of min(c, |x - y|) at steps where both exist, c
    where exactly one exists and 0 where neither does.  All n x m x W of
    these per-step terms are computed in one broadcast, and the base
    distances feed a standard OSPA assignment across tracks.  c > 0, p >= 1
    and window >= 1, as MetricConfig checks (the harness passes min(ospa2_window, step)).
    """
    steps = list(range(step - window + 1, step + 1))

    x = _window_tracks(truth_tracks, steps)[:, :, None, :]
    y = _window_tracks(estimated_tracks, steps)[:, None, :, :]
    x_present = ~np.isnan(x[..., 0])
    y_present = ~np.isnan(y[..., 0])
    per_step = np.where(
        x_present & y_present,
        np.minimum(c, np.hypot(x[..., 0] - y[..., 0], x[..., 1] - y[..., 1])),
        np.where(x_present | y_present, float(c), 0.0),
    )
    # the builtin sum adds the window steps one after another, in step
    # order, so the base distances equal a per-pair running sum bit for bit
    return _assignment_distance(sum(per_step) / len(steps), c, p)
