"""Value checks on an LmbDensity that its constructor does not make, the
densities of pseudo-posteriors with every row built, and hooks that check
every density stage of run_single."""

from collections import Counter

import numpy as np

from sentrack import harness
from sentrack.lmb import LmbDensity

# the harness's density stages, by the names check_density_stages wraps
DENSITY_STAGES = ("predict", "update", "resample_component", "prune", "associate_labels", "fuse_lmb")


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


def _equal_rows(a, rows_a, b, rows_b):
    if not a.existences[rows_a].size:  # an empty density has no particle count to compare
        return
    np.testing.assert_array_equal(a.existences[rows_a], b.existences[rows_b])
    np.testing.assert_array_equal(a.states[rows_a], b.states[rows_b])
    np.testing.assert_array_equal(a.weights[rows_a], b.weights[rows_b])


def check_density_stages(monkeypatch) -> Counter:
    """Wrap the density stages where the harness looks them up, as the
    benchmark tracer does, so that every density that goes in or comes out
    of one is checked: each is valid and lists its labels in ascending
    order, which association's single path relies on to keep row order.
    The update keeps the predicted rows first and passes through only
    those; resampling keeps the passed-through rows and draws one offset
    per resampled row.  Returns the counts of what was checked: calls by
    stage name, densities by "<name> in" and "<name> out", and the
    passed-through rows by "passed rows"."""
    seen = Counter()

    def in_label_order(values, where):
        """The densities among values and the values of dicts among them,
        each checked to list its labels in ascending order."""
        found = [d for v in values for d in (v.values() if isinstance(v, dict) else [v])
                 if isinstance(d, LmbDensity)]
        for density in found:
            assert list(density.labels) == sorted(density.labels), where
        seen[where] += len(found)
        return found

    def wrap(name, check):
        original = harness.__dict__[name]

        def checked(*args, **kwargs):
            in_label_order([*args, *kwargs.values()], f"{name} in")
            result = check(original, *args, **kwargs)
            for density in in_label_order([result], f"{name} out"):
                validate(density)
            seen[name] += 1
            return result

        monkeypatch.setattr(harness, name, checked)

    def plain(original, *args, **kwargs):
        return original(*args, **kwargs)

    def update(original, predicted, *args, **kwargs):
        post = original(predicted, *args, **kwargs)
        k = len(predicted.labels)
        passed = post.passed_through
        assert post.labels[:k] == predicted.labels and not passed[k:].any()
        _equal_rows(post, np.flatnonzero(passed), predicted, np.flatnonzero(passed[:k]))
        seen["passed rows"] += int(passed.sum())
        return post

    def resample(original, density, count, rng):
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        out = original(density, count, rng)
        passed = density.passed_through
        assert out.labels == density.labels and out.passed_through is None
        _equal_rows(out, passed, density, passed)
        assert np.all(out.weights[~passed] == 1.0 / count)
        # one offset per resampled row, none for a row passed through
        replay.random(int(np.count_nonzero(~passed)))
        assert replay.bit_generator.state == rng.bit_generator.state
        return out

    for name in ("predict", "prune", "associate_labels", "fuse_lmb"):
        wrap(name, plain)
    wrap("update", update)
    wrap("resample_component", resample)
    return seen
