"""Per-layer tracing of sentrack from outside the package.

The program has no stage clock of its own, so the traced run wraps the
public functions of each layer (each module of ``src/sentrack``) where
their callers look them up: ``harness`` and ``control`` import by name, so
a patch on the defining module alone would miss their calls.  Methods are
wrapped on their class.  Every wrapped name is restored by ``restore``.

Spans (name, start, end, parent) are kept in memory in flat arrays and
turned into busy and self times once, in ``summary``.  Hot methods that
run millions of times per run only count calls, without a timer.
"""

import time
import weakref
from array import array
from collections import Counter
from functools import wraps

import numpy as np

# harness first: it owns no span, its self time is what the spans leave over
LAYERS = (
    "harness",
    "control",
    "filtering",
    "sensors",
    "lmb",
    "fusion",
    "metrics",
    "network",
    "scenarios",
)


# every counter, so a layer that never ran reports 0
COUNTERS = (
    "control.pseudo.calls",
    "control.indisk_weight.calls",
    "control.evaluate.calls",
    "control.fused.memo_hits",
    "control.descent.iterations",
    "filtering.update.components",
    "filtering.update.births",
    "lmb.prune.dropped",
    "fusion.associate_labels.merged",
    "network.flood_rounds",
)


def _update_counts(args, result):
    predicted = args[0]
    yield "filtering.update.components", len(predicted.components)
    yield "filtering.update.births", len(result.components) - len(predicted.components)


def _prune_counts(args, result):
    yield "lmb.prune.dropped", len(args[0].components) - len(result.components)


def _associate_counts(args, result):
    before = {c.label for d in args[0].values() for c in d.components}
    after = {c.label for d in result.values() for c in d.components}
    yield "fusion.associate_labels.merged", len(before) - len(after)


def _record_counts(args, result):
    yield "network.flood_rounds", result.rounds


def _descent_counts(args, result):
    yield "control.descent.iterations", result.iterations


def span_table():
    """(owner, attribute, span name, counter) for every timed boundary."""
    from sentrack import control, filtering, harness, network, scenarios

    return (
        (harness, "predict", "filtering.predict", None),
        (harness, "update", "filtering.update", _update_counts),
        (control, "pseudo_update", "control.pseudo_update", None),
        (filtering, "detection_probabilities", "sensors.detection_probabilities", None),
        (harness, "resample_component", "lmb.resample", None),
        (harness, "prune", "lmb.prune", _prune_counts),
        (harness, "associate_labels", "fusion.associate_labels", _associate_counts),
        (harness, "compute_active_set", "fusion.fuse", None),
        (harness, "fuse_lmb", "fusion.fuse", None),
        (harness, "eap_states", "fusion.fuse", None),
        (harness, "ospa", "metrics.ospa", None),
        (harness, "ospa2", "metrics.ospa2", None),
        (harness, "build_topology", "network.topology", None),
        (network.CommLog, "record", "network.comm", _record_counts),
        (harness.PseudoCache, "__init__", "control.cache", None),
        (harness, "isc_select", "control.select", None),
        (harness, "dcd_sc_select", "control.select", None),
        (harness, "run_flooded_descent", "control.select", _descent_counts),
        (control, "run_flooded_descent", "control.select", _descent_counts),
        (harness.ControlContext, "fused", "control.fused", None),
        (scenarios.ScenarioConfig, "truth_states", "scenarios.truth", None),
        (scenarios.ScenarioConfig, "truth_tracks", "scenarios.truth", None),
        (scenarios.ScenarioConfig, "filter_for", "scenarios.filter_for", None),
    )


def count_table():
    """(owner, attribute, counter name) for call-count-only boundaries."""
    from sentrack import control

    return (
        (control.PseudoCache, "pseudo", "control.pseudo.calls"),
        (control.PseudoCache, "indisk_weight", "control.indisk_weight.calls"),
        (control.ControlContext, "evaluate", "control.evaluate.calls"),
    )


def _layer_of(fn) -> str:
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    """Wraps sentrack's layer boundaries and records spans and counts."""

    def __init__(self):
        self.names = []  # span name per name id
        self.layers = []  # layer per name id
        self._ids = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter(dict.fromkeys(COUNTERS, 0))
        self._stack = []
        self._patches = []
        self._seen_commands = weakref.WeakKeyDictionary()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counter in span_table():
            original = owner.__dict__[attr]
            self._patch(owner, attr, self._timed(original, name, counter))
        for owner, attr, name in count_table():
            original = owner.__dict__[attr]
            self._patch(owner, attr, self._counted(original, name))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _name_id(self, name: str, layer: str) -> int:
        key = (name, layer)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[key]

    def _timed(self, fn, name, counter):
        name_id = self._name_id(name, _layer_of(fn))
        memo = name == "control.fused"
        perf_counter = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if memo:
                self._count_memo(args[0], args[1])
            index = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[index] = t0
                self.end[index] = t1
            if counter is not None:
                for key, n in counter(args, result):
                    self.counts[key] += n
            return result

        return wrapper

    def _counted(self, fn, name):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_memo(self, context, command) -> None:
        # A command already evaluated by this context is served from its memo.
        seen = self._seen_commands.setdefault(context, set())
        if command in seen:
            self.counts["control.fused.memo_hits"] += 1
        else:
            seen.add(command)

    # -- results -----------------------------------------------------------

    def summary(self, t0: float, wall: float) -> dict:
        """Per-layer metrics for a traced region that started at `t0` and took `wall` seconds."""
        return summarize_spans(
            self.names,
            self.layers,
            np.array(self.name_id, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.start, dtype=float),
            np.array(self.end, dtype=float),
            self.counts,
            t0,
            wall,
        )


def summarize_spans(names, layers, name_id, parent, start, end, counts, t0, wall) -> dict:
    """Busy time, self time and calls per span name, self time per layer.

    A span's self time is its duration minus the durations of its direct
    children.  Busy time sums only the outermost span of each name, so a
    name that nests inside itself is not counted twice.  ``harness.self_s``
    is the wall time not covered by any top-level span, so the layer self
    times and it add up to ``wall`` when every span lies inside the timed
    region and belongs to a layer; ``harness.spans_outside`` and
    ``harness.spans_unlayered`` count the spans that do not.
    """
    duration = end - start
    top = parent < 0
    child = ~top
    child_sum = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
    self_time = duration - child_sum
    outermost = top.copy()
    outermost[child] = name_id[parent[child]] != name_id[child]

    k = len(names)
    busy = np.bincount(name_id[outermost], weights=duration[outermost], minlength=k)
    self_by_name = np.bincount(name_id, weights=self_time, minlength=k)
    calls = np.bincount(name_id, minlength=k)

    out = {}
    for i, name in enumerate(names):
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + float(busy[i])
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + float(self_by_name[i])
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + int(calls[i])
    for layer in LAYERS[1:]:
        out[f"{layer}.self_s"] = float(
            sum(self_by_name[i] for i in range(k) if layers[i] == layer)
        )
    out.update(counts)

    fused = out.get("control.fused.calls", 0)
    out["control.fused.memo_hit_ratio"] = (
        counts.get("control.fused.memo_hits", 0) / fused if fused else 0.0
    )
    pseudo = counts.get("control.pseudo.calls", 0)
    out["control.pseudo.hit_ratio"] = (
        1.0 - out.get("control.pseudo_update.calls", 0) / pseudo if pseudo else 0.0
    )
    out["control.fused.share"] = out.get("control.fused.s", 0.0) / wall
    out["network.messages"] = out.get("network.comm.calls", 0)
    out["harness.wall_s"] = wall
    out["harness.self_s"] = wall - float(duration[top].sum())
    out["harness.spans_outside"] = int(np.count_nonzero((start < t0) | (end > t0 + wall)))
    unlayered = [i for i in range(k) if layers[i] not in LAYERS[1:]]
    out["harness.spans_unlayered"] = int(np.isin(name_id, unlayered).sum())
    return out
