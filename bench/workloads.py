"""Workloads, metric names and the output check of the sentrack benchmark.

The names here are the benchmark's contract: later changes name their
claims by these workload and metric names, and ``BENCHMARK.json`` lists
the same names (a self-test keeps the two equal).
"""

import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20260810  # the scenarios' Monte Carlo base_seed
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
OSPA_TOLERANCE = 1e-9
# At other seeds, a run also checks this many steps at the default seed: a
# shorter run draws the same numbers, so its steps are a prefix of the reference.
CHECK_STEPS = 3


@dataclass(frozen=True)
class Workload:
    """One workload call: `runs` consecutive seeds starting at the run seed.

    ``call`` is the public harness entry point it drives: ``run_single``
    once per seed, or one ``monte_carlo`` over all the seeds.
    """

    name: str
    scenario: int
    method: str
    steps: int
    runs: int
    call: str


# Control cost and accuracy depend on the seed (track counts, clutter
# births, descent length): single 25-step s2-fdcd seeds spanned 15-42 ms of
# control per sensor per step, while one seed run again varied by 6% once
# scaled to the reference host speed.  So a call covers several seeds, as
# many as fit in the time budget: each s2-fdcd seed takes 8-10 s.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("s2-fdcd", scenario=2, method="fdcd", steps=25, runs=5, call="run_single"),
        Workload("s2-isc", scenario=2, method="isc", steps=25, runs=4, call="run_single"),
        Workload("s1-dcd", scenario=1, method="dcd", steps=50, runs=3, call="monte_carlo"),
    )
}

# name -> (unit, better)
END_TO_END = {
    "steps_per_s": ("steps/s", "higher"),
    "control_ms": ("ms", "lower"),
    "ospa2_m": ("m", "lower"),
    "comm_bytes_per_step": ("bytes", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "setup_s": ("s", "lower"),
}

# name -> unit; busy seconds (.s) include child spans, self_s exclude them.
# ControlContext.fused never runs on s2-isc, so its busy time is given as a
# share of the traced wall: a time that is 0.0 on every run reads as fixed.
PER_LAYER = {
    "control.fused.share": "ratio",
    "control.fused.calls": "count",
    "control.fused.memo_hit_ratio": "ratio",
    "control.evaluate.calls": "count",
    "control.indisk_weight.calls": "count",
    "control.select.self_s": "s",
    "control.descent.iterations": "count",
    "control.pseudo_update.s": "s",
    "control.pseudo_update.calls": "count",
    "control.pseudo.hit_ratio": "ratio",
    "control.self_s": "s",
    "metrics.ospa2.s": "s",
    "metrics.ospa2.calls": "count",
    "metrics.ospa.s": "s",
    # Mean OSPA varies between seeds by more than any allowed end-to-end
    # bound (interquartile range 15-26% of the median over ten runs), so it
    # is reported with the traced repeat; the output check still holds it.
    "metrics.ospa_m": "m",
    "metrics.self_s": "s",
    "filtering.predict.s": "s",
    "filtering.update.s": "s",
    "filtering.update.components": "count",
    "filtering.update.births": "count",
    "filtering.self_s": "s",
    "sensors.detection_probabilities.s": "s",
    "sensors.detection_probabilities.calls": "count",
    "sensors.self_s": "s",
    "lmb.resample.s": "s",
    "lmb.resample.calls": "count",
    "lmb.prune.s": "s",
    "lmb.prune.dropped": "count",
    "lmb.self_s": "s",
    "fusion.associate_labels.s": "s",
    "fusion.associate_labels.merged": "count",
    "fusion.fuse.s": "s",
    "fusion.self_s": "s",
    "network.comm.s": "s",
    "network.topology.s": "s",
    "network.messages": "count",
    "network.flood_rounds": "count",
    "network.self_s": "s",
    "scenarios.self_s": "s",
    "harness.self_s": "s",
    "harness.wall_s": "s",
    "harness.trace_overhead_s": "s",
}


def seeds(workload: Workload, seed: int) -> list:
    return [seed + i for i in range(workload.runs)]


def digest(results) -> list:
    """The checked outputs of one workload call, one entry per run."""
    return [
        {
            "seed": r.seed,
            "commands": [list(s.commands) for s in r.steps],
            "card_truth": [s.card_truth for s in r.steps],
            "card_est": [s.card_est for s in r.steps],
            "per_sensor_card": [list(s.per_sensor_card) for s in r.steps],
            "bytes": [s.bytes for s in r.steps],
            "control_iterations": [s.control_iterations for s in r.steps],
            "ospa": [s.ospa for s in r.steps],
            "ospa2": [s.ospa2 for s in r.steps],
        }
        for r in results
    ]


_EXACT = ("seed", "commands", "card_truth", "card_est", "per_sensor_card", "bytes", "control_iterations")
_CLOSE = ("ospa", "ospa2")


def compare(actual: list, expected: list) -> list:
    """Differences from a reference digest: exact fields, OSPA within 1e-9."""
    if len(actual) != len(expected):
        return [f"{len(actual)} runs, reference has {len(expected)}"]
    problems = []
    for a, e in zip(actual, expected):
        for key in _EXACT:
            if a[key] != e[key]:
                problems.append(f"seed {e['seed']}: {key} differs from the reference")
        for key in _CLOSE:
            if len(a[key]) != len(e[key]) or any(
                abs(x - y) > OSPA_TOLERANCE for x, y in zip(a[key], e[key])
            ):
                problems.append(f"seed {e['seed']}: {key} off the reference by more than 1e-9")
    return problems


def prefix(entries: list, steps: int) -> list:
    """The first `steps` steps of each run of a digest."""
    return [{k: v if k == "seed" else v[:steps] for k, v in e.items()} for e in entries]


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def load_reference(workload: Workload) -> list:
    with open(reference_path(workload)) as fh:
        return json.load(fh)


def write_reference(workload: Workload, entries: list) -> None:
    REFERENCE_DIR.mkdir(parents=True, exist_ok=True)
    with open(reference_path(workload), "w") as fh:
        json.dump(entries, fh)
        fh.write("\n")
