"""One workload call in a fresh process.

    python3 bench/worker.py --workload s2-fdcd --seed 20260810 [--trace] [--setup-only] [--steps N]

Set-up is everything before the first call into the harness: imports,
scenario build and truth tracks.  The worker prints one JSON line holding
``time.perf_counter()`` at the end of set-up (a system-wide monotonic
clock, so the parent can subtract its own spawn time), the call's wall
time, its end-to-end metrics and the digest of its outputs, plus the
per-layer metrics with ``--trace``.

Timings are given at a reference host speed.  The host this runs on is
shared and its speed drifts by 10-30% within minutes, so the worker times
a fixed calibration loop after set-up and after each harness call, and
scales each call's times by ``REFERENCE_CALIBRATION_S`` over the mean of
the two calibrations around it.  The unscaled times are printed too.
"""

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, digest, seeds

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# Seconds the calibration loop takes on the reference host (a quiet
# 2-core x86-64 virtual machine): timings are scaled to that speed.
REFERENCE_CALIBRATION_S = 0.1
CALIBRATION_SLICES = 3


def _calibration_slice() -> float:
    """Time one fixed mix of interpreter work and small numpy operations,
    the two kinds of work sentrack's step loop does; uses no sentrack code."""
    rng = np.random.default_rng(0)
    spd = rng.standard_normal((4, 4))
    spd = spd @ spd.T + 4.0 * np.eye(4)
    rhs = rng.standard_normal(4)
    weights = rng.random(500)
    table = {}
    total = 0.0
    t0 = time.perf_counter()
    for i in range(5000):
        table[i % 97] = table.get(i % 97, 0) + i
        total += float(np.linalg.solve(spd, rhs)[0]) + (i * 0.5) ** 0.5
        w = np.exp(-weights * (i % 7))
        total += float(np.cumsum(w / w.sum())[-1])
    return time.perf_counter() - t0


def calibration_s() -> float:
    """The host's current speed: median time of a few calibration slices."""
    return statistics.median(_calibration_slice() for _ in range(CALIBRATION_SLICES))


def _environment() -> dict:
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _call(workload, scenario, seed, steps, calibrate, before):
    """Run the workload's harness calls; returns [(results, wall, speed factor)].

    ``run_single`` is called once per seed and ``monte_carlo`` once for all
    of them; each call is timed alone, between two calibrations, the first
    being ``before``.  Without ``calibrate`` (an untimed run) the factor is 1.
    """
    from sentrack.harness import monte_carlo, run_single

    if workload.call == "monte_carlo":
        calls = [lambda: monte_carlo(scenario, workload.method, workload.runs, seed, duration=steps).runs]
    else:
        calls = [
            lambda i=i, s=s: [run_single(scenario, workload.method, s, run_index=i, duration=steps)]
            for i, s in enumerate(seeds(workload, seed))
        ]
    segments = []
    for call in calls:
        t0 = time.perf_counter()
        results = call()
        wall = time.perf_counter() - t0
        after = calibrate() if calibrate else REFERENCE_CALIBRATION_S
        segments.append((results, wall, 2.0 * REFERENCE_CALIBRATION_S / (before + after)))
        before = after
    return segments


def timings(segments, scaled: bool) -> dict:
    """Steps per second and control ms per sensor per step over all runs."""
    steps = sum(len(r.steps) for results, _, _ in segments for r in results)
    wall = sum(w * (f if scaled else 1.0) for _, w, f in segments)
    control = [
        r.control_seconds_per_sensor * (f if scaled else 1.0)
        for results, _, f in segments
        for r in results
    ]
    return {"steps_per_s": steps / wall, "control_ms": 1e3 * sum(control) / len(control)}


def end_to_end(segments) -> dict:
    steps = [s for results, _, _ in segments for r in results for s in r.steps]
    return {
        **timings(segments, scaled=True),
        "ospa_m": sum(s.ospa for s in steps) / len(steps),
        "ospa2_m": sum(s.ospa2 for s in steps) / len(steps),
        "comm_bytes_per_step": sum(s.bytes for s in steps) / len(steps),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--steps", type=int, help="shorter run than the workload's")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    steps = args.steps or workload.steps

    from sentrack.scenarios import build_scenario_1, build_scenario_2

    scenario = build_scenario_1() if workload.scenario == 1 else build_scenario_2()
    scenario.truth_tracks(steps)
    t_call = time.perf_counter()
    # the traced repeat and the short reference check are not timed
    calibrate = None if args.trace or args.steps else calibration_s
    first = calibrate() if calibrate else REFERENCE_CALIBRATION_S
    out = {"t_call": t_call, "setup_factor": REFERENCE_CALIBRATION_S / first}
    if args.setup_only:
        out["environment"] = _environment()
        print(json.dumps(out))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        t0 = time.perf_counter()
        segments = _call(workload, scenario, args.seed, steps, calibrate, first)
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()

    results = [r for rs, _, _ in segments for r in rs]
    out["wall"] = sum(w for _, w, _ in segments)
    out["metrics"] = end_to_end(segments)
    out["unscaled"] = timings(segments, scaled=False)
    out["digest"] = digest(results)
    if tracer is not None:
        out["layers"] = tracer.summary(t0, wall)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
