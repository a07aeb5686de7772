"""The sentrack benchmark: end-to-end and per-layer cost of the public harness.

    python3 bench/run.py --workload s2-fdcd --seed 20260810 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 90 [--trace 1]
    python3 bench/run.py --record-reference

A workload repeats its call, each time in a fresh process, for about
``--seconds`` seconds, and reports the median of each metric over the
repeats.  ``--trace 1`` also makes one traced repeat and reports per-layer
metrics.  ``--workload all`` repeats every workload in turn, round after
round, for about ``--seconds`` seconds each, so bursts of host speed spread
over all of them.  Child processes run one at a time.

Every repeat's outputs are checked: at the default seed against the
reference in ``bench/reference/``, and at any seed against the other
repeats, bit for bit.  A mismatch or an exception counts the repeat as
failed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Set-up failures
(for instance, no ``src/sentrack`` to import) exit with code 1 and no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import (
    CHECK_STEPS,
    DEFAULT_SEED,
    END_TO_END,
    PER_LAYER,
    WORKLOADS,
    compare,
    load_reference,
    prefix,
    write_reference,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
HARD_LIMIT_S = 170.0  # one invocation must end within 180 s
SETUP_PROBES = 2
TRACE_SLOWDOWN = 1.3  # traced / untraced wall, to reserve time for the traced repeat


class SetupError(RuntimeError):
    """The program could not be set up at all; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS thread: the repeats run one at a time on a small host
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(workload: str, seed: int, *, deadline=None, trace=False, setup_only=False, steps=None):
    """Run one worker, killed at `deadline` (perf_counter); returns (sample or None, error)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    if steps is not None:
        cmd += ["--steps", str(steps)]
    t_spawn = time.perf_counter()
    timeout = None if deadline is None else max(deadline - t_spawn, 1.0)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else f"exit {proc.returncode}"
    try:
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None, "no result line"
    # scaled to the reference host speed, like the worker's timings
    sample["setup_s"] = (sample["t_call"] - t_spawn) * sample["setup_factor"]
    return sample, ""


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def trace_problems(layers: dict) -> list:
    """The spans must tile the traced region, so that the layer self times and
    harness.self_s add up to its wall: every span inside it, every span in a layer."""
    problems = []
    if layers["harness.spans_outside"]:
        problems.append(f"{layers['harness.spans_outside']} spans outside the traced region")
    if layers["harness.spans_unlayered"]:
        problems.append(f"{layers['harness.spans_unlayered']} spans in no layer of {LAYERS[1:]}")
    if layers["harness.self_s"] < 0:
        problems.append(f"top-level spans cover {-layers['harness.self_s']} s more than the traced wall")
    return problems


def judge(samples: list, reference) -> tuple:
    """Check every repeat's outputs; returns (failed count, problem lines).

    A sample is a worker result, or None for a repeat that raised or timed
    out.  At the default seed each digest is compared with the reference;
    at every seed it must equal the first good repeat's digest bit for bit.
    """
    failed, problems = 0, []
    first = None
    for i, sample in enumerate(samples):
        if sample is None:
            failed += 1
            problems.append(f"repeat {i}: no result")
            continue
        found = []
        if reference is not None:
            found += compare(sample["digest"], reference)
        if first is None:
            first = sample["digest"]
        elif sample["digest"] != first:
            found.append("outputs differ from the first repeat")
        if "layers" in sample:
            found += trace_problems(sample["layers"])
        if found:
            failed += 1
            problems += [f"repeat {i}: {p}" for p in found]
    return failed, problems


def reference_for(name: str, seed: int):
    return load_reference(WORKLOADS[name]) if seed == DEFAULT_SEED else None


def golden_check(name: str, seed: int, measured: dict, deadline=None) -> None:
    """At a seed without a reference, also check a short run at the default seed."""
    if seed != DEFAULT_SEED:
        sample, error = run_child(name, DEFAULT_SEED, deadline=deadline, steps=CHECK_STEPS)
        if sample is None:
            print(f"{name}: reference check failed: {error}", file=sys.stderr)
        measured["check"] = sample


def end_to_end_table(samples: list, setups: list) -> dict:
    """name -> (q1, median, q3, n) over the good untraced repeats."""
    good = [s for s in samples if s is not None and "layers" not in s]
    table = {}
    for name in END_TO_END:
        values = setups if name == "setup_s" else [s["metrics"][name] for s in good]
        if values:
            table[name] = (*quartiles(values), len(values))
    return table


def per_layer_values(samples: list) -> dict:
    untraced = [s["wall"] for s in samples if s is not None and "layers" not in s]
    traced = [s for s in samples if s is not None and "layers" in s]
    if not traced or not untraced:
        return {}
    layers = dict(traced[-1]["layers"])
    layers["harness.trace_overhead_s"] = layers["harness.wall_s"] - statistics.median(untraced)
    layers["metrics.ospa_m"] = traced[-1]["metrics"]["ospa_m"]
    return {name: layers[name] for name in PER_LAYER}


def unscaled_table(samples: list) -> dict:
    """The untraced repeats' timings before scaling to the reference host speed."""
    good = [s["unscaled"] for s in samples if s is not None and "layers" not in s]
    return {name: statistics.median(u[name] for u in good) for name in (good[0] if good else ())}


def print_report(name: str, table: dict, layers: dict, attempted: int, failed: int, problems: list,
                 unscaled: dict) -> None:
    print(f"== {name}: {attempted - failed}/{attempted} repeats correct, {failed} failed")
    for p in problems:
        print(f"   FAILED {p}")
    print(f"   {'metric':<22}{'unit':<9}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}")
    for metric, (q1, median, q3, n) in table.items():
        unit = END_TO_END[metric][0]
        print(f"   {metric:<22}{unit:<9}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}{n:>4}")
    for metric, median in unscaled.items():
        print(f"   {metric + ' unscaled':<31}{median:>14.6g}")
    for metric, value in layers.items():
        print(f"   {metric:<40}{PER_LAYER[metric]:<7}{value:>16.6g}")


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def warm_up(workload: str, seed: int, deadline=None) -> dict:
    """A first, uncounted set-up: fills byte-code and page caches, proves imports work."""
    if not (ROOT / "src" / "sentrack" / "__init__.py").is_file():
        raise SetupError(f"no sentrack package under {ROOT / 'src'}")
    sample, error = run_child(workload, seed, deadline=deadline, setup_only=True)
    if sample is None:
        raise SetupError(f"set-up failed: {error}")
    env = dict(sample["environment"])
    env.update(
        OPENBLAS_NUM_THREADS=child_env()["OPENBLAS_NUM_THREADS"],
        nproc=os.cpu_count(),
        git=git_sha(),
        seed=seed,
    )
    return env


def setup_probes(workload: str, seed: int, count: int, deadline: float) -> list:
    setups = []
    for _ in range(count):
        sample, error = run_child(workload, seed, deadline=deadline, setup_only=True)
        if sample is None:
            raise SetupError(f"set-up failed: {error}")
        setups.append(sample["setup_s"])
    return setups


def measure(names: list, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workloads in turn, round after round, for about `seconds`
    each; then one traced repeat of each with `trace`."""
    start = time.perf_counter()
    deadline = start + seconds * len(names)
    hard = start + HARD_LIMIT_S * len(names)
    env = warm_up(names[0], seed, hard)
    measured = {}
    for name in names:
        measured[name] = {"env": env, "setups": setup_probes(name, seed, SETUP_PROBES, hard), "samples": []}
        golden_check(name, seed, measured[name], hard)
    costs, failed = [], False
    while not failed:
        before = time.perf_counter()
        for name in names:
            sample, error = run_child(name, seed, deadline=hard)
            measured[name]["samples"].append(sample)
            if sample is None:
                print(f"{name}: repeat failed: {error}", file=sys.stderr)
                failed = True
                break
            measured[name]["setups"].append(sample["setup_s"])
        costs.append(time.perf_counter() - before)
        next_cost = max(costs) * (1.0 + (TRACE_SLOWDOWN if trace else 0.0))
        if time.perf_counter() + next_cost > deadline:
            break
    if trace and not failed:
        for name in names:
            sample, error = run_child(name, seed, deadline=hard, trace=True)
            if sample is None:
                print(f"{name}: traced repeat failed: {error}", file=sys.stderr)
            measured[name]["samples"].append(sample)
    return measured


def result_line(measured: dict, name: str, seed: int, trace: bool) -> dict:
    samples = measured["samples"]
    attempted = len(samples)
    failed, problems = judge(samples, reference_for(name, seed))
    if "check" in measured:
        reference = prefix(load_reference(WORKLOADS[name]), CHECK_STEPS)
        check_failed, check_problems = judge([measured["check"]], reference)
        attempted += 1
        failed += check_failed
        problems += [f"reference check, {p}" for p in check_problems]
    table = end_to_end_table(samples, measured["setups"])
    layers = per_layer_values(samples) if trace else {}
    print_report(name, table, layers, attempted, failed, problems, unscaled_table(samples))
    if trace:
        metrics = {m: {"value": v, "unit": PER_LAYER[m]} for m, v in layers.items()}
        complete = len(layers) == len(PER_LAYER)
    else:
        metrics = {m: {"value": table[m][1], "unit": END_TO_END[m][0]} for m in table}
        complete = len(table) == len(END_TO_END)
    return {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def record_reference() -> None:
    for name, workload in WORKLOADS.items():
        warm_up(name, DEFAULT_SEED)
        sample, error = run_child(name, DEFAULT_SEED)
        if sample is None:
            raise SetupError(f"{name}: {error}")
        write_reference(workload, sample["digest"])
        print(f"recorded {name}: {len(sample['digest'])} runs, seed {DEFAULT_SEED}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the reference outputs at the default seed")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")

    try:
        if args.record_reference:
            record_reference()
            return 0
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        measured = measure(names, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1

    lines = {name: result_line(m, name, args.seed, bool(args.trace)) for name, m in measured.items()}
    env = next(iter(measured.values()))["env"]
    print("environment: " + json.dumps(env))
    if args.workload == "all":
        print(json.dumps({"environment": env, "workloads": lines}))
    else:
        print(json.dumps(lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
