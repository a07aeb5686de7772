"""Command-line interface.

    sentrack simulate --scenario {1|2|path} --method {fixed|isc|dcd|fdcd} \
        --runs N --seed S --dcd-runs m --out DIR [--steps K]

Runs the requested Monte Carlo experiment and writes CSV results (plus a
timing sidecar) into the output directory.
"""

import argparse
import os
from pathlib import Path

from .harness import METHODS, export_results, monte_carlo
from .scenarios import build_scenario_1, build_scenario_2, load_scenario


def _resolve_scenario(spec: str):
    if spec == "1":
        return build_scenario_1()
    if spec == "2":
        return build_scenario_2()
    path = Path(spec)
    if not path.is_file():
        raise ValueError(f"scenario {spec!r} is neither '1', '2' nor a file")
    return load_scenario(path)


def _check_out(out: str) -> None:
    """Reject an --out that cannot hold the results, creating nothing: the
    first path that exists on the way up from it must be a directory this
    process may write in and search."""
    path = Path(out).absolute()
    existing = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not os.path.isdir(existing):
        raise ValueError(f"--out {out!r}: {str(existing)!r} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise ValueError(f"--out {out!r}: {str(existing)!r} is not writable")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sentrack",
        description="Distributed multi-sensor control simulator for multi-target tracking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a Monte Carlo tracking experiment")
    sim.add_argument(
        "--scenario",
        required=True,
        help="built-in scenario '1' or '2', or a path to a scenario YAML file",
    )
    sim.add_argument("--method", required=True, choices=METHODS, action="append",
                     dest="methods", help="control method (repeatable)")
    sim.add_argument("--runs", type=int, default=None, help="Monte Carlo runs")
    sim.add_argument("--seed", type=int, default=None, help="base seed (run i uses seed+i)")
    sim.add_argument("--dcd-runs", type=int, default=1, help="restarts for the dcd method")
    sim.add_argument("--steps", type=int, default=None, help="override scenario duration")
    sim.add_argument("--out", required=True, help="output directory for CSV results")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if len(set(args.methods)) < len(args.methods):
            raise ValueError(f"each --method may be given once, not {' '.join(args.methods)!r}")
        _check_out(args.out)
        scenario = _resolve_scenario(args.scenario)
        runs = args.runs if args.runs is not None else scenario.monte_carlo.runs
        seed = args.seed if args.seed is not None else scenario.monte_carlo.base_seed

        results = [
            monte_carlo(scenario, method, runs, seed, dcd_runs=args.dcd_runs, duration=args.steps)
            for method in args.methods
        ]
    except ValueError as exc:
        # a bad value in the arguments or the scenario file, not a crash
        raise SystemExit(f"sentrack: error: {exc}") from None
    for mc in results:
        print(
            f"{scenario.name} {mc.method}: runs={runs} seed={seed} "
            f"mean OSPA={mc.mean_ospa:.2f} m, mean OSPA2={mc.mean_ospa2:.2f} m, "
            f"control {mc.mean_control_seconds * 1e3:.1f} ms/sensor/step"
        )
    try:
        paths = export_results(results, args.out)
    except OSError as exc:
        raise SystemExit(f"sentrack: error: cannot write the results: {exc}") from None
    print(f"results written to {Path(args.out).resolve()}")
    for name in ("runs", "timesteps", "cardinality", "comm", "timings"):
        print(f"  {paths[name].name}")
    return 0

