"""Check the last line that bench/run.py prints.

    python3 bench/run.py --workload all --seconds 1 --trace 0 | python3 .github/check_result_line.py
    python3 bench/run.py --workload s1-dcd --seconds 1 --trace 0 | python3 .github/check_result_line.py
    python3 bench/run.py --workload all --seconds 1 --trace 1 | python3 .github/check_result_line.py

bench/run.py exits 0 after a failed repeat; only its last line says so.
That line must be strict JSON: json.dumps prints a non-finite metric as a
bare NaN or Infinity, which json.loads would accept.  The line of
`--workload all` must hold every workload of BENCHMARK.json; each workload's
result must be correct, with 0 failed and every end-to-end metric of
BENCHMARK.json.  With --trace 1 a result reports the per-layer metrics in
their place: a line where any result holds a per-layer metric is traced,
and each of its results must hold every per-layer metric of BENCHMARK.json.
A traced repeat fails when its spans do not tile the traced region, so a
traced line that is correct has passed the tracer's span checks.  Exits 1,
naming what is wrong, otherwise 0.
"""

import json
import sys
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def reject(token):
    raise ValueError(f"non-finite value {token} in the result line")


def problems(line: str) -> list:
    got = json.loads(line, parse_constant=reject)
    if "workloads" in got:
        names = [w["name"] for w in BENCHMARK["workloads"]]
        found = [f"{n}: missing" for n in names if n not in got["workloads"]]
        results = {n: got["workloads"][n] for n in names if n in got["workloads"]}
    else:
        found, results = [], {"the workload": got}
    per_layer = [m["name"] for m in BENCHMARK["per_layer"]]
    traced = any(m in result["metrics"] for result in results.values() for m in per_layer)
    metrics = per_layer if traced else [m["name"] for m in BENCHMARK["end_to_end"]]
    for name, result in results.items():
        if not result["correct"]:
            found.append(f"{name}: not correct")
        if result["failed"] != 0:
            found.append(f"{name}: {result['failed']} failed")
        found += [f"{name}: no {m}" for m in metrics if m not in result["metrics"]]
    return found


def main() -> int:
    lines = sys.stdin.read().splitlines()
    if not lines:
        print("no result line", file=sys.stderr)
        return 1
    found = problems(lines[-1])
    for problem in found:
        print(problem, file=sys.stderr)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
