"""Self-test of the benchmark: declarations against what the command prints.

Usage (from the root of the checkout; runs the command twice, about two
minutes on two cores):

    python3 perfbench/selftest.py [--workload operator_checks]

It checks that
  * every name in BENCHMARK.json uses only [A-Za-z0-9_.-] and is used once;
  * every workload has a one-line why, and the declared workloads are the
    ones run.py knows;
  * the per-layer metrics declared are the ones layers.py computes;
  * the command, run with --trace 0 and --trace 1, prints as its last line
    a JSON object with exactly correct/attempted/failed/metrics, whose
    metric names and units are exactly the declared end-to-end and
    per-layer ones.
It is not part of the repository's test suite.  Exit code 0 means every
check passed.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import METRICS, OVERHEAD  # noqa: E402
from run import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def static_problems(bench: dict) -> list[str]:
    problems = []
    names = ([w["name"] for w in bench["workloads"]]
             + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]])
    for name in names:
        if not NAME.fullmatch(name):
            problems.append(f"name {name!r} is not made of [A-Za-z0-9_.-]")
        if names.count(name) > 1:
            problems.append(f"name {name!r} is used more than once")
    for workload in bench["workloads"]:
        why = workload.get("why", "")
        if not why.strip() or "\n" in why:
            problems.append(f"workload {workload['name']}: why-line missing")
    if {w["name"] for w in bench["workloads"]} != set(WORKLOADS):
        problems.append("declared workloads differ from run.WORKLOADS")
    computed = {name: unit for name, unit, _ in METRICS}
    computed[OVERHEAD[0]] = OVERHEAD[1]
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != computed:
        problems.append(f"per-layer declarations {sorted(declared.items())} "
                        f"differ from layers.py {sorted(computed.items())}")
    return problems


def printed_problems(bench: dict, workload: str, trace: int) -> list[str]:
    command = bench["command"] + ["--workload", workload, "--seed", "0",
                                  "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True)
    if proc.returncode != 0:
        return [f"{' '.join(command)} exited {proc.returncode}: "
                f"{proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"trace {trace}: correct={result.get('correct')} "
                        f"failed={result.get('failed')}")
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in sorted(set(printed) - set(declared)):
        problems.append(f"trace {trace}: printed {name!r} is not declared")
    for name in sorted(set(declared) - set(printed)):
        problems.append(f"trace {trace}: declared {name!r} is not printed")
    for name in sorted(set(declared) & set(printed)):
        if declared[name] != printed[name]:
            problems.append(f"{name}: unit {printed[name]!r}, declared "
                            f"{declared[name]!r}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--workload", default="operator_checks",
                        choices=sorted(WORKLOADS))
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    problems = static_problems(bench)
    for trace in (0, 1):
        problems += printed_problems(bench, args.workload, trace)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
