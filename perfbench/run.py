"""Suite-level benchmark of boselab: three workloads, each made of suite runs.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload mean_field --seed 1 --seconds 15 --trace 0

Each suite invocation runs ``cli.run_experiment`` in a fresh interpreter
(``worker.py``), one at a time, with the BLAS/OpenMP pool pinned.  A run
first starts interpreters that only set up (``SETUP_SAMPLES`` set-ups per
run, counting those of the suite invocations), then repeats
whole rounds of the workload's suites until ``--seconds`` have passed
(at least one round).  Every invocation's outputs are checked
(``checks.py``); an invocation with a failed check counts as failed.

``--trace 0`` prints the end-to-end metrics:
  wall_s       median over rounds of the summed suite run time after set-up;
  setup_s      median set-up time of a fresh interpreter (imports plus
               config validation) times the number of suites in a round;
  peak_rss_mb  median over rounds of the largest resident set of a suite
               process.
``--trace 1`` adds one traced round after the untraced ones and prints the
per-layer metrics of ``layers.py`` plus ``trace.overhead_s``.

The last line of standard output is the JSON result.  The outputs of every
invocation are hashed; rounds of one run, the traced round, and earlier
runs of the same source, workload and seed must agree byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_invocation, output_digest  # noqa: E402
from layers import OVERHEAD, layer_metrics  # noqa: E402

THREADS = 2
# Set-up samples per run: the suite invocations plus enough set-up-only
# interpreters to reach this many.
SETUP_SAMPLES = 5
# Workers still running this long after the run started are killed.
RUN_DEADLINE_S = 170

# Suite invocations of each workload: (experiment, config overrides, hooks).
WORKLOADS = {
    "mean_field": [
        ("convergence", {"times": [0.0, 0.1]}, ["chaos"]),
    ],
    "collapse": [
        ("collapse_suite", {"grid_step": 15.0, "grid_extent": 45.0},
         ["mirror"]),
    ],
    "operator_checks": [
        ("energy_suite", {}, []),
        ("lens_suite", {}, []),
        ("bbgky_residual", {}, []),
        ("nls_validate", {}, ["soliton"]),
    ],
}


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "boselab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class Run:
    """One benchmark run: its scratch directory, invocations and failures."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.src = root / "src"
        self.workload = workload
        self.seed = seed
        self.threads = max(1, min(THREADS, len(os.sched_getaffinity(0))))
        self.base = root / ".perfbench"
        self.work = self.base / f"run-{os.getpid()}"
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def invoke(self, experiment: str, overrides: dict, hooks: list,
               mode: str) -> dict:
        """Start one worker and wait for it; returns its result (or {})."""
        self.count += 1
        tag = f"{self.count:03d}-{experiment}-{mode}"
        spec = {
            "src": str(self.src), "threads": self.threads, "mode": mode,
            "hooks": hooks, "pick": self.seed,
            "config": dict(overrides, experiment=experiment, seed=self.seed),
            "out": str(self.work / tag),
            "result": str(self.work / f"{tag}.result.json"),
            "spans": str(self.work / f"{tag}.spans.json"),
        }
        spec_path = self.work / f"{tag}.spec.json"
        spec_path.write_text(json.dumps(spec))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"{tag}: worker timed out", file=sys.stderr)
            return {}
        if proc.returncode != 0:
            print(f"{tag}: worker exited {proc.returncode}\n"
                  f"{proc.stderr[-2000:]}", file=sys.stderr)
            return {}
        result = json.loads(Path(spec["result"]).read_text())
        result["out"] = spec["out"]
        if mode == "trace":
            result["spans"] = json.loads(Path(spec["spans"]).read_text())
        return result

    def operation(self, experiment: str, result: dict, traced: bool):
        """Check one invocation; count it as failed if any check fails."""
        self.attempted += 1
        if not result:
            fails = ["worker failed"]
        else:
            out = Path(result["out"])
            fails = check_invocation(experiment, out, result, traced)
            digest = output_digest(out, experiment)
            first = self.digests.setdefault(experiment, digest)
            if digest != first:
                fails.append("outputs differ from an earlier round of this run")
        if fails:
            self.failed += 1
            for msg in fails:
                print(f"FAIL {self.workload}/{experiment}: {msg}",
                      file=sys.stderr)

    def round(self, mode: str) -> list[dict]:
        results = []
        for experiment, overrides, hooks in WORKLOADS[self.workload]:
            result = self.invoke(experiment, overrides, hooks, mode)
            self.operation(experiment, result, mode == "trace")
            results.append(result)
            if result:
                shutil.rmtree(result["out"], ignore_errors=True)
        return results

    def compare_history(self) -> bool:
        """Digests must match earlier runs of the same source and seed."""
        path = self.base / "digests.json"
        history = json.loads(path.read_text()) if path.is_file() else {}
        key = f"{source_digest(self.src)}/{self.workload}/{self.seed}"
        known = history.setdefault(key, self.digests)
        if known != self.digests:
            print(f"FAIL {self.workload}: outputs differ from an earlier run "
                  f"with seed {self.seed}", file=sys.stderr)
            return False
        path.write_text(json.dumps(history, indent=1, sort_keys=True))
        return True


def median_of(rounds: list[list[dict]], key: str, combine) -> float:
    values = [combine(r[key] for r in rnd) for rnd in rounds
              if rnd and all(key in r for r in rnd)]
    return statistics.median(values) if values else math.nan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it is the suites' seed)")

    root = Path.cwd()
    if not (root / "src" / "boselab" / "cli.py").is_file():
        print("perfbench: run from the root of a boselab checkout "
              "(src/boselab/cli.py not found)", file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        suites = WORKLOADS[args.workload]
        setups = []
        for i in range(max(1, SETUP_SAMPLES - len(suites))):
            experiment, overrides, _ = suites[i % len(suites)]
            probe = run.invoke(experiment, overrides, [], "probe")
            if probe:
                setups.append(probe["setup_s"])
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(run.round("run"))
        setups += [r["setup_s"] for rnd in rounds for r in rnd if r]
        wall = median_of(rounds, "wall_s", sum)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(setups) * len(suites)
                        if setups else math.nan, "unit": "s"},
            "peak_rss_mb": {"value": median_of(rounds, "peak_rss_mb", max),
                            "unit": "MB"},
        }
        for name, metric in metrics.items():
            print(f"{args.workload} {name} = {metric['value']:.6g} "
                  f"{metric['unit']} ({len(rounds)} rounds, "
                  f"{len(setups)} set-ups)")
        if args.trace:
            traced = run.round("trace")
            per_suite = {suite[0]: r.get("spans", [])
                         for suite, r in zip(suites, traced)}
            metrics = layer_metrics(per_suite)
            traced_wall = (sum(r["wall_s"] for r in traced)
                           if all(traced) else math.nan)
            metrics[OVERHEAD[0]] = {"value": traced_wall - wall,
                                    "unit": OVERHEAD[1]}
        consistent = run.compare_history()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    correct = (consistent and run.failed < run.attempted
               and all(math.isfinite(m["value"]) for m in metrics.values()))
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
