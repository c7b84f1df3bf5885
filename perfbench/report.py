"""Run every workload, print every metric with its unit, check the output.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs each workload of BENCHMARK.json untraced and traced through run.py
and prints the end-to-end and per-layer metrics by workload. Each run must
exit 0, pass its correctness check, and report exactly the metrics
BENCHMARK.json declares for its mode, each a finite number with the
declared unit; otherwise the problems are listed and the exit status is 1.

`--seconds 0.5` is the smoke check of the benchmark itself: every workload
at a tiny size, at the reference seed, in well under a minute per workload.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 declared: list) -> tuple[dict, list[str]]:
    where = f"{workload} --trace {trace}"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {}, [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: correct={result.get('correct')} "
                        f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{where}: {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r} != {m['unit']!r}")
        elif not (isinstance(got.get("value"), (int, float))
                  and math.isfinite(got["value"])):
            problems.append(f"{where}: {m['name']} value {got.get('value')!r}")
    return result, problems


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, found = run_workload(name, args.seed, args.seconds, trace, declared)
            problems += found
            metrics = result.get("metrics", {})
            print(f"{name} (trace {trace}): attempted {result.get('attempted')}, "
                  f"failed {result.get('failed')}, correct {result.get('correct')}")
            for m in declared:
                got = metrics.get(m["name"], {})
                print(f"  {m['name']:<48} {got.get('value', '-'):>14.6g} {m['unit']}"
                      if isinstance(got.get("value"), (int, float))
                      else f"  {m['name']:<48} {'-':>14} {m['unit']}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print("report: ok" if not problems else f"report: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
