"""Write reference.json, the rows the correctness check compares against.

    python3 perfbench/capture_reference.py

Runs the first REF_ROUNDS rounds of every workload at the reference seed
and stores each CSV cell's trial counts and mean error. Run it only at a
commit whose outputs are meant to become the reference.
"""

from __future__ import annotations

import json
import sys

import run

REF_ROUNDS = 3


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    qmds = run.import_qmds()
    captured = {}
    for name, workload in run.WORKLOADS.items():
        rounds, _ = run.run_rounds(qmds, name, workload, run.REF_SEED, REF_ROUNDS)
        problems = run.check_rows(workload, rounds, None)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        captured[name] = [run.reference_rows(rows) for rows in rounds]
    run.REFERENCE.write_text(
        json.dumps({"seed": run.REF_SEED, "workloads": captured}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
