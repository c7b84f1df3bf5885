"""Benchmark of the qmds Monte-Carlo command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the library is imported from ./src, so
nothing needs installing. A run drives the public entry point
`qmds.cli.main` in this process, round after round, each round one
`qmds run` or `qmds converge` call on the workload's grid with its own
master seed derived from `--seed`. BLAS threading is left at the library's
default.

The number of rounds is fixed by the workload and `--seconds`: at the
commit that defined the benchmark a run of N rounds took about `--seconds`.
Because the work is fixed, the accuracy figures and the call counts of a
traced run repeat exactly for a given seed; a faster program finishes the
same rounds sooner.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` the same rounds are run once
untraced and once traced (see spans.py) and the per-layer metrics are
reported. Each run checks the CSV rows the CLI wrote: every cell present,
its trial counts summing up, every mean error finite, and, at the reference
seed, the first rounds equal to the rows in reference.json. A failed check
prints the result with "correct": false and exits with status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

REF_SEED = 0
# Allowed relative difference of a cell's mean_xi_m from reference.json.
# Another BLAS thread count moves it by about 1e-15; a tenfold looser
# completion tolerance moves it by about 5e-7.
XI_RTOL = 1e-9
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    """One CLI grid. `rounds_per_s` was measured at the defining commit."""

    command: str
    config: dict
    rounds_per_s: float

    def cells(self) -> list[tuple]:
        """Row keys of one round's CSV, in the order the CLI writes them."""
        c = self.config
        if self.command == "converge":
            return list(product(c["sigma_d_grid"], c["epsilon_grid"],
                                range(c["tau_max"] + 1)))
        return list(product(c["scenarios"], c["algorithms"],
                            c["sigma_d_grid"], c["epsilon_grid"]))

    def solves_per_round(self) -> int:
        """(trial, algorithm) solves one round attempts."""
        c = self.config
        cells = len(c["sigma_d_grid"]) * len(c["epsilon_grid"])
        if self.command == "run":
            cells *= len(c["scenarios"]) * len(c["algorithms"])
        return cells * c["trials"]

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds * self.rounds_per_s))


ALGORITHMS = ["smds", "qdsmds", "mrc", "mrciter"]

# Why each workload exists, and which layer it isolates, is recorded in
# BENCHMARK.json.
WORKLOADS = {
    "grid-direct": Workload("run", {
        "scenarios": ["I", "II"], "algorithms": ALGORITHMS,
        "sigma_d_grid": [1.0, 3.0], "epsilon_grid": [10.0, 50.0],
        "trials": 2,
    }, rounds_per_s=1.65),
    "grid-masked": Workload("run", {
        "scenarios": ["II"], "algorithms": ALGORITHMS,
        "sigma_d_grid": [2.0], "epsilon_grid": [50.0],
        "missing_fraction": 0.3, "trials": 1,
    }, rounds_per_s=0.8),
    "converge-sweeps": Workload("converge", {
        "sigma_d_grid": [2.0, 4.0], "epsilon_grid": [30.0],
        "tau_max": 10, "trials": 10,
    }, rounds_per_s=6.6),
}


def round_seed(seed: int, index: int) -> int:
    return seed * 100_000 + index


# Runs in a fresh interpreter: what every `qmds run` pays before its first
# trial (import, config construction, the lazy angle-noise root solves).
_SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import qmds
config = qmds.config_from_mapping(json.loads(sys.argv[1]))
for eps in config.epsilon_grid:
    qmds.epsilon_to_rho(eps)
print(time.perf_counter() - t0)
"""


def measure_setup(workload: Workload) -> float:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, json.dumps(workload.config)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def import_qmds():
    sys.path.insert(0, str(SRC))
    import qmds
    import qmds.cli
    if Path(qmds.__file__).resolve().parent != SRC / "qmds":
        raise ImportError(f"qmds imported from {qmds.__file__}, not {SRC}")
    return qmds


def _git_commit() -> str | None:
    # Only ask git when the root itself is a repository, so that git never
    # searches the directories above the checkout.
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use, asked of the library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _git_commit(),
        "seed": seed,
    }


def run_round(qmds, name: str, workload: Workload, seed: int) -> tuple[list, float]:
    """One CLI call; returns its CSV rows and its wall time in seconds."""
    config_path = OUT / f"{name}.json"
    out_path = OUT / f"{name}.csv"
    config_path.write_text(json.dumps(workload.config))
    argv = [workload.command, "--config", str(config_path),
            "--seed", str(seed), "--out", str(out_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = qmds.cli.main(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"qmds {' '.join(argv)} exited with {code}")
    with open(out_path, newline="") as fh:
        return list(csv.DictReader(fh)), elapsed


def _row_key(command: str, row: dict) -> tuple:
    if command == "converge":
        return (float(row["sigma_d_m"]), float(row["epsilon_deg"]), int(row["tau"]))
    return (row["scenario"], row["algorithm"],
            float(row["sigma_d_m"]), float(row["epsilon_deg"]))


def _xi(row: dict) -> float:
    return float(row["mean_xi_m"]) if row["mean_xi_m"] else math.nan


def check_rows(workload: Workload, rounds: list, reference: list | None) -> list[str]:
    """Problems with the CSV rows of each round; an empty list passes."""
    problems = []
    expected = workload.cells()
    trials = workload.config["trials"]
    for index, rows in enumerate(rounds):
        keys = [_row_key(workload.command, row) for row in rows]
        if keys != expected:
            problems.append(f"round {index}: rows {keys} differ from cells {expected}")
            continue
        for key, row in zip(keys, rows):
            ok, failed = int(row["trials_ok"]), int(row["trials_failed"])
            if ok + failed != trials:
                problems.append(f"round {index} {key}: {ok} + {failed} trials != {trials}")
            if not math.isfinite(_xi(row)):
                problems.append(f"round {index} {key}: mean_xi_m {row['mean_xi_m']!r}")
        if reference is None or index >= len(reference):
            continue
        for key, row, ref in zip(keys, rows, reference[index]):
            if (int(row["trials_ok"]), int(row["trials_failed"])) != \
                    (ref["trials_ok"], ref["trials_failed"]):
                problems.append(f"round {index} {key}: trial counts differ from reference")
            if not math.isclose(_xi(row), ref["mean_xi_m"], rel_tol=XI_RTOL):
                problems.append(f"round {index} {key}: mean_xi_m {row['mean_xi_m']} "
                                f"!= reference {ref['mean_xi_m']!r}")
    return problems


def reference_rows(rows: list) -> list[dict]:
    return [{"trials_ok": int(r["trials_ok"]), "trials_failed": int(r["trials_failed"]),
             "mean_xi_m": _xi(r)} for r in rows]


def counts(workload: Workload, rounds: list) -> tuple[int, int]:
    """(solves attempted, solves failed) over all rounds."""
    attempted = failed = 0
    for rows in rounds:
        if workload.command == "converge":
            # one solve per trial; its counts repeat on every tau row
            rows = [r for r in rows if r["tau"] == "0"]
        attempted += sum(int(r["trials_ok"]) + int(r["trials_failed"]) for r in rows)
        failed += sum(int(r["trials_failed"]) for r in rows)
    return attempted, failed


def run_rounds(qmds, name, workload, seed, n_rounds, tracer=None):
    rounds, seconds = [], []
    for index in range(n_rounds):
        if tracer is not None:
            tracer.round_index = index
        rows, elapsed = run_round(qmds, name, workload, round_seed(seed, index))
        rounds.append(rows)
        seconds.append(elapsed)
    return rounds, seconds


def end_to_end(qmds, name, workload, seed, seconds_budget):
    setup_s = measure_setup(workload)
    for eps in workload.config["epsilon_grid"]:
        qmds.epsilon_to_rho(eps)
    rounds, seconds = run_rounds(qmds, name, workload, seed, workload.rounds(seconds_budget))
    attempted, failed = counts(workload, rounds)
    solves = workload.solves_per_round()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "solves_per_s": (statistics.median(solves / s for s in seconds), "1/s"),
        "xi_mean_m": (statistics.fmean(_xi(r) for rows in rounds for r in rows), "m"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }
    return rounds, seconds, attempted, failed, metrics


def per_layer(qmds, name, workload, seed, seconds_budget):
    import numpy as np

    for eps in workload.config["epsilon_grid"]:
        qmds.epsilon_to_rho(eps)
    # Half the budget untraced, the same rounds again traced: the ratio of
    # the two wall times is the tracing overhead.
    n_rounds = workload.rounds(seconds_budget / 2)
    _, plain_s = run_rounds(qmds, name, workload, seed, n_rounds)

    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", qmds.NonConvergenceWarning)
            origin = time.perf_counter_ns()
            rounds, traced_s = run_rounds(qmds, name, workload, seed, n_rounds, tracer)
            wall_ns = time.perf_counter_ns() - origin
    finally:
        restore()
    tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl", origin)

    metrics = {}
    for span in spans.SPAN_NAMES:
        calls, self_ns = tracer.calls[span], tracer.self_ns[span]
        metrics[f"{span}.calls"] = (calls, "count")
        metrics[f"{span}.self_ms_per_call"] = (self_ns / 1e6 / calls if calls else 0.0, "ms")
        metrics[f"{span}.self_share"] = (self_ns / wall_ns, "ratio")
    p50, p90 = (np.percentile(tracer.trial_ns, [50, 90]) / 1e6
                if tracer.trial_ns else (0.0, 0.0))
    metrics["harness.run_trial.ms_p50"] = (float(p50), "ms")
    metrics["harness.run_trial.ms_p90"] = (float(p90), "ms")
    metrics["completion.sweeps"] = (tracer.completion_sweeps, "count")
    metrics["completion.converged_ratio"] = (
        tracer.completion_converged / tracer.completion_calls
        if tracer.completion_calls else 0.0, "ratio")
    metrics["completion.nonconvergence_warnings"] = (
        sum(issubclass(w.category, qmds.NonConvergenceWarning) for w in caught), "count")
    metrics["trace.coverage"] = (tracer.covered_ns() / wall_ns, "ratio")
    # per-round pairs, so that the first round's warm-up does not count
    metrics["trace.overhead_frac"] = (
        statistics.median(t / p for t, p in zip(traced_s, plain_s)) - 1, "ratio")
    attempted, failed = counts(workload, rounds)
    return rounds, traced_s, attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    qmds = import_qmds()
    measure = per_layer if args.trace else end_to_end
    rounds, round_seconds, attempted, failed, metrics = measure(
        qmds, args.workload, workload, args.seed, args.seconds)

    reference = None
    if args.seed == REF_SEED:
        reference = json.loads(REFERENCE.read_text())["workloads"][args.workload]
    problems = check_rows(workload, rounds, reference)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    env = environment(args.seed)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        # a non-finite value can only come with a failed check; JSON has no NaN
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "round_seconds": round_seconds,
              "environment": env, **result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
