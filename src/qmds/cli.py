"""Command-line front end for the benchmark harness.

Two subcommands: `run` sweeps a (scenario, algorithm, noise) grid and writes
one aggregated CSV row per cell; `converge` tracks the iterative solver's
error per refinement sweep. Both read an optional JSON config file whose
keys mirror ExperimentConfig; command-line flags override file values.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import QmdsError
from .harness import (
    ALGORITHMS,
    CONVERGENCE_COLUMNS,
    CSV_COLUMNS,
    _CONFIG_FIELDS,
    config_from_mapping,
    run_convergence,
    run_grid,
    write_csv,
)
from .measurement import SCENARIOS


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _name_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _add_shared_flags(sub: argparse.ArgumentParser) -> None:
    # A flag that overrides a config field stores under that field's name.
    sub.add_argument("--config", help="JSON file with ExperimentConfig fields")
    sub.add_argument("--seed", dest="master_seed", type=int, metavar="SEED",
                     help="master seed (overrides config master_seed)")
    sub.add_argument("--sigma-d", dest="sigma_d_grid", type=_float_list,
                     metavar="M,M,...", help="distance noise grid in meters")
    sub.add_argument("--epsilon", dest="epsilon_grid", type=_float_list,
                     metavar="D,D,...",
                     help="angle noise grid in degrees (90%% error half-width)")
    sub.add_argument("--trials", type=int, help="Monte-Carlo trials per grid cell")
    sub.add_argument("--tau-max", type=int,
                     help="refinement sweeps for the iterative solver")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmds",
        description="Monte-Carlo localization benchmarks over noisy "
                    "range/angle measurements.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="sweep a benchmark grid to CSV")
    _add_shared_flags(run)
    run.add_argument("--out", default="results.csv", help="output CSV path")
    run.add_argument("--scenario", choices=SCENARIOS,
                     help="restrict to one measurement scenario")
    run.add_argument("--algorithms", type=_name_list, metavar=",".join(ALGORITHMS),
                     help="comma-separated solver subset")
    run.add_argument("--missing", dest="missing_fraction", type=float, metavar="F",
                     help="fraction of kernel entry pairs to hide (scenario II)")
    run.add_argument("--timing", choices=("off", "wall"),
                     help="record wall time per solve (breaks byte-identity)")

    conv = commands.add_parser(
        "converge", help="per-sweep error of the iterative solver")
    _add_shared_flags(conv)
    conv.add_argument("--out", default="convergence.csv", help="output CSV path")

    return parser


def _load_mapping(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # malformed JSON, or an integer past 4,300 digits
            raise QmdsError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise QmdsError(f"config file must hold a JSON object: {path}")
    return data


def _apply_overrides(mapping: dict, args: argparse.Namespace) -> dict:
    mapping.update((name, value) for name, value in vars(args).items()
                   if name in _CONFIG_FIELDS and value is not None)
    if getattr(args, "scenario", None) is not None:
        mapping["scenarios"] = (args.scenario,)
    return mapping


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        mapping = _apply_overrides(_load_mapping(args.config), args)
        if args.command == "converge":
            mapping["scenarios"] = ("II",)  # the only scenario converge runs
        config = config_from_mapping(mapping)
        if not (out := Path(args.out)).parent.is_dir():
            # checked before the grid runs, so a bad path loses no work
            raise FileNotFoundError(f"output directory does not exist: {out.parent}")
        if out.is_dir():
            raise QmdsError(f"output path is a directory: {out}")
        if args.command == "run":
            rows = run_grid(config)
            write_csv(rows, args.out, CSV_COLUMNS)
        else:
            rows = run_convergence(config)
            write_csv(rows, args.out, CONVERGENCE_COLUMNS)
    except (QmdsError, OSError) as exc:
        print(f"qmds: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
