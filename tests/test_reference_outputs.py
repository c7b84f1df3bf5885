"""Pinned results of four small CLI runs.

The expected rows were captured from the CLI before the edge layout moved
into `network.structure_matrices` and are compared at relative tolerance
1e-9 (the perfbench reference tolerance): another BLAS thread count moves
xi by about 1e-15, while a refactor that changes results moves it by far
more. Each row is (keys..., trials_ok, trials_failed, mean_xi_m).
"""

import csv

import pytest

from qmds.cli import main

RUN_GRID = (
    ["run", "--sigma-d", "1,3", "--epsilon", "10,50", "--trials", "3",
     "--seed", "11"],
    ("scenario", "algorithm", "sigma_d_m", "epsilon_deg"),
    [
        ("I", "smds", 1.0, 10.0, 3, 0, 0.16589545313473172),
        ("I", "smds", 1.0, 50.0, 3, 0, 1.1319902074378074),
        ("I", "smds", 3.0, 10.0, 3, 0, 0.42739799403066464),
        ("I", "smds", 3.0, 50.0, 3, 0, 1.2400348577643001),
        ("I", "qdsmds", 1.0, 10.0, 3, 0, 0.1864046820473677),
        ("I", "qdsmds", 1.0, 50.0, 3, 0, 1.0531446656741628),
        ("I", "qdsmds", 3.0, 10.0, 3, 0, 0.5400486356925005),
        ("I", "qdsmds", 3.0, 50.0, 3, 0, 1.2055784634465394),
        ("I", "mrc", 1.0, 10.0, 3, 0, 0.20661230265402683),
        ("I", "mrc", 1.0, 50.0, 3, 0, 1.1145885832773794),
        ("I", "mrc", 3.0, 10.0, 3, 0, 0.5326758985132029),
        ("I", "mrc", 3.0, 50.0, 3, 0, 1.2496027642226353),
        ("I", "mrciter", 1.0, 10.0, 3, 0, 0.1881280175073743),
        ("I", "mrciter", 1.0, 50.0, 3, 0, 1.0539905372576623),
        ("I", "mrciter", 3.0, 10.0, 3, 0, 0.5534467937115451),
        ("I", "mrciter", 3.0, 50.0, 3, 0, 1.197469499164577),
        ("II", "smds", 1.0, 10.0, 3, 0, 0.16704563971369155),
        ("II", "smds", 1.0, 50.0, 3, 0, 1.0323599304222209),
        ("II", "smds", 3.0, 10.0, 3, 0, 0.3621100739817927),
        ("II", "smds", 3.0, 50.0, 3, 0, 1.3415631087812023),
        ("II", "qdsmds", 1.0, 10.0, 3, 0, 0.2361199506641273),
        ("II", "qdsmds", 1.0, 50.0, 3, 0, 0.8966594190088834),
        ("II", "qdsmds", 3.0, 10.0, 3, 0, 0.37457685434340804),
        ("II", "qdsmds", 3.0, 50.0, 3, 0, 0.9915985287609911),
        ("II", "mrc", 1.0, 10.0, 3, 0, 0.2653368927235538),
        ("II", "mrc", 1.0, 50.0, 3, 0, 1.2648372358046507),
        ("II", "mrc", 3.0, 10.0, 3, 0, 0.4369048936428614),
        ("II", "mrc", 3.0, 50.0, 3, 0, 1.404155751830439),
        ("II", "mrciter", 1.0, 10.0, 3, 0, 0.24088059503424072),
        ("II", "mrciter", 1.0, 50.0, 3, 0, 0.9991836250623342),
        ("II", "mrciter", 3.0, 10.0, 3, 0, 0.3877098701350577),
        ("II", "mrciter", 3.0, 50.0, 3, 0, 1.0897450245206481),
    ],
)

RUN_MASKED = (
    ["run", "--scenario", "II", "--missing", "0.3", "--sigma-d", "2",
     "--epsilon", "50", "--trials", "2", "--seed", "5"],
    ("scenario", "algorithm", "sigma_d_m", "epsilon_deg"),
    [
        ("II", "smds", 2.0, 50.0, 2, 0, 1.492593639385932),
        ("II", "qdsmds", 2.0, 50.0, 2, 0, 1.1406019096439717),
        ("II", "mrc", 2.0, 50.0, 2, 0, 1.5456091199989115),
        ("II", "mrciter", 2.0, 50.0, 2, 0, 1.092650833829482),
    ],
)

# mean_iterations of each RUN_MASKED row (completion plus refinement sweeps),
# compared exactly: a completion change that moves any sweep count fails.
RUN_MASKED_ITERATIONS = [102.0, 49.5, 49.5, 50.5]

# Exact angles with noisy ranges: the branch of `synthesize` that copies the
# true azimuths and elevations. sigma_d = 0 is not pinned: its xi is about
# 1e-14 m, so a relative tolerance of 1e-9 would not hold across BLAS builds.
EXACT_ANGLES = (
    ["run", "--sigma-d", "1", "--epsilon", "0", "--trials", "3", "--seed", "13"],
    ("scenario", "algorithm", "sigma_d_m", "epsilon_deg"),
    [
        ("I", "smds", 1.0, 0.0, 3, 0, 0.11778745313442714),
        ("I", "qdsmds", 1.0, 0.0, 3, 0, 0.1536271212411797),
        ("I", "mrc", 1.0, 0.0, 3, 0, 0.16083403331820015),
        ("I", "mrciter", 1.0, 0.0, 3, 0, 0.15330947125263059),
        ("II", "smds", 1.0, 0.0, 3, 0, 0.1268239524488183),
        ("II", "qdsmds", 1.0, 0.0, 3, 0, 0.12682395244881842),
        ("II", "mrc", 1.0, 0.0, 3, 0, 0.1254340189766691),
        ("II", "mrciter", 1.0, 0.0, 3, 0, 0.12803520976161376),
    ],
)

CONVERGE = (
    ["converge", "--sigma-d", "2", "--epsilon", "30", "--tau-max", "5",
     "--trials", "3", "--seed", "3"],
    ("sigma_d_m", "epsilon_deg", "tau"),
    [
        (2.0, 30.0, 0, 3, 0, 0.8495170862948157),
        (2.0, 30.0, 1, 3, 0, 0.6799110647889068),
        (2.0, 30.0, 2, 3, 0, 0.7310636353122667),
        (2.0, 30.0, 3, 3, 0, 0.6827871104888583),
        (2.0, 30.0, 4, 3, 0, 0.7167228034347017),
        (2.0, 30.0, 5, 3, 0, 0.6870184525095228),
    ],
)


def _parse(value):
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        return value


@pytest.mark.parametrize("argv, keys, expected, iterations",
                         [RUN_GRID + (None,), RUN_MASKED + (RUN_MASKED_ITERATIONS,),
                          EXACT_ANGLES + (None,), CONVERGE + (None,)],
                         ids=["run-grid", "run-masked", "exact-angles", "converge"])
def test_cli_results_match_pinned_rows(tmp_path, argv, keys, expected, iterations):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    got = [
        tuple(_parse(row[c]) for c in keys + ("trials_ok", "trials_failed"))
        + (float(row["mean_xi_m"]),)
        for row in rows
    ]
    assert [row[:-1] for row in got] == [row[:-1] for row in expected]
    assert [row[-1] for row in got] == pytest.approx(
        [row[-1] for row in expected], rel=1e-9, abs=0)
    if iterations is not None:
        assert [float(row["mean_iterations"]) for row in rows] == iterations
