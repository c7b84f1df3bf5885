import ast
import warnings
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmds import errors, gek, harness
from qmds.completion import complete_quat_gek, complete_real_gek
from qmds.errors import DegenerateAnchors, OutOfRange, RankDeficient, ShapeMismatch
from qmds.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    _aggregate_cell,
    config_from_mapping,
    metric_xi,
    run_convergence,
    run_grid,
    run_trial,
    write_csv,
)
from qmds.solvers import Estimate, _stage_two_kernel, smds

SMALL = dict(n_targets=6, trials=4)


def small_config(**overrides):
    kwargs = {**SMALL, **overrides}
    return ExperimentConfig(**kwargs)


# ---- metric ----


def test_metric_zero_on_match():
    x = np.arange(12.0).reshape(4, 3)
    assert metric_xi(x, x) == 0.0


def test_metric_single_row():
    assert metric_xi(np.array([[1.0, 0, 0]]), np.zeros((1, 3))) == pytest.approx(1.0)


def test_metric_closed_form():
    true = np.zeros((4, 3))
    hat = true + np.array([0.0, 0.0, 2.0])
    assert metric_xi(hat, true) == pytest.approx(1.0)


def test_metric_shape_mismatch():
    for x_hat, x_true in [
        (np.zeros((3, 3)), np.zeros((4, 3))),
        (np.array([1.0, 0, 0]), np.zeros(3)),  # one target, not three
        (np.zeros((0, 3)), np.zeros((0, 3))),  # no target to divide by
    ]:
        with pytest.raises(ShapeMismatch):
            metric_xi(x_hat, x_true)


def test_metric_passes_nan_through():
    # a non-finite estimate is the caller's failure to report, not a shape error
    assert np.isnan(metric_xi(np.full((2, 3), np.nan), np.zeros((2, 3))))


# ---- config validation ----


def test_default_config_is_paper_setup():
    cfg = ExperimentConfig()
    assert cfg.room == (30.0, 30.0, 10.0)
    assert cfg.n_targets == 15
    assert len(cfg.anchors) == 5
    assert cfg.epsilon_grid == (10.0, 20.0, 30.0, 40.0, 50.0)
    assert cfg.sigma_d_grid[0] == pytest.approx(0.2)
    assert cfg.sigma_d_grid[-1] == pytest.approx(4.0)
    assert len(cfg.sigma_d_grid) == 20


@pytest.mark.parametrize(
    "bad",
    [
        dict(trials=0),
        dict(missing_fraction=1.0),
        dict(missing_fraction=-0.1),
        dict(scenarios=("III",)),
        dict(algorithms=("gradient_descent",)),
        dict(epsilon_grid=(170.0,)),
        dict(sigma_d_grid=()),
        dict(tau_max=-1),
        dict(timing="cpu"),
        dict(n_targets=0),
        dict(master_seed=-3),
        dict(epsilon_grid=(0.005,)),
        dict(epsilon_grid=()),
    ],
)
def test_config_rejects_bad_values(bad):
    with pytest.raises(OutOfRange):
        ExperimentConfig(**bad)


def test_config_rejects_coincident_anchors():
    with pytest.raises(DegenerateAnchors):
        ExperimentConfig(anchors=((0, 0, 0), (0, 0, 0), (1, 1, 1), (2, 0, 1)))


def test_masking_requires_scenario_two():
    with pytest.raises(OutOfRange):
        ExperimentConfig(missing_fraction=0.3, scenarios=("I", "II"))
    cfg = ExperimentConfig(missing_fraction=0.3, scenarios=("II",))
    assert cfg.missing_fraction == 0.3


def test_config_from_mapping_round_trip():
    cfg = config_from_mapping(
        {
            "scenarios": ["II"],
            "algorithms": ["smds", "qdsmds"],
            "sigma_d_grid": [1.0, 2.0],
            "epsilon_grid": [30.0],
            "trials": 7,
            "master_seed": 99,
        }
    )
    assert cfg.scenarios == ("II",)
    assert cfg.trials == 7
    assert cfg.master_seed == 99


def test_config_from_mapping_rejects_unknown_key():
    with pytest.raises(OutOfRange):
        config_from_mapping({"trails": 10})


# ---- trials ----


def test_trial_noiseless_every_algorithm():
    cfg = small_config()
    for scenario in ("I", "II"):
        results = run_trial(cfg, scenario, 0.0, 0.0, 0)
        assert list(results) == list(harness.ALGORITHMS)
        for algorithm, res in results.items():
            assert res.ok
            assert res.xi < 1e-6, (scenario, algorithm)


def test_tiny_sigma_trial_matches_zero_sigma():
    # round(sigma_d * 1e6) keys both trials alike, and a ranging std of
    # 1e-160 m draws nothing, so every algorithm gives the noiseless answer.
    cfg = small_config()
    for scenario in ("I", "II"):
        tiny = run_trial(cfg, scenario, 1e-160, 10.0, 1)
        exact = run_trial(cfg, scenario, 0.0, 10.0, 1)
        for algorithm in harness.ALGORITHMS:
            assert tiny[algorithm].ok, (scenario, algorithm)
            assert tiny[algorithm].xi == exact[algorithm].xi, (scenario, algorithm)


def test_trial_deterministic():
    cfg = small_config()
    a = run_trial(cfg, "II", 1.0, 30.0, 3)
    b = run_trial(cfg, "II", 1.0, 30.0, 3)
    assert a == b


def test_trials_are_paired_across_algorithms():
    # Same key, different solver: the drawn geometry and measurements agree,
    # so the closed-form and tau=0 iterative solvers return identical errors.
    cfg = small_config()
    mrc = run_trial(cfg, "II", 2.0, 40.0, 5)["mrc"]
    it0 = run_trial(small_config(tau_max=0), "II", 2.0, 40.0, 5)["mrciter"]
    assert mrc.xi == it0.xi


def test_trial_index_changes_draws():
    cfg = small_config()
    a = run_trial(cfg, "II", 1.0, 30.0, 0)["qdsmds"]
    b = run_trial(cfg, "II", 1.0, 30.0, 1)["qdsmds"]
    assert a.xi != b.xi


@pytest.mark.parametrize("key, error", [
    (("III", 1.0, 30.0, 0), "scenario"),
    (("II", np.nan, 30.0, 0), "sigma_d"),
    (("II", -1.0, 30.0, 0), "sigma_d"),
    (("II", np.inf, 30.0, 0), "sigma_d"),
    (("II", 1.0, np.nan, 0), "epsilon"),
    (("II", 1.0, -3, 0), "epsilon"),
    (("II", 1.0, 30.0, 2.5), "trial_index"),
    (("II", 1.0, 30.0, -3), "trial_index"),
    (("II", "1", 30.0, 0), "sigma_d"),
    (("II", 1.0, None, 0), "epsilon"),
], ids=["scenario", "nan-sigma", "negative-sigma", "inf-sigma", "nan-epsilon",
        "negative-epsilon", "fractional-index", "negative-index", "str-sigma",
        "none-epsilon"])
def test_trial_rejects_a_key_no_seed_is_built_from(key, error):
    # These failed untyped while the seed key was built: SCENARIOS.index's
    # ValueError, int(round(nan)), int(round(inf)), or SeedSequence's
    # TypeError and ValueError; a str or None noise level raised TypeError.
    with pytest.raises(OutOfRange, match=error):
        run_trial(small_config(), *key)


def test_trial_timing_column():
    cfg = small_config(timing="wall", algorithms=("qdsmds",))
    res = run_trial(cfg, "II", 1.0, 30.0, 0)["qdsmds"]
    assert res.wall_ms is not None and res.wall_ms > 0
    untimed = replace(cfg, timing="off")
    assert run_trial(untimed, "II", 1.0, 30.0, 0)["qdsmds"].wall_ms is None


def test_trial_masked_completion_path():
    cfg = small_config(missing_fraction=0.3, scenarios=("II",), algorithms=("qdsmds",))
    res = run_trial(cfg, "II", 0.0, 0.0, 2)["qdsmds"]
    assert res.ok
    assert res.xi < 1e-2
    assert res.iterations > 0


def test_mrciter_reports_sweeps():
    results = run_trial(small_config(tau_max=3), "II", 1.0, 20.0, 0)
    res = results["mrciter"]
    assert res.iterations == 3
    # xi after sweeps 0..3, the last one the estimate's own
    assert len(res.sweep_xi) == 4 and res.sweep_xi[-1] == pytest.approx(res.xi)
    assert all(results[a].sweep_xi == () for a in ("smds", "qdsmds", "mrc"))


# ---- grid ----


def test_grid_row_per_cell_and_order():
    cfg = small_config(
        scenarios=("II",),
        algorithms=("smds", "mrc"),
        sigma_d_grid=(1.0, 2.0),
        epsilon_grid=(30.0,),
        trials=2,
    )
    rows = run_grid(cfg)
    assert len(rows) == 4
    assert [(r["algorithm"], r["sigma_d_m"]) for r in rows] == [
        ("smds", 1.0), ("smds", 2.0), ("mrc", 1.0), ("mrc", 2.0)
    ]
    for row in rows:
        assert row["trials_ok"] == 2
        assert row["trials_failed"] == 0
        assert row["mean_xi_m"] > 0


def test_grid_mean_matches_trials():
    cfg = small_config(
        scenarios=("II",), algorithms=("qdsmds",),
        sigma_d_grid=(1.5,), epsilon_grid=(20.0,), trials=5,
    )
    rows = run_grid(cfg)
    xis = [run_trial(cfg, "II", 1.5, 20.0, t)["qdsmds"].xi for t in range(5)]
    assert rows[0]["mean_xi_m"] == pytest.approx(np.mean(xis), abs=1e-12)
    assert rows[0]["std_xi_m"] == pytest.approx(np.std(xis, ddof=1), abs=1e-12)


def test_single_trial_std_is_zero():
    cfg = small_config(
        scenarios=("II",), algorithms=("mrc",),
        sigma_d_grid=(1.0,), epsilon_grid=(10.0,), trials=1,
    )
    rows = run_grid(cfg)
    assert rows[0]["std_xi_m"] == 0.0


# ---- CSV ----


def test_csv_byte_identical(tmp_path):
    cfg = small_config(
        scenarios=("II",), algorithms=("smds", "qdsmds"),
        sigma_d_grid=(1.0,), epsilon_grid=(30.0,), trials=3,
        master_seed=7,
    )
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_grid(cfg), str(p1))
    write_csv(run_grid(cfg), str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.decode().splitlines()[0] == ",".join(CSV_COLUMNS)


def test_csv_empty_wall_column_when_timing_off(tmp_path):
    cfg = small_config(
        scenarios=("II",), algorithms=("mrc",),
        sigma_d_grid=(1.0,), epsilon_grid=(10.0,), trials=1,
    )
    path = tmp_path / "out.csv"
    write_csv(run_grid(cfg), str(path))
    header, row = path.read_text().splitlines()
    assert header.split(",")[-1] == "mean_wall_ms"
    assert row.endswith(",")


def test_csv_floats_round_trip(tmp_path):
    rows = [{c: None for c in CSV_COLUMNS}]
    rows[0].update(scenario="II", algorithm="mrc", sigma_d_m=0.30000000000000004,
                   epsilon_deg=50.0, missing_fraction=0.0, trials_ok=1,
                   trials_failed=0, mean_xi_m=1 / 3, std_xi_m=0.0,
                   mean_iterations=0.0)
    path = tmp_path / "f.csv"
    write_csv(rows, str(path))
    text = path.read_text()
    assert "0.30000000000000004" in text
    assert repr(1 / 3) in text


# ---- convergence ----


def test_convergence_rows_and_monotone_start():
    cfg = small_config(
        sigma_d_grid=(2.0,), epsilon_grid=(30.0,), trials=6, tau_max=3,
    )
    rows = run_convergence(cfg)
    assert len(rows) == 4
    assert [r["tau"] for r in rows] == [0, 1, 2, 3]
    assert all(r["trials_ok"] == 6 for r in rows)
    # one sweep never hurts on average at this noise level
    assert rows[1]["mean_xi_m"] <= rows[0]["mean_xi_m"] * 1.05


def test_convergence_stabilizes():
    # Under noise the sweeps settle near a fixed point but keep drifting by
    # a few percent; the mean error must stop moving in any one direction.
    cfg = small_config(
        sigma_d_grid=(2.0,), epsilon_grid=(30.0,), trials=4, tau_max=5,
    )
    rows = run_convergence(cfg)
    late = [r["mean_xi_m"] for r in rows if r["tau"] >= 3]
    assert max(late) - min(late) < 0.05 * max(late)


def test_convergence_completes_masked_kernel():
    grid = dict(scenarios=("II",), sigma_d_grid=(2.0,), epsilon_grid=(30.0,),
                trials=2, tau_max=2)
    plain = run_convergence(small_config(**grid))
    masked = run_convergence(small_config(missing_fraction=0.5, **grid))
    assert [r["trials_ok"] for r in masked] == [2, 2, 2]
    assert [r["mean_xi_m"] for r in masked] != [r["mean_xi_m"] for r in plain]


# ---- shared trial instance ----


PAIRED_GRIDS = [
    dict(scenarios=("I", "II"), sigma_d_grid=(1.0, 3.0),
         epsilon_grid=(10.0, 50.0), trials=3, master_seed=11),
    dict(scenarios=("II",), missing_fraction=0.3, sigma_d_grid=(2.0,),
         epsilon_grid=(50.0,), trials=2, master_seed=5),
]


@pytest.mark.parametrize("grid", PAIRED_GRIDS, ids=["direct", "masked"])
def test_grid_rows_equal_per_algorithm_trials(grid):
    # Pairing is structural: the shared instance gives every algorithm the
    # same record that a one-algorithm instance gives, field for field and
    # bit for bit (repr prints each float exactly, a failed trial's NaN too),
    # and the grid's rows aggregate those records.
    cfg = small_config(**grid)
    alone: dict[tuple, list] = {}
    for scenario, sigma_d, epsilon in product(cfg.scenarios, cfg.sigma_d_grid,
                                              cfg.epsilon_grid):
        for t in range(cfg.trials):
            shared = run_trial(cfg, scenario, sigma_d, epsilon, t)
            for a in cfg.algorithms:
                one = replace(cfg, algorithms=(a,))
                record = run_trial(one, scenario, sigma_d, epsilon, t)[a]
                assert repr(shared[a]) == repr(record), (scenario, a, t)
                alone.setdefault((scenario, a, sigma_d, epsilon), []).append(record)
    expected = [_aggregate_cell(cfg, *cell, alone[cell])
                for cell in product(cfg.scenarios, cfg.algorithms,
                                    cfg.sigma_d_grid, cfg.epsilon_grid)]
    assert run_grid(cfg) == expected


def calls_in(path: Path) -> list[tuple[str, tuple[str, ...], int]]:
    """Every call in a source file: its dotted callee, the names of the
    classes and functions around it, and its line."""
    found = []

    def visit(node, scopes):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                found.append((ast.unparse(child.func), scopes, child.lineno))
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
            visit(child, scopes + (child.name,) if named else scopes)

    visit(ast.parse(path.read_text()), ())
    return found


def test_only_run_trial_builds_an_instance():
    # One per-instance path: run_grid and run_convergence reach a seed key's
    # instance through run_trial, and only the instance builds its pieces.
    stray = []
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        for callee, scopes, line in calls_in(path):
            where = f"{path.name}:{line} in {'.'.join(scopes) or 'the module'}"
            if (callee.split(".")[-1] == "_Instance"
                    and (path.name, scopes) != ("harness.py", ("run_trial",))):
                stray.append(f"{where} builds an _Instance")
            if (callee.endswith("._piece")
                    and (path.name, scopes[:1]) != ("harness.py", ("_Instance",))):
                stray.append(f"{where} calls _piece")
    assert not stray


def counting(monkeypatch, name):
    calls = []
    original = getattr(harness, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, wrapper)
    return calls


def test_grid_builds_each_piece_once_per_instance(monkeypatch):
    names = ("synthesize", "build_real_gek", "smds", "complete_real_gek",
             "complete_quat_gek")
    calls = {name: counting(monkeypatch, name) for name in names}
    # a kernel builder that builds its own real part is counted as well
    monkeypatch.setattr(gek, "build_real_gek", harness.build_real_gek)
    # Both scenarios, 2 x 2 x 3 instances. In Scenario I the smds estimate
    # is both the smds result and stage one of all three quaternion solvers;
    # in both, one real kernel per instance feeds every kernel piece.
    run_grid(small_config(sigma_d_grid=(1.0, 2.0), epsilon_grid=(30.0,),
                          trials=3))
    assert len(calls["synthesize"]) == 2 * 2 * 3
    assert len(calls["build_real_gek"]) == 2 * 2 * 3
    assert len(calls["smds"]) == 2 * 2 * 3
    assert not calls["complete_real_gek"] and not calls["complete_quat_gek"]
    # Scenario II alone, unmasked and masked.
    for fraction, completions in ((0.0, 0), (0.3, 2)):
        for found in calls.values():
            found.clear()
        run_grid(small_config(scenarios=("II",), missing_fraction=fraction,
                              sigma_d_grid=(2.0,), epsilon_grid=(50.0,),
                              trials=2))
        assert {name: len(found) for name, found in calls.items()} == {
            "synthesize": 2, "build_real_gek": 2, "smds": 2,
            "complete_real_gek": completions, "complete_quat_gek": completions,
        }


def test_shared_piece_failure_fails_each_user_alike(monkeypatch):
    calls = []

    def broken(kq):
        calls.append(kq)
        raise RankDeficient("completion collapsed")

    monkeypatch.setattr(harness, "complete_quat_gek", broken)
    cfg = small_config(scenarios=("II",), missing_fraction=0.3,
                       sigma_d_grid=(2.0,), epsilon_grid=(50.0,), trials=2)
    rows = run_grid(cfg)
    assert [(r["algorithm"], r["trials_failed"]) for r in rows] == [
        ("smds", 0), ("qdsmds", 2), ("mrc", 2), ("mrciter", 2)
    ]
    assert len(calls) == 2  # one attempt per instance, its error kept
    results = run_trial(cfg, "II", 2.0, 50.0, 0)
    assert results["smds"].ok
    errors = {results[a].error for a in ("qdsmds", "mrc", "mrciter")}
    assert errors == {"RankDeficient: completion collapsed"}
    # the text a one-algorithm trial records alone
    mrc = replace(cfg, algorithms=("mrc",))
    assert errors == {run_trial(mrc, "II", 2.0, 50.0, 0)["mrc"].error}


def test_wall_time_adds_shared_stages():
    # In Scenario I every quaternion path contains the smds path (real
    # kernel and stage one), timed once and counted in full for each.
    cfg = small_config(timing="wall")
    results = run_trial(cfg, "I", 1.0, 30.0, 0)
    for algorithm in ("qdsmds", "mrc", "mrciter"):
        assert results[algorithm].wall_ms > results["smds"].wall_ms > 0


# ---- failures stay inside the trial ----


DEGENERATE_ROOM = dict(room=(1e-13, 1e-13, 10.0), sigma_d_grid=(1.0,),
                       epsilon_grid=(10.0,), trials=2)


def test_geometry_failure_fails_the_cell_not_the_grid():
    cfg = small_config(**DEGENERATE_ROOM)
    rows = run_grid(cfg)
    assert len(rows) == 8
    assert all((r["trials_ok"], r["trials_failed"]) == (0, 2) for r in rows)
    assert all(r["mean_xi_m"] is None for r in rows)
    res = run_trial(cfg, "II", 1.0, 10.0, 0)["mrc"]
    assert res.error.startswith("DegenerateEdge: no generic target placement")
    conv = run_convergence(small_config(**DEGENERATE_ROOM, tau_max=2))
    assert all((r["trials_ok"], r["trials_failed"]) == (0, 2) for r in conv)


class CountingRng:
    """A generator that counts its `uniform` draws."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), 0

    def uniform(self, *args, **kwargs):
        self.draws += 1
        return self.rng.uniform(*args, **kwargs)


def test_degenerate_geometry_fails_after_one_draw():
    cfg = small_config(**DEGENERATE_ROOM)
    structure = harness.structure_matrices(len(cfg.anchors), cfg.n_targets)
    rng = CountingRng(0)
    with pytest.raises(errors.DegenerateEdge, match="^no generic target placement"):
        harness._sample_geometry(cfg, structure, rng)
    assert rng.draws == 1


def nan_estimate(kr, anchors, structure):
    return Estimate(np.full((structure.n_targets, 3), np.nan), {})


def singular(kr, anchors, structure):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("solver, error", [
    (nan_estimate, "OutOfRange: estimate is not finite: xi = nan"),
    (singular, "LinAlgError: Eigenvalues did not converge"),
], ids=["nan", "linalg"])
def test_bad_solver_output_is_a_failed_trial(monkeypatch, solver, error):
    monkeypatch.setattr(harness, "smds", solver)
    cfg = small_config(scenarios=("II",), algorithms=("smds", "mrc"),
                       sigma_d_grid=(1.0,), epsilon_grid=(30.0,), trials=2)
    rows = run_grid(cfg)
    assert [(r["trials_ok"], r["trials_failed"]) for r in rows] == [(0, 2), (2, 0)]
    assert run_trial(cfg, "II", 1.0, 30.0, 0)["smds"].error == error


def every_sweep(solver):
    """A quaternion solve whose every sweep returns `solver`'s estimate."""
    def solve(kq, anchors, structure, tau_max):
        est = solver(kq, anchors, structure)
        trajectory = np.stack([est.targets] * (tau_max + 1))
        return Estimate(est.targets, {"tau": tau_max, "trajectory": trajectory})
    return solve


def nan_middle_sweep(kq, anchors, structure, tau_max):
    """A finite first and last sweep around non-finite middle ones."""
    trajectory = np.zeros((tau_max + 1, structure.n_targets, 3))
    trajectory[1:-1] = np.nan
    return Estimate(trajectory[-1], {"tau": tau_max, "trajectory": trajectory})


@pytest.mark.parametrize("solve, error", [
    (every_sweep(nan_estimate), "OutOfRange: estimate is not finite: xi = nan"),
    (every_sweep(singular), "LinAlgError: Eigenvalues did not converge"),
    # the final estimate is finite, so the record names the first bad sweep
    (nan_middle_sweep, "OutOfRange: estimate is not finite: sweep 1 xi = nan"),
], ids=["nan", "linalg", "nan-middle-sweep"])
def test_bad_trajectory_is_a_failed_convergence_trial(monkeypatch, solve, error):
    monkeypatch.setitem(harness._QUAT_SOLVERS, "mrciter", solve)
    grid = dict(sigma_d_grid=(1.0,), epsilon_grid=(30.0,), trials=2, tau_max=2)
    rows = run_convergence(small_config(**grid))
    assert [(r["trials_ok"], r["mean_xi_m"]) for r in rows] == [(0, None)] * 3
    cfg = small_config(scenarios=("II",), algorithms=("mrciter",), **grid)
    rows = run_grid(cfg)
    assert [(r["trials_ok"], r["trials_failed"]) for r in rows] == [(0, 2)]
    assert run_trial(cfg, "II", 1.0, 30.0, 0)["mrciter"].error == error


# ---- degenerate inputs ----


grid_points = st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 10))


@st.composite
def degenerate_configs(draw, max_missing=0.97):
    """Four anchors (all in one horizontal plane when the flag is drawn),
    1-3 targets, noise up to sigma_d 100 m and eps 161.9 deg, and in
    Scenario II up to `max_missing` of the kernel hidden."""
    anchors = draw(st.lists(grid_points, min_size=4, max_size=4))
    if draw(st.booleans()):
        anchors = [(x, y, anchors[0][2]) for x, y, _ in anchors]
    assume(len(set(anchors)) == 4)
    scenario = draw(st.sampled_from(harness.SCENARIOS))
    return ExperimentConfig(
        anchors=anchors, n_targets=draw(st.integers(1, 3)), scenarios=(scenario,),
        missing_fraction=draw(st.floats(0.0, max_missing)) if scenario == "II" else 0.0,
        sigma_d_grid=(draw(st.floats(0.0, 100.0)),),
        # below about 0.0094 deg the config itself raises OutOfRange
        epsilon_grid=(draw(st.one_of(st.just(0.0), st.floats(0.01, 161.9))),),
        trials=1, master_seed=draw(st.integers(0, 2**32 - 1)),
    )


def assert_typed_failure(res):
    name = res.error.split(":")[0]
    assert issubclass(getattr(errors, name, type(None)), errors.QmdsError), res.error


@settings(max_examples=30, deadline=None)
@given(degenerate_configs())
def test_every_trial_is_finite_or_a_typed_failure(cfg):
    (scenario,), (sigma_d,), (epsilon,) = cfg.scenarios, cfg.sigma_d_grid, cfg.epsilon_grid
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", errors.NonConvergenceWarning)
        for res in run_trial(cfg, scenario, sigma_d, epsilon, 0).values():
            if res.ok:
                assert np.isfinite(res.xi)
            else:
                assert_typed_failure(res)


def _is_hermitian(gek_):
    """Exact Hermitian test: K = K^T for the real kernel, A = A^H and
    B = -B^T for the quaternion kernel."""
    if isinstance(gek_, gek.RealGek):
        return np.array_equal(gek_.k, gek_.k.T)
    a, b = gek_.k.a, gek_.k.b
    return np.array_equal(a, a.conj().T) and np.array_equal(b, -b.T)


@settings(max_examples=30, deadline=None)
@given(degenerate_configs(max_missing=0.6))
def test_every_library_kernel_is_hermitian_to_the_bit(cfg):
    # The kernel types reject a kernel that is not Hermitian to the bit, so
    # every path that hands a kernel to a solver must build one. A draw
    # stops at the first piece that raises a typed error, unless that error
    # is the Hermitian contract itself.
    (scenario,), (sigma_d,), (epsilon,) = cfg.scenarios, cfg.sigma_d_grid, cfg.epsilon_grid
    instance = harness._Instance(cfg, scenario, sigma_d, epsilon, 0)
    structure = instance.structure
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", errors.NonConvergenceWarning)
        try:
            geometry, ms, mask = instance.data()
            kr = gek.build_real_gek(ms)
            assert _is_hermitian(kr)
            if scenario == "I":
                est = smds(kr, geometry.anchors, structure)
                assert _is_hermitian(_stage_two_kernel(
                    ms, kr, geometry.anchors, est.targets, structure))
                return
            kq = gek.quat_gek_from_measurements(ms)
            assert _is_hermitian(kq)
            if mask is None:
                return
            for masked, complete in ((gek.apply_mask(kr, mask), complete_real_gek),
                                     (gek.apply_mask(kq, mask), complete_quat_gek)):
                assert _is_hermitian(masked)
                assert _is_hermitian(complete(masked)[0])
        except errors.QmdsError as exc:
            if "Hermitian" in str(exc):
                raise


@st.composite
def exact_networks(draw):
    """4-7 distinct anchors on the integer grid (all in one horizontal plane
    when the flag is drawn), 1-20 targets and exact, unmasked data in either
    scenario."""
    anchors = draw(st.lists(grid_points, min_size=4, max_size=7, unique=True))
    if draw(st.booleans()):
        anchors = [(x, y, anchors[0][2]) for x, y, _ in anchors]
    assume(len(set(anchors)) == len(anchors))
    return ExperimentConfig(
        anchors=anchors, n_targets=draw(st.integers(1, 20)),
        scenarios=(draw(st.sampled_from(harness.SCENARIOS)),),
        sigma_d_grid=(0.0,), epsilon_grid=(0.0,), trials=1,
        master_seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=300, deadline=None)
@given(exact_networks())
def test_exact_data_is_recovered_or_a_typed_failure(cfg):
    # Without noise every solver must return the true targets, unless the
    # network itself is unsolvable (coplanar anchors), which a typed error says.
    for algorithm, res in run_trial(cfg, cfg.scenarios[0], 0.0, 0.0, 0).items():
        if res.ok:
            assert res.xi < 1e-6, (algorithm, res.xi)
        else:
            assert_typed_failure(res)
