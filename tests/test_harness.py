import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmds import errors, gek, harness
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
from qmds.solvers import Estimate

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
    with pytest.raises(ShapeMismatch):
        metric_xi(np.zeros((3, 3)), np.zeros((4, 3)))


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
        for algorithm in ("smds", "qdsmds", "mrc", "mrciter"):
            res = run_trial(cfg, scenario, algorithm, 0.0, 0.0, 0)
            assert res.ok
            assert res.xi < 1e-6, (scenario, algorithm)


def test_tiny_sigma_trial_matches_zero_sigma():
    # round(sigma_d * 1e6) keys both trials alike, and a ranging std of
    # 1e-160 m draws nothing, so every algorithm gives the noiseless answer.
    cfg = small_config()
    for scenario in ("I", "II"):
        for algorithm in ("smds", "qdsmds", "mrc", "mrciter"):
            tiny = run_trial(cfg, scenario, algorithm, 1e-160, 10.0, 1)
            exact = run_trial(cfg, scenario, algorithm, 0.0, 10.0, 1)
            assert tiny.ok and tiny.xi == exact.xi, (scenario, algorithm)


def test_trial_deterministic():
    cfg = small_config()
    a = run_trial(cfg, "II", "qdsmds", 1.0, 30.0, 3)
    b = run_trial(cfg, "II", "qdsmds", 1.0, 30.0, 3)
    assert a == b


def test_trials_are_paired_across_algorithms():
    # Same key, different solver: the drawn geometry and measurements agree,
    # so the closed-form and tau=0 iterative solvers return identical errors.
    cfg = small_config()
    mrc = run_trial(cfg, "II", "mrc", 2.0, 40.0, 5)
    it0 = run_trial(small_config(tau_max=0), "II", "mrciter", 2.0, 40.0, 5)
    assert mrc.xi == it0.xi


def test_trial_index_changes_draws():
    cfg = small_config()
    a = run_trial(cfg, "II", "qdsmds", 1.0, 30.0, 0)
    b = run_trial(cfg, "II", "qdsmds", 1.0, 30.0, 1)
    assert a.xi != b.xi


def test_trial_timing_column():
    cfg = small_config(timing="wall")
    res = run_trial(cfg, "II", "qdsmds", 1.0, 30.0, 0)
    assert res.wall_ms is not None and res.wall_ms > 0
    assert run_trial(small_config(), "II", "qdsmds", 1.0, 30.0, 0).wall_ms is None


def test_trial_masked_completion_path():
    cfg = small_config(missing_fraction=0.3, scenarios=("II",))
    res = run_trial(cfg, "II", "qdsmds", 0.0, 0.0, 2)
    assert res.ok
    assert res.xi < 1e-2
    assert res.iterations > 0


def test_mrciter_reports_sweeps():
    cfg = small_config(tau_max=3)
    res = run_trial(cfg, "II", "mrciter", 1.0, 20.0, 0)
    assert res.iterations == 3


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
    xis = [run_trial(cfg, "II", "qdsmds", 1.5, 20.0, t).xi for t in range(5)]
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
    # same result that a one-algorithm instance gives, bit for bit.
    cfg = small_config(**grid)
    expected = []
    for cell in product(cfg.scenarios, cfg.algorithms, cfg.sigma_d_grid,
                        cfg.epsilon_grid):
        trials = [run_trial(cfg, *cell, t) for t in range(cfg.trials)]
        expected.append(_aggregate_cell(cfg, *cell, trials))
    assert run_grid(cfg) == expected


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
    instance = harness._Instance(cfg, "II", 2.0, 50.0, 0)
    results = {a: instance.run(a) for a in cfg.algorithms}
    assert results["smds"].ok
    errors = {results[a].error for a in ("qdsmds", "mrc", "mrciter")}
    assert errors == {"RankDeficient: completion collapsed"}
    # the text a one-algorithm trial records alone
    assert errors == {run_trial(cfg, "II", "mrc", 2.0, 50.0, 0).error}


def test_wall_time_adds_shared_stages():
    # In Scenario I every quaternion path contains the smds path (real
    # kernel and stage one), timed once and counted in full for each.
    cfg = small_config(timing="wall")
    instance = harness._Instance(cfg, "I", 1.0, 30.0, 0)
    results = {a: instance.run(a) for a in cfg.algorithms}
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
    res = run_trial(cfg, "II", "mrc", 1.0, 10.0, 0)
    assert res.error.startswith("DegenerateEdge: no generic target placement")
    conv = run_convergence(small_config(**DEGENERATE_ROOM, tau_max=2))
    assert all((r["trials_ok"], r["trials_failed"]) == (0, 2) for r in conv)


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
    assert run_trial(cfg, "II", "smds", 1.0, 30.0, 0).error == error


@pytest.mark.parametrize("solver", [nan_estimate, singular], ids=["nan", "linalg"])
def test_bad_trajectory_is_a_failed_convergence_trial(monkeypatch, solver):
    def iterative(kq, anchors, structure, tau_max):
        est = solver(kq, anchors, structure)
        trajectory = np.stack([est.targets] * (tau_max + 1))
        return Estimate(est.targets, {"trajectory": trajectory})

    monkeypatch.setattr(harness, "qd_mrc_smds_iterative", iterative)
    rows = run_convergence(small_config(sigma_d_grid=(1.0,),
                                        epsilon_grid=(30.0,), trials=2, tau_max=1))
    assert [(r["trials_ok"], r["mean_xi_m"]) for r in rows] == [(0, None)] * 2


# ---- degenerate inputs ----


grid_points = st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 10))


@st.composite
def degenerate_configs(draw):
    """Four anchors (all in one horizontal plane when the flag is drawn),
    1-3 targets, noise up to sigma_d 100 m and eps 161.9 deg, and in
    Scenario II up to 97% of the kernel hidden."""
    anchors = draw(st.lists(grid_points, min_size=4, max_size=4))
    if draw(st.booleans()):
        anchors = [(x, y, anchors[0][2]) for x, y, _ in anchors]
    assume(len(set(anchors)) == 4)
    scenario = draw(st.sampled_from(harness.SCENARIOS))
    return ExperimentConfig(
        anchors=anchors, n_targets=draw(st.integers(1, 3)), scenarios=(scenario,),
        missing_fraction=draw(st.floats(0.0, 0.97)) if scenario == "II" else 0.0,
        sigma_d_grid=(draw(st.floats(0.0, 100.0)),),
        # below about 0.0094 deg the config itself raises OutOfRange
        epsilon_grid=(draw(st.one_of(st.just(0.0), st.floats(0.01, 161.9))),),
        trials=1, master_seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=30, deadline=None)
@given(degenerate_configs())
def test_every_trial_is_finite_or_a_typed_failure(cfg):
    (scenario,), (sigma_d,), (epsilon,) = cfg.scenarios, cfg.sigma_d_grid, cfg.epsilon_grid
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", errors.NonConvergenceWarning)
        for algorithm in harness.ALGORITHMS:
            res = run_trial(cfg, scenario, algorithm, sigma_d, epsilon, 0)
            if res.ok:
                assert np.isfinite(res.xi)
            else:
                name = res.error.split(":")[0]
                assert issubclass(getattr(errors, name, type(None)), errors.QmdsError), \
                    res.error
