"""Acceptance gate: ten numbered criteria, one test and one verdict line each.

Every criterion prints `[criterion N] PASS/FAIL <measurements>` before its
assertions, so `pytest -v -s` (or any failure) shows the measured margins
next to the pinned tolerances. Criterion 4 splits in two: the error-level
clause (4a) and the per-trial fixed-point residual clause (4b). Near its
fixed point the refinement map contracts at a per-sweep rate rho, the
anchor-target share of the edge energy (about 0.8 in the test room; see
FIXED_POINT_SWEEPS). 4b holds every trial to a 1e-6 relative iterate change
in two clauses: on noisy trials after a sweep budget that rho shows to be
enough, and on noiseless trials after one sweep, since there the closed-form
start is already the fixed point.
"""

import json
import time
import warnings

import numpy as np
import pytest

from qmds.cli import main as cli_main
from qmds.errors import NonConvergenceWarning
from qmds.harness import ExperimentConfig, metric_xi, run_trial
from qmds.measurement import (
    NoiseConfig,
    _sample_angle,
    _sample_distance,
    epsilon_to_rho,
    synthesize,
)
from qmds.network import NetworkGeometry, structure_matrices, true_parameters
from qmds.quat import QuaternionMatrix, complex_adjoint, dominant_eigpair, qsvd
from qmds.gek import build_real_gek, quat_gek_from_measurements
from qmds.solvers import qd_mrc_smds_iterative
from quaternion_oracle import norm, reconstruct, sub

ROOM_ANCHORS = np.array(
    [[0, 0, 10], [30, 0, 10], [30, 30, 10], [0, 30, 10], [0, 0, 0]], dtype=float
)
N_TARGETS = 15
N_AA = 10
STRUCTURE = structure_matrices(5, N_TARGETS)

# Linearised at its rank-1 fixed point, the refinement map
# nu <- (K2^H nu_aa + K3^H nu) / (|nu_aa|^2 + |nu|^2) contracts at
# rho = |nu_at|^2 / (|nu_aa|^2 + |nu_at|^2). A trial whose first sweep moves
# the iterate by r1 reaches a change of FIXED_POINT_TOL after about
# log(FIXED_POINT_TOL / r1) / log(rho) sweeps. In the test room under noise
# r1 <= 0.32 and rho (from the true edge lengths) <= 0.84, which gives at
# most 71 sweeps.
FIXED_POINT_TOL = 1e-6
FIXED_POINT_SWEEPS = 80


def report(criterion: str, ok: bool, detail: str) -> str:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    return line


def sample_room(rng):
    """Uniform targets, redrawn while any anchor-target edge is degenerate
    (the fixed anchor edges are axis-parallel by deployment and stay so)."""
    while True:
        targets = rng.uniform([0, 0, 0], [30, 30, 10], size=(N_TARGETS, 3))
        geometry = NetworkGeometry(ROOM_ANCHORS, targets)
        params = true_parameters(geometry)
        if not params.degenerate[N_AA:].any():
            return geometry, params


def room_kernel(seed, noise):
    """A room drawn from `seed` and its scenario II quaternion kernel."""
    rng = np.random.default_rng(seed)
    geometry, params = sample_room(rng)
    ms = synthesize(params, noise, "II", rng)
    return geometry, params, quat_gek_from_measurements(ms)


def paired_cell(scenario, alg_a, alg_b, sigma, eps, trials, seed, missing=0.0):
    cfg = ExperimentConfig(
        scenarios=("II",) if missing else ("I", "II"),
        algorithms=(alg_a, alg_b),
        missing_fraction=missing,
        master_seed=seed,
    )
    xa, xb = [], []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergenceWarning)
        for t in range(trials):
            results = run_trial(cfg, scenario, sigma, eps, t)
            ra, rb = results[alg_a], results[alg_b]
            if ra.ok and rb.ok:
                xa.append(ra.xi)
                xb.append(rb.xi)
    return np.asarray(xa), np.asarray(xb)


def paired_standard_error(diffs):
    return float(diffs.std(ddof=1) / np.sqrt(diffs.size))


def test_criterion_01_qsvd_reconstruction_and_adjoint_spectrum():
    rng = np.random.default_rng(9001)
    worst_recon, worst_spec = 0.0, 0.0
    for _ in range(50):
        m, n = rng.integers(1, 21, size=2)
        q = QuaternionMatrix(
            rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)),
            rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)),
        )
        res = qsvd(q)
        recon = norm(sub(reconstruct(res), q)) / norm(q)
        adjoint_spectrum = np.linalg.svd(complex_adjoint(q), compute_uv=False)
        spec = np.max(np.abs(res.singular_values - adjoint_spectrum[1::2]))
        worst_recon = max(worst_recon, recon)
        worst_spec = max(worst_spec, spec)
    ok = worst_recon <= 1e-8 and worst_spec <= 1e-10
    detail = (
        f"50 matrices: max relative reconstruction {worst_recon:.2e} "
        f"(tol 1e-8), max odd-index spectrum deviation {worst_spec:.2e} (tol 1e-10)"
    )
    report("1", ok, detail)
    assert ok, detail


def test_criterion_02_noiseless_kernel_rank_structure():
    worst_r, worst_q, worst_top = 0.0, 0.0, 0.0
    for seed in range(100):
        rng = np.random.default_rng((9002, seed))
        _, params = sample_room(rng)
        ms_r = synthesize(params, NoiseConfig(), "I", rng)
        ms_q = synthesize(params, NoiseConfig(), "II", rng)
        s_r = np.linalg.svd(build_real_gek(ms_r).k, compute_uv=False)
        worst_r = max(worst_r, s_r[3] / s_r[2])
        kq = quat_gek_from_measurements(ms_q).k
        s_q = qsvd(kq).singular_values
        worst_q = max(worst_q, s_q[1] / s_q[0])
        top, _ = dominant_eigpair(kq)
        energy = float(np.sum(params.distances**2))
        worst_top = max(worst_top, abs(top - energy) / energy)
    ok = worst_r < 1e-10 and worst_q < 1e-10 and worst_top < 1e-10
    detail = (
        f"100 geometries: max sigma4/sigma3 of real kernel {worst_r:.2e}, "
        f"max sigma2/sigma1 of quaternion kernel {worst_q:.2e}, "
        f"max relative top-eigenvalue vs distance energy {worst_top:.2e} "
        f"(all tol 1e-10)"
    )
    report("2", ok, detail)
    assert ok, detail


def test_criterion_03_noiseless_exact_recovery():
    # smds on Scenario I data, the quaternion solvers on Scenario II data
    configs = {
        "I": ExperimentConfig(algorithms=("smds",), master_seed=9003),
        "II": ExperimentConfig(algorithms=("qdsmds", "mrc", "mrciter"),
                               master_seed=9003),
    }
    started = time.perf_counter()
    worst = {alg: 0.0 for alg in ("smds", "qdsmds", "mrc", "mrciter")}
    for t in range(100):
        for scenario, cfg in configs.items():
            for alg, res in run_trial(cfg, scenario, 0.0, 0.0, t).items():
                worst[alg] = max(worst[alg], res.xi)
    elapsed = time.perf_counter() - started
    ok = all(v < 1e-6 for v in worst.values()) and elapsed < 60
    detail = (
        "100 noiseless instances, worst xi per algorithm: "
        + ", ".join(f"{a}={v:.2e}" for a, v in worst.items())
        + f" (tol 1e-6); elapsed {elapsed:.1f}s (limit 60s)"
    )
    report("3", ok, detail)
    assert ok, detail


@pytest.fixture(scope="module")
def refinement_sweep_data():
    """200 scenario II trials per sigma in {2, 4} at eps=30: mean xi after
    sweeps 1 and 5 of a single recorded run, and the seconds the 400 trials
    took."""
    data = {}
    started = time.perf_counter()
    for sigma in (2.0, 4.0):
        xi_1, xi_5 = [], []
        for t in range(200):
            geometry, _, kq = room_kernel(
                (9004, int(sigma), t), NoiseConfig(sigma, 30.0)
            )
            est = qd_mrc_smds_iterative(kq, geometry.anchors, STRUCTURE, tau_max=5)
            trajectory = est.diagnostics["trajectory"]
            xi_1.append(metric_xi(trajectory[1], geometry.targets))
            xi_5.append(metric_xi(trajectory[5], geometry.targets))
        data[sigma] = (np.mean(xi_1), np.mean(xi_5))
    return data, time.perf_counter() - started


def test_criterion_04a_single_sweep_error_level(refinement_sweep_data):
    means, elapsed = refinement_sweep_data
    gaps = {sigma: abs(m1 - m5) / m5 for sigma, (m1, m5) in means.items()}
    ok = all(gap < 0.01 for gap in gaps.values()) and elapsed < 120
    detail = (
        "mean xi after one sweep vs after five, relative gap: "
        + ", ".join(f"sigma={s:g}: {g:.2%}" for s, g in gaps.items())
        + f" (tol 1%, 200 paired trials each); elapsed {elapsed:.1f}s "
        "(limit 120s)"
    )
    report("4a", ok, detail)
    assert ok, detail


def test_criterion_04b_per_trial_fixed_point_residual():
    first, last, rho = [], [], []
    for sigma in (2.0, 4.0):
        for t in range(200):
            geometry, params, kq = room_kernel(
                (9004, int(sigma), t), NoiseConfig(sigma, 30.0)
            )
            est = qd_mrc_smds_iterative(
                kq, geometry.anchors, STRUCTURE, tau_max=FIXED_POINT_SWEEPS
            )
            changes = est.diagnostics["nu_residuals"]
            first.append(changes[0])
            last.append(changes[-1])
            energy = params.distances**2
            rho.append(energy[N_AA:].sum() / energy.sum())
    first, last, rho = np.asarray(first), np.asarray(last), np.asarray(rho)
    predicted = np.log(FIXED_POINT_TOL / first) / np.log(rho)

    noiseless = []
    for t in range(100):
        geometry, _, kq = room_kernel((9004, 0, t), NoiseConfig())
        est = qd_mrc_smds_iterative(kq, geometry.anchors, STRUCTURE, tau_max=1)
        noiseless.append(est.diagnostics["nu_residuals"][0])
    noiseless = np.asarray(noiseless)

    ok = (
        predicted.max() <= FIXED_POINT_SWEEPS
        and last.max() < FIXED_POINT_TOL
        and noiseless.max() < FIXED_POINT_TOL
    )
    detail = (
        f"400 noisy trials (sigma 2 and 4 m, eps 30deg): first-sweep relative "
        f"iterate change median {np.median(first):.2e}, max {first.max():.2e}; "
        f"contraction rate rho median {np.median(rho):.3f}, max {rho.max():.3f}, "
        f"predicting at most {predicted.max():.0f} sweeps to reach "
        f"{FIXED_POINT_TOL:g} (budget {FIXED_POINT_SWEEPS}); change in sweep "
        f"{FIXED_POINT_SWEEPS}: max {last.max():.2e}. 100 noiseless trials: "
        f"first-sweep change max {noiseless.max():.2e} "
        f"(tol {FIXED_POINT_TOL:g} per trial)"
    )
    report("4b", ok, detail)
    assert ok, detail


def test_criterion_05_large_angle_error_superiority():
    lines, ok = [], True
    for scenario in ("I", "II"):
        for sigma in (1.0, 2.0, 3.0):
            xs, xq = paired_cell(scenario, "smds", "qdsmds", sigma, 50.0, 200, 9005)
            diffs = xs - xq
            margin = float(diffs.mean())
            se = paired_standard_error(diffs)
            cell_ok = xq.mean() < xs.mean() and margin > 2 * se
            ok = ok and cell_ok
            lines.append(
                f"{scenario}/sigma={sigma:g}: smds {xs.mean():.3f} vs "
                f"qdsmds {xq.mean():.3f}, margin {margin:.3f} > 2SE {2 * se:.3f}"
                f" [{'ok' if cell_ok else 'VIOLATED'}]"
            )
    detail = "eps=50deg, 200 paired trials per cell: " + "; ".join(lines)
    report("5", ok, detail)
    assert ok, detail


def test_criterion_06_small_angle_crossover():
    xs, xq = paired_cell("I", "smds", "qdsmds", 3.0, 10.0, 200, 9006)
    ok = xs.mean() <= xq.mean()
    detail = (
        f"eps=10deg, sigma=3m, scenario I: smds {xs.mean():.3f} <= "
        f"qdsmds {xq.mean():.3f} over 200 paired trials (directional)"
    )
    report("6", ok, detail)
    assert ok, detail


def test_criterion_07_refinement_family_gap():
    xi_iter, xi_qd = paired_cell("II", "mrciter", "qdsmds", 2.0, 50.0, 500, 9007)
    diffs = xi_iter - xi_qd
    gap = abs(float(diffs.mean()))
    allowance = 0.05 + 2 * paired_standard_error(diffs)
    ok = gap <= allowance
    detail = (
        f"eps=50deg, sigma=2m, scenario II, 500 paired trials: "
        f"|mean gap| {gap:.4f} <= 0.05 + 2SE = {allowance:.4f}"
    )
    report("7", ok, detail)
    assert ok, detail


def test_criterion_08_noise_model_statistics():
    rng = np.random.default_rng(9008)
    lines, ok = [], True
    for d, sigma in ((10.0, 2.0), (5.0, 1.0)):
        draws = _sample_distance(np.full(1_000_000, d), sigma, rng)
        mean_err = abs(draws.mean() - d) / d
        var_err = abs(draws.var(ddof=1) - sigma**2) / sigma**2
        pair_ok = mean_err < 0.02 and var_err < 0.02
        ok = ok and pair_ok
        lines.append(
            f"gamma(d={d:g},sigma={sigma:g}): mean off {mean_err:.2%}, "
            f"variance off {var_err:.2%}"
        )
    for eps in (10.0, 20.0, 30.0, 40.0, 50.0):
        rho = epsilon_to_rho(eps)
        draws = _sample_angle(np.zeros(1_000_000), rho, rng)
        recovered = np.degrees(np.percentile(np.abs(draws), 90.0))
        angle_ok = abs(recovered - eps) < 1.0
        ok = ok and angle_ok
        lines.append(f"eps={eps:g}deg -> 90th pct {recovered:.2f}deg")
    detail = (
        "1e6 draws each (tols: 2% moments, 1deg round-trip): "
        + "; ".join(lines)
    )
    report("8", ok, detail)
    assert ok, detail


def test_criterion_09_masked_kernel_completion():
    cfg = ExperimentConfig(scenarios=("II",), algorithms=("qdsmds",),
                           missing_fraction=0.3, master_seed=9009)
    worst_clean = 0.0
    for t in range(5):
        res = run_trial(cfg, "II", 0.0, 0.0, t)["qdsmds"]
        worst_clean = max(worst_clean, res.xi)
    xs, xq = paired_cell("II", "smds", "qdsmds", 2.0, 50.0, 200, 9009, missing=0.3)
    diffs = xs - xq
    margin = float(diffs.mean())
    se = paired_standard_error(diffs)
    ok = worst_clean < 1e-2 and xq.mean() < xs.mean() and margin > 2 * se
    detail = (
        f"30% entries hidden: worst noiseless qdsmds xi {worst_clean:.2e} "
        f"(tol 1e-2); eps=50deg sigma=2m over 200 paired trials: "
        f"smds {xs.mean():.3f} vs qdsmds {xq.mean():.3f}, "
        f"margin {margin:.3f} > 2SE {2 * se:.3f}"
    )
    report("9", ok, detail)
    assert ok, detail


def test_criterion_10_byte_identical_csv(tmp_path):
    config_path = tmp_path / "grid.json"
    config_path.write_text(
        json.dumps(
            {
                "scenarios": ["II"],
                "algorithms": ["smds", "qdsmds", "mrc", "mrciter"],
                "sigma_d_grid": [1.0, 3.0],
                "epsilon_grid": [30.0],
                "trials": 5,
                "master_seed": 9010,
            }
        )
    )
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cli_main(["run", "--config", str(config_path), "--out", str(out_a)])
    code_b = cli_main(["run", "--config", str(config_path), "--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    detail = (
        f"two CLI runs, same config and seed: exit codes ({code_a}, {code_b}), "
        f"byte-identical={identical} "
        f"({len(out_a.read_bytes())} bytes, 8 data rows)"
    )
    report("10", ok, detail)
    assert ok, detail
