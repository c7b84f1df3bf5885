import numpy as np
import pytest

from qmds import completion
from qmds.completion import complete_lowrank, complete_quat_gek, complete_real_gek
from qmds.errors import NonConvergenceWarning, RankDeficient, ShapeMismatch
from qmds.harness import ExperimentConfig, run_trial
from qmds.gek import apply_mask, build_real_gek, quat_gek_from_measurements
from qmds.measurement import MeasurementSet, NoiseConfig, missing_mask, synthesize
from qmds.network import NetworkGeometry, true_parameters
from qmds.quat import qsvd


def masked_rank_k(rng, n, rank, fraction):
    g = rng.standard_normal((n, rank))
    k = g @ g.T
    mask = missing_mask(n, fraction, rng)
    return k, mask


# ---- generic low-rank completion ----


def test_full_mask_returns_input():
    rng = np.random.default_rng(111)
    k, _ = masked_rank_k(rng, 12, 3, 0.0)
    res = complete_lowrank(k, np.ones_like(k, dtype=bool), 3)
    np.testing.assert_array_equal(res.matrix, k)
    assert res.iterations == 0 and res.converged


def test_rank_one_recovery():
    rng = np.random.default_rng(112)
    k, mask = masked_rank_k(rng, 40, 1, 0.3)
    res = complete_lowrank(k, mask, 1)
    assert res.converged
    assert np.linalg.norm(res.matrix - k) / np.linalg.norm(k) < 1e-3


def test_rank_three_beats_zero_fill():
    rng = np.random.default_rng(113)
    k, mask = masked_rank_k(rng, 40, 3, 0.3)
    res = complete_lowrank(k, mask, 3)
    zero_fill_err = np.linalg.norm(np.where(mask, k, 0.0) - k)
    assert np.linalg.norm(res.matrix - k) < zero_fill_err


def test_observed_entries_never_change():
    rng = np.random.default_rng(114)
    k, mask = masked_rank_k(rng, 30, 2, 0.4)
    res = complete_lowrank(k, mask, 2)
    np.testing.assert_array_equal(res.matrix[mask], k[mask])


def test_nonconvergence_warns_and_returns(monkeypatch):
    rng = np.random.default_rng(115)
    k, mask = masked_rank_k(rng, 25, 3, 0.3)
    monkeypatch.setattr(completion, "_MAX_SWEEPS", 2)
    with pytest.warns(NonConvergenceWarning):
        res = complete_lowrank(k, mask, 3)
    assert not res.converged
    assert res.iterations == 2
    np.testing.assert_array_equal(res.matrix[mask], k[mask])


def test_mask_shape_checked():
    rng = np.random.default_rng(116)
    k, _ = masked_rank_k(rng, 10, 2, 0.0)
    with pytest.raises(Exception):
        complete_lowrank(k, np.ones((4, 4), dtype=bool), 3)


def test_rank_validation():
    rng = np.random.default_rng(116)
    k, mask = masked_rank_k(rng, 10, 2, 0.3)
    with pytest.raises(ShapeMismatch):
        complete_lowrank(k, mask, 0)


def worsening_truncation(monkeypatch):
    """Truncate correctly once, then return zeros, which raises the gap."""
    calls = []
    real = completion._truncate

    def truncate(x, rank):
        calls.append(rank)
        return real(x, rank) if len(calls) == 1 else np.zeros_like(x)

    monkeypatch.setattr(completion, "_truncate", truncate)


def test_rising_gap_raises_typed_error(monkeypatch):
    rng = np.random.default_rng(122)
    k, mask = masked_rank_k(rng, 20, 3, 0.3)
    worsening_truncation(monkeypatch)
    with pytest.raises(RankDeficient, match="gap rose"):
        complete_lowrank(k, mask, 3)


def test_rising_gap_is_a_failed_trial(monkeypatch):
    cfg = ExperimentConfig(scenarios=("II",), algorithms=("smds",),
                           n_targets=6, trials=1, missing_fraction=0.3,
                           sigma_d_grid=(1.0,), epsilon_grid=(30.0,))
    worsening_truncation(monkeypatch)
    res = run_trial(cfg, "II", "smds", 1.0, 30.0, 0)
    assert not res.ok and res.error.startswith("RankDeficient: completion gap rose")


def test_complex_matrix_completion():
    rng = np.random.default_rng(117)
    g = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
    k = g @ np.conj(g).T
    mask = missing_mask(30, 0.3, rng)
    res = complete_lowrank(k, mask, 2)
    assert np.linalg.norm(res.matrix - k) / np.linalg.norm(k) < 1e-3


# ---- kernel-level wrappers ----


def scenario_kernels(rng, fraction, n_anchors=4, n_targets=5):
    anchors = rng.uniform([0, 0, 0], [30, 30, 10], size=(n_anchors, 3))
    targets = rng.uniform([0, 0, 0], [30, 30, 10], size=(n_targets, 3))
    params = true_parameters(NetworkGeometry(anchors, targets))
    ms = synthesize(params, NoiseConfig(), "II", rng)
    mask = missing_mask(ms.m, fraction, rng)
    kr = apply_mask(build_real_gek(ms), mask)
    kq = apply_mask(quat_gek_from_measurements(ms), mask)
    full_kr = build_real_gek(ms)
    full_kq = quat_gek_from_measurements(ms)
    return kr, kq, full_kr, full_kq


def test_real_kernel_completion_recovers():
    rng = np.random.default_rng(118)
    kr, _, full_kr, _ = scenario_kernels(rng, 0.3)
    done, res = complete_real_gek(kr)
    assert res.converged
    assert np.linalg.norm(done.k - full_kr.k) / np.linalg.norm(full_kr.k) < 1e-3
    np.testing.assert_array_equal(done.k, done.k.T)
    assert done.mask is None


def test_real_kernel_without_mask_is_noop():
    rng = np.random.default_rng(119)
    _, _, full_kr, _ = scenario_kernels(rng, 0.3)
    done, res = complete_real_gek(full_kr)
    assert done is full_kr and res.iterations == 0


def test_quat_kernel_completion_recovers_rank_one():
    rng = np.random.default_rng(120)
    _, kq, _, full_kq = scenario_kernels(rng, 0.3, n_anchors=5, n_targets=8)
    done, info = complete_quat_gek(kq)
    assert info["converged"]
    s = qsvd(done.k).singular_values
    assert s[1] / s[0] < 1e-2
    rel = (done.k - full_kq.k).norm() / full_kq.k.norm()
    zero_fill = (kq.k - full_kq.k).norm() / full_kq.k.norm()
    assert rel < zero_fill
    assert (done.k - done.k.H).norm() == 0.0


def test_quat_completion_preserves_observed_entries():
    rng = np.random.default_rng(121)
    _, kq, _, full_kq = scenario_kernels(rng, 0.25)
    done, _ = complete_quat_gek(kq)
    mask = kq.mask
    np.testing.assert_array_equal(done.k.a[mask], full_kq.k.a[mask])
    np.testing.assert_array_equal(done.k.b[mask], full_kq.k.b[mask])
