import numpy as np
import pytest

from qmds.errors import (
    AmbiguityResolutionFailure,
    DegenerateAnchors,
    RankDeficient,
    ShapeMismatch,
    ZeroAnchorEdges,
)
from qmds.gek import (
    QuatGek,
    RealGek,
    apply_mask,
    build_quat_gek,
    build_real_gek,
    quat_gek_from_measurements,
)
from qmds.measurement import NoiseConfig, missing_mask, synthesize
from qmds.network import (
    NetworkGeometry,
    edge_matrix,
    structure_matrices,
    true_parameters,
)
from qmds.quat import Quaternion, QuaternionMatrix, embed_r3
from qmds.solvers import (
    anchored_inversion,
    procrustes_align,
    qd_mrc_smds,
    qd_mrc_smds_iterative,
    qd_smds,
    resolve_edge_ambiguity,
    scenario_one_pipeline,
    smds,
)

ROOM_ANCHORS = np.array(
    [[0, 0, 10], [30, 0, 10], [30, 30, 10], [0, 30, 10], [0, 0, 0]], dtype=float
)


def room(rng, n_targets=15):
    targets = rng.uniform([0, 0, 0], [30, 30, 10], size=(n_targets, 3))
    return NetworkGeometry(ROOM_ANCHORS, targets)


def exact_setup(rng, scenario, n_targets=15):
    geo = room(rng, n_targets)
    params = true_parameters(geo)
    ms = synthesize(params, NoiseConfig(), scenario, rng)
    st = structure_matrices(geo.n_anchors, n_targets)
    return geo, params, ms, st


def exact_quat_gek(v):
    """Quaternion kernel of exact edge vectors, zero-length ones included."""
    a, b, c = v.T
    return build_quat_gek(RealGek(v @ v.T), ((a, b), (a, c), (b, c)))


def xi(est_targets, true_targets):
    return np.linalg.norm(est_targets - true_targets) / true_targets.shape[0]


# ---- anchored inversion ----


def test_anchored_inversion_consistency():
    rng = np.random.default_rng(131)
    geo = room(rng, 6)
    st = structure_matrices(5, 6)
    v = edge_matrix(geo, st)
    x_hat = anchored_inversion(v, geo.anchors, st)
    np.testing.assert_allclose(x_hat, geo.stacked, atol=1e-10)


def test_anchored_inversion_anchors_only():
    geo = NetworkGeometry(ROOM_ANCHORS, np.zeros((0, 3)))
    st = structure_matrices(5, 0)
    v = edge_matrix(geo, st)
    x_hat = anchored_inversion(v, geo.anchors, st)
    np.testing.assert_allclose(x_hat, ROOM_ANCHORS, atol=1e-12)


def test_anchored_inversion_bounded_sensitivity():
    rng = np.random.default_rng(132)
    geo = room(rng, 5)
    st = structure_matrices(5, 5)
    v = edge_matrix(geo, st)
    base = anchored_inversion(v, geo.anchors, st)
    delta = 1e-3 * rng.standard_normal(v.shape)
    moved = anchored_inversion(v + delta, geo.anchors, st)
    stacked = np.vstack(
        [np.hstack([np.eye(5), np.zeros((5, 5))]), st.c]
    )
    gain = np.linalg.norm(np.linalg.pinv(stacked), 2)
    assert np.linalg.norm(moved - base) <= gain * np.linalg.norm(delta) + 1e-12


# ---- Procrustes alignment ----


def test_procrustes_identity():
    rng = np.random.default_rng(133)
    x = np.vstack([ROOM_ANCHORS, rng.uniform(0, 30, size=(6, 3))])
    aligned, info = procrustes_align(x, ROOM_ANCHORS)
    np.testing.assert_allclose(aligned, x, atol=1e-10)
    assert info["scale"] == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(info["rotation"], np.eye(3), atol=1e-10)
    np.testing.assert_allclose(info["translation"], np.zeros(3), atol=1e-9)


@pytest.mark.parametrize("reflect", [False, True])
def test_procrustes_recovers_similarity(reflect):
    rng = np.random.default_rng(134)
    x = np.vstack([ROOM_ANCHORS, rng.uniform(0, 30, size=(8, 3))])
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if (np.linalg.det(q) < 0) != reflect:
        q[:, 0] = -q[:, 0]
    distorted = 2.7 * x @ q + np.array([5.0, -3.0, 12.0])
    aligned, info = procrustes_align(distorted, ROOM_ANCHORS)
    np.testing.assert_allclose(aligned, x, atol=1e-8)
    assert info["anchor_rmse"] < 1e-9


def test_procrustes_needs_four_anchors():
    with pytest.raises(DegenerateAnchors):
        procrustes_align(np.eye(3), np.eye(3))


def test_procrustes_rejects_coplanar_anchors():
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    with pytest.raises(DegenerateAnchors):
        procrustes_align(np.vstack([flat, [[2, 2, 2]]]), flat)


def test_procrustes_rejects_coincident_estimates():
    with pytest.raises(DegenerateAnchors):
        procrustes_align(np.zeros((5, 3)), ROOM_ANCHORS)


# ---- quaternion phase resolution ----


def make_nu(rng, n):
    return embed_r3(rng.standard_normal((n, 3)))


def random_unit_quaternion(rng):
    w, x, y, z = rng.standard_normal(4)
    return Quaternion(w, x, y, z).normalized()


def test_phase_resolution_recovers_true_vector():
    rng = np.random.default_rng(135)
    nu = make_nu(rng, 12)
    g0 = random_unit_quaternion(rng)
    spun = nu.right_mul(g0)
    fixed, info = resolve_edge_ambiguity(spun, QuaternionMatrix(nu.a[:5], nu.b[:5]))
    assert (fixed - nu).norm() <= 1e-10 * nu.norm()
    assert info["phase_residual"] < 1e-10


def test_phase_resolution_identity():
    rng = np.random.default_rng(136)
    nu = make_nu(rng, 8)
    fixed, info = resolve_edge_ambiguity(nu, QuaternionMatrix(nu.a[:4], nu.b[:4]))
    assert (fixed - nu).norm() <= 1e-12 * nu.norm()
    assert info["phase"].isclose(Quaternion(1, 0, 0, 0), atol=1e-12)


def test_phase_resolution_invariant_to_extra_phase():
    rng = np.random.default_rng(137)
    nu = make_nu(rng, 10)
    known = QuaternionMatrix(nu.a[:4], nu.b[:4])
    g0, h = random_unit_quaternion(rng), random_unit_quaternion(rng)
    once, _ = resolve_edge_ambiguity(nu.right_mul(g0), known)
    twice, _ = resolve_edge_ambiguity(nu.right_mul(g0).right_mul(h), known)
    assert (once - twice).norm() <= 1e-10 * nu.norm()


def test_phase_resolution_failure_on_zero():
    rng = np.random.default_rng(138)
    nu = make_nu(rng, 6)
    zeros = QuaternionMatrix(np.zeros(6, complex), np.zeros(6, complex))
    with pytest.raises(AmbiguityResolutionFailure):
        resolve_edge_ambiguity(zeros, QuaternionMatrix(nu.a[:3], nu.b[:3]))


# ---- SMDS ----


def test_smds_noiseless_exact():
    rng = np.random.default_rng(139)
    geo, _, ms, st = exact_setup(rng, "I")
    est = smds(build_real_gek(ms), geo.anchors, st)
    assert xi(est.targets, geo.targets) < 1e-6


def test_smds_zero_kernel_rejected():
    rng = np.random.default_rng(140)
    geo, _, ms, st = exact_setup(rng, "I", n_targets=4)
    with pytest.raises(RankDeficient):
        smds(RealGek(np.zeros((ms.m, ms.m))), geo.anchors, st)


def test_smds_rejects_masked_kernel():
    rng = np.random.default_rng(142)
    geo, _, ms, st = exact_setup(rng, "I", n_targets=4)
    kr = apply_mask(build_real_gek(ms), missing_mask(ms.m, 0.2, rng))
    with pytest.raises(ShapeMismatch):
        smds(kr, geo.anchors, st)


# ---- QD-SMDS ----


def test_qd_smds_noiseless_exact():
    rng = np.random.default_rng(143)
    geo, _, ms, st = exact_setup(rng, "II")
    est = qd_smds(quat_gek_from_measurements(ms), geo.anchors, st)
    assert xi(est.targets, geo.targets) < 1e-6


def test_qd_smds_k_component_vanishes_noiseless():
    rng = np.random.default_rng(144)
    geo, _, ms, st = exact_setup(rng, "II")
    est = qd_smds(quat_gek_from_measurements(ms), geo.anchors, st)
    nu_norm = np.sqrt(est.diagnostics["top_singular_value"])
    assert est.diagnostics["k_component_max"] < 1e-8 * nu_norm


def test_qd_smds_homogeneity():
    rng = np.random.default_rng(145)
    geo, _, ms, st = exact_setup(rng, "II", n_targets=8)
    base = qd_smds(quat_gek_from_measurements(ms), geo.anchors, st)

    s = 3.5
    scaled_geo = NetworkGeometry(geo.anchors * s, geo.targets * s)
    scaled_ms = synthesize(
        true_parameters(scaled_geo), NoiseConfig(), "II", np.random.default_rng(0)
    )
    scaled = qd_smds(quat_gek_from_measurements(scaled_ms), scaled_geo.anchors, st)
    np.testing.assert_allclose(scaled.targets, s * base.targets, atol=1e-7)


# ---- MRC variants ----


def test_mrc_noiseless_exact():
    rng = np.random.default_rng(146)
    geo, _, ms, st = exact_setup(rng, "II")
    est = qd_mrc_smds(quat_gek_from_measurements(ms), geo.anchors, st)
    assert xi(est.targets, geo.targets) < 1e-10


def test_mrc_target_at_anchor_position():
    geo = NetworkGeometry(ROOM_ANCHORS, ROOM_ANCHORS[1][None, :].copy())
    params = true_parameters(geo)  # one zero-length edge, flagged but usable
    kq = exact_quat_gek(params.vectors)
    st = structure_matrices(5, 1)
    est = qd_mrc_smds(kq, geo.anchors, st)
    np.testing.assert_allclose(est.targets, geo.targets, atol=1e-10)


def test_mrc_ignores_diagonal_blocks():
    rng = np.random.default_rng(147)
    geo, _, ms, st = exact_setup(rng, "II", n_targets=6)
    kq = quat_gek_from_measurements(ms)
    base = qd_mrc_smds(kq, geo.anchors, st)

    n_aa = 10
    ka, kb = kq.k.a.copy(), kq.k.b.copy()
    ka[:n_aa, :n_aa] += rng.standard_normal((n_aa, n_aa))
    kb[n_aa:, n_aa:] += 1j * rng.standard_normal((ka.shape[0] - n_aa,) * 2)
    tampered = qd_mrc_smds(QuatGek(QuaternionMatrix(ka, kb)), geo.anchors, st)
    assert np.array_equal(tampered.targets, base.targets)


def test_mrc_iterative_tau_zero_matches_closed_form():
    rng = np.random.default_rng(148)
    geo, params, _, st = exact_setup(rng, "II", n_targets=6)
    noisy = synthesize(params, NoiseConfig(2.0, 40.0), "II", rng)
    kq = quat_gek_from_measurements(noisy)
    a = qd_mrc_smds(kq, geo.anchors, st)
    b = qd_mrc_smds_iterative(kq, geo.anchors, st, tau_max=0)
    assert np.array_equal(a.targets, b.targets)


def test_mrc_iterative_noiseless_fixed_point():
    rng = np.random.default_rng(149)
    geo, _, ms, st = exact_setup(rng, "II")
    est = qd_mrc_smds_iterative(
        quat_gek_from_measurements(ms), geo.anchors, st, tau_max=2
    )
    assert xi(est.targets, geo.targets) < 1e-10
    assert all(r < 1e-10 for r in est.diagnostics["nu_residuals"])


def test_mrc_iterative_trajectory():
    rng = np.random.default_rng(150)
    geo, params, _, st = exact_setup(rng, "II", n_targets=6)
    noisy = synthesize(params, NoiseConfig(1.0, 30.0), "II", rng)
    est = qd_mrc_smds_iterative(
        quat_gek_from_measurements(noisy), geo.anchors, st,
        tau_max=3, record_trajectory=True,
    )
    traj = est.diagnostics["trajectory"]
    assert len(traj) == 4
    np.testing.assert_array_equal(traj[-1], est.targets)


def test_mrc_zero_anchor_edges():
    anchors = np.zeros((5, 3))
    targets = np.array([[1.0, 2.0, 3.0]])
    params = true_parameters(NetworkGeometry(anchors, targets))
    kq = exact_quat_gek(params.vectors)
    st = structure_matrices(5, 1)
    with pytest.raises(ZeroAnchorEdges):
        qd_mrc_smds(kq, anchors, st)


# ---- Scenario I pipeline ----


def test_pipeline_noiseless_exact():
    rng = np.random.default_rng(151)
    geo, _, ms, st = exact_setup(rng, "I")
    for algorithm in ("qdsmds", "mrc", "mrciter"):
        est = scenario_one_pipeline(ms, geo.anchors, st, algorithm)
        assert xi(est.targets, geo.targets) < 1e-6, algorithm


def test_pipeline_stage_one_is_plain_smds():
    rng = np.random.default_rng(152)
    geo, params, _, st = exact_setup(rng, "I", n_targets=8)
    noisy = synthesize(params, NoiseConfig(2.0, 30.0), "I", rng)
    est = scenario_one_pipeline(noisy, geo.anchors, st)
    direct = smds(build_real_gek(noisy), geo.anchors, st)
    np.testing.assert_array_equal(est.diagnostics["stage1"].targets, direct.targets)


def test_pipeline_rejects_angle_measurements():
    rng = np.random.default_rng(153)
    geo, _, ms, st = exact_setup(rng, "II", n_targets=4)
    with pytest.raises(ShapeMismatch):
        scenario_one_pipeline(ms, geo.anchors, st)


def test_pipeline_unknown_algorithm():
    rng = np.random.default_rng(154)
    geo, _, ms, st = exact_setup(rng, "I", n_targets=4)
    with pytest.raises(ShapeMismatch):
        scenario_one_pipeline(ms, geo.anchors, st, algorithm="dowsing")


# ---- cross-cutting properties ----


def test_similarity_transform_leaves_errors_tiny():
    rng = np.random.default_rng(155)
    geo, _, ms, st = exact_setup(rng, "II", n_targets=8)
    base = qd_smds(quat_gek_from_measurements(ms), geo.anchors, st)
    assert xi(base.targets, geo.targets) < 1e-8

    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    s, t = 1.9, np.array([4.0, -7.0, 2.0])
    moved = NetworkGeometry(s * geo.anchors @ q + t, s * geo.targets @ q + t)
    ms2 = synthesize(true_parameters(moved), NoiseConfig(), "II", rng)
    est2 = qd_smds(quat_gek_from_measurements(ms2), moved.anchors, st)
    assert xi(est2.targets, moved.targets) < 1e-8
