import numpy as np
import pytest

from qmds.errors import AsymmetricMask, ShapeMismatch
from qmds.gek import (
    RealGek,
    apply_mask,
    build_quat_gek,
    build_real_gek,
    quat_gek_from_measurements,
)
from qmds.measurement import MeasurementSet, NoiseConfig, missing_mask, synthesize
from qmds.network import NetworkGeometry, structure_matrices, true_parameters
from qmds.quat import QuaternionMatrix, embed_r3, qsvd
from qmds.solvers import _stage_two_kernel


def geometry(rng, n_anchors=5, n_targets=15):
    anchors = rng.uniform([0, 0, 0], [30, 30, 10], size=(n_anchors, 3))
    targets = rng.uniform([0, 0, 0], [30, 30, 10], size=(n_targets, 3))
    return NetworkGeometry(anchors, targets)


def exact_measurements(rng, scenario="II", n_anchors=5, n_targets=15):
    params = true_parameters(geometry(rng, n_anchors, n_targets))
    return params, synthesize(params, NoiseConfig(), scenario, rng)


def outer(nu):
    col = QuaternionMatrix(nu.a[:, None], nu.b[:, None])
    return col @ col.H


# ---- real kernel ----


def test_single_edge_kernel():
    ms = MeasurementSet("I", np.array([3.0]), np.zeros((1, 1)))
    np.testing.assert_array_equal(build_real_gek(ms).k, [[9.0]])


def test_orthogonal_edges_kernel():
    adoa = np.array([[0.0, np.pi / 2], [np.pi / 2, 0.0]])
    ms = MeasurementSet("I", np.ones(2), adoa)
    np.testing.assert_allclose(build_real_gek(ms).k, np.eye(2), atol=1e-16)


def test_real_kernel_is_edge_gram():
    rng = np.random.default_rng(91)
    params, ms = exact_measurements(rng, "I")
    k = build_real_gek(ms).k
    np.testing.assert_allclose(k, params.vectors @ params.vectors.T, atol=1e-10)


def test_real_kernel_rank_three():
    rng = np.random.default_rng(92)
    _, ms = exact_measurements(rng, "I")
    s = np.linalg.svd(build_real_gek(ms).k, compute_uv=False)
    assert s[3] / s[2] < 1e-10


def test_real_kernel_exactly_symmetric_under_noise():
    rng = np.random.default_rng(93)
    params = true_parameters(geometry(rng))
    ms = synthesize(params, NoiseConfig(2.0, 40.0), "I", rng)
    k = build_real_gek(ms).k
    assert np.array_equal(k, k.T)


# ---- quaternion kernel ----


def test_quat_kernel_unit_oracle():
    # edges (1,0,0) and (0,1,0): pure -i coupling
    kr, planes = _kernel_inputs(np.array([[1.0, 0, 0], [0, 1.0, 0]]))
    k = build_quat_gek(kr, planes).k
    assert k.w[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert k.x[0, 1] == pytest.approx(-1.0, abs=1e-15)
    assert k.y[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert k.z[0, 1] == pytest.approx(0.0, abs=1e-15)


def _kernel_inputs(v):
    """Exact real kernel and in-plane (u, v) components of edge vectors."""
    a, b, c = v.T
    return RealGek(v @ v.T), ((a, b), (a, c), (b, c))


def test_plane_parts_match_angle_form():
    # S[m, p] = v_m u_p - u_m v_p equals -d_m d_p sin(phi_p - phi_m)
    rng = np.random.default_rng(105)
    params = true_parameters(geometry(rng, 4, 6))
    kr, planes = _kernel_inputs(params.vectors)
    k = build_quat_gek(kr, planes).k
    cases = [
        (k.x, params.d_xy, params.phi_xy),
        (k.y, params.d_xz, params.phi_xz),
        (k.z, params.d_yz, params.phi_yz),
    ]
    for part, dp, phi in cases:
        angle_form = -np.outer(dp, dp) * np.sin(phi[None, :] - phi[:, None])
        np.testing.assert_allclose(part, angle_form, atol=1e-10)


def test_quat_kernel_rejects_mismatched_components():
    kr, planes = _kernel_inputs(np.eye(3))
    with pytest.raises(ShapeMismatch):
        build_quat_gek(kr, planes[:2] + ((np.ones(2), np.ones(2)),))


def test_quat_kernel_diagonal_is_squared_distance():
    rng = np.random.default_rng(94)
    _, ms = exact_measurements(rng)
    k = quat_gek_from_measurements(ms).k
    np.testing.assert_allclose(np.diag(k.w), ms.distances**2, rtol=1e-12)
    assert np.max(np.abs(np.diag(k.x))) == 0.0
    assert np.max(np.abs(np.diag(k.y))) == 0.0
    assert np.max(np.abs(np.diag(k.z))) == 0.0


def test_quat_kernel_is_rank_one_outer_product():
    rng = np.random.default_rng(95)
    params, ms = exact_measurements(rng)
    k = quat_gek_from_measurements(ms).k
    expected = outer(embed_r3(params.vectors))
    assert (k - expected).norm() / expected.norm() < 1e-10
    s = qsvd(k).singular_values
    assert s[1] / s[0] < 1e-10
    assert s[0] == pytest.approx(np.sum(params.distances**2), rel=1e-10)


def test_quat_kernel_exactly_hermitian_under_noise():
    rng = np.random.default_rng(96)
    params = true_parameters(geometry(rng))
    for noise in (NoiseConfig(2.0, 50.0), NoiseConfig(4.0, 150.0)):
        ms = synthesize(params, noise, "II", rng)
        k = quat_gek_from_measurements(ms).k
        assert k.hermitian_defect() == 0.0
        assert (k - k.H).norm() == 0.0


def test_stage_two_kernel_exactly_hermitian():
    rng = np.random.default_rng(106)
    geo = geometry(rng)
    st = structure_matrices(geo.n_anchors, geo.n_targets)
    ms = synthesize(true_parameters(geo), NoiseConfig(3.0, 40.0), "I", rng)
    kr = build_real_gek(ms)
    assert np.array_equal(kr.k, kr.k.T)
    noisy_fix = geo.targets + rng.normal(0.0, 2.0, geo.targets.shape)
    noisy_fix[0] = geo.anchors[0]  # one zero-length edge
    kq = _stage_two_kernel(ms, kr, geo.anchors, noisy_fix, st)
    assert kq.k.hermitian_defect() == 0.0
    np.testing.assert_array_equal(kq.k.w, kr.k)
    zero_edge = st.n_aa
    assert np.all(kq.k.x[zero_edge] == 0) and np.all(kq.k.b[:, zero_edge] == 0)


def test_quat_kernel_built_in_place_matches_components():
    # The halves are written in place and kept uncopied; the entries must
    # still equal the textbook assembly bit for bit, and the kernel must not
    # alias anything the caller can write.
    rng = np.random.default_rng(107)
    ms = synthesize(true_parameters(geometry(rng)), NoiseConfig(2.0, 50.0), "II", rng)
    kr = build_real_gek(ms)
    planes = tuple((u.copy(), v.copy()) for u, v in ms.plane_components())
    k = build_quat_gek(kr, planes).k
    want = QuaternionMatrix.from_components(
        kr.k, *(np.outer(v, u) - np.outer(u, v) for u, v in planes))
    assert np.array_equal(k.a, want.a) and np.array_equal(k.b, want.b)
    assert not k.a.flags.writeable and not k.b.flags.writeable
    for u, v in planes:
        u *= 2.0
        v[:] = 1.0
    assert np.array_equal(k.a, want.a) and np.array_equal(k.b, want.b)


def test_quat_kernel_rejects_scenario_one():
    rng = np.random.default_rng(97)
    _, ms = exact_measurements(rng, "I")
    with pytest.raises(ShapeMismatch):
        quat_gek_from_measurements(ms)


# ---- kernel blocks ----


def test_cross_block_is_mixed_outer_product():
    # On exact data the cross block K2 (anchor-anchor rows, anchor-target
    # columns of the kernel's halves, as the MRC solvers slice it) is
    # nu_aa nu_at^H.
    rng = np.random.default_rng(99)
    params, ms = exact_measurements(rng, n_anchors=4, n_targets=6)
    kq = quat_gek_from_measurements(ms)
    n_aa = structure_matrices(4, 6).n_aa
    k2 = QuaternionMatrix(kq.k.a[:n_aa, n_aa:], kq.k.b[:n_aa, n_aa:])
    nu = embed_r3(params.vectors)
    nu_aa = QuaternionMatrix(nu.a[:n_aa, None], nu.b[:n_aa, None])
    nu_at = QuaternionMatrix(nu.a[n_aa:, None], nu.b[n_aa:, None])
    expected = nu_aa @ nu_at.H
    assert (k2 - expected).norm() / expected.norm() < 1e-10


def test_diagonal_blocks_hermitian():
    rng = np.random.default_rng(100)
    _, ms = exact_measurements(rng, n_anchors=4, n_targets=5)
    kq = quat_gek_from_measurements(ms)
    n_aa = structure_matrices(4, 5).n_aa
    for rows in (slice(None, n_aa), slice(n_aa, None)):
        block = QuaternionMatrix(kq.k.a[rows, rows], kq.k.b[rows, rows])
        assert (block - block.H).norm() == 0.0


# ---- masks ----


def test_all_true_mask_is_identity():
    rng = np.random.default_rng(102)
    _, ms = exact_measurements(rng, "I", 3, 4)
    gek = build_real_gek(ms)
    masked = apply_mask(gek, np.ones((gek.m, gek.m), dtype=bool))
    np.testing.assert_array_equal(masked.k, gek.k)


def test_mask_zeroes_symmetric_entries():
    rng = np.random.default_rng(103)
    _, ms = exact_measurements(rng, "II", 3, 4)
    gek = quat_gek_from_measurements(ms)
    mask = missing_mask(gek.m, 0.3, rng)
    masked = apply_mask(gek, mask)
    assert np.all(np.hypot(np.abs(masked.k.a), np.abs(masked.k.b))[~mask] == 0.0)
    np.testing.assert_array_equal(masked.k.w[mask], gek.k.w[mask])
    np.testing.assert_allclose(np.diag(masked.k.w), np.diag(gek.k.w))


def test_asymmetric_mask_rejected():
    rng = np.random.default_rng(104)
    _, ms = exact_measurements(rng, "I", 3, 2)
    gek = build_real_gek(ms)
    bad = np.ones((gek.m, gek.m), dtype=bool)
    bad[0, 1] = False
    with pytest.raises(AsymmetricMask):
        apply_mask(gek, bad)
    hole = np.ones((gek.m, gek.m), dtype=bool)
    np.fill_diagonal(hole, False)
    with pytest.raises(AsymmetricMask):
        apply_mask(gek, hole)

