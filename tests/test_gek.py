import numpy as np
import pytest

from qmds.errors import AsymmetricMask, DimensionMismatch, ShapeMismatch
from qmds.gek import (
    apply_mask,
    build_quat_gek,
    build_real_gek,
    extract_blocks,
    quat_gek_from_measurements,
)
from qmds.measurement import MeasurementSet, NoiseConfig, missing_mask, synthesize
from qmds.network import NetworkGeometry, structure_matrices, true_parameters
from qmds.quat import QuaternionMatrix, embed_r3, qsvd


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
    vectors = np.array([[1.0, 0, 0], [0, 1.0, 0]])
    params_like = _params_from_vectors(vectors)
    k = build_quat_gek(*params_like).k
    q = k[0, 1]
    assert q.w == pytest.approx(0.0, abs=1e-15)
    assert q.x == pytest.approx(-1.0, abs=1e-15)
    assert q.y == pytest.approx(0.0, abs=1e-15)
    assert q.z == pytest.approx(0.0, abs=1e-15)


def _params_from_vectors(v):
    a, b, c = v.T
    d = np.linalg.norm(v, axis=1)
    d_xy, d_xz, d_yz = np.hypot(a, b), np.hypot(a, c), np.hypot(b, c)
    phi = (np.arctan2(b, a), np.arctan2(c, a), np.arctan2(c, b))
    gram = v @ v.T
    dd = np.outer(d, d)
    cos = np.divide(gram, dd, out=np.zeros_like(gram), where=dd > 0)
    adoa = np.arccos(np.clip(cos, -1, 1))
    np.fill_diagonal(adoa, 0.0)
    return d, adoa, phi, (d_xy, d_xz, d_yz)


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
    ms = synthesize(params, NoiseConfig(2.0, 50.0), "II", rng)
    k = quat_gek_from_measurements(ms).k
    assert (k - k.H).norm() == 0.0


def test_quat_kernel_rejects_scenario_one():
    rng = np.random.default_rng(97)
    _, ms = exact_measurements(rng, "I")
    with pytest.raises(ShapeMismatch):
        quat_gek_from_measurements(ms)


# ---- block extraction ----


def test_block_shapes():
    rng = np.random.default_rng(98)
    _, ms = exact_measurements(rng)
    kq = quat_gek_from_measurements(ms)
    k1, k2, k3 = extract_blocks(kq, structure_matrices(5, 15))
    assert k1.shape == (10, 10)
    assert k2.shape == (10, 75)
    assert k3.shape == (75, 75)


def test_cross_block_is_mixed_outer_product():
    rng = np.random.default_rng(99)
    params, ms = exact_measurements(rng, n_anchors=4, n_targets=6)
    _, k2, _ = extract_blocks(quat_gek_from_measurements(ms), structure_matrices(4, 6))
    nu = embed_r3(params.vectors)
    n_aa = 6
    nu_aa = QuaternionMatrix(nu.a[:n_aa, None], nu.b[:n_aa, None])
    nu_at = QuaternionMatrix(nu.a[n_aa:, None], nu.b[n_aa:, None])
    expected = nu_aa @ nu_at.H
    assert (k2 - expected).norm() / expected.norm() < 1e-10


def test_diagonal_blocks_hermitian():
    rng = np.random.default_rng(100)
    _, ms = exact_measurements(rng, n_anchors=4, n_targets=5)
    k1, _, k3 = extract_blocks(quat_gek_from_measurements(ms), structure_matrices(4, 5))
    assert (k1 - k1.H).norm() == 0.0
    assert (k3 - k3.H).norm() == 0.0


def test_block_extraction_size_check():
    rng = np.random.default_rng(101)
    _, ms = exact_measurements(rng, n_anchors=4, n_targets=5)
    with pytest.raises(DimensionMismatch):
        extract_blocks(quat_gek_from_measurements(ms), structure_matrices(5, 15))


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
    assert np.all(masked.k.entry_norms()[~mask] == 0.0)
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

