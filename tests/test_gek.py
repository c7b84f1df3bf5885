import numpy as np
import pytest

from qmds import harness
from qmds.errors import AsymmetricMask, OutOfRange, ShapeMismatch
from qmds.gek import (
    QuatGek,
    RealGek,
    apply_mask,
    build_quat_gek,
    build_real_gek,
    quat_gek_from_measurements,
)
from qmds.measurement import MeasurementSet, NoiseConfig, missing_mask, synthesize
from qmds.network import NetworkGeometry, structure_matrices, true_parameters
from qmds.quat import QuaternionMatrix, _embed_r3, qsvd
from qmds.solvers import _stage_two_kernel, qd_mrc_smds
from quaternion_oracle import column, ctranspose, from_components, matmul, norm, sub


def geometry(rng, n_anchors=5, n_targets=15):
    anchors = rng.uniform([0, 0, 0], [30, 30, 10], size=(n_anchors, 3))
    targets = rng.uniform([0, 0, 0], [30, 30, 10], size=(n_targets, 3))
    return NetworkGeometry(anchors, targets)


def exact_measurements(rng, scenario="II", n_anchors=5, n_targets=15):
    params = true_parameters(geometry(rng, n_anchors, n_targets))
    return params, synthesize(params, NoiseConfig(), scenario, rng)


def outer(nu):
    col = column(nu)
    return matmul(col, ctranspose(col))


# ---- real kernel ----


def test_single_edge_kernel():
    ms = MeasurementSet(np.array([3.0]), np.zeros((1, 1)))
    np.testing.assert_array_equal(build_real_gek(ms).k, [[9.0]])


def test_orthogonal_edges_kernel():
    adoa = np.array([[0.0, np.pi / 2], [np.pi / 2, 0.0]])
    ms = MeasurementSet(np.ones(2), adoa)
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
    assert k.a.real[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert k.a.imag[0, 1] == pytest.approx(-1.0, abs=1e-15)
    assert k.b.real[0, 1] == pytest.approx(0.0, abs=1e-15)
    assert k.b.imag[0, 1] == pytest.approx(0.0, abs=1e-15)


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
    projected = params.distances * np.sin(params.elevations[::-1])
    for part, dp, phi in zip((k.a.imag, k.b.real, k.b.imag), projected, params.azimuths):
        angle_form = -np.outer(dp, dp) * np.sin(phi[None, :] - phi[:, None])
        np.testing.assert_allclose(part, angle_form, atol=1e-10)


def test_quat_kernel_rejects_mismatched_components():
    kr, planes = _kernel_inputs(np.eye(3))
    with pytest.raises(ShapeMismatch):
        build_quat_gek(kr, planes[:2] + ((np.ones(2), np.ones(2)),))


@pytest.mark.parametrize("keep", [0, 1, 2])
def test_quat_kernel_needs_all_three_planes(keep):
    # With fewer planes the unwritten parts of the halves kept whatever
    # np.empty gave them: a large kernel came back with B = 0, silently.
    kr, planes = _kernel_inputs(np.eye(3))
    with pytest.raises(ShapeMismatch, match="three planes"):
        build_quat_gek(kr, planes[:keep])


def test_quat_kernel_diagonal_is_squared_distance():
    rng = np.random.default_rng(94)
    _, ms = exact_measurements(rng)
    k = quat_gek_from_measurements(ms).k
    np.testing.assert_allclose(np.diag(k.a.real), ms.distances**2, rtol=1e-12)
    assert np.max(np.abs(np.diag(k.a.imag))) == 0.0
    assert np.max(np.abs(np.diag(k.b.real))) == 0.0
    assert np.max(np.abs(np.diag(k.b.imag))) == 0.0


def test_quat_kernel_is_rank_one_outer_product():
    rng = np.random.default_rng(95)
    params, ms = exact_measurements(rng)
    k = quat_gek_from_measurements(ms).k
    expected = outer(_embed_r3(params.vectors))
    assert norm(sub(k, expected)) / norm(expected) < 1e-10
    s = qsvd(k).singular_values
    assert s[1] / s[0] < 1e-10
    assert s[0] == pytest.approx(np.sum(params.distances**2), rel=1e-10)


def test_quat_kernel_exactly_hermitian_under_noise():
    rng = np.random.default_rng(96)
    params = true_parameters(geometry(rng))
    for noise in (NoiseConfig(2.0, 50.0), NoiseConfig(4.0, 150.0)):
        ms = synthesize(params, noise, "II", rng)
        k = quat_gek_from_measurements(ms).k
        assert norm(sub(k, ctranspose(k))) == 0.0


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
    assert np.array_equal(kq.k.a, kq.k.a.conj().T)
    assert np.array_equal(kq.k.b, -kq.k.b.T)
    np.testing.assert_array_equal(kq.k.a.real, kr.k)
    zero_edge = st.n_aa
    assert np.all(kq.k.a.imag[zero_edge] == 0) and np.all(kq.k.b[:, zero_edge] == 0)


def test_quat_kernel_built_in_place_matches_components():
    # The halves are written in place and kept uncopied; the entries must
    # still equal the textbook assembly bit for bit, and the kernel must not
    # alias anything the caller can write.
    rng = np.random.default_rng(107)
    ms = synthesize(true_parameters(geometry(rng)), NoiseConfig(2.0, 50.0), "II", rng)
    kr = build_real_gek(ms)
    planes = tuple((u.copy(), v.copy()) for u, v in ms.plane_components())
    k = build_quat_gek(kr, planes).k
    want = from_components(
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
    nu = _embed_r3(params.vectors)
    nu_aa, nu_at = column(nu[:n_aa]), column(nu[n_aa:])
    expected = matmul(nu_aa, ctranspose(nu_at))
    assert norm(sub(k2, expected)) / norm(expected) < 1e-10


def test_diagonal_blocks_hermitian():
    rng = np.random.default_rng(100)
    _, ms = exact_measurements(rng, n_anchors=4, n_targets=5)
    kq = quat_gek_from_measurements(ms)
    n_aa = structure_matrices(4, 5).n_aa
    for rows in (slice(None, n_aa), slice(n_aa, None)):
        block = QuaternionMatrix(kq.k.a[rows, rows], kq.k.b[rows, rows])
        assert norm(sub(block, ctranspose(block))) == 0.0


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
    np.testing.assert_array_equal(masked.k.a.real[mask], gek.k.a.real[mask])
    np.testing.assert_allclose(np.diag(masked.k.a.real), np.diag(gek.k.a.real))


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



# ---- the kernel contract, checked at construction ----


def small_kernels(rng):
    _, ms = exact_measurements(rng, "II", 3, 4)
    return build_real_gek(ms), quat_gek_from_measurements(ms)


def with_mask(gek, mask):
    """The same kernel through its public constructor, with `mask` attached."""
    return RealGek(gek.k, mask) if isinstance(gek, RealGek) else QuatGek(gek.k, mask)


def test_asymmetric_mask_rejected_at_construction():
    # Default config, Scenario II, sigma_d 2 m, eps 50 deg, 30% hidden,
    # trial 0: a mask that hides (3, 40) but not (40, 3) used to complete
    # to a real kernel 176 m^2 away from symmetric, which smds symmetrized
    # and qd_mrc_smds solved without a word.
    cfg = harness.ExperimentConfig(scenarios=("II",), missing_fraction=0.3)
    _, ms, mask = harness._Instance(cfg, "II", 2.0, 50.0, 0).data()
    mask = mask.copy()
    mask[3, 40], mask[40, 3] = False, True
    for gek in (build_real_gek(ms), quat_gek_from_measurements(ms)):
        with pytest.raises(AsymmetricMask, match="symmetric"):
            with_mask(gek, mask)


def test_mask_shape_checked():
    rng = np.random.default_rng(116)
    for gek in small_kernels(rng):
        with pytest.raises(AsymmetricMask):
            with_mask(gek, np.ones((4, 4), dtype=bool))
        with pytest.raises(AsymmetricMask):
            apply_mask(gek, np.ones((4, 4), dtype=bool))


def test_hidden_diagonal_or_non_bool_mask_rejected():
    rng = np.random.default_rng(108)
    for gek in small_kernels(rng):
        hole = np.ones((gek.m, gek.m), dtype=bool)
        hole[2, 2] = False
        with pytest.raises(AsymmetricMask, match="diagonal"):
            with_mask(gek, hole)
        with pytest.raises(AsymmetricMask, match="bool"):
            with_mask(gek, np.ones((gek.m, gek.m), dtype=int))
        # apply_mask converts an integer mask; a str or float one used to
        # cast to bool, every "a" or 0.5 becoming an observed entry
        assert apply_mask(gek, np.ones((gek.m, gek.m), dtype=int)).mask.dtype == bool
        for dtype in (str, float):
            with pytest.raises(AsymmetricMask, match="bool or integer"):
                apply_mask(gek, np.ones((gek.m, gek.m), dtype=dtype))


def test_non_square_kernel_rejected():
    with pytest.raises(ShapeMismatch, match="square"):
        RealGek(np.ones((3, 4)))
    with pytest.raises(ShapeMismatch, match="square"):
        QuatGek(QuaternionMatrix(np.ones((3, 4)), np.zeros((3, 4))))


def default_instance():
    """Default config, Scenario II, sigma_d 2 m, eps 50 deg, trial 0."""
    cfg = harness.ExperimentConfig(scenarios=("II",))
    instance = harness._Instance(cfg, "II", 2.0, 50.0, 0)
    geometry, ms, _ = instance.data()
    return geometry, ms, instance.structure


def test_non_symmetric_real_kernel_rejected():
    # 50 m^2 on one side of the diagonal used to pass, and smds symmetrized
    # it away without a word (xi 1.1624 against 1.1626 m).
    _, ms, _ = default_instance()
    k = build_real_gek(ms).k.copy()
    k[3, 40] += 50.0
    with pytest.raises(OutOfRange, match="Hermitian"):
        RealGek(k)


def test_non_hermitian_quat_kernel_rejected_before_mrc():
    # A[40, 3] lies in the block below the cross block, which qd_mrc_smds
    # never reads, so the tampered kernel used to solve without a word.
    geometry, ms, structure = default_instance()
    kq = quat_gek_from_measurements(ms)
    a = kq.k.a.copy()
    a[40, 3] += 50.0
    with pytest.raises(OutOfRange, match="Hermitian"):
        qd_mrc_smds(QuatGek(QuaternionMatrix(a, kq.k.b)), geometry.anchors, structure)


@pytest.mark.parametrize("part", ["w", "x", "y", "z"])
def test_non_hermitian_quat_kernel_rejected(part):
    # one entry off in the real part, or in i, j or k, breaks A = A^H or
    # B = -B^T, which are tested on the whole complex halves
    rng = np.random.default_rng(117)
    _, kq = small_kernels(rng)
    parts = dict(zip("wxyz", (kq.k.a.real.copy(), kq.k.a.imag.copy(),
                              kq.k.b.real.copy(), kq.k.b.imag.copy())))
    parts[part][1, 2] += 1.0
    with pytest.raises(OutOfRange, match="Hermitian"):
        QuatGek(from_components(*parts.values()))


def test_apply_mask_leaves_callers_mask_writeable():
    rng = np.random.default_rng(118)
    for gek in small_kernels(rng):
        mask = missing_mask(gek.m, 0.3, rng)
        masked = apply_mask(gek, mask)
        kept = masked.mask.copy()
        mask[...] = missing_mask(gek.m, 0.3, rng)  # the buffer is reused
        assert np.array_equal(masked.mask, kept)
        assert not masked.mask.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_rejected(bad):
    # observed or hidden, a non-finite entry never makes a kernel
    rng = np.random.default_rng(109)
    kr, kq = small_kernels(rng)
    mask = missing_mask(kr.m, 0.3, rng)
    k = kr.k.copy()
    k[0, 1] = bad
    with pytest.raises(OutOfRange, match="finite"):
        RealGek(k, mask)
    b = kq.k.b.copy()
    b[tuple(np.argwhere(~mask)[0])] = bad
    with pytest.raises(OutOfRange, match="finite"):
        QuatGek(QuaternionMatrix(kq.k.a, b), mask)
