import functools
import re

import numpy as np
import pytest

from qmds import harness
from qmds.completion import complete_quat_gek, complete_real_gek
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


@pytest.mark.parametrize("build", [build_real_gek, quat_gek_from_measurements])
def test_distances_with_overflowing_squares_are_refused(build):
    # Kernel entries are products of two distances, so a set whose squares
    # overflow must not reach the builders: they would warn in np.multiply.
    _, ms = exact_measurements(np.random.default_rng(5))
    angles = ms.adoa, ms.azimuths, ms.elevations
    longest = np.sqrt(np.finfo(float).max) * 0.999  # about 1.34e154
    build(MeasurementSet(ms.distances * (longest / ms.distances.max()), *angles))
    with pytest.raises(OutOfRange, match="measured distances must give every edge"):
        build(MeasurementSet(ms.distances * 1e160, *angles))


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
    """Exact real kernel and the (2, 3, M) in-plane components [u; v] of
    edge vectors, rows xy, xz and yz."""
    a, b, c = v.T
    return RealGek(v @ v.T), np.array([[a, a, b], [b, c, c]])


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
        build_quat_gek(kr, planes[..., :2])


@pytest.mark.parametrize("keep", [0, 1, 2])
def test_quat_kernel_needs_all_three_planes(keep):
    # With fewer planes the unwritten parts of the halves kept whatever
    # np.empty gave them: a large kernel came back with B = 0, silently.
    kr, planes = _kernel_inputs(np.eye(3))
    with pytest.raises(ShapeMismatch, match=r"planes must be a 3-D \(2, 3, 3\) array"):
        build_quat_gek(kr, planes[:, :keep])


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
    s = qsvd(k)[1]
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
    planes = ms.plane_components()
    k = build_quat_gek(kr, planes).k
    want = from_components(
        kr.k, *(np.outer(v, u) - np.outer(u, v) for u, v in zip(*planes)))
    assert np.array_equal(k.a, want.a) and np.array_equal(k.b, want.b)
    assert not k.a.flags.writeable and not k.b.flags.writeable
    planes[0] *= 2.0
    planes[1] = 1.0
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
    data, mask = apply_mask(gek, np.ones((gek.m, gek.m), dtype=int))
    np.testing.assert_array_equal(data, gek.k)
    assert mask.dtype == bool and mask.all()  # an integer mask is converted


def test_mask_zeroes_symmetric_entries():
    rng = np.random.default_rng(103)
    _, ms = exact_measurements(rng, "II", 3, 4)
    gek = quat_gek_from_measurements(ms)
    mask = missing_mask(gek.m, 0.3, rng)
    data, _ = apply_mask(gek, mask)
    assert isinstance(data, QuaternionMatrix)  # bare data, not a kernel type
    assert np.all(np.hypot(np.abs(data.a), np.abs(data.b))[~mask] == 0.0)
    np.testing.assert_array_equal(data.a.real[mask], gek.k.a.real[mask])
    np.testing.assert_allclose(np.diag(data.a.real), np.diag(gek.k.a.real))


def test_kernel_types_carry_no_mask():
    rng = np.random.default_rng(119)
    for gek in small_kernels(rng):
        assert not hasattr(gek, "mask")
        with pytest.raises(TypeError):
            type(gek)(gek.k, np.ones((gek.m, gek.m), dtype=bool))


@functools.cache
def masked_default_instance():
    """Default config, Scenario II, sigma_d 2 m, eps 50 deg, 30% hidden,
    trial 0: the two kernels and the mask."""
    cfg = harness.ExperimentConfig(scenarios=("II",), missing_fraction=0.3)
    _, ms, mask = harness._Instance(cfg, "II", NoiseConfig(2.0, 50.0), 0).data()
    return build_real_gek(ms), quat_gek_from_measurements(ms), mask


def _edited(mask, *entries):
    bad = mask.copy()
    for i, j, observed in entries:
        bad[i, j] = observed
    return bad


# name -> (a bad mask made from a good one, the message it must raise)
BAD_MASKS = {
    "float": (lambda m: m.astype(float), "mask must be bool or integer, got float64"),
    # a str or float mask used to cast to bool, "False" or 0.5 becoming observed
    "str": (lambda m: m.astype(str), "mask must be bool or integer, got <U5"),
    "shape": (lambda m: m[:4, :4], "mask shape (4, 4) does not match M=85"),
    # hiding (3, 40) but not (40, 3) used to complete to a real kernel 176 m^2
    # away from symmetric, which smds symmetrized and qd_mrc_smds solved
    "asymmetric": (lambda m: _edited(m, (3, 40, False), (40, 3, True)),
                   "observation mask must be symmetric"),
    "hidden-diagonal": (lambda m: _edited(m, (2, 2, False)),
                        "diagonal entries must be observed"),
}

MASK_ENTRY_POINTS = {
    "apply_mask-real": lambda kr, kq, mask: apply_mask(kr, mask),
    "apply_mask-quat": lambda kr, kq, mask: apply_mask(kq, mask),
    "complete_real_gek": lambda kr, kq, mask: complete_real_gek(kr, mask),
    "complete_quat_gek": lambda kr, kq, mask: complete_quat_gek(kq, mask),
}


@pytest.mark.parametrize("entry", list(MASK_ENTRY_POINTS))
@pytest.mark.parametrize("case", list(BAD_MASKS))
def test_mask_contract(entry, case):
    # One contract through every entry point, checked before any fill or sweep.
    kr, kq, good = masked_default_instance()
    make, message = BAD_MASKS[case]
    mask = make(good)
    kept, kernels = mask.copy(), (kr.k.copy(), kq.k.a.copy(), kq.k.b.copy())
    with pytest.raises(AsymmetricMask, match=f"^{re.escape(message)}$"):
        MASK_ENTRY_POINTS[entry](kr, kq, mask)
    np.testing.assert_array_equal(mask, kept)
    assert mask.flags.writeable
    for before, after in zip(kernels, (kr.k, kq.k.a, kq.k.b)):
        np.testing.assert_array_equal(after, before)


# ---- the kernel contract, checked at construction ----


def small_kernels(rng):
    _, ms = exact_measurements(rng, "II", 3, 4)
    return build_real_gek(ms), quat_gek_from_measurements(ms)


def test_complex_real_kernel_rejected():
    # It was accepted: the mirror test checks K = K^T, not K = K^H, and eigh
    # read one triangle of this matrix (eigenvalues 2 +- i) as 1 and 3.
    with pytest.raises(ShapeMismatch, match="kernel must be"):
        RealGek(np.array([[2.0, 1j], [1j, 2.0]]))


@pytest.mark.parametrize("planes", [
    ((1.0, 2.0),) * 3,  # raised AttributeError: a float has no shape
    np.zeros((2, 3, 3), complex),  # raised numpy's UFuncTypeError
    np.zeros((3, 2, 3)),  # three (u, v) pairs: the layout before the array
], ids=["tuple", "complex", "transposed"])
def test_quat_kernel_planes_are_one_real_array(planes):
    kr, _ = _kernel_inputs(np.eye(3))
    with pytest.raises(ShapeMismatch, match="planes must be"):
        build_quat_gek(kr, planes)


def test_non_square_kernel_rejected():
    with pytest.raises(ShapeMismatch, match="square"):
        RealGek(np.ones((3, 4)))
    with pytest.raises(ShapeMismatch, match="square"):
        QuatGek(QuaternionMatrix(np.ones((3, 4)), np.zeros((3, 4))))


def default_instance():
    """Default config, Scenario II, sigma_d 2 m, eps 50 deg, trial 0."""
    cfg = harness.ExperimentConfig(scenarios=("II",))
    instance = harness._Instance(cfg, "II", NoiseConfig(2.0, 50.0), 0)
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
        _, frozen = apply_mask(gek, mask)
        kept = frozen.copy()
        mask[...] = missing_mask(gek.m, 0.3, rng)  # the buffer is reused
        assert np.array_equal(frozen, kept)
        assert not frozen.flags.writeable


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_rejected(bad):
    # a non-finite entry never makes a kernel, so none reaches a mask
    rng = np.random.default_rng(109)
    kr, kq = small_kernels(rng)
    k = kr.k.copy()
    k[0, 1] = bad
    with pytest.raises(OutOfRange, match="finite"):
        RealGek(k)
    b = kq.k.b.copy()
    b[1, 2] = bad
    with pytest.raises(OutOfRange, match="finite"):
        QuatGek(QuaternionMatrix(kq.k.a, b))
