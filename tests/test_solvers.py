import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qmds import quat, solvers
from qmds.errors import (
    AmbiguityResolutionFailure,
    DegenerateAnchors,
    OutOfRange,
    RankDeficient,
    ShapeMismatch,
)
from qmds.gek import (
    QuatGek,
    RealGek,
    build_quat_gek,
    build_real_gek,
    quat_gek_from_measurements,
)
from qmds.measurement import MeasurementSet, NoiseConfig, synthesize
from qmds.network import NetworkGeometry, structure_matrices, true_parameters
from qmds.quat import QuaternionMatrix, _embed_r3, _mirrors, _r3_components
from quaternion_oracle import (
    add,
    column,
    columns,
    ctranspose,
    div,
    from_components,
    hamilton,
    hermitian_part,
    matmul,
    norm,
    sub,
)
from qmds.solvers import (
    _inversion_operator,
    _resolve_edge_ambiguity,
    anchored_inversion,
    procrustes_align,
    qd_mrc_smds,
    qd_mrc_smds_iterative,
    qd_smds,
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
    return build_quat_gek(RealGek(v @ v.T), np.array([[a, a, b], [b, c, c]]))


def xi(est_targets, true_targets):
    return np.linalg.norm(est_targets - true_targets) / true_targets.shape[0]


# ---- anchored inversion ----


def test_anchored_inversion_consistency():
    rng = np.random.default_rng(131)
    geo = room(rng, 6)
    st = structure_matrices(5, 6)
    v = true_parameters(geo).vectors
    x_hat = anchored_inversion(v, geo.anchors, st)
    np.testing.assert_allclose(x_hat, geo.stacked, atol=1e-10)


def test_anchored_inversion_anchors_only():
    geo = NetworkGeometry(ROOM_ANCHORS, np.zeros((0, 3)))
    st = structure_matrices(5, 0)
    v = true_parameters(geo).vectors
    x_hat = anchored_inversion(v, geo.anchors, st)
    np.testing.assert_allclose(x_hat, ROOM_ANCHORS, atol=1e-12)


def test_anchored_inversion_bounded_sensitivity():
    rng = np.random.default_rng(132)
    geo = room(rng, 5)
    st = structure_matrices(5, 5)
    v = true_parameters(geo).vectors
    base = anchored_inversion(v, geo.anchors, st)
    delta = 1e-3 * rng.standard_normal(v.shape)
    moved = anchored_inversion(v + delta, geo.anchors, st)
    stacked = np.vstack(
        [np.hstack([np.eye(5), np.zeros((5, 5))]), st.c]
    )
    gain = np.linalg.norm(np.linalg.pinv(stacked), 2)
    assert np.linalg.norm(moved - base) <= gain * np.linalg.norm(delta) + 1e-12


@pytest.mark.parametrize("n_a, n_t", [(1, 3), (4, 1), (5, 6), (7, 15)])
def test_anchored_inversion_matches_lstsq_with_cached_operator(monkeypatch, n_a, n_t):
    rng = np.random.default_rng(1000 + 10 * n_a + n_t)
    st = structure_matrices(n_a, n_t)
    anchors = rng.uniform(0, 30, size=(n_a, 3))
    v = 10 * rng.standard_normal((st.c.shape[0], 3))  # inconsistent edges
    stacked = np.vstack([np.hstack([np.eye(n_a), np.zeros((n_a, n_t))]), st.c])
    want = np.linalg.lstsq(stacked, np.vstack([anchors, v]), rcond=None)[0]
    got = anchored_inversion(v, anchors, st)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    op = _inversion_operator(st)
    assert op is _inversion_operator(structure_matrices(n_a, n_t))
    assert not op.flags.writeable

    def no_factorization(*args, **kwargs):
        raise AssertionError("anchored_inversion factored the system again")

    for name in ("lstsq", "pinv", "matrix_rank", "svd"):
        monkeypatch.setattr(np.linalg, name, no_factorization)
    np.testing.assert_array_equal(anchored_inversion(v, anchors, st), got)


def test_anchored_system_has_full_column_rank_for_every_structure():
    # Why the inversion needs no rank check: each target column of [I 0; C]
    # is nonzero only in its own anchor-target rows.
    for n_a in range(1, 8):
        for n_t in range(25):
            st = structure_matrices(n_a, n_t)
            stacked = np.vstack([np.eye(n_a, n_a + n_t), st.c])
            assert np.linalg.matrix_rank(stacked) == n_a + n_t


def test_scenario_one_pipeline_rejects_complex_anchors():
    rng = np.random.default_rng(158)
    geo, _, ms, st = exact_setup(rng, "I", n_targets=4)
    with pytest.raises(ShapeMismatch, match="anchors must be"):
        scenario_one_pipeline(ms, geo.anchors + 0j, st)


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
    return _embed_r3(rng.standard_normal((n, 3)))


def right_mul(nu, g):
    """The entrywise product nu_m g of columns [u1, u2] by the Hamilton
    product oracle."""
    w, x, y, z = hamilton((nu[:, 0].real, nu[:, 0].imag, nu[:, 1].real, nu[:, 1].imag), g)
    return np.column_stack((w + 1j * x, y + 1j * z))


def random_unit_quaternion(rng):
    g = rng.standard_normal(4)
    return g / np.linalg.norm(g)


def test_phase_resolution_recovers_true_vector():
    rng = np.random.default_rng(135)
    nu = make_nu(rng, 12)
    g0 = random_unit_quaternion(rng)
    spun = right_mul(nu, g0)
    fixed, info = _resolve_edge_ambiguity(spun, nu[:5])
    assert fixed.shape == (12, 2)
    assert np.linalg.norm(fixed - nu) <= 1e-10 * np.linalg.norm(nu)
    assert info["phase_residual"] < 1e-10
    # the factor undoes g0: it is the conjugate of the unit g0
    np.testing.assert_allclose(info["phase"], g0 * (1, -1, -1, -1), atol=1e-12)
    assert (np.linalg.norm(right_mul(spun, info["phase"]) - fixed)
            <= 1e-12 * np.linalg.norm(nu))


def test_phase_resolution_identity():
    rng = np.random.default_rng(136)
    nu = make_nu(rng, 8)
    fixed, info = _resolve_edge_ambiguity(nu, nu[:4])
    assert np.linalg.norm(fixed - nu) <= 1e-12 * np.linalg.norm(nu)
    np.testing.assert_allclose(info["phase"], [1, 0, 0, 0], atol=1e-12)
    assert not info["phase"].flags.writeable


def test_phase_resolution_invariant_to_extra_phase():
    rng = np.random.default_rng(137)
    nu = make_nu(rng, 10)
    known = nu[:4]
    g0, h = random_unit_quaternion(rng), random_unit_quaternion(rng)
    once, _ = _resolve_edge_ambiguity(right_mul(nu, g0), known)
    twice, _ = _resolve_edge_ambiguity(right_mul(right_mul(nu, g0), h), known)
    assert np.linalg.norm(once - twice) <= 1e-10 * np.linalg.norm(nu)


def test_phase_resolution_failure_on_zero():
    rng = np.random.default_rng(138)
    nu = make_nu(rng, 6)
    with pytest.raises(AmbiguityResolutionFailure):
        _resolve_edge_ambiguity(np.zeros((6, 2), complex), nu[:3])


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
    nu_norm = np.sqrt(est.diagnostics["top_eigenvalue"])
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


def test_qd_smds_rejects_a_kernel_with_negative_top_eigenvalue():
    # -(G G^T) - I is Hermitian with every eigenvalue at most -1: no edge
    # vector sqrt(lambda) u exists. No square root of lambda is taken, so no
    # RuntimeWarning (an error under this suite's filters) is raised first.
    rng = np.random.default_rng(146)
    geo, _, _, st = exact_setup(rng, "II")
    g = rng.standard_normal((st.c.shape[0], st.c.shape[0]))
    k = -(g @ g.T) - np.eye(len(g))
    kq = QuatGek(QuaternionMatrix((k + k.T) / 2, np.zeros_like(k)))
    with pytest.raises(RankDeficient, match="no positive eigenvalue"):
        qd_smds(kq, geo.anchors, st)


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

    # Tampered Hermitianly, so the kernel still constructs: g + g^T keeps
    # A = A^H and i (h - h^T) keeps B = -B^T, both to the bit.
    n_aa = 10
    ka, kb = kq.k.a.copy(), kq.k.b.copy()
    g = rng.standard_normal((n_aa, n_aa))
    ka[:n_aa, :n_aa] += g + g.T
    h = rng.standard_normal((ka.shape[0] - n_aa,) * 2)
    kb[n_aa:, n_aa:] += 1j * (h - h.T)
    tampered = qd_mrc_smds(QuatGek(QuaternionMatrix(ka, kb)), geo.anchors, st)
    assert np.array_equal(tampered.targets, base.targets)


def test_mrc_iterative_tau_zero_matches_closed_form():
    # qd_mrc_smds is the refinement at tau = 0: the same estimate and the
    # same diagnostics, to the bit
    rng = np.random.default_rng(148)
    geo, params, _, st = exact_setup(rng, "II", n_targets=6)
    noisy = synthesize(params, NoiseConfig(2.0, 40.0), "II", rng)
    kq = quat_gek_from_measurements(noisy)
    a = qd_mrc_smds(kq, geo.anchors, st)
    b = qd_mrc_smds_iterative(kq, geo.anchors, st, 0)
    assert np.array_equal(a.targets, b.targets)
    assert a.diagnostics.keys() == b.diagnostics.keys() == {
        "tau", "nu_residuals", "trajectory"}
    assert a.diagnostics["tau"] == b.diagnostics["tau"] == 0
    assert a.diagnostics["nu_residuals"] == b.diagnostics["nu_residuals"] == []
    np.testing.assert_array_equal(a.diagnostics["trajectory"],
                                  b.diagnostics["trajectory"])
    assert a.diagnostics["trajectory"].shape == (1, 6, 3)


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
        quat_gek_from_measurements(noisy), geo.anchors, st, tau_max=3,
    )
    traj = est.diagnostics["trajectory"]
    assert len(traj) == 4
    assert traj.shape == (4, 6, 3) and not traj.flags.writeable
    np.testing.assert_array_equal(traj[-1], est.targets)


def test_mrc_zero_anchor_edges():
    anchors = np.zeros((5, 3))
    targets = np.array([[1.0, 2.0, 3.0]])
    params = true_parameters(NetworkGeometry(anchors, targets))
    kq = exact_quat_gek(params.vectors)
    st = structure_matrices(5, 1)
    with pytest.raises(DegenerateAnchors, match="zero length"):
        qd_mrc_smds(kq, anchors, st)


def test_mrc_iterative_rejects_negative_sweep_count():
    rng = np.random.default_rng(102)
    geo, _, ms, st = exact_setup(rng, "II", n_targets=2)
    with pytest.raises(OutOfRange, match="tau_max"):
        qd_mrc_smds_iterative(quat_gek_from_measurements(ms), geo.anchors, st,
                              tau_max=-1)


@pytest.mark.parametrize("tau_max", [2.0, 2.5, True, np.float64(1.0), "1"])
def test_mrc_iterative_rejects_a_non_integral_sweep_count(tau_max):
    rng = np.random.default_rng(103)
    geo, _, ms, st = exact_setup(rng, "II", n_targets=2)
    with pytest.raises(OutOfRange, match="tau_max must be an integer"):
        qd_mrc_smds_iterative(quat_gek_from_measurements(ms), geo.anchors, st,
                              tau_max=tau_max)


@pytest.mark.parametrize("tau_max", [np.int64(2), np.int32(2), np.uint8(2)])
def test_mrc_iterative_accepts_numpy_integer_sweep_counts(tau_max):
    rng = np.random.default_rng(104)
    geo, _, ms, st = exact_setup(rng, "II", n_targets=2)
    kq = quat_gek_from_measurements(ms)
    got = qd_mrc_smds_iterative(kq, geo.anchors, st, tau_max=tau_max)
    want = qd_mrc_smds_iterative(kq, geo.anchors, st, tau_max=2)
    np.testing.assert_array_equal(got.diagnostics["trajectory"],
                                  want.diagnostics["trajectory"])


def _quaternion_algebra_mrc(kq, anchors, structure, tau_max):
    """The refinement loop written in the test oracle's quaternion algebra,
    as the reference for the solver's column-form sweeps:
    (trajectory, nu_residuals)."""
    n_a, n_t, n_aa = structure.n_anchors, structure.n_targets, structure.n_aa
    a, b = kq.k.a, kq.k.b
    k2 = QuaternionMatrix(a[:n_aa, n_aa:], b[:n_aa, n_aa:])
    k3 = QuaternionMatrix(a[n_aa:, n_aa:], b[n_aa:, n_aa:])
    nu_aa = column(_embed_r3(structure.c[:structure.n_aa, :n_a] @ anchors))
    aa_energy = norm(nu_aa) ** 2
    k2h_nu = matmul(ctranspose(k2), nu_aa)
    states, residuals = [div(k2h_nu, aa_energy)], []
    for _ in range(tau_max):
        prev = states[-1]
        nu = div(add(k2h_nu, matmul(ctranspose(k3), prev)), aa_energy + norm(prev) ** 2)
        residuals.append(norm(sub(nu, prev)) / max(norm(prev), np.finfo(float).tiny))
        states.append(nu)
    trajectory = [
        (anchors[:, None, :] - _r3_components(columns(nu)).reshape(n_a, n_t, 3)).mean(axis=0)
        for nu in states
    ]
    return trajectory, residuals


@settings(max_examples=60, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_targets=hst.integers(1, 8),
       tau_max=hst.integers(0, 5), scale=hst.floats(1.0, 1e4))
def test_mrc_sweeps_match_quaternion_algebra(seed, n_targets, tau_max, scale):
    # Any Hermitian quaternion kernel of the 5-anchor layout.
    rng = np.random.default_rng(seed)
    st = structure_matrices(5, n_targets)
    m = st.c.shape[0]
    q = from_components(*(scale * rng.standard_normal((4, m, m))))
    kq = QuatGek(hermitian_part(q))
    est = qd_mrc_smds_iterative(kq, ROOM_ANCHORS, st, tau_max=tau_max)
    trajectory, residuals = _quaternion_algebra_mrc(kq, ROOM_ANCHORS, st, tau_max)

    edges = [ROOM_ANCHORS.mean(axis=0) - t for t in trajectory]
    assert len(est.diagnostics["trajectory"]) == tau_max + 1
    for got, want, edge in zip(est.diagnostics["trajectory"], trajectory, edges):
        # relative to the size of the averaged edge estimate
        assert np.abs(got - want).max() <= 1e-12 * np.abs(edge).max()
    np.testing.assert_array_equal(est.targets, est.diagnostics["trajectory"][-1])
    assert est.diagnostics["tau"] == tau_max
    np.testing.assert_allclose(est.diagnostics["nu_residuals"], residuals,
                               rtol=1e-12, atol=1e-15)


def _peak_bytes(call):
    call()  # warm up: cached operators, lazy imports
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_direct_path_makes_no_adjoint_sized_temporaries():
    # 5 anchors, 15 targets: the 2N x 2N adjoint of the target block alone
    # would take 360 KB, and a copy of both kernel halves 226 KiB.
    rng = np.random.default_rng(153)
    geo, params, _, st = exact_setup(rng, "II")
    ms = synthesize(params, NoiseConfig(2.0, 30.0), "II", rng)
    kr = build_real_gek(ms)
    planes = ms.plane_components()
    kq = build_quat_gek(kr, planes)
    assert _peak_bytes(lambda: qd_mrc_smds(kq, geo.anchors, st)) < 64 * 1024
    assert _peak_bytes(
        lambda: qd_mrc_smds_iterative(kq, geo.anchors, st, tau_max=1)) < 64 * 1024
    halves = kq.k.a.nbytes + kq.k.b.nbytes
    assert _peak_bytes(lambda: build_quat_gek(kr, planes)) < 2 * halves
    # The Hermitian test compares row blocks, not whole 56 KiB planes.
    assert _peak_bytes(lambda: QuatGek(kq.k)) <= 32 * 1024


def test_exact_mirror_tests_make_no_kernel_sized_temporaries():
    # np.array_equal(x, x.T) buffers the whole transpose: it peaked at 65 KiB
    # for an 85-edge measurement set, and at 234 KiB as
    # np.array_equal(x, x.conj().T) on one complex kernel half.
    rng = np.random.default_rng(154)
    _, params, _, _ = exact_setup(rng, "II")
    ms = synthesize(params, NoiseConfig(2.0, 30.0), "II", rng)
    assert ms.m == 85
    fields = ms.distances, ms.adoa, ms.azimuths, ms.elevations
    assert _peak_bytes(lambda: MeasurementSet(*fields)) < 32 * 1024
    half = quat_gek_from_measurements(ms).k.a
    assert _peak_bytes(lambda: _mirrors(half, np.conjugate)) < 32 * 1024


def _empty_like(kernel):
    z = np.zeros((0, 0))
    return RealGek(z) if isinstance(kernel, RealGek) else QuatGek(QuaternionMatrix(z, z))


def _with_entry(anchors, value):
    bad = anchors.copy()
    bad[2, 1] = value
    return bad


def _opposite(anchors):
    """Anchors 0 and 1 at x = +1.7e308 and -1.7e308: the edge between them
    is past the float range."""
    bad = anchors.copy()
    bad[:2, 0] = 1.7e308, -1.7e308
    return bad


# Each case breaks the solvers' input contract one way:
# name -> (error, message pattern, (kernel, anchors, structure) -> bad inputs).
BAD_INPUTS = {
    "empty-kernel": (ShapeMismatch, "kernel size 0 .*structure",
                     lambda k, a, st: (_empty_like(k), a, st)),
    "kernel-size": (ShapeMismatch, "kernel size 85 .*structure",
                    lambda k, a, st: (k, a, structure_matrices(5, 14))),
    "four-anchors": (ShapeMismatch, "anchors must be", lambda k, a, st: (k, a[:4], st)),
    "2d-anchors": (ShapeMismatch, "anchors must be",
                   lambda k, a, st: (k, a[:, :2], st)),
    "one-anchor-vector": (ShapeMismatch, "anchors must be",
                          lambda k, a, st: (k, a[0], st)),
    "complex-anchors": (ShapeMismatch, "anchors must be",
                        lambda k, a, st: (k, a + 0j, st)),
    "nan-anchor": (OutOfRange, "non-finite",
                   lambda k, a, st: (k, _with_entry(a, np.nan), st)),
    "inf-anchor": (OutOfRange, "non-finite",
                   lambda k, a, st: (k, _with_entry(a, np.inf), st)),
    # finite, but the squared edge lengths overflowed: a RuntimeWarning from
    # the first squared length (smds) or the first norm (the others)
    "huge-anchors": (OutOfRange, "anchors must give every edge a finite square",
                     lambda k, a, st: (k, a * 1e160, st)),
    # finite, but an anchor edge overflowed in the incidence product itself:
    # a RuntimeWarning from matmul before the squares were taken
    "opposite-anchors": (OutOfRange, "anchors must give every edge a finite square",
                         lambda k, a, st: (k, _opposite(a), st)),
}


def count_eigen_solves(monkeypatch):
    """Count calls of the two eigen-solves a solver can start: np.linalg.eigh
    and the quaternion power iteration."""
    calls = []

    def counted(name, solve):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return solve(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    monkeypatch.setattr(quat, "_certified_power",
                        counted("power", quat._certified_power))
    return calls


@pytest.mark.parametrize("solve", [smds, qd_smds, qd_mrc_smds, qd_mrc_smds_iterative])
@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_solver_input_contract(monkeypatch, case, solve):
    # Each solver checks one contract before any eigen-solve. Without it, bad
    # anchor shapes failed as numpy matmul ValueErrors, a NaN anchor as a
    # LinAlgError (or as NaN targets from the MRC solvers), complex anchors
    # as a ComplexWarning (or lost their imaginary part), and smds and
    # qd_smds saw the size mismatch only after their eigen-solve.
    error, pattern, make = BAD_INPUTS[case]
    rng = np.random.default_rng(156)
    geo, _, ms, st = exact_setup(rng, "II")
    kernel = build_real_gek(ms) if solve is smds else quat_gek_from_measurements(ms)
    kernel, anchors, structure = make(kernel, geo.anchors, st)
    calls = count_eigen_solves(monkeypatch)
    with pytest.raises(error, match=pattern):
        solve(kernel, anchors, structure)
    assert calls == []


@pytest.mark.parametrize("solve", [smds, qd_smds, qd_mrc_smds, qd_mrc_smds_iterative,
                                   scenario_one_pipeline])
def test_a_solve_checks_its_points_once(monkeypatch, solve):
    # _solver_inputs is the solve path's one check: the placement steps take
    # the float arrays it returns, unchecked. The Scenario I pipeline runs two
    # solves, smds and then a quaternion one, so it checks twice.
    rng = np.random.default_rng(159)
    if solve is scenario_one_pipeline:
        geo, _, ms, st = exact_setup(rng, "I")
        args, checks = (ms, geo.anchors, st), ["anchors"] * 2
    else:
        geo, _, ms, st = exact_setup(rng, "II")
        kernel = build_real_gek(ms) if solve is smds else quat_gek_from_measurements(ms)
        args, checks = (kernel, geo.anchors, st), ["anchors"]
    calls, points = [], solvers._points

    def counted(*args, **kwargs):
        calls.append(args[0])
        return points(*args, **kwargs)

    monkeypatch.setattr(solvers, "_points", counted)
    est = solve(*args)
    assert calls == checks
    assert xi(est.targets, geo.targets) < 1e-6


@pytest.mark.parametrize("case", [c for c in BAD_INPUTS if c != "empty-kernel"])
def test_scenario_one_pipeline_input_contract(monkeypatch, case):
    # The pipeline builds its kernels from the measurement set, and stage
    # one's smds refuses its anchors and structure before any eigen-solve;
    # no placement step sees them.
    error, pattern, make = BAD_INPUTS[case]
    rng = np.random.default_rng(156)
    geo, _, ms, st = exact_setup(rng, "I")
    ms, anchors, structure = make(ms, geo.anchors, st)
    calls = count_eigen_solves(monkeypatch)
    with pytest.raises(error, match=pattern):
        scenario_one_pipeline(ms, anchors, structure)
    assert calls == []


def test_qd_smds_rejects_a_zero_edge_network(monkeypatch):
    # One anchor and no targets: a 0 x 0 kernel matches the structure's 0
    # edges, so the empty matrix reaches the eigen-solve, which rejects it
    # before any power step (it used to raise argmax's ValueError).
    empty = QuatGek(QuaternionMatrix(np.zeros((0, 0)), np.zeros((0, 0))))
    calls = count_eigen_solves(monkeypatch)
    with pytest.raises(ShapeMismatch, match="empty"):
        qd_smds(empty, ROOM_ANCHORS[:1], structure_matrices(1, 0))
    assert calls == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solve", [smds, qd_smds, qd_mrc_smds, qd_mrc_smds_iterative])
def test_solver_rejects_non_finite_kernel(solve, bad):
    rng = np.random.default_rng(152)
    geo, _, ms, st = exact_setup(rng, "II", n_targets=4)
    # The kernel types reject the entry at construction, so no solver sees it.
    with pytest.raises(OutOfRange):
        if solve is smds:
            k = build_real_gek(ms).k.copy()
            k[3, 17] = bad
            kernel = RealGek(k)
        else:
            # an anchor-target entry, which every quaternion solver reads
            kq = quat_gek_from_measurements(ms)
            a, b = kq.k.a.copy(), kq.k.b.copy()
            b[12, 15] = bad
            kernel = QuatGek(QuaternionMatrix(a, b))
        solve(kernel, geo.anchors, st)


def test_qd_smds_rejects_non_hermitian_kernel():
    # One B entry changed, its mirror -B^T left alone: the kernel stays
    # finite but is no longer Hermitian, and QuatGek rejects it before qd_smds.
    rng = np.random.default_rng(154)
    geo, _, _, st = exact_setup(rng, "II", n_targets=4)
    ms = synthesize(true_parameters(geo), NoiseConfig(2.0, 30.0), "II", rng)
    kq = quat_gek_from_measurements(ms)
    b = kq.k.b.copy()
    b[12, 15] += 1.0
    with pytest.raises(OutOfRange):
        qd_smds(QuatGek(QuaternionMatrix(kq.k.a, b)), geo.anchors, st)


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


def test_pipeline_unknown_algorithm(monkeypatch):
    # The name is checked before the stage-one smds, not after its eigh.
    rng = np.random.default_rng(154)
    geo, _, ms, st = exact_setup(rng, "I", n_targets=4)
    calls = []
    monkeypatch.setattr(solvers, "smds", lambda *args: calls.append(args))
    with pytest.raises(OutOfRange, match="dowsing"):
        scenario_one_pipeline(ms, geo.anchors, st, algorithm="dowsing")
    assert calls == []


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
