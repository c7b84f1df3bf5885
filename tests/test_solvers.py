import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qmds.errors import (
    AmbiguityResolutionFailure,
    DegenerateAnchors,
    DimensionMismatch,
    OutOfRange,
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
from qmds.quat import QuaternionMatrix, embed_r3, r3_components
from qmds.solvers import (
    _inversion_operator,
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
    with pytest.raises(DimensionMismatch):
        anchored_inversion(v[1:], anchors, st)
    with pytest.raises(DimensionMismatch):
        anchored_inversion(v, np.vstack([anchors, anchors[:1]]), st)


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


def hamilton(p, q):
    """Hamilton product of (w, x, y, z) tuples, componentwise over arrays."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


def right_mul(nu, g):
    """The entrywise product nu_m g by the Hamilton product oracle."""
    return QuaternionMatrix.from_components(*hamilton((nu.w, nu.x, nu.y, nu.z), g))


def random_unit_quaternion(rng):
    g = rng.standard_normal(4)
    return g / np.linalg.norm(g)


def test_phase_resolution_recovers_true_vector():
    rng = np.random.default_rng(135)
    nu = make_nu(rng, 12)
    g0 = random_unit_quaternion(rng)
    spun = right_mul(nu, g0)
    fixed, info = resolve_edge_ambiguity(spun, QuaternionMatrix(nu.a[:5], nu.b[:5]))
    assert (fixed - nu).norm() <= 1e-10 * nu.norm()
    assert info["phase_residual"] < 1e-10
    # the factor undoes g0: it is the conjugate of the unit g0
    np.testing.assert_allclose(info["phase"], g0 * (1, -1, -1, -1), atol=1e-12)
    assert (right_mul(spun, info["phase"]) - fixed).norm() <= 1e-12 * nu.norm()


def test_phase_resolution_identity():
    rng = np.random.default_rng(136)
    nu = make_nu(rng, 8)
    fixed, info = resolve_edge_ambiguity(nu, QuaternionMatrix(nu.a[:4], nu.b[:4]))
    assert (fixed - nu).norm() <= 1e-12 * nu.norm()
    np.testing.assert_allclose(info["phase"], [1, 0, 0, 0], atol=1e-12)
    assert not info["phase"].flags.writeable


def test_phase_resolution_invariant_to_extra_phase():
    rng = np.random.default_rng(137)
    nu = make_nu(rng, 10)
    known = QuaternionMatrix(nu.a[:4], nu.b[:4])
    g0, h = random_unit_quaternion(rng), random_unit_quaternion(rng)
    once, _ = resolve_edge_ambiguity(right_mul(nu, g0), known)
    twice, _ = resolve_edge_ambiguity(right_mul(right_mul(nu, g0), h), known)
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
    with pytest.raises(ZeroAnchorEdges):
        qd_mrc_smds(kq, anchors, st)


@pytest.mark.parametrize("solve", [qd_mrc_smds, qd_mrc_smds_iterative])
def test_mrc_rejects_kernel_size_mismatch(solve):
    rng = np.random.default_rng(101)
    geo, _, ms, _ = exact_setup(rng, "II", n_targets=5)
    with pytest.raises(DimensionMismatch):
        solve(quat_gek_from_measurements(ms), geo.anchors, structure_matrices(5, 15))


def _quaternion_algebra_mrc(kq, anchors, structure, tau_max):
    """The refinement loop written in QuaternionMatrix algebra, as the oracle
    for the solver's column-form sweeps: (trajectory, nu_residuals)."""
    n_a, n_t, n_aa = structure.n_anchors, structure.n_targets, structure.n_aa
    a, b = kq.k.a, kq.k.b
    k2 = QuaternionMatrix(a[:n_aa, n_aa:], b[:n_aa, n_aa:])
    k3 = QuaternionMatrix(a[n_aa:, n_aa:], b[n_aa:, n_aa:])
    nu_aa = embed_r3(structure.c[:structure.n_aa, :n_a] @ anchors)
    aa_energy = nu_aa.norm() ** 2
    k2h_nu = k2.H @ nu_aa
    states, residuals = [k2h_nu / aa_energy], []
    for _ in range(tau_max):
        prev = states[-1]
        nu = (k2h_nu + k3.H @ prev) / (aa_energy + prev.norm() ** 2)
        residuals.append((nu - prev).norm() / max(prev.norm(), np.finfo(float).tiny))
        states.append(nu)
    trajectory = [
        (anchors[:, None, :] - r3_components(nu).reshape(n_a, n_t, 3)).mean(axis=0)
        for nu in states
    ]
    return trajectory, residuals


@settings(max_examples=60, deadline=None)
@given(seed=hst.integers(0, 2**32 - 1), n_targets=hst.integers(1, 8),
       tau_max=hst.integers(0, 5), scale=hst.floats(1.0, 1e4))
def test_mrc_sweeps_match_quaternion_algebra(seed, n_targets, tau_max, scale):
    # Any quaternion kernel, Hermitian or not, of the 5-anchor layout.
    rng = np.random.default_rng(seed)
    st = structure_matrices(5, n_targets)
    m = st.c.shape[0]
    kq = QuatGek(QuaternionMatrix.from_components(
        *(scale * rng.standard_normal((4, m, m)))))
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("solve", [smds, qd_smds, qd_mrc_smds, qd_mrc_smds_iterative])
def test_solver_rejects_non_finite_kernel(solve, bad):
    rng = np.random.default_rng(152)
    geo, _, ms, st = exact_setup(rng, "II", n_targets=4)
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
    with pytest.raises(OutOfRange):
        solve(kernel, geo.anchors, st)


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
