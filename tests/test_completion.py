import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmds import completion, harness
from qmds.completion import _complete, complete_quat_gek, complete_real_gek
from qmds.errors import NonConvergenceWarning, OutOfRange, RankDeficient
from qmds.harness import ExperimentConfig, run_trial
from qmds.gek import (
    QuatGek,
    RealGek,
    apply_mask,
    build_real_gek,
    quat_gek_from_measurements,
)
from qmds.measurement import NoiseConfig, missing_mask, synthesize
from qmds.network import NetworkGeometry, true_parameters
from qmds.quat import QuaternionMatrix, qsvd
from quaternion_oracle import ctranspose, matmul, norm, sub


def masked_rank_k(rng, n, rank, fraction):
    """A symmetric rank-`rank` matrix, a mask, and the matrix zero-filled
    where the mask hides it, which is the data the loop starts from."""
    g = rng.standard_normal((n, rank))
    k = g @ g.T
    mask = missing_mask(n, fraction, rng)
    return k, mask, np.where(mask, k, 0.0)


# ---- the completion loop, on symmetric masks ----


def test_full_mask_returns_input():
    # A mask that hides nothing takes each wrapper's exit: no sweep runs, and
    # the kernel comes back as it went in.
    rng = np.random.default_rng(111)
    kr, kq, mask = scenario_kernels(rng, 0.0)
    assert mask.all()
    done_r, res = complete_real_gek(kr, mask)
    done_q, info = complete_quat_gek(kq, mask)
    assert (res.iterations, res.converged) == (0, True)
    assert info == {"iterations": 0, "converged": True}
    assert done_r is kr and done_q is kq
    np.testing.assert_array_equal(res.matrix, kr.k)


def test_rank_one_recovery():
    rng = np.random.default_rng(112)
    k, mask, data = masked_rank_k(rng, 40, 1, 0.3)
    res = _complete(data, mask, 1, True)
    assert res.converged
    assert np.linalg.norm(res.matrix - k) / np.linalg.norm(k) < 1e-3


def test_rank_three_beats_zero_fill():
    rng = np.random.default_rng(113)
    k, mask, data = masked_rank_k(rng, 40, 3, 0.3)
    res = _complete(data, mask, 3, True)
    zero_fill_err = np.linalg.norm(data - k)
    assert np.linalg.norm(res.matrix - k) < zero_fill_err


def test_observed_entries_never_change():
    rng = np.random.default_rng(114)
    k, mask, data = masked_rank_k(rng, 30, 2, 0.4)
    res = _complete(data, mask, 2, True)
    np.testing.assert_array_equal(res.matrix[mask], k[mask])


def test_nonconvergence_warns_and_returns(monkeypatch):
    rng = np.random.default_rng(115)
    k, mask, data = masked_rank_k(rng, 25, 3, 0.3)
    monkeypatch.setattr(completion, "_MAX_SWEEPS", 2)
    with pytest.warns(NonConvergenceWarning):
        res = _complete(data, mask, 3, True)
    assert not res.converged
    assert res.iterations == 2
    np.testing.assert_array_equal(res.matrix[mask], k[mask])


def worsening_truncation(monkeypatch):
    """Truncate correctly once, then keep zero eigenvalues, which raises the gap."""
    calls = []
    real = completion._Truncation.leading

    def leading(self, op, moved):
        calls.append(moved)
        v, theta = real(self, op, moved)
        return v, (theta if len(calls) == 1 else np.zeros_like(theta))

    monkeypatch.setattr(completion._Truncation, "leading", leading)


def test_rising_gap_raises_typed_error(monkeypatch):
    rng = np.random.default_rng(122)
    _, mask, data = masked_rank_k(rng, 20, 3, 0.3)
    worsening_truncation(monkeypatch)
    with pytest.raises(RankDeficient, match="gap rose"):
        _complete(data, mask, 3, True)


def test_rising_gap_is_a_failed_trial(monkeypatch):
    cfg = ExperimentConfig(scenarios=("II",), algorithms=("smds",),
                           n_targets=6, trials=1, missing_fraction=0.3,
                           sigma_d_grid=(1.0,), epsilon_grid=(30.0,))
    worsening_truncation(monkeypatch)
    res = run_trial(cfg, "II", 1.0, 30.0, 0)["smds"]
    assert not res.ok and res.error.startswith("RankDeficient: completion gap rose")


def test_complex_matrix_completion():
    rng = np.random.default_rng(117)
    g = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
    k = g @ np.conj(g).T
    mask = missing_mask(30, 0.3, rng)
    # g g^H from a general product is not Hermitian to the bit: the Gram route
    res = _complete(np.where(mask, k, 0.0), mask, 2, False)
    assert np.linalg.norm(res.matrix - k) / np.linalg.norm(k) < 1e-3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_apply_mask_zeroes_what_the_loop_starts_from(bad):
    # The loop fills nothing itself: every hidden entry of apply_mask's data
    # is zero, and every observed one is the kernel's.
    rng = np.random.default_rng(124)
    kr, kq, mask = scenario_kernels(rng, 0.3)
    data, _ = apply_mask(kr, mask)
    assert not data[~mask].any()
    np.testing.assert_array_equal(data[mask], kr.k[mask])
    qdata, _ = apply_mask(kq, mask)
    assert not qdata.a[~mask].any() and not qdata.b[~mask].any()
    k = kr.k.copy()
    k[0, 0] = bad  # a non-finite entry never gets past the kernel
    with pytest.raises(OutOfRange, match="finite"):
        complete_real_gek(RealGek(k), mask)


def kept_pairs_mask(rng, n, kept):
    """Symmetric mask: full diagonal plus `kept` observed pairs above it."""
    mask = np.eye(n, dtype=bool)
    rows, cols = np.triu_indices(n, 1)
    pick = rng.choice(len(rows), size=kept, replace=False)
    mask[rows[pick], cols[pick]] = mask[cols[pick], rows[pick]] = True
    return mask


def identifiability_case(route, rng, short):
    """A masked kernel observing exactly as many real values as its model
    has degrees of freedom, or one entry fewer, and its completion."""
    n = 12
    if route == "real-symmetric":  # 12 + kept against 3 n - 3 = 33
        g = rng.standard_normal((n, 3))
        kernel, complete = RealGek(g @ g.T), complete_real_gek
        kept = 21 - short
    else:  # the first half's 12 + 2 kept against 2 r n - r^2 = 44 at r = 2
        a, b = rng.standard_normal((2, n, 1)) + 1j * rng.standard_normal((2, n, 1))
        nu = QuaternionMatrix(a, b)
        kernel, complete = QuatGek(matmul(nu, ctranspose(nu))), complete_quat_gek
        kept = 16 - short
    return kernel, kept_pairs_mask(rng, n, kept), complete


@pytest.mark.parametrize("route", ["real-symmetric", "complex-hermitian"])
def test_unidentifiable_completion_raises(route):
    rng = np.random.default_rng(125)
    kernel, mask, complete = identifiability_case(route, rng, short=1)
    with pytest.raises(RankDeficient, match="degrees of freedom"):
        complete(kernel, mask)
    kernel, mask, complete = identifiability_case(route, rng, short=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergenceWarning)
        done, _ = complete(kernel, mask)
    halves = (done.k,) if route == "real-symmetric" else (done.k.a, done.k.b)
    observed = (kernel.k,) if route == "real-symmetric" else (kernel.k.a, kernel.k.b)
    for half, data in zip(halves, observed):
        np.testing.assert_array_equal(half[mask], data[mask])


def test_unidentifiable_mask_fails_every_algorithm():
    # Scenario II at 97% hidden: M = 85 edges and 107 observed pairs. The
    # real kernel keeps 85 + 107 = 192 values against 3 M - 3 = 252, the
    # quaternion kernel's first half 85 + 2 * 107 = 299 against 4 M - 4 = 336.
    cfg = ExperimentConfig(scenarios=("II",), missing_fraction=0.97,
                           sigma_d_grid=(0.0,), epsilon_grid=(10.0,), trials=1,
                           master_seed=1)
    for algorithm, res in run_trial(cfg, "II", 0.0, 10.0, 0).items():
        values = "192" if algorithm == "smds" else "299"
        assert res.error.startswith(f"RankDeficient: {values} observed real values")


# ---- kernel-level wrappers ----


def scenario_kernels(rng, fraction, n_anchors=4, n_targets=5):
    anchors = rng.uniform([0, 0, 0], [30, 30, 10], size=(n_anchors, 3))
    targets = rng.uniform([0, 0, 0], [30, 30, 10], size=(n_targets, 3))
    params = true_parameters(NetworkGeometry(anchors, targets))
    ms = synthesize(params, NoiseConfig(), "II", rng)
    mask = missing_mask(ms.m, fraction, rng)
    return build_real_gek(ms), quat_gek_from_measurements(ms), mask


def test_real_kernel_completion_recovers():
    rng = np.random.default_rng(118)
    kr, _, mask = scenario_kernels(rng, 0.3)
    done, res = complete_real_gek(kr, mask)
    assert res.converged
    assert np.linalg.norm(done.k - kr.k) / np.linalg.norm(kr.k) < 1e-3
    np.testing.assert_array_equal(done.k, done.k.T)


# Trials of criterion 9's cell (seed 9009, sigma_d 2 m, eps 50 deg, 30%
# hidden) on which a general SVD truncation let the iterate's relative
# asymmetry grow to 0.015, 0.37 and 0.60.
DRIFT_TRIALS = (29, 95, 129)


@pytest.mark.parametrize("trial", DRIFT_TRIALS)
def test_real_completion_iterate_stays_symmetric(trial):
    cfg = ExperimentConfig(scenarios=("II",), missing_fraction=0.3, master_seed=9009)
    instance = harness._Instance(cfg, "II", NoiseConfig(2.0, 50.0), trial)
    _, ms, mask = instance.data()
    data, mask = apply_mask(build_real_gek(ms), mask)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonConvergenceWarning)
        x = _complete(data, mask, completion._REAL_RANK, True).matrix
    assert np.linalg.norm(x - x.T) <= 1e-12 * np.linalg.norm(x)


# perfbench grid-masked master seeds (trial 0, sigma_d 2 m, eps 50 deg, 30%
# hidden) whose real completion used to run into the sweep cap: a general
# SVD truncation let the iterate drift away from symmetric.
FORMER_CAP_SEEDS = (100017, 100020, 300002, 300008)


@pytest.mark.parametrize("seed", FORMER_CAP_SEEDS)
def test_real_completion_converges_on_former_cap_instances(seed):
    cfg = ExperimentConfig(scenarios=("II",), algorithms=("smds",),
                           missing_fraction=0.3, master_seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error", NonConvergenceWarning)
        res = run_trial(cfg, "II", 2.0, 50.0, 0)["smds"]
    assert res.ok and res.iterations < completion._MAX_SWEEPS


def test_quat_kernel_completion_recovers_rank_one():
    rng = np.random.default_rng(120)
    _, kq, mask = scenario_kernels(rng, 0.3, n_anchors=5, n_targets=8)
    done, info = complete_quat_gek(kq, mask)
    assert info["converged"]
    s = qsvd(done.k).singular_values
    assert s[1] / s[0] < 1e-2
    rel = norm(sub(done.k, kq.k)) / norm(kq.k)
    zero_fill = norm(sub(apply_mask(kq, mask)[0], kq.k)) / norm(kq.k)
    assert rel < zero_fill
    assert norm(sub(done.k, ctranspose(done.k))) == 0.0


def test_quat_completion_preserves_observed_entries():
    rng = np.random.default_rng(121)
    _, kq, mask = scenario_kernels(rng, 0.25)
    done, _ = complete_quat_gek(kq, mask)
    np.testing.assert_array_equal(done.k.a[mask], kq.k.a[mask])
    np.testing.assert_array_equal(done.k.b[mask], kq.k.b[mask])


# ---- warm-started truncation ----


def structured(kind, rng, n, spectrum, noise):
    """A rank-len(spectrum) matrix of `kind` plus noise of the same kind:
    real symmetric, complex Hermitian, or complex antisymmetric."""
    rank = len(spectrum)
    if kind == "real":
        u = np.linalg.qr(rng.standard_normal((n, rank)))[0]
        e = rng.standard_normal((n, n))
        return (u * spectrum) @ u.T + noise * (e + e.T) / 2
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "hermitian":
        u = np.linalg.qr(g[:, :rank])[0]
        return (u * spectrum) @ u.conj().T + noise * (g + g.conj().T) / 2
    # antisymmetric: one term s (a b^T - b a^T) per pair of equal values
    u = np.linalg.qr(g[:, :rank])[0]
    low = sum(s * (np.outer(u[:, 2 * i], u[:, 2 * i + 1])
                   - np.outer(u[:, 2 * i + 1], u[:, 2 * i]))
              for i, s in enumerate(spectrum[::2]))
    return low + noise * (g - g.T) / 2


KINDS = {"real": (3, True), "hermitian": (2, True), "antisymmetric": (2, False)}


def reference_truncation(x, rank, hermitian):
    """Best rank-`rank` approximation from numpy's own dense factorizations:
    the eigenpairs of largest |lambda|, or the leading singular triplets."""
    if hermitian:
        theta, v = np.linalg.eigh(x)
        top = np.argsort(-np.abs(theta), kind="stable")[:rank]
        return (v[:, top] * theta[top]) @ v[:, top].conj().T
    u, s, vh = np.linalg.svd(x)
    return (u[:, :rank] * s[:rank]) @ vh[:rank]


def low_from(x, v, theta, hermitian):
    """The rank-r approximation of `x` from the r leading pairs of its operator."""
    return (v * theta) @ v.conj().T if hermitian else (x @ v) @ v.conj().T


def warm_against_dense(monkeypatch, kind, seed, spectrum, noise, step):
    """Truncate x from the state a perturbed copy left; return x, the result
    and whether the dense path ran."""
    rank, hermitian = KINDS[kind]
    rng = np.random.default_rng(seed)
    x = structured(kind, rng, 30, spectrum, noise)
    nearby = x + step * structured(kind, rng, 30, np.zeros(rank), 1.0)
    op, near_op = (x, nearby) if hermitian else (x.conj().T @ x,
                                                 nearby.conj().T @ nearby)
    state = completion._Truncation(len(op), rank, op.dtype)
    state.leading(near_op, np.inf)
    dense_calls = []
    real_dense = completion._Truncation.dense

    def counted(self, *args):
        dense_calls.append(args)
        return real_dense(self, *args)

    monkeypatch.setattr(completion._Truncation, "dense", counted)
    v, theta = state.leading(op, np.linalg.norm(op - near_op))
    return x, low_from(x, v, theta, hermitian), bool(dense_calls)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)), seed=st.integers(0, 2**32 - 1),
       noise=st.floats(1e-4, 0.05), step=st.floats(1e-9, 1e-3))
# one solve made a Ritz value exact to the bit, and a shift placed right on
# it made the next LU singular
@example(kind="real", seed=460349, noise=2.1303764420058186e-4,
         step=2.1303764420058186e-4)
def test_warm_truncation_equals_dense(kind, seed, noise, step):
    # the antisymmetric kind's rank 2 is one pair of equal singular values
    spectrum = {"real": [3.0, 2.0, 1.0], "hermitian": [2.0, 1.0],
                "antisymmetric": [2.0, 2.0]}[kind]
    with pytest.MonkeyPatch.context() as mp:
        x, low, dense = warm_against_dense(mp, kind, seed, np.array(spectrum),
                                           noise, step)
    assert not dense, "a clear gap and a small step must certify"
    ref = reference_truncation(x, *KINDS[kind])
    assert np.linalg.norm(low - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(KINDS)), seed=st.integers(0, 2**32 - 1),
       step=st.floats(1e-9, 1e-3))
def test_flat_spectrum_falls_back_to_dense(kind, seed, step):
    # sigma_r == sigma_{r+1}: no certificate can hold, the dense path runs.
    rank, hermitian = KINDS[kind]
    spectrum = {"real": [3.0, 2.0, 1.0, 1.0], "hermitian": [2.0, 1.0, 1.0],
                "antisymmetric": [2.0, 2.0, 2.0, 2.0]}[kind]
    with pytest.MonkeyPatch.context() as mp:
        x, low, dense = warm_against_dense(mp, kind, seed, np.array(spectrum),
                                           1e-12, step)
    assert dense
    op = x if hermitian else x.conj().T @ x
    cold = low_from(x, *completion._Truncation(len(op), rank, op.dtype).dense(op),
                    hermitian)
    assert np.linalg.norm(low - cold) <= 1e-12 * np.linalg.norm(cold)
    # The noise splits sigma_r from sigma_{r+1} by about 1e-12, so the rank-r
    # subspace is fixed only to about 1e-4 and another factorization may pick
    # another one; the Eckart-Young error is fixed to rounding.
    ref = reference_truncation(x, rank, hermitian)
    assert np.linalg.svd(low, compute_uv=False)[rank] <= 1e-12 * np.linalg.norm(low)
    assert np.linalg.norm(x - low) <= (1 + 1e-12) * np.linalg.norm(x - ref)


def test_unseen_leading_direction_falls_back_to_dense():
    # x gains an eigenvalue larger than any the state has seen, along a
    # direction orthogonal to its basis. Rayleigh-Ritz on the old span then
    # has zero residual, and only the Weyl bound keeps the old eigenspace
    # from being certified.
    rng = np.random.default_rng(126)
    u = np.linalg.qr(rng.standard_normal((30, 30)))[0]
    nearby = (u[:, :5] * [3.0, 2.0, 1.0, 1e-3, 1e-3]) @ u[:, :5].T
    x = nearby + 5.0 * np.outer(u[:, 10], u[:, 10])
    state = completion._Truncation(30, 3, x.dtype)
    state.leading(nearby, np.inf)
    _, theta = state.leading(x, np.linalg.norm(x - nearby))
    np.testing.assert_allclose(theta, [5.0, 3.0, 2.0], rtol=1e-12)
