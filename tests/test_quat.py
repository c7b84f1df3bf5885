import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmds.errors import ShapeMismatch
from qmds.gek import quat_gek_from_measurements
from qmds.harness import DEFAULT_ANCHORS, DEFAULT_ROOM
from qmds.measurement import NoiseConfig, synthesize
from qmds.network import NetworkGeometry, true_parameters
from qmds.quat import (
    QsvdResult,
    QuaternionMatrix,
    _embed_r3,
    _mirrors,
    _qmul,
    _r3_components,
    complex_adjoint,
    dominant_eigpair,
    qsvd,
)
from quaternion_oracle import (
    add,
    column,
    ctranspose,
    div,
    from_components,
    hamilton,
    hermitian_part,
    matmul,
    norm,
    reconstruct,
    sub,
)


def scalar(w=0.0, x=0.0, y=0.0, z=0.0):
    """1 x 1 quaternion matrix holding w + x i + y j + z k."""
    return from_components([[w]], [[x]], [[y]], [[z]])


def entry(q, *index):
    """(w, x, y, z) of one entry of a quaternion matrix."""
    a, b = q.a[index], q.b[index]
    return np.array([a.real, a.imag, b.real, b.imag])


def isclose(p, q, atol=1e-12):
    return norm(sub(p, q)) <= atol


def scaled(q, c):
    """q times the real number c."""
    return QuaternionMatrix(q.a * c, q.b * c)


I, J, K, ONE = scalar(x=1), scalar(y=1), scalar(z=1), scalar(1)

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
quats = st.tuples(finite, finite, finite, finite).map(lambda c: scalar(*c))


def rand_qm(rng, m, n):
    w, x, y, z = rng.standard_normal((4, m, n))
    return from_components(w, x, y, z)


def real_qm(r):
    """Quaternion matrix whose entries are the real numbers r."""
    r = np.asarray(r, dtype=float)
    return QuaternionMatrix(r, np.zeros_like(r))


# ---- scalar algebra of the oracle ----


def test_basis_products():
    assert isclose(matmul(I, J), K)
    assert isclose(matmul(J, K), I)
    assert isclose(matmul(K, I), J)
    assert isclose(matmul(J, I), scaled(K, -1))
    for unit in (I, J, K):
        assert isclose(matmul(unit, unit), scaled(ONE, -1))


def test_product_expansion():
    # (1+i)(1+j) expanded by the multiplication table: 1 + j + i + ij
    assert isclose(matmul(scalar(1, 1), scalar(1, 0, 1)), scalar(1, 1, 1, 1))
    assert hamilton((1, 1, 0, 0), (1, 0, 1, 0)) == (1, 1, 1, 1)


def test_noncommutativity_witness():
    assert not isclose(matmul(I, J), matmul(J, I))


def test_multiplicative_identity():
    q = scalar(0.3, -1.2, 4.0, 0.7)
    assert isclose(matmul(q, ONE), q)
    assert isclose(matmul(ONE, q), q)


def test_conjugate_norm_reciprocal():
    np.testing.assert_array_equal(entry(ctranspose(scalar(1, 2, 3, 4)), 0, 0),
                                  [1, -2, -3, -4])
    assert norm(scalar(1, 1, 1, 1)) == 2.0
    two = scalar(2)
    assert isclose(div(ctranspose(two), norm(two) ** 2), scalar(0.5))


def test_inverse_roundtrip():
    # conj(q) / |q|^2 is the two-sided inverse of q
    q = scalar(0.5, -1.5, 2.0, 3.0)
    inverse = div(ctranspose(q), norm(q) ** 2)
    assert isclose(matmul(q, inverse), ONE, atol=1e-14)
    assert isclose(matmul(inverse, q), ONE, atol=1e-14)


@given(quats, quats)
def test_norm_multiplicative(p, q):
    lhs = norm(matmul(p, q))
    rhs = norm(p) * norm(q)
    assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-9)


@given(quats, quats)
def test_conjugate_antihomomorphism(p, q):
    lhs = ctranspose(matmul(p, q))
    rhs = matmul(ctranspose(q), ctranspose(p))
    assert norm(sub(lhs, rhs)) <= 1e-9 + 1e-12 * norm(rhs)


@given(quats, finite)
def test_real_scalars_commute(q, a):
    s = scalar(a)
    assert isclose(matmul(s, q), matmul(q, s), atol=1e-9)


# ---- Cayley-Dickson form ----


def test_split_single_entry():
    # q = A + B j with A = w + x i and B = y + z i
    q = from_components([[1.0]], [[2.0]], [[3.0]], [[4.0]])
    assert q.a[0, 0] == 1 + 2j
    assert q.b[0, 0] == 3 + 4j


def test_backing_arrays_read_only():
    q = real_qm(np.eye(2))
    with pytest.raises(ValueError):
        q.a[0, 0] = 5
    for name in ("a", "b", "c"):  # under slots=True, "c" is a TypeError on 3.11
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(q, name, np.eye(2))
    assert not hasattr(q, "__dict__") and QuaternionMatrix.__slots__ == ("a", "b")


def test_quaternion_matrix_equality_is_identity_and_repr_is_its_shape():
    q = real_qm(np.eye(2))
    same = QuaternionMatrix(q.a, q.b)
    assert q == q and q != same and hash(q) != hash(same)
    assert repr(q) == "QuaternionMatrix(shape=(2, 2))"
    assert repr(QuaternionMatrix(np.ones((3, 1)), np.ones((3, 1)))).endswith("(3, 1))")


@pytest.mark.parametrize("dtype", [bool, np.int64, np.float32, np.float64,
                                   np.complex64])
def test_constructor_takes_ownership_of_complex128_halves(dtype):
    # complex128 halves are kept uncopied and frozen in place; any other
    # dtype is converted, and the caller's array is left writeable
    a, b = np.ones((3, 2), complex), np.zeros((3, 2), complex)
    q = QuaternionMatrix(a, b)
    assert q.a is a and q.b is b
    assert not a.flags.writeable and not b.flags.writeable
    r = np.ones((2, 2), dtype)
    q = QuaternionMatrix(r, r)
    assert q.a.dtype == q.b.dtype == np.complex128
    assert not np.shares_memory(q.a, r) and r.flags.writeable
    r[0, 0] = 0
    assert q.a[0, 0] == q.b[0, 0] == 1.0


# ---- complex adjoint ----


def test_adjoint_of_j():
    q = from_components([[0.0]], [[0.0]], [[1.0]], [[0.0]])
    np.testing.assert_array_equal(complex_adjoint(q), [[0, 1], [-1, 0]])


def test_adjoint_of_one():
    q = real_qm([[1.0]])
    np.testing.assert_array_equal(complex_adjoint(q), np.eye(2))


def test_adjoint_respects_products():
    rng = np.random.default_rng(11)
    p = rand_qm(rng, 3, 5)
    q = rand_qm(rng, 5, 2)
    lhs = complex_adjoint(matmul(p, q))
    rhs = complex_adjoint(p) @ complex_adjoint(q)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_adjoint_respects_conjugate_transpose():
    rng = np.random.default_rng(12)
    q = rand_qm(rng, 4, 3)
    lhs = complex_adjoint(ctranspose(q))
    rhs = np.conj(complex_adjoint(q)).T
    np.testing.assert_allclose(lhs, rhs, atol=0)


def test_adjoint_column_form_of_a_product():
    # u = u1 + u2 j travels as the column [u1; -conj(u2)], the first column
    # of its own adjoint, so K @ u maps to one complex matrix-vector product.
    rng = np.random.default_rng(14)
    k = rand_qm(rng, 4, 3)
    u = rand_qm(rng, 3, 1)
    w = np.concatenate([u.a[:, 0], -np.conj(u.b[:, 0])])
    ku = matmul(k, u)
    np.testing.assert_allclose(complex_adjoint(k) @ w,
                               np.concatenate([ku.a[:, 0], -np.conj(ku.b[:, 0])]),
                               atol=1e-12)
    np.testing.assert_array_equal(complex_adjoint(u)[:, 0], w)


def test_adjoint_singular_values_pair_up():
    rng = np.random.default_rng(13)
    q = rand_qm(rng, 6, 4)
    s = np.linalg.svd(complex_adjoint(q), compute_uv=False)
    np.testing.assert_allclose(s[0::2], s[1::2], rtol=1e-10)


# ---- the oracle's matrix algebra against the Hamilton product ----


def test_matmul_matches_scalar_products():
    rng = np.random.default_rng(21)
    p = rand_qm(rng, 3, 4)
    q = rand_qm(rng, 4, 2)
    got = matmul(p, q)
    for i in range(3):
        for j in range(2):
            want = sum(np.array(hamilton(entry(p, i, t), entry(q, t, j)))
                       for t in range(4))
            np.testing.assert_allclose(entry(got, i, j), want, atol=1e-12)


@pytest.mark.parametrize("m, n", [(1, 1), (6, 6), (3, 7), (7, 3)])
def test_qmul_matches_the_oracle_product(m, n):
    # u = u1 + u2 j held as the columns [u1, u2], the solve path's layout
    rng = np.random.default_rng(25)
    k, u = rand_qm(rng, m, n), rand_qm(rng, n, 1)
    got = _qmul(k.a, k.b, np.column_stack((u.a, u.b)))
    want = matmul(k, u)
    assert got.shape == (m, 2)
    assert isclose(QuaternionMatrix(got[:, :1], got[:, 1:]), want)


def test_entry_scaling_sides_differ():
    # m @ (g I) scales every entry by g on the right, (g I) @ m on the left
    rng = np.random.default_rng(24)
    m = rand_qm(rng, 2, 2)
    g = (0.1, 0.2, -0.3, 0.4)
    g_eye = from_components(*(c * np.eye(2) for c in g))
    right, left = matmul(m, g_eye), matmul(g_eye, m)
    for i in range(2):
        for j in range(2):
            np.testing.assert_allclose(entry(right, i, j), hamilton(entry(m, i, j), g),
                                       atol=1e-13)
            np.testing.assert_allclose(entry(left, i, j), hamilton(g, entry(m, i, j)),
                                       atol=1e-13)
    assert not isclose(right, left, atol=1e-6)


def test_conj_transpose_components():
    # entry (j, i) of q^H is the conjugate w - x i - y j - z k of entry (i, j)
    rng = np.random.default_rng(22)
    q = rand_qm(rng, 3, 2)
    h = ctranspose(q)
    assert h.shape == (2, 3)
    for i in range(3):
        for j in range(2):
            np.testing.assert_array_equal(entry(h, j, i), entry(q, i, j) * (1, -1, -1, -1))


def test_frobenius_norm():
    q = from_components([[1.0]], [[1.0]], [[1.0]], [[1.0]])
    assert norm(q) == 2.0


def test_inner_product_against_scalar_sum():
    # u^H v of two columns is the sum of conj(u_m) v_m
    rng = np.random.default_rng(25)
    u = rand_qm(rng, 5, 1)
    v = rand_qm(rng, 5, 1)
    acc = np.zeros(4)
    for m in range(5):
        acc += hamilton(entry(u, m, 0) * (1, -1, -1, -1), entry(v, m, 0))
    np.testing.assert_allclose(entry(matmul(ctranspose(u), v), 0, 0), acc, atol=1e-12)
    # self inner product is the squared norm, real
    w, x, y, z = entry(matmul(ctranspose(u), u), 0, 0)
    assert math.isclose(w, norm(u) ** 2, rel_tol=1e-12)
    assert abs(x) + abs(y) + abs(z) <= 1e-12


# ---- quaternion SVD ----


def test_qsvd_identity():
    res = qsvd(real_qm(np.eye(3)))
    np.testing.assert_allclose(res.singular_values, [1, 1, 1], atol=1e-14)


def test_qsvd_rank_one_outer_product():
    rng = np.random.default_rng(31)
    col = rand_qm(rng, 6, 1)
    k = matmul(col, ctranspose(col))
    res = qsvd(k)
    assert res.singular_values[0] == pytest.approx(norm(col) ** 2, rel=1e-12)
    assert np.all(res.singular_values[1:] < 1e-12 * res.singular_values[0])


@pytest.mark.parametrize("shape", [(8, 8), (5, 9), (9, 5)])
def test_qsvd_reconstructs(shape):
    rng = np.random.default_rng(sum(shape))
    q = rand_qm(rng, *shape)
    res = qsvd(q)
    assert res.u.shape == (shape[0], shape[0])
    assert res.v.shape == (shape[1], shape[1])
    err = norm(sub(reconstruct(res), q)) / norm(q)
    assert err < 1e-8


def test_qsvd_matches_real_svd():
    rng = np.random.default_rng(32)
    r = rng.standard_normal((6, 4))
    res = qsvd(real_qm(r))
    np.testing.assert_allclose(
        res.singular_values, np.linalg.svd(r, compute_uv=False), rtol=1e-10
    )


def test_qsvd_values_are_odd_indexed_adjoint_values():
    rng = np.random.default_rng(33)
    q = rand_qm(rng, 7, 5)
    sc = np.linalg.svd(complex_adjoint(q), compute_uv=False)
    np.testing.assert_allclose(res_sv := qsvd(q).singular_values, sc[0::2], rtol=1e-10)
    assert np.all(np.diff(res_sv) <= 1e-12)


def test_qsvd_factor_columns_unit_norm():
    rng = np.random.default_rng(34)
    q = rand_qm(rng, 5, 3)
    res = qsvd(q)
    for f in (res.u, res.v):
        norms = np.sqrt(np.sum(np.abs(f.a) ** 2 + np.abs(f.b) ** 2, axis=0))
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)


# ---- dominant Hermitian pair ----


def eigen_residual(k, lam, u):
    """||K u - u lambda|| for quaternion columns u = [u1, u2] and real lambda."""
    return norm(sub(matmul(k, column(u)), scaled(column(u), lam)))


def test_dominant_eigpair_rank_one():
    rng = np.random.default_rng(41)
    col = rand_qm(rng, 5, 1)
    k = matmul(col, ctranspose(col))
    lam, u = dominant_eigpair(k)
    assert lam == pytest.approx(norm(col) ** 2, rel=1e-12)
    # u is nu up to a right unit-quaternion factor: check the eigen relation
    assert eigen_residual(k, lam, u) <= 1e-10 * lam


def test_dominant_eigpair_zero_matrix():
    lam, _ = dominant_eigpair(real_qm(np.zeros((3, 3))))
    assert lam == 0.0


def test_dominant_eigpair_rejects_empty_matrix():
    # There is no eigenpair to return; the power steps' argmax used to fail
    # with a builtin ValueError.
    with pytest.raises(ShapeMismatch, match="empty"):
        dominant_eigpair(real_qm(np.zeros((0, 0))))


def test_dominant_eigpair_diagonal():
    # The largest eigenvalue, not the largest in magnitude: diag(1, -4)
    # has singular value 4 but top eigenvalue 1.
    for diag, top in (([4.0, 1.0], 4.0), ([1.0, -4.0], 1.0)):
        k = real_qm(np.diag(diag))
        lam, u = dominant_eigpair(k)
        assert lam == pytest.approx(top), diag
        np.testing.assert_allclose(np.linalg.norm(u, axis=1), [1.0, 0.0], atol=1e-12)
        assert eigen_residual(k, lam, u) <= 1e-12, diag


def test_dominant_eigpair_residual_on_gram_matrices():
    rng = np.random.default_rng(42)
    for _ in range(10):
        q = rand_qm(rng, 6, 6)
        k = hermitian_part(matmul(q, ctranspose(q)))
        lam, u = dominant_eigpair(k)
        assert eigen_residual(k, lam, u) <= 1e-8 * norm(k)
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12


def test_dominant_eigpair_certificate_rejects_a_lower_eigenvector():
    # The start column (2, 0, 0) is an exact eigenvector for 2 with zero
    # residual; a residual-only stop returns 2, the top eigenvalue is 3.
    k = real_qm([[2, 0, 0], [0, 1.5, 1.5], [0, 1.5, 1.5]])
    lam, u = dominant_eigpair(k)
    assert lam == pytest.approx(3.0, rel=1e-12)
    assert eigen_residual(k, lam, u) <= 1e-12


def paper_kernel(seed, epsilon, sigma_d=1.0):
    """Scenario II quaternion kernel of the paper's room and anchors."""
    rng = np.random.default_rng(seed)
    targets = rng.uniform((0.0, 0.0, 0.0), DEFAULT_ROOM, size=(15, 3))
    params = true_parameters(NetworkGeometry(np.array(DEFAULT_ANCHORS), targets))
    noise = NoiseConfig(sigma_d=sigma_d, epsilon_deg=epsilon)
    return quat_gek_from_measurements(synthesize(params, noise, "II", rng)).k


def counted_eigh(monkeypatch):
    calls = []
    eigh = np.linalg.eigh

    def wrapper(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", wrapper)
    return calls


def doubled_top_kernel():
    rng = np.random.default_rng(44)
    u = qsvd(rand_qm(rng, 6, 6)).u
    lams = np.array([5.0, 5.0, 1.0, 0.5, -0.5, -2.0])
    return hermitian_part(matmul(QuaternionMatrix(u.a * lams, u.b * lams), ctranspose(u)))


@pytest.mark.parametrize("make", [doubled_top_kernel, lambda: paper_kernel(7, 150.0)],
                         ids=["doubled-top", "paper-eps150"])
def test_dominant_eigpair_falls_back_to_dense_solve(monkeypatch, make):
    k = make()
    top = np.linalg.eigvalsh(complex_adjoint(k))[-1]
    dense = counted_eigh(monkeypatch)
    lam, u = dominant_eigpair(k)
    assert dense == [(2 * k.shape[0], 2 * k.shape[0])]
    assert lam == pytest.approx(top, rel=1e-12)
    assert eigen_residual(k, lam, u) <= 1e-12 * norm(k)


def test_dominant_eigpair_certifies_paper_kernels_without_dense_solve(monkeypatch):
    kernels = [paper_kernel(seed, 50.0, sigma_d)
               for seed in (1, 2, 3) for sigma_d in (1.0, 3.0)]
    tops = [np.linalg.eigvalsh(complex_adjoint(k))[-1] for k in kernels]

    def no_dense_solve(*args, **kwargs):
        raise RuntimeError("dense eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_dense_solve)
    for k, top in zip(kernels, tops):
        lam, u = dominant_eigpair(k)
        assert lam == pytest.approx(top, rel=1e-12)
        assert eigen_residual(k, lam, u) <= 1e-12 * norm(k)


@pytest.mark.parametrize("route", ["certified", "dense"])
def test_dominant_eigpair_returns_quaternion_columns(monkeypatch, route):
    # Both routes hand back u = u1 + u2 j as one (m, 2) complex array
    # [u1, u2], the form `_qmul` multiplies, with K u = u lambda.
    k = paper_kernel(3, 50.0) if route == "certified" else doubled_top_kernel()
    dense = counted_eigh(monkeypatch)
    lam, u = dominant_eigpair(k)
    assert len(dense) == (route == "dense")
    assert isinstance(u, np.ndarray) and u.shape == (k.shape[0], 2)
    assert u.dtype == np.complex128
    assert eigen_residual(k, lam, u) <= 1e-12 * norm(k)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.sampled_from(("rank1", "zero", "negdef")),
       st.floats(0.0, 2.0), st.integers(0, 2**32 - 1))
def test_dominant_eigpair_matches_dense_solve(n, kind, noise, seed):
    rng = np.random.default_rng(seed)
    if kind == "zero":
        k = real_qm(np.zeros((n, n)))
    elif kind == "rank1":
        col = rand_qm(rng, n, 1)
        k = add(matmul(col, ctranspose(col)), scaled(rand_qm(rng, n, n), noise))
    else:
        g = rand_qm(rng, n, n)
        k = sub(real_qm(-noise * np.eye(n)), matmul(g, ctranspose(g)))
    k = hermitian_part(k)
    top = np.linalg.eigvalsh(complex_adjoint(k))[-1]
    lam, u = dominant_eigpair(k)
    scale = norm(k)
    assert abs(lam - top) <= 1e-12 * scale
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
    assert eigen_residual(k, lam, u) <= 1e-10 * scale


# ---- coordinate embedding ----


def test_embed_r3_builds_columns_that_r3_components_reads_back():
    rows = np.random.default_rng(51).standard_normal((7, 3))
    u = _embed_r3(rows)
    assert u.shape == (7, 2) and u.dtype == np.complex128
    np.testing.assert_array_equal(u, np.column_stack((rows[:, 0] + 1j * rows[:, 1],
                                                      rows[:, 2])))
    np.testing.assert_array_equal(_r3_components(u), rows)


def test_r3_components_reads_a_stack_slice_by_slice():
    # the MRC sweeps' (tau + 1, N_A, N_T, 2) stack; the k component is dropped
    rng = np.random.default_rng(52)
    stack = rng.standard_normal((3, 5, 4, 2)) + 1j * rng.standard_normal((3, 5, 4, 2))
    got = _r3_components(stack)
    assert got.shape == (3, 5, 4, 3)
    for index in np.ndindex(3, 5):
        np.testing.assert_array_equal(got[index], _r3_components(stack[index]))
        np.testing.assert_array_equal(
            got[index], np.column_stack((stack[index][:, 0].real,
                                         stack[index][:, 0].imag,
                                         stack[index][:, 1].real)))


# ---- the exact mirror test ----

SRC = Path(__file__).resolve().parents[1] / "src" / "qmds"

# dtype and flip of each contract: K = K^T, A = A^H, B = -B^T, a symmetric mask
MIRRORS = {"float": (float, None), "complex-conjugate": (complex, np.conjugate),
           "complex-negative": (complex, np.negative), "bool": (bool, None)}


def mirrored(rng, n, dtype, flip):
    """An n x n array equal to flip(x^T) to the bit."""
    if dtype is bool:
        r = rng.random((n, n)) < 0.5
        return r | r.T
    z = rng.standard_normal((n, n))
    if dtype is complex:
        z = z + 1j * rng.standard_normal((n, n))
    return z - z.T if flip is np.negative else z + z.conj().T


@pytest.mark.parametrize("n", [0, 1, 2, 17, 85, 100])
@pytest.mark.parametrize("kind", MIRRORS)
def test_mirrors_agrees_with_a_whole_transpose_compare(kind, n):
    # 17 fits one row block; 85 and 100 end in a ragged one
    dtype, flip = MIRRORS[kind]
    x = mirrored(np.random.default_rng(n), n, dtype, flip)
    cases = [x]
    for i, j in ((n - 1, 0), (0, n - 1)) if n >= 2 else ():
        moved = x.copy()  # one off-diagonal entry moved by one ulp
        if dtype is bool:
            moved[i, j] = not moved[i, j]
        else:
            moved.real[i, j] = np.nextafter(moved.real[i, j], np.inf)
        cases.append(moved)
    if dtype is complex and n >= 1:
        tilted = x.copy()  # not Hermitian: a nonzero imaginary diagonal
        tilted[n // 2, n // 2] += 1j
        cases.append(tilted)
    for case in cases:
        whole = np.array_equal(case, case.T if flip is None else flip(case.T))
        assert _mirrors(case, flip) == whole == (case is x)


def test_library_compares_mirrors_only_through_one_routine():
    # np.array_equal(x, x.T) buffers a kernel-sized transpose; `_mirrors`
    # compares row blocks and is the one exact mirror test.
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call)
                    and ast.unparse(node.func).endswith("array_equal")):
                continue
            operands = [*node.args, *(k.value for k in node.keywords)]
            if any(isinstance(sub, ast.Attribute) and sub.attr in ("T", "mT", "transpose")
                   for operand in operands for sub in ast.walk(operand)):
                stray.append(f"{path.name}:{node.lineno}")
    assert not stray


# ---- misc shape behavior ----


def test_pair_shape_mismatch_rejected():
    with pytest.raises(ShapeMismatch):
        QuaternionMatrix(np.zeros((2, 2)), np.zeros((3, 2)))
    for shape in ((2, 2, 2), ()):
        with pytest.raises(ShapeMismatch):
            QuaternionMatrix(np.zeros(shape, complex), np.zeros(shape, complex))


def test_quaternion_matrix_stores_matrices_only():
    # a vector is the (m, 2) array [u1, u2]; 1-D halves are not a matrix
    for halves in ((np.zeros(3, complex), np.zeros(3, complex)), (np.ones(2), np.ones(2))):
        with pytest.raises(ShapeMismatch, match="2-D"):
            QuaternionMatrix(*halves)
    q = real_qm(np.eye(2))
    assert not any(hasattr(q, name) for name in ("ndim", "w", "x", "y", "z"))


def test_qsvd_result_is_frozen():
    res = qsvd(real_qm(np.eye(2)))
    assert isinstance(res, QsvdResult)
    with pytest.raises(AttributeError):
        res.u = None
    for array in (res.u.a, res.v.b, res.singular_values):
        with pytest.raises(ValueError):
            array[0] = 5.0
