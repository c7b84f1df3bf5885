import numpy as np
import pytest

from qmds.errors import ShapeMismatch
from qmds.network import (
    NetworkGeometry,
    StructureMatrices,
    edge_matrix,
    structure_matrices,
    true_parameters,
)


def random_geometry(rng, n_anchors=5, n_targets=15):
    anchors = rng.uniform([0, 0, 0], [30, 30, 10], size=(n_anchors, 3))
    targets = rng.uniform([0, 0, 0], [30, 30, 10], size=(n_targets, 3))
    return NetworkGeometry(anchors, targets)


def edge_ends(st):
    """(head, tail) node of every incidence row, in row order."""
    return [(int(np.flatnonzero(row == 1)[0]), int(np.flatnonzero(row == -1)[0]))
            for row in st.c]


# ---- edge layout ----


def test_edge_set_minimal():
    st = structure_matrices(2, 1)
    assert edge_ends(st) == [(0, 1), (0, 2), (1, 2)]
    assert st.n_aa == 1


def test_edge_set_single_anchor():
    st = structure_matrices(1, 0)
    assert st.c.shape == (0, 1)
    assert st.n_aa == 0


def test_edge_set_paper_sized():
    st = structure_matrices(5, 15)
    assert st.c.shape == (85, 20)
    assert st.n_aa == 10
    assert st.c.shape[0] - st.n_aa == 75  # anchor-target edges


def test_edge_set_anchor_block_first():
    st = structure_matrices(4, 3)
    na = st.n_anchors
    ends = edge_ends(st)
    for m, (i, j) in enumerate(ends):
        assert i < j
        if m < st.n_aa:
            assert j < na
        else:
            assert i < na <= j
    # no target-target pairs at all, and each block in lexicographic order
    assert all(i < na for i, _ in ends)
    assert ends[:st.n_aa] == sorted(ends[:st.n_aa])
    assert ends[st.n_aa:] == sorted(ends[st.n_aa:])


def test_structure_rows_follow_the_layout():
    # Row n_aa + i * N_T + t joins anchor i and target t; the anchor-anchor
    # rows before them run over the pairs i < j in lexicographic order.
    for na, nt in [(1, 3), (2, 1), (4, 3), (5, 15), (7, 2)]:
        st = StructureMatrices(na, nt)
        ends = edge_ends(st)
        assert st.c.shape == (st.n_aa + na * nt, na + nt)
        assert ends[:st.n_aa] == [(i, j) for i in range(na) for j in range(i + 1, na)]
        for i in range(na):
            for t in range(nt):
                assert ends[st.n_aa + i * nt + t] == (i, na + t)
        assert st == structure_matrices(na, nt)
        np.testing.assert_array_equal(st.c, structure_matrices(na, nt).c)


def test_edge_set_rejects_empty():
    with pytest.raises(ShapeMismatch):
        structure_matrices(0, 5)
    with pytest.raises(ShapeMismatch):
        StructureMatrices(3, -1)


def test_structure_is_shared_and_frozen():
    st = structure_matrices(5, 15)
    assert structure_matrices(5, 15) is st
    with pytest.raises(ValueError):
        st.c[0, 0] = 0.0


# ---- structure matrices ----


def test_incidence_matrix_small():
    st = structure_matrices(2, 1)
    np.testing.assert_array_equal(st.c, [[1, -1, 0], [1, 0, -1], [0, 1, -1]])


def test_incidence_rows_sum_to_zero():
    st = structure_matrices(5, 15)
    np.testing.assert_array_equal(st.c.sum(axis=1), np.zeros(85))
    assert np.all(np.sum(st.c == 1, axis=1) == 1)
    assert np.all(np.sum(st.c == -1, axis=1) == 1)


def test_incidence_rank():
    for na, nt in [(2, 1), (4, 3), (5, 15)]:
        st = structure_matrices(na, nt)
        assert np.linalg.matrix_rank(st.c) == na + nt - 1


def test_selectors_reproduce_anchor_target_rows():
    # Row n_aa + i * N_T + t is anchor i minus target t.
    rng = np.random.default_rng(61)
    geo = random_geometry(rng, 4, 6)
    st = structure_matrices(4, 6)
    v = edge_matrix(geo, st)
    for i in range(4):
        for t in range(6):
            np.testing.assert_array_equal(
                v[st.n_aa + i * 6 + t], geo.anchors[i] - geo.targets[t]
            )


# ---- edge vectors ----


def test_edge_vector_orientation():
    geo = NetworkGeometry([[0, 0, 0], [1, 0, 0]], np.zeros((0, 3)))
    v = edge_matrix(geo, structure_matrices(2, 0))
    np.testing.assert_array_equal(v, [[-1, 0, 0]])


def test_edge_matrix_matches_direct_differences():
    rng = np.random.default_rng(62)
    geo = random_geometry(rng, 3, 4)
    st = structure_matrices(3, 4)
    v = edge_matrix(geo, st)
    x = geo.stacked
    for m, (i, j) in enumerate(edge_ends(st)):
        np.testing.assert_allclose(v[m], x[i] - x[j], atol=1e-12)


def test_coincident_nodes_give_zero_edges():
    geo = NetworkGeometry(np.ones((3, 3)), np.ones((2, 3)))
    v = edge_matrix(geo, structure_matrices(3, 2))
    np.testing.assert_array_equal(v, np.zeros((9, 3)))


# ---- true parameters ----


def test_orthogonal_unit_edges():
    # two anchors and one target laid out so the edges are e_x and e_y
    geo = NetworkGeometry([[1, 0, 0], [0, 1, 0]], [[0, 0, 0]])
    tp = true_parameters(geo)
    ends = edge_ends(structure_matrices(2, 1))
    m = ends.index((0, 2))
    p = ends.index((1, 2))
    assert tp.adoa[m, p] == pytest.approx(np.pi / 2)
    assert abs(tp.phi_xy[p] - tp.phi_xy[m]) == pytest.approx(np.pi / 2)
    assert tp.d_xy[m] == pytest.approx(1.0)
    assert tp.d_xy[p] == pytest.approx(1.0)


def test_axis_aligned_edge_flagged():
    geo = NetworkGeometry([[0, 0, 1], [5, 0, 0]], [[0, 0, 0]])
    tp = true_parameters(geo)
    m = edge_ends(structure_matrices(2, 1)).index((0, 2))
    assert tp.theta_z[m] == pytest.approx(0.0)
    assert tp.d_xy[m] == pytest.approx(0.0)
    assert tp.degenerate[m]


def test_inner_product_identity():
    rng = np.random.default_rng(63)
    tp = true_parameters(random_geometry(rng))
    lhs = tp.vectors @ tp.vectors.T
    rhs = np.outer(tp.distances, tp.distances) * np.cos(tp.adoa)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_plane_distance_identities():
    rng = np.random.default_rng(64)
    tp = true_parameters(random_geometry(rng))
    np.testing.assert_allclose(tp.d_xy, tp.distances * np.sin(tp.theta_z), atol=1e-10)
    np.testing.assert_allclose(tp.d_xz, tp.distances * np.sin(tp.theta_y), atol=1e-10)
    np.testing.assert_allclose(tp.d_yz, tp.distances * np.sin(tp.theta_x), atol=1e-10)


def test_outer_product_identities():
    rng = np.random.default_rng(65)
    tp = true_parameters(random_geometry(rng, 4, 6))
    a, b, c = tp.vectors.T
    cases = [
        (a, b, tp.d_xy, tp.phi_xy),
        (a, c, tp.d_xz, tp.phi_xz),
        (b, c, tp.d_yz, tp.phi_yz),
    ]
    for u, w, dp, phi in cases:
        lhs = np.outer(u, w) - np.outer(w, u)  # u_m w_p - u_p w_m
        rhs = np.outer(dp, dp) * np.sin(phi[None, :] - phi[:, None])
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_azimuth_reconstructs_projection():
    rng = np.random.default_rng(66)
    tp = true_parameters(random_geometry(rng, 3, 3))
    a, b, _ = tp.vectors.T
    np.testing.assert_allclose(tp.d_xy * np.cos(tp.phi_xy), a, atol=1e-10)
    np.testing.assert_allclose(tp.d_xy * np.sin(tp.phi_xy), b, atol=1e-10)


def test_adoa_range_and_diagonal():
    rng = np.random.default_rng(67)
    tp = true_parameters(random_geometry(rng, 3, 5))
    assert np.all(tp.adoa >= 0) and np.all(tp.adoa <= np.pi)
    np.testing.assert_array_equal(np.diag(tp.adoa), np.zeros(tp.adoa.shape[0]))
    np.testing.assert_allclose(tp.adoa, tp.adoa.T, atol=0)


def test_random_geometry_rarely_degenerate():
    rng = np.random.default_rng(68)
    tp = true_parameters(random_geometry(rng))
    assert not tp.any_degenerate


def test_parameters_are_immutable():
    rng = np.random.default_rng(69)
    tp = true_parameters(random_geometry(rng, 2, 2))
    with pytest.raises(ValueError):
        tp.distances[0] = 0.0
