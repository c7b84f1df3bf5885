import warnings

import numpy as np
import pytest

from qmds.errors import OutOfRange, ShapeMismatch
from qmds.harness import DEFAULT_ANCHORS
from qmds.network import (
    NetworkGeometry,
    StructureMatrices,
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


def test_geometry_copies_callers_arrays():
    rng = np.random.default_rng(7)
    anchors = rng.uniform(0, 30, size=(5, 3))
    targets = rng.uniform(0, 30, size=(15, 3))
    geo = NetworkGeometry(anchors, targets)
    assert anchors.flags.writeable and targets.flags.writeable
    assert not geo.anchors.flags.writeable and not geo.targets.flags.writeable
    anchors[0], targets[0] = -1.0, -1.0
    assert np.all(geo.anchors[0] != -1.0) and np.all(geo.targets[0] != -1.0)


@pytest.mark.parametrize("targets", [
    [[0, 1], [2, 3], [4, 5]],  # (3, 2): once read as two targets [0,1,2], [3,4,5]
    np.arange(6.0),            # flat 6-vector: once read as two targets
    np.zeros((2, 3, 1)),
    np.zeros(0),
])
def test_geometry_rejects_misshaped_targets(targets):
    with pytest.raises(ShapeMismatch, match="targets"):
        NetworkGeometry(np.zeros((2, 3)), targets)


@pytest.mark.parametrize("field", ["anchors", "targets"])
@pytest.mark.parametrize("bad, error", [
    (np.nan, OutOfRange), (np.inf, OutOfRange), (1j, ShapeMismatch),
], ids=["nan", "inf", "complex"])
def test_geometry_rejects_non_finite_and_complex_positions(field, bad, error):
    # A NaN target once passed, and true_parameters spread it through the
    # incidence product to every edge's distance; a complex position raised
    # a ComplexWarning or lost its imaginary part.
    positions = {"anchors": np.eye(3), "targets": np.ones((2, 3))}
    positions[field] = positions[field].astype(type(bad))
    positions[field][1, 2] = bad
    with pytest.raises(error, match=field):
        NetworkGeometry(**positions)


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
    # A count below its floor fails the one count check, as a bad count does.
    with pytest.raises(OutOfRange, match="n_anchors must be an integer >= 1, got 0"):
        structure_matrices(0, 5)
    with pytest.raises(OutOfRange, match="n_targets must be an integer >= 0, got -1"):
        StructureMatrices(3, -1)


@pytest.mark.parametrize("counts", [(2.5, 3), (5, 3.0), (np.nan, 3), (5, np.inf),
                                    (True, 3)])
def test_structure_counts_must_be_integers(counts):
    # These raised TypeError, ValueError or OverflowError from numpy.
    with pytest.raises(OutOfRange, match="must be an integer"):
        structure_matrices(*counts)


def test_structure_takes_numpy_integer_counts():
    st = StructureMatrices(np.int64(5), np.uint8(15))
    assert (type(st.n_anchors), type(st.n_targets)) == (int, int)
    assert st == structure_matrices(5, 15)


def test_structure_size_ceiling():
    # The incidence matrix of 10**9 nodes is refused before it is allocated;
    # the largest structure the tests build is 228 x 33. With 300 anchors and
    # 15 targets the incidence matrix fits, but the M x M kernels would need
    # 18.1 GiB each (M = 49,350), which true_parameters asked for untyped.
    for counts in [(10**9, 3), (5, 10**9), (2**12, 0), (300, 15)]:
        with pytest.raises(OutOfRange, match="entries"):
            structure_matrices(*counts)


@pytest.mark.parametrize("counts", [(10**5000, 15), (5, 10**5000)])
def test_structure_names_a_count_past_the_digit_limit_by_its_size(counts):
    # Python formats no int past 4,300 digits; the size-ceiling message did,
    # and raised that ValueError in place of OutOfRange.
    with pytest.raises(OutOfRange, match=r"would hold 10\*\*\d+\.\d entries"):
        structure_matrices(*counts)


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
    v = true_parameters(geo).vectors
    for i in range(4):
        for t in range(6):
            np.testing.assert_array_equal(
                v[st.n_aa + i * 6 + t], geo.anchors[i] - geo.targets[t]
            )


# ---- edge vectors ----


def test_edge_vector_orientation():
    geo = NetworkGeometry([[0, 0, 0], [1, 0, 0]], np.zeros((0, 3)))
    v = true_parameters(geo).vectors
    np.testing.assert_array_equal(v, [[-1, 0, 0]])


def test_edge_matrix_matches_direct_differences():
    rng = np.random.default_rng(62)
    geo = random_geometry(rng, 3, 4)
    st = structure_matrices(3, 4)
    v = true_parameters(geo).vectors
    x = geo.stacked
    for m, (i, j) in enumerate(edge_ends(st)):
        np.testing.assert_allclose(v[m], x[i] - x[j], atol=1e-12)


def _opposite_anchors():
    """The default anchors with x = +1.7e308 on anchor 0 and -1.7e308 on
    anchor 1: finite, but the edge between them is past the float range."""
    anchors = np.array(DEFAULT_ANCHORS)
    anchors[:2, 0] = 1.7e308, -1.7e308
    return anchors


@pytest.mark.parametrize("anchors, targets", [
    (1e160 * np.eye(3), 1e160 * np.ones((2, 3))),
    (_opposite_anchors(), np.ones((2, 3))),
], ids=["1e160", "opposite-1.7e308"])
def test_positions_whose_squared_edges_overflow_are_refused(anchors, targets):
    # 1e160 m coordinates warned "overflow encountered in multiply" from the
    # distance norm, and coordinates of +-1.7e308 warned "overflow encountered
    # in matmul" from the edge product, untyped under warnings-as-errors.
    geo = NetworkGeometry(anchors, targets)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="positions must give every edge"):
            true_parameters(geo)


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e3, 1e150])
def test_distances_keep_the_bits_of_the_norm(scale):
    # true_parameters takes the square root of the same row sums that the
    # overflow check forms; the distances were np.linalg.norm's, bit for bit.
    rng = np.random.default_rng(160)
    geo = NetworkGeometry(scale * rng.normal(size=(5, 3)), scale * rng.normal(size=(12, 3)))
    v = structure_matrices(5, 12).c @ geo.stacked
    np.testing.assert_array_equal(true_parameters(geo).distances,
                                  np.linalg.norm(v, axis=1))


def test_coincident_nodes_give_zero_edges():
    geo = NetworkGeometry(np.ones((3, 3)), np.ones((2, 3)))
    v = true_parameters(geo).vectors
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
    xy = 0  # azimuth row of the xy plane
    assert abs(tp.azimuths[xy, p] - tp.azimuths[xy, m]) == pytest.approx(np.pi / 2)
    # both edges lie in the xy plane: 90 degrees from +z
    np.testing.assert_allclose(tp.elevations[2, [m, p]], np.pi / 2)


def test_axis_aligned_edge_flagged():
    geo = NetworkGeometry([[0, 0, 1], [5, 0, 0]], [[0, 0, 0]])
    tp = true_parameters(geo)
    m = edge_ends(structure_matrices(2, 1)).index((0, 2))
    assert tp.elevations[2, m] == pytest.approx(0.0)  # along +z
    assert tp.azimuths[0, m] == 0.0  # xy projection has zero length
    assert tp.degenerate[m]


def test_inner_product_identity():
    rng = np.random.default_rng(63)
    tp = true_parameters(random_geometry(rng))
    lhs = tp.vectors @ tp.vectors.T
    rhs = np.outer(tp.distances, tp.distances) * np.cos(tp.adoa)
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_angle_arrays_layout():
    # azimuth rows xy, xz, yz; elevation rows from +x, +y, +z
    rng = np.random.default_rng(64)
    tp = true_parameters(random_geometry(rng))
    a, b, c = tp.vectors.T
    m = tp.distances.shape[0]
    assert tp.azimuths.shape == tp.elevations.shape == (3, m)
    np.testing.assert_allclose(tp.azimuths,
                               [np.arctan2(b, a), np.arctan2(c, a), np.arctan2(c, b)],
                               atol=1e-12)
    np.testing.assert_allclose(np.cos(tp.elevations) * tp.distances, [a, b, c],
                               atol=1e-10)


def test_plane_distance_identities():
    # the xy, xz and yz projections are d sin of the elevation from z, y, x
    rng = np.random.default_rng(64)
    tp = true_parameters(random_geometry(rng))
    a, b, c = tp.vectors.T
    projected = [np.hypot(a, b), np.hypot(a, c), np.hypot(b, c)]
    np.testing.assert_allclose(tp.distances * np.sin(tp.elevations[::-1]), projected,
                               atol=1e-10)


def test_outer_product_identities():
    rng = np.random.default_rng(65)
    tp = true_parameters(random_geometry(rng, 4, 6))
    a, b, c = tp.vectors.T
    projected = tp.distances * np.sin(tp.elevations[::-1])
    cases = zip((a, a, b), (b, c, c), projected, tp.azimuths)
    for u, w, dp, phi in cases:
        lhs = np.outer(u, w) - np.outer(w, u)  # u_m w_p - u_p w_m
        rhs = np.outer(dp, dp) * np.sin(phi[None, :] - phi[:, None])
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_azimuth_reconstructs_projection():
    rng = np.random.default_rng(66)
    tp = true_parameters(random_geometry(rng, 3, 3))
    a, b, _ = tp.vectors.T
    d_xy = tp.distances * np.sin(tp.elevations[2])
    np.testing.assert_allclose(d_xy * np.cos(tp.azimuths[0]), a, atol=1e-10)
    np.testing.assert_allclose(d_xy * np.sin(tp.azimuths[0]), b, atol=1e-10)


def test_adoa_range_and_diagonal():
    rng = np.random.default_rng(67)
    tp = true_parameters(random_geometry(rng, 3, 5))
    assert np.all(tp.adoa >= 0) and np.all(tp.adoa <= np.pi)
    np.testing.assert_array_equal(np.diag(tp.adoa), np.zeros(tp.adoa.shape[0]))
    np.testing.assert_allclose(tp.adoa, tp.adoa.T, atol=0)


def test_random_geometry_rarely_degenerate():
    rng = np.random.default_rng(68)
    tp = true_parameters(random_geometry(rng))
    assert not tp.degenerate.any()


def test_parameters_are_immutable():
    rng = np.random.default_rng(69)
    tp = true_parameters(random_geometry(rng, 2, 2))
    with pytest.raises(ValueError):
        tp.distances[0] = 0.0
