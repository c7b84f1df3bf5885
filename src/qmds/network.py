"""Network geometry, the measurable edge set, and exact edge parameters.

Nodes are anchors (known positions) followed by targets (unknown). Every
anchor-anchor and anchor-target pair is measurable; target-target pairs are
not. Edges are indexed anchor-anchor block first, each block in ascending
lexicographic order, because downstream kernel blocks and solvers assume
exactly that layout: anchor-target edge n_aa + i * n_targets + t joins
anchor i and target t. Pair indices are 0-based.

The edge vector of pair (i, j) is x_i - x_j. Angles follow one fixed set of
conventions: azimuths in a coordinate plane lie in (-pi, pi] from the plane's
first axis, elevations measured from a positive coordinate axis lie in
[0, pi] so that plane-projected lengths d * sin(theta) stay nonnegative, and
the angle between two edges lies in [0, pi].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ShapeMismatch

__all__ = [
    "NetworkGeometry",
    "StructureMatrices",
    "TrueParameters",
    "structure_matrices",
    "edge_matrix",
    "true_parameters",
]

# Plane projections shorter than this are considered degenerate: their
# azimuth is undefined and the edge is flagged for resampling.
DEGENERATE_LENGTH = 1e-9


@dataclass(frozen=True)
class NetworkGeometry:
    """Anchor and target positions in meters, each an (n, 3) array."""

    anchors: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        anchors = np.atleast_2d(np.asarray(self.anchors, dtype=float))
        targets = np.asarray(self.targets, dtype=float).reshape(-1, 3)
        if anchors.ndim != 2 or anchors.shape[1] != 3:
            raise ShapeMismatch("anchors must be an (N_A, 3) array")
        if anchors.shape[0] < 1:
            raise ShapeMismatch("need at least one anchor")
        anchors.setflags(write=False)
        targets.setflags(write=False)
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "targets", targets)

    @property
    def n_anchors(self) -> int:
        return self.anchors.shape[0]

    @property
    def n_targets(self) -> int:
        return self.targets.shape[0]

    @property
    def stacked(self) -> np.ndarray:
        """All node positions, anchors first, shape (N, 3)."""
        return np.vstack([self.anchors, self.targets])


@dataclass(frozen=True)
class StructureMatrices:
    """Signed incidence matrix C of the measurable edges of a network size.

    Row m of C has +1 at node i and -1 at node j of edge m, so C applied to
    stacked positions yields the edge vectors. C is built here, from the node
    counts alone, in the edge layout of the module docstring: the first
    `n_aa` rows are anchor-anchor, and row n_aa + i * n_targets + t joins
    anchor i and target t.
    """

    n_anchors: int
    n_targets: int
    c: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_a, n_t = self.n_anchors, self.n_targets
        if n_a < 1 or n_t < 0:
            raise ShapeMismatch("need n_anchors >= 1 and n_targets >= 0")
        heads, tails = np.triu_indices(n_a, 1)
        heads = np.concatenate([heads, np.repeat(np.arange(n_a), n_t)])
        tails = np.concatenate([tails, n_a + np.tile(np.arange(n_t), n_a)])
        rows = np.arange(heads.size)
        c = np.zeros((heads.size, n_a + n_t))
        c[rows, heads] = 1.0
        c[rows, tails] = -1.0
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def n_aa(self) -> int:
        """Number of anchor-anchor edges."""
        return self.n_anchors * (self.n_anchors - 1) // 2


@lru_cache(maxsize=16)
def structure_matrices(n_anchors: int, n_targets: int) -> StructureMatrices:
    """The incidence matrix of a network with the given node counts.

    The result is immutable and cached per size, so repeated calls share it.
    """
    return StructureMatrices(n_anchors, n_targets)


def edge_matrix(geometry: NetworkGeometry, structure: StructureMatrices) -> np.ndarray:
    """Edge vectors x_i - x_j stacked as an (M, 3) array."""
    return structure.c @ geometry.stacked


@dataclass(frozen=True)
class TrueParameters:
    """Noise-free distances and angles of every measurable edge.

    Component naming: an edge vector is (a, b, c) along the x, y, z axes.
    Plane-projected lengths use the two in-plane components; azimuths are
    measured from the plane's first axis (x for xy and xz, y for yz);
    elevation theta_z is the angle from the +z axis, and cyclically for x, y.
    `adoa[m, p]` is the angle between edge vectors m and p. `degenerate`
    flags edges whose length or any plane projection is too short for the
    corresponding angles to be defined.
    """

    vectors: np.ndarray
    distances: np.ndarray
    d_xy: np.ndarray
    d_xz: np.ndarray
    d_yz: np.ndarray
    phi_xy: np.ndarray
    phi_xz: np.ndarray
    phi_yz: np.ndarray
    theta_x: np.ndarray
    theta_y: np.ndarray
    theta_z: np.ndarray
    adoa: np.ndarray
    degenerate: np.ndarray

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            getattr(self, name).setflags(write=False)

    @property
    def any_degenerate(self) -> bool:
        return bool(np.any(self.degenerate))


def true_parameters(geometry: NetworkGeometry) -> TrueParameters:
    """Compute exact per-edge distances and angles from node positions."""
    structure = structure_matrices(geometry.n_anchors, geometry.n_targets)
    v = edge_matrix(geometry, structure)
    a, b, c = v[:, 0], v[:, 1], v[:, 2]

    d = np.linalg.norm(v, axis=1)
    d_xy = np.hypot(a, b)
    d_xz = np.hypot(a, c)
    d_yz = np.hypot(b, c)

    phi_xy = np.arctan2(b, a)
    phi_xz = np.arctan2(c, a)
    phi_yz = np.arctan2(c, b)

    theta_z = np.arctan2(d_xy, c)
    theta_y = np.arctan2(d_xz, b)
    theta_x = np.arctan2(d_yz, a)

    gram = v @ v.T
    dd = np.outer(d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_a = np.where(dd > 0, gram / np.where(dd > 0, dd, 1.0), 1.0)
    adoa = np.arccos(np.clip(cos_a, -1.0, 1.0))
    np.fill_diagonal(adoa, 0.0)

    degenerate = (
        (d <= DEGENERATE_LENGTH)
        | (d_xy <= DEGENERATE_LENGTH)
        | (d_xz <= DEGENERATE_LENGTH)
        | (d_yz <= DEGENERATE_LENGTH)
    )
    return TrueParameters(
        vectors=v,
        distances=d,
        d_xy=d_xy,
        d_xz=d_xz,
        d_yz=d_yz,
        phi_xy=phi_xy,
        phi_xz=phi_xz,
        phi_yz=phi_yz,
        theta_x=theta_x,
        theta_y=theta_y,
        theta_z=theta_z,
        adoa=adoa,
        degenerate=degenerate,
    )
