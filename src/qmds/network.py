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
the angle between two edges lies in [0, pi]. Azimuths and elevations are
each one (3, M) array, one column per edge: azimuth rows are the xy, xz and
yz planes, elevation rows the +x, +y and +z axes. A plane's projected length
is d times the sine of the elevation from its normal axis, so azimuth row p
pairs with elevation row 2 - p.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import OutOfRange, ShapeMismatch

__all__ = [
    "NetworkGeometry",
    "StructureMatrices",
    "TrueParameters",
    "structure_matrices",
    "true_parameters",
]

# Plane projections shorter than this are considered degenerate: their
# azimuth is undefined and the edge is flagged for resampling.
DEGENERATE_LENGTH = 1e-9

# Rows of v.T: the (first, second) axes of the xy, xz and yz planes, then of
# the yz, xz and xy planes (normal to x, y, z). Indexed, not a reversed view:
# at M = 1 a negative stride sends arctan2 down a loop that rounds otherwise.
_PLANE_AXES = np.array([[0, 0, 1], [1, 2, 2], [1, 0, 0], [2, 2, 1]])

# The most entries an array sized by a caller's count may hold: numpy would
# answer a count of 10**9 with an untyped MemoryError, after trying. 2**24
# float64 entries are 128 MiB, 2,000 times the default network's 85 x 85 mask.
_MAX_ENTRIES = 2**24


def _integer(name: str, value, low: int) -> int:
    """The one count check: `value` as an int (a numpy integer is one; a bool
    or float is not) of at least `low`, else `OutOfRange`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low):
        raise OutOfRange(f"{name} must be an integer >= {low}, got {_shown(value)}")
    return int(value)


def _check_entries(what: str, entries: int) -> None:  # before allocating
    if entries > _MAX_ENTRIES:
        raise OutOfRange(f"{what} would hold {_shown(entries)} entries, "
                         f"over {_MAX_ENTRIES}")


def _shown(value) -> str:
    """`repr(value)` for a message; an integer too long for Python to format
    (past 4,300 digits by default) shows as its size, a power of ten."""
    try:
        return repr(value)
    except ValueError:
        return f"{'-' if value < 0 else ''}10**{math.log10(abs(value)):.1f}"


def _real(name: str, value) -> float:
    """The one real-number check: `value` as a float (a numpy integer or float
    is one; a bool, complex, str or None is not), finite, else `OutOfRange`."""
    try:
        if (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and math.isfinite(real := float(value))):
            return real
    except OverflowError:  # float() of an int past the float range
        pass
    raise OutOfRange(f"{name} must be a finite real number, got {_shown(value)}")


def _array(name: str, x, kinds: str, shape: tuple) -> np.ndarray:
    """The one array check: `x` itself when it is an ndarray whose dtype kind
    is in `kinds` ("biuf" for real numbers, "biufc" for any number) and whose
    shape matches `shape`, a None there matching any length; anything else,
    a list included, raises `ShapeMismatch`."""
    if (isinstance(x, np.ndarray) and x.dtype.kind in kinds and x.ndim == len(shape)
            and all(n in (None, k) for n, k in zip(shape, x.shape))):
        return x
    dims = ", ".join("N" if n is None else str(n) for n in shape)
    got = f"{x.dtype} {x.shape}" if isinstance(x, np.ndarray) else type(x).__name__
    raise ShapeMismatch(f"{name} must be a {len(shape)}-D ({dims}) array of dtype "
                        f"kind in {kinds!r}, got {got}")


def _points(name: str, x, rows: int | None = None, finite: bool = True) -> np.ndarray:
    """The one check of a point array: `x` as a new (rows, 3) float array,
    any number of rows when `rows` is None. Anything but real numbers
    (complex ones included), or another shape, raises `ShapeMismatch`; a
    non-finite coordinate raises `OutOfRange` unless `finite` is False."""
    try:
        arr = _array(name, np.asarray(x), "biuf", (rows, 3))
    except (TypeError, ValueError) as exc:  # e.g. a ragged nested list
        raise ShapeMismatch(f"{name} must be an array of real numbers: {exc}") from None
    if finite and not np.isfinite(arr).all():
        raise OutOfRange(f"non-finite coordinates in {name}")
    return arr.astype(float)


def _edge_squares(what: str, v: np.ndarray) -> np.ndarray:
    """The one overflow check of edge rows: their sums of squares, finite."""
    with np.errstate(over="ignore"):  # an overflow is refused, not warned
        squares = np.square(v).sum(axis=1)
    if not np.isfinite(squares).all():
        raise OutOfRange(f"{what} must give every edge a finite square")
    return squares


@dataclass(frozen=True)
class NetworkGeometry:
    """Anchor and target positions in meters, (N_A, 3) and (N_T, 3), copied.

    N_A must be at least one; N_T may be zero. `_points` checks both arrays
    (`ShapeMismatch`, or `OutOfRange` for a non-finite coordinate)."""

    anchors: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        anchors = _points("anchors", self.anchors)
        targets = _points("targets", self.targets)
        if not len(anchors):
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
        n_a = _integer("n_anchors", self.n_anchors, 1)
        n_t = _integer("n_targets", self.n_targets, 0)
        m = n_a * (n_a - 1) // 2 + n_a * n_t
        _check_entries("incidence matrix", m * (n_a + n_t))
        _check_entries("M x M edge kernel", m * m)
        object.__setattr__(self, "n_anchors", n_a)
        object.__setattr__(self, "n_targets", n_t)
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


@lru_cache(maxsize=16, typed=True)  # typed: True is 1 to an untyped cache
def structure_matrices(n_anchors: int, n_targets: int) -> StructureMatrices:
    """The incidence matrix of a network with the given node counts.

    The result is immutable and cached per size, so repeated calls share it.
    Counts not integers within the size ceiling raise `OutOfRange`.
    """
    return StructureMatrices(n_anchors, n_targets)


@dataclass(frozen=True)
class TrueParameters:
    """Noise-free distances and angles of every measurable edge.

    `azimuths` (3, M) has rows xy, xz and yz, each angle taken from the
    plane's first axis (x, x, y) towards its second; `elevations` (3, M) has
    the angles from +x, +y and +z. A plane pairs with the elevation from its
    normal axis (xy with z, xz with y, yz with x), so `elevations[::-1]`
    lines up with `azimuths`. `adoa[m, p]` is the angle between edges m and
    p. `degenerate` flags edges whose length or any plane projection is too
    short for the corresponding angles to be defined.
    """

    vectors: np.ndarray
    distances: np.ndarray
    azimuths: np.ndarray
    elevations: np.ndarray
    adoa: np.ndarray
    degenerate: np.ndarray

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            getattr(self, name).setflags(write=False)


def true_parameters(geometry: NetworkGeometry) -> TrueParameters:
    """Exact per-edge distances and angles (`OutOfRange` if a square overflows)."""
    structure = structure_matrices(geometry.n_anchors, geometry.n_targets)
    with np.errstate(over="ignore"):  # an overflow is refused below, not warned
        v = structure.c @ geometry.stacked  # edge vectors x_i - x_j, (M, 3)
    d = np.sqrt(_edge_squares("positions", v))

    first, second, *normal = v.T[_PLANE_AXES]
    azimuths = np.arctan2(second, first)
    proj = np.hypot(*normal)
    elevations = np.arctan2(proj, v.T)

    gram = v @ v.T
    dd = np.outer(d, d)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_a = np.where(dd > 0, gram / np.where(dd > 0, dd, 1.0), 1.0)
    adoa = np.arccos(np.clip(cos_a, -1.0, 1.0))
    np.fill_diagonal(adoa, 0.0)

    degenerate = (d <= DEGENERATE_LENGTH) | (proj <= DEGENERATE_LENGTH).any(axis=0)
    return TrueParameters(v, d, azimuths, elevations, adoa, degenerate)
