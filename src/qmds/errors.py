"""Exception and warning types raised across the package."""

__all__ = [
    "QmdsError", "ShapeMismatch", "OutOfRange", "DegenerateEdge",
    "DegenerateAnchors", "AsymmetricMask", "RankDeficient",
    "AmbiguityResolutionFailure", "NonConvergenceWarning",
]


class QmdsError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(QmdsError):
    """Operand or field of the wrong type, or of a shape or size its context
    rejects: a non-array field, a non-square kernel, a structure mismatch."""


class OutOfRange(QmdsError):
    """Value outside its documented domain: an out-of-range or non-finite
    parameter (a count that is not an integer, is negative, or sizes an
    array past the size ceiling), position, measurement, kernel entry or
    estimate, a pair-angle matrix that is not exactly symmetric, or a kernel
    not Hermitian to the bit."""


class DegenerateEdge(QmdsError):
    """Edge with zero length, where direction angles are undefined."""


class DegenerateAnchors(QmdsError):
    """Anchor set that is too small, coincident (all anchor-anchor edges of
    zero length), or coplanar to fix a frame."""


class AsymmetricMask(QmdsError):
    """Observation mask that is not a bool array of its kernel's shape,
    symmetric, with a fully observed diagonal."""


class RankDeficient(QmdsError):
    """Factorization input without the required number of usable eigenvalues,
    a low-rank truncation that failed to act as a rank projection, or a
    completion whose observed values are fewer than the rank-r model's
    degrees of freedom, so that no completion can be unique."""


class AmbiguityResolutionFailure(QmdsError):
    """Edge-vector phase alignment with no usable anchor-anchor correlation."""


class NonConvergenceWarning(UserWarning):
    """Iteration stopped at its sweep budget before reaching its tolerance."""
