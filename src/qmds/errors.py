"""Exception and warning types raised across the package."""

from __future__ import annotations


class QmdsError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(QmdsError):
    """Operands or fields whose array shapes are incompatible."""


class DimensionMismatch(QmdsError):
    """Matrix product, kernel or edge set with inconsistent dimensions."""


class OutOfRange(QmdsError):
    """Scalar parameter outside its documented domain."""


class NonPositiveDistance(QmdsError):
    """Distance that must be strictly positive is zero or negative."""


class DegenerateEdge(QmdsError):
    """Edge with zero length, where direction angles are undefined."""


class AsymmetricMask(QmdsError):
    """Observation mask that is not symmetric with a fully observed diagonal."""


class RankDeficient(QmdsError):
    """Factorization input without the required number of usable eigenvalues,
    a low-rank truncation that failed to act as a rank projection, or a
    completion whose observed values are fewer than the rank-r model's
    degrees of freedom, so that no completion can be unique."""


class AmbiguityResolutionFailure(QmdsError):
    """Edge-vector phase alignment with no usable anchor-anchor correlation."""


class SingularSystem(QmdsError):
    """Anchored inversion whose stacked system lost full column rank."""


class DegenerateAnchors(QmdsError):
    """Anchor set that is too small, coincident, or coplanar to fix a frame."""


class ZeroAnchorEdges(QmdsError):
    """Anchor-anchor edge vector block with zero norm."""


class NonConvergenceWarning(UserWarning):
    """Iteration stopped at its sweep budget before reaching its tolerance."""


class HermitianDefectWarning(UserWarning):
    """Input expected Hermitian deviates beyond tolerance; it was symmetrized."""
