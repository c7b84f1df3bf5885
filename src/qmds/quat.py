"""Quaternion matrices and the SVD over the quaternions.

A quaternion q = w + x i + y j + z k multiplies by the Hamilton rules
i^2 = j^2 = k^2 = -1, ij = -ji = k, jk = -kj = i, ki = -ik = j. Matrices are
stored in Cayley-Dickson form: a pair of complex arrays (A, B) with entry
q = A + B j, where A = w + x i and B = y + z i. The halves encode the product,

    (A1 + B1 j)(A2 + B2 j) = (A1 A2 - B1 conj(B2)) + (A1 B2 + B1 conj(A2)) j,

and the private `_qmul` is the one place that evaluates it. A quaternion
vector u = u1 + u2 j has one form on the solve path, the (m, 2) complex
array of columns [u1, u2]: `dominant_eigpair` returns it, `_embed_r3` builds
it, `_r3_components` reads it, and `_qmul` multiplies a matrix into it.
`QuaternionMatrix` stores matrices only (kernels and `qsvd` factors) and
implements no arithmetic. The complex adjoint [[A, B], [-conj(B), conj(A)]]
of an M x N quaternion matrix maps products and conjugate transposes
through; each of its singular values appears twice, and `qsvd` reads the
quaternion SVD off the odd-indexed (1-based) ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .network import _array

__all__ = [
    "QuaternionMatrix",
    "complex_adjoint",
    "qsvd",
    "dominant_eigpair",
]

# `dominant_eigpair` power steps: the certified eigenvector error r / g, and
# the steps tried before the dense solve. Kernels of the paper's grid
# (eps <= 50 deg) certify in at most about 40 steps.
_CERT_TOL = 1e-13
_POWER_STEPS = 100


def _mirrors(x: np.ndarray, flip=None) -> bool:
    """The one exact mirror test: square x == flip(x^T) to the bit (no flip if
    None), by blocks of rows, as a whole x.T makes a kernel-sized temporary."""
    n = len(x)
    rows = max(1, 1536 // (n or 1))  # blocks of 24 KiB of complex128
    block = np.empty((rows, n), x.dtype)
    for i in range(0, n, rows):
        np.copyto(mirror := block[: min(rows, n - i)], x[:, i:i + rows].T)
        if flip is not None:
            flip(mirror, out=mirror)
        if not (x[i:i + rows] == mirror).all():
            return False
    return True


def _qmul(a: np.ndarray, b: np.ndarray, u: np.ndarray) -> np.ndarray:
    """(A + B j)(u1 + u2 j) = [A u1 - B conj(u2), A u2 + B conj(u1)], u = [u1, u2]."""
    return a @ u + (b @ u.conj())[:, ::-1] * (-1.0, 1.0)


@dataclass(frozen=True, eq=False, repr=False)
class QuaternionMatrix:
    """Frozen storage for a quaternion matrix as the pair (A, B).

    The constructor takes ownership: a complex128 half is kept uncopied and
    frozen in place, any other half is converted to a new complex128 array
    (`np.asarray`) and the caller's stays writeable. Both halves must be
    numeric (bool, integer, float or complex) and of one 2-D shape, else
    `ShapeMismatch`; a vector is an (m, 2) array [u1, u2], not a matrix.
    Equality is identity.
    """

    __slots__ = ("a", "b")  # the slots flag breaks the frozen __setattr__ on 3.11
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(_array("a", np.asarray(self.a), "biufc", (None, None)), complex)
        b = np.asarray(_array("b", np.asarray(self.b), "biufc", a.shape), complex)
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.a.shape

    def __repr__(self) -> str:
        return f"QuaternionMatrix(shape={self.shape})"


def complex_adjoint(q: QuaternionMatrix) -> np.ndarray:
    """Complex 2M x 2N adjoint [[A, B], [-conj(B), conj(A)]].

    The map respects products, conjugate transposes, and Frobenius norms up
    to the doubling factor sqrt(2); each singular value of q shows up twice.
    """
    return np.block([[q.a, q.b], [-q.b.conj(), q.a.conj()]])


def qsvd(q: QuaternionMatrix) -> tuple[QuaternionMatrix, np.ndarray, QuaternionMatrix]:
    """Singular value decomposition q = u diag(s) v^H of a quaternion matrix,
    as the tuple (u, s, v): u is M x M, v is N x N, and the singular values
    s are real, nonnegative, nonincreasing, of length min(M, N). All three
    are read-only.

    Computed through the complex adjoint: its 2 min(M, N) singular values
    come in equal pairs, and one column of each pair maps back to a
    quaternion singular vector. `np.linalg.svd` returns the values
    nonincreasing, so equal pairs are adjacent and every other column is
    taken. A complex column u = [u1; u2] pulls back to the quaternion column
    u1 - conj(u2) j.
    """
    m, n = q.shape
    uc, s, vh = np.linalg.svd(complex_adjoint(q), full_matrices=True)
    vc = vh.conj().T
    s = s[::2].copy()
    s.setflags(write=False)
    return (QuaternionMatrix(uc[:m, ::2].copy(), -uc[m:, ::2].conj()), s,
            QuaternionMatrix(vc[:n, ::2].copy(), -vc[n:, ::2].conj()))


def _certified_power(k: QuaternionMatrix) -> tuple[float, np.ndarray] | None:
    """Power steps on a Hermitian K: its top pair once certified, else None.

    The iterate u = u1 + u2 j is the m x 2 array [u1, u2]; a step is `_qmul`.
    Why the certificate holds: with Rayleigh quotient lam and residual r,
    some eigenvalue lies within r of lam (the Hermitian residual bound,
    applied to the complex adjoint), so it is at least mu = lam - r. The
    squared eigenvalues sum to ||K||_F^2, so when 2 mu^2 > ||K||_F^2 every
    other eigenvalue is below sqrt(||K||_F^2 - mu^2) < mu. That eigenvalue
    is then the largest, g = mu - sqrt(||K||_F^2 - mu^2) bounds its gap
    from below, and sin(u, exact eigenvector) <= r / g (Davis & Kahan).
    """
    a, b = k.a, k.b
    fro2 = float(np.vdot(a, a).real + np.vdot(b, b).real)
    # The column of the largest diagonal entry is one step from e_c.
    c = int(np.argmax(a.diagonal().real))
    u = np.column_stack((a[:, c], b[:, c]))
    for _ in range(_POWER_STEPS):
        norm = np.linalg.norm(u)
        if not norm > 0:  # zero or not finite
            return None
        u = u / norm
        w = _qmul(a, b, u)
        lam = float(np.vdot(u, w).real)
        r = float(np.linalg.norm(w - u * lam))
        mu = lam - r
        if mu > 0 and 2 * mu * mu > fro2:
            if r <= _CERT_TOL * (mu - math.sqrt(max(fro2 - mu * mu, 0.0))):
                return lam, u
        elif r <= _CERT_TOL * math.sqrt(fro2):
            return None  # converged to a pair the certificate rejects
        u = w
    return None


def dominant_eigpair(k: QuaternionMatrix) -> tuple[float, np.ndarray]:
    """Largest eigenpair (lambda, u) of a Hermitian quaternion matrix.

    Returns the algebraically largest eigenvalue and a unit right
    eigenvector, K u = u lambda, as the (m, 2) columns [u1, u2] of
    u = u1 + u2 j; u is defined only up to a right unit-quaternion factor.
    K must be square and Hermitian to the bit (A = A^H and B = -B^T), as
    every `QuatGek` kernel is; like `np.linalg.eigh`, this routine does not
    check. An empty K has no eigenpair and raises `ShapeMismatch`.

    Quaternion power steps, started from the column of K with the largest
    diagonal entry, return the pair once a certificate holds: with Rayleigh
    quotient lambda and residual r, mu = lambda - r is positive,
    mu^2 > ||K||_F^2 / 2, and r <= 1e-13 g for the gap bound
    g = mu - sqrt(||K||_F^2 - mu^2). Because the squared eigenvalues sum to
    ||K||_F^2, that proves lambda belongs to the largest eigenvalue and
    bounds the eigenvector error by r / g. A near rank-1 kernel certifies
    in a few dozen steps. When the steps converge to a pair the certificate
    rejects (the largest eigenvalue does not dominate, or is not the one of
    largest magnitude), or do not certify within a fixed step budget, one
    dense Hermitian solve of the complex adjoint is used instead: its
    eigenvalues are those of K, each twice, and any unit column [u1; u2] of
    the top eigenspace pulls back to the quaternion eigenvector
    u1 - conj(u2) j.
    """
    if k.shape[0] == 0:
        raise ShapeMismatch("an empty matrix has no eigenpair")
    pair = _certified_power(k)
    if pair is not None:
        return pair
    w, v = np.linalg.eigh(complex_adjoint(k))
    m = k.shape[0]
    top = v[:, -1]
    return float(w[-1]), np.column_stack((top[:m], -np.conj(top[m:])))


def _embed_r3(rows: np.ndarray) -> np.ndarray:
    """Map (n, 3) real rows (a, b, c) to the quaternion vector a + b i + c j,
    returned as its (n, 2) columns [a + b i, c].

    The k component is fixed at zero; this is the coordinate embedding every
    kernel and solver in this package shares.
    """
    return np.column_stack((rows[:, 0] + 1j * rows[:, 1], rows[:, 2]))


def _r3_components(u: np.ndarray) -> np.ndarray:
    """Inverse of `_embed_r3`: the real, i, and j components of quaternion
    columns [u1, u2], an (..., 2) array, as (..., 3) rows.

    Any k component is dropped; callers decide whether its size matters.
    """
    return np.stack((u[..., 0].real, u[..., 0].imag, u[..., 1].real), -1)
