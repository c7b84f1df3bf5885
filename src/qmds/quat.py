"""Quaternion matrices and the SVD over the quaternions.

A quaternion q = w + x i + y j + z k multiplies by the Hamilton rules
i^2 = j^2 = k^2 = -1, ij = -ji = k, jk = -kj = i, ki = -ik = j. The product
is associative but not commutative.

Matrices are stored in Cayley-Dickson form: a pair of complex arrays (A, B)
with entry q = A + B j, where A = w + x i and B = y + z i. With j on the
right of B, entrywise products obey

    (A1 + B1 j)(A2 + B2 j) = (A1 A2 - B1 conj(B2)) + (A1 B2 + B1 conj(A2)) j,

so a quaternion matrix product costs a handful of complex BLAS products. The
complex adjoint of an M x N quaternion matrix is the 2M x 2N complex matrix

    [[ A,        B      ],
     [-conj(B),  conj(A)]],

an algebra homomorphism (products and conjugate transposes map through it).
Its first column carries a quaternion vector u = u1 + u2 j as [u1; -conj(u2)].
Products K u and K^H u need no adjoint: the solvers take them from transposed
views of A and B, conjugating only vectors.
Every singular value of the adjoint appears exactly twice, and the SVD of a
quaternion matrix is read off the adjoint's SVD by keeping the odd-indexed
(1-based) singular values and columns; `qsvd` implements that extraction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, HermitianDefectWarning, ShapeMismatch

__all__ = [
    "QuaternionMatrix",
    "QsvdResult",
    "complex_adjoint",
    "qsvd",
    "dominant_eigpair",
    "embed_r3",
    "r3_components",
]

# Relative Hermitian defect above which `dominant_eigpair` warns.
_DEFECT_TOL = 1e-12
# `dominant_eigpair` power steps: the certified eigenvector error r / g, and
# the steps tried before the dense solve. Kernels of the paper's grid
# (eps <= 50 deg) certify in at most about 40 steps.
_CERT_TOL = 1e-13
_POWER_STEPS = 100


def _as_pair(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ShapeMismatch(f"pair shapes differ: {a.shape} vs {b.shape}")
    if a.ndim not in (1, 2):
        raise ShapeMismatch("quaternion arrays must be 1-D or 2-D")
    return a, b


class QuaternionMatrix:
    """Dense quaternion matrix (or vector) in Cayley-Dickson form.

    Instances are immutable: the backing arrays are frozen at construction,
    and every operation returns a new object. `@` is the quaternion matrix
    product of two quaternion matrices; an ndarray operand on either side
    raises TypeError.
    """

    __slots__ = ("_a", "_b")

    # numpy defers every mixed ndarray expression back to this class, which
    # defines no reflected operators, so `ndarray @ q` raises TypeError
    # instead of building an object array.
    __array_ufunc__ = None

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a, b = _as_pair(a, b)
        self._a = a.copy()
        self._b = b.copy()
        self._a.setflags(write=False)
        self._b.setflags(write=False)

    # ---- constructors ----

    @classmethod
    def from_components(cls, w, x, y, z) -> "QuaternionMatrix":
        w, x, y, z = (np.asarray(t, dtype=float) for t in (w, x, y, z))
        return cls(w + 1j * x, y + 1j * z)

    @classmethod
    def _adopt(cls, a: np.ndarray, b: np.ndarray) -> "QuaternionMatrix":
        """Freeze and keep a fresh pair, or views of frozen arrays, uncopied."""
        q = cls.__new__(cls)
        q._a, q._b = a, b
        a.setflags(write=False)
        b.setflags(write=False)
        return q

    # ---- views ----

    @property
    def a(self) -> np.ndarray:
        return self._a

    @property
    def b(self) -> np.ndarray:
        return self._b

    @property
    def w(self) -> np.ndarray:
        return self._a.real

    @property
    def x(self) -> np.ndarray:
        return self._a.imag

    @property
    def y(self) -> np.ndarray:
        return self._b.real

    @property
    def z(self) -> np.ndarray:
        return self._b.imag

    @property
    def shape(self) -> tuple[int, ...]:
        return self._a.shape

    @property
    def ndim(self) -> int:
        return self._a.ndim

    # ---- algebra ----

    @property
    def H(self) -> "QuaternionMatrix":
        """Conjugate transpose."""
        return QuaternionMatrix(np.conj(self._a).T, -self._b.T)

    def __add__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        return QuaternionMatrix(self._a + other._a, self._b + other._b)

    def __sub__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        return QuaternionMatrix(self._a - other._a, self._b - other._b)

    def __truediv__(self, s: "float | int") -> "QuaternionMatrix":
        return QuaternionMatrix(self._a / s, self._b / s)

    def __matmul__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        if not isinstance(other, QuaternionMatrix):
            return NotImplemented
        oa, ob = other._a, other._b
        try:
            a = self._a @ oa - self._b @ np.conj(ob)
            b = self._a @ ob + self._b @ np.conj(oa)
        except ValueError as exc:
            raise DimensionMismatch(str(exc)) from None
        return QuaternionMatrix(a, b)

    # ---- measures ----

    def norm(self) -> float:
        """Frobenius norm, the root of the summed squared entry norms."""
        return math.sqrt(float(np.sum(np.abs(self._a) ** 2)
                               + np.sum(np.abs(self._b) ** 2)))

    def hermitian_defect(self) -> float:
        """Relative Frobenius distance to the conjugate transpose."""
        if self.ndim != 2 or self.shape[0] != self.shape[1]:
            raise ShapeMismatch("hermitian_defect needs a square matrix")
        num = (self - self.H).norm()
        den = max(self.norm(), np.finfo(float).tiny)
        return num / den

    def __repr__(self) -> str:
        return f"QuaternionMatrix(shape={self.shape})"


def complex_adjoint(q: QuaternionMatrix) -> np.ndarray:
    """Complex 2M x 2N adjoint [[A, B], [-conj(B), conj(A)]].

    The map respects products, conjugate transposes, and Frobenius norms up
    to the doubling factor sqrt(2); each singular value of q shows up twice.
    """
    a, b = (q.a, q.b) if q.ndim == 2 else (q.a[:, None], q.b[:, None])
    m, n = a.shape
    out = np.empty((2 * m, 2 * n), dtype=complex)  # np.block copies twice
    out[:m, :n], out[:m, n:], out[m:, :n], out[m:, n:] = a, b, -b.conj(), a.conj()
    return out


@dataclass(frozen=True)
class QsvdResult:
    """Quaternion SVD factors: `u` (M x M), `singular_values`, `v` (N x N).

    Singular values are real, nonnegative, nonincreasing, of length
    min(M, N). `reconstruct` multiplies the truncated factors back together.
    """

    u: QuaternionMatrix
    singular_values: np.ndarray
    v: QuaternionMatrix

    def reconstruct(self, rank: int | None = None) -> QuaternionMatrix:
        k = len(self.singular_values) if rank is None else rank
        uk = QuaternionMatrix(self.u.a[:, :k] * self.singular_values[:k],
                              self.u.b[:, :k] * self.singular_values[:k])
        vk = QuaternionMatrix(self.v.a[:, :k], self.v.b[:, :k])
        return uk @ vk.H


def qsvd(q: QuaternionMatrix) -> QsvdResult:
    """Singular value decomposition of a quaternion matrix.

    Computed through the complex adjoint: its 2 min(M, N) singular values
    come in equal pairs, and one column of each pair maps back to a
    quaternion singular vector. The backend returns values nonincreasing; a
    stable re-sort is applied anyway so that equal pairs stay adjacent before
    the odd-index extraction. A complex column u = [u1; u2] pulls back to the
    quaternion column u1 - conj(u2) j.
    """
    if q.ndim != 2:
        raise ShapeMismatch("qsvd needs a 2-D quaternion matrix")
    m, n = q.shape
    qc = complex_adjoint(q)
    uc, s, vh = np.linalg.svd(qc, full_matrices=True)
    vc = np.conj(vh).T
    order = np.argsort(-s, kind="stable")
    s = s[order]
    # Only the leading 2*min(m,n) columns carry singular values; columns past
    # them span null spaces and stay where the backend put them.
    uc[:, : len(order)] = uc[:, order]
    vc[:, : len(order)] = vc[:, order]

    u1, u2 = uc[:m], uc[m:]
    v1, v2 = vc[:n], vc[n:]
    uq = QuaternionMatrix(u1[:, ::2], -np.conj(u2)[:, ::2])
    vq = QuaternionMatrix(v1[:, ::2], -np.conj(v2)[:, ::2])
    return QsvdResult(uq, s[::2].copy(), vq)


def _certified_power(k: QuaternionMatrix) -> tuple[float, QuaternionMatrix] | None:
    """Power steps on a Hermitian K: its top pair once certified, else None.

    The iterate u = u1 + u2 j is the m x 2 array [u1, u2], and one step is
    K(u1 + u2 j) = (A u1 - B conj(u2)) + (A u2 + B conj(u1)) j. Why the
    certificate holds: with Rayleigh quotient lam and residual r, some
    eigenvalue lies within r of lam (the Hermitian residual bound, applied
    to the complex adjoint), so it is at least mu = lam - r. The squared
    eigenvalues sum to ||K||_F^2, so when 2 mu^2 > ||K||_F^2 every other
    eigenvalue is below sqrt(||K||_F^2 - mu^2) < mu. That eigenvalue is
    then the largest, g = mu - sqrt(||K||_F^2 - mu^2) bounds its gap from
    below, and sin(u, exact eigenvector) <= r / g (Davis & Kahan).
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
        # [A u1 - B conj(u2), A u2 + B conj(u1)]
        w = a @ u + (b @ u.conj())[:, ::-1] * (-1.0, 1.0)
        lam = float(np.vdot(u, w).real)
        r = float(np.linalg.norm(w - u * lam))
        mu = lam - r
        if mu > 0 and 2 * mu * mu > fro2:
            if r <= _CERT_TOL * (mu - math.sqrt(max(fro2 - mu * mu, 0.0))):
                return lam, QuaternionMatrix(u[:, 0], u[:, 1])
        elif r <= _CERT_TOL * math.sqrt(fro2):
            return None  # converged to a pair the certificate rejects
        u = w
    return None


def dominant_eigpair(k: QuaternionMatrix) -> tuple[float, QuaternionMatrix]:
    """Largest eigenpair (lambda, u) of a Hermitian quaternion matrix.

    Returns the algebraically largest eigenvalue and a unit right
    eigenvector, K u = u lambda; u is defined only up to a right
    unit-quaternion factor. An input that is not Hermitian to the bit is
    symmetrized to (K + K^H)/2 first. A relative Frobenius defect beyond
    1e-12 is reported with a warning rather than an error, since
    measurement noise routinely lands just outside exact symmetry.

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
    if k.ndim != 2 or k.shape[0] != k.shape[1]:
        raise ShapeMismatch("dominant_eigpair needs a square matrix")
    # Both kernel builders produce bit-Hermitian kernels, which skip the
    # defect measure and the copy.
    if not (np.array_equal(k.a, k.a.conj().T) and np.array_equal(k.b, -k.b.T)):
        defect = k.hermitian_defect()
        if defect > _DEFECT_TOL:
            warnings.warn(
                f"hermitian defect {defect:.3e} exceeds {_DEFECT_TOL:.1e}; "
                "input symmetrized",
                HermitianDefectWarning,
                stacklevel=2,
            )
        k = (k + k.H) / 2
    pair = _certified_power(k)
    if pair is not None:
        return pair
    w, v = np.linalg.eigh(complex_adjoint(k))
    m = k.shape[0]
    top = v[:, -1]
    return float(w[-1]), QuaternionMatrix(top[:m], -np.conj(top[m:]))


def embed_r3(rows: np.ndarray) -> QuaternionMatrix:
    """Map (n, 3) real rows (a, b, c) to the quaternion vector a + b i + c j.

    The k component is fixed at zero; this is the coordinate embedding every
    kernel and solver in this package shares.
    """
    v = np.asarray(rows, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ShapeMismatch("rows must form an (n, 3) array")
    return QuaternionMatrix(v[:, 0] + 1j * v[:, 1], v[:, 2].astype(complex))


def r3_components(q: QuaternionMatrix) -> np.ndarray:
    """Inverse of `embed_r3`: the real, i, and j components as (n, 3) rows.

    Any k component is dropped; callers decide whether its size matters.
    """
    if q.ndim != 1:
        raise ShapeMismatch("expected a quaternion vector")
    return np.column_stack([q.w, q.x, q.y])
