"""Quaternion matrix algebra for the tests: the reference that the library's
hand-expanded arithmetic on Cayley-Dickson halves is checked against.

`qmds.quat.QuaternionMatrix` stores a pair (A, B), entry A + B j, and
implements no arithmetic. Here the matrix product, the conjugate transpose
and the Frobenius `norm` are written on the halves once, and `hamilton`
multiplies single quaternions from the multiplication table alone, so
`tests/test_quat.py` can check the matrix product against it entry by entry.
The library holds a quaternion vector u = u1 + u2 j as the (m, 2) columns
[u1, u2]; `column` turns that into the m x 1 matrix the oracle multiplies,
and `columns` turns it back.
"""

import math

import numpy as np

from qmds.quat import QuaternionMatrix


def hamilton(p, q):
    """Hamilton product of (w, x, y, z) tuples, componentwise over arrays."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


def from_components(w, x, y, z) -> QuaternionMatrix:
    """Quaternion matrix with entries w + x i + y j + z k."""
    w, x, y, z = (np.asarray(t, dtype=float) for t in (w, x, y, z))
    return QuaternionMatrix(w + 1j * x, y + 1j * z)


def column(u) -> QuaternionMatrix:
    """The m x 1 quaternion matrix of the (m, 2) columns u = [u1, u2]."""
    u = np.asarray(u, dtype=complex)
    return QuaternionMatrix(u[:, :1], u[:, 1:])


def columns(q: QuaternionMatrix) -> np.ndarray:
    """The (m, 2) columns [u1, u2] of an m x 1 quaternion matrix."""
    return np.hstack((q.a, q.b))


def matmul(p: QuaternionMatrix, q: QuaternionMatrix) -> QuaternionMatrix:
    """Matrix product p q: (A1 + B1 j)(A2 + B2 j) =
    (A1 A2 - B1 conj(B2)) + (A1 B2 + B1 conj(A2)) j."""
    a = p.a @ q.a - p.b @ np.conj(q.b)
    b = p.a @ q.b + p.b @ np.conj(q.a)
    return QuaternionMatrix(a, b)


def ctranspose(q: QuaternionMatrix) -> QuaternionMatrix:
    """Conjugate transpose: (A + B j)^H = A^H - B^T j."""
    return QuaternionMatrix(np.conj(q.a).T, -q.b.T)


def add(p: QuaternionMatrix, q: QuaternionMatrix) -> QuaternionMatrix:
    return QuaternionMatrix(p.a + q.a, p.b + q.b)


def sub(p: QuaternionMatrix, q: QuaternionMatrix) -> QuaternionMatrix:
    return QuaternionMatrix(p.a - q.a, p.b - q.b)


def norm(q: QuaternionMatrix) -> float:
    """Frobenius norm, the root of the summed squared entry norms."""
    return math.sqrt(float(np.sum(np.abs(q.a) ** 2) + np.sum(np.abs(q.b) ** 2)))


def div(q: QuaternionMatrix, s: float) -> QuaternionMatrix:
    """q divided by the real number s."""
    return QuaternionMatrix(q.a / s, q.b / s)


def hermitian_part(q: QuaternionMatrix) -> QuaternionMatrix:
    """(q + q^H) / 2, Hermitian to the bit."""
    return div(add(q, ctranspose(q)), 2)


def reconstruct(usv: tuple) -> QuaternionMatrix:
    """U_k Sigma_k V_k^H from the factors (u, s, v) of a quaternion SVD,
    k = min(M, N)."""
    u, s, v = usv
    k = len(s)
    uk = QuaternionMatrix(u.a[:, :k] * s, u.b[:, :k] * s)
    vk = QuaternionMatrix(v.a[:, :k], v.b[:, :k])
    return matmul(uk, ctranspose(vk))
