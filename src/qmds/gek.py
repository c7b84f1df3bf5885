"""Gram edge kernels built from measured distances and angles.

The real kernel holds d_m d_p cos(alpha_mp): every pairwise inner product of
edge vectors, so it equals V V^T when measurements are exact and has rank 3.
The quaternion kernel adds the three plane-projected cross products in its
imaginary parts:

    K = K_r + i S_xy + j S_xz + k S_yz,    S = v u^T - u v^T,

where (u, v) = d sin(theta) (cos phi, sin phi) are the edges' in-plane
components, one real (2, 3, M) array [u; v] with rows xy, xz, yz. Entrywise

    S[m, p] = v_m u_p - u_m v_p = -d_m^xy d_p^xy sin(phi_p^xy - phi_m^xy)

for the xy plane, and likewise for xz and yz. Exact inputs make K the rank-1
outer product nu nu^H of the quaternion edge embedding
nu_m = a_m + b_m i + c_m j (k component fixed at zero), with top eigenvalue
equal to the summed squared distances. Entries carry m^2.

Nothing is mirrored. The real kernel is symmetric because a measurement set
holds an exactly symmetric pair-angle matrix, and each S is antisymmetric
with a zero diagonal in IEEE arithmetic (v_m u_p and u_p v_m round alike),
so both kernels are Hermitian to the bit even under noise.

Both kernel types carry no mask and check their contract once, at
construction: a square, finite kernel (real for `RealGek`), Hermitian to the
bit (`quat._mirrors`). Completion and the solvers check none of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricMask, OutOfRange, ShapeMismatch
from .measurement import MeasurementSet
from .network import _array
from .quat import QuaternionMatrix, _mirrors

__all__ = [
    "RealGek",
    "QuatGek",
    "build_real_gek",
    "build_quat_gek",
    "quat_gek_from_measurements",
]


def _check_contract(shape: tuple, parts: tuple) -> None:
    """Raise unless the kernel is square, finite and Hermitian to the bit, as
    (array, flip) parts with array = flip(array^T): K = K^T, A = A^H, B = -B^T."""
    if shape[0] != shape[1]:  # both kernel types are 2-D already
        raise ShapeMismatch(f"kernel must be square, got shape {shape}")
    if not all(np.isfinite(x).all() for x, _ in parts):
        raise OutOfRange("kernel holds non-finite entries")
    if not all(_mirrors(x, flip) for x, flip in parts):
        raise OutOfRange("kernel must be Hermitian to the bit")


@dataclass(frozen=True)
class RealGek:
    """Real symmetric kernel, which it owns and freezes."""

    k: np.ndarray

    def __post_init__(self):
        _array("kernel", self.k, "biuf", (None, None))
        _check_contract(self.k.shape, ((self.k, None),))
        self.k.setflags(write=False)

    @property
    def m(self) -> int:
        return self.k.shape[0]


@dataclass(frozen=True)
class QuatGek:
    """Hermitian quaternion kernel."""

    k: QuaternionMatrix

    def __post_init__(self):
        if not isinstance(self.k, QuaternionMatrix):
            raise ShapeMismatch("kernel must be a QuaternionMatrix")
        parts = (self.k.a, np.conjugate), (self.k.b, np.negative)
        _check_contract(self.k.shape, parts)

    @property
    def m(self) -> int:
        return self.k.shape[0]


def build_real_gek(ms: MeasurementSet) -> RealGek:
    """Assemble the real kernel from measured distances and pair angles."""
    d = ms.distances
    return RealGek(np.outer(d, d) * np.cos(ms.adoa))


def build_quat_gek(kr: RealGek, planes: np.ndarray) -> QuatGek:
    """Quaternion kernel K_r + i S_xy + j S_xz + k S_yz.

    `kr` is the real kernel; `planes` is the real (2, 3, M) array [u; v] of
    in-plane edge components, rows xy, xz and yz, each plane giving
    S = v u^T - u v^T. The components may be measured (Scenario II) or taken
    from a first positioning pass (Scenario I); the kernel does not care.
    """
    u, v = _array("planes", planes, "biuf", (2, 3, kr.m))
    # Parts go straight into the complex halves, which are adopted uncopied.
    a, b = np.empty((kr.m, kr.m), dtype=complex), np.empty((kr.m, kr.m), dtype=complex)
    a.real = kr.k
    for part, up, vp in zip((a.imag, b.real, b.imag), u, v):
        np.multiply.outer(vp, up, out=part)
        part -= np.multiply.outer(up, vp)
    return QuatGek(QuaternionMatrix(a, b))


def quat_gek_from_measurements(ms: MeasurementSet) -> QuatGek:
    """Quaternion kernel straight from a Scenario II measurement set."""
    return build_quat_gek(build_real_gek(ms), ms.plane_components())


def apply_mask(gek: "RealGek | QuatGek", mask: np.ndarray):  # private; traced by name
    """The one masking step: `(k, mask)`, the kernel's entries zeroed where
    the mask hides them (an ndarray or a `QuaternionMatrix`, never a kernel
    type, so no solver takes it) and the mask as a new frozen bool array.
    The mask is bool or integer (nonzero is observed), of the kernel's shape,
    symmetric, with an observed diagonal, else `AsymmetricMask`."""
    mask = np.asarray(mask)
    if mask.dtype.kind not in "biu":  # a str or float mask would cast silently
        raise AsymmetricMask(f"mask must be bool or integer, got {mask.dtype}")
    mask = mask.astype(bool)  # a copy, so the caller's mask stays writeable
    if mask.shape != (gek.m, gek.m):  # else np.where broadcasts or fails untyped
        raise AsymmetricMask(f"mask shape {mask.shape} does not match M={gek.m}")
    if not _mirrors(mask):
        raise AsymmetricMask("observation mask must be symmetric")
    if not mask.diagonal().all():
        raise AsymmetricMask("diagonal entries must be observed")
    mask.setflags(write=False)
    if isinstance(gek, RealGek):
        return np.where(mask, gek.k, 0.0), mask
    a, b = np.where(mask, gek.k.a, 0.0), np.where(mask, gek.k.b, 0.0)
    return QuaternionMatrix(a, b), mask
