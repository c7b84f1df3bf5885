"""Gram edge kernels built from measured distances and angles.

The real kernel holds d_m d_p cos(alpha_mp): every pairwise inner product of
edge vectors, so it equals V V^T when measurements are exact and has rank 3.
The quaternion kernel adds the three plane-projected cross products in its
imaginary parts:

    K = K_r + i S_xy + j S_xz + k S_yz,    S = v u^T - u v^T,

where (u, v) = d sin(theta) (cos phi, sin phi) are an edge's two in-plane
components. Entrywise that is

    S[m, p] = v_m u_p - u_m v_p = -d_m^xy d_p^xy sin(phi_p^xy - phi_m^xy)

for the xy plane, and likewise for xz and yz. Exact inputs make K the rank-1
outer product nu nu^H of the quaternion edge embedding
nu_m = a_m + b_m i + c_m j (k component fixed at zero), with top eigenvalue
equal to the summed squared distances. Entries carry m^2.

Nothing is mirrored. The real kernel is symmetric because a measurement set
holds an exactly symmetric pair-angle matrix, and each S is antisymmetric
with a zero diagonal in IEEE arithmetic (v_m u_p and u_p v_m round alike),
so both kernels are Hermitian to the bit even under noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricMask, ShapeMismatch
from .measurement import MeasurementSet
from .quat import QuaternionMatrix

__all__ = [
    "RealGek",
    "QuatGek",
    "build_real_gek",
    "build_quat_gek",
    "quat_gek_from_measurements",
    "apply_mask",
]


@dataclass(frozen=True)
class RealGek:
    """Real symmetric kernel with an optional observation mask."""

    k: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self):
        self.k.setflags(write=False)
        if self.mask is not None:
            self.mask.setflags(write=False)

    @property
    def m(self) -> int:
        return self.k.shape[0]


@dataclass(frozen=True)
class QuatGek:
    """Hermitian quaternion kernel with an optional observation mask."""

    k: QuaternionMatrix
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.mask is not None:
            self.mask.setflags(write=False)

    @property
    def m(self) -> int:
        return self.k.shape[0]


def _check_mask(mask: np.ndarray, m: int) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (m, m):
        raise AsymmetricMask(f"mask shape {mask.shape} does not match M={m}")
    if not np.array_equal(mask, mask.T):
        raise AsymmetricMask("observation mask must be symmetric")
    if not np.all(np.diag(mask)):
        raise AsymmetricMask("diagonal entries must be observed")
    return mask


def build_real_gek(ms: MeasurementSet) -> RealGek:
    """Assemble the real kernel from measured distances and pair angles."""
    d = ms.distances
    return RealGek(np.outer(d, d) * np.cos(ms.adoa))


def build_quat_gek(
    kr: RealGek, planes: tuple[tuple[np.ndarray, np.ndarray], ...]
) -> QuatGek:
    """Quaternion kernel K_r + i S_xy + j S_xz + k S_yz.

    `kr` is the real kernel; `planes` holds the in-plane edge components
    (u, v) of the xy, xz and yz planes, each plane giving S = v u^T - u v^T.
    The components may be measured (Scenario II) or taken from a first
    positioning pass (Scenario I); the kernel does not care.
    """
    if any(u.shape != (kr.m,) or v.shape != (kr.m,) for u, v in planes):
        raise ShapeMismatch("plane components do not match the edge count")
    # Parts go straight into the complex halves, which are adopted uncopied.
    a, b = np.empty((kr.m, kr.m), dtype=complex), np.empty((kr.m, kr.m), dtype=complex)
    a.real = kr.k
    for part, (u, v) in zip((a.imag, b.real, b.imag), planes):
        np.multiply.outer(v, u, out=part)
        part -= np.multiply.outer(u, v)
    return QuatGek(QuaternionMatrix._adopt(a, b))


def quat_gek_from_measurements(ms: MeasurementSet) -> QuatGek:
    """Quaternion kernel straight from a Scenario II measurement set."""
    if not ms.has_angles:
        raise ShapeMismatch(
            "measurement set carries no angles; build the kernel from "
            "estimated edge vectors instead"
        )
    return build_quat_gek(build_real_gek(ms), ms.plane_components())


def apply_mask(gek: "RealGek | QuatGek", mask: np.ndarray) -> "RealGek | QuatGek":
    """Zero unobserved entries and retain the mask on the kernel."""
    mask = _check_mask(mask, gek.m)
    if isinstance(gek, RealGek):
        return RealGek(np.where(mask, gek.k, 0.0), mask)
    a = np.where(mask, gek.k.a, 0.0)
    b = np.where(mask, gek.k.b, 0.0)
    return QuatGek(QuaternionMatrix(a, b), mask)

