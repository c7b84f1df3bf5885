"""Gram edge kernels built from measured distances and angles.

The real kernel holds d_m d_p cos(alpha_mp): every pairwise inner product of
edge vectors, so it equals V V^T when measurements are exact and has rank 3.
The quaternion kernel additionally encodes the three plane-projected outer
products in its imaginary parts:

    K[m, p] = d_m d_p cos(alpha_mp)
              - i d_m^xy d_p^xy sin(phi_p^xy - phi_m^xy)
              - j d_m^xz d_p^xz sin(phi_p^xz - phi_m^xz)
              - k d_m^yz d_p^yz sin(phi_p^yz - phi_m^yz).

Exact inputs make it the rank-1 outer product nu nu^H of the quaternion edge
embedding nu_m = a_m + b_m i + c_m j (k component fixed at zero), with top
eigenvalue equal to the summed squared distances. Entries carry m^2.

Only the upper triangle is evaluated from measurements; the lower triangle
is mirrored by conjugation, never recomputed, so both kernels are Hermitian
to the bit even under noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricMask, DimensionMismatch, ShapeMismatch
from .measurement import MeasurementSet
from .network import StructureMatrices
from .quat import QuaternionMatrix

__all__ = [
    "RealGek",
    "QuatGek",
    "build_real_gek",
    "build_quat_gek",
    "quat_gek_from_measurements",
    "extract_blocks",
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
    k = np.outer(d, d) * np.cos(ms.adoa)
    iu = np.triu_indices(ms.m, 1)
    k[iu[1], iu[0]] = k[iu]
    return RealGek(k)


def build_quat_gek(
    distances: np.ndarray,
    adoa: np.ndarray,
    azimuths: tuple[np.ndarray, np.ndarray, np.ndarray],
    plane_distances: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> QuatGek:
    """Assemble the quaternion kernel from per-edge measurements.

    `azimuths` and `plane_distances` are (xy, xz, yz) triples. The angle
    source may be measured (Scenario II) or estimated from a first
    positioning pass; the kernel does not care.
    """
    d = np.asarray(distances, dtype=float)
    m = d.shape[0]
    if adoa.shape != (m, m):
        raise ShapeMismatch("pair-angle matrix does not match the edge count")

    real = np.outer(d, d) * np.cos(adoa)
    imag = []
    for phi, dp in zip(azimuths, plane_distances):
        delta = phi[None, :] - phi[:, None]  # phi_p - phi_m
        imag.append(-np.outer(dp, dp) * np.sin(delta))

    ka = real + 1j * imag[0]
    kb = imag[1] + 1j * imag[2]
    iu = np.triu_indices(m, 1)
    ka[iu[1], iu[0]] = np.conj(ka[iu])
    kb[iu[1], iu[0]] = -kb[iu]
    return QuatGek(QuaternionMatrix(ka, kb))


def quat_gek_from_measurements(ms: MeasurementSet) -> QuatGek:
    """Quaternion kernel straight from a Scenario II measurement set."""
    if not ms.has_angles:
        raise ShapeMismatch(
            "measurement set carries no angles; build the kernel from "
            "estimated azimuths and elevations instead"
        )
    return build_quat_gek(
        ms.distances,
        ms.adoa,
        (ms.phi_xy, ms.phi_xz, ms.phi_yz),
        ms.plane_distances(),
    )


def extract_blocks(
    gek: QuatGek, structure: StructureMatrices
) -> tuple[QuaternionMatrix, QuaternionMatrix, QuaternionMatrix]:
    """Split the kernel into anchor-anchor / cross / anchor-target blocks.

    The split follows the structure's edge layout, anchor-anchor block
    first. Returns (K1, K2, K3) where K1 is n_aa x n_aa, K2 is n_aa x n_at,
    and K3 is n_at x n_at.
    """
    n_aa = structure.n_aa
    if gek.m != structure.c.shape[0]:
        raise DimensionMismatch(
            f"kernel size {gek.m} does not match {structure.c.shape[0]} edges"
        )
    k = gek.k
    k1 = QuaternionMatrix(k.a[:n_aa, :n_aa], k.b[:n_aa, :n_aa])
    k2 = QuaternionMatrix(k.a[:n_aa, n_aa:], k.b[:n_aa, n_aa:])
    k3 = QuaternionMatrix(k.a[n_aa:, n_aa:], k.b[n_aa:, n_aa:])
    return k1, k2, k3


def apply_mask(gek: "RealGek | QuatGek", mask: np.ndarray) -> "RealGek | QuatGek":
    """Zero unobserved entries and retain the mask on the kernel."""
    mask = _check_mask(mask, gek.m)
    if isinstance(gek, RealGek):
        return RealGek(np.where(mask, gek.k, 0.0), mask)
    a = np.where(mask, gek.k.a, 0.0)
    b = np.where(mask, gek.k.b, 0.0)
    return QuatGek(QuaternionMatrix(a, b), mask)

