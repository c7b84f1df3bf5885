"""Low-rank completion of partially observed kernels.

An alternating projection: overwrite observed entries with their data, take
a truncated SVD, repeat. The distance between the data-consistent iterate
and its low-rank approximation never increases, and the returned matrix
always carries the observed entries verbatim (the hard data constraint is
re-imposed after the last truncation step).

The real kernel completes at rank 3. The quaternion kernel is completed
through its Cayley-Dickson pair: each complex half of a rank-1 quaternion
kernel has rank at most 2, so both halves complete at rank 2 and the merged
result is re-Hermitized at the quaternion level (the halves themselves are
not Hermitian: the second one is antisymmetric).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import AsymmetricMask, NonConvergenceWarning, RankDeficient, ShapeMismatch
from .gek import QuatGek, RealGek
from .quat import QuaternionMatrix

__all__ = [
    "CompletionResult",
    "complete_lowrank",
    "complete_real_gek",
    "complete_quat_gek",
    "REAL_KERNEL_RANK",
    "SPLIT_RANK",
]

REAL_KERNEL_RANK = 3
SPLIT_RANK = 2

# Sweep budget, and the relative change between sweeps that counts as done.
_MAX_SWEEPS = 500
_TOL = 1e-8


@dataclass(frozen=True)
class CompletionResult:
    """Completed matrix plus how the iteration went."""

    matrix: np.ndarray
    iterations: int
    converged: bool
    rel_change: float


def _truncate(x: np.ndarray, rank: int) -> np.ndarray:
    """Best rank-`rank` approximation: keep the leading singular triplets."""
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    return (u[:, :rank] * s[:rank]) @ vh[:rank]


def complete_lowrank(k: np.ndarray, mask: np.ndarray, rank: int) -> CompletionResult:
    """Fill unobserved entries of a real or complex matrix at fixed rank."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != k.shape:
        raise AsymmetricMask("mask shape does not match the matrix")
    if rank < 1:
        raise ShapeMismatch("rank must be at least 1")
    if mask.all():
        return CompletionResult(k.copy(), 0, True, 0.0)

    data = np.where(mask, k, 0)
    x = data.copy()
    gap = np.inf  # ||x - low||_F, the monotone quantity
    rel_change = np.inf
    it = 0
    for it in range(1, _MAX_SWEEPS + 1):
        new_low = _truncate(x, rank)
        new_x = np.where(mask, data, new_low)
        new_gap = float(np.linalg.norm(new_x - new_low))
        if not new_gap <= gap * (1 + 1e-9) + 1e-12:
            # A true rank projection cannot raise the gap; this one did.
            raise RankDeficient(
                f"completion gap rose from {gap:.6e} to {new_gap:.6e} at sweep {it}"
            )
        rel_change = float(
            np.linalg.norm(new_x - x) / max(np.linalg.norm(x), np.finfo(float).tiny)
        )
        x, gap = new_x, new_gap
        if rel_change < _TOL:
            return CompletionResult(x, it, True, rel_change)
    warnings.warn(
        f"completion stopped after {_MAX_SWEEPS} iterations with "
        f"relative change {rel_change:.3e}",
        NonConvergenceWarning,
        stacklevel=2,
    )
    return CompletionResult(x, it, False, rel_change)


def complete_real_gek(gek: RealGek) -> tuple[RealGek, CompletionResult]:
    """Complete a masked real kernel at rank 3 and re-symmetrize."""
    if gek.mask is None:
        return gek, CompletionResult(gek.k, 0, True, 0.0)
    res = complete_lowrank(gek.k, gek.mask, REAL_KERNEL_RANK)
    sym = (res.matrix + res.matrix.T) / 2
    return RealGek(sym), res


def complete_quat_gek(gek: QuatGek) -> tuple[QuatGek, dict]:
    """Complete a masked quaternion kernel through its complex halves."""
    if gek.mask is None:
        return gek, {"iterations": 0, "converged": True}
    res_a = complete_lowrank(gek.k.a, gek.mask, SPLIT_RANK)
    res_b = complete_lowrank(gek.k.b, gek.mask, SPLIT_RANK)
    merged = QuaternionMatrix(res_a.matrix, res_b.matrix)
    hermitized = (merged + merged.H) / 2
    info = {
        "iterations": max(res_a.iterations, res_b.iterations),
        "converged": res_a.converged and res_b.converged,
    }
    return QuatGek(hermitized), info
