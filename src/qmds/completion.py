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

from .errors import AsymmetricMask, NonConvergenceWarning, ShapeMismatch
from .gek import QuatGek, RealGek
from .quat import QuaternionMatrix

__all__ = [
    "CompletionConfig",
    "CompletionResult",
    "complete_lowrank",
    "complete_real_gek",
    "complete_quat_gek",
    "REAL_KERNEL_RANK",
    "SPLIT_RANK",
]

REAL_KERNEL_RANK = 3
SPLIT_RANK = 2


@dataclass(frozen=True)
class CompletionConfig:
    """Iteration settings: target rank, step budget, stopping threshold.

    Each step keeps the leading `target_rank` singular triplets unchanged
    (hard thresholding).
    """

    target_rank: int = REAL_KERNEL_RANK
    max_iters: int = 500
    tol: float = 1e-8

    def __post_init__(self):
        if self.target_rank < 1:
            raise ShapeMismatch("target_rank must be at least 1")
        if self.tol <= 0:
            raise ShapeMismatch("tol must be positive")


@dataclass(frozen=True)
class CompletionResult:
    """Completed matrix plus how the iteration went."""

    matrix: np.ndarray
    iterations: int
    converged: bool
    rel_change: float


def complete_lowrank(
    k: np.ndarray, mask: np.ndarray, config: CompletionConfig
) -> CompletionResult:
    """Fill unobserved entries of a real or complex matrix at fixed rank."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != k.shape:
        raise AsymmetricMask("mask shape does not match the matrix")
    if mask.all():
        return CompletionResult(k.copy(), 0, True, 0.0)

    r = config.target_rank
    data = np.where(mask, k, 0)
    x = data.copy()
    low = np.zeros_like(x)
    gap = np.inf  # ||x - low||_F, the monotone quantity
    rel_change = np.inf
    it = 0
    for it in range(1, config.max_iters + 1):
        u, s, vh = np.linalg.svd(x, full_matrices=False)
        new_low = (u[:, :r] * s[:r]) @ vh[:r]
        new_x = np.where(mask, data, new_low)
        new_gap = float(np.linalg.norm(new_x - new_low))
        if gap < np.inf:
            assert new_gap <= gap * (1 + 1e-9) + 1e-12, "objective increased"
        rel_change = float(
            np.linalg.norm(new_x - x) / max(np.linalg.norm(x), np.finfo(float).tiny)
        )
        x, low, gap = new_x, new_low, new_gap
        if rel_change < config.tol:
            return CompletionResult(x, it, True, rel_change)
    warnings.warn(
        f"completion stopped after {config.max_iters} iterations with "
        f"relative change {rel_change:.3e}",
        NonConvergenceWarning,
        stacklevel=2,
    )
    return CompletionResult(x, it, False, rel_change)


def complete_real_gek(
    gek: RealGek, config: CompletionConfig | None = None
) -> tuple[RealGek, CompletionResult]:
    """Complete a masked real kernel at rank 3 and re-symmetrize."""
    if gek.mask is None:
        return gek, CompletionResult(gek.k, 0, True, 0.0)
    config = config or CompletionConfig(target_rank=REAL_KERNEL_RANK)
    res = complete_lowrank(gek.k, gek.mask, config)
    sym = (res.matrix + res.matrix.T) / 2
    return RealGek(sym), res


def complete_quat_gek(
    gek: QuatGek, config: CompletionConfig | None = None
) -> tuple[QuatGek, dict]:
    """Complete a masked quaternion kernel through its complex halves."""
    if gek.mask is None:
        return gek, {"iterations": 0, "converged": True}
    config = config or CompletionConfig(target_rank=SPLIT_RANK)
    res_a = complete_lowrank(gek.k.a, gek.mask, config)
    res_b = complete_lowrank(gek.k.b, gek.mask, config)
    merged = QuaternionMatrix(res_a.matrix, res_b.matrix)
    hermitized = (merged + merged.H) / 2
    info = {
        "iterations": max(res_a.iterations, res_b.iterations),
        "converged": res_a.converged and res_b.converged,
    }
    return QuatGek(hermitized), info
