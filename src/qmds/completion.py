"""Low-rank completion of partially observed kernels.

An alternating projection: overwrite observed entries with their data,
replace the iterate by its best rank-r approximation, repeat. The distance
between the data-consistent iterate and its low-rank approximation never
increases, and the returned matrix carries the observed entries verbatim
(the data constraint is re-imposed after the last truncation).

Every truncation is a Hermitian eigenproblem on an operator op. A
Hermitian iterate under a symmetric mask (the real kernel, and the first
complex half of the quaternion kernel) is its own op: it keeps its r
eigenpairs of largest |lambda|, rebuilt as V Theta V^H and symmetrized, so
every iterate is Hermitian to the bit. Any other iterate x takes
op = x^H x, whose r leading eigenvectors V_r are right singular vectors of
x, and keeps (x V_r) V_r^H. Both are the best rank-r approximation. The
Gram route squares sigma_1 / sigma_r, which costs nothing on the
antisymmetric second half of the quaternion kernel: its top two singular
values are an equal pair.

The iterate moves little between sweeps, so each sweep's truncation starts
from the bases the last few sweeps found (the previous sweep's r + 2
leading vectors and the r leading vectors of the three before it) and
refines them without a full factorization:

1. Rayleigh-Ritz of op on the span of those bases, which holds their
   linear extrapolation along the iterate's path.
2. If that is not certified: one shift-and-invert solve of op per wanted
   pair, just off its Ritz value, then Rayleigh-Ritz on the Ritz basis plus
   the solves. At most two solves run.

A refined truncation is used only under a certificate. Let res be the Ritz
residual ||op V_r - V_r Theta_r||_F, s_r the r-th Ritz value by magnitude,
and b an upper bound on |lambda_{r+1}(op)|. The certificate is

    res < 1e-13 (s_r - b).

By the Davis-Kahan theorem, the angle between the found and the exact
rank-r eigenspaces of op is then below 1e-13, so the truncation is the same
projection a dense factorization gives, up to rounding. The bound b is the
smaller of two bounds. One is the Weyl chain b_prev + ||op - op_prev||_F.
The other is the Frobenius tail sqrt(||op||_F^2 - sum_{i != r+1} s_i^2) over
all Ritz values; it holds because each Ritz value is at most the singular
value of op of the same index. Without a certificate, and on the first
sweep, one dense `eigh` of op gives the truncation, resets the basis and
sets b to the exact |lambda_{r+1}(op)|.

The real kernel completes at rank 3. The quaternion kernel is completed
through its Cayley-Dickson pair: each complex half of a rank-1 quaternion
kernel has rank at most 2, so both halves complete at rank 2. The first
half comes back Hermitian to the bit; the second is antisymmetrized, which
makes the merged kernel Hermitian.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    AsymmetricMask,
    NonConvergenceWarning,
    OutOfRange,
    RankDeficient,
    ShapeMismatch,
)
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

# Bases from this many sweeps span the first Rayleigh-Ritz space; solves
# per sweep before the dense fallback; the subspace angle to certify.
_HISTORY = 4
_WARM_SOLVES = 2
_CERTIFIED_ANGLE = 1e-13


@dataclass(frozen=True)
class CompletionResult:
    """Completed matrix plus how the iteration went."""

    matrix: np.ndarray
    iterations: int
    converged: bool
    rel_change: float


@dataclass(frozen=True)
class _Warm:
    """What one sweep's truncation hands the next: rank + 2 orthonormal
    leading eigenvectors of `op`, an upper bound on |lambda_{rank+1}(op)|,
    and the `rank` leading vectors of earlier sweeps, most recent first."""

    basis: np.ndarray
    op: np.ndarray
    bound: float
    earlier: tuple[np.ndarray, ...] = ()


def _by_magnitude(theta: np.ndarray, vectors: np.ndarray):
    order = np.argsort(-np.abs(theta), kind="stable")
    return theta[order], vectors[:, order]


def _hermitian_low(v: np.ndarray, theta: np.ndarray) -> np.ndarray:
    low = (v * theta) @ v.conj().T
    return (low + low.conj().T) / 2


def _dense(op: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray, _Warm]:
    """The `rank` leading eigenpairs of `op` from a full factorization, and
    the warm state they start."""
    theta, v = _by_magnitude(*np.linalg.eigh(op))
    bound = float(abs(theta[rank])) if rank < theta.size else 0.0
    return v[:, :rank], theta[:rank], _Warm(v[:, : rank + 2], op, bound)


def _rayleigh_ritz(
    op: np.ndarray, q: np.ndarray, rank: int, warm: _Warm
) -> tuple[bool, np.ndarray, np.ndarray, _Warm]:
    """Whether the `rank` leading Ritz pairs of `op` on the orthonormal
    columns of `q` are certified, the pairs, and the next warm state."""
    opq = op @ q
    # eigh reads one triangle of the projected matrix, so no mirroring
    theta, w = _by_magnitude(*np.linalg.eigh(q.conj().T @ opq))
    s, v = np.abs(theta), q @ w
    res = np.linalg.norm(opq @ w[:, :rank] - v[:, :rank] * theta[:rank])
    # |lambda_i(op)| >= s_i for every i, so all other Ritz values come off
    # the Frobenius norm in a bound on |lambda_{rank+1}(op)|.
    tail = np.sqrt(max(np.vdot(op, op).real - np.sum(s**2) + s[rank] ** 2, 0.0))
    moved = 0.0 if warm.op is op else np.linalg.norm(op - warm.op)
    bound = float(min(warm.bound + moved, tail))
    nxt = replace(warm, basis=v[:, : rank + 2], op=op, bound=bound)
    certified = res < _CERTIFIED_ANGLE * (s[rank - 1] - bound)
    return certified, v[:, :rank], theta[:rank], nxt


def _leading(
    op: np.ndarray, rank: int, warm: _Warm | None
) -> tuple[np.ndarray, np.ndarray, _Warm]:
    """The `rank` leading eigenpairs of `op`, refined from the previous
    sweeps' `warm` state when there is one, and the state to hand on."""
    if warm is None or 2 * rank + 2 >= len(op):
        return _dense(op, rank)  # first sweep, or no room to save
    bases = (warm.basis, *warm.earlier)
    warm = replace(warm, earlier=tuple(b[:, :rank] for b in bases[: _HISTORY - 1]))
    q, _ = np.linalg.qr(np.hstack(bases))
    for solves in range(_WARM_SOLVES + 1):
        certified, v, theta, warm = _rayleigh_ritz(op, q, rank, warm)
        if certified:
            return v, theta, warm
        if solves == _WARM_SOLVES or not abs(theta[-1]) > warm.bound:
            break
        # off the Ritz values by 2^-40 of the largest, so no LU is exactly singular
        shifted = np.repeat(op[None], rank, axis=0)
        diagonal = np.arange(len(op))
        shifted[:, diagonal, diagonal] -= (theta + 2.0**-40 * abs(theta[0]))[:, None]
        try:
            z = np.linalg.solve(shifted, warm.basis[:, :rank].T[:, :, None])
        except np.linalg.LinAlgError:
            break  # a shift equal to an eigenvalue: nothing left to refine
        q, _ = np.linalg.qr(np.hstack([warm.basis, z[:, :, 0].T]))
    v, theta, dense = _dense(op, rank)
    return v, theta, replace(dense, earlier=warm.earlier)


def _truncate(
    x: np.ndarray, rank: int, hermitian: bool, warm: _Warm | None
) -> tuple[np.ndarray, _Warm]:
    """One sweep's best rank-`rank` approximation of `x`, and the next state."""
    op = x if hermitian else x.conj().T @ x
    v, theta, warm = _leading(op, rank, warm)
    if hermitian:
        return _hermitian_low(v, theta), warm
    return (x @ v) @ v.conj().T, warm


def complete_lowrank(k: np.ndarray, mask: np.ndarray, rank: int) -> CompletionResult:
    """Fill unobserved entries of a real or complex matrix at fixed rank.

    Raises `RankDeficient` before the first sweep when the observed real
    values are fewer than the rank-r model's degrees of freedom. For a
    Hermitian input that is the observed diagonal plus the observed entries
    above it (twice when complex) against r n - r(r-1)/2, or 2 r n - r^2
    when complex; for any other input, every observed entry against
    r(m + n - r), both doubled when complex.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != k.shape:
        raise AsymmetricMask("mask shape does not match the matrix")
    if rank < 1:
        raise ShapeMismatch("rank must be at least 1")
    if not np.isfinite(k[mask]).all():
        raise OutOfRange("observed entries must be finite")
    if mask.all():
        return CompletionResult(k.copy(), 0, True, 0.0)

    data = np.where(mask, k, 0)
    hermitian = np.array_equal(mask, mask.T) and np.array_equal(data, data.conj().T)
    c = 2 if np.iscomplexobj(k) else 1
    if hermitian:
        n = len(k)
        observed = mask.diagonal().sum() + c * np.triu(mask, 1).sum()
        dof = 2 * rank * n - rank**2 if c == 2 else rank * n - rank * (rank - 1) // 2
    else:
        observed = c * mask.sum()
        dof = c * rank * (sum(k.shape) - rank)
    if observed < dof:
        raise RankDeficient(f"{observed} observed real values cannot fix the "
                            f"{dof} degrees of freedom of a rank-{rank} completion")
    x = data.copy()
    warm = None
    gap = np.inf  # ||x - low||_F, the monotone quantity
    rel_change = np.inf
    it = 0
    for it in range(1, _MAX_SWEEPS + 1):
        new_low, warm = _truncate(x, rank, hermitian, warm)
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
    """Complete a masked real kernel at rank 3. Its iterates are symmetric
    to the bit, so no symmetrization step follows."""
    if gek.mask is None:
        return gek, CompletionResult(gek.k, 0, True, 0.0)
    res = complete_lowrank(gek.k, gek.mask, REAL_KERNEL_RANK)
    return RealGek(res.matrix), res


def complete_quat_gek(gek: QuatGek) -> tuple[QuatGek, dict]:
    """Complete a masked quaternion kernel through its complex halves."""
    if gek.mask is None:
        return gek, {"iterations": 0, "converged": True}
    res_a = complete_lowrank(gek.k.a, gek.mask, SPLIT_RANK)
    res_b = complete_lowrank(gek.k.b, gek.mask, SPLIT_RANK)
    b = res_b.matrix
    k = QuaternionMatrix._adopt(res_a.matrix, (b - b.T) / 2)
    info = {
        "iterations": max(res_a.iterations, res_b.iterations),
        "converged": res_a.converged and res_b.converged,
    }
    return QuatGek(k), info
