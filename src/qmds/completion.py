"""Low-rank completion of partially observed kernels.

An alternating projection: overwrite observed entries with their data,
replace the iterate by its best rank-r approximation, repeat. The distance
between the data-consistent iterate and its low-rank approximation never
increases, and the returned matrix carries the observed entries verbatim
(the data constraint is re-imposed after the last truncation).

Every truncation is a Hermitian eigenproblem on an operator op. A
Hermitian iterate (the real kernel, and the first complex half of the
quaternion kernel) is its own op: it keeps its r
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
projection a dense factorization gives, up to rounding. The bound b is a
Weyl chain: each sweep adds ||op - op_prev||_F to the last sweep's bound.
For a Hermitian iterate that is the sweep-to-sweep change of the iterate,
which the loop measures anyway. Without a certificate, and on the first
sweep, one dense `eigh` of op gives the truncation, resets the basis and
resets b to the exact |lambda_{r+1}(op)|.

The real kernel completes at rank 3. The quaternion kernel is completed
through its Cayley-Dickson pair: each complex half of a rank-1 quaternion
kernel has rank at most 2, so both halves complete at rank 2. The first
half comes back Hermitian to the bit; the second is antisymmetrized, which
makes the merged kernel Hermitian.

The kernel types guarantee a square, finite, Hermitian kernel. Each wrapper
runs `gek.apply_mask` once, to check the mask and zero-fill what it hides,
then checks that enough real values are observed for the rank-r model.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceWarning, RankDeficient
from .gek import QuatGek, RealGek, apply_mask
from .quat import QuaternionMatrix

__all__ = [
    "CompletionResult",
    "complete_real_gek",
    "complete_quat_gek",
]

# The real kernel's rank, and each complex half's of a rank-1 quaternion kernel.
_REAL_RANK = 3
_SPLIT_RANK = 2

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


def _by_magnitude(theta: np.ndarray, vectors: np.ndarray, count: int | None = None):
    order = np.argsort(-np.abs(theta), kind="stable")[:count]
    return theta[order], vectors[:, order]


class _Truncation:
    """One completion's truncation state, which each sweep updates in place:
    rank + 2 orthonormal leading eigenvectors of the last operator, the
    `rank` leading vectors of earlier sweeps (most recent first), an upper
    bound on |lambda_{rank+1}| of the last operator, and a stack for the
    shifted systems."""

    def __init__(self, n: int, rank: int, dtype):
        self.rank = rank
        self.basis: np.ndarray | None = None
        self.earlier: list[np.ndarray] = []
        self.bound = 0.0
        self.shifted = np.empty((rank, n, n), dtype)

    def dense(self, op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The `rank` leading eigenpairs of `op` from a full factorization;
        resets the basis and the bound."""
        rank = self.rank
        theta, v = _by_magnitude(*np.linalg.eigh(op))
        self.bound = float(abs(theta[rank])) if rank < theta.size else 0.0
        self.basis = v[:, : rank + 2]
        return v[:, :rank], theta[:rank]

    def leading(self, op: np.ndarray, moved: float) -> tuple[np.ndarray, np.ndarray]:
        """The `rank` leading eigenpairs of `op`, refined from the earlier
        sweeps' bases when certified; `moved` bounds ||op - op_prev||_F."""
        rank, n = self.rank, len(op)
        if self.basis is None or 2 * rank + 2 >= n:
            return self.dense(op)  # first sweep, or no room to save
        bases = [self.basis, *self.earlier]
        self.earlier = [b[:, :rank] for b in bases[: _HISTORY - 1]]
        self.bound += moved
        q, _ = np.linalg.qr(np.hstack(bases))
        for solves in range(_WARM_SOLVES + 1):
            opq = op @ q
            # eigh reads one triangle of the projected matrix, so no mirroring
            theta, w = _by_magnitude(*np.linalg.eigh(q.conj().T @ opq))
            v = q @ w
            self.basis = v[:, : rank + 2]
            v, theta = v[:, :rank], theta[:rank]
            res = np.linalg.norm(opq @ w[:, :rank] - v * theta)
            if res < _CERTIFIED_ANGLE * (abs(theta[-1]) - self.bound):
                return v, theta
            if solves == _WARM_SOLVES or not abs(theta[-1]) > self.bound:
                break
            # off the Ritz values by 2^-40 of the largest, so no LU is exactly singular
            self.shifted[:] = op
            diagonal = self.shifted.reshape(rank, -1)[:, :: n + 1]
            diagonal -= (theta + 2.0**-40 * abs(theta[0]))[:, None]
            try:
                z = np.linalg.solve(self.shifted, v.T[:, :, None])
            except np.linalg.LinAlgError:
                break  # a shift equal to an eigenvalue: nothing left to refine
            q, _ = np.linalg.qr(np.hstack([self.basis, z[:, :, 0].T]))
        return self.dense(op)


def _require_identifiable(mask: np.ndarray, rank: int, c: int) -> None:
    """Raise `RankDeficient` unless the diagonal plus c values per observed pair
    (c = 2 when complex) reach r n - r(r-1)/2 real, or 2 r n - r^2 complex."""
    n = len(mask)
    observed = n + c * np.triu(mask, 1).sum()
    dof = 2 * rank * n - rank**2 if c == 2 else rank * n - rank * (rank - 1) // 2
    if observed < dof:
        raise RankDeficient(f"{observed} observed real values cannot fix the "
                            f"{dof} degrees of freedom of a rank-{rank} completion")


def _complete(data: np.ndarray, mask: np.ndarray, rank: int,
              hermitian: bool) -> CompletionResult:
    """Fill the entries the symmetric `mask` hides (zeros in `data`) at fixed
    rank: `hermitian` for a Hermitian `data`, else by the Gram route."""
    x = data  # no sweep writes into an iterate
    state = _Truncation(len(data), rank, np.result_type(data, 1.0))
    step = np.inf  # ||x - x_prev||_F
    gram = 0.0  # the Gram route's previous x^H x
    gap = np.inf  # ||x - low||_F, the monotone quantity
    rel_change = np.inf
    it = 0
    for it in range(1, _MAX_SWEEPS + 1):
        if hermitian:
            v, theta = state.leading(x, step)
            low = (v * theta) @ v.conj().T
            low = (low + low.conj().T) / 2
        else:
            gram, previous = x.conj().T @ x, gram
            v, theta = state.leading(gram, np.linalg.norm(gram - previous))
            low = (x @ v) @ v.conj().T
        new_x = np.where(mask, data, low)
        new_gap = float(np.linalg.norm(new_x - low))
        if not new_gap <= gap * (1 + 1e-9) + 1e-12:
            # A true rank projection cannot raise the gap; this one did.
            raise RankDeficient(
                f"completion gap rose from {gap:.6e} to {new_gap:.6e} at sweep {it}"
            )
        step = float(np.linalg.norm(new_x - x))
        rel_change = float(step / max(np.linalg.norm(x), np.finfo(float).tiny))
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


def complete_real_gek(kr: RealGek,
                      mask: np.ndarray) -> tuple[RealGek, CompletionResult]:
    """Complete `kr` where `mask` hides it at rank 3; a full mask returns `kr`."""
    data, mask = apply_mask(kr, mask)
    if mask.all():
        return kr, CompletionResult(kr.k, 0, True, 0.0)
    _require_identifiable(mask, _REAL_RANK, 1)
    res = _complete(data, mask, _REAL_RANK, True)
    return RealGek(res.matrix), res


def complete_quat_gek(kq: QuatGek, mask: np.ndarray) -> tuple[QuatGek, dict]:
    """Complete `kq` where `mask` hides it through its complex halves; a full
    mask returns `kq`. One check covers both halves: the second's count,
    2 |mask| against 2 r (2n - r), is the first's inequality."""
    data, mask = apply_mask(kq, mask)
    if mask.all():
        return kq, {"iterations": 0, "converged": True}
    _require_identifiable(mask, _SPLIT_RANK, 2)
    res_a = _complete(data.a, mask, _SPLIT_RANK, True)
    res_b = _complete(data.b, mask, _SPLIT_RANK, False)
    b = res_b.matrix
    k = QuaternionMatrix(res_a.matrix, (b - b.T) / 2)
    info = {
        "iterations": max(res_a.iterations, res_b.iterations),
        "converged": res_a.converged and res_b.converged,
    }
    return QuatGek(k), info
