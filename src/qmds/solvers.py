"""Localization solvers operating on Gram edge kernels.

Four algorithms share one output contract (target coordinates plus a
diagnostics dict):

* `smds` factors the real kernel into edge vectors (top three eigenpairs),
  inverts the incidence relation with the anchors pinned, and aligns the
  result to the anchors with a similarity Procrustes fit.
* `qd_smds` does the same through the rank-1 quaternion kernel: the dominant
  eigenpair gives the quaternion edge vector up to a right unit-quaternion
  factor, which is resolved against the known anchor-anchor edges before
  the real, i, and j components are read off as coordinates.
* `qd_mrc_smds` is closed-form: the cross block of the quaternion kernel,
  combined with the known anchor edge vector, estimates the anchor-target
  edges directly, and averaging over the anchors yields target coordinates
  in absolute position with no eigensolve, inversion, or alignment.
* `qd_mrc_smds_iterative` adds fixed-point sweeps on transposed views of
  the kernel's target block before the same averaging step.

Factorization-based solvers recover geometry only up to an orthogonal
transform, and a pseudo-inverse step does not restore it, so the kernel
estimates are aligned on the anchor-anchor edges first and the final
coordinates are aligned on the anchors; both alignments permit reflections.

Kernels must be complete: run the completion module first when entries are
masked. A kernel with a non-finite entry is rejected with `OutOfRange`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AmbiguityResolutionFailure,
    DegenerateAnchors,
    DimensionMismatch,
    OutOfRange,
    RankDeficient,
    ShapeMismatch,
    SingularSystem,
    ZeroAnchorEdges,
)
from .gek import QuatGek, RealGek, build_quat_gek, build_real_gek
from .measurement import MeasurementSet
from .network import StructureMatrices
from .quat import QuaternionMatrix, dominant_eigpair, embed_r3, r3_components

__all__ = [
    "Estimate",
    "smds",
    "qd_smds",
    "qd_mrc_smds",
    "qd_mrc_smds_iterative",
    "scenario_one_pipeline",
    "resolve_edge_ambiguity",
    "anchored_inversion",
    "procrustes_align",
]


@dataclass(frozen=True)
class Estimate:
    """Estimated target coordinates (N_T, 3) plus solver diagnostics."""

    targets: np.ndarray
    diagnostics: dict

    def __post_init__(self):
        self.targets.setflags(write=False)


def _require_complete(gek: "RealGek | QuatGek") -> None:
    if gek.mask is not None and not gek.mask.all():
        raise ShapeMismatch("kernel carries unobserved entries; complete it first")
    parts = (gek.k,) if isinstance(gek, RealGek) else (gek.k.a, gek.k.b)
    if not all(np.isfinite(part).all() for part in parts):
        raise OutOfRange("kernel holds non-finite entries")


def _anchor_edges(anchors: np.ndarray, structure: StructureMatrices) -> np.ndarray:
    """Known anchor-anchor edge vectors, the first n_aa rows of the edges."""
    return structure.c[:structure.n_aa, :structure.n_anchors] @ anchors


# ---- shared plumbing ----


@lru_cache(maxsize=16)
def _inversion_operator(structure: StructureMatrices) -> np.ndarray:
    """Read-only pseudo-inverse of the stacked system [I 0; C], rank-checked."""
    n = structure.c.shape[1]
    stacked = np.vstack([np.eye(structure.n_anchors, n), structure.c])
    if (rank := np.linalg.matrix_rank(stacked)) < n:
        raise SingularSystem(f"stacked system rank {rank} < {n} unknowns")
    op = np.linalg.pinv(stacked)
    op.setflags(write=False)
    return op


def anchored_inversion(
    v_hat: np.ndarray, anchors: np.ndarray, structure: StructureMatrices
) -> np.ndarray:
    """Recover all node positions from edge vectors with anchors pinned.

    Solves the stacked least-squares system that places each anchor at its
    known position and each edge difference at its estimated vector. The
    stack has full column rank whenever the incidence rows connect every
    target to an anchor, so the solution is unique; it is applied through
    the stack's pseudo-inverse, computed once per structure.
    """
    if (v_hat.shape, anchors.shape) != ((structure.c.shape[0], 3),
                                        (structure.n_anchors, 3)):
        raise DimensionMismatch("edges or anchors do not match the structure")
    return _inversion_operator(structure) @ np.vstack([anchors, v_hat])


def procrustes_align(
    x_hat: np.ndarray, anchors: np.ndarray
) -> tuple[np.ndarray, dict]:
    """Similarity transform (scale, orthogonal map, shift) fitted on anchors.

    The transform minimizing the summed squared misfit of the leading rows
    of `x_hat` against the anchors is applied to every row. Reflections are
    allowed. Needs at least four anchors that span all three dimensions.
    """
    anchors = np.asarray(anchors, dtype=float)
    n_a = anchors.shape[0]
    if n_a < 4:
        raise DegenerateAnchors("similarity fit needs at least 4 anchors")

    b = anchors - anchors.mean(axis=0)
    sv_b = np.linalg.svd(b, compute_uv=False)
    if sv_b[0] == 0 or sv_b[2] / sv_b[0] < 1e-9:
        raise DegenerateAnchors("anchors are coincident or coplanar")

    a_full_mean = x_hat[:n_a].mean(axis=0)
    a = x_hat[:n_a] - a_full_mean
    na = float(np.sum(a**2))
    if na == 0:
        raise DegenerateAnchors("estimated anchor images coincide")

    u, sv, vt = np.linalg.svd(a.T @ b)
    rot = u @ vt
    scale = float(np.sum(sv)) / na
    shift = anchors.mean(axis=0) - scale * a_full_mean @ rot
    aligned = scale * x_hat @ rot + shift
    rmse = float(
        np.sqrt(np.mean(np.sum((aligned[:n_a] - anchors) ** 2, axis=1)))
    )
    info = {"scale": scale, "rotation": rot, "translation": shift, "anchor_rmse": rmse}
    return aligned, info


def _align_edges(v_hat: np.ndarray, v_known: np.ndarray) -> np.ndarray:
    """Rotate/reflect estimated edge vectors onto the known anchor edges.

    The kernel determines edge vectors only up to a global orthogonal
    transform; fitting it on the leading anchor-anchor rows fixes the frame
    before the anchored inversion.
    """
    u, _, vt = np.linalg.svd(v_hat[:len(v_known)].T @ v_known)
    return v_hat @ (u @ vt)


def resolve_edge_ambiguity(
    nu_hat: QuaternionMatrix, nu_aa_known: QuaternionMatrix
) -> tuple[QuaternionMatrix, dict]:
    """Fix the right unit-quaternion factor of an estimated edge vector.

    An eigenvector is defined only up to a right unit-quaternion factor.
    The factor g minimizing the misfit of the leading anchor-anchor entries
    against their known values is s / |s| for the correlation
    s = sum conj(nu_hat_m) nu_m over those entries; the whole vector is
    right-multiplied by it. Everything is computed on the complex halves:
    with nu_hat = A + B j and g = g_a + g_b j,
    nu_hat g = (A g_a - B conj(g_b)) + (A g_b + B conj(g_a)) j.
    `info["phase"]` holds g as a read-only (w, x, y, z) array.
    """
    n_aa = nu_aa_known.shape[0]
    ha, hb = nu_hat.a[:n_aa], nu_hat.b[:n_aa]
    ka, kb = nu_aa_known.a, nu_aa_known.b
    s_a = np.sum(np.conj(ha) * ka + hb * np.conj(kb))
    s_b = np.sum(np.conj(ha) * kb - hb * np.conj(ka))
    w, x, y, z = float(s_a.real), float(s_a.imag), float(s_b.real), float(s_b.imag)
    size = math.sqrt(w**2 + x**2 + y**2 + z**2)
    floor = 1e-12 * QuaternionMatrix._adopt(ha, hb).norm() * nu_aa_known.norm()
    if size <= floor:
        raise AmbiguityResolutionFailure(
            "anchor edges give no usable phase reference"
        )
    phase = np.array([w, x, y, z]) / size
    phase.setflags(write=False)
    g_a, g_b = complex(*phase[:2]), complex(*phase[2:])
    a, b = nu_hat.a, nu_hat.b
    corrected = QuaternionMatrix._adopt(a * g_a - b * np.conj(g_b),
                                        a * g_b + b * np.conj(g_a))
    misfit = QuaternionMatrix._adopt(corrected.a[:n_aa] - ka, corrected.b[:n_aa] - kb)
    denom = max(nu_aa_known.norm(), np.finfo(float).tiny)
    return corrected, {"phase": phase, "phase_residual": misfit.norm() / denom}


# ---- the four algorithms ----


def smds(kr: RealGek, anchors: np.ndarray, structure: StructureMatrices) -> Estimate:
    """Edge-kernel multidimensional scaling on the real kernel."""
    _require_complete(kr)
    anchors = np.asarray(anchors, dtype=float)
    sym = (kr.k + kr.k.T) / 2
    lam, u = np.linalg.eigh(sym)
    if np.sum(lam > 0) < 3:
        raise RankDeficient(
            "kernel has fewer than 3 positive eigenvalues; no 3D embedding"
        )
    # top three by magnitude; noise can push trailing eigenvalues negative,
    # in which case the factor column collapses to zero rather than erroring
    order = np.argsort(-np.abs(lam), kind="stable")[:3]
    lam3 = lam[order]
    v_hat = u[:, order] * np.sqrt(np.maximum(lam3, 0.0))

    v_known = _anchor_edges(anchors, structure)
    v_hat = _align_edges(v_hat, v_known)

    x_hat = anchored_inversion(v_hat, anchors, structure)
    aligned, fit = procrustes_align(x_hat, anchors)
    diag = {
        "eigenvalues": lam3,
        "edge_residual": float(np.linalg.norm(v_hat[:structure.n_aa] - v_known)),
        "procrustes": fit,
    }
    return Estimate(aligned[anchors.shape[0]:], diag)


def qd_smds(kq: QuatGek, anchors: np.ndarray, structure: StructureMatrices) -> Estimate:
    """Quaternion-domain scaling on the rank-1 quaternion kernel."""
    _require_complete(kq)
    anchors = np.asarray(anchors, dtype=float)
    lam, u_vec = dominant_eigpair(kq.k)
    nu_hat = QuaternionMatrix._adopt(u_vec.a * np.sqrt(lam), u_vec.b * np.sqrt(lam))

    nu_known = embed_r3(_anchor_edges(anchors, structure))
    nu_hat, phase_info = resolve_edge_ambiguity(nu_hat, nu_known)

    v_hat = r3_components(nu_hat)
    x_hat = anchored_inversion(v_hat, anchors, structure)
    aligned, fit = procrustes_align(x_hat, anchors)
    k_abs = np.abs(nu_hat.z)
    diag = {
        "top_eigenvalue": lam,
        "k_component_max": float(k_abs.max(initial=0.0)),
        "procrustes": fit,
        **phase_info,
    }
    return Estimate(aligned[anchors.shape[0]:], diag)


def _kh_rows(a: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """conj(K^H u) for K = A + B j and the rows v = conj([u1; u2]) of u = u1 + u2 j:
    [P0 + conj(Q1); P1 - conj(Q0)] with P = v A, Q = v B, since K^H u =
    (A^H u1 + B^T conj(u2)) + (A^H u2 - B^T conj(u1)) j. No adjoint is formed."""
    return v @ a + (v @ b)[::-1].conj() * ((1.0,), (-1.0,))


def _mrc_core(
    kq: QuatGek,
    anchors: np.ndarray,
    structure: StructureMatrices,
    tau_max: int,
) -> Estimate:
    _require_complete(kq)
    anchors = np.asarray(anchors, dtype=float)
    if kq.m != (n_edges := structure.c.shape[0]):
        raise DimensionMismatch(f"kernel size {kq.m} does not match {n_edges} edges")
    # Views of the halves' cross block K2 (anchor-anchor rows) and target block K3.
    n_aa, a, b = structure.n_aa, kq.k.a, kq.k.b
    k2 = a[:n_aa, n_aa:], b[:n_aa, n_aa:]
    k3 = a[n_aa:, n_aa:], b[n_aa:, n_aa:]

    nu_aa = embed_r3(_anchor_edges(anchors, structure))
    aa_energy = nu_aa.norm() ** 2
    if aa_energy == 0:
        raise ZeroAnchorEdges("anchor-anchor edges are all zero length")

    # The edge estimate u = u1 + u2 j is held as v = conj([u1; u2]), |v| = |u|.
    drive = _kh_rows(*k2, np.conj((nu_aa.a, nu_aa.b)))
    states = np.empty((tau_max + 1, *drive.shape), dtype=complex)
    states[0] = v = drive / aa_energy
    for tau in range(1, tau_max + 1):
        states[tau] = v = (drive + _kh_rows(*k3, v)) / (aa_energy + np.vdot(v, v).real)
    residuals = np.linalg.norm(np.diff(states, axis=0), axis=(1, 2)) / np.maximum(
        np.linalg.norm(states[:-1], axis=(1, 2)), np.finfo(float).tiny)

    # Edge i * n_t + t (anchor i to target t) has coordinates (Re u1, Im u1,
    # Re u2) = (Re v0, -Im v0, Re v1); the anchors' estimates are averaged.
    halves = states.reshape(tau_max + 1, 2, structure.n_anchors, structure.n_targets)
    edges = np.stack((halves[:, 0].real, -halves[:, 0].imag, halves[:, 1].real), -1)
    targets = (anchors[:, None, :] - edges).mean(axis=1)
    targets.setflags(write=False)

    diag = {"tau": tau_max, "nu_residuals": residuals.tolist(),
            "trajectory": targets}
    return Estimate(targets[-1], diag)


def qd_mrc_smds(
    kq: QuatGek, anchors: np.ndarray, structure: StructureMatrices
) -> Estimate:
    """Closed-form target recovery from the kernel's cross block."""
    return _mrc_core(kq, anchors, structure, tau_max=0)


def qd_mrc_smds_iterative(
    kq: QuatGek,
    anchors: np.ndarray,
    structure: StructureMatrices,
    tau_max: int = 1,
) -> Estimate:
    """Closed-form recovery with a fixed-point refinement of the edges.

    `diagnostics["trajectory"]` is the read-only (tau_max + 1, N_T, 3) array
    of target estimates after every sweep 0..tau_max.
    """
    if tau_max < 0:
        raise DimensionMismatch("tau_max must be nonnegative")
    return _mrc_core(kq, anchors, structure, tau_max)


def _quat_solve(
    kq: QuatGek, anchors: np.ndarray, structure: StructureMatrices,
    algorithm: str, tau_max: int,
) -> Estimate:
    """Run the quaternion-domain solver named `algorithm`: qdsmds, mrc or
    mrciter, the codes the harness uses."""
    if algorithm == "qdsmds":
        return qd_smds(kq, anchors, structure)
    if algorithm == "mrc":
        return qd_mrc_smds(kq, anchors, structure)
    if algorithm == "mrciter":
        return qd_mrc_smds_iterative(kq, anchors, structure, tau_max)
    raise ShapeMismatch(f"unknown quaternion-domain algorithm {algorithm!r}")


# ---- Scenario I ----


def _stage_two_kernel(
    ms: MeasurementSet, kr: RealGek, anchors: np.ndarray, targets: np.ndarray,
    structure: StructureMatrices,
) -> QuatGek:
    """Scenario I quaternion kernel: the measured real kernel `kr` plus plane
    parts from the stage-one edge vectors, rescaled to the measured lengths.
    A zero-length estimated edge gets zero plane components."""
    v = structure.c @ np.vstack([anchors, targets])
    n = np.linalg.norm(v, axis=1)
    v *= np.divide(ms.distances, n, out=np.zeros_like(n), where=n > 0)[:, None]
    a, b, c = v.T
    return build_quat_gek(kr, ((a, b), (a, c), (b, c)))


def scenario_one_pipeline(
    ms: MeasurementSet,
    anchors: np.ndarray,
    structure: StructureMatrices,
    algorithm: str = "qdsmds",
    tau_max: int = 1,
) -> Estimate:
    """Two-stage solver for distance-and-pair-angle-only measurements.

    Stage one runs `smds` on the real kernel. Stage two treats the resulting
    geometry (known anchors, estimated targets) as a direction source: each
    estimated edge vector, rescaled to its measured length, supplies the
    in-plane components of the quaternion kernel, whose real part is the
    same measured real kernel. That kernel feeds the requested
    quaternion-domain solver. It comes from the private `_stage_two_kernel`,
    which the Monte-Carlo harness also calls so that one stage-one fix
    serves every quaternion solver of a trial.
    """
    if ms.has_angles:
        raise ShapeMismatch("pipeline expects a distance-and-pair-angle set")
    anchors = np.asarray(anchors, dtype=float)
    kr = build_real_gek(ms)
    stage1 = smds(kr, anchors, structure)
    kq = _stage_two_kernel(ms, kr, anchors, stage1.targets, structure)
    final = _quat_solve(kq, anchors, structure, algorithm, tau_max)
    return Estimate(final.targets, {**final.diagnostics, "stage1": stage1})
