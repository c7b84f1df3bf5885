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
* `qd_mrc_smds_iterative` refines that edge estimate with a power-iteration
  style update before the same averaging step.

Factorization-based solvers recover geometry only up to an orthogonal
transform, and a pseudo-inverse step does not restore it, so the kernel
estimates are aligned on the anchor-anchor edges first and the final
coordinates are aligned on the anchors; both alignments permit reflections.

Kernels must be complete: run the completion module first when entries are
masked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguityResolutionFailure,
    DegenerateAnchors,
    DimensionMismatch,
    RankDeficient,
    ShapeMismatch,
    SingularSystem,
    ZeroAnchorEdges,
)
from .gek import QuatGek, RealGek, build_quat_gek, build_real_gek, extract_blocks
from .measurement import MeasurementSet
from .network import NetworkGeometry, StructureMatrices, true_parameters
from .quat import (
    QuaternionMatrix,
    dominant_eigpair,
    embed_r3,
    r3_components,
    vdot,
)

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


def _anchor_edges(anchors: np.ndarray, structure: StructureMatrices) -> np.ndarray:
    """Known anchor-anchor edge vectors, the first n_aa rows of the edges."""
    return structure.c[:structure.n_aa, :structure.n_anchors] @ anchors


# ---- shared plumbing ----


def anchored_inversion(
    v_hat: np.ndarray, anchors: np.ndarray, structure: StructureMatrices
) -> np.ndarray:
    """Recover all node positions from edge vectors with anchors pinned.

    Solves the stacked least-squares system that places each anchor at its
    known position and each edge difference at its estimated vector. The
    stack has full column rank whenever the incidence rows connect every
    target to an anchor, so the solution is unique.
    """
    n_a = anchors.shape[0]
    n = structure.c.shape[1]
    if v_hat.shape != (structure.c.shape[0], 3):
        raise DimensionMismatch("edge estimate does not match the structure")
    top = np.hstack([np.eye(n_a), np.zeros((n_a, n - n_a))])
    stacked = np.vstack([top, structure.c])
    rhs = np.vstack([anchors, v_hat])
    x_hat, _, rank, _ = np.linalg.lstsq(stacked, rhs, rcond=None)
    if rank < n:
        raise SingularSystem(f"stacked system rank {rank} < {n} unknowns")
    return x_hat


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
    against their known values is the normalized sum of
    conj(nu_hat_m) * nu_m over those entries; the whole vector is
    right-multiplied by it.
    """
    n_aa = nu_aa_known.shape[0]
    hat_aa = nu_hat[:n_aa]
    s = vdot(hat_aa, nu_aa_known)
    floor = 1e-12 * hat_aa.norm() * nu_aa_known.norm()
    if s.norm() <= floor:
        raise AmbiguityResolutionFailure(
            "anchor edges give no usable phase reference"
        )
    g = s.normalized()
    corrected = nu_hat.right_mul(g)
    resid = (corrected[:n_aa] - nu_aa_known).norm()
    denom = max(nu_aa_known.norm(), np.finfo(float).tiny)
    return corrected, {"phase": g, "phase_residual": resid / denom}


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
    nu_hat = QuaternionMatrix(u_vec.a * np.sqrt(lam), u_vec.b * np.sqrt(lam))

    nu_known = embed_r3(_anchor_edges(anchors, structure))
    nu_hat, phase_info = resolve_edge_ambiguity(nu_hat, nu_known)

    v_hat = r3_components(nu_hat)
    x_hat = anchored_inversion(v_hat, anchors, structure)
    aligned, fit = procrustes_align(x_hat, anchors)
    k_abs = np.abs(nu_hat.z)
    diag = {
        "top_singular_value": lam,
        "k_component_max": float(k_abs.max(initial=0.0)),
        "procrustes": fit,
        **phase_info,
    }
    return Estimate(aligned[anchors.shape[0]:], diag)


def _mrc_core(
    kq: QuatGek,
    anchors: np.ndarray,
    structure: StructureMatrices,
    tau_max: int,
    record_trajectory: bool,
) -> Estimate:
    _require_complete(kq)
    anchors = np.asarray(anchors, dtype=float)
    n_a, n_t = structure.n_anchors, structure.n_targets
    _, k2, k3 = extract_blocks(kq, structure)

    nu_aa = embed_r3(_anchor_edges(anchors, structure))
    aa_energy = nu_aa.norm() ** 2
    if aa_energy == 0:
        raise ZeroAnchorEdges("anchor-anchor edges are all zero length")

    k2h_nu = k2.H @ nu_aa
    nu_at = k2h_nu / aa_energy
    residuals: list[float] = []
    trajectory = [nu_at] if record_trajectory else None
    for _ in range(tau_max):
        prev = nu_at
        nu_at = (k2h_nu + k3.H @ nu_at) / (aa_energy + nu_at.norm() ** 2)
        residuals.append(
            (nu_at - prev).norm() / max(prev.norm(), np.finfo(float).tiny)
        )
        if trajectory is not None:
            trajectory.append(nu_at)

    def targets_from(nu: QuaternionMatrix) -> np.ndarray:
        # Edge i * n_t + t runs from anchor i to target t; each anchor
        # gives one estimate of the target, and they are averaged.
        edges = r3_components(nu).reshape(n_a, n_t, 3)
        return (anchors[:, None, :] - edges).mean(axis=0)

    diag: dict = {"tau": tau_max, "nu_residuals": residuals}
    if trajectory is not None:
        diag["trajectory"] = [targets_from(nu) for nu in trajectory]
    return Estimate(targets_from(nu_at), diag)


def qd_mrc_smds(
    kq: QuatGek, anchors: np.ndarray, structure: StructureMatrices
) -> Estimate:
    """Closed-form target recovery from the kernel's cross block."""
    return _mrc_core(kq, anchors, structure, tau_max=0, record_trajectory=False)


def qd_mrc_smds_iterative(
    kq: QuatGek,
    anchors: np.ndarray,
    structure: StructureMatrices,
    tau_max: int = 1,
    record_trajectory: bool = False,
) -> Estimate:
    """Closed-form recovery with a fixed-point refinement of the edges."""
    if tau_max < 0:
        raise DimensionMismatch("tau_max must be nonnegative")
    return _mrc_core(kq, anchors, structure, tau_max, record_trajectory)


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
    ms: MeasurementSet, anchors: np.ndarray, targets: np.ndarray
) -> QuatGek:
    """Scenario I quaternion kernel: measured lengths and pair angles, with
    azimuths and elevations taken from the stage-one fix `targets`."""
    est = true_parameters(NetworkGeometry(anchors, targets))
    d = ms.distances
    plane = tuple(d * np.sin(t) for t in (est.theta_z, est.theta_y, est.theta_x))
    return build_quat_gek(d, ms.adoa, (est.phi_xy, est.phi_xz, est.phi_yz), plane)


def scenario_one_pipeline(
    ms: MeasurementSet,
    anchors: np.ndarray,
    structure: StructureMatrices,
    algorithm: str = "qdsmds",
    tau_max: int = 1,
) -> Estimate:
    """Two-stage solver for distance-and-pair-angle-only measurements.

    Stage one runs `smds` on the real kernel. Stage two treats the resulting
    geometry (known anchors, estimated targets) as an angle source: edge
    azimuths and elevations come from the estimated edge vectors, plane
    lengths from the measured distances scaled by the estimated elevations,
    and the quaternion kernel built from that mix feeds the requested
    quaternion-domain solver. The stage-two kernel comes from the private
    `_stage_two_kernel`, which the Monte-Carlo harness also calls so that
    one stage-one fix serves every quaternion solver of a trial.
    """
    if ms.has_angles:
        raise ShapeMismatch("pipeline expects a distance-and-pair-angle set")
    anchors = np.asarray(anchors, dtype=float)
    stage1 = smds(build_real_gek(ms), anchors, structure)
    kq = _stage_two_kernel(ms, anchors, stage1.targets)
    final = _quat_solve(kq, anchors, structure, algorithm, tau_max)
    return Estimate(final.targets, {**final.diagnostics, "stage1": stage1})
