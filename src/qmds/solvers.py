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
* `qd_mrc_smds_iterative` adds fixed-point sweeps with the kernel's target
  rows before the same averaging step.

Factorization-based solvers recover geometry only up to an orthogonal
transform, and a pseudo-inverse step does not restore it, so the kernel
estimates are aligned on the anchor-anchor edges first and the final
coordinates are aligned on the anchors; both alignments permit reflections.

Each solver checks its inputs first, in `_solver_inputs`: run the completion
module first when entries are masked. The kernel types reject a non-finite
or non-Hermitian kernel at construction, so no solver scans or symmetrizes.
The private steps inside (`_resolve_edge_ambiguity`, `quat._embed_r3` and
`quat._r3_components`) check nothing that `_solver_inputs` has checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .completion import _by_magnitude
from .errors import (
    AmbiguityResolutionFailure,
    DegenerateAnchors,
    OutOfRange,
    RankDeficient,
    ShapeMismatch,
)
from .gek import QuatGek, RealGek, build_quat_gek, build_real_gek
from .measurement import MeasurementSet
from .network import _PLANE_AXES, StructureMatrices, _check_entries, _integer, _points
from .quat import _embed_r3, _qmul, _r3_components, dominant_eigpair

__all__ = [
    "Estimate",
    "smds",
    "qd_smds",
    "qd_mrc_smds",
    "qd_mrc_smds_iterative",
    "scenario_one_pipeline",
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


# ---- shared plumbing ----


def _solver_inputs(gek: "RealGek | QuatGek", anchors: np.ndarray,
                   structure: StructureMatrices) -> tuple[np.ndarray, np.ndarray]:
    """The four solvers' one input contract, checked before any solve: a
    complete kernel of the structure's edge count (else `ShapeMismatch`) and
    the structure's (N_A, 3) anchors, checked by `_points`. Returns the
    anchors as floats and the known anchor-anchor edges, the first n_aa."""
    if gek.mask is not None and not gek.mask.all():
        raise ShapeMismatch("kernel carries unobserved entries; complete it first")
    if gek.m != (m := structure.c.shape[0]):
        raise ShapeMismatch(f"kernel size {gek.m} does not match structure's {m} edges")
    anchors = _points("anchors", anchors, n_a := structure.n_anchors)
    return anchors, structure.c[:structure.n_aa, :n_a] @ anchors


@lru_cache(maxsize=16)
def _inversion_operator(structure: StructureMatrices) -> np.ndarray:
    """Read-only pseudo-inverse of the stacked system [I 0; C], of full column
    rank: each target column is nonzero only in its own anchor-target rows."""
    n = structure.c.shape[1]
    stacked = np.vstack([np.eye(structure.n_anchors, n), structure.c])
    op = np.linalg.pinv(stacked)
    op.setflags(write=False)
    return op


def anchored_inversion(v_hat: np.ndarray, anchors: np.ndarray,
                       structure: StructureMatrices) -> np.ndarray:
    """Recover all node positions from edge vectors with anchors pinned.

    Solves the stacked least-squares system that places each anchor at its
    known position and each edge difference at its estimated vector. The
    stack has full column rank whenever the incidence rows connect every
    target to an anchor, so the solution is unique; it is applied through
    the stack's pseudo-inverse, computed once per structure. `_points`
    checks the structure's (M, 3) edges and (N_A, 3) anchors.
    """
    v_hat = _points("the structure's edges", v_hat, structure.c.shape[0])
    anchors = _points("the structure's anchors", anchors, structure.n_anchors)
    return _inversion_operator(structure) @ np.vstack([anchors, v_hat])


def procrustes_align(x_hat: np.ndarray, anchors: np.ndarray) -> tuple[np.ndarray, dict]:
    """Similarity transform (scale, orthogonal map, shift) fitted on anchors.

    The transform minimizing the summed squared misfit of the leading rows
    of `x_hat` against the anchors is applied to every row. Reflections are
    allowed. Needs at least four anchors that span all three dimensions, and
    an `x_hat` of N >= N_A rows; `_points` checks both (N, 3) arrays.
    """
    anchors, x_hat = _points("anchors", anchors), _points("x_hat", x_hat)
    n_a = anchors.shape[0]
    if n_a < 4:
        raise DegenerateAnchors("similarity fit needs at least 4 anchors")
    if len(x_hat) < n_a:
        raise ShapeMismatch(f"x_hat must have at least {n_a} rows, got {len(x_hat)}")

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
    rmse = float(np.sqrt(np.mean(np.sum((aligned[:n_a] - anchors) ** 2, axis=1))))
    info = {"scale": scale, "rotation": rot, "translation": shift, "anchor_rmse": rmse}
    return aligned, info


def _place(v_hat: np.ndarray, anchors: np.ndarray,
           structure: StructureMatrices) -> tuple[np.ndarray, dict]:
    """Targets from all edge vectors: the anchored inversion, fitted onto the
    anchors by `procrustes_align`, whose info comes back with them."""
    x_hat = anchored_inversion(v_hat, anchors, structure)
    aligned, fit = procrustes_align(x_hat, anchors)
    return aligned[len(anchors):], fit


def _align_edges(v_hat: np.ndarray, v_known: np.ndarray) -> np.ndarray:
    """Rotate/reflect estimated edge vectors onto the known anchor edges.

    The kernel determines edge vectors only up to a global orthogonal
    transform; fitting it on the leading anchor-anchor rows fixes the frame
    before the anchored inversion.
    """
    u, _, vt = np.linalg.svd(v_hat[:len(v_known)].T @ v_known)
    return v_hat @ (u @ vt)


def _resolve_edge_ambiguity(nu_hat: np.ndarray,
                            known: np.ndarray) -> tuple[np.ndarray, dict]:
    """Fix the right unit-quaternion factor of an estimated edge vector.

    An eigenvector is defined only up to a right unit-quaternion factor.
    The factor g minimizing the misfit of the leading anchor-anchor entries
    against their known values is s / |s| for the correlation
    s = nu_hat^H known over those entries; the whole vector is
    right-multiplied by it. Both vectors are quaternion columns [u1, u2],
    (m, 2) arrays, the known block no longer than the estimate, and both
    products go through `_qmul`. `info["phase"]` holds g as a read-only
    (w, x, y, z) array.
    """
    head = nu_hat[:len(known)]
    s = _qmul(head[:, :1].conj().T, -head[:, 1:].T, known)[0]  # head^H known
    size = float(np.linalg.norm(s))
    if size <= 1e-12 * np.linalg.norm(head) * np.linalg.norm(known):
        raise AmbiguityResolutionFailure(
            "anchor edges give no usable phase reference"
        )
    phase = s.view(float) / size  # s = [s_a, s_b] read as (w, x, y, z)
    phase.setflags(write=False)
    corrected = _qmul(nu_hat[:, :1], nu_hat[:, 1:], phase.view(complex)[None])
    misfit = np.linalg.norm(corrected[:len(known)] - known)
    denom = max(np.linalg.norm(known), np.finfo(float).tiny)
    return corrected, {"phase": phase, "phase_residual": float(misfit / denom)}


# ---- the four algorithms ----


def smds(kr: RealGek, anchors: np.ndarray, structure: StructureMatrices) -> Estimate:
    """Edge-kernel multidimensional scaling on the real kernel."""
    anchors, v_known = _solver_inputs(kr, anchors, structure)
    lam, u = np.linalg.eigh(kr.k)
    if np.sum(lam > 0) < 3:
        raise RankDeficient(
            "kernel has fewer than 3 positive eigenvalues; no 3D embedding"
        )
    # top three by magnitude, as completion truncates; noise can push trailing
    # eigenvalues negative, and the factor column then collapses to zero
    lam3, u3 = _by_magnitude(lam, u, 3)
    v_hat = _align_edges(u3 * np.sqrt(np.maximum(lam3, 0.0)), v_known)
    targets, fit = _place(v_hat, anchors, structure)
    diag = {
        "eigenvalues": lam3,
        "edge_residual": float(np.linalg.norm(v_hat[:structure.n_aa] - v_known)),
        "procrustes": fit,
    }
    return Estimate(targets, diag)


def qd_smds(kq: QuatGek, anchors: np.ndarray, structure: StructureMatrices) -> Estimate:
    """Quaternion-domain scaling on the rank-1 quaternion kernel."""
    anchors, v_known = _solver_inputs(kq, anchors, structure)
    lam, u = dominant_eigpair(kq.k)
    if lam < 0:
        raise RankDeficient("kernel has no positive eigenvalue; no edge vector")
    nu_hat, phase_info = _resolve_edge_ambiguity(u * math.sqrt(lam), _embed_r3(v_known))
    targets, fit = _place(_r3_components(nu_hat), anchors, structure)
    k_abs = np.abs(nu_hat[:, 1].imag)
    diag = {
        "top_eigenvalue": lam,
        "k_component_max": float(k_abs.max(initial=0.0)),
        "procrustes": fit,
        **phase_info,
    }
    return Estimate(targets, diag)


def _mrc_core(kq: QuatGek, anchors: np.ndarray, structure: StructureMatrices,
              tau_max: int) -> Estimate:
    anchors, v_known = _solver_inputs(kq, anchors, structure)
    # Views of K's target rows: K21 (anchor-anchor columns) and K3 (target
    # columns). K = K^H to the bit, so K21 = K12^H and K3 = K3^H exactly.
    n_aa, a, b = structure.n_aa, kq.k.a, kq.k.b
    k21 = a[n_aa:, :n_aa], b[n_aa:, :n_aa]
    k3 = a[n_aa:, n_aa:], b[n_aa:, n_aa:]

    nu_aa = _embed_r3(v_known)
    aa_energy = np.linalg.norm(nu_aa) ** 2
    if aa_energy == 0:
        raise DegenerateAnchors("anchor-anchor edges are all zero length")

    # The edge estimate u = u1 + u2 j is held as the columns [u1, u2].
    drive = _qmul(*k21, nu_aa)
    states = np.empty((tau_max + 1, *drive.shape), dtype=complex)
    states[0] = u = drive / aa_energy
    for tau in range(1, tau_max + 1):
        states[tau] = u = (drive + _qmul(*k3, u)) / (aa_energy + np.vdot(u, u).real)
    residuals = np.linalg.norm(np.diff(states, axis=0), axis=(1, 2)) / np.maximum(
        np.linalg.norm(states[:-1], axis=(1, 2)), np.finfo(float).tiny)

    # Edge i * n_t + t runs from anchor i to target t; the anchors'
    # estimates are averaged.
    edges = _r3_components(
        states.reshape(tau_max + 1, structure.n_anchors, structure.n_targets, 2))
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


def qd_mrc_smds_iterative(kq: QuatGek, anchors: np.ndarray,
                          structure: StructureMatrices, tau_max: int = 1) -> Estimate:
    """Closed-form recovery with a fixed-point refinement of the edges.

    `diagnostics["trajectory"]` is the read-only (tau_max + 1, N_T, 3) array
    of target estimates after every sweep 0..tau_max. `tau_max` must be a
    nonnegative integer (a numpy integer too, not a bool) within the size
    ceiling, else `OutOfRange` before anything is allocated.
    """
    tau_max = _integer("tau_max", tau_max, 0)
    _check_entries("the sweeps' edge estimates", (tau_max + 1) * structure.c.shape[0])
    return _mrc_core(kq, anchors, structure, tau_max)


# The quaternion-domain solvers (kq, anchors, structure, tau_max) by the codes
# the harness uses. Each looks its solver up when called, so that a wrapped
# solver is the one that runs.
_QUAT_SOLVERS = {
    "qdsmds": lambda kq, a, st, tau: qd_smds(kq, a, st),
    "mrc": lambda kq, a, st, tau: qd_mrc_smds(kq, a, st),
    "mrciter": lambda kq, a, st, tau: qd_mrc_smds_iterative(kq, a, st, tau),
}


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
    return build_quat_gek(kr, v.T[_PLANE_AXES[:2]])


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
    if algorithm not in _QUAT_SOLVERS:  # before stage one's eigen-solve
        raise OutOfRange(f"unknown quaternion-domain algorithm {algorithm!r}")
    kr = build_real_gek(ms)
    stage1 = smds(kr, anchors, structure)
    kq = _stage_two_kernel(ms, kr, anchors, stage1.targets, structure)
    final = _QUAT_SOLVERS[algorithm](kq, anchors, structure, tau_max)
    return Estimate(final.targets, {**final.diagnostics, "stage1": stage1})
