"""Quaternion-domain super-MDS localization and its Monte Carlo harness.

The package splits into a dependency-ordered stack: quaternion linear
algebra (`quat`), network geometry and edge bookkeeping (`network`), noise
models and measurement synthesis (`measurement`), edge-kernel construction
(`gek`), low-rank completion of partially observed kernels (`completion`),
the localization solvers (`solvers`), and the seeded benchmark harness with
its CLI (`harness`, `cli`). The names re-exported here are the supported
surface; everything else is internal.
"""

from .completion import (
    CompletionResult,
    complete_lowrank,
    complete_quat_gek,
    complete_real_gek,
)
from .errors import (
    AmbiguityResolutionFailure,
    AsymmetricMask,
    DegenerateAnchors,
    DegenerateEdge,
    DimensionMismatch,
    HermitianDefectWarning,
    NonConvergenceWarning,
    NonPositiveDistance,
    OutOfRange,
    QmdsError,
    RankDeficient,
    ShapeMismatch,
    SingularSystem,
    ZeroAnchorEdges,
)
from .gek import (
    QuatGek,
    RealGek,
    apply_mask,
    build_quat_gek,
    build_real_gek,
    quat_gek_from_measurements,
)
from .harness import (
    ExperimentConfig,
    TrialResult,
    config_from_mapping,
    metric_xi,
    run_convergence,
    run_grid,
    run_trial,
    write_csv,
)
from .measurement import (
    EPSILON_LIMIT_DEG,
    MeasurementSet,
    NoiseConfig,
    epsilon_to_rho,
    missing_mask,
    reflect_elevation,
    sample_angle,
    sample_distance,
    synthesize,
)
from .network import (
    NetworkGeometry,
    StructureMatrices,
    TrueParameters,
    edge_matrix,
    structure_matrices,
    true_parameters,
)
from .quat import (
    QsvdResult,
    QuaternionMatrix,
    complex_adjoint,
    dominant_eigpair,
    embed_r3,
    qsvd,
    r3_components,
)
from .solvers import (
    Estimate,
    anchored_inversion,
    procrustes_align,
    qd_mrc_smds,
    qd_mrc_smds_iterative,
    qd_smds,
    resolve_edge_ambiguity,
    scenario_one_pipeline,
    smds,
)

__all__ = [
    "AmbiguityResolutionFailure",
    "AsymmetricMask",
    "CompletionResult",
    "DegenerateAnchors",
    "DegenerateEdge",
    "DimensionMismatch",
    "EPSILON_LIMIT_DEG",
    "Estimate",
    "ExperimentConfig",
    "HermitianDefectWarning",
    "MeasurementSet",
    "NetworkGeometry",
    "NoiseConfig",
    "NonConvergenceWarning",
    "NonPositiveDistance",
    "OutOfRange",
    "QmdsError",
    "QsvdResult",
    "QuatGek",
    "QuaternionMatrix",
    "RankDeficient",
    "RealGek",
    "ShapeMismatch",
    "SingularSystem",
    "StructureMatrices",
    "TrialResult",
    "TrueParameters",
    "ZeroAnchorEdges",
    "anchored_inversion",
    "apply_mask",
    "build_quat_gek",
    "build_real_gek",
    "complete_lowrank",
    "complete_quat_gek",
    "complete_real_gek",
    "complex_adjoint",
    "config_from_mapping",
    "dominant_eigpair",
    "edge_matrix",
    "embed_r3",
    "epsilon_to_rho",
    "metric_xi",
    "missing_mask",
    "procrustes_align",
    "qd_mrc_smds",
    "qd_mrc_smds_iterative",
    "qd_smds",
    "qsvd",
    "quat_gek_from_measurements",
    "r3_components",
    "reflect_elevation",
    "resolve_edge_ambiguity",
    "run_convergence",
    "run_grid",
    "run_trial",
    "sample_angle",
    "sample_distance",
    "scenario_one_pipeline",
    "smds",
    "structure_matrices",
    "synthesize",
    "true_parameters",
    "write_csv",
]

__version__ = "0.1.0"
