"""Monte-Carlo benchmark harness.

Sweeps a grid of (scenario, algorithm, distance noise, angle noise) cells,
runs seeded localization trials in each, and aggregates the per-target
position error xi = ||X_hat - X||_F / N_T into CSV rows.

Determinism is the core contract. Each trial's random streams derive from
SeedSequence((master_seed, scenario code, round(sigma*1e6), round(eps*1e6),
trial index)), spawned into separate geometry / measurement / mask children.
The algorithm never enters the key: one trial instance per key holds the
geometry, measurements, mask, kernels and the smds estimate, each built
once, and every algorithm in the cell solves that same instance, so
comparisons across algorithms are paired by construction. An instance draws
only from its own streams, so neither the order trials are evaluated in nor
the order rows are emitted in changes a value, and the CSV is byte-identical
for a fixed config and seed. Wall-clock timing is off by default because
its column is the one nondeterministic quantity.

A failed trial (any library or LAPACK error on a solvable-looking instance,
e.g. a rank-collapsed kernel at extreme noise, a geometry draw that finds no
generic placement, or a non-finite estimate) is counted, excluded from the
means, and reported in the trials_failed column. When a piece shared by
several algorithms fails, each of them records the same error.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .completion import complete_quat_gek, complete_real_gek
from .errors import (
    DegenerateAnchors,
    DegenerateEdge,
    OutOfRange,
    QmdsError,
    ShapeMismatch,
)
from .gek import apply_mask, build_real_gek, quat_gek_from_measurements
from .measurement import NoiseConfig, missing_mask, synthesize
from .network import (
    DEGENERATE_LENGTH,
    NetworkGeometry,
    StructureMatrices,
    structure_matrices,
    true_parameters,
)
from .solvers import (
    Estimate,
    _quat_solve,
    _stage_two_kernel,
    qd_mrc_smds_iterative,
    smds,
)

__all__ = [
    "ALGORITHMS",
    "SCENARIOS",
    "CSV_COLUMNS",
    "CONVERGENCE_COLUMNS",
    "ExperimentConfig",
    "TrialResult",
    "config_from_mapping",
    "metric_xi",
    "run_trial",
    "run_grid",
    "run_convergence",
    "write_csv",
]

ALGORITHMS = ("smds", "qdsmds", "mrc", "mrciter")
SCENARIOS = ("I", "II")
_SCENARIO_CODE = {"I": 1, "II": 2}

# Reference deployment: room footprint 30 x 30 m, height 10 m, anchors in the
# four upper corners plus one floor corner, 15 targets placed uniformly.
DEFAULT_ROOM = (30.0, 30.0, 10.0)
DEFAULT_ANCHORS = (
    (0.0, 0.0, 10.0),
    (30.0, 0.0, 10.0),
    (30.0, 30.0, 10.0),
    (0.0, 30.0, 10.0),
    (0.0, 0.0, 0.0),
)
DEFAULT_SIGMA_GRID = tuple(round(0.2 * k, 10) for k in range(1, 21))
DEFAULT_EPSILON_GRID = (10.0, 20.0, 30.0, 40.0, 50.0)

CSV_COLUMNS = (
    "scenario",
    "algorithm",
    "sigma_d_m",
    "epsilon_deg",
    "missing_fraction",
    "trials_ok",
    "trials_failed",
    "mean_xi_m",
    "std_xi_m",
    "mean_iterations",
    "mean_wall_ms",
)

CONVERGENCE_COLUMNS = (
    "sigma_d_m",
    "epsilon_deg",
    "tau",
    "trials_ok",
    "trials_failed",
    "mean_xi_m",
)

_RESAMPLE_LIMIT = 128


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one benchmark run.

    `sigma_d_grid` is in meters, `epsilon_grid` in degrees. `missing_fraction`
    removes that share of off-diagonal kernel entry pairs before solving (the
    kernels are then low-rank completed); it is only meaningful when angle
    measurements exist, so it requires scenario II. `timing` is "off" or
    "wall"; leave it off when byte-identical output matters.
    """

    room: tuple[float, float, float] = DEFAULT_ROOM
    anchors: tuple[tuple[float, float, float], ...] = DEFAULT_ANCHORS
    n_targets: int = 15
    sigma_d_grid: tuple[float, ...] = DEFAULT_SIGMA_GRID
    epsilon_grid: tuple[float, ...] = DEFAULT_EPSILON_GRID
    scenarios: tuple[str, ...] = SCENARIOS
    algorithms: tuple[str, ...] = ALGORITHMS
    trials: int = 200
    missing_fraction: float = 0.0
    tau_max: int = 1
    master_seed: int = 0
    timing: str = "off"

    def __post_init__(self) -> None:
        room = tuple(float(v) for v in self.room)
        if len(room) != 3 or any(v <= 0 for v in room):
            raise OutOfRange(f"room must be three positive extents, got {self.room}")
        anchors = tuple(tuple(float(v) for v in row) for row in self.anchors)
        if not anchors or any(len(row) != 3 for row in anchors):
            raise ShapeMismatch("anchors must be 3D points")
        pts = np.asarray(anchors)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if np.linalg.norm(pts[i] - pts[j]) <= DEGENERATE_LENGTH:
                    raise DegenerateAnchors(f"anchors {i} and {j} coincide")
        object.__setattr__(self, "room", room)
        object.__setattr__(self, "anchors", anchors)
        if self.n_targets < 1:
            raise OutOfRange("n_targets must be at least 1")
        sigmas = tuple(float(s) for s in self.sigma_d_grid)
        epsilons = tuple(float(e) for e in self.epsilon_grid)
        if not sigmas or any(s < 0 for s in sigmas):
            raise OutOfRange("sigma_d_grid must be nonempty and nonnegative")
        if not epsilons or any(not 0 <= e < 162 for e in epsilons):
            raise OutOfRange("epsilon_grid entries must lie in [0, 162) degrees")
        object.__setattr__(self, "sigma_d_grid", sigmas)
        object.__setattr__(self, "epsilon_grid", epsilons)
        scenarios = tuple(self.scenarios)
        algorithms = tuple(self.algorithms)
        if not scenarios or any(s not in SCENARIOS for s in scenarios):
            raise OutOfRange(f"scenarios must be a nonempty subset of {SCENARIOS}")
        if not algorithms or any(a not in ALGORITHMS for a in algorithms):
            raise OutOfRange(f"algorithms must be a nonempty subset of {ALGORITHMS}")
        object.__setattr__(self, "scenarios", scenarios)
        object.__setattr__(self, "algorithms", algorithms)
        if self.trials < 1:
            raise OutOfRange("trials must be at least 1")
        if not 0 <= self.missing_fraction < 1:
            raise OutOfRange("missing_fraction must lie in [0, 1)")
        if self.missing_fraction > 0 and "I" in scenarios:
            # Scenario I takes its plane components from the first-stage
            # fix, so there is no masked kernel whose completion could be
            # compared fairly; reject rather than silently ignore the mask.
            raise OutOfRange("missing_fraction > 0 requires scenario II only")
        if self.tau_max < 0:
            raise OutOfRange("tau_max must be nonnegative")
        if self.master_seed < 0:
            raise OutOfRange("master_seed must be nonnegative")
        if self.timing not in ("off", "wall"):
            raise OutOfRange(f"timing must be 'off' or 'wall', got {self.timing!r}")

    @property
    def anchor_array(self) -> np.ndarray:
        return np.asarray(self.anchors, dtype=float)


_CONFIG_FIELDS = {f.name for f in ExperimentConfig.__dataclass_fields__.values()}


def config_from_mapping(data: Mapping[str, object]) -> ExperimentConfig:
    """Build a config from a parsed mapping (e.g. a JSON document).

    Unknown keys are rejected so a typo cannot silently fall back to a
    default. List-valued fields accept any sequence.
    """
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise OutOfRange(f"unknown config keys: {sorted(unknown)}")
    kwargs: dict[str, object] = {}
    for key, value in data.items():
        if key in ("room", "sigma_d_grid", "epsilon_grid", "scenarios",
                   "algorithms", "anchors"):
            kwargs[key] = tuple(tuple(v) if isinstance(v, (list, tuple)) else v
                                for v in value)  # type: ignore[union-attr]
        else:
            kwargs[key] = value
    return ExperimentConfig(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one localization trial.

    `iterations` counts whatever sweeps the solve path actually ran:
    completion sweeps when a mask was in play plus refinement sweeps for the
    iterative solver; the direct solvers report 0. `wall_ms` is None unless
    timing was enabled; it covers every stage on the algorithm's own path
    (kernel build, completion, Scenario I stage one, solve), and a stage
    shared with other algorithms counts its one timing in full for each.
    A failed trial carries the error text and a NaN xi.
    """

    scenario: str
    algorithm: str
    sigma_d: float
    epsilon: float
    trial_index: int
    xi: float
    iterations: int
    wall_ms: float | None = None
    error: str | None = None

    def __post_init__(self) -> None:
        if self.error is None and not (np.isfinite(self.xi) and self.xi >= 0):
            raise OutOfRange(f"xi must be finite and nonnegative, got {self.xi}")

    @property
    def ok(self) -> bool:
        return self.error is None


def metric_xi(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    """Localization error: Frobenius mismatch divided by the target count."""
    x_hat = np.asarray(x_hat, dtype=float)
    x_true = np.asarray(x_true, dtype=float)
    if x_hat.shape != x_true.shape:
        raise ShapeMismatch(f"shape mismatch: {x_hat.shape} vs {x_true.shape}")
    return float(np.linalg.norm(x_hat - x_true) / x_true.shape[0])


def _sample_geometry(
    config: ExperimentConfig, structure: StructureMatrices, rng: np.random.Generator
):
    """Draw target positions, redrawing while any anchor-target edge is
    degenerate. Fixed anchor edges may stay axis-parallel; only edges the
    targets can move are required to be generic."""
    anchors = config.anchor_array
    high = np.asarray(config.room, dtype=float)
    for _ in range(_RESAMPLE_LIMIT):
        targets = rng.uniform(np.zeros(3), high, size=(config.n_targets, 3))
        geometry = NetworkGeometry(anchors, targets)
        params = true_parameters(geometry)
        if not params.degenerate[structure.n_aa:].any():
            return geometry, params
    raise DegenerateEdge(
        f"no generic target placement found in {_RESAMPLE_LIMIT} draws"
    )


def _structure(config: ExperimentConfig) -> StructureMatrices:
    return structure_matrices(len(config.anchors), config.n_targets)


# Errors a trial records as its failure instead of raising.
_TRIAL_ERRORS = (QmdsError, np.linalg.LinAlgError)


def _real_kernel(ms, mask):
    """Real kernel of `ms`, completed when masked, and its sweep count."""
    kr = build_real_gek(ms)
    if mask is None:
        return kr, 0
    kr, res = complete_real_gek(apply_mask(kr, mask))
    return kr, res.iterations


def _quat_kernel(ms, mask):
    """Quaternion kernel of `ms`, completed when masked, and its sweep count."""
    kq = quat_gek_from_measurements(ms)
    if mask is None:
        return kq, 0
    kq, info = complete_quat_gek(apply_mask(kq, mask))
    return kq, int(info["iterations"])


class _Instance:
    """One seed key's trial, which every algorithm run on it shares.

    Each piece (drawn data, kernel, smds estimate, quaternion solve) is built
    on first use and kept, or its error is kept and raised again to every
    later user. A piece's inputs are fetched before its clock starts, so
    `_ms` holds each build's own wall time.
    """

    def __init__(self, config, scenario, sigma_d, epsilon, trial_index, structure):
        self.config, self.structure = config, structure
        self.key = (scenario, sigma_d, epsilon, trial_index)
        self._built: dict[str, object] = {}  # name -> value or its error
        self._ms: dict[str, float] = {}

    def _piece(self, name: str, build, *inputs):
        if name not in self._built:
            started = time.perf_counter()
            try:
                self._built[name] = build(*inputs)
            except _TRIAL_ERRORS as exc:
                self._built[name] = exc
            self._ms[name] = (time.perf_counter() - started) * 1e3
        value = self._built[name]
        if isinstance(value, Exception):
            raise value
        return value

    def data(self):
        """Geometry, measurement set and mask (None when nothing is hidden)."""
        return self._piece("data", self._draw)

    def _draw(self):
        scenario, sigma_d, epsilon, trial_index = self.key
        ss = np.random.SeedSequence((
            self.config.master_seed, _SCENARIO_CODE[scenario],
            int(round(sigma_d * 1e6)), int(round(epsilon * 1e6)), trial_index,
        ))
        geo_rng, meas_rng, mask_rng = map(np.random.default_rng, ss.spawn(3))
        geometry, params = _sample_geometry(self.config, self.structure, geo_rng)
        noise = NoiseConfig(sigma_d=sigma_d, epsilon_deg=epsilon)
        ms = synthesize(params, noise, scenario, meas_rng)
        fraction = self.config.missing_fraction
        mask = missing_mask(ms.m, fraction, mask_rng) if fraction > 0 else None
        return geometry, ms, mask

    def _estimate(self, algorithm: str) -> tuple[Estimate, int, tuple[str, ...]]:
        """The algorithm's estimate, its completion sweeps, and the names of
        the timed pieces on its path. Scenario I solves the quaternion
        algorithms on the stage-two kernel built from the smds fix."""
        geometry, ms, mask = self.data()
        anchors = geometry.anchors
        if algorithm == "smds" or self.key[0] == "I":
            kr, sweeps = self._piece("real", _real_kernel, ms, mask)
            est = self._piece("smds", smds, kr, anchors, self.structure)
            if algorithm == "smds":
                return est, sweeps, ("real", "smds")
            kq = self._piece("quat", _stage_two_kernel, ms, kr, anchors,
                             est.targets, self.structure)
            path: tuple[str, ...] = ("real", "smds", "quat", algorithm)
        else:
            kq, sweeps = self._piece("quat", _quat_kernel, ms, mask)
            path = ("quat", algorithm)
        est = self._piece(algorithm, _quat_solve, kq, anchors, self.structure,
                          algorithm, self.config.tau_max)
        return est, sweeps, path

    def run(self, algorithm: str) -> TrialResult:
        scenario, sigma_d, epsilon, trial_index = self.key
        try:
            est, sweeps, path = self._estimate(algorithm)
            xi = metric_xi(est.targets, self.data()[0].targets)
            if not np.isfinite(xi):
                raise OutOfRange(f"estimate is not finite: xi = {xi}")
        except _TRIAL_ERRORS as exc:
            return TrialResult(
                scenario, algorithm, sigma_d, epsilon, trial_index,
                xi=float("nan"), iterations=0,
                error=f"{type(exc).__name__}: {exc}",
            )
        timed = self.config.timing == "wall"
        return TrialResult(
            scenario, algorithm, sigma_d, epsilon, trial_index, xi=xi,
            iterations=sweeps + int(est.diagnostics.get("tau", 0)),
            wall_ms=sum(self._ms[name] for name in path) if timed else None,
        )


def run_trial(
    config: ExperimentConfig,
    scenario: str,
    algorithm: str,
    sigma_d: float,
    epsilon: float,
    trial_index: int,
    structure: StructureMatrices | None = None,
) -> TrialResult:
    """Run one seeded trial end to end.

    The seed key excludes the algorithm, so calling this for several
    algorithms at the same (scenario, sigma_d, epsilon, trial_index) replays
    the identical geometry, measurement set, and mask, and gives the same
    result that `run_grid` records for that trial.
    """
    structure = _structure(config) if structure is None else structure
    instance = _Instance(config, scenario, sigma_d, epsilon, trial_index, structure)
    return instance.run(algorithm)


def _aggregate_cell(
    config: ExperimentConfig,
    scenario: str,
    algorithm: str,
    sigma_d: float,
    epsilon: float,
    results: Sequence[TrialResult],
) -> dict[str, object]:
    good = [r for r in results if r.ok]
    row: dict[str, object] = {
        "scenario": scenario,
        "algorithm": algorithm,
        "sigma_d_m": sigma_d,
        "epsilon_deg": epsilon,
        "missing_fraction": config.missing_fraction,
        "trials_ok": len(good),
        "trials_failed": len(results) - len(good),
    }
    if good:
        xis = np.array([r.xi for r in good])
        row["mean_xi_m"] = float(xis.mean())
        row["std_xi_m"] = float(xis.std(ddof=1)) if len(good) > 1 else 0.0
        row["mean_iterations"] = float(np.mean([r.iterations for r in good]))
    else:
        row["mean_xi_m"] = None
        row["std_xi_m"] = None
        row["mean_iterations"] = None
    timed = config.timing == "wall" and good
    row["mean_wall_ms"] = float(np.mean([r.wall_ms for r in good])) if timed else None
    return row


def run_grid(config: ExperimentConfig) -> list[dict[str, object]]:
    """Run every grid cell and return one aggregated row per cell.

    Trials run in (scenario, sigma_d, epsilon, trial) order, each seed key's
    instance built once and solved by every configured algorithm. Rows come
    out in (scenario, algorithm, sigma_d, epsilon) order as given by the
    config. Instances draw only from their own seed streams, so neither
    order changes a value.
    """
    structure = _structure(config)
    rows = {}
    for scenario, sigma_d, epsilon in dict.fromkeys(
        product(config.scenarios, config.sigma_d_grid, config.epsilon_grid)
    ):
        results: dict[str, list[TrialResult]] = {a: [] for a in config.algorithms}
        for t in range(config.trials):
            instance = _Instance(config, scenario, sigma_d, epsilon, t, structure)
            for algorithm, trials in results.items():
                trials.append(instance.run(algorithm))
        for algorithm, trials in results.items():
            rows[scenario, algorithm, sigma_d, epsilon] = _aggregate_cell(
                config, scenario, algorithm, sigma_d, epsilon, trials
            )
    return [rows[cell] for cell in product(config.scenarios, config.algorithms,
                                           config.sigma_d_grid, config.epsilon_grid)]


def run_convergence(
    config: ExperimentConfig,
    tau_max: int | None = None,
) -> list[dict[str, object]]:
    """Track the iterative solver's error over refinement sweeps.

    Runs scenario II trials on the config's grid, recording xi after every
    sweep 0..tau_max of a single solve per trial (one pass records the whole
    trajectory). The solve reads the same measured kernel as a grid run's
    scenario II trial: completed first when `missing_fraction` hides
    entries. Returns one row per (sigma_d, epsilon, tau).
    """
    if tau_max is None:
        tau_max = config.tau_max
    if tau_max < 0:
        raise OutOfRange("tau_max must be nonnegative")
    structure = _structure(config)
    rows: list[dict[str, object]] = []
    for sigma_d in config.sigma_d_grid:
        for epsilon in config.epsilon_grid:
            per_tau = np.zeros((config.trials, tau_max + 1))
            ok = np.zeros(config.trials, dtype=bool)
            for t in range(config.trials):
                instance = _Instance(config, "II", sigma_d, epsilon, t, structure)
                try:
                    geometry, ms, mask = instance.data()
                    kq, _ = instance._piece("quat", _quat_kernel, ms, mask)
                    est = qd_mrc_smds_iterative(
                        kq, geometry.anchors, structure,
                        tau_max=tau_max, record_trajectory=True,
                    )
                    xis = [metric_xi(targets, geometry.targets)
                           for targets in est.diagnostics["trajectory"]]
                except _TRIAL_ERRORS:
                    continue
                ok[t] = np.isfinite(xis).all()
                per_tau[t] = xis
            n_ok = int(ok.sum())
            for tau in range(tau_max + 1):
                rows.append({
                    "sigma_d_m": sigma_d,
                    "epsilon_deg": epsilon,
                    "tau": tau,
                    "trials_ok": n_ok,
                    "trials_failed": config.trials - n_ok,
                    "mean_xi_m": float(per_tau[ok, tau].mean()) if n_ok else None,
                })
    return rows


def _format_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(
    rows: Iterable[Mapping[str, object]],
    path: str,
    columns: Sequence[str] = CSV_COLUMNS,
) -> None:
    """Write aggregated rows with a fixed column order.

    Floats are rendered with repr (shortest round-trip form), so equal
    doubles always print identically; absent values render as empty cells.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(col)) for col in columns])
