"""Monte-Carlo benchmark harness.

Sweeps a grid of (scenario, algorithm, distance noise, angle noise) cells,
runs seeded localization trials in each, and aggregates the per-target
position error xi = ||X_hat - X||_F / N_T into CSV rows.

Determinism is the core contract. Each trial's random streams derive from
SeedSequence((master_seed, scenario code, round(sigma*1e6), round(eps*1e6),
trial index)), spawned into separate geometry / measurement / mask children.
The algorithm never enters the key: `run_trial`, the one place an instance
is built, builds one per key holding the geometry, measurements, mask,
kernels and the smds estimate, each built once, and every configured
algorithm solves that same instance, so comparisons across algorithms are
paired by construction. One loop, `_cells`, calls it for every trial of
each distinct (scenario, sigma_d, epsilon) cell: `run_grid` folds it per
algorithm, `run_convergence` averages the per-sweep errors of its scenario
II `mrciter` cells, and both emit rows in grid order, repeats included. An
instance draws only from its own streams, so neither the order trials are
evaluated in nor the order rows are emitted in changes a value, and the CSV
is byte-identical for a fixed config and seed. Wall-clock timing is off by
default because its column is the one nondeterministic quantity.

A failed trial (any library or LAPACK error on a solvable-looking instance,
e.g. a rank-collapsed kernel at extreme noise, a geometry draw that finds no
generic placement, or a non-finite estimate or sweep) is counted, excluded
from the means, and reported in the trials_failed column. When a piece
shared by several algorithms fails, each of them records the same error.
"""

from __future__ import annotations

import csv
import math
import time
from collections import abc
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .completion import complete_quat_gek, complete_real_gek
from .errors import (DegenerateAnchors, DegenerateEdge, OutOfRange, QmdsError,
                     ShapeMismatch)
from .gek import build_quat_gek, build_real_gek
from .measurement import SCENARIOS, NoiseConfig, missing_mask, synthesize
from .network import (DEGENERATE_LENGTH, NetworkGeometry, StructureMatrices,
                      _check_entries, _edge_squares, _integer, _points, _real, _shown,
                      structure_matrices, true_parameters)
from .solvers import _QUAT_SOLVERS, Estimate, _stage_two_kernel, smds

__all__ = [
    "ExperimentConfig",
    "TrialResult",
    "config_from_mapping",
    "metric_xi",
    "run_trial",
    "run_grid",
    "run_convergence",
    "write_csv",
]

ALGORITHMS = ("smds", *_QUAT_SOLVERS)

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


def _sequence(name: str, values) -> tuple:
    if isinstance(values, (str, bytes)) or not isinstance(values, abc.Iterable):
        raise ShapeMismatch(f"{name} must be a list, got {_shown(values)}")
    return tuple(values)


def _reals(name: str, values) -> tuple[float, ...]:
    return tuple(_real(name, v) for v in _sequence(name, values))


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one benchmark run.

    `sigma_d_grid` is in meters, `epsilon_grid` in degrees. `missing_fraction`
    removes that share of off-diagonal kernel entry pairs before solving (the
    kernels are then low-rank completed); it is only meaningful when angle
    measurements exist, so it requires scenario II. `timing` is "off" or
    "wall"; leave it off when byte-identical output matters. A field of the
    wrong type is rejected with a typed error: `ShapeMismatch` for a scalar
    where a list belongs, `OutOfRange` for a non-integral count or a
    non-finite number; also `OutOfRange` for `tau_max` sweeps past the size
    ceiling, or a room or anchors giving an edge square or kernel norm past it.
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
        room = _reals("room", self.room)
        if len(room) != 3 or any(v <= 0 for v in room):
            raise OutOfRange(f"room must be three positive extents, got {self.room}")
        pts = _points("anchors", self.anchors)  # none: structure_matrices refuses
        for name, low in (("n_targets", 1), ("trials", 1), ("tau_max", 0),
                          ("master_seed", 0)):
            object.__setattr__(self, name, _integer(name, getattr(self, name), low))
        structure = structure_matrices(len(pts), self.n_targets)  # the ceilings first
        sweeps = (self.tau_max + 1) * len(structure.c)  # as the iterative solver counts
        _check_entries("the sweeps' edge estimates", sweeps)
        with np.errstate(over="ignore"):  # an overflow is refused below, not warned
            pairs = structure.c[:structure.n_aa, :len(pts)] @ pts
            farthest = np.maximum(abs(pts), abs(pts - room))  # to a target in the room
        squares = _edge_squares("room and anchors", np.vstack([pairs, farthest]))
        bound = len(structure.c) * float(squares.max())  # bounds ||K||_F, exact ranges
        if not math.isfinite(bound * bound):
            raise OutOfRange("room and anchors must give the kernel a finite norm")
        if (close := np.flatnonzero(squares[:structure.n_aa]
                                    <= DEGENERATE_LENGTH**2)).size:
            i, j = np.flatnonzero(structure.c[close[0]])
            raise DegenerateAnchors(f"anchors {i} and {j} coincide")
        object.__setattr__(self, "room", room)
        object.__setattr__(self, "anchors", tuple(map(tuple, pts.tolist())))
        sigmas = _reals("sigma_d_grid", self.sigma_d_grid)
        epsilons = _reals("epsilon_grid", self.epsilon_grid)
        if not sigmas or not epsilons:
            raise OutOfRange("sigma_d_grid and epsilon_grid must be nonempty")
        for sigma_d, epsilon in product(sigmas, epsilons):
            NoiseConfig(sigma_d, epsilon)  # measurement defines the valid ranges
        object.__setattr__(self, "sigma_d_grid", sigmas)
        object.__setattr__(self, "epsilon_grid", epsilons)
        scenarios = _sequence("scenarios", self.scenarios)
        algorithms = _sequence("algorithms", self.algorithms)
        if not scenarios or any(s not in SCENARIOS for s in scenarios):
            raise OutOfRange(f"scenarios must be a nonempty subset of {SCENARIOS}")
        if not algorithms or any(a not in ALGORITHMS for a in algorithms):
            raise OutOfRange(f"algorithms must be a nonempty subset of {ALGORITHMS}")
        object.__setattr__(self, "scenarios", scenarios)
        object.__setattr__(self, "algorithms", algorithms)
        if not 0 <= _real("missing_fraction", self.missing_fraction) < 1:
            raise OutOfRange("missing_fraction must lie in [0, 1)")
        if self.missing_fraction > 0 and "I" in scenarios:
            # Scenario I takes its plane components from the first-stage
            # fix, so there is no masked kernel whose completion could be
            # compared fairly; reject rather than silently ignore the mask.
            raise OutOfRange("missing_fraction > 0 requires scenario II only")
        if self.timing not in ("off", "wall"):
            raise OutOfRange(f"timing must be 'off' or 'wall', got {self.timing!r}")


_CONFIG_FIELDS = {f.name for f in ExperimentConfig.__dataclass_fields__.values()}


def config_from_mapping(data: Mapping[str, object]) -> ExperimentConfig:
    """Build a config from a parsed mapping (e.g. a JSON document).

    Unknown keys are rejected so a typo cannot silently fall back to a
    default. List-valued fields accept any sequence.
    """
    unknown = set(data) - _CONFIG_FIELDS
    if unknown:
        raise OutOfRange(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**data)  # type: ignore[arg-type]


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one localization trial.

    `iterations` counts whatever sweeps the solve path actually ran:
    completion sweeps when a mask was in play plus refinement sweeps for the
    iterative solver; the direct solvers report 0. `wall_ms` is None unless
    timing was enabled; it covers every stage on the algorithm's own path
    (kernel build, completion, Scenario I stage one, solve), and a stage
    shared with other algorithms counts its one timing in full for each.
    `sweep_xi` holds xi after every refinement sweep 0..tau_max for the
    iterative solver and stays empty for the others. A failed trial carries
    the error text and a NaN xi, an ok one a finite nonnegative xi and sweeps.
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
    sweep_xi: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        sweeps = ((f"sweep {i} xi", x) for i, x in enumerate(self.sweep_xi))
        for name, x in (("xi", self.xi), *sweeps) if self.error is None else ():
            if not (math.isfinite(x) and x >= 0):
                what = "negative" if x < 0 else "not finite"
                raise OutOfRange(f"estimate is {what}: {name} = {x}")

    @property
    def ok(self) -> bool:
        return self.error is None


def metric_xi(x_hat: np.ndarray, x_true: np.ndarray) -> float:
    """Localization error: Frobenius mismatch divided by the target count.
    `_points` checks both (N_T, 3) arrays, N_T >= 1; a non-finite estimate
    passes through to a non-finite xi, for the caller to report."""
    x_true = _points("x_true", x_true)
    x_hat = _points("x_hat", x_hat, len(x_true), finite=False)
    if not len(x_true):
        raise ShapeMismatch("xi needs at least one target")
    return float(np.linalg.norm(x_hat - x_true) / x_true.shape[0])


def _sample_geometry(
    config: ExperimentConfig, structure: StructureMatrices, rng: np.random.Generator
):
    """Draw target positions once; `DegenerateEdge` if an edge a target can
    move is degenerate (the fixed anchor edges may stay axis-parallel)."""
    targets = rng.uniform(np.zeros(3), config.room, size=(config.n_targets, 3))
    geometry = NetworkGeometry(config.anchors, targets)
    params = true_parameters(geometry)
    if params.degenerate[structure.n_aa:].any():
        raise DegenerateEdge("no generic target placement: a target edge is degenerate")
    return geometry, params


# Errors a trial records as its failure instead of raising.
_TRIAL_ERRORS = (QmdsError, np.linalg.LinAlgError)


def _real_kernel(kr, mask):
    """The raw real kernel `kr`, completed when masked, and its sweep count."""
    if mask is None:
        return kr, 0
    kr, res = complete_real_gek(kr, mask)
    return kr, res.iterations


def _quat_kernel(ms, kr, mask):
    """Scenario II quaternion kernel on the raw real kernel `kr`, completed
    when masked, and its sweep count."""
    kq = build_quat_gek(kr, ms.plane_components())
    if mask is None:
        return kq, 0
    kq, info = complete_quat_gek(kq, mask)
    return kq, int(info["iterations"])


class _Instance:
    """One seed key's trial, which every algorithm run on it shares.

    Each piece (drawn data, the unmasked real kernel, the completed kernels,
    smds estimate, quaternion solve) is built on first use and kept, or its
    error is kept and raised again to every later user. A piece's inputs are
    fetched before its clock starts, so `_ms` holds each build's own wall
    time.
    """

    def __init__(self, config, scenario, noise: NoiseConfig, trial_index):
        self.config = config
        self.structure = structure_matrices(len(config.anchors), config.n_targets)
        self.scenario, self.noise, self.trial_index = scenario, noise, trial_index
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
        noise = self.noise
        ss = np.random.SeedSequence((
            self.config.master_seed, SCENARIOS.index(self.scenario) + 1,
            int(round(noise.sigma_d * 1e6)), int(round(noise.epsilon_deg * 1e6)),
            self.trial_index,
        ))
        geo_rng, meas_rng = map(np.random.default_rng, ss.spawn(2))
        geometry, params = _sample_geometry(self.config, self.structure, geo_rng)
        ms = synthesize(params, noise, self.scenario, meas_rng)
        fraction, mask = self.config.missing_fraction, None
        if fraction > 0:  # the mask stream is the key's third child either way
            mask = missing_mask(ms.m, fraction, np.random.default_rng(ss.spawn(1)[0]))
        return geometry, ms, mask

    def raw_real(self):
        """The unmasked real kernel, which both kernel pieces start from."""
        return self._piece("raw", build_real_gek, self.data()[1])

    def _estimate(self, algorithm: str) -> tuple[Estimate, int, tuple[str, ...]]:
        """The algorithm's estimate, its completion sweeps, and the names of
        the timed pieces on its path. Scenario I solves the quaternion
        algorithms on the stage-two kernel built from the smds fix."""
        geometry, ms, mask = self.data()
        anchors = geometry.anchors
        if algorithm == "smds" or self.scenario == "I":
            kr, sweeps = self._piece("real", _real_kernel, self.raw_real(), mask)
            est = self._piece("smds", smds, kr, anchors, self.structure)
            if algorithm == "smds":
                return est, sweeps, ("raw", "real", "smds")
            kq = self._piece("quat", _stage_two_kernel, ms, kr, anchors,
                             est.targets, self.structure)
            path: tuple[str, ...] = ("raw", "real", "smds", "quat", algorithm)
        else:
            kq, sweeps = self._piece("quat", _quat_kernel, ms, self.raw_real(),
                                     mask)
            path = ("raw", "quat", algorithm)
        est = self._piece(algorithm, _QUAT_SOLVERS[algorithm], kq, anchors,
                          self.structure, self.config.tau_max)
        return est, sweeps, path

    def run(self, algorithm: str) -> TrialResult:
        ident = (self.scenario, algorithm, self.noise.sigma_d,
                 self.noise.epsilon_deg, self.trial_index)
        try:
            est, sweeps, path = self._estimate(algorithm)
            targets, sweep_xi = self.data()[0].targets, ()
            if algorithm == "mrciter":  # metric_xi of every sweep's targets at once
                misfit = est.diagnostics["trajectory"] - targets
                per_sweep = np.linalg.norm(misfit, axis=(1, 2)) / self.config.n_targets
                sweep_xi = tuple(per_sweep.tolist())
            timed = self.config.timing == "wall"
            return TrialResult(  # which refuses a non-finite xi or sweep
                *ident, xi=metric_xi(est.targets, targets),
                iterations=sweeps + int(est.diagnostics.get("tau", 0)),
                wall_ms=sum(self._ms[name] for name in path) if timed else None,
                sweep_xi=sweep_xi)
        except _TRIAL_ERRORS as exc:
            return TrialResult(*ident, xi=float("nan"), iterations=0,
                               error=f"{type(exc).__name__}: {exc}")


def run_trial(config: ExperimentConfig, scenario: str, sigma_d: float,
              epsilon: float, trial_index: int) -> dict[str, TrialResult]:
    """Run one seeded trial end to end for every configured algorithm.

    Builds the seed key's instance (geometry, measurement set, mask and the
    pieces built from them) once, and every algorithm in `config.algorithms`
    solves it, so the records are paired by construction. The key excludes
    the algorithm, so a config naming fewer algorithms gives each of them
    the same record. A key no seed can be built from (an unknown scenario, a
    noise level `NoiseConfig` refuses, a bad trial index) raises `OutOfRange`
    before any draw; the one `NoiseConfig` built here is the instance's.
    """
    if scenario not in SCENARIOS:
        raise OutOfRange(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    noise = NoiseConfig(sigma_d=sigma_d, epsilon_deg=epsilon)
    _integer("trial_index", trial_index, 0)
    instance = _Instance(config, scenario, noise, trial_index)
    return {a: instance.run(a) for a in config.algorithms}


def _aggregate_cell(config: ExperimentConfig,
                    results: Sequence[TrialResult]) -> dict[str, object]:
    """One CSV row from a cell's records, which all carry its identity."""
    good, first = [r for r in results if r.ok], results[0]
    row: dict[str, object] = {
        "scenario": first.scenario,
        "algorithm": first.algorithm,
        "sigma_d_m": first.sigma_d,
        "epsilon_deg": first.epsilon,
        "missing_fraction": config.missing_fraction,
        "trials_ok": len(good),
        "trials_failed": len(results) - len(good),
        **dict.fromkeys(("mean_xi_m", "std_xi_m", "mean_iterations", "mean_wall_ms")),
    }
    if good:
        xis = np.array([r.xi for r in good])
        row["mean_xi_m"] = float(xis.mean())
        row["std_xi_m"] = float(xis.std(ddof=1)) if len(good) > 1 else 0.0
        row["mean_iterations"] = float(np.mean([r.iterations for r in good]))
        if config.timing == "wall":
            row["mean_wall_ms"] = float(np.mean([r.wall_ms for r in good]))
    return row


def _cells(config: ExperimentConfig):
    """Each distinct (scenario, sigma_d, epsilon) cell in config order, with
    its trials' records, one `run_trial` call each: positional, so that a
    trace of run_trial can key its spans by trial."""
    for cell in dict.fromkeys(product(config.scenarios, config.sigma_d_grid,
                                      config.epsilon_grid)):
        yield cell, [run_trial(config, *cell, t) for t in range(config.trials)]


def run_grid(config: ExperimentConfig) -> list[dict[str, object]]:
    """One aggregated row per (scenario, algorithm, sigma_d, epsilon) cell,
    in that order as the config gives it."""
    rows = {}
    for (scenario, sigma_d, epsilon), trials in _cells(config):
        for algorithm in config.algorithms:
            rows[scenario, algorithm, sigma_d, epsilon] = _aggregate_cell(
                config, [trial[algorithm] for trial in trials])
    return [rows[cell] for cell in product(config.scenarios, config.algorithms,
                                           config.sigma_d_grid, config.epsilon_grid)]


def run_convergence(config: ExperimentConfig) -> list[dict[str, object]]:
    """The grid's scenario II `mrciter` cells, one row per (sigma_d, epsilon,
    tau): the mean over a cell's ok trials of `sweep_xi`, xi after sweep tau
    of a single solve, for every tau in 0..`config.tau_max`. Rows past the
    size ceiling raise `OutOfRange` before any trial runs."""
    n_rows = len(config.sigma_d_grid) * len(config.epsilon_grid) * (config.tau_max + 1)
    _check_entries("the convergence rows", n_rows * len(CONVERGENCE_COLUMNS))
    iterative = replace(config, scenarios=("II",), algorithms=("mrciter",))
    sweeps = {}
    for (_, sigma_d, epsilon), trials in _cells(iterative):
        records = [trial["mrciter"] for trial in trials]
        sweeps[sigma_d, epsilon] = np.array([r.sweep_xi for r in records if r.ok])
    rows = []
    for sigma_d, epsilon in product(config.sigma_d_grid, config.epsilon_grid):
        per_tau = sweeps[sigma_d, epsilon]
        n_ok = len(per_tau)
        rows += [{"sigma_d_m": sigma_d, "epsilon_deg": epsilon, "tau": tau,
                  "trials_ok": n_ok, "trials_failed": config.trials - n_ok,
                  "mean_xi_m": float(per_tau[:, tau].mean()) if n_ok else None}
                 for tau in range(config.tau_max + 1)]
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
