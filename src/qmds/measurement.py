"""Noise models and measurement synthesis.

Ranging errors follow a Gamma distribution whose mean is the true distance d
and whose variance is sigma_d^2 (shape d^2/sigma_d^2, scale sigma_d^2/d).
Angle errors are additive von Mises (Tikhonov) deviates centered at zero.
Angular noise level is specified as epsilon, the half-width in degrees of
the central interval holding 90% of the error mass; `epsilon_to_rho` inverts
that definition to the concentration parameter by bisection on log rho,
with the mass integrated by a 64-node Gauss-Legendre rule. The uniform
density already holds 90% inside +-162 degrees, so epsilon must stay below
that; the largest concentration searched, 1e8, puts the floor at about
0.0094 degrees. Larger epsilon always means smaller rho. `NoiseConfig`
checks both levels once (sigma_d^2 must be finite) and resolves rho once.
`synthesize` has one draw path: the ranges, then every angle through
`_sample_angle`, which copies exact angles (epsilon 0) without a draw.

Two measurement scenarios exist. Scenario I carries distances and
edge-to-edge angles only. Scenario II additionally measures each edge's
three plane azimuths and three axis elevations, stored as two (3, M) arrays
in the row order of `network.TrueParameters`: azimuths in the xy, xz and yz
planes, elevations from the +x, +y and +z axes. A plane's components (one
(2, 3, M) array [u; v]) are scaled by the sine of the elevation from its
normal axis, so planes xy, xz, yz pair with elevation rows z, y, x. Noisy
elevations fold into [0, pi] by reflection so projected lengths stay >= 0; noisy
azimuths are left unwrapped since only their sines and cosines are consumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DegenerateEdge, OutOfRange, ShapeMismatch
from .network import (DEGENERATE_LENGTH, TrueParameters, _array, _check_entries,
                      _edge_squares, _integer, _real)
from .quat import _mirrors

__all__ = [
    "EPSILON_LIMIT_DEG",
    "NoiseConfig",
    "MeasurementSet",
    "epsilon_to_rho",
    "synthesize",
    "missing_mask",
]

# The measurement scenarios; the harness seeds scenario s with index + 1.
SCENARIOS = ("I", "II")

# Half-width, in degrees, of the central 90% interval of the uniform
# circular density: 0.9 * 180. No concentration can need more.
EPSILON_LIMIT_DEG = 162.0

_RHO_BRACKET = (1e-6, 1e8)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_triu_indices = lru_cache(maxsize=16)(np.triu_indices)  # shared; only read


@dataclass(frozen=True)
class NoiseConfig:
    """Noise levels: ranging std in meters, angle spread in degrees.

    The one check of both, kept as floats: sigma_d >= 0 with a finite square
    (at most about 1.3e154 m), and epsilon 0 or in `epsilon_to_rho`'s range,
    else `OutOfRange`. `rho` is resolved once; None means exact angles."""

    sigma_d: float = 0.0
    epsilon_deg: float = 0.0
    rho: float | None = field(init=False, compare=False)

    def __post_init__(self):
        sigma_d = _real("sigma_d", self.sigma_d)
        if sigma_d < 0 or not math.isfinite(sigma_d * sigma_d):
            raise OutOfRange(f"sigma_d must be >= 0 with a finite square, "
                             f"got {sigma_d}")
        epsilon_deg = _real("epsilon_deg", self.epsilon_deg)
        object.__setattr__(self, "sigma_d", sigma_d)
        object.__setattr__(self, "epsilon_deg", epsilon_deg)
        object.__setattr__(self, "rho", epsilon_to_rho(epsilon_deg) if epsilon_deg
                           else None)


def _vm_mass(eps_rad: float, rho: float) -> float:
    """Probability mass of the centered von Mises law on [-eps, eps].

    F(eps) / F(pi) with F(x) = int_0^x exp(rho (cos t - 1)) dt, the exponent
    written as -2 rho sin^2(t/2) to avoid cancellation near zero. Past
    12/sqrt(rho) the integrand is below e^-72, so a 64-node Gauss-Legendre
    rule on [0, min(x, 12/sqrt(rho))] resolves the peak at any rho.
    """

    def integral(x: float) -> float:
        half = 0.5 * min(x, 12.0 / np.sqrt(rho))
        t = half * (_GL_NODES + 1.0)
        return half * (_GL_WEIGHTS @ np.exp(-2.0 * rho * np.sin(0.5 * t) ** 2))

    return integral(eps_rad) / integral(np.pi)


def epsilon_to_rho(epsilon_deg: float) -> float:
    """Concentration rho whose central 90% interval is +-epsilon degrees.

    Bisects log rho on [1e-6, 1e8] until the bracket cannot shrink. An
    epsilon not a real number in (0, 162), or so narrow that even rho = 1e8
    holds under 90% of the mass (below about 0.0094 degrees), raises `OutOfRange`.
    """
    epsilon_deg = _real("epsilon_deg", epsilon_deg)
    if not 0 < epsilon_deg < EPSILON_LIMIT_DEG:
        raise OutOfRange(
            f"epsilon_deg must lie in (0, {EPSILON_LIMIT_DEG}), got {epsilon_deg}"
        )
    return _rho(epsilon_deg)


@lru_cache(maxsize=None)  # sees only the floats epsilon_to_rho checked
def _rho(epsilon_deg: float) -> float:
    eps = np.deg2rad(epsilon_deg)
    lo, hi = _RHO_BRACKET
    if _vm_mass(eps, lo) >= 0.9:
        return lo
    if _vm_mass(eps, hi) < 0.9:
        raise OutOfRange(
            f"epsilon_deg {epsilon_deg} is narrower than rho = {hi:g} allows"
        )
    while lo < (mid := np.sqrt(lo * hi)) < hi:  # the midpoint of log rho
        lo, hi = (mid, hi) if _vm_mass(eps, mid) < 0.9 else (lo, mid)
    return float(hi)


def _sample_distance(d, sigma_d: float, rng: np.random.Generator):
    """Gamma ranging draw with mean d and variance sigma_d^2, elementwise.
    Each d must be positive; `synthesize` rejects zero-length edges first."""
    d = np.asarray(d, dtype=float)
    # An infinite shape (sigma_d = 0, or sigma_d below about 1e-154 m) means a
    # relative spread sigma_d / d far below one ulp: d is returned undrawn.
    var = sigma_d**2
    with np.errstate(divide="ignore", over="ignore"):
        shape = d**2 / var
    if not np.isfinite(shape).all():
        return d.copy()
    return rng.gamma(shape, var / d)


def _sample_angle(theta, rho: float | None, rng: np.random.Generator,
                  fold: bool = False):
    """theta plus an additive von Mises error of concentration rho, as a new
    array, reflected into [0, pi] when `fold`. rho None means exact angles:
    theta is copied, with no draw and no fold."""
    theta = np.asarray(theta, dtype=float)
    if rho is None:
        return theta.copy()
    noisy = theta + rng.vonmises(0.0, rho, size=theta.shape)
    return _reflect_elevation(noisy) if fold else noisy


def _reflect_elevation(theta):
    """Fold angles into [0, pi] by reflection at both ends."""
    return np.abs(np.mod(np.asarray(theta) + np.pi, 2 * np.pi) - np.pi)


@dataclass(frozen=True)
class MeasurementSet:
    """One noisy realization of everything a scenario can observe.

    `distances` is (M,). `adoa` is the (M, M) symmetric matrix of measured
    edge-to-edge angles with a zero diagonal: one draw per unordered pair,
    mirrored. `azimuths` and `elevations` are both (3, M) in Scenario II and
    both None in Scenario I, with the row order of `TrueParameters`:
    azimuths in the xy, xz and yz planes, elevations from the +x, +y and +z
    axes. Any other shape, or a field that is not an ndarray of real numbers,
    raises `ShapeMismatch`; masks apply to the kernels, not to the set. A
    pair-angle matrix not symmetric to the bit (`quat._mirrors`), a non-finite
    value or a distance whose square is not finite raises `OutOfRange`: the
    kernels rely on all three. The set owns its arrays and freezes them.
    """

    distances: np.ndarray
    adoa: np.ndarray
    azimuths: np.ndarray | None = None
    elevations: np.ndarray | None = None

    def __post_init__(self):
        m = len(_array("distances", self.distances, "biuf", (None,)))
        if (self.azimuths is None) != (self.elevations is None):
            raise ShapeMismatch("azimuths and elevations must be both None or both set")
        shapes = {"distances": (m,), "adoa": (m, m),
                  "azimuths": (3, m), "elevations": (3, m)}
        arrays = {name: _array(name, arr, "biuf", dims) for name, dims in shapes.items()
                  if (arr := getattr(self, name)) is not None}
        if not _mirrors(self.adoa):
            raise OutOfRange("pair-angle matrix must be exactly symmetric")
        for name, arr in arrays.items():
            if not np.isfinite(arr).all():
                raise OutOfRange(f"measured {name} must be finite")
            arr.setflags(write=False)
        _edge_squares("measured distances", self.distances[:, None])

    @property
    def m(self) -> int:
        return self.distances.shape[0]

    @property
    def has_angles(self) -> bool:
        return self.azimuths is not None

    def plane_components(self) -> np.ndarray:
        """The real (2, 3, M) array [u; v] of in-plane edge components
        (u, v) = d sin(theta) (cos phi, sin phi), rows xy, xz and yz;
        Scenario II only. Each plane's theta is the elevation from its
        normal axis (z, y, x)."""
        if not self.has_angles:
            raise ShapeMismatch("measurement set carries no angles; build the "
                                "kernel from estimated edge vectors instead")
        return (np.stack((np.cos(self.azimuths), np.sin(self.azimuths)))
                * (self.distances * np.sin(self.elevations[::-1])))


def synthesize(
    params: TrueParameters,
    config: NoiseConfig,
    scenario: str,
    rng: np.random.Generator,
) -> MeasurementSet:
    """Draw one noisy measurement set from exact edge parameters.

    Draw order is fixed so that a given seed always produces the same set:
    the M ranges, then through `_sample_angle` the M(M-1)/2 pair angles and
    in Scenario II the (3, M) azimuths and (3, M) elevations, in row order.
    A (3, M) von Mises draw takes the same stream as three of size M, one per
    row. Exact angles (epsilon 0) are copied, and nothing is drawn for them.

    Zero-length edges are rejected: neither a range nor any angle is defined
    there. Edges with a merely degenerate plane projection are accepted; the
    corresponding azimuth is conventionally zero and every downstream use
    scales it by the vanishing projected length, so box-corner anchor
    deployments (whose anchor-anchor edges run parallel to the axes) work.
    """
    if scenario not in SCENARIOS:
        raise OutOfRange(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    if np.any(params.distances <= DEGENERATE_LENGTH):
        raise DegenerateEdge("cannot synthesize measurements on zero-length edges")

    d_tilde = _sample_distance(params.distances, config.sigma_d, rng)
    rho = config.rho
    iu = _triu_indices(params.distances.shape[0], 1)
    adoa = params.adoa.copy()
    adoa[iu] = _sample_angle(adoa[iu], rho, rng)
    adoa.T[iu] = adoa[iu]
    angles = ()
    if scenario == "II":
        angles = (_sample_angle(params.azimuths, rho, rng),
                  _sample_angle(params.elevations, rho, rng, fold=True))
    return MeasurementSet(d_tilde, adoa, *angles)


def missing_mask(m: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric observation mask hiding the given fraction of entry pairs.

    Exactly round(fraction * m(m-1)/2) unordered off-diagonal pairs are
    marked unobserved and mirrored; the diagonal is always observed. An `m`
    not a nonnegative integer within the size ceiling raises `OutOfRange`.
    """
    m = _integer("m", m, 0)
    _check_entries("mask", m * m)
    if not 0 <= _real("fraction", fraction) < 1:
        raise OutOfRange(f"fraction must lie in [0, 1), got {fraction}")
    mask = np.ones((m, m), dtype=bool)
    n_pairs = m * (m - 1) // 2
    n_hide = round(fraction * n_pairs)
    if n_hide == 0:
        return mask
    iu = _triu_indices(m, 1)
    hide = rng.choice(n_pairs, size=n_hide, replace=False)
    mask[iu[0][hide], iu[1][hide]] = False
    mask[iu[1][hide], iu[0][hide]] = False
    return mask
