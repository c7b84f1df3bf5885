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
0.0094 degrees. Larger epsilon always means smaller rho.

Two measurement scenarios exist. Scenario I carries distances and
edge-to-edge angles only. Scenario II additionally measures each edge's
three plane azimuths and three axis elevations. Noisy elevations are folded
back into [0, pi] by reflection so projected lengths stay nonnegative; noisy
azimuths are left unwrapped since only their sines and cosines are consumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .errors import DegenerateEdge, NonPositiveDistance, OutOfRange, ShapeMismatch
from .network import DEGENERATE_LENGTH, TrueParameters

__all__ = [
    "NoiseConfig",
    "MeasurementSet",
    "Scenario",
    "epsilon_to_rho",
    "sample_distance",
    "sample_angle",
    "reflect_elevation",
    "synthesize",
    "missing_mask",
]

Scenario = Literal["I", "II"]

# Half-width, in degrees, of the central 90% interval of the uniform
# circular density: 0.9 * 180. No concentration can need more.
EPSILON_LIMIT_DEG = 162.0

_RHO_BRACKET = (1e-6, 1e8)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_triu_indices = lru_cache(maxsize=16)(np.triu_indices)  # shared; only read


@dataclass(frozen=True)
class NoiseConfig:
    """Noise levels: ranging std in meters, angle spread in degrees."""

    sigma_d: float = 0.0
    epsilon_deg: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.sigma_d) or self.sigma_d < 0:
            raise OutOfRange(f"sigma_d must be finite and >= 0, got {self.sigma_d}")
        if self.epsilon_deg != 0:
            epsilon_to_rho(self.epsilon_deg)  # the one check of the valid range

    @property
    def rho(self) -> float | None:
        """Concentration for the configured epsilon; None means exact angles."""
        if self.epsilon_deg == 0:
            return None
        return epsilon_to_rho(self.epsilon_deg)


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


@lru_cache(maxsize=None)
def epsilon_to_rho(epsilon_deg: float) -> float:
    """Concentration rho whose central 90% interval is +-epsilon degrees.

    Bisects log rho on [1e-6, 1e8] until the bracket cannot shrink. An
    epsilon so narrow that even rho = 1e8 holds less than 90% of the mass
    (below about 0.0094 degrees) is rejected with `OutOfRange`.
    """
    if not 0 < epsilon_deg < EPSILON_LIMIT_DEG:
        raise OutOfRange(
            f"epsilon_deg must lie in (0, {EPSILON_LIMIT_DEG}), got {epsilon_deg}"
        )
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


def sample_distance(d, sigma_d: float, rng: np.random.Generator):
    """Gamma ranging draw with mean d and variance sigma_d^2, elementwise."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise NonPositiveDistance("true distances must be positive")
    # An infinite shape (sigma_d = 0, or sigma_d below about 1e-154 m) means a
    # relative spread sigma_d / d far below one ulp: d is returned undrawn.
    var = sigma_d**2
    with np.errstate(divide="ignore", over="ignore"):
        shape = d**2 / var
    if not np.isfinite(shape).all():
        return d.copy()
    return rng.gamma(shape, var / d)


def sample_angle(theta, rho: float, rng: np.random.Generator):
    """Additive von Mises angle error with concentration rho."""
    theta = np.asarray(theta, dtype=float)
    return theta + rng.vonmises(0.0, rho, size=theta.shape)


def reflect_elevation(theta):
    """Fold angles into [0, pi] by reflection at both ends."""
    return np.abs(np.mod(np.asarray(theta) + np.pi, 2 * np.pi) - np.pi)


@dataclass(frozen=True)
class MeasurementSet:
    """One noisy realization of everything a scenario can observe.

    `adoa` is the full symmetric matrix of measured edge-to-edge angles with
    a zero diagonal: one draw per unordered pair, mirrored. Azimuth and
    elevation arrays are None in Scenario I. Masks are applied to the
    kernels built from a set (`gek.apply_mask`), not to the set itself.
    A pair-angle matrix that is not symmetric to the bit, or any non-finite
    value, is rejected with `OutOfRange`: the kernels rely on both.
    """

    scenario: Scenario
    distances: np.ndarray
    adoa: np.ndarray
    phi_xy: np.ndarray | None = None
    phi_xz: np.ndarray | None = None
    phi_yz: np.ndarray | None = None
    theta_x: np.ndarray | None = None
    theta_y: np.ndarray | None = None
    theta_z: np.ndarray | None = None

    def __post_init__(self):
        m = self.distances.shape[0]
        if self.adoa.shape != (m, m):
            raise ShapeMismatch("adoa matrix does not match the edge count")
        if not np.array_equal(self.adoa, self.adoa.T):
            raise OutOfRange("pair-angle matrix must be exactly symmetric")
        for name in (
            "distances", "adoa",
            "phi_xy", "phi_xz", "phi_yz",
            "theta_x", "theta_y", "theta_z",
        ):
            arr = getattr(self, name)
            if arr is not None:
                if not np.isfinite(arr).all():
                    raise OutOfRange(f"measured {name} must be finite")
                arr.setflags(write=False)

    @property
    def m(self) -> int:
        return self.distances.shape[0]

    @property
    def has_angles(self) -> bool:
        return self.phi_xy is not None

    def plane_components(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """In-plane edge components (u, v) = d sin(theta) (cos phi, sin phi)
        for the xy, xz and yz planes, in that order; Scenario II only."""
        if not self.has_angles:
            raise ShapeMismatch("plane components need azimuth/elevation data")
        d = self.distances
        return tuple(
            (r * np.cos(phi), r * np.sin(phi))
            for r, phi in (
                (d * np.sin(self.theta_z), self.phi_xy),
                (d * np.sin(self.theta_y), self.phi_xz),
                (d * np.sin(self.theta_x), self.phi_yz),
            )
        )


def synthesize(
    params: TrueParameters,
    config: NoiseConfig,
    scenario: Scenario,
    rng: np.random.Generator,
) -> MeasurementSet:
    """Draw one noisy measurement set from exact edge parameters.

    Draw order is fixed (distances, pair angles, then azimuths and
    elevations per plane) so that a given seed always produces the same set.

    Zero-length edges are rejected: neither a range nor any angle is defined
    there. Edges with a merely degenerate plane projection are accepted; the
    corresponding azimuth is conventionally zero and every downstream use
    scales it by the vanishing projected length, so box-corner anchor
    deployments (whose anchor-anchor edges run parallel to the axes) work.
    """
    if scenario not in ("I", "II"):
        raise OutOfRange(f"scenario must be 'I' or 'II', got {scenario!r}")
    if np.any(params.distances <= DEGENERATE_LENGTH):
        raise DegenerateEdge("cannot synthesize measurements on zero-length edges")

    d_tilde = sample_distance(params.distances, config.sigma_d, rng)

    rho = config.rho
    m = params.distances.shape[0]
    adoa = params.adoa.copy()
    if rho is not None:
        iu = _triu_indices(m, 1)
        adoa[iu] += rng.vonmises(0.0, rho, size=iu[0].shape[0])
        adoa.T[iu] = adoa[iu]

    if scenario == "I":
        return MeasurementSet(scenario="I", distances=d_tilde, adoa=adoa)

    if rho is None:
        phis = (params.phi_xy.copy(), params.phi_xz.copy(), params.phi_yz.copy())
        thetas = (params.theta_x.copy(), params.theta_y.copy(), params.theta_z.copy())
    else:
        phis = tuple(
            sample_angle(t, rho, rng)
            for t in (params.phi_xy, params.phi_xz, params.phi_yz)
        )
        thetas = tuple(
            reflect_elevation(sample_angle(t, rho, rng))
            for t in (params.theta_x, params.theta_y, params.theta_z)
        )
    return MeasurementSet(
        scenario="II",
        distances=d_tilde,
        adoa=adoa,
        phi_xy=phis[0],
        phi_xz=phis[1],
        phi_yz=phis[2],
        theta_x=thetas[0],
        theta_y=thetas[1],
        theta_z=thetas[2],
    )


def missing_mask(m: int, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Symmetric observation mask hiding the given fraction of entry pairs.

    Exactly round(fraction * m(m-1)/2) unordered off-diagonal pairs are
    marked unobserved and mirrored; the diagonal is always observed.
    """
    if not 0 <= fraction < 1:
        raise OutOfRange(f"fraction must lie in [0, 1), got {fraction}")
    mask = np.ones((m, m), dtype=bool)
    n_pairs = m * (m - 1) // 2
    n_hide = round(fraction * n_pairs)
    if n_hide == 0:
        return mask
    iu = np.triu_indices(m, 1)
    hide = rng.choice(n_pairs, size=n_hide, replace=False)
    mask[iu[0][hide], iu[1][hide]] = False
    mask[iu[1][hide], iu[0][hide]] = False
    return mask
