"""Noise models and measurement synthesis.

Ranging errors follow a Gamma distribution whose mean is the true distance d
and whose variance is sigma_d^2 (shape d^2/sigma_d^2, scale sigma_d^2/d).
Angle errors are additive von Mises (Tikhonov) deviates centered at zero.
Angular noise level is specified as epsilon, the half-width in degrees of
the central interval holding 90% of the error mass; `epsilon_to_rho` inverts
that definition numerically to the concentration parameter. The uniform
density already holds 90% inside +-162 degrees, so epsilon must stay below
that, and larger epsilon always means smaller rho.

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
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ive

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


@dataclass(frozen=True)
class NoiseConfig:
    """Noise levels: ranging std in meters, angle spread in degrees."""

    sigma_d: float = 0.0
    epsilon_deg: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.sigma_d) or self.sigma_d < 0:
            raise OutOfRange(f"sigma_d must be finite and >= 0, got {self.sigma_d}")
        if not 0 <= self.epsilon_deg < EPSILON_LIMIT_DEG:
            raise OutOfRange(
                f"epsilon_deg must lie in [0, {EPSILON_LIMIT_DEG}), "
                f"got {self.epsilon_deg}"
            )

    @property
    def rho(self) -> float | None:
        """Concentration for the configured epsilon; None means exact angles."""
        if self.epsilon_deg == 0:
            return None
        return epsilon_to_rho(self.epsilon_deg)


def _vm_mass(eps_rad: float, rho: float) -> float:
    """Probability mass of the centered von Mises law on [-eps, eps]."""
    # exp(rho cos t) / (2 pi I0(rho)) written with the scaled Bessel
    # function so large rho cannot overflow.
    den = 2 * np.pi * ive(0, rho)

    def pdf(t: float) -> float:
        return np.exp(rho * (np.cos(t) - 1.0)) / den

    # Nearly all mass sits within a few 1/sqrt(rho) of zero; splitting the
    # interval there keeps the quadrature from missing the spike.
    w = min(eps_rad, 12.0 / np.sqrt(max(rho, 1.0)))
    head, _ = quad(pdf, 0.0, w)
    tail, _ = quad(pdf, w, eps_rad) if w < eps_rad else (0.0, 0.0)
    return 2.0 * (head + tail)


@lru_cache(maxsize=None)
def epsilon_to_rho(epsilon_deg: float) -> float:
    """Concentration rho whose central 90% interval is +-epsilon degrees.

    Solved by root bracketing on rho in [1e-6, 1e8], which covers epsilon
    from about 0.01 degrees up to the uniform limit.
    """
    if not 0 < epsilon_deg < EPSILON_LIMIT_DEG:
        raise OutOfRange(
            f"epsilon_deg must lie in (0, {EPSILON_LIMIT_DEG}), got {epsilon_deg}"
        )
    eps = np.deg2rad(epsilon_deg)
    lo, hi = _RHO_BRACKET
    if _vm_mass(eps, lo) >= 0.9:
        return lo
    return float(brentq(lambda rho: _vm_mass(eps, rho) - 0.9, lo, hi, xtol=1e-9))


def sample_distance(d, sigma_d: float, rng: np.random.Generator):
    """Gamma ranging draw with mean d and variance sigma_d^2, elementwise."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise NonPositiveDistance("true distances must be positive")
    if sigma_d == 0:
        return d.copy()
    shape = d**2 / sigma_d**2
    scale = sigma_d**2 / d
    return rng.gamma(shape, scale)


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
        for name in (
            "distances", "adoa",
            "phi_xy", "phi_xz", "phi_yz",
            "theta_x", "theta_y", "theta_z",
        ):
            arr = getattr(self, name)
            if arr is not None:
                arr.setflags(write=False)

    @property
    def m(self) -> int:
        return self.distances.shape[0]

    @property
    def has_angles(self) -> bool:
        return self.phi_xy is not None

    def plane_distances(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Projected lengths d * sin(theta) per plane, Scenario II only."""
        if not self.has_angles:
            raise ShapeMismatch("plane distances need azimuth/elevation data")
        d = self.distances
        return (
            d * np.sin(self.theta_z),
            d * np.sin(self.theta_y),
            d * np.sin(self.theta_x),
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
        iu = np.triu_indices(m, 1)
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
