import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ive
from scipy.stats import kstest

from qmds.errors import DegenerateEdge, NonPositiveDistance, OutOfRange, QmdsError
from qmds.measurement import (
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
from qmds.network import NetworkGeometry, true_parameters


def sample_params(rng):
    anchors = rng.uniform([0, 0, 0], [30, 30, 10], size=(4, 3))
    targets = rng.uniform([0, 0, 0], [30, 30, 10], size=(6, 3))
    return true_parameters(NetworkGeometry(anchors, targets))


# ---- ranging noise ----


def test_gamma_moments():
    rng = np.random.default_rng(71)
    draws = sample_distance(np.full(10**6, 10.0), 2.0, rng)
    assert abs(draws.mean() - 10.0) < 0.02
    assert abs(draws.var() - 4.0) < 0.08
    assert np.all(draws > 0)


def test_zero_sigma_is_exact():
    rng = np.random.default_rng(72)
    d = np.array([3.0, 5.0, 11.0])
    np.testing.assert_array_equal(sample_distance(d, 0.0, rng), d)


@pytest.mark.parametrize("sigma_d", [1e-160, 1e-170])
def test_tiny_sigma_returns_distances_undrawn(sigma_d):
    # sigma_d^2 / d^2 is far below one ulp, and the Gamma parameters would
    # overflow or divide by zero: d comes back unchanged, nothing drawn.
    rng = np.random.default_rng(74)
    state = rng.bit_generator.state
    np.testing.assert_array_equal(sample_distance([1.0, 30.0], sigma_d, rng),
                                  [1.0, 30.0])
    assert rng.bit_generator.state == state


def test_nonpositive_distance_rejected():
    rng = np.random.default_rng(73)
    with pytest.raises(NonPositiveDistance):
        sample_distance(np.array([2.0, 0.0]), 1.0, rng)
    with pytest.raises(NonPositiveDistance):
        sample_distance(-1.0, 1.0, rng)


# ---- angle noise calibration ----


def test_rho_monotone_in_epsilon():
    rhos = [epsilon_to_rho(e) for e in (10.0, 20.0, 30.0, 40.0, 50.0)]
    assert all(a > b for a, b in zip(rhos, rhos[1:]))


@pytest.mark.parametrize("eps, rho", [
    (10.0, 89.295584400558951),
    (20.0, 22.68962693464108),
    (30.0, 10.367056859902238),
    (40.0, 6.0710634823518133),
    (50.0, 4.1080924628846098),
])
def test_rho_on_the_default_grid_is_pinned(eps, rho):
    # Values of the earlier scipy quad/brentq inversion; every default grid
    # cell draws its angle noise with these concentrations.
    assert epsilon_to_rho(eps) == pytest.approx(rho, rel=1e-11, abs=0)


@pytest.mark.parametrize("eps", [0.012, 1.0, 10.0, 30.0, 50.0, 150.0, 161.0, 161.9])
def test_rho_reintegrates_to_ninety_percent(eps):
    # Independent of the library's Gauss-Legendre rule and its normalizer:
    # adaptive quadrature of the density exp(rho cos t) / (2 pi I0(rho)) over
    # [-eps, eps], the exponent shifted by -rho and written as
    # -2 rho sin^2(t/2). (scipy.stats.vonmises.cdf is off by 1.8e-6 at rho 89.)
    rho = epsilon_to_rho(eps)
    head, _ = quad(lambda t: np.exp(-2 * rho * np.sin(t / 2) ** 2),
                   0.0, np.deg2rad(eps), epsabs=0.0, epsrel=1e-13, limit=200)
    assert abs(head / (np.pi * ive(0, rho)) - 0.9) < 1e-12


def test_epsilon_beyond_the_concentration_bracket_rejected():
    # rho = 1e8 holds 90% of the mass within about +-0.0094 degrees
    assert epsilon_to_rho(0.0095) > 9e7
    for narrow in (0.009, 0.005, 1e-12):
        with pytest.raises(OutOfRange, match="narrower"):
            epsilon_to_rho(narrow)
        with pytest.raises(OutOfRange, match="narrower"):
            NoiseConfig(epsilon_deg=narrow)


def test_near_uniform_limit():
    # at the uniform limit the central 90% interval is exactly +-162 deg,
    # so just below it the required concentration is nearly zero
    assert epsilon_to_rho(161.9) < 1e-2


def test_epsilon_bounds_rejected():
    for bad in (0.0, -5.0, EPSILON_LIMIT_DEG, 175.0):
        with pytest.raises(OutOfRange):
            epsilon_to_rho(bad)


def test_high_concentration_sampler():
    rng = np.random.default_rng(74)
    delta = sample_angle(np.zeros(10**4), 1e6, rng)
    assert np.mean(np.abs(delta) < 0.01) > 0.99


def test_zero_concentration_is_uniform():
    rng = np.random.default_rng(75)
    delta = sample_angle(np.zeros(10**5), 0.0, rng)
    stat, _ = kstest(delta, "uniform", args=(-np.pi, 2 * np.pi))
    assert stat < 0.01


def test_percentile_round_trip():
    rng = np.random.default_rng(76)
    rho = epsilon_to_rho(30.0)
    delta = sample_angle(np.zeros(10**6), rho, rng)
    eps_hat = np.rad2deg(np.quantile(np.abs(delta), 0.9))
    assert abs(eps_hat - 30.0) < 1.0


def test_reflect_elevation():
    np.testing.assert_allclose(reflect_elevation([-0.1, 0.5, np.pi + 0.1]),
                               [0.1, 0.5, np.pi - 0.1], atol=1e-15)
    rng = np.random.default_rng(77)
    folded = reflect_elevation(rng.uniform(-10, 10, size=1000))
    assert np.all(folded >= 0) and np.all(folded <= np.pi)


def test_noise_config_validation():
    with pytest.raises(OutOfRange):
        NoiseConfig(sigma_d=-1.0)
    with pytest.raises(OutOfRange):
        NoiseConfig(epsilon_deg=162.0)
    assert NoiseConfig().rho is None
    assert NoiseConfig(epsilon_deg=25.0).rho == pytest.approx(epsilon_to_rho(25.0))


# ---- measurement synthesis ----


def test_noiseless_synthesis_is_exact():
    rng = np.random.default_rng(78)
    params = sample_params(rng)
    ms = synthesize(params, NoiseConfig(), "II", rng)
    np.testing.assert_array_equal(ms.distances, params.distances)
    np.testing.assert_array_equal(ms.adoa, params.adoa)
    np.testing.assert_array_equal(ms.phi_xy, params.phi_xy)
    np.testing.assert_array_equal(ms.theta_z, params.theta_z)


def test_scenario_one_has_no_angle_fields():
    rng = np.random.default_rng(79)
    ms = synthesize(sample_params(rng), NoiseConfig(1.0, 20.0), "I", rng)
    assert ms.scenario == "I"
    assert not ms.has_angles
    assert ms.phi_xy is None and ms.theta_x is None
    with pytest.raises(Exception):
        ms.plane_components()


def test_adoa_matrix_symmetric_zero_diagonal():
    rng = np.random.default_rng(80)
    ms = synthesize(sample_params(rng), NoiseConfig(0.5, 40.0), "I", rng)
    np.testing.assert_array_equal(ms.adoa, ms.adoa.T)
    np.testing.assert_array_equal(np.diag(ms.adoa), np.zeros(ms.m))


def test_identical_seeds_identical_sets():
    params = sample_params(np.random.default_rng(81))
    cfg = NoiseConfig(2.0, 30.0)
    a = synthesize(params, cfg, "II", np.random.default_rng(123))
    b = synthesize(params, cfg, "II", np.random.default_rng(123))
    for name in ("distances", "adoa", "phi_xy", "phi_xz", "phi_yz",
                 "theta_x", "theta_y", "theta_z"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


def test_zero_length_edges_rejected():
    geo = NetworkGeometry([[0, 0, 1], [1, 0, 0]], [[0, 0, 1]])
    params = true_parameters(geo)
    with pytest.raises(DegenerateEdge):
        synthesize(params, NoiseConfig(), "I", np.random.default_rng(0))


def test_axis_parallel_edges_tolerated():
    # Box-corner anchors make half the anchor edges axis-parallel; only the
    # projection (not the edge) is degenerate, so synthesis must proceed.
    geo = NetworkGeometry(
        [[0, 0, 10], [30, 0, 10], [30, 30, 10], [0, 30, 10], [0, 0, 0]],
        [[7.0, 11.0, 3.0], [22.0, 5.0, 8.0]],
    )
    params = true_parameters(geo)
    assert params.degenerate.any()
    ms = synthesize(params, NoiseConfig(1.0, 30.0), "II", np.random.default_rng(9))
    assert np.all(ms.distances > 0)
    for u, v in ms.plane_components():
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(v))


def test_plane_components_match_definition():
    rng = np.random.default_rng(82)
    params = sample_params(rng)
    ms = synthesize(params, NoiseConfig(1.0, 20.0), "II", rng)
    planes = ms.plane_components()
    cases = [
        (ms.theta_z, ms.phi_xy),
        (ms.theta_y, ms.phi_xz),
        (ms.theta_x, ms.phi_yz),
    ]
    for (u, v), (theta, phi) in zip(planes, cases):
        r = ms.distances * np.sin(theta)
        np.testing.assert_allclose(u, r * np.cos(phi), atol=1e-12)
        np.testing.assert_allclose(v, r * np.sin(phi), atol=1e-12)
        np.testing.assert_allclose(np.hypot(u, v), r, atol=1e-12)


def test_exact_plane_components_are_edge_components():
    rng = np.random.default_rng(85)
    params = sample_params(rng)
    ms = synthesize(params, NoiseConfig(), "II", rng)
    a, b, c = params.vectors.T
    for (u, v), expected in zip(ms.plane_components(), ((a, b), (a, c), (b, c))):
        np.testing.assert_allclose(u, expected[0], atol=1e-10)
        np.testing.assert_allclose(v, expected[1], atol=1e-10)


def test_non_finite_measurements_rejected():
    rng = np.random.default_rng(86)
    ms = synthesize(sample_params(rng), NoiseConfig(1.0, 20.0), "II", rng)
    fields = {name: getattr(ms, name).copy() for name in (
        "distances", "adoa", "phi_xy", "phi_xz", "phi_yz",
        "theta_x", "theta_y", "theta_z")}
    for name, bad in (("distances", np.nan), ("adoa", np.inf),
                      ("phi_yz", np.nan), ("theta_x", -np.inf)):
        broken = {k: v.copy() for k, v in fields.items()}
        broken[name].flat[1] = bad
        if name == "adoa":
            broken[name][1, 0] = bad  # keep it symmetric
        with pytest.raises(QmdsError, match=name):
            MeasurementSet("II", **broken)


def test_asymmetric_pair_angles_rejected():
    rng = np.random.default_rng(87)
    ms = synthesize(sample_params(rng), NoiseConfig(1.0, 20.0), "I", rng)
    adoa = ms.adoa.copy()
    adoa[0, 1] = np.nextafter(adoa[0, 1], 4.0)
    with pytest.raises(OutOfRange):
        MeasurementSet("I", ms.distances.copy(), adoa)


def test_measured_elevations_stay_in_range():
    rng = np.random.default_rng(83)
    ms = synthesize(sample_params(rng), NoiseConfig(0.0, 120.0), "II", rng)
    for t in (ms.theta_x, ms.theta_y, ms.theta_z):
        assert np.all(t >= 0) and np.all(t <= np.pi)


def test_invalid_scenario_rejected():
    rng = np.random.default_rng(84)
    with pytest.raises(OutOfRange):
        synthesize(sample_params(rng), NoiseConfig(), "III", rng)


# ---- observation masks ----


def test_full_mask():
    mask = missing_mask(10, 0.0, np.random.default_rng(85))
    assert mask.all()


def test_mask_hides_exact_count():
    mask = missing_mask(85, 0.3, np.random.default_rng(86))
    hidden = np.sum(~mask)
    assert hidden == 2 * 1071  # 1071 unordered pairs, mirrored
    np.testing.assert_array_equal(mask, mask.T)
    assert np.all(np.diag(mask))


def test_mask_fraction_bounds():
    with pytest.raises(OutOfRange):
        missing_mask(10, 1.0, np.random.default_rng(87))
