import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ive
from scipy.stats import kstest

from qmds import measurement
from qmds.errors import (
    DegenerateEdge,
    OutOfRange,
    QmdsError,
    ShapeMismatch,
)
from qmds.measurement import (
    EPSILON_LIMIT_DEG,
    MeasurementSet,
    NoiseConfig,
    _reflect_elevation,
    _sample_angle,
    _sample_distance,
    epsilon_to_rho,
    missing_mask,
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
    draws = _sample_distance(np.full(10**6, 10.0), 2.0, rng)
    assert abs(draws.mean() - 10.0) < 0.02
    assert abs(draws.var() - 4.0) < 0.08
    assert np.all(draws > 0)


def test_zero_sigma_is_exact():
    rng = np.random.default_rng(72)
    d = np.array([3.0, 5.0, 11.0])
    np.testing.assert_array_equal(_sample_distance(d, 0.0, rng), d)


@pytest.mark.parametrize("sigma_d", [1e-160, 1e-170])
def test_tiny_sigma_returns_distances_undrawn(sigma_d):
    # sigma_d^2 / d^2 is far below one ulp, and the Gamma parameters would
    # overflow or divide by zero: d comes back unchanged, nothing drawn.
    rng = np.random.default_rng(74)
    state = rng.bit_generator.state
    np.testing.assert_array_equal(_sample_distance([1.0, 30.0], sigma_d, rng),
                                  [1.0, 30.0])
    assert rng.bit_generator.state == state


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


@pytest.mark.parametrize("eps", [np.float16(1.5), np.float32(1.5)])
def test_rho_is_computed_in_double_precision(eps):
    # np.deg2rad kept a float16 or float32 argument's precision, and the
    # cache then served that rho for the equal float as well. The argument
    # is now a float before it reaches the cache.
    assert epsilon_to_rho(eps) == measurement._rho.__wrapped__(float(eps))


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
    # True returned 8882.25, the rho for 1 degree; "20", None, [20.0] and 1j
    # raised TypeError from the range comparison.
    for bad in (0.0, -5.0, EPSILON_LIMIT_DEG, 175.0, True, "20", None, [20.0], 1j):
        with pytest.raises(OutOfRange):
            epsilon_to_rho(bad)


def test_high_concentration_sampler():
    rng = np.random.default_rng(74)
    delta = _sample_angle(np.zeros(10**4), 1e6, rng)
    assert np.mean(np.abs(delta) < 0.01) > 0.99


def test_zero_concentration_is_uniform():
    rng = np.random.default_rng(75)
    delta = _sample_angle(np.zeros(10**5), 0.0, rng)
    stat, _ = kstest(delta, "uniform", args=(-np.pi, 2 * np.pi))
    assert stat < 0.01


def test_percentile_round_trip():
    rng = np.random.default_rng(76)
    rho = epsilon_to_rho(30.0)
    delta = _sample_angle(np.zeros(10**6), rho, rng)
    eps_hat = np.rad2deg(np.quantile(np.abs(delta), 0.9))
    assert abs(eps_hat - 30.0) < 1.0


def test_reflect_elevation():
    np.testing.assert_allclose(_reflect_elevation([-0.1, 0.5, np.pi + 0.1]),
                               [0.1, 0.5, np.pi - 0.1], atol=1e-15)
    rng = np.random.default_rng(77)
    folded = _reflect_elevation(rng.uniform(-10, 10, size=1000))
    assert np.all(folded >= 0) and np.all(folded <= np.pi)


def test_noise_config_validation():
    with pytest.raises(OutOfRange):
        NoiseConfig(sigma_d=-1.0)
    with pytest.raises(OutOfRange):
        NoiseConfig(epsilon_deg=162.0)
    # Each raised TypeError from np.isfinite or a comparison, but True,
    # which was taken as 1 m.
    for bad in ("1", None, 1j, True):
        with pytest.raises(OutOfRange, match="sigma_d must be a finite real"):
            NoiseConfig(sigma_d=bad)
    with pytest.raises(OutOfRange, match="epsilon_deg must be a finite real"):
        NoiseConfig(epsilon_deg="20")
    assert NoiseConfig().rho is None
    assert NoiseConfig(epsilon_deg=25.0).rho == pytest.approx(epsilon_to_rho(25.0))


def test_noise_config_refuses_a_variance_that_overflows():
    # sigma_d^2 must be a finite float: 1e154 squares to 1e308, 1e155 to inf,
    # which reached the Gamma draw or the harness's seed key untyped.
    assert NoiseConfig(sigma_d=1e154).sigma_d == 1e154
    for bad in (1e155, 1e200, 1e303, 10**200):
        with pytest.raises(OutOfRange, match="finite square"):
            NoiseConfig(sigma_d=bad)


def test_noise_config_resolves_its_levels_once(monkeypatch):
    resolved = []
    monkeypatch.setattr(measurement, "epsilon_to_rho",
                        lambda eps: resolved.append(eps) or epsilon_to_rho(eps))
    noise = NoiseConfig(2, 25)
    assert (noise.sigma_d, noise.epsilon_deg, noise.rho) == (2.0, 25.0,
                                                             epsilon_to_rho(25.0))
    assert type(noise.sigma_d) is float and type(noise.epsilon_deg) is float
    rng = np.random.default_rng(92)
    synthesize(sample_params(rng), noise, "II", rng)
    assert resolved == [25.0]


@pytest.mark.parametrize("call", [
    lambda: NoiseConfig(sigma_d=10**5000),
    lambda: NoiseConfig(sigma_d=-10**5000),
    lambda: NoiseConfig(epsilon_deg=10**5000),
    lambda: epsilon_to_rho(10**5000),
    lambda: missing_mask(10**5000, 0.3, np.random.default_rng(0)),
    lambda: missing_mask(-10**5000, 0.3, np.random.default_rng(0)),
], ids=["sigma", "negative-sigma", "epsilon", "rho", "mask", "negative-mask"])
def test_an_integer_past_the_digit_limit_is_named_by_its_size(call):
    # Python formats no int past 4,300 digits: each message raised that
    # ValueError in place of OutOfRange.
    with pytest.raises(OutOfRange, match=r"10\*\*(5000|10000)\.0"):
        call()


# ---- measurement synthesis ----


def test_noiseless_synthesis_is_exact():
    rng = np.random.default_rng(78)
    params = sample_params(rng)
    ms = synthesize(params, NoiseConfig(), "II", rng)
    np.testing.assert_array_equal(ms.distances, params.distances)
    np.testing.assert_array_equal(ms.adoa, params.adoa)
    np.testing.assert_array_equal(ms.azimuths, params.azimuths)
    np.testing.assert_array_equal(ms.elevations, params.elevations)
    assert not np.shares_memory(ms.azimuths, params.azimuths)
    assert not np.shares_memory(ms.elevations, params.elevations)


def test_scenario_one_has_no_angle_fields():
    rng = np.random.default_rng(79)
    ms = synthesize(sample_params(rng), NoiseConfig(1.0, 20.0), "I", rng)
    assert not ms.has_angles
    assert ms.azimuths is None and ms.elevations is None
    with pytest.raises(ShapeMismatch):
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
    for name in ("distances", "adoa", "azimuths", "elevations"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.parametrize("sigma_d", [0.0, 2.0])
def test_synthesis_draw_order(sigma_d):
    # ranges, pair angles, then six von Mises draws of size M: the xy, xz and
    # yz azimuths, then the x, y and z elevations
    params = sample_params(np.random.default_rng(88))
    m = params.distances.shape[0]
    rho = epsilon_to_rho(30.0)
    ms = synthesize(params, NoiseConfig(sigma_d, 30.0), "II", np.random.default_rng(7))
    rng = np.random.default_rng(7)
    d = params.distances
    if sigma_d:
        d = rng.gamma(d**2 / sigma_d**2, sigma_d**2 / d)
    np.testing.assert_array_equal(ms.distances, d)
    rng.vonmises(0.0, rho, size=m * (m - 1) // 2)
    noise = [rng.vonmises(0.0, rho, size=m) for _ in range(6)]
    np.testing.assert_array_equal(ms.azimuths, params.azimuths + noise[:3])
    np.testing.assert_array_equal(ms.elevations,
                                  _reflect_elevation(params.elevations + noise[3:]))


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
    assert np.all(np.isfinite(ms.plane_components()))


def test_plane_components_match_definition():
    rng = np.random.default_rng(82)
    params = sample_params(rng)
    ms = synthesize(params, NoiseConfig(1.0, 20.0), "II", rng)
    planes = ms.plane_components()
    assert planes.shape == (2, 3, ms.m) and planes.dtype == float
    # the xy, xz and yz planes pair with the elevations from z, y and x
    for u, v, theta, phi in zip(*planes, ms.elevations[[2, 1, 0]], ms.azimuths):
        r = ms.distances * np.sin(theta)
        np.testing.assert_allclose(u, r * np.cos(phi), atol=1e-12)
        np.testing.assert_allclose(v, r * np.sin(phi), atol=1e-12)
        np.testing.assert_allclose(np.hypot(u, v), r, atol=1e-12)


def test_exact_plane_components_are_edge_components():
    rng = np.random.default_rng(85)
    params = sample_params(rng)
    ms = synthesize(params, NoiseConfig(), "II", rng)
    a, b, c = params.vectors.T
    np.testing.assert_allclose(ms.plane_components(), [[a, a, b], [b, c, c]],
                               atol=1e-10)


def test_non_finite_measurements_rejected():
    rng = np.random.default_rng(86)
    ms = synthesize(sample_params(rng), NoiseConfig(1.0, 20.0), "II", rng)
    fields = {name: getattr(ms, name).copy() for name in (
        "distances", "adoa", "azimuths", "elevations")}
    for name, bad in (("distances", np.nan), ("adoa", np.inf),
                      ("azimuths", np.nan), ("elevations", -np.inf)):
        broken = {k: v.copy() for k, v in fields.items()}
        broken[name].flat[1] = bad
        if name == "adoa":
            broken[name][1, 0] = bad  # keep it symmetric
        with pytest.raises(QmdsError, match=name):
            MeasurementSet(**broken)


def _angle_set(m=4):
    return dict(distances=np.ones(m), adoa=np.zeros((m, m)),
                azimuths=np.zeros((3, m)), elevations=np.full((3, m), 1.0))


@pytest.mark.parametrize("change", [
    # angle arrays of shape (1,) used to broadcast into a 4 x 4 kernel
    {"azimuths": np.zeros(1), "elevations": np.ones(1)},
    # azimuths alone used to pass and fail later with an untyped TypeError
    {"elevations": None},
    {"azimuths": None},
    {"azimuths": np.zeros((4, 3)), "elevations": np.ones((4, 3))},
    {"azimuths": np.zeros((3, 5))},
    {"distances": np.ones((4, 1))},
    {"adoa": np.zeros((4, 5))},
    # complex values were accepted; build_quat_gek then dropped the imaginary
    # part of complex distances with a ComplexWarning and failed untyped
    {"distances": np.ones(4, complex)},
    {"adoa": np.zeros((4, 4), complex)},
    {"azimuths": np.zeros((3, 4), complex)},
    {"elevations": np.ones((3, 4), complex)},
])
def test_misshaped_sets_rejected(change):
    with pytest.raises(ShapeMismatch):
        MeasurementSet(**{**_angle_set(), **change})


def test_asymmetric_pair_angles_rejected():
    rng = np.random.default_rng(87)
    ms = synthesize(sample_params(rng), NoiseConfig(1.0, 20.0), "I", rng)
    adoa = ms.adoa.copy()
    adoa[0, 1] = np.nextafter(adoa[0, 1], 4.0)
    with pytest.raises(OutOfRange):
        MeasurementSet(ms.distances.copy(), adoa)


def test_measured_elevations_stay_in_range():
    rng = np.random.default_rng(83)
    ms = synthesize(sample_params(rng), NoiseConfig(0.0, 120.0), "II", rng)
    assert np.all(ms.elevations >= 0) and np.all(ms.elevations <= np.pi)


def test_exact_angles_are_copied_without_a_draw():
    rng = np.random.default_rng(90)
    state = rng.bit_generator.state
    theta = np.array([-0.5, 1.0, 4.0])
    exact = _sample_angle(theta, None, rng, fold=True)
    np.testing.assert_array_equal(exact, theta)  # neither drawn nor folded
    assert not np.shares_memory(exact, theta)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("scenario", ["I", "II"])
def test_exact_angles_draw_nothing_after_the_ranges(scenario):
    params = sample_params(np.random.default_rng(91))
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    ms = synthesize(params, NoiseConfig(2.0, 0.0), scenario, rng)
    d = params.distances
    np.testing.assert_array_equal(ms.distances, ref.gamma(d**2 / 4.0, 4.0 / d))
    assert rng.bit_generator.state == ref.bit_generator.state
    np.testing.assert_array_equal(ms.adoa, params.adoa)
    if scenario == "II":
        np.testing.assert_array_equal(ms.azimuths, params.azimuths)
        np.testing.assert_array_equal(ms.elevations, params.elevations)


def test_synthesize_has_one_exit_and_one_angle_draw():
    # Every scenario and noise level leaves synthesize by one return, and
    # every von Mises draw is made in _sample_angle.
    tree = ast.parse(Path(measurement.__file__).read_text())
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    returns = [n for n in ast.walk(functions["synthesize"]) if isinstance(n, ast.Return)]
    assert len(returns) == 1

    def vonmises_calls(node):
        return sum(isinstance(n, ast.Call) and ast.unparse(n.func).endswith(".vonmises")
                   for n in ast.walk(node))

    assert vonmises_calls(tree) == vonmises_calls(functions["_sample_angle"]) == 1


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


@pytest.mark.parametrize("m", [85.0, -3, 2.5, np.nan, True, 10**9])
def test_mask_size_must_be_a_nonnegative_integer_under_the_ceiling(m):
    # 85.0 and 2.5 raised TypeError, -3 ValueError and 10**9 MemoryError.
    with pytest.raises(OutOfRange, match="m must be|entries"):
        missing_mask(m, 0.3, np.random.default_rng(89))


def test_mask_fraction_bounds():
    for bad in (1.0, "0.3"):  # "0.3" raised TypeError from the comparison
        with pytest.raises(OutOfRange):
            missing_mask(10, bad, np.random.default_rng(87))
