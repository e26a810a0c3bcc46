"""Point process sampling, elevation marks, and LoS model."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from uavcov.model import (
    ConstantElevation,
    GammaTanElevation,
    InvalidParameterError,
    NetworkParams,
    los_probability,
    realize_network,
)


def test_params_defaults_match_reference_scenario():
    p = NetworkParams(density=1e-6)
    assert p.power == 50.0
    assert p.noise == pytest.approx(10.0**-9.25)
    assert p.alpha == 2.75
    assert p.ell == 0.25
    assert p.beta == 0.1
    assert p.c1 == 24.5811
    assert p.c2 == 39.5971
    assert p.n_antennas == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        {"density": 0.0},
        {"density": -1e-6},
        {"density": 1e-6, "alpha": 2.0},
        {"density": 1e-6, "alpha": 1.5},
        {"density": 1e-6, "ell": -0.1},
        {"density": 1e-6, "ell": 1.5},
        {"density": 1e-6, "power": 0.0},
        {"density": 1e-6, "n_antennas": 0},
        {"density": 1e-6, "beta": 0.0},
        {"density": 1e-6, "noise": -1.0},
    ],
)
def test_params_rejects_out_of_range(kwargs):
    with pytest.raises(InvalidParameterError):
        NetworkParams(**kwargs)


def test_los_probability_values():
    # suburban constants, theta in radians
    assert los_probability(0.0, 24.5811, 39.5971) == pytest.approx(
        1.0 / 40.5971, rel=1e-12
    )
    theta = math.radians(25.0)
    want = 1.0 / (1.0 + 39.5971 * math.exp(-24.5811 * theta))
    assert los_probability(theta, 24.5811, 39.5971) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(0.9991305434, abs=5e-9)


def test_los_probability_monotone_and_bounded():
    thetas = np.linspace(0.0, math.pi / 2, 200)
    vals = los_probability(thetas, 24.5811, 39.5971)
    assert np.all(vals > 0.0) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) >= 0.0)
    # strictly increasing while still resolvable in double precision
    low = thetas <= 1.0
    assert np.all(np.diff(vals[low]) > 0.0)


def test_los_probability_domain():
    with pytest.raises(ValueError):
        los_probability(-0.1, 24.5811, 39.5971)
    with pytest.raises(ValueError):
        los_probability(math.pi / 2 + 0.1, 24.5811, 39.5971)


@pytest.mark.parametrize("theta", [-1e-12, math.pi / 2 + 1e-12, math.nan])
def test_los_probability_rejects_angles_just_outside_or_nan(theta):
    with pytest.raises(InvalidParameterError):
        los_probability(theta)
    with pytest.raises(InvalidParameterError):
        los_probability(np.array([0.3, theta, 0.4]))


def test_los_probability_is_the_written_out_law_bit_for_bit():
    # odd lengths exercise the SIMD loops' remainders
    c1, c2 = 24.5811, 39.5971
    for n in (1, 7, 1001):
        theta = np.linspace(0.0, math.pi / 2, n) if n > 1 else np.array([math.pi / 2])
        want = 1.0 / (1.0 + c2 * np.exp(-c1 * theta))
        assert np.array_equal(los_probability(theta, c1, c2), want)
    got = los_probability(0.3, c1, c2)
    assert type(got) is float
    assert got == float(1.0 / (1.0 + c2 * np.exp(-c1 * np.float64(0.3))))
    assert los_probability(np.empty(0)).shape == (0,)



def test_scalar_los_probability_equals_the_array_path_bit_for_bit():
    # a scalar angle takes scalar arithmetic; it must give the bits of the
    # same angle in an array, as a float, for Python and numpy scalars alike
    thetas = np.linspace(0.0, math.pi / 2, 10_001)
    want = los_probability(thetas)
    for theta, w in zip(thetas, want):
        for scalar in (float(theta), theta):
            got = los_probability(scalar)
            assert type(got) is float and got == w
            assert got == los_probability(np.array([scalar]))[0]


@pytest.mark.parametrize("theta", [-1e-12, math.pi / 2 + 1e-12, math.nan])
def test_numpy_scalar_angles_outside_the_range_are_refused(theta):
    with pytest.raises(InvalidParameterError):
        los_probability(np.float64(theta))


def test_poisson_counts():
    p = NetworkParams(density=5e-6)
    radius = 2000.0
    mean = p.density * math.pi * radius**2
    counts = [
        len(realize_network(p, ConstantElevation(0.3), radius, seed))
        for seed in range(400)
    ]
    counts = np.asarray(counts, dtype=float)
    # mean within 5 sigma of the Poisson mean, dispersion index near 1
    assert abs(counts.mean() - mean) <= 5.0 * math.sqrt(mean / len(counts))
    assert 0.9 <= counts.var() / counts.mean() <= 1.1


def test_projections_uniform_on_disk():
    p = NetworkParams(density=2e-5)
    radius = 1500.0
    real = realize_network(p, ConstantElevation(0.4), radius, 99)
    r2 = (real.x**2 + real.y**2) / radius**2
    # squared radius of a uniform disk point is Uniform(0,1)
    assert kstest(r2, "uniform").pvalue > 0.01
    angles = np.arctan2(real.y, real.x)
    assert kstest((angles + math.pi) / (2 * math.pi), "uniform").pvalue > 0.01


def test_altitude_identity():
    p = NetworkParams(density=1e-5)
    real = realize_network(p, GammaTanElevation(3.0, 0.5), 2000.0, 17)
    hd = np.hypot(real.x, real.y)
    assert np.allclose(real.altitude, hd * np.tan(real.theta), rtol=1e-12)
    assert np.allclose(real.distance_3d, hd / np.cos(real.theta), rtol=1e-12)


def test_marks_independent_of_projection():
    # APIL: elevation must not correlate with horizontal range
    p = NetworkParams(density=2e-5)
    real = realize_network(p, GammaTanElevation(2.0, 0.4), 2500.0, 31)
    hd = np.hypot(real.x, real.y)
    n = len(real)
    r = np.corrcoef(hd, real.theta)[0, 1]
    assert abs(r) <= 3.0 / math.sqrt(n)


def test_realization_reproducible():
    p = NetworkParams(density=1e-6)
    e = GammaTanElevation(3.0, 0.5)
    a = realize_network(p, e, 5000.0, 123)
    b = realize_network(p, e, 5000.0, 123)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.theta, b.theta)
    assert np.array_equal(a.los, b.los)


def test_constant_elevation_marks():
    e = ConstantElevation(math.radians(25.0))
    rng = np.random.default_rng(0)
    s = e.sample_tan(rng, 50)
    assert np.allclose(s, math.tan(math.radians(25.0)))
    # expectation of a function collapses to the function value
    assert e.expect(lambda t: np.cos(t) ** 2) == pytest.approx(
        math.cos(math.radians(25.0)) ** 2, rel=1e-14
    )


def test_constant_elevation_allows_ground_level():
    e = ConstantElevation(0.0)
    assert e.expect(lambda t: np.cos(t) ** 2) == pytest.approx(1.0)


def test_gamma_tan_shape_one_is_exponential():
    # a=1: tan(theta) ~ Exp(rate) with rate = 1/tan(theta_bar)
    e = GammaTanElevation(1.0, math.radians(45.0))
    rng = np.random.default_rng(5)
    s = e.sample_tan(rng, 20000)
    assert kstest(s, "expon", args=(0.0, math.tan(math.radians(45.0)))).pvalue > 0.01


def test_gamma_tan_concentrates_at_large_shape():
    e = GammaTanElevation(1e6, math.radians(30.0))
    rng = np.random.default_rng(6)
    s = np.arctan(e.sample_tan(rng, 5000))
    assert abs(np.degrees(np.mean(s)) - 30.0) < 0.1


def test_gamma_tan_mean_tangent():
    # E[tan Theta] = theta_bar's tangent for every shape
    for shape in (0.5, 1.0, 3.0, 20.0):
        e = GammaTanElevation(shape, 0.6)
        rng = np.random.default_rng(int(shape * 10))
        s = e.sample_tan(rng, 200000)
        se = s.std() / math.sqrt(len(s))
        assert abs(s.mean() - math.tan(0.6)) <= 4.0 * se


def test_gamma_tan_expectation_matches_sampling():
    e = GammaTanElevation(3.0, 0.5)
    val = e.expect(lambda t: np.cos(t) ** 2)
    rng = np.random.default_rng(8)
    s = 1.0 / (1.0 + e.sample_tan(rng, 400000) ** 2)  # cos^2(arctan T)
    assert val == pytest.approx(float(s.mean()), abs=4.0 * float(s.std()) / 600.0)


def test_gamma_tan_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        GammaTanElevation(0.0, 0.5)
    with pytest.raises(InvalidParameterError):
        GammaTanElevation(3.0, 0.0)
    with pytest.raises(InvalidParameterError):
        ConstantElevation(math.pi / 2)
