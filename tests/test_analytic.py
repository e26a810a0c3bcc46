"""Analytic coverage expressions against frozen high-precision oracles.

The frozen constants were computed with mpmath at 30 significant digits
through an independent route (mpmath.quad for every expectation,
mpmath.taylor for series coefficients, mpmath.invertlaplace or the
stable power series for the cell-free CDF), not through the library code
under test.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.integrate as si
from scipy.special import erfcx
from scipy.stats import kstest

from uavcov import analytic, model
from uavcov.analytic import (
    cellfree_coverage,
    downlink_coverage,
    effective_density_factor,
    interference_integral,
    jensen_lower_bound,
    nearest_sq_rate,
    peak_gain_cdf,
    thinned_points,
)
from uavcov.model import (
    ConstantElevation,
    GammaTanElevation,
    NetworkParams,
    los_probability,
    realize_network,
)
from uavcov.montecarlo import estimate_downlink, guard_radius
from uavcov.numerics import inverse_laplace, quadrature

E25 = ConstantElevation(math.radians(25.0))
E20 = ConstantElevation(math.radians(20.0))

# mpmath, dps=30: E[cos^2 (rho (1-l^(2/a)) + l^(2/a))] for the scenarios below
OMEGA_CONST_25 = 0.82094021645660748
OMEGA_GAMMATAN_3_20 = 0.77410813398945647


def _cos2(elev):
    return elev.expect(lambda th: np.cos(th) ** 2)


def _los_cos2(p, elev):
    return elev.expect(lambda th: los_probability(th, p.c1, p.c2) * np.cos(th) ** 2)


def test_effective_density_factor_closed_form():
    # constant elevation collapses the expectation to a single evaluation
    p = NetworkParams(density=1e-6)
    theta = math.radians(25.0)
    lv = 0.25 ** (2.0 / 2.75)
    rho = los_probability(theta, p.c1, p.c2)
    direct = math.cos(theta) ** 2 * (rho * (1.0 - lv) + lv)
    assert effective_density_factor(p, E25) == pytest.approx(direct, rel=1e-14)
    assert effective_density_factor(p, E25) == pytest.approx(OMEGA_CONST_25, rel=1e-13)


def test_effective_density_factor_unit_attenuation():
    # ell = 1 removes the LoS distinction entirely
    p = NetworkParams(density=1e-6, ell=1.0)
    assert effective_density_factor(p, E25) == pytest.approx(_cos2(E25), rel=1e-14)
    # which is the all-los-unit rate, whatever ell the scenario carries
    rate = nearest_sq_rate(NetworkParams(density=1e-6), E25, "all-los-unit")
    assert rate == pytest.approx(math.pi * p.density * _cos2(E25), rel=1e-14)


def test_effective_density_factor_gamma_tan_against_quad_oracle():
    p = NetworkParams(density=1e-6)
    elev = GammaTanElevation(3.0, math.radians(20.0))
    assert effective_density_factor(p, elev) == pytest.approx(
        OMEGA_GAMMATAN_3_20, rel=1e-12
    )
    # second, coarser oracle straight from scipy on the tangent scale
    lv = 0.25 ** (2.0 / 2.75)
    b = 3.0 / math.tan(math.radians(20.0))

    def integrand(u):
        th = math.atan(u)
        pdf = b**3.0 * u**2.0 * math.exp(-b * u) / math.gamma(3.0)
        rho = los_probability(th, p.c1, p.c2)
        return pdf * math.cos(th) ** 2 * (rho * (1.0 - lv) + lv)

    ref, _ = si.quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-13)
    assert effective_density_factor(p, elev) == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("shape", (1e-4, 0.05, 0.1))
def test_effective_density_factor_gamma_tan_below_unit_shape(shape):
    # the Gamma density's u^(shape - 1) endpoint singularity: below u = 1
    # the oracle runs in w = u^shape (mpmath's quadrature in u is itself off
    # here, by 0.09 at shape 0.02), above it in u out to infinity.  At small
    # shapes the mass sits within shape * log(1/u) of w = 1, so the w range
    # is cut at u = e^-1, e^-10 and e^-40
    p = NetworkParams(density=1e-6)
    elev = GammaTanElevation(shape, math.radians(20.0))
    with mpmath.workdps(30):
        a = mpmath.mpf(shape)
        lv = mpmath.mpf(0.25) ** (mpmath.mpf(2) / mpmath.mpf(2.75))
        rate = a / mpmath.tan(mpmath.radians(20))

        def moment(u):
            th = mpmath.atan(u / rate)
            rho = 1 / (1 + p.c2 * mpmath.exp(-p.c1 * th))
            return mpmath.cos(th) ** 2 * (rho * (1 - lv) + lv)

        cuts = [0] + [mpmath.exp(-a * k) for k in (40, 10, 1)] + [1]
        head = mpmath.quad(lambda w: moment(w ** (1 / a)) * mpmath.exp(-w ** (1 / a)), cuts)
        tail = mpmath.quad(lambda u: moment(u) * u ** (a - 1) * mpmath.exp(-u), [1, 10, mpmath.inf])
        want = float(head / mpmath.gamma(a + 1) + tail / mpmath.gamma(a))
    assert effective_density_factor(p, elev) == pytest.approx(want, rel=1e-12)


def test_moment_orderings():
    # E[rho cos^2] <= w_eff <= E[cos^2]: erasing NLoS UAVs thins the most
    p = NetworkParams(density=1e-6)
    for elev in (E25, GammaTanElevation(2.0, 0.4)):
        los, w, unit = (nearest_sq_rate(p, elev, case) / (math.pi * p.density)
                        for case in ("pure-los", "los-weighted", "all-los-unit"))
        assert los <= w <= unit + 1e-15


def test_density_factor_peaks_at_moderate_angle():
    # low angles lose LoS, high angles lose projected density
    p = NetworkParams(density=1e-6)
    degs = np.linspace(2.0, 70.0, 100)
    w = [effective_density_factor(p, ConstantElevation(math.radians(d))) for d in degs]
    i = int(np.argmax(w))
    assert 10.0 < degs[i] < 25.0
    assert w[i] > w[0] and w[i] > w[-1]


def test_peak_gain_cdf_spot_value():
    p = NetworkParams(density=1e-6)
    rate = math.pi * p.density * OMEGA_CONST_25
    # r chosen so the exponent is exactly -1
    r = rate ** (p.alpha / 2.0)
    assert peak_gain_cdf(r, p, E25) == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert peak_gain_cdf(0.0, p, E25) == 0.0
    assert peak_gain_cdf(np.inf, p, E25) == pytest.approx(1.0)


def test_peak_gain_cdf_monotone_vectorized():
    p = NetworkParams(density=1e-6)
    # window where the CDF is strictly inside (0, 1) in double precision
    rs = np.geomspace(1e-9, 1e-2, 40)
    vals = peak_gain_cdf(rs, p, E25)
    assert vals.shape == rs.shape
    assert np.all(vals > 0.0) and np.all(vals < 1.0)
    assert np.all(np.diff(vals) > 0.0)


def test_nearest_sq_rates():
    p = NetworkParams(density=1e-6)
    for elev in (E25, GammaTanElevation(2.0, 0.4)):
        for case, moment in (
            ("all-los-unit", _cos2(elev)),
            ("los-weighted", effective_density_factor(p, elev)),
            ("pure-los", _los_cos2(p, elev)),
        ):
            rate = nearest_sq_rate(p, elev, case)
            assert rate == pytest.approx(math.pi * p.density * moment, rel=1e-13), case
    with pytest.raises(ValueError):
        nearest_sq_rate(p, E25, "bogus")


def test_thinned_points_geometry():
    p = NetworkParams(density=1e-5)
    real = realize_network(p, E25, 2000.0, 12)
    pts = thinned_points(real, p.ell, p.alpha)
    scale = p.ell ** (-1.0 / p.alpha)
    los = real.los.astype(bool)
    assert np.allclose(pts[los, 0], real.x[los])
    assert np.allclose(pts[~los, 0], real.x[~los] * scale)
    erased = thinned_points(real, 0.0, p.alpha)
    assert len(erased) == int(np.sum(los))


# -- interference integral -----------------------------------------------------

# mpmath, dps=30, defining form
IG_U23_A275 = 4.6850759941486705
IG_U01_A275 = 0.26125173360170454


def test_interference_integral_quarter_pi():
    assert interference_integral(1.0, 0.5) == pytest.approx(math.pi / 4.0, abs=1e-12)


def test_interference_integral_frozen_values():
    v = 2.0 / 2.75
    assert interference_integral(2.3, v) == pytest.approx(IG_U23_A275, rel=1e-12)
    assert interference_integral(0.1, v) == pytest.approx(IG_U01_A275, rel=1e-12)


def test_interference_integral_defining_form_scipy_oracle():
    for u, v in ((0.7, 0.5), (3.1, 2.0 / 2.75), (12.0, 0.8), (0.02, 0.6)):
        tail, _ = si.quad(
            lambda r: 1.0 / (1.0 + r ** (1.0 / v)), 0.0, u**-v, epsabs=1e-14
        )
        want = u**v * (math.pi * v / math.sin(math.pi * v) - tail)
        assert interference_integral(u, v) == pytest.approx(want, rel=1e-9), (u, v)


def test_interference_integral_limits_and_domain():
    assert interference_integral(0.0, 0.6) == 0.0
    with pytest.raises(ValueError):
        interference_integral(1.0, 1.0)
    with pytest.raises(ValueError):
        interference_integral(-0.5, 0.5)


def test_interference_integral_monotone_in_u():
    v = 2.0 / 2.75
    us = np.geomspace(0.01, 100.0, 30)
    vals = [interference_integral(float(u), v) for u in us]
    assert np.all(np.diff(vals) > 0.0)


# -- downlink coverage ----------------------------------------------------------

# mpmath, dps=30: taylor coefficient of tau^(N-1) E(tau) at 1/beta
DOWNLINK_N3_LAM1E6_C25 = 0.9896169830877667
DOWNLINK_N1_LAM1E7_C20 = 0.79203779438238936
DOWNLINK_N2_LAM1E6_GT3_20 = 0.95384641929981731


def test_downlink_frozen_oracles():
    got = downlink_coverage(NetworkParams(density=1e-6, n_antennas=3), E25)
    assert got.value == pytest.approx(DOWNLINK_N3_LAM1E6_C25, abs=1e-10)
    assert got.method == "exact-integration"

    got = downlink_coverage(NetworkParams(density=1e-7), E20)
    assert got.value == pytest.approx(DOWNLINK_N1_LAM1E7_C20, abs=1e-10)

    got = downlink_coverage(
        NetworkParams(density=1e-6, n_antennas=2),
        GammaTanElevation(3.0, math.radians(20.0)),
    )
    assert got.value == pytest.approx(DOWNLINK_N2_LAM1E6_GT3_20, abs=1e-10)


def test_downlink_single_antenna_interference_limited_identity():
    # sigma0 = 0, N = 1: coverage is exactly 1/(1 + I(beta))
    p = NetworkParams(density=1e-6, noise=0.0, beta=0.4)
    v = 2.0 / p.alpha
    want = 1.0 / (1.0 + interference_integral(p.beta, v))
    assert downlink_coverage(p, E25).value == pytest.approx(want, rel=1e-10)


def test_downlink_interference_limited_scale_free():
    # without noise the density and elevation law cancel out entirely
    base = downlink_coverage(
        NetworkParams(density=1e-6, noise=0.0, n_antennas=2), E25
    ).value
    for params, elev in (
        (NetworkParams(density=4e-6, noise=0.0, n_antennas=2), E25),
        (NetworkParams(density=1e-7, noise=0.0, n_antennas=2), E20),
        (
            NetworkParams(density=1e-6, noise=0.0, n_antennas=2),
            GammaTanElevation(3.0, 0.5),
        ),
    ):
        assert downlink_coverage(params, elev).value == pytest.approx(base, rel=1e-9)


def test_downlink_alpha4_single_antenna_closed_form():
    # alpha = 4, N = 1: coverage is int_0^inf exp(-a z - b z^2) dz, an erfc
    # in closed form; the second point is noise-limited with coverage ~1e-11
    for density, beta, noise, theta in ((1e-6, 0.1, 10.0**-9.25, 25.0), (1e-12, 1e3, 1e-3, 60.0)):
        p = NetworkParams(density=density, alpha=4.0, beta=beta, noise=noise)
        elev = ConstantElevation(math.radians(theta))
        mu = math.pi * density * effective_density_factor(p, elev)
        a = 1.0 + interference_integral(beta, 0.5)
        b = beta * noise / (p.power * mu**2)
        want = math.sqrt(math.pi / (4.0 * b)) * erfcx(a / (2.0 * math.sqrt(b)))
        assert downlink_coverage(p, elev).value == pytest.approx(want, rel=1e-9)


def test_downlink_low_threshold_saturates():
    p = NetworkParams(density=1e-6, beta=1e-9)
    assert downlink_coverage(p, E25).value == pytest.approx(1.0, abs=1e-6)


def test_downlink_monotone_in_threshold_and_antennas():
    betas = np.geomspace(0.01, 10.0, 12)
    vals = [
        downlink_coverage(NetworkParams(density=1e-6, beta=float(b)), E25).value
        for b in betas
    ]
    assert np.all(np.diff(vals) < 0.0)
    by_n = [
        downlink_coverage(NetworkParams(density=1e-6, n_antennas=n), E25).value
        for n in (1, 2, 4, 8)
    ]
    assert np.all(np.diff(by_n) > 0.0)


def test_downlink_reported_error_is_small():
    got = downlink_coverage(NetworkParams(density=1e-6, n_antennas=4), E25)
    assert got.numerical_error < 1e-8


def _integrand_calls(monkeypatch):
    """Sizes of the panel batches that integrate evaluates, call by call."""
    calls = []
    panels = quadrature._kronrod_panels

    def counting(f, lo, hi):
        calls.append(lo.size)
        return panels(f, lo, hi)

    monkeypatch.setattr(quadrature, "_kronrod_panels", counting)
    return calls


@pytest.mark.parametrize("coverage, n, most", [
    (downlink_coverage, 1, 6), (downlink_coverage, 4, 6), (downlink_coverage, 16, 6),
    (downlink_coverage, 64, 6), (cellfree_coverage, 4, 5),
])
def test_quadrature_evaluates_each_round_in_one_integrand_call(monkeypatch, coverage, n, most):
    # panel by panel these made 15 (downlink) and 7 (cell-free) integrand calls
    calls = _integrand_calls(monkeypatch)
    beta = 0.1 if coverage is downlink_coverage else 1e4
    coverage(NetworkParams(density=1e-6, alpha=2.75, n_antennas=n, beta=beta), E25)
    assert 0 < len(calls) <= most


def test_analytic_values_converge_on_the_initial_partition(monkeypatch):
    # one integrand call per value, on the initial partition (gamma_tan
    # w_eff: one refinement round at most)
    calls = _integrand_calls(monkeypatch)
    for n in (1, 4, 16, 64):
        downlink_coverage(NetworkParams(density=1e-6, alpha=2.75, n_antennas=n), E25)
        assert len(calls) == 1, (n, calls)
        calls.clear()
    for alpha in (2.75, 4.0):
        cellfree_coverage(NetworkParams(density=1e-6, alpha=alpha, beta=10.0**4.2), E25)
        assert len(calls) == 1, (alpha, calls)
        calls.clear()
    effective_density_factor(NetworkParams(density=1e-6), GammaTanElevation(3.0, math.radians(20.0)))
    assert len(calls) <= 2, calls


def _exhausted(*args):
    raise quadrature.AccuracyError(
        "quadrature did not converge after 200 subdivisions", estimate=0.5, error_bound=1e-3)


@pytest.mark.parametrize("coverage", [downlink_coverage, cellfree_coverage])
def test_quadrature_failure_keeps_its_type(monkeypatch, coverage):
    # AccuracyError is an ArithmeticError: it came out as an
    # InvalidParameterError blaming alpha and lambda for the double range
    monkeypatch.setattr(analytic, "integrate", _exhausted)
    with pytest.raises(quadrature.AccuracyError, match="200 subdivisions") as exc:
        coverage(NetworkParams(density=1e-6, n_antennas=4), E25)
    assert type(exc.value) is quadrature.AccuracyError and exc.value.error_bound == 1e-3


def test_w_eff_quadrature_failure_keeps_its_type_in_the_jensen_bound(monkeypatch):
    # the bound integrates only through a gamma_tan elevation's w_eff
    monkeypatch.setattr(model, "integrate", _exhausted)
    with pytest.raises(quadrature.AccuracyError, match="200 subdivisions"):
        jensen_lower_bound(NetworkParams(density=1e-6, n_antennas=4),
                           GammaTanElevation(3.0, math.radians(20.0)))


# a fixed slice of the north-star grid: alpha, N and ell in full, theta and
# the elevation law cycling through (1, 10, 25, 60) deg x (constant, gamma_tan)
_NORTH_STAR_SLICE = [
    (alpha, n, ell, (1.0, 10.0, 25.0, 60.0)[i % 4], i % 2)
    for i, (alpha, n, ell) in enumerate(
        (alpha, n, ell)
        for alpha in (2.05, 2.3, 2.75, 4.0, 6.0)
        for n in (1, 4, 16, 64)
        for ell in (0.0, 0.25, 1.0)
    )
]


def test_initial_partition_agrees_with_one_panel_start(monkeypatch):
    # each value within its own numerical_error of the QAG-style start
    default = quadrature._INITIAL_PANELS

    def values(panels):
        monkeypatch.setattr(quadrature, "_INITIAL_PANELS", panels)
        return [
            coverage(NetworkParams(density=1e-6, alpha=alpha, n_antennas=n, ell=ell, beta=beta),
                     GammaTanElevation(3.0, math.radians(theta)) if law
                     else ConstantElevation(math.radians(theta)))
            for alpha, n, ell, theta, law in _NORTH_STAR_SLICE
            for coverage, beta in ((downlink_coverage, 0.1), (cellfree_coverage, 10.0**4.2))
        ]

    assert len(_NORTH_STAR_SLICE) == 60
    for one, many in zip(values(1), values(default)):
        assert abs(one.value - many.value) <= max(one.numerical_error, many.numerical_error)


@pytest.mark.parametrize(
    "alpha, n, n_samples, seed",
    [(6.0, 8, 20_000, 6008)] + [(4.0, n, 10_000, 4000 + n) for n in (16, 32, 48, 64)],
)
def test_downlink_matches_monte_carlo_at_low_density(alpha, n, n_samples, seed):
    # sparse networks: alpha = 6 puts the mass at very small z, alpha = 4 with
    # many antennas needs high-order coefficients
    p = NetworkParams(density=1e-7, alpha=alpha, n_antennas=n)
    got = downlink_coverage(p, E25)
    est = estimate_downlink(p, E25, n_samples, seed)
    z = abs(got.value - est.mean) / max(est.std_error, 1.0 / n_samples)
    assert z <= 3.0, (got, est.mean, est.std_error)


def test_jensen_bound_frozen_oracle_and_ordering():
    p = NetworkParams(density=1e-6, n_antennas=3)
    jb = jensen_lower_bound(p, E25)
    assert jb.method == "bound"
    # exp(-T beta - I(beta, 2/alpha)), the N = 1 value, from 40-digit mpmath
    assert jb.value == pytest.approx(0.77003587517188598, abs=1e-10)
    for n in (1, 2, 4, 8):
        for dens in (1e-7, 1e-6):
            params = NetworkParams(density=dens, n_antennas=n)
            lower = jensen_lower_bound(params, E25).value
            exact = downlink_coverage(params, E25).value
            assert lower <= exact + 1e-9, (n, dens)


def test_jensen_bound_tightens_at_low_threshold():
    # gap is O(I^2); at beta = 1e-3 both sit within ~4e-6 of each other
    p = NetworkParams(density=1e-6, noise=0.0, beta=1e-3)
    lower = jensen_lower_bound(p, E25).value
    exact = downlink_coverage(p, E25).value
    assert lower <= exact
    assert exact - lower <= 1e-5


# -- cell-free coverage ----------------------------------------------------------

# mpmath, dps=30, invertlaplace of exp(-kappa s^v)/s
CELLFREE_N2_BETA5000 = 0.99300292387337049
CELLFREE_N1_BETA12000 = 0.32563774839864216


def test_cellfree_frozen_oracles():
    got = cellfree_coverage(NetworkParams(density=1e-6, n_antennas=2, beta=5000.0), E25)
    assert got.value == pytest.approx(CELLFREE_N2_BETA5000, abs=1e-8)
    got = cellfree_coverage(NetworkParams(density=1e-6, beta=12000.0), E25)
    assert got.value == pytest.approx(CELLFREE_N1_BETA12000, abs=1e-8)


def test_cellfree_alpha4_closed_form_equals_inversion():
    # at alpha = 4 the stable CDF is erfc(kappa / (2 sqrt t)), so coverage is erf
    for n in (1, 2, 4, 8):
        for beta in (0.01, 0.1, 1.0, 10.0):
            p = NetworkParams(density=1e-6, alpha=4.0, n_antennas=n, beta=beta)
            kappa = (math.pi * p.density * effective_density_factor(p, E25)
                     * math.gamma(n + 0.5) * math.sqrt(math.pi) / math.factorial(n - 1))
            t = p.beta * p.noise / p.power
            got = cellfree_coverage(p, E25).value
            assert abs(got - math.erf(kappa / (2.0 * math.sqrt(t)))) <= 1e-6, (n, beta)
            talbot = 1.0 - inverse_laplace(lambda s: np.exp(-kappa * np.sqrt(s)) / s, t)
            assert abs(got - talbot) <= 1e-6, (n, beta)


# alpha, N, density, beta dB, theta deg -> mpmath, dps=60: the power series
# (1/pi) sum_k (-1)^(k+1) Gamma(k v) sin(k pi v) z^k / k! of P[S >= t]; the
# first two agree with mpmath.quad of Zolotarev's integral to 17 digits
CELLFREE_SERIES_ORACLES = [
    # Talbot inversion raised AccuracyError at these two
    ((2.1, 2, 1e-8, 40.0, 60.0), 0.99038252314581143),
    ((2.3, 1, 1e-7, 40.0, 25.0), 0.99997477415264815),
    # small coverage: relative accuracy
    ((2.05, 1, 1e-8, 75.0, 25.0), 5.9275777170720154e-5),
    ((6.0, 8, 1e-8, 35.0, 25.0), 1.5470668183436808e-5),
    ((4.0, 1, 1e-10, 45.0, 25.0), 3.833031579910519e-7),
]


@pytest.mark.parametrize("case,want", CELLFREE_SERIES_ORACLES,
                         ids=[f"alpha{c[0]}-N{c[1]}-{c[3]:g}dB" for c, _ in CELLFREE_SERIES_ORACLES])
def test_cellfree_series_oracles(case, want):
    alpha, n, density, beta_db, theta_deg = case
    p = NetworkParams(density=density, alpha=alpha, n_antennas=n, beta=10.0 ** (beta_db / 10.0))
    got = cellfree_coverage(p, ConstantElevation(math.radians(theta_deg)))
    assert abs(got.value - want) <= got.numerical_error <= 1e-9 * want, got


def test_cellfree_many_antennas():
    # Gamma(N + 2/alpha) overflows a double from N = 171 on
    got = cellfree_coverage(NetworkParams(density=1e-6, n_antennas=180), E25)
    assert got.value == 1.0


def test_cellfree_requires_noise():
    p = NetworkParams(density=1e-6, noise=0.0)
    with pytest.raises(ValueError):
        cellfree_coverage(p, E25)


def test_cellfree_saturates_at_reference_threshold():
    # at beta = 0.1 the total received power dwarfs the noise floor
    p = NetworkParams(density=1e-6)
    assert cellfree_coverage(p, E25).value == 1.0


def test_cellfree_monotone():
    betas = np.geomspace(1e3, 1e5, 10)
    vals = [
        cellfree_coverage(NetworkParams(density=1e-6, beta=float(b)), E25).value
        for b in betas
    ]
    assert np.all(np.diff(vals) < 0.0)
    dens = [
        cellfree_coverage(NetworkParams(density=d, beta=8000.0), E25).value
        for d in (3e-7, 1e-6, 3e-6)
    ]
    assert np.all(np.diff(dens) > 0.0)


@pytest.mark.parametrize("density", (1e-7, 1e-6))
@pytest.mark.parametrize("n", (1, 4, 16))
@pytest.mark.parametrize("beta_db", (-10.0, 20.0))
@pytest.mark.parametrize("theta_deg", (0.0, 15.0, 35.0))
@pytest.mark.parametrize("alpha", (2.05, 2.1, 2.3))
def test_cellfree_near_alpha_two_is_finite(alpha, theta_deg, beta_db, n, density):
    # kappa t^-v and the exponent 1/(1 - v) grow without bound as alpha -> 2
    p = NetworkParams(
        density=density, alpha=alpha, n_antennas=n, beta=10.0 ** (beta_db / 10.0)
    )
    got = cellfree_coverage(p, ConstantElevation(math.radians(theta_deg))).value
    assert math.isfinite(got) and 0.0 <= got <= 1.0


def test_cellfree_vanishes_for_sparse_network():
    p = NetworkParams(density=1e-12, beta=8000.0)
    assert cellfree_coverage(p, E25).value <= 1e-6


def test_coverage_orderings_across_grid():
    # downlink never beats cell-free; Jensen never beats downlink
    for n in (1, 4):
        for dens in (1e-7, 1e-6):
            p = NetworkParams(density=dens, n_antennas=n)
            dl = downlink_coverage(p, E25).value
            cf = cellfree_coverage(p, E25).value
            jb = jensen_lower_bound(p, E25).value
            assert jb <= dl + 1e-9
            assert dl <= cf + 1e-9


# The reprs of every analytic value at these settings, as recorded before
# the semi-infinite quadrature's first round was cached and the scalar LoS
# path added: those were speed-ups only, and this pins that no bit moved.
# Key: (alpha, N, density, theta_bar deg, elevation law, noise, cell-free
# beta dB or None without noise); value: downlink value and
# numerical_error, Jensen value, cell-free value and numerical_error,
# w_eff and guard_radius at tolerance 1e-3.  gamma_tan has shape 3.
NOISE = 10.0 ** -9.25
GOLDEN_BITS = {
    (2.05, 1, 1e-06, 25.0, 'constant', NOISE, 70.0): (
        '0.20036351193448174', '2.0036351193448174e-11', '0.01848254116593065',
        '0.059379532344986115', '4.312476133577055e-12', '0.820864320238359', '16449.72761653936',
    ),
    (2.05, 4, 1e-07, 10.0, 'gamma_tan', 0.0, None): (
        '0.5904524144413815', '5.904524144413816e-11', '0.00010172989621408846',
        None, None, '0.6286124366484929', '59402.14982819232',
    ),
    (2.05, 24, 1e-05, 60.0, 'constant', 0.0, None): (
        '0.995266850375982', '9.95266850375982e-11', '2.3936414276124134e-18',
        None, None, '0.24999999995143024', '5200.606268079686',
    ),
    (2.05, 24, 1e-06, 25.0, 'gamma_tan', NOISE, 95.0): (
        '0.9952668464520048', '9.952668464520048e-11', '0.018482539983456395',
        '0.0014202870459641627', '2.171858507692081e-14', '0.7445412536249457', '17114.978530420576',
    ),
    (2.75, 1, 1e-06, 25.0, 'constant', NOISE, 42.0): (
        '0.7928248499457627', '7.928248499457628e-11', '0.770035875171886',
        '0.2520994022202576', '2.010812495642304e-11', '0.8209402164566074', '17336.30358249965',
    ),
    (2.75, 1, 1e-07, 60.0, 'gamma_tan', 0.0, None): (
        '0.7928631322030705', '7.928631322030705e-11', '0.7700870384290887',
        None, None, '0.3498790830173795', '68137.88026596431',
    ),
    (2.75, 4, 1e-05, 10.0, 'constant', NOISE, 60.0): (
        '0.9976610865322835', '9.976610865322835e-11', '0.77008460954593',
        '0.3578416724389505', '2.9061274622296262e-11', '0.7531898864986297', '5963.398513531982',
    ),
    (2.75, 24, 1e-06, 25.0, 'gamma_tan', NOISE, 60.0): (
        '1.0', '1e-10', '0.7700295738220146',
        '0.10915707966392223', '8.38664410665769e-12', '0.754440443812524', '18015.13749785882',
    ),
    (6.0, 1, 1e-07, 10.0, 'constant', 0.0, None): (
        '0.9540923494869786', '9.540923494869787e-11', '0.9530226875541816',
        None, None, '0.8436179277002439', '17841.241161527712',
    ),
    (6.0, 1, 1e-06, 60.0, 'gamma_tan', 0.0, None): (
        '0.9540923494869786', '9.540923494869787e-11', '0.9530226875541816',
        None, None, '0.35088908275620617', '5641.895835477563',
    ),
    (6.0, 4, 1e-06, 25.0, 'gamma_tan', NOISE, 42.0): (
        '0.035651006143472344', '3.5651006143472346e-12', '0.0',
        '0.0006711244928998912', '6.537135815494444e-14', '0.7791333957721154', '5641.895835477563',
    ),
    (6.0, 24, 1e-07, 25.0, 'constant', NOISE, 30.0): (
        '0.0070966242494375584', '7.096624249437559e-13', '0.0',
        '0.00033054024575416126', '3.219660752757566e-14', '0.8211295351418345', '17841.241161527712',
    ),
}


@pytest.mark.parametrize("setting", GOLDEN_BITS)
def test_analytic_values_keep_their_recorded_bits(setting):
    alpha, n, density, theta_deg, law, noise, cf_beta_db = setting
    p = NetworkParams(density=density, alpha=alpha, n_antennas=n, noise=noise)
    theta = math.radians(theta_deg)
    elev = ConstantElevation(theta) if law == "constant" else GammaTanElevation(3.0, theta)
    dl = downlink_coverage(p, elev)
    got = [dl.value, dl.numerical_error, jensen_lower_bound(p, elev).value]
    if cf_beta_db is None:
        got += [None, None]
    else:
        cf = cellfree_coverage(replace(p, beta=10.0 ** (cf_beta_db / 10.0)), elev)
        got += [cf.value, cf.numerical_error]
    got += [effective_density_factor(p, elev), guard_radius(p, elev, 1e-3)]
    assert tuple(None if x is None else repr(x) for x in got) == GOLDEN_BITS[setting]
