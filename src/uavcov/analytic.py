"""Closed-form and semi-analytic coverage expressions.

Everything here reduces to four ingredients:

* the effective density factor: the marked 3D process, seen through
  attenuated path gains, behaves like a planar Poisson process whose density
  is the planar density times E[cos^2(Theta) (rho(Theta)(1 - ell^(2/alpha))
  + ell^(2/alpha))];
* exponential laws for the nearest weighted point of that equivalent process;
* an interference integral I(u, v), an incomplete beta function, entering
  every SINR expression;
* the exponential of a power series (jet_exp), whose first N coefficients
  turn Gamma(N, 1) fading into coverage; every term is nonnegative, and one
  adaptive integral takes the expectation over the association distance.

Angles are radians; powers linear mW; beta is a linear SINR threshold.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import beta as beta_fn, betainc

from .model import los_probability
from .numerics.jets import jet_exp
from .numerics.laplace import inverse_laplace_cdf
from .numerics.quadrature import DEFAULT_QUAD, integrate


# -- results ----------------------------------------------------------------


@dataclass(frozen=True)
class CoverageResult:
    """A coverage probability plus how it was obtained.

    method is one of 'exact-integration', 'closed-form', 'bound';
    numerical_error is the internal accuracy estimate (quadrature tolerance,
    inversion clamp, clamp into [0, 1]), not a statistical error.
    """

    value: float
    method: str
    numerical_error: float


# -- angle moments ----------------------------------------------------------


def effective_density_factor(params, elev):
    """E[cos^2(Theta) (rho(Theta)(1 - ell^(2/alpha)) + ell^(2/alpha))].

    Scaling the planar density by this factor gives the equivalent 2D
    process of attenuation-adjusted distances; it is the single number
    through which the elevation law touches every coverage expression.
    """
    lv = params.ell ** (2.0 / params.alpha)

    def fn(theta):
        rho = los_probability(theta, params.c1, params.c2)
        return np.cos(theta) ** 2 * (rho * (1.0 - lv) + lv)

    return elev.expect(fn)


def cos2_moment(elev):
    """E[cos^2(Theta)]: the density factor when no attenuation is applied."""
    return elev.expect(lambda th: np.cos(th) ** 2)


def los_cos2_moment(params, elev):
    """E[rho(Theta) cos^2(Theta)]: density factor when NLoS UAVs are erased."""

    def fn(theta):
        return los_probability(theta, params.c1, params.c2) * np.cos(theta) ** 2

    return elev.expect(fn)


def tail_gain_moment(params, elev, order):
    """E[E[L^order | Theta] cos^(order*alpha)(Theta)] for far-field moments.

    order=1 gives the mean path-gain mass per unit area at large range,
    order=2 the matching second moment; both enter truncation control.
    """
    lk = params.ell**order

    def fn(theta):
        rho = los_probability(theta, params.c1, params.c2)
        return (rho + (1.0 - rho) * lk) * np.cos(theta) ** (order * params.alpha)

    return elev.expect(fn)


# -- distance laws ----------------------------------------------------------


def peak_gain_cdf(r, params, elev):
    """CDF of the strongest path gain max_i L_i ||U_i||^(-alpha).

    Exponential in r^(-2/alpha): F(r) = exp(-pi density w_eff r^(-2/alpha)).
    Vectorized over r; F(r) = 0 for r <= 0.
    """
    v = 2.0 / params.alpha
    rate = math.pi * params.density * effective_density_factor(params, elev)
    r = np.asarray(r, dtype=float)
    out = np.where(r > 0.0, np.exp(-rate * np.maximum(r, 1e-300) ** (-v)), 0.0)
    return float(out) if out.ndim == 0 else out


_NEAREST_CASES = ("all-los-unit", "los-weighted", "pure-los")


def nearest_sq_ccdf(y, params, elev, case):
    """CCDF of a squared nearest distance in the equivalent planar process.

    case 'all-los-unit': min ||U_i||^2 with attenuation ignored (L = 1);
    rate pi density E[cos^2].  case 'los-weighted': min (L^(-1/alpha)
    ||U_i||)^2; rate pi density w_eff.  case 'pure-los': min ||U_i||^2 over
    LoS UAVs only; rate pi density E[rho cos^2].
    """
    rate = nearest_sq_rate(params, elev, case)
    y = np.asarray(y, dtype=float)
    if np.any(y < 0.0):
        raise ValueError("squared distances must be >= 0")
    out = np.exp(-rate * y)
    return float(out) if out.ndim == 0 else out


def nearest_sq_rate(params, elev, case):
    """The exponential rate pi * density * c used by nearest_sq_ccdf."""
    if case == "all-los-unit":
        c = cos2_moment(elev)
    elif case == "los-weighted":
        c = effective_density_factor(params, elev)
    elif case == "pure-los":
        c = los_cos2_moment(params, elev)
    else:
        raise ValueError(f"case must be one of {_NEAREST_CASES}, got {case!r}")
    return math.pi * params.density * c


def thinned_points(realization, ell, alpha):
    """Scale each UAV position by L^(-1/alpha), absorbing attenuation into range.

    Returns an (m, 3) array of scaled (x, y, altitude).  With ell = 0 the
    NLoS points are erased instead of pushed to infinity.
    """
    los = realization.los.astype(bool)
    pts = np.column_stack([realization.x, realization.y, realization.altitude])
    if ell == 0.0:
        return pts[los]
    scale = np.where(los, 1.0, ell ** (-1.0 / alpha))
    return pts * scale[:, None]


# -- interference integral ---------------------------------------------------


def interference_integral(u, v):
    """I(u, v) = u^v (pi v / sin(pi v) - int_0^{u^-v} dr/(1 + r^{1/v})).

    Closed form: I = v u^v B(1 - v, v) I_q(1 - v, v) with q = u/(1 + u) and
    I_q the regularized incomplete beta function; unlike the defining form
    it does not cancel for small u.
    """
    if not 0.0 < v < 1.0:
        raise ValueError(f"v must lie in (0, 1), got {v!r}")
    if u < 0.0:
        raise ValueError(f"u must be >= 0, got {u!r}")
    if u == 0.0:
        return 0.0
    return _ig_series(u, v, 0)[0]


def _ig_series(s0, v, k):
    """I0 = I(s0, v) and b_1..b_k with I(s0 (1 - h), v) = I0 - sum_j b_j h^j.

    b_j = v s0^v B(j - v, 1 + v) I_q(j - v, 1 + v), q = s0/(1 + s0): every
    b_j is nonnegative and they sum to I0 over all j.
    """
    j = np.arange(k + 1, dtype=float)
    a = np.where(j == 0, 1.0 - v, j - v)
    b = np.where(j == 0, v, 1.0 + v)
    terms = v * s0**v * beta_fn(a, b) * betainc(a, b, s0 / (1.0 + s0))
    return float(terms[0]), terms[1:]


# -- coverage ---------------------------------------------------------------


def downlink_coverage(params, elev):
    """Coverage P[SINR >= beta] for the strongest-UAV downlink.

    With Gamma(N, 1) serving fading, coverage is the sum of the first N
    Taylor coefficients in h of the Laplace transform L(beta (1 - h)) of
    the normalized interference-plus-noise.  Conditioned on z, the
    association variable scaled to a unit exponential, log L is
    -c s z^{alpha/2} - z I(s) with s = beta (1 - h) and c = noise / (power
    (pi density w_eff)^{alpha/2}); its h-coefficients beyond the first are
    nonnegative, so jet_exp's coefficients are too and nothing cancels.
    One adaptive integral over z, with the exponential weight folded into
    the row, gives the value; numerical_error is the quadrature tolerance
    (plus the distance of any clamp into [0, 1]).
    """
    alpha = params.alpha
    mu = math.pi * params.density * effective_density_factor(params, elev)
    c = params.noise / params.power / mu ** (alpha / 2.0)
    s0 = params.beta
    i0, b = _ig_series(s0, 2.0 / alpha, int(params.n_antennas) - 1)
    # z = scale * y puts the integrand's decay at y ~ 1, however small the
    # noise term makes it in z
    scale = 1.0 / (1.0 + i0 + (c * s0) ** (2.0 / alpha))

    def f(y):
        z = scale * np.asarray(y, dtype=float)[..., None]
        noise = c * s0 * z ** (alpha / 2.0)
        row = np.concatenate([-noise - z * (1.0 + i0), z * b], axis=-1)
        row[..., 1:2] += noise
        return jet_exp(row).sum(axis=-1)

    value = scale * integrate(f, 0.0, math.inf)
    clamped = min(1.0, max(0.0, value))
    tol = max(DEFAULT_QUAD.abs_tol, DEFAULT_QUAD.rel_tol * abs(value))
    return CoverageResult(clamped, "exact-integration", tol + abs(value - clamped))


def jensen_lower_bound(params, elev):
    """Lower bound on downlink coverage from convexity of the conditional tail.

    The association expectation moves inside the exponent: the bound sums
    the first N h-coefficients of exp(-T s - I(N s)) at s = beta (1 - h),
    with T = N noise Gamma(1 + alpha/2) / (power (pi density w_eff)^{alpha/2}).
    That is Jensen's inequality for N = 1 only: with N >= 2 and a dominant
    noise term the value can exceed downlink_coverage.
    """
    alpha = params.alpha
    mu = math.pi * params.density * effective_density_factor(params, elev)
    n = int(params.n_antennas)
    s0 = params.beta
    i0, b = _ig_series(n * s0, 2.0 / alpha, n - 1)
    noise_term = n * (params.noise / params.power) * math.gamma(1.0 + alpha / 2.0) / mu ** (alpha / 2.0)
    row = np.concatenate([[-noise_term * s0 - i0], b])
    row[1:2] += noise_term * s0
    value = float(jet_exp(row).sum())
    clamped = min(1.0, max(0.0, value))
    return CoverageResult(clamped, "bound", abs(value - clamped))


def cellfree_coverage(params, elev, method="auto"):
    """Coverage when every UAV transmits to the user (SNR of the summed signal).

    P[sum_i power G_i L_i ||U_i||^{-alpha} >= beta noise] with
    G_i ~ Gamma(N, 1).  The sum's Laplace exponent is kappa s^{2/alpha} with
    kappa = pi density w_eff Gamma(N + 2/alpha) Gamma(1 - 2/alpha) / (N-1)!,
    so coverage is one minus the inverse transform of exp(-kappa s^{2/alpha})/s
    at t = beta noise / power.  alpha = 4 admits the closed form
    erf(kappa / (2 sqrt(t))).

    method: 'auto' (closed form when alpha == 4, otherwise inversion),
    'closed-form' (requires alpha == 4), or 'inversion'.
    """
    if params.noise <= 0.0:
        raise ValueError("cell-free coverage is defined against noise > 0")
    if method not in ("auto", "closed-form", "inversion"):
        raise ValueError(f"unknown method {method!r}")
    alpha = params.alpha
    v = 2.0 / alpha
    n = int(params.n_antennas)
    w_eff = effective_density_factor(params, elev)
    mu = math.pi * params.density * w_eff
    kappa = mu * math.gamma(n + v) * math.gamma(1.0 - v) / math.factorial(n - 1)
    t = params.beta * params.noise / params.power

    if method == "closed-form" or (method == "auto" and alpha == 4.0):
        if alpha != 4.0:
            raise ValueError("the closed form requires alpha == 4")
        return CoverageResult(math.erf(kappa / (2.0 * math.sqrt(t))), "closed-form", 1e-15)

    # Chernoff bound on the CDF: exp(u t - kappa u^v) at the optimal u,
    # log bound = -(1 - v)/v t u* with u* = (kappa v / t)^(1/(1-v)).
    # When provably below 1e-13 the inversion would only return contour
    # roundoff, so the CDF is taken as 0 outright.  The test runs in log
    # space because u* overflows a double for alpha near 2.
    log_u_star = math.log(kappa * v / t) / (1.0 - v)
    if math.log((1.0 - v) / v * t) + log_u_star > math.log(-math.log(1e-13)):
        return CoverageResult(1.0, "exact-integration", 1e-13)

    cdf, clamp = inverse_laplace_cdf(lambda s: np.exp(-kappa * s**v) / s, t)
    return CoverageResult(float(1.0 - cdf), "exact-integration", max(clamp, 1e-8))
