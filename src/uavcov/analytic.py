"""Closed-form and semi-analytic coverage expressions.

Everything here reduces to four ingredients:

* the effective density factor: the marked 3D process, seen through
  attenuated path gains, behaves like a planar Poisson process whose density
  is the planar density times E[cos^2(Theta) (rho(Theta)(1 - ell^(2/alpha))
  + ell^(2/alpha))];
* exponential laws for the nearest weighted point of that equivalent process;
* a smooth interference integral I(u, v) entering every SINR expression;
* jets for the (N-1)-th derivative that converts Gamma(N, 1) fading into
  coverage, with a Gauss-Laguerre expectation over the association distance.

Angles are radians; powers linear mW; beta is a linear SINR threshold.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import los_probability
from .numerics.jets import Jet, antiderivative_compose, jet_exp
from .numerics.laplace import inverse_laplace_cdf
from .numerics.quadrature import gauss_laguerre, integrate


# -- results ----------------------------------------------------------------


@dataclass(frozen=True)
class CoverageResult:
    """A coverage probability plus how it was obtained.

    method is one of 'exact-integration', 'closed-form', 'bound';
    numerical_error is the internal consistency estimate (node-doubling
    spread, inversion clamp, quadrature tolerance), not a statistical error.
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

    Evaluated through the equivalent single smooth integral
    I = (v u / (1 - v)) int_0^1 dy / (1 + u y^{1/(1-v)}),
    which avoids the catastrophic cancellation of the defining form for
    small u (substitutions r = x^v, x = 1/(u z), z = y^{1/(1-v)}).
    """
    if not 0.0 < v < 1.0:
        raise ValueError(f"v must lie in (0, 1), got {v!r}")
    if u < 0.0:
        raise ValueError(f"u must be >= 0, got {u!r}")
    if u == 0.0:
        return 0.0
    p = 1.0 / (1.0 - v)

    def f(y):
        return 1.0 / (1.0 + u * np.asarray(y) ** p)

    return (v * u * p) * integrate(f, 0.0, 1.0)


def _scaled_ig_jet(tau, scale, v):
    """Jet in tau of I(scale/tau, v); used inside the derivative machinery.

    Writes I(u, v) = u^v T(u^{-v}) with T(y) = int_y^inf dr/(1 + r^{1/v}),
    gets T's value from interference_integral (no cancellation) and its
    higher coefficients from T' = -1/(1 + y^{1/v}) by composition.
    """
    tau0 = tau.value
    u0 = scale / tau0
    i0 = interference_integral(u0, v)
    y = (tau * (1.0 / scale)) ** v
    t0 = i0 * y.value
    t_jet = antiderivative_compose(
        t0, lambda yj: -1.0 / (1.0 + yj ** (1.0 / v)), y
    )
    return t_jet / y


# -- coverage ---------------------------------------------------------------


_LAGUERRE_NODES = (64, 96)
_NODE_TOL = 1e-9  # node-doubling spread above which the adaptive fallback runs


def downlink_coverage(params, elev):
    """Coverage P[SINR >= beta] for the strongest-UAV downlink.

    Conditioned on the association variable D (exponential with rate
    pi density w_eff), coverage is the (N-1)-th tau-derivative of
    tau^{N-1} E[exp(-noise D^{alpha/2} / (tau power) - pi density w_eff D
    I(1/tau))] at tau = 1/beta; jets carry the derivative and Gauss-Laguerre
    the expectation, with the jet's constant-term exponential folded into
    the Laguerre weight.  Node counts are doubled as an accuracy check,
    with adaptive quadrature as fallback.
    """
    alpha = params.alpha
    v = 2.0 / alpha
    w_eff = effective_density_factor(params, elev)
    mu = math.pi * params.density * w_eff
    n = int(params.n_antennas)
    k = n - 1
    tau0 = 1.0 / params.beta
    tau = Jet.variable(tau0, k)
    ig = _scaled_ig_jet(tau, 1.0, v)
    ig0 = ig.value
    ig_rest = ig - ig0
    inv_tau = 1.0 / tau
    noise_coef = params.noise / params.power

    def laguerre_value(m):
        nodes, weights = gauss_laguerre(m)
        fold = 1.0 / (1.0 + ig0)
        acc = Jet.constant(0.0, k)
        for x, w in zip(nodes, weights):
            z = x * fold
            exponent = (-noise_coef * (z / mu) ** (alpha / 2.0)) * inv_tau - z * ig_rest
            acc = acc + w * jet_exp(exponent)
        e_jet = acc * fold
        return float((tau**k * e_jet).coeffs[k])

    p_a = laguerre_value(_LAGUERRE_NODES[0])
    p_b = laguerre_value(_LAGUERRE_NODES[1])
    spread = abs(p_b - p_a)
    value = p_b
    if spread > _NODE_TOL:
        value = _downlink_adaptive(params, mu, ig, k)
        spread = abs(value - p_b)

    clamped = min(1.0, max(0.0, value))
    return CoverageResult(clamped, "exact-integration", max(spread, abs(value - clamped)))


def _downlink_adaptive(params, mu, ig, k):
    """Fallback: integrate each jet coefficient of the expectation adaptively."""
    alpha = params.alpha
    tau0 = 1.0 / params.beta
    tau = Jet.variable(tau0, k)
    inv_tau = 1.0 / tau
    noise_coef = params.noise / params.power

    def coeff_fn(j):
        def f(z):
            z = np.atleast_1d(np.asarray(z, dtype=float))
            out = np.empty(z.size)
            for i, zi in enumerate(z):
                exponent = (
                    (-noise_coef * (zi / mu) ** (alpha / 2.0)) * inv_tau - zi * ig
                )
                out[i] = math.exp(-zi) * jet_exp(exponent).coeffs[j]
            return out

        return f

    coeffs = np.array(
        [integrate(coeff_fn(j), 0.0, math.inf) for j in range(k + 1)]
    )
    e_jet = Jet(coeffs)
    return float((tau**k * e_jet).coeffs[k])


def jensen_lower_bound(params, elev):
    """Lower bound on downlink coverage from convexity of the conditional tail.

    Same jet machinery as downlink_coverage but with the association
    expectation pulled inside the exponent: the bound is the (N-1)-th
    coefficient of tau^{N-1} exp(-N noise Gamma(1+alpha/2) / (tau power
    (pi density w_eff)^{alpha/2}) - I(N/tau)) at tau = 1/beta.
    """
    alpha = params.alpha
    v = 2.0 / alpha
    w_eff = effective_density_factor(params, elev)
    mu = math.pi * params.density * w_eff
    n = int(params.n_antennas)
    k = n - 1
    tau = Jet.variable(1.0 / params.beta, k)
    ig_n = _scaled_ig_jet(tau, float(n), v)
    noise_term = n * (params.noise / params.power) * math.gamma(1.0 + alpha / 2.0) / mu ** (alpha / 2.0)
    exponent = (-noise_term) * (1.0 / tau) - ig_n
    value = float((tau**k * jet_exp(exponent)).coeffs[k])
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
