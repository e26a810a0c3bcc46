"""Closed-form and semi-analytic coverage expressions.

Everything here reduces to five ingredients:

* the effective density factor: the marked 3D process, seen through
  attenuated path gains, behaves like a planar Poisson process whose density
  is the planar density times E[cos^2(Theta) (rho(Theta)(1 - ell^(2/alpha))
  + ell^(2/alpha))];
* exponential laws for the nearest weighted point of that equivalent process;
* an interference integral I(u, v), an incomplete beta function, entering
  every SINR expression;
* the exponential of a power series, whose first N coefficients turn
  Gamma(N, 1) fading into coverage; every term is nonnegative.  At every
  quadrature node the row has the same shape, so _series_total runs
  jet_exp's recurrence as one matrix-vector product over all nodes per
  coefficient, and one adaptive integral takes the expectation over the
  association distance;
* Zolotarev's integral for the one-sided stable law of the summed cell-free
  signal, which gives cell-free coverage as one integral of terms in [0, 1].

Angles are radians; powers linear mW; beta is a linear SINR threshold.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .model import InvalidParameterError, los_probability
from .numerics.quadrature import _ABS_TOL, _REL_TOL, AccuracyError, integrate

# antennas of one analytic downlink value: its series takes N steps on
# (N, 480) arrays, about 0.1 s at N = 1024 and 1.5-1.9 s and 70 MB peak RSS
# at the cap on a 2-core x86-64 machine, the time growing as N^2 past it
_MAX_ANTENNAS = 4096

# entries of the largest matrix-vector product the series hands to BLAS;
# larger ones go through einsum's own loop.  OpenBLAS 0.3.31 splits a gemv
# of 460 800 entries or more over its threads, which made N = 1024 up to
# 5 times slower on two cores than on one thread
_GEMV_ENTRIES = 1 << 18


# -- results ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CoverageResult:
    """A coverage probability plus how it was obtained.

    method is 'exact-integration' (downlink, cell-free) or 'bound' (Jensen);
    numerical_error is the internal accuracy estimate (quadrature tolerance
    plus any clamp into [0, 1]), not a statistical error.
    """

    value: float
    method: str
    numerical_error: float


def _clamped(value, method, tol):
    """value clamped into [0, 1]; the clamp distance joins the error, so a
    clamped value never reports an accuracy it does not have."""
    clamped = min(1.0, max(0.0, value))
    return CoverageResult(clamped, method, tol + abs(value - clamped))


def _in_double_range(coverage):
    """coverage(params, elev) with a float overflow or division by zero
    raised as InvalidParameterError naming alpha and lambda: their extremes
    put (pi lambda w_eff)^(alpha/2) outside the double range.  A quadrature
    that misses its tolerance keeps its AccuracyError."""

    @functools.wraps(coverage)
    def checked(params, elev):
        try:
            return coverage(params, elev)
        except AccuracyError:
            raise
        except ArithmeticError as exc:
            raise InvalidParameterError(
                f"alpha = {params.alpha:g} and lambda = {params.density:g} put "
                f"(pi lambda w_eff)^(alpha/2) outside the double range ({exc})") from exc

    return checked


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


def nearest_sq_params(params, case):
    """params with the attenuation that defines case's squared nearest
    distance: ell = 1 ('all-los-unit'), params.ell ('los-weighted') or 0
    ('pure-los'); see nearest_sq_rate."""
    ells = {"all-los-unit": 1.0, "los-weighted": params.ell, "pure-los": 0.0}
    if case not in ells:
        raise ValueError(f"case must be one of {tuple(ells)}, got {case!r}")
    return replace(params, ell=ells[case])


def nearest_sq_rate(params, elev, case):
    """Rate of the exponential law of a squared nearest distance in the
    equivalent planar process: P[Y > y] = exp(-rate y), rate = pi density c.

    case 'all-los-unit': min ||U_i||^2 with attenuation ignored (L = 1),
    c = E[cos^2], the density factor at ell = 1.  case 'los-weighted':
    min (L^(-1/alpha) ||U_i||)^2, c = w_eff.  case 'pure-los': min ||U_i||^2
    over LoS UAVs only, c = E[rho cos^2], the density factor at ell = 0.
    """
    params = nearest_sq_params(params, case)
    return math.pi * params.density * effective_density_factor(params, elev)


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


def load_special():
    """scipy.special, imported at its first use.

    At module level it would add about 0.25 s to every cold start, Monte
    Carlo runs and config errors included, and only the analytic downlink
    needs it.  cli.run_sweep calls this before it times a run's analytic
    downlink values, so that no value's time carries the import.
    """
    import scipy.special

    return scipy.special


def _ig_series(s0, v, k):
    """I0 = I(s0, v) and b_1..b_k with I(s0 (1 - h), v) = I0 - sum_j b_j h^j.

    b_j = v s0^v B(j - v, 1 + v) I_q(j - v, 1 + v), q = s0/(1 + s0): every
    b_j is nonnegative and they sum to I0 over all j.
    """
    special = load_special()
    if k == 0:
        # scalar calls in the array path's order: the same bits, at a
        # quarter of the cost of building index arrays for one term
        i0 = v * s0**v * special.beta(1.0 - v, v) * special.betainc(1.0 - v, v, s0 / (1.0 + s0))
        return float(i0), np.empty(0)
    j = np.arange(k + 1, dtype=float)
    a = np.where(j == 0, 1.0 - v, j - v)
    b = np.where(j == 0, v, 1.0 + v)
    terms = v * s0**v * special.beta(a, b) * special.betainc(a, b, s0 / (1.0 + s0))
    return float(terms[0]), terms[1:]


def _series_total(e0, noise, z, b):
    """jet_exp(a).sum(-1) for the rows a = (log e0, z b_1 + noise, z b_2,
    ..., z b_{N-1}), N - 1 = len(b), one row per entry of e0 (noise and z
    broadcast against it).

    jet_exp's recurrence becomes e_k = (z sum_j j b_j e_{k-j} + noise
    e_{k-1}) / k with b shared by every row.  Kept newest-first,
    e[N-1-k] = e_k, the coefficients make each step one matrix-vector
    product over all rows; at N = 1 there is no step and the total is e0.
    Rows whose e0 underflows to 0 come out as exact zeros.
    """
    n = len(b) + 1
    if n == 1:
        return np.asarray(e0, dtype=float)
    shape = np.shape(e0)
    e0 = np.ravel(e0)
    alive = e0 > 0.0
    # zero the dead rows' z and noise, so that an infinite one meets no 0
    z = np.where(alive, np.ravel(z), 0.0)
    noise = np.where(alive, np.ravel(noise), 0.0)
    e = np.empty((n, e0.size))
    e[n - 1] = e0
    jb = np.arange(1, n) * b
    buf = np.empty_like(e[0])
    for k in range(1, n):
        out = e[n - 1 - k]
        if k * e0.size <= _GEMV_ENTRIES:
            np.dot(jb[:k], e[n - k:], out=out)
        else:
            np.einsum("j,jm->m", jb[:k], e[n - k:], out=out)
        out *= z
        np.multiply(noise, e[n - k], out=buf)
        out += buf
        out *= 1.0 / k
    return e.sum(axis=0).reshape(shape)


# -- coverage ---------------------------------------------------------------


def downlink_antennas(n_antennas):
    """The antenna count of an analytic downlink value, refused over
    _MAX_ANTENNAS.

    Time and memory grow with N^2, so the refusal comes before any work:
    downlink_coverage checks its own count here, and parse_config every
    analytic downlink point of a config.
    """
    n = int(n_antennas)
    if n > _MAX_ANTENNAS:
        raise InvalidParameterError(
            f"n_antennas = {n} is over the analytic downlink cap of {_MAX_ANTENNAS} "
            f"(its series takes N steps on (N, 480) arrays)")
    return n


@_in_double_range
def downlink_coverage(params, elev):
    """Coverage P[SINR >= beta] for the strongest-UAV downlink.

    With Gamma(N, 1) serving fading, coverage is the sum of the first N
    Taylor coefficients in h of the Laplace transform L(beta (1 - h)) of
    the normalized interference-plus-noise.  Conditioned on z, the
    association variable scaled to a unit exponential, log L is
    -c s z^{alpha/2} - z I(s) with s = beta (1 - h) and c = noise / (power
    (pi density w_eff)^{alpha/2}); its h-coefficients beyond the first are
    nonnegative, so the exponential's coefficients are too and nothing
    cancels.
    One adaptive integral over z, with the exponential weight folded into
    the row, gives the value; numerical_error is the quadrature tolerance
    (plus the distance of any clamp into [0, 1]).
    """
    n = downlink_antennas(params.n_antennas)
    alpha = params.alpha
    mu = math.pi * params.density * effective_density_factor(params, elev)
    c = params.noise / params.power / mu ** (alpha / 2.0)
    s0 = params.beta
    i0, b = _ig_series(s0, 2.0 / alpha, n - 1)
    # z = scale * y puts the integrand's decay at y ~ 1, however small the
    # noise term makes it in z
    scale = 1.0 / (1.0 + i0 + (c * s0) ** (2.0 / alpha))

    def f(y):
        z = scale * np.asarray(y, dtype=float)
        noise = c * s0 * z ** (alpha / 2.0)
        return _series_total(np.exp(-noise - z * (1.0 + i0)), noise, z, b)

    value = scale * integrate(f, 0.0, math.inf)
    tol = max(_ABS_TOL, _REL_TOL * abs(value))
    return _clamped(value, "exact-integration", tol)


@_in_double_range
def jensen_lower_bound(params, elev):
    """Lower bound on downlink coverage from convexity of the conditional tail.

    The association expectation moves inside the exponent: the bound sums
    the first n h-coefficients of exp(-T s - I(n s)) at s = beta (1 - h),
    with T = n noise Gamma(1 + alpha/2) / (power (pi density w_eff)^{alpha/2}).
    That is Jensen's inequality at n = 1.  With noise n = 1 for every N,
    which gives exp(-T beta - I(beta)): P[Gamma(N, 1) >= x] >= e^-x makes
    single-antenna coverage a lower bound at any N, whereas n = N can
    exceed downlink_coverage when noise dominates.  Without noise n = N,
    which the property tests hold below downlink_coverage.
    """
    alpha = params.alpha
    mu = math.pi * params.density * effective_density_factor(params, elev)
    n = int(params.n_antennas) if params.noise == 0.0 else 1
    s0 = params.beta
    i0, b = _ig_series(n * s0, 2.0 / alpha, n - 1)
    noise_term = n * (params.noise / params.power) * math.gamma(1.0 + alpha / 2.0) / mu ** (alpha / 2.0)
    noise = noise_term * s0
    total = _series_total(math.exp(-noise - i0), noise, 1.0, b)
    return _clamped(float(total), "bound", 0.0)


@_in_double_range
def cellfree_coverage(params, elev):
    """Coverage when every UAV transmits to the user (SNR of the summed signal).

    S = sum_i G_i L_i ||U_i||^{-alpha}, G_i ~ Gamma(N, 1), is one-sided stable
    with Laplace exponent kappa s^v, v = 2/alpha, kappa = pi density w_eff
    Gamma(N + v) Gamma(1 - v) / (N-1)!.  With z = kappa t^{-v} at
    t = beta noise / power, Zolotarev's representation gives
    P[S >= t] = (1/pi) int_0^pi (1 - exp(-C A)) dpsi, phi = pi - psi,
    C A = (z sin(v phi)^v sin((1-v) phi)^{1-v} / sin(phi))^{1/(1-v)}:
    one integral of terms in [0, 1].  C A >= (psi_s/psi)^{1/(1-v)}, psi_s =
    z sin(pi v), so the integrand is exactly 1 below psi_lo = psi_s e^{-4(1-v)}.
    The rest runs in s = (log(psi/psi_lo) / (1-v))^{1/3}, which keeps the drop
    near psi_s, only (1-v) psi_s wide, inside the Kronrod panels for every
    alpha.  numerical_error is the quadrature tolerance (plus any clamp).
    """
    if params.noise <= 0.0:
        raise ValueError("cell-free coverage is defined against noise > 0")
    v = 2.0 / params.alpha
    k = 1.0 / (1.0 - v)
    n = int(params.n_antennas)
    mu = math.pi * params.density * effective_density_factor(params, elev)
    t = params.beta * params.noise / params.power
    # in logs: kappa overflows for N >= 171 and as alpha -> 2
    log_z = math.log(mu) + math.lgamma(n + v) + math.lgamma(1.0 - v) - math.lgamma(n) - v * math.log(t)
    log_lo = min(math.log(math.pi), log_z + math.log(math.sin(math.pi * v)) - 4.0 / k)

    def f(s):
        s = np.asarray(s, dtype=float)
        w = s**3 / k
        psi = np.minimum(np.exp(log_lo + w), math.pi)
        log_ca = k * (
            log_z
            + v * np.log(np.sin((1.0 - v) * math.pi + v * psi))
            + (1.0 - v) * np.log(np.sin((1.0 - v) * (math.pi - psi)))
            - np.log(np.sin(psi))
        )
        # (1 - exp(-C A)) dpsi / psi_lo
        return -np.expm1(-np.exp(np.minimum(log_ca, 709.0))) * np.exp(w) * 3.0 * s * s / k

    rest = integrate(f, 0.0, (k * (math.log(math.pi) - log_lo)) ** (1.0 / 3.0))
    scale = math.exp(log_lo) / math.pi
    tol = scale * max(_ABS_TOL, _REL_TOL * rest)
    return _clamped(scale * (1.0 + rest), "exact-integration", tol)
