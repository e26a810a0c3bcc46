"""Cross-check battery: numerics identities, distribution laws, coverage.

Three suites, each returning a machine-readable report dict.  'numerics'
is one table, _NUMERICS, of values this package computes against
independent references: the quadrature and the interference integral
against closed forms, the series exponential against finite differences,
Talbot inversion against known originals, and the coverage functions
against the paper's closed forms at alpha = 4 (erf for cell-free, erfc for
the single-antenna downlink) and against Talbot inversion of the cell-free
transform.  'distributions' runs KS tests of sampled extremes against the
closed-form laws.  'coverage' pairs the analytic downlink expression with
Monte Carlo over the default grid and checks the z-scores.  Failures are
report content, not exceptions.

Every check is one independent job with its own inputs and seed.  A suite
runs its job list through jobs.map_jobs on min(os.cpu_count(), jobs)
threads ('all' as one list: numerics, distributions, coverage), and the
report, checks in list order, does not depend on that count.
"""

import math
import os
from functools import partial

import numpy as np

from .analytic import (
    cellfree_coverage,
    downlink_coverage,
    effective_density_factor,
    interference_integral,
    load_special,
    nearest_sq_rate,
    peak_gain_cdf,
    thinned_points,
)
from .jobs import map_jobs
from .model import ConstantElevation, NetworkParams, realize_network
from .montecarlo import (
    estimate_downlink,
    sample_nearest_sq,
    sample_peak_gain,
)
from .numerics import integrate, inverse_laplace, jet_exp

SUITES = ("numerics", "distributions", "coverage", "all")


def _check(name, fn):
    try:
        result = fn()
    except Exception as exc:
        return {"name": name, "passed": False, "detail": f"error: {exc!r}"}
    result.setdefault("detail", "")
    return {"name": name, **result}


def _tol_check(value, target, tol, relative):
    err = abs(value - target)
    bound = tol * abs(target) if relative else tol
    return {
        "passed": bool(err <= bound),
        "value": float(value),
        "target": float(target),
        "error": float(err),
        "tolerance": float(bound),
    }


_FD_STEPS = {1: 1e-4, 2: 1e-3, 3: 4e-3}


def finite_difference(f, x, order):
    """Central difference of the given order (1..3), Richardson-extrapolated once."""
    if order not in _FD_STEPS:
        raise ValueError("finite_difference supports orders 1..3")

    def stencil(h):
        if order == 1:
            return (f(x + h) - f(x - h)) / (2.0 * h)
        if order == 2:
            return (f(x + h) - 2.0 * f(x) + f(x - h)) / h**2
        return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2.0 * h**3)

    h = _FD_STEPS[order]
    return (4.0 * stencil(0.5 * h) - stencil(h)) / 3.0


# -- numerics suite ------------------------------------------------------------
#
# Each row pairs a value this package computes with an independent reference.


def _ig_two_forms():
    # the closed form of I(u, v) against its defining integral
    u, v = 2.3, 2.0 / 2.75
    tail = integrate(lambda r: 1.0 / (1.0 + r ** (1.0 / v)), 0.0, u**-v)
    return interference_integral(u, v), u**v * (math.pi * v / math.sin(math.pi * v) - tail)


def _jet_exp_series():
    # exp(h): the largest gap to the coefficients 1/k!
    e = jet_exp([0.0, 1.0, 0.0, 0.0])
    return float(np.max(np.abs(e - [1.0, 1.0, 0.5, 1.0 / 6.0]))), 0.0


def _jet_composite_fd():
    # the row of p(x) = x^3 - 2 x^2 + x/2 + 0.3 expanded at x0 = 0.8
    p = np.polynomial.Polynomial([0.3, 0.5, -2.0, 1.0])
    row = [p.deriv(j)(0.8) / math.factorial(j) for j in range(4)]
    return 6.0 * jet_exp(row)[3], finite_difference(lambda x: math.exp(p(x)), 0.8, 3)


_JET_ROWS = 20
_JET_SEED = 20260816


def _jet_random_compositions():
    # the worst relative gap, over random cubics p and orders 1-3, between
    # jet_exp's derivatives of exp(p(x)) at 0 and finite differences
    rows = np.random.default_rng(_JET_SEED).uniform(-1.5, 1.5, size=(_JET_ROWS, 4))
    worst = 0.0
    for row, coeffs in zip(rows, jet_exp(rows)):
        p = np.polynomial.Polynomial(row)
        for order in (1, 2, 3):
            d_jet = math.factorial(order) * float(coeffs[order])
            d_fd = finite_difference(lambda x: math.exp(p(x)), 0.0, order)
            worst = max(worst, abs(d_jet - d_fd) / max(1.0, abs(d_jet)))
    return worst, 0.0


# Laplace pairs F(s) -> f(t): name, F, f, tolerance, times t
_TRANSFORM_PAIRS = (
    ("step", lambda s: 1.0 / s, lambda t: 1.0, 1e-8, (0.5, 3.0)),
    ("relax", lambda s: 1.0 / (s * (s + 1.0)), lambda t: 1.0 - math.exp(-t), 1e-8, (0.7, 2.5)),
    ("levy", lambda s: np.exp(-np.sqrt(s)) / s, lambda t: math.erfc(0.5 / math.sqrt(t)), 1e-6,
     (0.5, 2.0)),
)


def _inverted(transform, original, t):
    return inverse_laplace(transform, t), original(t)


_E25 = ConstantElevation(math.radians(25.0))


def _cellfree_case(alpha, n, beta_db):
    """cellfree_coverage at density 1e-6 and theta 25 deg, with kappa as
    the direct product pi density w_eff Gamma(N + v) Gamma(1 - v) / (N-1)!
    (cellfree_coverage takes it through lgamma), v = 2/alpha, and the time
    t = beta noise / power.  Returns (coverage, kappa, v, t)."""
    p = NetworkParams(density=1e-6, alpha=alpha, n_antennas=n, beta=10.0 ** (beta_db / 10.0))
    v = 2.0 / alpha
    kappa = (math.pi * p.density * effective_density_factor(p, _E25)
             * math.gamma(n + v) * math.gamma(1.0 - v) / math.factorial(n - 1))
    return cellfree_coverage(p, _E25).value, kappa, v, p.beta * p.noise / p.power


def _cellfree_erf(n, beta_db):
    # alpha = 4: P[S >= t] = erf(kappa / (2 sqrt t))
    value, kappa, _, t = _cellfree_case(4.0, n, beta_db)
    return value, math.erf(kappa / (2.0 * math.sqrt(t)))


def _cellfree_talbot(alpha, n, beta_db):
    # P[S >= t] = 1 - L^-1[exp(-kappa s^v) / s](t)
    value, kappa, v, t = _cellfree_case(alpha, n, beta_db)
    return value, 1.0 - inverse_laplace(lambda s: np.exp(-kappa * s**v) / s, t)


def _downlink_erfc(density, beta, noise, theta_deg):
    """alpha = 4, N = 1: coverage is int_0^inf exp(-a z - b z^2) dz =
    sqrt(pi / 4b) erfcx(a / (2 sqrt b)), with a = 1 + I(beta, 1/2) and
    b = beta noise / (power (pi density w_eff)^2)."""
    p = NetworkParams(density=density, alpha=4.0, beta=beta, noise=noise)
    elev = ConstantElevation(math.radians(theta_deg))
    mu = math.pi * density * effective_density_factor(p, elev)
    a = 1.0 + interference_integral(beta, 0.5)
    b = beta * noise / (p.power * mu**2)
    want = math.sqrt(math.pi / (4.0 * b)) * load_special().erfcx(a / (2.0 * math.sqrt(b)))
    return downlink_coverage(p, elev).value, want


# (name, () -> (value, reference), tolerance, relative)
_NUMERICS = (
    ("quad-arctan",
     lambda: (integrate(lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0), math.pi), 1e-12, False),
    ("quad-exp-tail", lambda: (integrate(lambda x: np.exp(-x), 0.0, np.inf), 1.0), 1e-10, False),
    ("quad-gamma4",
     lambda: (integrate(lambda x: x**3 * np.exp(-x), 0.0, np.inf), 6.0), 1e-9, False),
    ("ig-quarter-pi", lambda: (interference_integral(1.0, 0.5), math.pi / 4.0), 1e-10, False),
    ("ig-two-forms", _ig_two_forms, 1e-9, True),
    ("jet-exp-series", _jet_exp_series, 1e-14, False),
    ("jet-composite-fd", _jet_composite_fd, 1e-6, True),
    ("jet-random-compositions", _jet_random_compositions, 1e-5, False),
    *((f"laplace-{name}-t{t}", partial(_inverted, transform, original, t), tol, False)
      for name, transform, original, tol, times in _TRANSFORM_PAIRS for t in times),
    *((f"cellfree-erf-N{n}", partial(_cellfree_erf, n, beta_db), 1e-6, False)
      for n, beta_db in ((1, 0.0), (4, 0.0), (16, 10.0))),
    *((f"cellfree-talbot-alpha{alpha:g}-N{n}", partial(_cellfree_talbot, alpha, n, beta_db),
       1e-6, False)
      for alpha, n, beta_db in ((2.75, 1, 38.8), (2.75, 4, 42.0), (6.0, 2, 10.0))),
    ("downlink-erfc-interference",
     partial(_downlink_erfc, 1e-6, 0.1, 10.0**-9.25, 25.0), 1e-9, True),
    ("downlink-erfc-noise", partial(_downlink_erfc, 1e-12, 1e3, 1e-3, 60.0), 1e-9, True),
)


def _numerics_jobs():
    return [(name, lambda pair=pair, tol=tol, rel=rel: _tol_check(*pair(), tol, rel))
            for name, pair, tol, rel in _NUMERICS]


def numerics_suite():
    """Every _NUMERICS row as a check of |value - reference| against its tolerance."""
    return _run("numerics", _numerics_jobs())


# -- distributions suite -------------------------------------------------------

_KS_ALPHA = 0.01


def _ks_result(samples, cdf, args=()):
    # imported here: at module level scipy.stats adds ~0.8 s to every cold start
    from scipy.stats import kstest

    stat = kstest(samples, cdf, args=args)
    return {
        "passed": bool(stat.pvalue > _KS_ALPHA),
        "value": float(stat.pvalue),
        "tolerance": _KS_ALPHA,
        "detail": f"KS stat {stat.statistic:.4g}, p {stat.pvalue:.4g}",
    }


def peak_gain_check(params, elev, n_samples, master_seed):
    """KS test of sampled strongest path gains against peak_gain_cdf."""
    xs = sample_peak_gain(params, elev, n_samples, master_seed)
    return _ks_result(xs, lambda r: peak_gain_cdf(r, params, elev))


def nearest_sq_check(params, elev, case, n_samples, master_seed):
    """KS test of sampled squared nearest distances against their exponential law."""
    xs = sample_nearest_sq(params, elev, case, n_samples, master_seed)
    rate = nearest_sq_rate(params, elev, case)
    return _ks_result(xs, "expon", args=(0.0, 1.0 / rate))


def _distributions_jobs(n_samples=10_000, master_seed=7):
    params = NetworkParams(density=1e-6)
    elev = ConstantElevation(math.radians(25.0))
    jobs = [("peak-gain-law", lambda: peak_gain_check(params, elev, n_samples, master_seed))]
    for i, case in enumerate(("all-los-unit", "los-weighted", "pure-los")):
        jobs.append((
            f"nearest-sq-{case}",
            lambda case=case, i=i: nearest_sq_check(
                params, elev, case, n_samples, master_seed + 1 + i
            ),
        ))

    def thinned_law():
        rate = nearest_sq_rate(params, elev, "los-weighted")
        radius = math.sqrt(30.0 / rate)
        n_real = min(n_samples, 3000)
        rng_seeds = np.random.SeedSequence(master_seed + 11).generate_state(n_real)
        mins = np.empty(n_real)
        for j in range(n_real):
            real = realize_network(params, elev, radius, int(rng_seeds[j]))
            pts = thinned_points(real, params.ell, params.alpha)
            if len(pts) == 0:
                mins[j] = np.inf
            else:
                mins[j] = float(np.min(np.sum(pts * pts, axis=1)))
        return _ks_result(mins, "expon", args=(0.0, 1.0 / rate))

    jobs.append(("thinned-process-law", thinned_law))
    return jobs


def distributions_suite(n_samples=10_000, master_seed=7):
    return _run("distributions", _distributions_jobs(n_samples, master_seed))


# -- coverage suite --------------------------------------------------------------

COVERAGE_GRID = tuple(
    (n, theta_deg, density)
    for n in (1, 4, 8)
    for theta_deg in (10.0, 20.0, 40.0)
    for density in (1e-7, 1e-6)
)


def coverage_point(n_antennas, theta_deg, density, n_samples, master_seed):
    """One paired analytic/Monte-Carlo downlink evaluation; returns a dict."""
    params = NetworkParams(density=density, n_antennas=n_antennas)
    elev = ConstantElevation(math.radians(theta_deg))
    analytic = downlink_coverage(params, elev).value
    est = estimate_downlink(params, elev, n_samples, master_seed)
    z = float(abs(est.z_score(analytic)))
    return {
        "passed": bool(z <= 3.0),
        "value": float(z),
        "tolerance": 3.0,
        "analytic": float(analytic),
        "mc_mean": float(est.mean),
        "mc_stderr": float(est.std_error),
        "detail": f"p_an {analytic:.5f}, p_mc {est.mean:.5f} +- {est.std_error:.5f}, z {z:.2f}",
    }


def _coverage_jobs(n_samples=100_000, master_seed=101):
    return [
        (f"downlink-N{n}-theta{theta_deg:g}-density{density:g}",
         lambda n=n, t=theta_deg, d=density, i=idx: coverage_point(
             n, t, d, n_samples, master_seed + i))
        for idx, (n, theta_deg, density) in enumerate(COVERAGE_GRID)
    ]


def coverage_suite(n_samples=100_000, master_seed=101):
    return _run("coverage", _coverage_jobs(n_samples, master_seed))


# -- dispatch -------------------------------------------------------------------


def _run(suite, jobs):
    """The report of one job list of (name, fn) checks, run on every core."""
    checks = map_jobs(lambda job: _check(*job), jobs, os.cpu_count() or 1)
    n_failed = sum(1 for c in checks if not c["passed"])
    return {
        "suite": suite,
        "passed": n_failed == 0,
        "n_checks": len(checks),
        "n_failed": n_failed,
        "checks": checks,
    }


def run_suite(suite, n_samples=None, master_seed=None):
    """Run one of SUITES; n_samples/master_seed override suite defaults."""
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}, got {suite!r}")
    kwargs = {}
    if n_samples is not None:
        kwargs["n_samples"] = int(n_samples)
    if master_seed is not None:
        kwargs["master_seed"] = int(master_seed)
    if suite == "numerics":
        return numerics_suite()
    if suite == "distributions":
        return distributions_suite(**kwargs)
    if suite == "coverage":
        return coverage_suite(**kwargs)
    slices = (("numerics", _numerics_jobs()), ("distributions", _distributions_jobs(**kwargs)),
              ("coverage", _coverage_jobs(**kwargs)))
    return _run("all", [(f"{part}/{name}", fn) for part, jobs in slices for name, fn in jobs])
