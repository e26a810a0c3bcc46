"""Cross-check battery: numerics identities, distribution laws, coverage.

Three suites, each returning a machine-readable report dict.  'numerics'
checks the special functions, quadrature, the series exponential, and
Laplace inversion against fixed identities and finite differences.
'distributions' runs KS tests of sampled extremes against the closed-form
laws.  'coverage' pairs the analytic downlink expression with Monte Carlo
over the default grid and checks the z-scores.  Failures are report
content, not exceptions.
"""

import math

import numpy as np

from .analytic import (
    downlink_coverage,
    interference_integral,
    nearest_sq_rate,
    peak_gain_cdf,
    thinned_points,
)
from .model import ConstantElevation, NetworkParams, realize_network
from .montecarlo import (
    estimate_downlink,
    sample_nearest_sq,
    sample_peak_gain,
)
from .numerics import gauss_laguerre, integrate, inverse_laplace, jet_exp

SUITES = ("numerics", "distributions", "coverage", "all")


def _check(name, fn):
    try:
        result = fn()
    except Exception as exc:
        return {"name": name, "passed": False, "detail": f"error: {exc!r}"}
    result.setdefault("detail", "")
    return {"name": name, **result}


def _tol_check(value, target, tol, relative=False):
    err = abs(value - target)
    bound = tol * max(1.0, abs(target)) if relative else tol
    return {
        "passed": bool(err <= bound),
        "value": float(value),
        "target": float(target),
        "error": float(err),
        "tolerance": float(bound),
    }


_FD_STEPS = {1: 1e-4, 2: 1e-3, 3: 4e-3}


def finite_difference(f, x, order, step=None):
    """Central difference of the given order, Richardson-extrapolated once."""
    h = step if step is not None else _FD_STEPS[order]

    def stencil(hh):
        if order == 1:
            return (f(x + hh) - f(x - hh)) / (2.0 * hh)
        if order == 2:
            return (f(x + hh) - 2.0 * f(x) + f(x - hh)) / hh**2
        if order == 3:
            return (f(x + 2 * hh) - 2 * f(x + hh) + 2 * f(x - hh) - f(x - 2 * hh)) / (
                2.0 * hh**3
            )
        raise ValueError("finite_difference supports orders 1..3")

    return (4.0 * stencil(0.5 * h) - stencil(h)) / 3.0


# -- numerics suite ------------------------------------------------------------


def _gamma_checks():
    checks = []
    for x in (0.3, 1.7, 6.4):
        checks.append(
            _check(
                f"gamma-recurrence-x{x}",
                lambda x=x: _tol_check(
                    math.gamma(x + 1.0) / (x * math.gamma(x)), 1.0, 1e-12
                ),
            )
        )
    checks.append(
        _check(
            "gamma-half",
            lambda: _tol_check(math.gamma(0.5), math.sqrt(math.pi), 1e-12, relative=True),
        )
    )
    checks.append(
        _check(
            "gamma-4.5",
            lambda: _tol_check(
                math.gamma(4.5), 6.5625 * math.sqrt(math.pi), 1e-12, relative=True
            ),
        )
    )
    checks.append(
        _check(
            "erf-1",
            lambda: _tol_check(math.erf(1.0), 0.8427007929497149, 1e-10),
        )
    )
    checks.append(
        _check(
            "erfc-symmetry",
            lambda: _tol_check(math.erf(0.8) + math.erfc(0.8), 1.0, 1e-13),
        )
    )
    return checks


def _quadrature_checks():
    checks = [
        _check(
            "quad-arctan",
            lambda: _tol_check(
                integrate(lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0), math.pi, 1e-12
            ),
        ),
        _check(
            "quad-exp-tail",
            lambda: _tol_check(integrate(lambda x: np.exp(-x), 0.0, np.inf), 1.0, 1e-10),
        ),
        _check(
            "quad-gamma4",
            lambda: _tol_check(
                integrate(lambda x: x**3 * np.exp(-x), 0.0, np.inf), 6.0, 1e-9
            ),
        ),
        _check(
            "laguerre-degree",
            lambda: _tol_check(
                float(np.sum(gauss_laguerre(8)[1] * gauss_laguerre(8)[0] ** 2)),
                2.0,
                1e-12,
            ),
        ),
        _check(
            "ig-quarter-pi",
            lambda: _tol_check(interference_integral(1.0, 0.5), math.pi / 4.0, 1e-10),
        ),
    ]

    def ig_cross():
        u, v = 2.3, 2.0 / 2.75
        tail = integrate(lambda r: 1.0 / (1.0 + r ** (1.0 / v)), 0.0, u**-v)
        defining = u**v * (math.pi * v / math.sin(math.pi * v) - tail)
        return _tol_check(interference_integral(u, v), defining, 1e-9, relative=True)

    checks.append(_check("ig-two-forms", ig_cross))
    return checks


def _jet_checks(n_random=20, seed=20260816):
    """jet_exp against exp(h) and against finite differences of exp(p(x))."""
    checks = []

    def exp_coeffs():
        e = jet_exp([0.0, 1.0, 0.0, 0.0])
        target = np.array([1.0, 1.0, 0.5, 1.0 / 6.0])
        err = float(np.max(np.abs(e - target)))
        return {"passed": err <= 1e-14, "error": err, "tolerance": 1e-14}

    checks.append(_check("jet-exp-series", exp_coeffs))

    def fixed_composite():
        # the row of p(x) = x^3 - 2 x^2 + x/2 + 0.3 expanded at x0 = 0.8
        p = np.polynomial.Polynomial([0.3, 0.5, -2.0, 1.0])
        row = [p.deriv(j)(0.8) / math.factorial(j) for j in range(4)]
        d3_fd = finite_difference(lambda x: math.exp(p(x)), 0.8, 3)
        return _tol_check(6.0 * jet_exp(row)[3], d3_fd, 1e-6, relative=True)

    checks.append(_check("jet-composite-fd", fixed_composite))

    rng = np.random.default_rng(seed)
    rows = rng.uniform(-1.5, 1.5, size=(n_random, 4))
    coeffs = jet_exp(rows)
    worst = 0.0
    failures = []
    for i, row in enumerate(rows):
        p = np.polynomial.Polynomial(row)
        for order in (1, 2, 3):
            d_jet = math.factorial(order) * float(coeffs[i, order])
            d_fd = finite_difference(lambda x: math.exp(p(x)), 0.0, order)
            rel = abs(d_jet - d_fd) / max(1.0, abs(d_jet))
            worst = max(worst, rel)
            if rel > 1e-5:
                failures.append((i, order, rel))
    checks.append(
        {
            "name": "jet-random-compositions",
            "passed": not failures,
            "value": worst,
            "tolerance": 1e-5,
            "detail": f"{n_random} rows, orders 1-3, worst rel err {worst:.3g}"
            + (f", failures {failures[:3]}" if failures else ""),
        }
    )
    return checks


def _laplace_checks():
    checks = []
    for t in (0.5, 3.0):
        checks.append(
            _check(
                f"laplace-step-t{t}",
                lambda t=t: _tol_check(inverse_laplace(lambda s: 1.0 / s, t), 1.0, 1e-8),
            )
        )
    for t in (0.7, 2.5):
        checks.append(
            _check(
                f"laplace-relax-t{t}",
                lambda t=t: _tol_check(
                    inverse_laplace(lambda s: 1.0 / (s * (s + 1.0)), t),
                    1.0 - math.exp(-t),
                    1e-8,
                ),
            )
        )
    for t in (0.5, 2.0):
        checks.append(
            _check(
                f"laplace-levy-t{t}",
                lambda t=t: _tol_check(
                    inverse_laplace(lambda s: np.exp(-np.sqrt(s)) / s, t),
                    math.erfc(0.5 / math.sqrt(t)),
                    1e-6,
                ),
            )
        )
    return checks


def numerics_suite(**_ignored):
    checks = _gamma_checks() + _quadrature_checks() + _jet_checks() + _laplace_checks()
    return _finish("numerics", checks)


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


def distributions_suite(n_samples=10_000, master_seed=7):
    params = NetworkParams(density=1e-6)
    elev = ConstantElevation(math.radians(25.0))
    checks = [
        _check(
            "peak-gain-law",
            lambda: peak_gain_check(params, elev, n_samples, master_seed),
        )
    ]
    for i, case in enumerate(("all-los-unit", "los-weighted", "pure-los")):
        checks.append(
            _check(
                f"nearest-sq-{case}",
                lambda case=case, i=i: nearest_sq_check(
                    params, elev, case, n_samples, master_seed + 1 + i
                ),
            )
        )

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

    checks.append(_check("thinned-process-law", thinned_law))
    return _finish("distributions", checks)


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


def coverage_suite(n_samples=100_000, master_seed=101):
    checks = []
    for idx, (n, theta_deg, density) in enumerate(COVERAGE_GRID):
        name = f"downlink-N{n}-theta{theta_deg:g}-density{density:g}"
        checks.append(
            _check(
                name,
                lambda n=n, t=theta_deg, d=density, i=idx: coverage_point(
                    n, t, d, n_samples, master_seed + i
                ),
            )
        )
    return _finish("coverage", checks)


# -- dispatch -------------------------------------------------------------------


def _finish(suite, checks):
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
    reports = [numerics_suite(), distributions_suite(**kwargs), coverage_suite(**kwargs)]
    checks = []
    for rep in reports:
        for c in rep["checks"]:
            checks.append({**c, "name": f"{rep['suite']}/{c['name']}"})
    return _finish("all", checks)
