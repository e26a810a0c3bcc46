"""Cross-check battery: numerics identities, distribution laws, coverage,
and the acceptance gate.

Four suites, each returning a machine-readable report dict.  'numerics'
is one table, _NUMERICS, of values this package computes against
independent references: the quadrature and the interference integral
against closed forms, the coverage series kernel against finite
differences, Talbot inversion against known originals, and the coverage
functions against the paper's closed forms at alpha = 4 (erf for cell-free,
erfc for the single-antenna downlink) and against Talbot inversion of the
cell-free transform.  'distributions' runs KS tests of sampled extremes
against the closed-form laws.  'coverage' pairs the analytic downlink
expression with Monte Carlo over the default grid and checks the z-scores.
'gate' is the acceptance gate: eight criteria, each at its own fixed
seeds, sample counts and limits, so it takes no override.  Failures are
report content, not exceptions.

Every check is one independent job with its own inputs and seed.  A suite
runs its job list through jobs.map_jobs on min(os.cpu_count(), jobs)
threads ('all' and 'gate' as one list each), and the report, checks in
list order, does not depend on that count but for the gate's seconds.
'all' leaves out the gate, about a minute of Monte Carlo work, since
perfbench's crosscheck workload times 'all' as one op.
"""

import math
import os
import time
from collections import defaultdict
from functools import partial

import numpy as np

from .analytic import (
    _series_total,
    cellfree_coverage,
    downlink_coverage,
    effective_density_factor,
    interference_integral,
    jensen_lower_bound,
    load_special,
    nearest_sq_rate,
    peak_gain_cdf,
    thinned_points,
)
from .jobs import map_jobs
from .model import ConstantElevation, GammaTanElevation, NetworkParams, realize_network
from .montecarlo import (
    estimate_cellfree,
    estimate_downlink,
    sample_nearest_sq,
    sample_peak_gain,
)
from .numerics import integrate, inverse_laplace

SUITES = ("numerics", "distributions", "coverage", "all", "gate")


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


def _series_coeffs(row):
    """The first len(row) coefficients of exp(sum_j row_j h^j), each the
    difference of analytic._series_total's totals at N = 1..len(row); the
    series takes the row as (e0, noise, z, b) = (exp row_0, 0, 1, row_1..)."""
    totals = [_series_total(math.exp(row[0]), 0.0, 1.0, np.asarray(row[1:n], dtype=float))
              for n in range(1, len(row) + 1)]
    return np.diff(totals, prepend=0.0)


def _jet_exp_series():
    # exp(h): the largest gap to the coefficients 1/k!
    e = _series_coeffs([0.0, 1.0, 0.0, 0.0])
    return float(np.max(np.abs(e - [1.0, 1.0, 0.5, 1.0 / 6.0]))), 0.0


def _jet_composite_fd():
    # the row of p(x) = x^3 - 2 x^2 + x/2 + 0.3 expanded at x0 = 0.8
    p = np.polynomial.Polynomial([0.3, 0.5, -2.0, 1.0])
    row = [p.deriv(j)(0.8) / math.factorial(j) for j in range(4)]
    return 6.0 * _series_coeffs(row)[3], finite_difference(lambda x: math.exp(p(x)), 0.8, 3)


def _jet_random_compositions():
    # the worst relative gap, over random cubics p and orders 1-3, between
    # the series' derivatives of exp(p(x)) at 0 and finite differences
    rows = np.random.default_rng(20260816).uniform(-1.5, 1.5, size=(20, 4))
    coeffs = np.array([_series_coeffs(row) for row in rows])
    worst = 0.0
    for order in (1, 2, 3):
        d_jet = math.factorial(order) * coeffs[:, order]
        d_fd = finite_difference(
            lambda x: np.exp(np.polynomial.polynomial.polyval(x, rows.T)), 0.0, order)
        worst = max(worst, float(np.max(np.abs(d_jet - d_fd) / np.maximum(1.0, np.abs(d_jet)))))
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
    jobs = [("peak-gain-law", partial(peak_gain_check, params, elev, n_samples, master_seed))]
    jobs += [(f"nearest-sq-{case}",
              partial(nearest_sq_check, params, elev, case, n_samples, master_seed + 1 + i))
             for i, case in enumerate(("all-los-unit", "los-weighted", "pure-los"))]

    def thinned_law():
        rate = nearest_sq_rate(params, elev, "los-weighted")
        radius = math.sqrt(30.0 / rate)
        seeds = np.random.SeedSequence(master_seed + 11).generate_state(min(n_samples, 3000))
        mins = [np.min(np.sum(pts * pts, axis=1), initial=np.inf) for pts in (
            thinned_points(realize_network(params, elev, radius, int(seed)), params.ell,
                           params.alpha) for seed in seeds)]
        return _ks_result(mins, "expon", args=(0.0, 1.0 / rate))

    jobs.append(("thinned-process-law", thinned_law))
    return jobs


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


def _coverage_jobs(n_samples, seeds):
    """coverage_point at every COVERAGE_GRID point, the k-th at seeds[k]."""
    return [(f"downlink-N{n}-theta{t:g}-density{d:g}",
             partial(coverage_point, n, t, d, n_samples, int(seed)))
            for (n, t, d), seed in zip(COVERAGE_GRID, seeds, strict=True)]


# -- gate suite ----------------------------------------------------------------
#
# The acceptance criteria at their own seeds, sample counts and limits.
# Criterion k is the jobs "k/<part>" of one list, long runs first so that
# the cores share the work; gate_suite reduces them to the check criterion-k.

_GATE_SAMPLES = 100_000  # per criterion-3 grid point and criterion-6 run
_GATE_ANTENNAS = (1, 2, 4, 8)
_GATE_BETAS_DB = np.linspace(-20.0, 10.0, 13)


def _theta_optimum():
    # criterion 4: coverage over theta_bar 5..60 deg peaks in [15, 25] deg, then falls
    params = NetworkParams(density=1e-7, n_antennas=4)
    thetas = np.arange(5.0, 60.0 + 1e-9, 0.5)
    values = [downlink_coverage(params, ConstantElevation(math.radians(t))).value for t in thetas]
    peak = int(np.argmax(values))
    monotone = bool(np.all(np.diff(values[peak:]) <= 1e-9))
    return {"passed": bool(0 < peak < len(thetas) - 1 and 15.0 <= thetas[peak] <= 25.0
                           and monotone),
            "value": float(thetas[peak]),
            "detail": f"optimum at {thetas[peak]:.1f} deg (want [15, 25]), "
                      f"monotone decrease to 60 deg: {monotone}"}


def _elevation_law_gap():
    # criterion 5: constant against gamma-tan elevation marks of the same mean angle
    params = NetworkParams(density=1e-7, n_antennas=4)
    gap = max(abs(downlink_coverage(params, ConstantElevation(theta)).value
                  - downlink_coverage(params, GammaTanElevation(3.0, theta)).value)
              for theta in map(math.radians, (10.0, 20.0, 30.0, 40.0)))
    return {"passed": gap <= 0.03, "value": gap,
            "detail": f"constant vs gamma-tan max gap {gap:.2e} (limit 0.03)"}


def _transition_z(beta, seed):
    # criterion 6: a cell-free run in the noise-limited transition against the integral
    params = NetworkParams(density=1e-6, beta=beta)
    est = estimate_cellfree(params, _E25, _GATE_SAMPLES, seed, guard_tolerance=3e-4)
    return {"value": float(abs(est.z_score(cellfree_coverage(params, _E25).value)))}


def _orderings():
    """Criterion 7's analytic side: Jensen and cell-free coverage on COVERAGE_GRID;
    cell-free at N = 1, 2, 4, 8 over -20..10 dB (all about 1), and at 42 dB,
    where it must rise strictly (Gamma(N + 1, 1) dominates Gamma(N, 1))."""
    at_grid = [(NetworkParams(density=d, n_antennas=n), ConstantElevation(math.radians(t)))
               for n, t, d in COVERAGE_GRID]
    curves = np.array([[_cellfree_case(2.75, n, db)[0] for db in _GATE_BETAS_DB]
                       for n in _GATE_ANTENNAS])
    return {
        "jensen": [jensen_lower_bound(*point).value for point in at_grid],
        "cellfree": [cellfree_coverage(*point).value for point in at_grid],
        "pairwise": float(np.max(np.abs(curves[:, None] - curves[None, :]))),
        "rising": [_cellfree_case(2.75, n, 42.0)[0] for n in _GATE_ANTENNAS],
        "exceeds": all(_cellfree_case(2.75, n, -10.0)[0] > downlink_coverage(
            NetworkParams(density=1e-6, n_antennas=n), _E25).value for n in _GATE_ANTENNAS),
    }


def _numerics_rows():
    # criterion 8: every _NUMERICS row passes, and the rows it names exist
    rows = [_check(*job) for job in _numerics_jobs()]
    covered = all(any(c["name"].startswith(prefix) for c in rows) for prefix in (
        "cellfree-erf", "cellfree-talbot", "downlink-erfc", "jet-random-compositions",
        "laplace-step", "laplace-relax"))
    n_passed = sum(c["passed"] for c in rows)
    return {"passed": covered and n_passed == len(rows), "value": n_passed,
            "detail": f"numerics suite {n_passed}/{len(rows)} checks passed"
                      + ("" if covered else ", a required row missing")}


def _gate_jobs():
    params = NetworkParams(density=1e-6)
    seeds = np.random.SeedSequence(20260816).generate_state(len(COVERAGE_GRID), dtype=np.uint64)
    return [
        *((f"6/transition-seed{seed}", partial(_transition_z, beta, seed))
          for beta, seed in ((3495.94, 6101), (7575.08, 6102), (20510.0, 6103))),
        *((f"3/{name}", fn) for name, fn in _coverage_jobs(_GATE_SAMPLES, seeds)),
        ("1/peak-gain", partial(peak_gain_check, params, _E25, 10_000, 11)),
        *((f"2/{case}", partial(nearest_sq_check, params, _E25, case, 10_000, seed))
          for case, seed in (("all-los-unit", 21), ("los-weighted", 22))),
        ("4/theta-optimum", _theta_optimum),
        ("5/elevation-law", _elevation_law_gap),
        ("6/erf", lambda: {"value": max(abs(a - b) for a, b in (
            _cellfree_erf(n, db) for n in _GATE_ANTENNAS for db in _GATE_BETAS_DB))}),
        ("7/orderings", _orderings),
        ("8/numerics", _numerics_rows),
    ]


def _criterion(k, jobs):
    """Criterion k's check from {k: its job results, in list order}."""
    own = jobs[k]
    errors = [f"{c['name']} {c['detail']}" for c in own if c["detail"].startswith("error:")]
    if errors:
        return {"passed": False, "detail": "; ".join(errors)}
    if k in (4, 5, 8):
        return own[0]
    if k == 1:
        (c,) = own
        return {"passed": c["passed"] and c["seconds"] < 60.0, "value": c["value"],
                "detail": f"peak-gain KS p={c['value']:.3f} on 1e4 realizations, "
                          f"{c['seconds']:.1f}s of 60s"}
    if k == 2:
        unit, weighted = own
        return {"passed": unit["passed"] and weighted["passed"],
                "value": min(unit["value"], weighted["value"]),
                "detail": f"nearest-sq KS p={unit['value']:.3f} (unit), "
                          f"p={weighted['value']:.3f} (weighted)"}
    if k == 3:  # coverage_point passes at |z| <= 3, its stderr floored at 1/n
        worst, seconds = max(c["value"] for c in own), sum(c["seconds"] for c in own)
        return {"passed": all(c["passed"] for c in own) and seconds < 900.0, "value": worst,
                "detail": f"18-point grid max |z|={worst:.2f} (limit 3), "
                          f"{seconds:.0f}s of 900s in its runs"}
    if k == 6:
        *runs, erf = own  # _gate_jobs lists the long runs first
        worst = max(c["value"] for c in runs)
        return {"passed": erf["value"] <= 1e-6 and worst <= 3.0, "value": worst,
                "detail": f"integral vs erf max gap {erf['value']:.1e} (limit 1e-6); "
                          f"transition-regime MC max |z|={worst:.2f} (limit 3)"}
    (c,), grid = own, jobs[3]
    excess = max(jb - g["analytic"] for jb, g in zip(c["jensen"], grid, strict=True))
    ordered = all(g["analytic"] - cf <= 3.0 * max(g["mc_stderr"], 1.0 / _GATE_SAMPLES)
                  for cf, g in zip(c["cellfree"], grid, strict=True))
    rising = all(a < b for a, b in zip(c["rising"], c["rising"][1:]))
    return {"passed": bool(excess <= 1e-6 and ordered and c["pairwise"] <= 0.01
                           and c["exceeds"] and rising), "value": excess,
            "detail": f"jensen-downlink max excess {excess:.1e} (limit 1e-6), downlink<=cellfree "
                      f"ok: {ordered}; cellfree pairwise gap {c['pairwise']:.1e} (limit 0.01), "
                      f"cellfree>downlink at -10 dB: {c['exceeds']}; cellfree at 42 dB over N = "
                      f"1, 2, 4, 8: {', '.join(f'{v:.4f}' for v in c['rising'])}, rising: {rising}"}


def _timed_check(job):
    start = time.perf_counter()
    return {**_check(*job), "seconds": time.perf_counter() - start}


def gate_suite():
    """The _gate_jobs list run on every core, reduced to the checks
    criterion-1 ... criterion-8, each with its jobs' summed seconds, which
    the time limits of criteria 1 and 3 bound."""
    jobs = defaultdict(list)
    for c in map_jobs(_timed_check, _gate_jobs(), os.cpu_count() or 1):
        k, _, c["name"] = c["name"].partition("/")
        jobs[int(k)].append(c)
    return _run("gate", [(f"criterion-{k}", lambda k=k: {
        **_criterion(k, jobs), "name": f"criterion-{k}",
        "seconds": sum(c["seconds"] for c in jobs[k])}) for k in range(1, 9)])


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


def _suite_jobs(suite, **overrides):
    """The job list of a suite other than 'gate'; 'all' is the numerics,
    distributions and coverage lists in one, each name prefixed by its suite."""
    if suite == "numerics":
        return _numerics_jobs()
    if suite == "distributions":
        return _distributions_jobs(**overrides)
    if suite == "coverage":
        seed = overrides.get("master_seed", 101)
        return _coverage_jobs(overrides.get("n_samples", 100_000),
                              range(seed, seed + len(COVERAGE_GRID)))
    return [(f"{part}/{name}", fn) for part in ("numerics", "distributions", "coverage")
            for name, fn in _suite_jobs(part, **overrides)]


def run_suite(suite, n_samples=None, master_seed=None):
    """Run one of SUITES; n_samples/master_seed override suite defaults,
    and 'gate', whose criteria fix their own, refuses them."""
    if suite not in SUITES:
        raise ValueError(f"suite must be one of {SUITES}, got {suite!r}")
    overrides = {key: int(value) for key, value in
                 (("n_samples", n_samples), ("master_seed", master_seed)) if value is not None}
    if suite == "gate":
        if overrides:
            raise ValueError("suite 'gate' takes no sample count or seed: "
                             "its criteria fix their own")
        return gate_suite()
    return _run(suite, _suite_jobs(suite, **overrides))
