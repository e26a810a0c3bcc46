"""Acceptance gate: every headline guarantee of the package, one test and
one printed PASS/FAIL line per criterion.

Run as `pytest tests/test_acceptance.py -v`; the criterion lines bypass
output capture so they appear pass or fail.  Monte Carlo pieces use fixed
seeds, so the gate is deterministic; the independent runs of criteria 3
and 6 go through jobs.map_jobs on every core, which leaves every result as
a serial run gives it.
"""

import math
import os
import time

import numpy as np
import pytest

from uavcov.analytic import (
    cellfree_coverage,
    downlink_coverage,
    effective_density_factor,
    jensen_lower_bound,
)
from uavcov.jobs import map_jobs
from uavcov.model import ConstantElevation, GammaTanElevation, NetworkParams
from uavcov.montecarlo import estimate_cellfree
from uavcov.validation import (
    COVERAGE_GRID,
    coverage_point,
    nearest_sq_check,
    numerics_suite,
    peak_gain_check,
)

TABLE_ELEV = ConstantElevation(math.radians(25.0))
GRID_SAMPLES = 100_000
CORES = os.cpu_count() or 1


@pytest.fixture
def announce(capfd):
    def _emit(idx, ok, detail):
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[criterion {idx}] {status}: {detail}", flush=True)
    return _emit


@pytest.fixture(scope="module")
def downlink_grid():
    """validation.coverage_point at all 18 points of validation.COVERAGE_GRID."""
    seeds = np.random.SeedSequence(20260816).generate_state(
        len(COVERAGE_GRID), dtype=np.uint64
    )
    start = time.perf_counter()
    checks = map_jobs(lambda job: coverage_point(*job[0], GRID_SAMPLES, int(job[1])),
                      zip(COVERAGE_GRID, seeds), CORES)
    return dict(zip(COVERAGE_GRID, checks)), time.perf_counter() - start


def test_peak_gain_distribution_law(announce):
    params = NetworkParams(density=1e-6)
    start = time.perf_counter()
    pvalue = peak_gain_check(params, TABLE_ELEV, 10_000, 11)["value"]
    elapsed = time.perf_counter() - start
    ok = pvalue > 0.01 and elapsed < 60.0
    announce(1, ok, f"peak-gain KS p={pvalue:.3f} on 1e4 realizations, {elapsed:.1f}s")
    assert pvalue > 0.01
    assert elapsed < 60.0


def test_nearest_sq_distribution_laws(announce):
    params = NetworkParams(density=1e-6)
    p_unit = nearest_sq_check(params, TABLE_ELEV, "all-los-unit", 10_000, 21)["value"]
    p_omega = nearest_sq_check(params, TABLE_ELEV, "los-weighted", 10_000, 22)["value"]
    ok = p_unit > 0.01 and p_omega > 0.01
    announce(2, ok, f"nearest-sq KS p={p_unit:.3f} (unit), p={p_omega:.3f} (weighted)")
    assert p_unit > 0.01
    assert p_omega > 0.01


def test_downlink_analytic_matches_monte_carlo_grid(downlink_grid, announce):
    results, elapsed = downlink_grid
    # coverage_point floors the binomial stderr at 1/n for saturated
    # estimates and passes at |z| <= 3
    worst = max(check["value"] for check in results.values())
    failures = [(key, check["value"]) for key, check in results.items()
                if not check["passed"]]
    ok = not failures and elapsed < 900.0
    announce(3, ok,
              f"18-point grid max |z|={worst:.2f} (limit 3), {elapsed:.0f}s of 900s")
    assert not failures, failures
    assert elapsed < 900.0


def test_elevation_sweep_has_interior_optimum(announce):
    params = NetworkParams(density=1e-7, n_antennas=4)
    thetas = np.arange(5.0, 60.0 + 1e-9, 0.5)
    values = np.array(
        [downlink_coverage(params, ConstantElevation(math.radians(t))).value
         for t in thetas]
    )
    peak = int(np.argmax(values))
    interior = 0 < peak < len(thetas) - 1
    located = 15.0 <= thetas[peak] <= 25.0
    tail = np.diff(values[peak:])
    monotone = bool(np.all(tail <= 1e-9))
    ok = interior and located and monotone
    announce(4, ok,
              f"optimum at {thetas[peak]:.1f} deg (want [15, 25]), "
              f"monotone decrease to 60 deg: {monotone}")
    assert interior and located
    assert monotone


def test_coverage_insensitive_to_elevation_model(announce):
    params = NetworkParams(density=1e-7, n_antennas=4)
    worst = 0.0
    for theta_deg in (10.0, 20.0, 30.0, 40.0):
        theta = math.radians(theta_deg)
        p_const = downlink_coverage(params, ConstantElevation(theta)).value
        p_gamma = downlink_coverage(params, GammaTanElevation(3.0, theta)).value
        worst = max(worst, abs(p_const - p_gamma))
    ok = worst <= 0.03
    announce(5, ok, f"constant vs gamma-tan max gap {worst:.2e} (limit 0.03)")
    assert worst <= 0.03


def test_cellfree_closed_form_and_simulation_agree(announce):
    betas = 10.0 ** (np.linspace(-20.0, 10.0, 13) / 10.0)
    worst = 0.0
    for n in (1, 2, 4, 8):
        for beta in betas:
            params = NetworkParams(density=1e-6, n_antennas=n, alpha=4.0, beta=beta)
            kappa = (math.pi * params.density * effective_density_factor(params, TABLE_ELEV)
                     * math.gamma(n + 0.5) * math.sqrt(math.pi) / math.factorial(n - 1))
            t = params.beta * params.noise / params.power
            erf_form = math.erf(kappa / (2.0 * math.sqrt(t)))
            worst = max(worst, abs(cellfree_coverage(params, TABLE_ELEV).value - erf_form))
    closed_ok = worst <= 1e-6

    def transition_z(job):
        beta, seed = job
        params = NetworkParams(density=1e-6, beta=beta)
        pa = cellfree_coverage(params, TABLE_ELEV).value
        est = estimate_cellfree(params, TABLE_ELEV, 100_000, seed,
                                guard_tolerance=3e-4)
        return abs(est.z_score(pa))

    worst_z = max(map_jobs(transition_z,
                           ((3495.94, 6101), (7575.08, 6102), (20510.0, 6103)), CORES))
    mc_ok = worst_z <= 3.0
    ok = closed_ok and mc_ok
    announce(6, ok,
              f"integral vs erf max gap {worst:.1e} (limit 1e-6); "
              f"transition-regime MC max |z|={worst_z:.2f} (limit 3)")
    assert closed_ok
    assert mc_ok


def test_coverage_orderings_hold(downlink_grid, announce):
    results, _ = downlink_grid
    worst_jensen = -1.0
    worst_cf = -1.0
    for (n, theta, density), check in results.items():
        params = NetworkParams(density=density, n_antennas=n)
        elev = ConstantElevation(math.radians(theta))
        pa = check["analytic"]
        jb = jensen_lower_bound(params, elev).value
        cf = cellfree_coverage(params, elev).value
        se = max(check["mc_stderr"], 1.0 / GRID_SAMPLES)
        worst_jensen = max(worst_jensen, jb - pa)
        worst_cf = max(worst_cf, pa - cf - 3.0 * se)
    order_ok = worst_jensen <= 1e-6 and worst_cf <= 0.0

    betas = 10.0 ** (np.linspace(-20.0, 10.0, 13) / 10.0)
    curves = []
    exceeds = True
    for n in (1, 2, 4, 8):
        params = NetworkParams(density=1e-6, n_antennas=n)
        curves.append(np.array(
            [cellfree_coverage(
                NetworkParams(density=1e-6, n_antennas=n, beta=b), TABLE_ELEV
             ).value for b in betas]
        ))
        cf_ref = cellfree_coverage(params, TABLE_ELEV).value
        dl_ref = downlink_coverage(params, TABLE_ELEV).value
        exceeds = exceeds and cf_ref > dl_ref
    pairwise = max(
        float(np.max(np.abs(a - b))) for i, a in enumerate(curves)
        for b in curves[i + 1:]
    )
    fig_ok = pairwise <= 0.01 and exceeds
    ok = order_ok and fig_ok
    announce(7, ok,
              f"jensen-downlink max excess {worst_jensen:.1e} (limit 1e-6), "
              f"downlink<=cellfree ok: {worst_cf <= 0.0}; "
              f"cellfree pairwise gap {pairwise:.1e} (limit 0.01), "
              f"cellfree>downlink at -10 dB: {exceeds}")
    assert order_ok
    assert fig_ok


def test_numerics_suite_passes(announce):
    report = numerics_suite()
    names = {c["name"] for c in report["checks"]}
    required = (
        "cellfree-erf", "cellfree-talbot", "downlink-erfc",
        "jet-random-compositions", "laplace-step", "laplace-relax",
    )
    covered = all(any(n.startswith(p) for n in names) for p in required)
    ok = bool(report["passed"]) and covered
    announce(8, ok,
              f"numerics suite {report['n_checks'] - report['n_failed']}/"
              f"{report['n_checks']} checks passed")
    assert covered, names
    assert report["passed"], [c for c in report["checks"] if not c["passed"]]
