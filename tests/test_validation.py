"""The numerics suite: every check has a subject in this package."""

from dataclasses import replace

import pytest

from uavcov import validation
from uavcov.validation import run_suite

_COVERAGE_PREFIXES = ("cellfree-erf-", "cellfree-talbot-", "downlink-erfc-")


def test_numerics_suite_tests_no_outside_library():
    # the gamma/erf/Laguerre checks tested CPython's math module and numpy
    names = [c["name"] for c in run_suite("numerics")["checks"]]
    assert not [n for n in names if n.startswith(("gamma-", "erf-", "erfc-", "laguerre-"))]
    assert sum(n.startswith(_COVERAGE_PREFIXES) for n in names) == 8


@pytest.mark.parametrize("shift", [1e-5, -1e-5])
def test_numerics_suite_catches_shifted_coverage(monkeypatch, shift):
    # a coverage function off by 1e-5 must fail exactly the checks of it
    def shifted(fn):
        def call(params, elev):
            result = fn(params, elev)
            return replace(result, value=result.value + shift)

        return call

    for name in ("cellfree_coverage", "downlink_coverage"):
        monkeypatch.setattr(validation, name, shifted(getattr(validation, name)))
    report = run_suite("numerics")
    failed = sorted(c["name"] for c in report["checks"] if not c["passed"])
    assert not report["passed"]
    assert len(failed) == 8 and all(n.startswith(_COVERAGE_PREFIXES) for n in failed)


def test_all_suite_is_numerics_distributions_and_coverage_only():
    # perfbench's crosscheck workload times run_suite("all") as one op: its
    # 45 jobs (22 numerics, 5 distributions, 18 coverage) stay, and no gate job
    numerics = """quad-arctan quad-exp-tail quad-gamma4 ig-quarter-pi ig-two-forms jet-exp-series
        jet-composite-fd jet-random-compositions laplace-step-t0.5 laplace-step-t3.0
        laplace-relax-t0.7 laplace-relax-t2.5 laplace-levy-t0.5 laplace-levy-t2.0 cellfree-erf-N1
        cellfree-erf-N4 cellfree-erf-N16 cellfree-talbot-alpha2.75-N1 cellfree-talbot-alpha2.75-N4
        cellfree-talbot-alpha6-N2 downlink-erfc-interference downlink-erfc-noise""".split()
    distributions = ("peak-gain-law nearest-sq-all-los-unit nearest-sq-los-weighted "
                     "nearest-sq-pure-los thinned-process-law").split()
    coverage = [f"downlink-N{n}-theta{t}-density{d}"
                for n in (1, 4, 8) for t in (10, 20, 40) for d in ("1e-07", "1e-06")]
    assert [name for name, _ in validation._suite_jobs("all")] == (
        [f"numerics/{n}" for n in numerics] + [f"distributions/{n}" for n in distributions]
        + [f"coverage/{n}" for n in coverage])
