"""The numerics suite: every check has a subject in this package."""

from dataclasses import replace

import pytest

from uavcov import validation
from uavcov.validation import numerics_suite

_COVERAGE_PREFIXES = ("cellfree-erf-", "cellfree-talbot-", "downlink-erfc-")


def test_numerics_suite_tests_no_outside_library():
    # the gamma/erf/Laguerre checks tested CPython's math module and numpy
    names = [c["name"] for c in numerics_suite()["checks"]]
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
    report = numerics_suite()
    failed = sorted(c["name"] for c in report["checks"] if not c["passed"])
    assert not report["passed"]
    assert len(failed) == 8 and all(n.startswith(_COVERAGE_PREFIXES) for n in failed)
