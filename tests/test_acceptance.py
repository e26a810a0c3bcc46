"""Acceptance gate: one test and one PASS/FAIL line per criterion of one
`uavcov validate gate` run (validation.gate_suite holds every check, seed
and limit).  The lines bypass output capture, so they appear in any run.
"""

import pytest

from uavcov.validation import run_suite


@pytest.fixture(scope="module")
def gate():
    return {c["name"]: c for c in run_suite("gate")["checks"]}


def _criterion(k):
    def test(gate, capfd):
        c = gate[f"criterion-{k}"]
        with capfd.disabled():
            print(f"[criterion {k}] {'PASS' if c['passed'] else 'FAIL'}: {c['detail']}",
                  flush=True)
        assert c["passed"], c["detail"]
    return test


test_peak_gain_distribution_law = _criterion(1)
test_nearest_sq_distribution_laws = _criterion(2)
test_downlink_analytic_matches_monte_carlo_grid = _criterion(3)
test_elevation_sweep_has_interior_optimum = _criterion(4)
test_coverage_insensitive_to_elevation_model = _criterion(5)
test_cellfree_closed_form_and_simulation_agree = _criterion(6)
test_coverage_orderings_hold = _criterion(7)
test_numerics_suite_passes = _criterion(8)
