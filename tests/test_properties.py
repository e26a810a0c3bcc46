"""Property tests of the analytic coverage expressions over the input ranges
the config accepts: values are probabilities, the bounds are ordered, more
antennas never lower coverage and a higher threshold never raises it."""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

from uavcov.analytic import cellfree_coverage, downlink_coverage, jensen_lower_bound
from uavcov.model import ConstantElevation, GammaTanElevation, InvalidParameterError, NetworkParams
from uavcov.numerics import AccuracyError

PROPERTY_SETTINGS = settings(derandomize=True, max_examples=100, deadline=None, database=None)


@st.composite
def scenarios(draw):
    """(params, elevation) drawn over the ranges of the config file."""
    params = NetworkParams(
        density=10.0 ** draw(st.floats(-8.0, -5.0)),
        alpha=draw(st.floats(2.05, 6.0)),
        n_antennas=draw(st.integers(1, 64)),
        beta=10.0 ** (draw(st.floats(-20.0, 45.0)) / 10.0),
        noise=draw(st.sampled_from((0.0, 10.0 ** -9.25))),
    )
    if draw(st.booleans()):
        elev = ConstantElevation(math.radians(draw(st.floats(0.0, 80.0))))
    else:
        elev = GammaTanElevation(draw(st.floats(0.5, 8.0)), math.radians(draw(st.floats(0.5, 80.0))))
    return params, elev


def _probability(fn, params, elev):
    """fn's result, checked to be a probability; None when it raised a typed error."""
    try:
        got = fn(params, elev)
    except (AccuracyError, InvalidParameterError):
        return None
    assert math.isfinite(got.value) and 0.0 <= got.value <= 1.0, got
    assert math.isfinite(got.numerical_error) and got.numerical_error >= 0.0, got
    return got


@PROPERTY_SETTINGS
@given(scenarios())
def test_downlink_and_jensen_are_ordered_probabilities(scenario):
    params, elev = scenario
    dl = _probability(downlink_coverage, params, elev)
    jb = _probability(jensen_lower_bound, params, elev)
    if dl is not None and jb is not None:
        assert jb.value <= dl.value + jb.numerical_error + dl.numerical_error, (jb, dl)


def test_jensen_bound_holds_when_noise_limited():
    # noise-limited at N = 4: an N-term exponent would give 0.99821 here,
    # above the downlink's 0.99808
    params = NetworkParams(density=1.78e-6, alpha=4.0, n_antennas=4, beta=0.01)
    elev = ConstantElevation(math.radians(60.0))
    assert jensen_lower_bound(params, elev).value <= downlink_coverage(params, elev).value


@PROPERTY_SETTINGS
@given(scenarios())
def test_downlink_never_beats_cellfree(scenario):
    params, elev = scenario
    if params.noise == 0.0:
        return
    dl = _probability(downlink_coverage, params, elev)
    cf = _probability(cellfree_coverage, params, elev)
    if dl is not None and cf is not None:
        assert dl.value <= cf.value + dl.numerical_error + cf.numerical_error, (dl, cf)


@PROPERTY_SETTINGS
@given(scenarios(), st.integers(1, 16))
def test_downlink_nondecreasing_in_antennas(scenario, extra):
    params, elev = scenario
    more = dataclasses.replace(params, n_antennas=min(64, params.n_antennas + extra))
    lo = _probability(downlink_coverage, params, elev)
    hi = _probability(downlink_coverage, more, elev)
    if lo is not None and hi is not None:
        assert lo.value <= hi.value + lo.numerical_error + hi.numerical_error, (lo, hi)


@PROPERTY_SETTINGS
@given(scenarios(), st.floats(0.0, 20.0))
def test_downlink_nonincreasing_in_threshold(scenario, extra_db):
    params, elev = scenario
    higher = dataclasses.replace(params, beta=params.beta * 10.0 ** (extra_db / 10.0))
    lo = _probability(downlink_coverage, higher, elev)
    hi = _probability(downlink_coverage, params, elev)
    if lo is not None and hi is not None:
        assert lo.value <= hi.value + lo.numerical_error + hi.numerical_error, (hi, lo)


@PROPERTY_SETTINGS
@given(scenarios(), st.floats(0.0, 20.0), st.integers(1, 16))
def test_cellfree_monotone_in_threshold_and_antennas(scenario, extra_db, extra):
    params, elev = scenario
    params = dataclasses.replace(params, noise=10.0 ** -9.25)
    higher = dataclasses.replace(params, beta=params.beta * 10.0 ** (extra_db / 10.0))
    more = dataclasses.replace(params, n_antennas=min(64, params.n_antennas + extra))
    base = _probability(cellfree_coverage, params, elev)
    hi = _probability(cellfree_coverage, higher, elev)
    mo = _probability(cellfree_coverage, more, elev)
    assert base is not None and hi is not None and mo is not None
    assert hi.value <= base.value + hi.numerical_error + base.numerical_error, (base, hi)
    assert base.value <= mo.value + base.numerical_error + mo.numerical_error, (base, mo)
