"""Adaptive quadrature against closed forms and scipy.integrate."""

import math

import numpy as np
import pytest
import scipy.integrate as si

from uavcov.numerics import AccuracyError, gauss_laguerre, integrate, quadrature


def test_quarter_circle():
    assert integrate(lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0) == pytest.approx(
        math.pi, abs=1e-12
    )


def test_semi_infinite_exponential():
    assert integrate(lambda x: np.exp(-x), 0.0, np.inf) == pytest.approx(1.0, abs=1e-10)


def test_semi_infinite_gamma_moment():
    assert integrate(lambda x: x**3 * np.exp(-x), 0.0, np.inf) == pytest.approx(
        6.0, rel=1e-9
    )


def test_reciprocal_power_tail():
    # int_1^inf x^-2.375 dx = 1/1.375
    val = integrate(lambda x: x**-2.375, 1.0, np.inf)
    assert val == pytest.approx(1.0 / 1.375, rel=1e-10)


def test_sine_identity():
    # int_0^inf dr/(1 + r^(1/v)) = pi v / sin(pi v) for v in (0, 1)
    v = 8.0 / 11.0
    val = integrate(lambda r: 1.0 / (1.0 + r ** (1.0 / v)), 0.0, np.inf)
    assert val == pytest.approx(math.pi * v / math.sin(math.pi * v), rel=1e-10)


def test_oscillatory_against_scipy():
    f = lambda x: np.cos(7.0 * x) * np.exp(-0.5 * x)
    ours = integrate(f, 0.0, 20.0)
    ref, _ = si.quad(f, 0.0, 20.0, epsabs=1e-13, epsrel=1e-13, limit=400)
    assert ours == pytest.approx(ref, abs=1e-11)


def test_kronrod_weights_are_full_precision():
    # 15-digit weights summed to 1.999999999999994: every constant
    # integrand came out 3e-15 relative low
    assert abs(quadrature._WK.sum() - 2.0) <= 4e-16
    assert abs(integrate(lambda x: 1.0 + 0.0 * x, 0.0, math.pi) / math.pi - 1.0) <= 4e-16


def _policy(monkeypatch, rel_tol, abs_tol, max_subdivisions):
    monkeypatch.setattr(quadrature, "_REL_TOL", rel_tol)
    monkeypatch.setattr(quadrature, "_ABS_TOL", abs_tol)
    monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", max_subdivisions)


def test_subdivision_budget_raises(monkeypatch):
    # needle too sharp for 3 subdivisions; must refuse, not silently answer
    _policy(monkeypatch, 1e-12, 1e-14, 3)
    with pytest.raises(AccuracyError):
        integrate(lambda x: 1.0 / (1e-8 + (x - 0.613) ** 2), 0.0, 1.0)


def test_accuracy_error_carries_estimate(monkeypatch):
    monkeypatch.setattr(quadrature, "_INITIAL_PANELS", 1)
    _policy(monkeypatch, 1e-14, 1e-16, 2)
    try:
        integrate(lambda x: np.exp(-x * x), 0.0, 5.0)
    except AccuracyError as err:
        assert err.estimate == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-3)
        assert err.error_bound > 0.0
    else:
        pytest.fail("expected AccuracyError")


def test_gauss_laguerre_polynomial_exactness():
    # n-node rule integrates x^k e^-x exactly through degree 2n-1
    x, w = gauss_laguerre(8)
    for k in range(0, 16):
        assert float(np.sum(w * x**k)) == pytest.approx(math.factorial(k), rel=1e-11)


def test_gauss_laguerre_cached_identity():
    a = gauss_laguerre(64)
    b = gauss_laguerre(64)
    assert a[0] is b[0] and a[1] is b[1]


def _recording(f, shapes):
    def g(x):
        shapes.append(np.shape(x))
        return f(x)

    return g


def test_first_call_covers_the_initial_partition():
    # the initial partition is evaluated in one call: a smooth integrand
    # converges on it, with no refinement round
    shapes = []
    val = integrate(_recording(lambda x: 4.0 / (1.0 + x * x), shapes), 0.0, 1.0)
    assert val == pytest.approx(math.pi, abs=1e-12)
    assert shapes == [(quadrature._INITIAL_PANELS, 15)]
    shapes.clear()
    assert integrate(_recording(lambda x: np.exp(-x), shapes), 0.0, np.inf) == pytest.approx(1.0)
    assert shapes[0] == (quadrature._INITIAL_PANELS, 15)


def test_integrand_sees_one_node_row_per_panel(monkeypatch):
    # every refinement round is one call on an (m, 15) array, m = 2 x panels split
    monkeypatch.setattr(quadrature, "_INITIAL_PANELS", 1)
    shapes = []
    val = integrate(_recording(lambda x: np.cos(7.0 * x) * np.exp(-0.5 * x), shapes), 0.0, 20.0)
    exact = (0.5 + math.exp(-10.0) * (7.0 * math.sin(140.0) - 0.5 * math.cos(140.0))) / 49.25
    assert val == pytest.approx(exact, abs=1e-11)
    assert shapes[0] == (1, 15)
    assert all(len(s) == 2 and s[1] == 15 and s[0] % 2 == 0 for s in shapes[1:])
    assert len(shapes) > 2 and max(s[0] for s in shapes) > 2


def test_round_that_would_overrun_the_budget_raises_before_evaluating(monkeypatch):
    # round 1 splits the one panel (1 of 2 subdivisions); round 2 must split
    # both halves, which would make 3, so it raises without evaluating them
    shapes = []
    monkeypatch.setattr(quadrature, "_INITIAL_PANELS", 1)
    _policy(monkeypatch, 1e-14, 1e-16, 2)
    with pytest.raises(AccuracyError) as info:
        integrate(_recording(lambda x: np.exp(-x * x), shapes), 0.0, 5.0)
    assert shapes == [(1, 15), (2, 15)]
    assert info.value.estimate == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-3)


def _uncached(f, a):
    """integrate(f, a, inf) by the semi-infinite map written out in full at
    every node, first round included, through the same adaptive rule."""

    def g(t):
        t = np.asarray(t, dtype=float)
        safe = 1.0 - t > 0.0
        tc = np.where(safe, t, 0.5)
        u = tc / (1.0 - tc)
        val = f(a + u**3) * 3.0 * u * u / (1.0 - tc) ** 2
        return np.where(safe, val, 0.0)

    return quadrature._adapt(g, *quadrature._partition(0.0, 1.0, quadrature._INITIAL_PANELS))


_TAILS = [
    (lambda x: np.exp(-x), 0.0),
    (lambda x: x**3 * np.exp(-x), 0.0),
    (lambda x: np.exp(-3.0 * x) / np.sqrt(x), 0.0),  # refines at the x = 0 singularity
    (lambda x: x**-2.375, 1.0),
]


def _rounds(monkeypatch):
    """Every round's panel estimates and errors, call by call."""
    rounds = []
    panels = quadrature._kronrod_panels

    def recording(f, lo, hi):
        out = panels(f, lo, hi)
        rounds.append(out)
        return out

    monkeypatch.setattr(quadrature, "_kronrod_panels", recording)
    return rounds


@pytest.mark.parametrize("f, a", _TAILS, ids=["exp", "gamma_moment", "inverse_sqrt", "power_tail"])
def test_cached_first_round_gives_the_uncached_bits(monkeypatch, f, a):
    # panel by panel, not only in the total, where a rounding change can
    # cancel out
    rounds = _rounds(monkeypatch)
    val = integrate(f, a, np.inf)
    cached = rounds[:]
    rounds.clear()
    assert val == _uncached(f, a)
    assert len(cached) == len(rounds)
    for (est, err), (want_est, want_err) in zip(cached, rounds):
        assert np.array_equal(est, want_est) and np.array_equal(err, want_err)


@pytest.mark.parametrize("panels", [1, 8])
def test_cached_first_round_follows_the_panel_count(monkeypatch, panels):
    # the cache is keyed by the panel count: a stale 32-panel entry would
    # hand the integrand a (32, 15) array on the first call
    monkeypatch.setattr(quadrature, "_INITIAL_PANELS", panels)
    for f, a in _TAILS:
        shapes = []
        val = integrate(_recording(f, shapes), a, np.inf)
        assert shapes[0] == (panels, 15)
        assert val == _uncached(f, a)
    assert integrate(lambda x: np.exp(-x), 0.0, np.inf) == pytest.approx(1.0, rel=1e-10)
    assert integrate(lambda x: x**-2.375, 1.0, np.inf) == pytest.approx(1.0 / 1.375, rel=1e-10)


def test_cached_first_round_nodes_are_read_only():
    integrate(lambda x: np.exp(-x), 0.0, np.inf)
    for arr in quadrature._mapped_partition(quadrature._INITIAL_PANELS):
        with pytest.raises(ValueError):
            arr[0] = 0.0
