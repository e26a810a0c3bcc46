"""The series exponential against closed forms, finite differences and
high-precision differentiation of random rows."""

import math

import mpmath
import numpy as np
import pytest

from uavcov import analytic
from uavcov.analytic import _ig_series, _series_total
from uavcov.numerics import jet_exp
from uavcov.validation import finite_difference


def test_exponential_series():
    e = jet_exp([0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.allclose(e, [1, 1, 1 / 2, 1 / 6, 1 / 24, 1 / 120], atol=1e-15)


def test_reciprocal_series():
    # exp(sum_j h^j / j) = 1/(1 - h): every coefficient is 1
    row = np.r_[0.0, 1.0 / np.arange(1, 8)]
    assert np.allclose(jet_exp(row), np.ones(8), rtol=1e-14)


def test_log_series():
    # the series of log(1 + h) exponentiates back to 1 + h
    k = np.arange(1, 5)
    assert np.allclose(jet_exp(np.r_[0.0, (-1.0) ** (k + 1) / k]), [1, 1, 0, 0, 0], atol=1e-15)


def test_product_rule():
    # exp(a + b) = exp(a) exp(b): the Cauchy product of the two rows
    a, b = np.random.default_rng(7).uniform(-1.0, 1.0, size=(2, 6))
    assert np.allclose(jet_exp(a + b), np.convolve(jet_exp(a), jet_exp(b))[:6], rtol=1e-13)


def test_integer_and_real_powers_agree():
    # (x0 + h)^r = exp(r log(x0 + h)) has binomial coefficients
    x0, k = 1.7, np.arange(6)
    log_row = np.r_[math.log(x0), (-1.0) ** (k[1:] + 1) / (k[1:] * x0 ** k[1:])]
    for r in (3.0, 0.37, -2.0):
        want = [np.prod(r - np.arange(n)) / math.factorial(n) * x0 ** (r - n) for n in k]
        assert np.allclose(jet_exp(r * log_row), want, rtol=1e-13, atol=1e-14), r


def test_derivative_coefficient_scaling():
    # f = exp(2t) at 0: n-th derivative is 2^n
    f = jet_exp([0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    for n in range(7):
        assert math.factorial(n) * f[n] == pytest.approx(2.0**n, rel=1e-13)


def test_third_derivative_vs_finite_difference():
    # exp(-1/t) at 0.8, from the row of -1/t = -(1/t0) sum_k (-h/t0)^k
    t0 = 0.8
    row = -(1.0 / t0) * (-1.0 / t0) ** np.arange(5)
    fd = finite_difference(lambda t: math.exp(-1.0 / t), t0, 3)
    assert 6.0 * jet_exp(row)[3] == pytest.approx(fd, rel=1e-6)


def test_random_compositions_against_mpmath():
    """20 random rows: n! e_n matches mpmath.diff of exp(p(t)) to order 7."""
    rng = np.random.default_rng(424242)
    order = 7
    rows = rng.uniform(-1.5, 1.5, size=(20, order + 1))
    coeffs = jet_exp(rows)
    with mpmath.workdps(40):
        for row, got in zip(rows, coeffs):
            f = lambda t: mpmath.exp(mpmath.polyval([mpmath.mpf(c) for c in row[::-1]], t))
            for n in range(order + 1):
                ref = float(mpmath.diff(f, 0, n))
                d_jet = math.factorial(n) * got[n]
                assert abs(d_jet - ref) <= 1e-5 * max(1.0, abs(ref)), (row, n, d_jet, ref)


def test_truncated_keeps_prefix():
    # the first K coefficients never depend on row entries beyond K
    row = np.random.default_rng(3).uniform(-1.0, 1.0, size=9)
    assert np.array_equal(jet_exp(row)[:4], jet_exp(row[:4]))


def test_batched_rows_match_single_rows():
    rows = np.random.default_rng(5).uniform(-2.0, 2.0, size=(3, 4, 6))
    batched = jet_exp(rows)
    assert batched.shape == rows.shape
    for idx in np.ndindex(3, 4):
        assert np.array_equal(batched[idx], jet_exp(rows[idx]))


def test_underflowed_rows_are_zero():
    rows = np.array([[-800.0, np.inf, 1.0, 2.0], [-np.inf, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        out = jet_exp(rows)
    assert np.array_equal(out[:2], np.zeros((2, 4)))
    assert np.allclose(out[2], [1.0, 1.0, 0.5, 1.0 / 6.0])


@pytest.mark.parametrize("gemv_entries", [analytic._GEMV_ENTRIES, 100])
@pytest.mark.parametrize("n", [1, 2, 5, 24, 64])
def test_series_total_matches_jet_exp_rows(n, gemv_entries, monkeypatch):
    # the downlink's rows [-nu - z (1 + I0), z b_1 + nu, z b_2, ...] at the
    # quadrature nodes, z and nu including 0, against jet_exp row by row;
    # a cap of 100 entries sends the steps past k = 2 through einsum
    monkeypatch.setattr(analytic, "_GEMV_ENTRIES", gemv_entries)
    i0, b = _ig_series(10.0, 2.0 / 2.75, n - 1)
    rng = np.random.default_rng(n)
    z = np.concatenate([[0.0, 0.0, 1.0, 3.0], rng.exponential(2.0, 40)])
    nu = np.concatenate([[0.0, 0.7, 0.0, 2.5], rng.exponential(1.0, 40)])
    rows = np.concatenate([(-nu - z * (1.0 + i0))[:, None], z[:, None] * b], axis=1)
    rows[:, 1:2] += nu[:, None]
    want = jet_exp(rows).sum(axis=-1)
    got = _series_total(np.exp(rows[:, 0]), nu, z, b)
    assert got.shape == z.shape
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_series_total_keeps_the_node_shape_and_zeroes_underflowed_rows():
    # exp(a_0) underflows at z = 1e3 and at an infinite noise term: those
    # rows are exact zeros, and no infinite z or nu meets a 0
    _, b = _ig_series(10.0, 0.5, 23)
    z = np.array([[1e3, 0.5], [np.inf, 2.0]])
    nu = np.array([[1.0, np.inf], [0.0, 0.1]])
    with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
        got = _series_total(np.exp(-nu - 2.0 * z), nu, z, b)
    assert got.shape == (2, 2)
    assert got[0, 0] == 0.0 and got[0, 1] == 0.0 and got[1, 0] == 0.0
    assert got[1, 1] > 0.0


def test_ig_series_scalar_first_term_keeps_the_array_bits():
    # k = 0 (every N = 1 value) takes scalar calls; its I0 must be the
    # first entry of the array path's terms, which k >= 1 still takes
    rng = np.random.default_rng(24)
    for s0, alpha in zip(10.0 ** rng.uniform(-6.0, 6.0, 500), rng.uniform(2.0, 50.0, 500)):
        i0, b = _ig_series(float(s0), 2.0 / alpha, 0)
        assert type(i0) is float and b.size == 0
        assert i0 == _ig_series(float(s0), 2.0 / alpha, 1)[0], (s0, alpha)
