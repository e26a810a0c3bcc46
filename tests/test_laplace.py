"""Talbot inversion against transform pairs with known originals."""

import math

import numpy as np
import pytest

from uavcov.numerics import AccuracyError, inverse_laplace, laplace


def test_unit_step():
    for t in (0.2, 1.0, 5.0, 40.0):
        assert inverse_laplace(lambda s: 1.0 / s, t) == pytest.approx(1.0, abs=1e-8)


def test_exponential_relaxation():
    for t in (0.1, 0.7, 2.5, 8.0):
        got = inverse_laplace(lambda s: 1.0 / (s * (s + 1.0)), t)
        assert got == pytest.approx(1.0 - math.exp(-t), abs=1e-8)


def test_cosine():
    # s/(s^2+1) -> cos t; oscillatory originals are the hard case for Talbot
    for t in (0.5, 2.0):
        got = inverse_laplace(lambda s: s / (s * s + 1.0), t)
        assert got == pytest.approx(math.cos(t), abs=1e-7)


def test_power_law():
    # 1/s^2.5 -> t^1.5/Gamma(2.5)
    t = 1.7
    got = inverse_laplace(lambda s: s**-2.5, t)
    assert got == pytest.approx(t**1.5 / math.gamma(2.5), rel=1e-8)


def test_stable_cdf_pair():
    """exp(-kappa sqrt s)/s inverts to erfc(kappa/(2 sqrt t)).

    This is the cell-free transform at alpha = 4; inversion of it is the
    independent reference the cell-free tests compare the Zolotarev
    integral against.
    """
    for kappa in (0.4, 1.0, 2.3):
        for t in (0.25, 1.0, 4.0, 12.0):
            got = inverse_laplace(lambda s: np.exp(-kappa * np.sqrt(s)) / s, t)
            want = math.erfc(kappa / (2.0 * math.sqrt(t)))
            assert got == pytest.approx(want, abs=1e-6), (kappa, t)


def test_stable_cdf_monotone_in_t():
    kappa = 1.3
    ts = np.linspace(0.05, 20.0, 60)
    vals = [
        inverse_laplace(lambda s: np.exp(-kappa * np.sqrt(s)) / s, float(t))
        for t in ts
    ]
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-9)


def test_nonconvergent_transform_raises(monkeypatch):
    # white-noise transform values cannot satisfy the convergence check
    monkeypatch.setattr(laplace, "_ABS_TOL", 1e-12)
    rng = np.random.default_rng(3)

    def noisy(s):
        return complex(rng.standard_normal(), rng.standard_normal())

    with pytest.raises(AccuracyError):
        inverse_laplace(noisy, 1.0)
