"""Numerical Laplace-transform inversion via the fixed Talbot contour.

Implements the fixed-Talbot rule of Abate & Valko (Int. J. Numer. Meth.
Engng 60, 2004): the Bromwich contour is deformed onto
s(theta) = r*theta*(cot(theta) + i) with r = 2M/(5t), evaluated at M
equally spaced nodes.  Accuracy improves roughly geometrically in M, but
the gamma_0 ~ exp(2M/5) weight amplifies double-precision roundoff, so M
is swept upward only until successive values agree and is capped near 48
(beyond that the roundoff floor exceeds 1e-8).
"""

import math

import numpy as np

from .quadrature import AccuracyError

_DEGREES = (12, 16, 24, 32, 48)
_ABS_TOL = 1e-8  # two successive degrees must agree this closely


def _talbot_value(transform, t, m):
    theta = np.arange(1, m) * (math.pi / m)
    cot = np.cos(theta) / np.sin(theta)
    delta = np.empty(m, dtype=complex)
    delta[0] = 2.0 * m / 5.0
    delta[1:] = (2.0 * math.pi / 5.0) * np.arange(1, m) * (cot + 1j)
    gamma = np.empty(m, dtype=complex)
    gamma[0] = 0.5 * np.exp(delta[0])
    gamma[1:] = (1.0 + 1j * theta * (1.0 + cot**2) - 1j * cot) * np.exp(delta[1:])
    total = float(np.sum((gamma * transform(delta / t)).real))
    return (2.0 / (5.0 * t)) * total


def inverse_laplace(transform, t):
    """Invert a Laplace transform at time t > 0.

    transform maps a complex ndarray of contour points s to F(s)
    elementwise; every node of one Talbot degree is passed in one call.
    Nodes are increased along _DEGREES until two successive evaluations
    agree within _ABS_TOL; raises AccuracyError otherwise.
    """
    if not t > 0.0:
        raise ValueError(f"inversion time must be positive, got {t!r}")
    prev = None
    best = None
    best_diff = math.inf
    for m in _DEGREES:
        val = _talbot_value(transform, t, m)
        if not math.isfinite(val):
            raise AccuracyError(
                f"Talbot sum not finite at {m} nodes (t={t!r})",
                estimate=prev,
                error_bound=math.inf,
            )
        if prev is not None:
            diff = abs(val - prev)
            if diff < best_diff:
                best, best_diff = val, diff
            if diff <= _ABS_TOL:
                return val
        prev = val
    raise AccuracyError(
        f"Talbot inversion did not stabilize to {_ABS_TOL:g} "
        f"(best successive change {best_diff:.3e})",
        estimate=best,
        error_bound=best_diff,
    )
