"""Taylor coefficients of the exponential of a power series.

A row a = (a_0, ..., a_{K-1}) stands for the truncated series
sum_j a_j h^j; jet_exp returns the first K coefficients of exp of it.  The
recurrence e_k = (1/k) sum_j j a_j e_{k-j} runs over the last axis, so a
whole batch of rows (one per quadrature node, say) costs K numpy steps.
When every a_j with j >= 1 is nonnegative, so is every e_k: nothing cancels.
"""

import numpy as np


def jet_exp(a):
    """Coefficients of exp(sum_j a_j h^j) along the last axis of a.

    Rows whose constant term exp(a_0) underflows come out as exact zeros.
    """
    a = np.asarray(a, dtype=float)
    out = np.zeros_like(a)
    out[..., 0] = np.exp(a[..., 0])
    # zero the dead rows' coefficients too, so that an infinite a_j meets no 0
    da = np.where(out[..., :1] > 0.0, a, 0.0) * np.arange(a.shape[-1])
    for k in range(1, a.shape[-1]):
        out[..., k] = np.vecdot(da[..., 1 : k + 1], out[..., k - 1 :: -1]) / k
    return out
