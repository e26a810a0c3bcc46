"""Adaptive Gauss-Kronrod quadrature.

G7-K15 pairs refined in rounds, in the spirit of QUADPACK's QAG and of
scipy.integrate.quad_vec.  Every integral starts from _INITIAL_PANELS equal
panels, evaluated in one integrand call on an (_INITIAL_PANELS, 15) array of
Kronrod nodes: a node costs next to nothing beside the fixed cost of a call,
so most integrals here converge on that first call.  The panels are kept as
arrays; each later round splits the fewest worst panels whose errors, taken
away, would bring the total within tolerance, and evaluates every new
half-panel in one integrand call on an (m, 15) array.  Semi-infinite ranges
are mapped to (0, 1) with x = a + (t/(1-t))^3; the Kronrod nodes are
interior, so integrable endpoint singularities introduced by the map are
handled by subdivision.  The first round on (0, 1) is the same for every
semi-infinite integral, so its partition, half-widths and mapped nodes are
computed once per process (per panel count), at the first such integral;
each integral then applies only its own integrand and the Jacobian, in the
same order, so the values keep every bit.  Finite ranges compute their
nodes afresh.
"""

import math
from functools import lru_cache

import numpy as np

# 15-point Kronrod nodes on [-1, 1] (positive half) and weights; the odd
# nodes embed the 7-point Gauss rule.  Values from QUADPACK dqk15, to the
# 33 digits scipy.integrate._quad_vec carries, so that every literal rounds
# to the nearest double and the Kronrod weights sum to 2.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 ascending nodes
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])               # Kronrod weights
_WGFULL = np.zeros(15)
_WGFULL[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])     # Gauss weights on odd slots


# accuracy policy of every integral: the total is accepted once its error
# is within max(_ABS_TOL, _REL_TOL |total|), within _MAX_SUBDIVISIONS splits
# made after the initial partition into _INITIAL_PANELS equal panels
_REL_TOL = 1e-10
_ABS_TOL = 1e-14
_MAX_SUBDIVISIONS = 200
_INITIAL_PANELS = 32


class AccuracyError(ArithmeticError):
    """Raised when a numerical routine cannot meet its accuracy target.

    Carries the best estimate and the achieved error bound.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


def _nodes(lo, hi):
    """Half-widths and the (m, 15) Kronrod nodes of the panels [lo, hi]."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    return half, mid[:, None] + half[:, None] * _NODES


def _at_nodes(f):
    """The panel rule of an elementwise f: (lo, hi) -> the panels'
    half-widths and f at their Kronrod nodes."""
    def rule(lo, hi):
        half, x = _nodes(lo, hi)
        return half, f(x)
    return rule


def _kronrod_panels(rule, lo, hi):
    """K15 estimates and |K15 - G7| errors on the panels [lo, hi], of the
    half-widths and integrand values that rule(lo, hi) gives."""
    half, fx = rule(lo, hi)
    fx = np.asarray(fx, dtype=float)
    ik = half * (fx @ _WK)
    return ik, np.abs(ik - half * (fx @ _WGFULL))


def _partition(a, b, panels):
    """Lower and upper ends of `panels` equal panels covering [a, b]."""
    edges = np.linspace(float(a), float(b), panels + 1)
    return edges[:-1], edges[1:]


def _adapt(f, lo, hi, first=None):
    """Integrate the elementwise f over the initial partition's panels
    [lo, hi].  first, when given, is the first round's panel rule: one that
    already knows those panels' half-widths and nodes."""
    rule = _at_nodes(f)
    est, err = _kronrod_panels(rule if first is None else first, lo, hi)
    splits = 0
    while True:
        total = float(est.sum())
        order = np.argsort(-err, kind="stable")
        cum = np.cumsum(err[order])
        total_err = float(cum[-1])
        bound = max(_ABS_TOL, _REL_TOL * abs(total))
        if not total_err > bound:  # a NaN error stops here too, returning the total
            return total
        # the fewest worst panels whose errors, taken away, leave the rest
        # within the bound
        n = min(int(np.searchsorted(cum, total_err - bound)) + 1, order.size)
        if splits + n > _MAX_SUBDIVISIONS:
            raise AccuracyError(
                f"quadrature did not converge after {_MAX_SUBDIVISIONS} "
                f"subdivisions (estimate {total:.6e}, error bound {total_err:.3e})",
                estimate=total,
                error_bound=total_err,
            )
        splits += n
        split, keep = order[:n], order[n:]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_est, new_err = _kronrod_panels(rule, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        est = np.concatenate([est[keep], new_est])
        err = np.concatenate([err[keep], new_err])


def integrate(f, a, b):
    """Integrate f over [a, b]; b may be math.inf.

    f must be elementwise over numpy arrays of any shape: it is called on
    (m, 15) arrays of nodes, one row per panel, and returns values of the
    same shape.  The first call covers the _INITIAL_PANELS equal panels of
    the initial partition.  Raises AccuracyError when a refinement round
    would split more panels than the subdivision budget (splits made after
    the initial partition) has left before the tolerances are met.
    """
    if math.isinf(a):
        raise ValueError("lower bound must be finite")
    if math.isinf(b):
        # cubic rational map: tails decaying faster than x^(-4/3) transform
        # to an integrand vanishing at t=1, so the endpoint stays regular
        def g(t):
            t = np.asarray(t, dtype=float)
            safe = 1.0 - t > 0.0
            tc = np.where(safe, t, 0.5)
            u = tc / (1.0 - tc)
            val = f(a + u**3) * 3.0 * u * u / (1.0 - tc) ** 2
            return np.where(safe, val, 0.0)

        lo, hi, half, x, u, d = _mapped_partition(_INITIAL_PANELS)

        def g0(lo, hi):
            # g's panel rule on the initial partition, whose nodes all lie
            # below t = 1
            return half, f(a + x) * 3.0 * u * u / d

        return _adapt(g, lo, hi, g0)
    if a == b:
        return 0.0
    return _adapt(f, *_partition(a, b, _INITIAL_PANELS))


@lru_cache(maxsize=None)
def _mapped_partition(panels):
    """The initial partition (lo, hi) of (0, 1) into `panels` panels, its
    half-widths, and u^3, u = t/(1-t) and (1-t)^2 at its Kronrod nodes t,
    computed as integrate and g compute them: every semi-infinite integral
    starts from these same nodes.  Read-only, since every call shares them."""
    lo, hi = _partition(0.0, 1.0, panels)
    half, t = _nodes(lo, hi)
    u = t / (1.0 - t)
    mapped = lo, hi, half, u**3, u, (1.0 - t) ** 2
    for arr in mapped:
        arr.setflags(write=False)
    return mapped


@lru_cache(maxsize=8)
def gauss_laguerre(n):
    """Nodes and weights for the n-point Gauss-Laguerre rule (weight e^{-x})."""
    return np.polynomial.laguerre.laggauss(n)
