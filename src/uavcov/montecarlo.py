"""Monte Carlo coverage estimation.

Realizations are simulated inside a finite disk; the interference the disk
cannot see is not ignored but compensated: the closed-form far-field mean
(Campbell's formula over the region beyond the guard radius) is added to
every interference sum.  guard_radius then only has to control the
*fluctuation* of the missing tail, which shrinks like R^(1-alpha), so disks
stay small enough to simulate quickly even for alpha near 2.

Determinism: every estimator derives all randomness from
numpy.random.SeedSequence(master_seed) split into fixed-size chunks, so a
given (params, elevation, n_samples, master_seed) is bit-reproducible
regardless of host or worker count.  Chunks are sized by a fixed target of
points per batch, a pure function of the inputs.

Each chunk draws, in this order: Poisson point counts, radius uniforms,
elevation tangents (non-constant laws only), LoS uniforms, then the
estimator's fading (Exp(1) per point and Gamma(N, 1) per realization for
the downlink, Gamma(N, 1) per point for cell-free).  The kernel holds two
point-sized float buffers and fills them in place, so the arithmetic and
its bits are those of the plain array expressions: one buffer holds the
radius uniforms, then the 3D distances, then the fading gains times the
path gains; the other holds sqrt(1 + tan^2 Theta) (non-constant laws),
then the LoS uniforms, then the attenuated path gains.  A non-constant law
adds the tan(Theta) draws, turned into Theta in place for the LoS law,
and the LoS probabilities; the 3D distance r sqrt(1 + tan^2 Theta) needs
no cosine.  A chunk of ~4.7e5 points allocates at peak ~26 bytes per point
(downlink) and ~18 (cell-free) under constant elevation, ~33 for both
under gamma_tan.

A chunk kernel stops before the coverage test and returns per-realization
operands: the serving signal and the interference (downlink), or the
received sum with the tail compensation (cell-free).  The run then counts
hits for each of a list of per-row (beta, noise) pairs with the comparison
a single estimate makes, so one draw serves a whole beta sweep.  A density
sweep rides on the same draw: the marks are independent of distance, so
the process at density lambda_j is the one at lambda_0 with distances
scaled by (lambda_0/lambda_j)^(1/2).  The guard radius and the tail mean
scale along with it and the points per realization stay put, so only the
noise moves, to noise (lambda_0/lambda_j)^(alpha/2).  estimate_downlink and
estimate_cellfree are the one-pair case of estimate_sweep.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import (
    effective_density_factor,
    nearest_sq_rate,
    tail_gain_moment,
)
from .model import ConstantElevation, InvalidParameterError, los_probability

_POINTS_PER_CHUNK = 2_000_000  # batching target; fixed so chunking is reproducible
_MIN_RADIUS_FACTOR = 10.0      # floor: R >= 10 / sqrt(pi * density)


class EmptyRealizationError(ValueError):
    """Association was asked for a realization with no UAVs."""


@dataclass(frozen=True, slots=True)
class CoverageEstimate:
    """Bernoulli mean with its exact binomial standard error."""

    mean: float
    std_error: float
    n_samples: int
    seed: int

    def z_score(self, analytic):
        """(analytic - mean) / max(std_error, 1/n_samples): the agreement
        statistic of a paired run.  The floor keeps it finite when every
        sample, or none, hits."""
        return (analytic - self.mean) / max(self.std_error, 1.0 / self.n_samples)


# -- truncation control -------------------------------------------------------


def interference_tail_mean(params, elev, radius):
    """Mean path-gain mass (units of L ||U||^-alpha) beyond the guard disk.

    Campbell: 2 pi density E[L cos^alpha(Theta)] R^(2-alpha) / (alpha - 2);
    multiply by power and a mean fading gain to get mW.  Added to simulated
    interference sums so truncation is bias-free in the mean.
    """
    m1 = tail_gain_moment(params, elev, 1)
    return (
        2.0
        * math.pi
        * params.density
        * m1
        * radius ** (2.0 - params.alpha)
        / (params.alpha - 2.0)
    )


def guard_radius(params, elev, tolerance):
    """Radius at which the missing far-field fluctuation is negligible.

    Returns the smallest R such that the standard deviation of the
    uncompensated tail (Exp(1) gains, E[G^2] = 2) is at most tolerance times
    a reference interference level -- the conditional mean interference at
    the mean association distance, 2 (pi density w_eff)^(alpha/2) power /
    (alpha - 2) -- floored at 10/sqrt(pi density) so a handful of points
    always exists.  tolerance must lie in (0, 1): at or above 1 the floor
    radius would always win and the tolerance would mean nothing.
    """
    if not 0.0 < tolerance < 1.0:
        raise InvalidParameterError(f"tolerance must lie in (0, 1), got {tolerance!r}")
    mu = math.pi * params.density * effective_density_factor(params, elev)
    reference = 2.0 * mu ** (params.alpha / 2.0) / (params.alpha - 2.0)
    m2 = tail_gain_moment(params, elev, 2)
    coeff = math.sqrt(
        4.0 * math.pi * params.density * m2 / (2.0 * params.alpha - 2.0)
    )
    r_fluct = (coeff / (tolerance * reference)) ** (1.0 / (params.alpha - 1.0))
    r_floor = _MIN_RADIUS_FACTOR / math.sqrt(math.pi * params.density)
    return max(r_fluct, r_floor)


# -- single-realization reference path ----------------------------------------


def associate(realization, alpha, ell):
    """Index of the serving UAV: argmax of L ||U||^-alpha, ties to the lowest index."""
    n = len(realization)
    if n == 0:
        raise EmptyRealizationError("no UAV available for association")
    d3 = realization.distance_3d
    gain = d3 ** (-alpha) * np.where(realization.los, 1.0, ell)
    return int(np.argmax(gain))


# -- batched sampling ----------------------------------------------------------


def _chunk_sizes(n_samples, mean_points):
    per = max(1, min(int(_POINTS_PER_CHUNK / max(mean_points, 1.0)), 65536))
    sizes = [per] * (n_samples // per)
    if n_samples % per:
        sizes.append(n_samples % per)
    return sizes


def _chunks(n_samples, radius, density, master_seed):
    """Yield (size, rng) per chunk: one spawned child seed per chunk, in order."""
    sizes = _chunk_sizes(n_samples, density * math.pi * radius * radius)
    children = np.random.SeedSequence(int(master_seed)).spawn(len(sizes))
    for size, child in zip(sizes, children):
        yield size, np.random.default_rng(child)


def _draw_chunk(params, elev, radius, n, rng):
    """One batch of n realizations, flattened.

    Draw order is fixed (counts, radii, elevation tangents, LoS uniforms)
    so results are reproducible from the chunk's rng alone.  Returns
    (nz, cnz, starts, xi, d3, los): nonzero mask over realizations, point
    counts, segment starts, attenuated gains L ||U||^-alpha, 3D distances,
    LoS marks.  d3 and xi are filled in place (see the module docstring).
    """
    lam_area = params.density * math.pi * radius * radius
    counts = rng.poisson(lam_area, size=n)
    total = int(counts.sum())
    d3 = rng.random(total)
    np.sqrt(d3, out=d3)
    d3 *= radius
    if isinstance(elev, ConstantElevation):
        # scalar secant and LoS probability; worth it, this is the hot path
        d3 *= 1.0 / math.cos(elev.theta_bar)
        xi = rng.random(total)
        los = xi < los_probability(elev.theta_bar, params.c1, params.c2)
    else:
        # d3 = r sqrt(1 + tan^2); the angle is wanted only by the LoS law
        tan_theta = elev.sample_tan(rng, total)
        xi = np.square(tan_theta)
        xi += 1.0
        np.sqrt(xi, out=xi)
        d3 *= xi
        theta = np.arctan(tan_theta, out=tan_theta)
        rng.random(out=xi)
        los = xi < los_probability(theta, params.c1, params.c2)
    np.power(d3, -params.alpha, out=xi)
    if params.ell != 1.0:
        np.multiply(xi, params.ell, out=xi, where=~los)
    nz = counts > 0
    cnz = counts[nz]
    starts = np.zeros(cnz.size, dtype=np.int64)
    if cnz.size > 1:
        starts[1:] = np.cumsum(cnz)[:-1]
    return nz, cnz, starts, xi, d3, los


def _first_max_index(xi, xi_max, cnz, starts):
    """Flat index of the first point attaining its segment's maximum.

    Ties go to the lowest index, as in associate.  Every segment holds at
    least one hit, so the first hit at or after a segment's start is its own.
    """
    hits = np.flatnonzero(xi == np.repeat(xi_max, cnz))
    return hits[np.searchsorted(hits, starts)]


def _downlink_chunk(params, elev, radius, tail_units, n, rng):
    """Operands (signal, interference) of the realizations that hold a UAV.

    signal is the serving fading gain times the serving path gain and
    interference the other UAVs' sum plus the tail mean, both in units of
    power.  A realization without a UAV is never covered, at any threshold.
    """
    # d3 is not needed past the draw: its buffer takes the fading gains
    _, cnz, starts, xi, g, _ = _draw_chunk(params, elev, radius, n, rng)
    if cnz.size == 0:
        return np.empty(0), np.empty(0)
    xi_max = np.maximum.reduceat(xi, starts)
    i_star = _first_max_index(xi, xi_max, cnz, starts)
    rng.standard_exponential(out=g)
    g *= xi
    interference = np.add.reduceat(g, starts) - g[i_star] + tail_units
    g_star = rng.standard_gamma(params.n_antennas, size=cnz.size)
    return g_star * xi_max, interference


def _downlink_hits(operands, power, beta, noise):
    signal, interference = operands
    return int(np.count_nonzero(signal >= beta * (interference + noise / power)))


def _cellfree_chunk(params, elev, radius, tail_units, n, rng):
    """Received signal sum of every realization in units of power, with the
    tail compensation added (a realization without a UAV holds it alone)."""
    # as in _downlink_chunk, the d3 buffer takes the fading gains
    nz, cnz, starts, xi, g, _ = _draw_chunk(params, elev, radius, n, rng)
    rng.standard_gamma(params.n_antennas, out=g)
    compensation = params.n_antennas * tail_units
    total = np.full(n, compensation)
    if cnz.size:
        g *= xi
        total[nz] = np.add.reduceat(g, starts) + compensation
    return total


def _cellfree_hits(total, power, beta, noise):
    return int(np.count_nonzero(total >= beta * noise / power))


_KERNELS = {
    "downlink": (_downlink_chunk, _downlink_hits),
    "cellfree": (_cellfree_chunk, _cellfree_hits),
}


def estimate_sweep(
    metric, rows, elev, n_samples, master_seed, sim_radius=None, guard_tolerance=1e-3
):
    """Monte Carlo coverage ('downlink' or 'cellfree') of every row from one run.

    rows is a sequence of NetworkParams that differ from rows[0] in beta
    and density only.  The geometry is drawn once, at rows[0]'s density,
    guard radius (or sim_radius) and tail mean, and each row is counted on
    it: beta is a threshold on the same SINR, and a density lambda_j is the
    same draw with every distance scaled by (lambda_0/lambda_j)^(1/2), which
    is the noise scaled by (lambda_0/lambda_j)^(alpha/2).  The estimates are
    correlated across rows; each is, on its own, distributed as a separate
    run at that row.  rows[0]'s estimate is the one estimate_downlink or
    estimate_cellfree returns for rows[0] and the same seed.
    """
    params = rows[0]
    for p in rows:
        if replace(p, beta=params.beta, density=params.density) != params:
            raise InvalidParameterError(
                "rows of one run may differ in beta and density only")
    if metric == "cellfree" and params.noise <= 0.0:
        raise InvalidParameterError("cell-free estimation requires noise > 0")
    n_samples = int(n_samples)
    if n_samples < 1:
        raise InvalidParameterError("n_samples must be >= 1")
    radius = sim_radius if sim_radius is not None else guard_radius(params, elev, guard_tolerance)
    thresholds = [
        (p.beta, p.noise * (params.density / p.density) ** (params.alpha / 2.0))
        for p in rows
    ]
    chunk_fn, hits_fn = _KERNELS[metric]
    tail_units = interference_tail_mean(params, elev, radius)
    hits = [0] * len(rows)
    for size, rng in _chunks(n_samples, radius, params.density, master_seed):
        operands = chunk_fn(params, elev, radius, tail_units, size, rng)
        for j, (beta, noise) in enumerate(thresholds):
            hits[j] += hits_fn(operands, params.power, beta, noise)
    estimates = []
    for h in hits:
        mean = h / n_samples
        estimates.append(CoverageEstimate(
            mean=mean,
            std_error=math.sqrt(mean * (1.0 - mean) / n_samples),
            n_samples=n_samples,
            seed=int(master_seed),
        ))
    return estimates


def estimate_downlink(
    params, elev, n_samples, master_seed, sim_radius=None, guard_tolerance=1e-3
):
    """Monte Carlo downlink coverage (strongest-UAV association).

    sim_radius defaults to guard_radius(params, elev, guard_tolerance); the
    far-field mean is always added back to the interference.
    """
    return estimate_sweep(
        "downlink", [params], elev, n_samples, master_seed, sim_radius, guard_tolerance
    )[0]


def estimate_cellfree(
    params, elev, n_samples, master_seed, sim_radius=None, guard_tolerance=1e-3
):
    """Monte Carlo cell-free coverage (all UAVs transmit; SNR of the sum)."""
    return estimate_sweep(
        "cellfree", [params], elev, n_samples, master_seed, sim_radius, guard_tolerance
    )[0]


# -- distribution sampling (for statistical tests) -----------------------------


def _law_radius(params, rate_constant):
    # disk large enough that the relevant extreme lies inside w.p. 1 - ~e^-30
    return math.sqrt(30.0 / max(rate_constant * math.pi * params.density, 1e-300))


def sample_peak_gain(params, elev, n_samples, master_seed, sim_radius=None):
    """Per-realization maxima of L ||U||^-alpha, for distribution tests.

    Realizations with no point inside the disk yield 0 (a gain smaller than
    any positive sample; probability ~e^-30 at the default radius).
    """
    n_samples = int(n_samples)
    if sim_radius is None:
        w_eff = effective_density_factor(params, elev)
        sim_radius = _law_radius(params, w_eff)
    out = []
    for size, rng in _chunks(n_samples, sim_radius, params.density, master_seed):
        nz, cnz, starts, xi, _, _ = _draw_chunk(params, elev, sim_radius, size, rng)
        vals = np.zeros(size)
        if cnz.size:
            vals[nz] = np.maximum.reduceat(xi, starts)
        out.append(vals)
    return np.concatenate(out)


def sample_nearest_sq(params, elev, case, n_samples, master_seed, sim_radius=None):
    """Per-realization squared nearest distances for the three planar laws.

    case meanings match nearest_sq_rate.  Realizations whose disk holds no
    qualifying point yield inf (probability ~e^-30 at the default radius).
    """
    n_samples = int(n_samples)
    rate_c = nearest_sq_rate(params, elev, case) / (math.pi * params.density)
    if sim_radius is None:
        sim_radius = _law_radius(params, rate_c)
    v = 2.0 / params.alpha
    out = []
    for size, rng in _chunks(n_samples, sim_radius, params.density, master_seed):
        nz, cnz, starts, xi, d3, los = _draw_chunk(params, elev, sim_radius, size, rng)
        vals = np.full(size, np.inf)
        if cnz.size:
            if case == "los-weighted":
                # min (L^(-1/alpha) d3)^2 = (max xi)^(-2/alpha)
                vals[nz] = np.maximum.reduceat(xi, starts) ** (-v)
            elif case == "all-los-unit":
                vals[nz] = np.minimum.reduceat(d3, starts) ** 2
            else:  # pure-los
                d3_los = np.where(los, d3, np.inf)
                vals[nz] = np.minimum.reduceat(d3_los, starts) ** 2
        out.append(vals)
    return np.concatenate(out)
