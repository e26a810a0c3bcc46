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

Every chunk draws from its generator the Poisson point counts, then one
radius uniform per point.  Its other draws come from copies of the chunk
generator advanced past the counts (PCG64 jump-ahead; one float64 uniform
is one 64-bit output), so each has a stream of its own.  With `total` the
chunk's point count: at `total`, the LoS uniforms, which only a tangent
law draws, and only at ell < 1; at `total` under a constant elevation and
`2 total` under a tangent law, the fading; at _SPLIT_STEPS = 2^64, far
past anything else the chunk draws, the side stream.  The copies take the
chunk generator's state; no fresh entropy is drawn.

The paper's UAVs are a planar Poisson process whose marks (elevation, and
the LoS mark drawn from it) are independent of their positions.  Under a
constant elevation a UAV's LoS mark is a coin flip at rho(theta_bar), so
the LoS and the NLoS UAVs are independent Poisson processes of density
lambda rho and lambda (1 - rho) (the marking theorem); several theta_bar
cut the UAVs into more such LoS classes.  So a constant-elevation chunk is
drawn by class (_class_blocks) and marks no point: the side stream splits
each realization's count over the classes by a multinomial draw, and its
points lie class after class.  A tangent law marks its points one by one
(_marked_blocks): the side stream holds their tangents, and a point is LoS
when its uniform falls below the LoS probability at its angle.  At ell = 1
the mark changes no gain, and no LoS uniform is drawn.

The fading is, under either law, the downlink's per-realization Gamma(N,
1) serving gains first, then Exp(1) per point; cell-free, Gamma(N, 1) per
point.  The tangents and the fading vary in length, but each fills a
stream of its own in realization order, so drawing them block by block
gives the same sequence as drawing them whole.

Both laws walk a chunk in blocks of whole realizations, about
_BLOCK_POINTS points each (a larger realization is a block of its own),
reading every stream in realization order, so any block size gives the
same bits.  A block's bounds depend on the counts and the LoS classes
only, never on the rows.  A block's points live in four buffers of
_BLOCK_POINTS floats that each thread keeps across blocks, chunks and
runs (_block_buffers).  A point's fading and its position in the disk do
not depend on any other point or mark (the marking theorem), so some of a
block's draws need only its point count (_block_fills): under a constant
law the radius uniforms and the fading, under a tangent law the tangents.
On two cores or more (jobs.cores) a helper thread draws them one block
ahead: the walk asks for block k + 1 as it takes block k, or, for a block
larger than the buffers, once it hands block k back.  On one core the
calling thread draws each block's as it takes it, with the same bits.
Each stream is read by one thread in realization order: the helper reads
its fills' streams, and the calling thread the rest (a constant law's
class splits; a tangent law's radii, LoS uniforms and fading), forms the
path gains and reduces the blocks.  The walk joins its helper when it
ends, also when it is closed early or the reduction raises.  Both walks
yield one block form: points grouped by (realization, LoS class), with
their path gains and fading.  A tangent law's points carry their secant
and attenuation in that gain and all lie in one class, LoS at the draw's
single column.  So one reduction (_row_operands) serves every law and
every row; it gathers the rows a
block-sized slice of realizations at a time.  A chunk's peak allocation is
a fixed working set of a few MB under either law, whatever its point
count: its per-realization counts, the thread's four buffers, one block's
temporaries (a tangent law's LoS law, the downlink's first-maximum search)
and one slice of row grids.  A realization larger than a buffer gets fresh
arrays, which die before the next block's are drawn, so a chunk of such
realizations peaks as its largest alone does.  A block holds at least one
whole realization, so a disk that would hold more than _MAX_POINTS points
on average is refused before the first draw.

The reduction stops before the coverage test and returns per-realization
operands for every row: the serving signal and the interference
(downlink), or the received sum with the tail compensation (cell-free).
The run then counts each row's hits with the comparison a single estimate
makes, so one draw serves every row that shares_draw admits; the sharing
rule is stated there.  estimate_downlink and estimate_cellfree are the
one-row case of estimate_sweep, and the distribution samplers read the
same block walk (_peak_gain).
"""

import math
import operator
import queue
import threading
from contextlib import closing, contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .analytic import (
    effective_density_factor,
    nearest_sq_params,
    nearest_sq_rate,
    tail_gain_moment,
)
from .jobs import cores
from .model import ConstantElevation, InvalidParameterError, los_probability

_POINTS_PER_CHUNK = 2_000_000  # batching target; fixed so chunking is reproducible
_MIN_RADIUS_FACTOR = 10.0      # floor: R >= 10 / sqrt(pi * density)
_BLOCK_POINTS = 65_536         # points per block of a chunk; any value gives the same bits
_MAX_POINTS = 2**24            # mean points per realization; a chunk of one or more such
                               # realizations peaks at ~25 B/pt (~0.42 GB) constant, ~33
                               # (~0.55 GB) under a tangent law
_MAX_ROWS = 10_000             # rows of one run; bounds a row grid of one realization
_SPLIT_STEPS = 2**64           # outputs from a chunk's counts to its side stream


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


def _run_size(n_samples, sim_radius):
    """n_samples as an int, once it and an explicit sim_radius are checked."""
    try:
        n = operator.index(n_samples)  # ints and numpy integers, not 2.7
    except TypeError:
        n = 0
    if n < 1:
        raise InvalidParameterError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    if sim_radius is not None and not (math.isfinite(sim_radius) and sim_radius > 0.0):
        raise InvalidParameterError(f"sim_radius must be finite and > 0, got {sim_radius!r}")
    return n


def _chunk_sizes(n_samples, mean_points):
    per = max(1, min(int(_POINTS_PER_CHUNK / max(mean_points, 1.0)), 65536))
    sizes = [per] * (n_samples // per)
    if n_samples % per:
        sizes.append(n_samples % per)
    return sizes


def disk_points(density, radius):
    """Mean points per realization of a disk, refused over _MAX_POINTS.

    Memory grows with the largest realization, so the refusal comes before
    any draw: the estimators check their disk here, and parse_config every
    point of a config.
    """
    mean_points = density * math.pi * radius * radius
    if not mean_points <= _MAX_POINTS:
        raise InvalidParameterError(
            f"a realization would hold {mean_points:.3g} points on average (radius "
            f"{radius:.4g} m), over the Monte Carlo cap of {_MAX_POINTS}")
    return mean_points


def _chunks(n_samples, radius, density, master_seed):
    """(size, rng) per chunk, in order: one spawned child seed per chunk."""
    sizes = _chunk_sizes(n_samples, disk_points(density, radius))
    children = np.random.SeedSequence(int(master_seed)).spawn(len(sizes))
    return ((size, np.random.default_rng(child)) for size, child in zip(sizes, children))


def _stream_at(rng, steps):
    """A generator on rng's stream, steps 64-bit outputs further on.

    rng itself does not move.  The copy is built from rng's own seed
    sequence and then given rng's state, so no fresh entropy is drawn.
    """
    bit_gen = type(rng.bit_generator)(rng.bit_generator.seed_seq)
    bit_gen.state = rng.bit_generator.state
    bit_gen.advance(steps)
    return np.random.Generator(bit_gen)


def _counts(params, radius, n, rng):
    """Poisson point counts of n realizations of the disk, and their total."""
    counts = rng.poisson(params.density * math.pi * radius * radius, size=n)
    return counts, int(counts.sum())


def _block_bounds(counts, span):
    """Realization bounds of a chunk's blocks, and their point counts.

    A block holds whole realizations, about _BLOCK_POINTS points (a larger
    realization is a block of its own) and at most span realizations.
    """
    ends = np.cumsum(counts)
    bounds = [0]
    while bounds[-1] < counts.size:
        a = bounds[-1]
        base = ends[a - 1] if a else 0
        b = int(np.searchsorted(ends, base + _BLOCK_POINTS, side="right"))
        bounds.append(min(max(b, a + 1), a + span))
    return bounds, np.diff(np.concatenate(([0], ends))[bounds]).tolist()


def _segment_starts(cnz):
    """Where each segment starts when segments of lengths cnz lie end to end."""
    starts = np.zeros(cnz.size, dtype=np.int64)
    np.cumsum(cnz[:-1], out=starts[1:])
    return starts


def _draw(params, elev, radius, share, n, rng, shape=None):
    """One chunk of n realizations: (fade, blocks).

    fade is the stream of the chunk's fading draws and blocks its block walk,
    by LoS class at shares share of the density under a constant elevation
    (_class_blocks), point by point under a tangent law (_marked_blocks).
    The walk yields each block's Gamma(shape, 1) fading, or no fading at
    shape None.  fade is the caller's only until it takes the first block;
    the walk then reads it on.  A block holds at most _BLOCK_POINTS // (8
    classes) realizations, so its grids of one number per (realization,
    class) stay small.  After the counts, rng keeps the radii; the side
    stream (class splits or tangents) starts at _SPLIT_STEPS, and a tangent
    law's LoS uniforms at total, which puts its fading at 2 total (module
    docstring).
    """
    counts, total = _counts(params, radius, n, rng)
    span = max(1, _BLOCK_POINTS // (8 * share.size))
    side = _stream_at(rng, _SPLIT_STEPS)
    if isinstance(elev, ConstantElevation):
        fade = _stream_at(rng, total)
        return fade, _class_blocks(params, radius, share, counts, span, rng, side, fade, shape)
    fade = _stream_at(rng, 2 * total)
    return fade, _marked_blocks(
        params, elev, radius, counts, span, rng, _stream_at(rng, total), side, fade, shape)


_workspace = threading.local()  # a thread's block buffers while no walk holds them


@contextmanager
def _block_buffers(count):
    """count buffers of _BLOCK_POINTS floats for one block walk.

    Each thread keeps one set across blocks, chunks and runs, grown to the
    largest count a walk has asked for, and lends it to one walk at a time:
    a walk that starts while another walk of the same thread holds it gets
    buffers of its own.  A thread keeps one set at most.
    """
    kept = getattr(_workspace, "buffers", None) or []
    _workspace.buffers = None
    if kept and kept[0].size != _BLOCK_POINTS:
        kept = []
    kept += [np.empty(_BLOCK_POINTS) for _ in range(count - len(kept))]
    try:
        yield kept[:count]
    finally:
        _workspace.buffers = kept


def _block_view(buffer, m):
    """The first m floats of a kept buffer; a fresh array, dropped with the
    block, for a block of one realization larger than the buffer."""
    return buffer[:m] if m <= buffer.size else np.empty(m)


def _class_blocks(params, radius, share, counts, span, rng, split, fade, shape):
    """The block walk of a constant-elevation chunk drawn by LoS class.

    counts are the chunk's point counts, just drawn from rng; share holds
    the classes' shares of the density, and split is the stream of their
    multinomial splits.  Each block's radius uniforms (from rng) and its
    fading (from fade, at shape) are drawn one block ahead (_block_fills);
    the calling thread draws the splits and forms the path gains.  Yields
    (sl, nz, filled, clen, starts, xi, g) per block: its slice of the
    chunk's realizations, their nonzero mask, which (realization, class)
    cells hold a point, the point counts and segment starts of those, the
    points' planar r^-alpha class after class, and their fading; the next
    block overwrites the last two, so the caller drops them before it takes
    the next block.
    """
    bounds, sizes = _block_bounds(counts, span)
    r_sq = radius * radius

    def fill(u, g):
        rng.random(out=u)
        if shape is not None:
            _gamma_fill(fade, shape, g)

    with _block_buffers(4) as buffers, _block_fills(fill, sizes, buffers) as fills:
        for a, b in zip(bounds, bounds[1:]):
            c = counts[a:b]
            cells = split.multinomial(c, share).ravel()
            filled = cells > 0
            clen = cells[filled]
            xi, g = next(fills)
            # (R^2 u)^(-alpha/2) is (R sqrt(u))^-alpha without the sqrt
            xi *= r_sq
            np.power(xi, -0.5 * params.alpha, out=xi)
            yield slice(a, b), c > 0, filled, clen, _segment_starts(clen), xi, g
            del xi, g  # a large block's arrays die before the next block's


def _marked_blocks(params, elev, radius, counts, span, rng, los_rng, side, fade, shape):
    """The block walk of a tangent-law chunk, in _class_blocks' form.

    Each block's tangents come from side, drawn one block ahead
    (_block_fills); its radii (from rng), LoS uniforms (from los_rng) and
    fading (from fade, at shape) are drawn on the calling thread, the
    fading into the scratch buffer once the marks are made.  xi holds each
    point's L ||U||^-alpha, its secant and attenuation included, so every
    point lies in the first of two classes, LoS at the draw's one column,
    and the second class stays empty.
    """
    bounds, sizes = _block_bounds(counts, span)

    def fill(tan):
        elev.sample_tan(side, tan.size, out=tan)

    with _block_buffers(4) as buffers, _block_fills(fill, sizes, buffers[2:]) as fills:
        for a, b, m in zip(bounds, bounds[1:], sizes):
            xi, scratch = _block_view(buffers[0], m), _block_view(buffers[1], m)
            tan, = next(fills)
            _mark(params, radius, rng, los_rng, tan, xi, scratch)
            if shape is not None:
                _gamma_fill(fade, shape, scratch)
            c = counts[a:b]
            nz = c > 0
            filled = np.zeros(2 * nz.size, dtype=bool)
            filled[::2] = nz
            clen = c[nz]
            yield slice(a, b), nz, filled, clen, _segment_starts(clen), xi, scratch
            del xi, scratch  # a large block's arrays die before the next block's


@contextmanager
def _block_fills(fill, sizes, buffers):
    """An iterator over the fills of blocks of the given sizes: per block,
    views of half of buffers at its size (_block_view), which fill(*views)
    draws.  fill reads streams that nothing else reads while the walk
    lasts, each in block order, so the bits do not depend on its thread.

    On one core (jobs.cores) the caller runs fill into the first half as it
    takes each block.  On two or more a helper thread runs it into the two
    halves in turn, on request: block 0 when the walk starts, block k + 1
    when the caller takes block k, or, if that block gets fresh arrays
    (larger than the buffers), once the caller hands block k back by
    taking the next; so no two such blocks are alive at once.  A helper
    exception reaches the caller at its next take.  On exit, also an early
    one, the helper is sent None and joined, so the buffers are free again.
    """
    width = len(buffers) // 2
    halves = buffers[:width], buffers[width:]

    def draw(k, half):
        views = [_block_view(buffer, sizes[k]) for buffer in halves[half]]
        fill(*views)
        return views

    if cores() < 2:
        yield (draw(k, 0) for k in range(len(sizes)))
        return
    requests, ready = queue.SimpleQueue(), queue.SimpleQueue()

    def serve():
        try:
            for k in iter(requests.get, None):
                ready.put(draw(k, k % 2))
        except BaseException as exc:  # handed to the caller, which re-raises it
            ready.put(exc)

    def take():
        for k in range(len(sizes)):
            ahead = k + 1 < len(sizes)
            late = ahead and sizes[k + 1] > _BLOCK_POINTS  # asked for once block k is back
            if ahead and not late:
                requests.put(k + 1)
            views = ready.get()
            if isinstance(views, BaseException):
                raise views
            yield views
            del views  # handed back
            if late:
                requests.put(k + 1)

    requests.put(0)
    helper = threading.Thread(target=serve, name="uavcov-fills", daemon=True)
    helper.start()
    try:
        yield take()
    finally:
        requests.put(None)
        helper.join()


def _mark(params, radius, rng, los_rng, tan, xi, scratch):
    """Fill xi with the L ||U||^-alpha of one block's points, whose tangents
    are tan.

    ||U||^2 = R^2 u (1 + tan^2), so one pow gives ||U||^-alpha without a 3D
    distance or a sqrt; the angle is wanted only by the LoS law, which
    overwrites tan with it.  At ell = 1 every mark leaves the gain as it is,
    so no LoS uniform is drawn; they have a stream of their own, so no other
    draw moves.  The block's LoS arrays die on return, before the
    reduction's own.
    """
    rng.random(out=xi)
    xi *= radius * radius
    np.square(tan, out=scratch)
    scratch += 1.0
    xi *= scratch
    np.power(xi, -0.5 * params.alpha, out=xi)
    ell = params.ell
    if ell == 1.0:
        return
    los_rng.random(out=scratch)
    los = scratch < los_probability(np.arctan(tan, out=tan), params.c1, params.c2)
    # ell + (1 - ell) rounds to exactly 1.0 for every ell in [0, 1], so a
    # LoS gain keeps its bits and an NLoS one is xi * ell; unlike a multiply
    # masked by ~los, its cost does not depend on how often the mask flips
    att = np.multiply(los, 1.0 - ell, out=scratch)
    att += ell
    xi *= att


def _first_max_index(xi, xi_max, cnz, starts):
    """Flat index of the first point attaining its segment's maximum.

    Ties go to the lowest index, as in associate.  Every segment holds at
    least one hit, so the first hit at or after a segment's start is its own.
    """
    hits = np.flatnonzero(xi == np.repeat(xi_max, cnz))
    return hits[np.searchsorted(hits, starts)]


def _downlink_hits(operands, power, beta, noise):
    """Hits per row of (realizations, rows) operands."""
    signal, interference = operands
    return np.count_nonzero(signal >= beta * (interference + noise / power), axis=0)


def _cellfree_hits(total, power, beta, noise):
    return np.count_nonzero(total >= beta * noise / power, axis=0)


def _gamma_fill(fade, shape, out):
    """Fill out with Gamma(shape, 1) draws from fade.

    At shape 1 numpy's exponential fill gives the same values and leaves
    fade in the same state, only faster.
    """
    if shape == 1:
        fade.standard_exponential(out=out)
    else:
        fade.standard_gamma(shape, out=out)


def _running_peak(m, g):
    """Running maximum of m along axis 1, and g where it was reached."""
    if m.shape[1] == 1:
        return m, g
    peak = np.maximum.accumulate(m, axis=1)
    at = np.where(m == peak, np.arange(m.shape[1]), 0)
    np.maximum.accumulate(at, axis=1, out=at)
    return peak, np.take_along_axis(g, at, axis=1)


def _row_operands(metric, params, elev, radius, rho, gain, tail, col, n, rng):
    """Per-block operands of every row of one draw.

    rho holds the draw's distinct LoS probabilities in ascending order, one
    per column, and gain (the factor on every path gain) and tail (the tail
    mean at radius) follow it; row i reads column col[i].  The UAVs of class
    c, a Poisson process of density lambda (rho_{c+1} - rho_c) (rho_0 = 0,
    rho_{K+1} = 1), are LoS at columns j >= c and NLoS below, so column j
    scales their path gain by gain[j], and by ell if NLoS.  Under a constant
    elevation a column is a theta_bar, with gain cos^alpha theta_bar.  A
    tangent law's points carry their own secant and attenuation: its draw
    has one column, rho = gain = [1], and all its points in class 0.

    A block is reduced by (realization, class) segment to the sum of fading
    times path gain, and for the downlink to the largest path gain and the
    fading times path gain of the first point reaching it.  A column reads a
    prefix (LoS) and a suffix (NLoS) of these, so the rows cost
    O(realizations x rows), not a pass over the points each.  Yields
    (signal, interference) of the realizations that hold a UAV, or the
    received sums of every realization, as (realizations, rows) arrays of
    at most _BLOCK_POINTS // (8 rows) realizations (one at least).
    """
    share = np.diff(rho, prepend=0.0, append=1.0)
    width = share.size
    fade, blocks = _draw(params, elev, radius, share, n, rng,
                         1 if metric == "downlink" else params.n_antennas)
    ell = params.ell
    if metric == "downlink":
        g_star = fade.standard_gamma(params.n_antennas, size=n)
    step = max(1, _BLOCK_POINTS // (8 * col.size))
    with closing(blocks):  # a walk left early stops its helper at once
        for sl, nz, filled, clen, starts, xi, g in blocks:
            g *= xi
            sums = np.zeros(filled.size)
            sums[filled] = np.add.reduceat(g, starts)
            if metric == "downlink":
                xi_max = np.maximum.reduceat(xi, starts)
                peak, at_peak = np.zeros(filled.size), np.zeros(filled.size)
                peak[filled] = xi_max
                # ties to the lowest index, as in associate
                at_peak[filled] = g[_first_max_index(xi, xi_max, clen, starts)]
            del xi, g  # a large block's arrays die before the next block's
            sums = sums.reshape(-1, width)
            # column j: LoS classes 0..j, NLoS classes j+1..K
            rest = np.cumsum(sums[:, :-1], axis=1)
            rest += ell * np.cumsum(sums[:, :0:-1], axis=1)[:, ::-1]
            if metric == "cellfree":
                total = gain * rest + params.n_antennas * tail
                for i in range(0, len(total), step):
                    yield total[i:i + step, col]
                continue
            peak, at_peak = peak.reshape(-1, width)[nz], at_peak.reshape(-1, width)[nz]
            los_peak, los_served = _running_peak(peak[:, :-1], at_peak[:, :-1])
            nlos_peak, nlos_served = _running_peak(peak[:, :0:-1], at_peak[:, :0:-1])
            nlos_peak = ell * nlos_peak[:, ::-1]
            by_los = los_peak >= nlos_peak
            served = np.where(by_los, los_served, ell * nlos_served[:, ::-1])
            signal = g_star[sl][nz, None] * (gain * np.where(by_los, los_peak, nlos_peak))
            interference = gain * (rest[nz] - served) + tail
            # a block without a point still yields its empty operands once
            for i in range(0, max(len(signal), 1), step):
                yield signal[i:i + step, col], interference[i:i + step, col]


def shares_draw(settings):
    """Whether one Monte Carlo draw serves every (params, elevation) of settings.

    The sharing rule: rows share a draw when they differ from the first
    only in beta and density, and in elevation only as constant elevations
    with different theta_bar.  The UAV marks (elevation and LoS) do not
    depend on distance (the marking theorem), so one draw gives the SINR at
    every beta, and a density lambda_j is the same draw with every distance
    scaled by (lambda_0/lambda_j)^(1/2), which only scales the noise by
    (lambda_0/lambda_j)^(alpha/2).  A constant theta_bar enters a draw only
    as the factor cos^alpha theta_bar on every path gain and as the LoS
    threshold rho(theta_bar) that bounds the draw's LoS classes
    (_row_operands).  A tangent law draws its tangents from theta_bar and
    its shape, so it shares only with equal laws.
    """
    (params, elev), *rest = settings
    return all(
        replace(p, beta=params.beta, density=params.density) == params
        and (e == elev or isinstance(e, ConstantElevation) and isinstance(elev, ConstantElevation))
        for p, e in rest)


def estimate_sweep(
    metric, rows, elev, n_samples, master_seed, sim_radius=None, guard_tolerance=1e-3
):
    """Monte Carlo coverage ('downlink' or 'cellfree') of every row from one run.

    rows is a sequence of NetworkParams and elev one elevation law for
    every row, or a sequence of one per row; shares_draw must admit them.
    The geometry is drawn once, at rows[0]'s density and seed, and each row
    is counted on it.  Rows with several theta_bar are drawn at the largest
    of their guard radii (or sim_radius), each row adding its own tail mean
    at that radius.  The estimates are correlated across rows; each is, on
    its own, distributed as a separate run at that row and radius.  With
    one elevation, rows[0]'s estimate is the one estimate_downlink or
    estimate_cellfree returns for rows[0] and the same seed; with several,
    no row's is.
    """
    params = rows[0]
    elevs = list(elev) if isinstance(elev, (list, tuple)) else [elev] * len(rows)
    if len(elevs) != len(rows):
        raise InvalidParameterError("give one elevation law, or one per row")
    if not shares_draw(list(zip(rows, elevs))):
        raise InvalidParameterError(
            "rows of one run may differ in beta, density and constant theta_bar only")
    laws = list(dict.fromkeys(elevs))
    if len(rows) > _MAX_ROWS:
        raise InvalidParameterError(f"a run takes at most {_MAX_ROWS} rows, got {len(rows)}")
    if metric == "cellfree" and params.noise <= 0.0:
        raise InvalidParameterError("cell-free estimation requires noise > 0")
    n_samples = _run_size(n_samples, sim_radius)
    if sim_radius is not None:
        radius = sim_radius
    else:
        radius = max(guard_radius(params, e, guard_tolerance) for e in laws)
    beta = np.array([p.beta for p in rows])
    noise = np.array(
        [p.noise * (params.density / p.density) ** (params.alpha / 2.0) for p in rows])
    if isinstance(laws[0], ConstantElevation):
        # one column per distinct theta_bar, in rho order; each row reads its own
        theta = np.array([e.theta_bar for e in laws])
        rho = los_probability(theta, params.c1, params.c2)
        order = np.argsort(rho, kind="stable")
        column = {laws[i]: j for j, i in enumerate(order)}
        col = np.array([column[e] for e in elevs])
        rho, gain = rho[order], np.cos(theta[order]) ** params.alpha
        laws = [laws[i] for i in order]
    else:
        # one column, at which a tangent law's marked points are all LoS
        rho = gain = np.ones(1)
        col = np.zeros(len(rows), dtype=np.intp)
    tail = np.array([interference_tail_mean(params, e, radius) for e in laws])
    hits_fn = _downlink_hits if metric == "downlink" else _cellfree_hits
    hits = np.zeros(len(rows), dtype=np.int64)
    for size, rng in _chunks(n_samples, radius, params.density, master_seed):
        with closing(_row_operands(
                metric, params, laws[0], radius, rho, gain, tail, col, size, rng)) as blocks:
            for operands in blocks:
                hits += hits_fn(operands, params.power, beta, noise)
    estimates = []
    for h in hits.tolist():
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


def _peak_gain(params, elev, n_samples, master_seed, radius):
    """Per-realization maxima of L ||U||^-alpha (0 without a point): the
    larger of a realization's LoS class maximum and ell times its NLoS one,
    times cos^alpha theta_bar.  A tangent law's points carry their own
    secant and attenuation and lie in the LoS class, at scale 1."""
    if isinstance(elev, ConstantElevation):
        rho = los_probability(elev.theta_bar, params.c1, params.c2)
        scale = math.cos(elev.theta_bar) ** params.alpha
    else:
        rho = scale = 1.0
    share = np.array([rho, 1.0 - rho])
    out = []
    for size, rng in _chunks(n_samples, radius, params.density, master_seed):
        peak = np.zeros((size, 2))
        _, blocks = _draw(params, elev, radius, share, size, rng)
        with closing(blocks):
            for sl, _, filled, _, starts, xi, spare in blocks:
                peak[sl].reshape(-1)[filled] = np.maximum.reduceat(xi, starts)
                del xi, spare  # a large block's arrays die before the next block's
        out.append(np.maximum(peak[:, 0], params.ell * peak[:, 1]))
    return scale * np.concatenate(out)


def sample_peak_gain(params, elev, n_samples, master_seed, sim_radius=None):
    """Per-realization maxima of L ||U||^-alpha, for distribution tests.

    Realizations with no point inside the disk yield 0 (a gain smaller than
    any positive sample; probability ~e^-30 at the default radius).
    """
    n_samples = _run_size(n_samples, sim_radius)
    if sim_radius is None:
        w_eff = effective_density_factor(params, elev)
        sim_radius = _law_radius(params, w_eff)
    return _peak_gain(params, elev, n_samples, master_seed, sim_radius)


def sample_nearest_sq(params, elev, case, n_samples, master_seed, sim_radius=None):
    """Per-realization squared nearest distances for the three planar laws.

    case meanings match nearest_sq_rate.  Realizations whose disk holds no
    qualifying point yield inf (probability ~e^-30 at the default radius).
    """
    n_samples = _run_size(n_samples, sim_radius)
    rate_c = nearest_sq_rate(params, elev, case) / (math.pi * params.density)
    if sim_radius is None:
        sim_radius = _law_radius(params, rate_c)
    # min (L^(-1/alpha) d3)^2 = (max L d3^-alpha)^(-2/alpha), with L at the
    # case's attenuation; 0 (no point) gives inf
    peak = _peak_gain(nearest_sq_params(params, case), elev, n_samples, master_seed, sim_radius)
    with np.errstate(divide="ignore"):
        return peak ** (-2.0 / params.alpha)
