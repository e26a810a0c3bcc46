"""Monte Carlo estimators: reference-path algebra, truncation control,
seeding, and statistical consistency with the analytic route."""

import hashlib
import itertools
import math
import pickle
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import kstest

import uavcov.jobs as jobs
import uavcov.montecarlo as mc
from uavcov.analytic import (
    cellfree_coverage,
    downlink_coverage,
    nearest_sq_rate,
    peak_gain_cdf,
    tail_gain_moment,
    effective_density_factor,
)
from uavcov.model import (
    ConstantElevation,
    GammaTanElevation,
    InvalidParameterError,
    NetworkParams,
    NetworkRealization,
    los_probability,
    realize_network,
)
from uavcov.montecarlo import (
    CoverageEstimate,
    EmptyRealizationError,
    associate,
    estimate_cellfree,
    estimate_downlink,
    guard_radius,
    interference_tail_mean,
    sample_nearest_sq,
    sample_peak_gain,
)
from uavcov.numerics.quadrature import AccuracyError

E25 = ConstantElevation(math.radians(25.0))
GAMMA20 = GammaTanElevation(3.0, math.radians(20.0))


def _make_realization(x, y, theta, los):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    theta = np.asarray(theta, dtype=float)
    los = np.asarray(los, dtype=bool)
    alt = np.hypot(x, y) * np.tan(theta)
    return NetworkRealization(
        x=x, y=y, theta=theta, altitude=alt, los=los, sim_radius=1e4, seed=0
    )


# -- association ----------------------------------------------------------------


def test_associate_prefers_strong_attenuated_gain():
    # LoS at 100 m beats NLoS at 80 m once ell = 0.25 is applied:
    # 100^-2.75 = 3.16e-6 > 0.25 * 80^-2.75 = 1.46e-6
    real = _make_realization([100.0, 80.0], [0.0, 0.0], [0.0, 0.0], [True, False])
    assert associate(real, 2.75, 0.25) == 0
    # without attenuation the closer UAV wins
    assert associate(real, 2.75, 1.0) == 1


def test_associate_tie_takes_lowest_index():
    real = _make_realization([50.0, 50.0], [0.0, 0.0], [0.0, 0.0], [True, True])
    assert associate(real, 2.75, 0.25) == 0


def test_associate_empty_raises():
    real = _make_realization([], [], [], [])
    with pytest.raises(EmptyRealizationError):
        associate(real, 2.75, 0.25)


# -- truncation control ----------------------------------------------------------


def test_guard_radius_floor_engages_for_loose_tolerance():
    p = NetworkParams(density=1e-4)
    floor = 10.0 / math.sqrt(math.pi * p.density)
    assert guard_radius(p, E25, 0.1) == pytest.approx(floor, rel=1e-12)


@pytest.mark.parametrize("tol", [0.0, -1e-3, 1.0, 5.0, math.inf, math.nan])
def test_guard_radius_rejects_tolerance_outside_unit_interval(tol):
    p = NetworkParams(density=1e-6)
    with pytest.raises(InvalidParameterError, match="tolerance"):
        guard_radius(p, E25, tol)
    with pytest.raises(InvalidParameterError, match="tolerance"):
        estimate_downlink(p, E25, 10, 0, guard_tolerance=tol)


def test_guard_radius_tightens_with_tolerance():
    p = NetworkParams(density=1e-7)
    r3 = guard_radius(p, E25, 1e-3)
    r4 = guard_radius(p, E25, 1e-4)
    assert r4 > r3
    # R grows like tolerance^(-1/(alpha-1))
    assert r4 / r3 == pytest.approx(10.0 ** (1.0 / (p.alpha - 1.0)), rel=1e-9)


def test_guard_radius_meets_its_own_contract():
    p = NetworkParams(density=1e-7)
    tol = 1e-3
    radius = guard_radius(p, E25, tol)
    mu = math.pi * p.density * effective_density_factor(p, E25)
    reference = 2.0 * mu ** (p.alpha / 2.0) / (p.alpha - 2.0)
    m2 = tail_gain_moment(p, E25, 2)
    tail_sd = math.sqrt(
        4.0 * math.pi * p.density * m2 / (2.0 * p.alpha - 2.0)
    ) * radius ** (1.0 - p.alpha)
    assert tail_sd <= tol * reference * (1.0 + 1e-12)


def test_tail_mean_matches_brute_force_annulus():
    # Campbell formula vs direct sampling of the far field
    p = NetworkParams(density=1e-6)
    r_in, r_out = 5e3, 2e5
    want = interference_tail_mean(p, E25, r_in) - interference_tail_mean(p, E25, r_out)
    rng = np.random.default_rng(55)
    area = math.pi * (r_out**2 - r_in**2)
    reps = 60
    masses = np.empty(reps)
    sec = 1.0 / math.cos(E25.theta_bar)
    from uavcov.model import los_probability

    p_los = los_probability(E25.theta_bar, p.c1, p.c2)
    for i in range(reps):
        n = rng.poisson(p.density * area)
        rr = np.sqrt(rng.random(n) * (r_out**2 - r_in**2) + r_in**2)
        d3 = rr * sec
        ell_f = np.where(rng.random(n) < p_los, 1.0, p.ell)
        masses[i] = float(np.sum(ell_f * d3**-p.alpha))
    se = masses.std(ddof=1) / math.sqrt(reps)
    assert abs(masses.mean() - want) <= 5.0 * se


def test_tail_mean_decreasing_in_radius():
    p = NetworkParams(density=1e-6)
    radii = [2e3, 1e4, 1e5]
    vals = [interference_tail_mean(p, E25, r) for r in radii]
    assert vals[0] > vals[1] > vals[2] > 0.0


@pytest.mark.parametrize("estimate", [estimate_downlink, estimate_cellfree])
def test_a_failed_tail_moment_at_a_given_radius_is_an_accuracy_error(estimate):
    # with sim_radius given no w_eff is formed, so only the tail moment sees
    # the failed expectation of shape 1e20; its inf once read as a downlink
    # mean of 0.0 with std_error 0, and a cell-free 1.0
    with pytest.raises(AccuracyError, match="order-1 tail gain moment = inf "):
        estimate(NetworkParams(density=1e-6), GammaTanElevation(1e20, math.radians(20.0)),
                 100, 1, sim_radius=3000.0)


# -- estimator behavior -----------------------------------------------------------


def test_estimates_are_bit_reproducible():
    p = NetworkParams(density=1e-6)
    a = estimate_downlink(p, E25, 3000, 77)
    b = estimate_downlink(p, E25, 3000, 77)
    assert a == b
    c = estimate_downlink(p, E25, 3000, 78)
    assert c.mean != a.mean or c.seed != a.seed


def _sha256(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


# The block size of the chunk walk never moves a bit: the golden tests run
# at sizes that split every realization into its own block, that hold a
# realization larger than a block, and at the default.
@pytest.fixture(params=[1, 7, 1000, mc._BLOCK_POINTS])
def block_points(request, monkeypatch):
    monkeypatch.setattr(mc, "_BLOCK_POINTS", request.param)
    return request.param


def test_outputs_match_recorded_golden_values(block_points):
    # Exact outputs of the chunk kernels: any change to the draw order or to
    # a float operation moves these.  The digests are of float64 bytes from
    # numpy 2.4 on x86-64 with AVX-512, whose SIMD pow/exp may round
    # differently from the kernels numpy picks on another CPU family.
    gamma_tan = GammaTanElevation(3.0, math.radians(20.0))
    for ell, want in ((0.25, 0.796), (1.0, 0.777), (0.0, 0.7816666666666666)):
        assert estimate_downlink(NetworkParams(density=1e-6, ell=ell), E25, 3000, 11).mean == want
    assert estimate_downlink(NetworkParams(density=1e-6), gamma_tan, 3000, 12).mean == (
        0.7873333333333333)
    p_cf = NetworkParams(density=1e-6, beta=1e4, n_antennas=2)
    assert estimate_cellfree(p_cf, E25, 3000, 13).mean == 0.7386666666666667
    p = NetworkParams(density=1e-6)
    assert _sha256(sample_peak_gain(p, E25, 3000, 14)) == (
        "9533cdf11f3ff1a1260dc0c93b7ccaaa782f9917bbae4b0f3b399c534ad3e589")
    for i, (case, want) in enumerate((
        ("all-los-unit", "a3b204463e6274dce0adc46c4447098bfb3a36622f26ad7e3acfdf7c5035d5ff"),
        ("los-weighted", "8c2e4141439999be93bb9ab1c8e0bc214cc96872c341edbc13d7669e746cc8c0"),
        ("pure-los", "e021c4dff7205bca25b643fe8f737b245cf5156fb22b4834a9615f2b97e6f0d2"),
    )):
        assert _sha256(sample_nearest_sq(p, E25, case, 3000, 15 + i)) == want, case


def test_gamma_tan_outputs_match_recorded_golden_values(block_points):
    # The tangent walk (_marked_blocks): the tangent draws, the LoS uniforms
    # and the LoS law must keep their streams and their bits.
    gamma_tan = GammaTanElevation(3.0, math.radians(20.0))
    p_cf = NetworkParams(density=1e-6, beta=1e4, n_antennas=2)
    assert estimate_cellfree(p_cf, gamma_tan, 3000, 16).mean == 0.7093333333333334
    p = NetworkParams(density=1e-6)
    radius = guard_radius(p, gamma_tan, 1e-3)
    share = np.array([1.0, 0.0])
    _, blocks = mc._draw(p, gamma_tan, radius, share, 200, np.random.default_rng(18))
    # each block's gains live in a buffer the next block overwrites
    xi = np.concatenate([block[5].copy() for block in blocks])
    assert xi.size == 204954
    assert _sha256(xi) == "087455f1f1a8a3c4b856894878f1753f0f608bbaac067314633bf7b59bde4f73"
    assert _sha256(sample_peak_gain(p, gamma_tan, 3000, 14)) == (
        "d0eaa9b93b06cb247d38581a9a721828b083f484b79216fb51f8d2f7f4272aa2")
    assert _sha256(sample_nearest_sq(p, gamma_tan, "los-weighted", 3000, 16)) == (
        "7e1a9d4833471e206514dc2245fc22ee889e8716c520d7f1069d040be00cbb17")


@pytest.mark.parametrize("elev,digests", [
    (E25, ("bbdef175e275ecd1e561036c479363f53c2d2741fe695885b87042f401e723a5",
           "f9cb05d0f60b9ca6bbc25ec7aeae29d1b773724b5a8e8e9c04372ad966dbd7cd",
           "8d0f36faa8356e88b8520f43dc6abeb1d6760ad501bda478c4704fdbd61f6ba3")),
    (GammaTanElevation(3.0, math.radians(20.0)),
     ("f9a77bec98f25d89728d7f389e113a054f03de92184ce4c4b3c27071d4cb01ed",
      "005107dbfe452003ae5e9f67e769d9e8e82748f6365dcf396f8df1b8f9a8996c",
      "b22e6747ef1c79bb4b7254aa9cf0f1052d60336abca892ad73deee76c05e6842")),
], ids=["constant", "gamma_tan"])
def test_realizations_larger_than_a_block_match_recorded_golden_values(
        block_points, elev, digests):
    # a 180 km disk holds ~1.02e5 points per realization, more than the
    # default block: such a realization is walked as one block of its own
    p = NetworkParams(density=1e-6)
    radius = 180e3
    assert mc._BLOCK_POINTS < 1.01e5 < p.density * math.pi * radius**2
    signal, interference = _one_row_chunk(
        "downlink", p, elev, radius, 3, np.random.default_rng(21))
    assert _sha256(np.concatenate([signal, interference])) == digests[0]
    assert _sha256(_one_row_chunk(
        "cellfree", p, elev, radius, 3, np.random.default_rng(22))) == digests[1]
    assert _sha256(sample_nearest_sq(p, elev, "pure-los", 3, 23, sim_radius=radius)) == (
        digests[2])


def test_chunks_without_points_yield_the_empty_outcome(block_points):
    # a 1 m disk holds a point with probability ~3e-6: every block is empty
    p = NetworkParams(density=1e-6)
    for elev in (E25, GammaTanElevation(3.0, math.radians(20.0))):
        signal, interference = _one_row_chunk(
            "downlink", p, elev, 1.0, 500, np.random.default_rng(28))
        assert signal.size == interference.size == 0
        total = _one_row_chunk("cellfree", p, elev, 1.0, 500, np.random.default_rng(28))
        tail = interference_tail_mean(p, elev, 1.0)
        assert total.tolist() == [p.n_antennas * tail] * 500
        assert estimate_downlink(p, elev, 500, 24, sim_radius=1.0).mean == 0.0
        assert (sample_peak_gain(p, elev, 500, 26, sim_radius=1.0) == 0.0).all()
        for i, case in enumerate(("all-los-unit", "los-weighted", "pure-los")):
            assert np.isinf(sample_nearest_sq(p, elev, case, 500, 27 + i, sim_radius=1.0)).all()


def test_constant_elevation_never_reaches_the_marked_kernel(monkeypatch):
    # every constant-elevation draw is laid out by LoS class and draws no
    # tangent or LoS uniform; only a tangent law marks its points one by
    # one, drawing its tangents block by block
    seen, blocks = [], []
    marked, mark, tangents = mc._marked_blocks, mc._mark, GammaTanElevation.sample_tan

    def spy_blocks(params, *args):
        seen.append("_marked_blocks")
        return marked(params, *args)

    def spy_mark(*args):
        blocks.append(args[4].size)
        return mark(*args)

    def spy_tangents(elev, *args, **kwargs):
        seen.append(elev)  # on the walk's helper thread, or inline on one core
        return tangents(elev, *args, **kwargs)

    monkeypatch.setattr(mc, "_marked_blocks", spy_blocks)
    monkeypatch.setattr(mc, "_mark", spy_mark)
    monkeypatch.setattr(GammaTanElevation, "sample_tan", spy_tangents)
    p = NetworkParams(density=1e-6, beta=1e4, n_antennas=2)
    for call in _entry_points(sim_radius=5000.0):
        call()
    elevs = [ConstantElevation(math.radians(t)) for t in (10.0, 25.0)]
    mc.estimate_sweep("cellfree", [p, p], elevs, 10, 1, sim_radius=5000.0)
    for case in ("all-los-unit", "los-weighted"):
        sample_nearest_sq(p, E25, case, 10, 1, sim_radius=5000.0)
    assert seen == [] and blocks == []
    # 10 realizations of ~79 points: one block and one fill each at 100
    # points a block
    monkeypatch.setattr(mc, "_BLOCK_POINTS", 100)
    gamma_tan = GammaTanElevation(3.0, math.radians(20.0))
    estimate_cellfree(p, gamma_tan, 10, 1, sim_radius=5000.0)
    assert seen == ["_marked_blocks"] + [gamma_tan] * 10 and len(blocks) == 10
    # at 1000 points a block, a one-row draw walks them in one block and
    # one fill; 100 rows walk the same single block and fill as one row
    monkeypatch.setattr(mc, "_BLOCK_POINTS", 1000)
    for rows in (1, 100):
        seen.clear()
        blocks.clear()
        mc.estimate_sweep("cellfree", [p] * rows, gamma_tan, 10, 1, sim_radius=5000.0)
        assert seen == ["_marked_blocks", gamma_tan] and len(blocks) == 1, rows
    assert 700 < sum(blocks) <= 1000


def test_runs_over_several_chunks_match_recorded_golden_values(block_points):
    # 5000 realizations at the guard radius take three chunks
    p = NetworkParams(density=1e-6)
    gamma_tan = GammaTanElevation(3.0, math.radians(20.0))
    for elev in (E25, gamma_tan):
        mean_points = p.density * math.pi * guard_radius(p, elev, 1e-3) ** 2
        assert len(mc._chunk_sizes(5000, mean_points)) == 3
    assert estimate_downlink(p, E25, 5000, 29).mean == 0.8046
    assert estimate_downlink(p, gamma_tan, 5000, 30).mean == 0.7952
    p_cf = NetworkParams(density=1e-6, beta=1e4, n_antennas=2)
    assert estimate_cellfree(p_cf, E25, 5000, 31).mean == 0.7444


def _draw_rows(params, elevs, radius):
    """estimate_sweep's constants of a draw: the column each row reads, and
    per column its LoS probability, its factor on every path gain and its
    tail mean at radius.  A constant elevation has one column per distinct
    theta_bar, in rho order; a tangent law one, at rho = gain = 1."""
    laws = list(dict.fromkeys(elevs))
    if not isinstance(laws[0], ConstantElevation):
        tail = np.array([interference_tail_mean(params, laws[0], radius)])
        return np.zeros(len(elevs), dtype=np.intp), np.ones(1), np.ones(1), tail
    theta = np.array([e.theta_bar for e in laws])
    rho = los_probability(theta, params.c1, params.c2)
    order = np.argsort(rho, kind="stable")
    col = np.argsort(order)[[laws.index(e) for e in elevs]]
    tail = np.array([interference_tail_mean(params, laws[i], radius) for i in order])
    return col, rho[order], np.cos(theta[order]) ** params.alpha, tail


def _row_blocks(metric, params, elevs, radius, n, rng):
    """One chunk's per-block operands of every row, as estimate_sweep
    draws them."""
    col, rho, gain, tail = _draw_rows(params, elevs, radius)
    return mc._row_operands(metric, params, elevs[0], radius, rho, gain, tail, col, n, rng)


def _one_row_chunk(metric, params, elev, radius, n, rng):
    """One chunk's operands of a one-row run, as estimate_sweep draws it."""
    blocks = list(_row_blocks(metric, params, [elev], radius, n, rng))
    if metric == "cellfree":
        return np.concatenate(blocks).ravel()
    return tuple(np.concatenate(operand).ravel() for operand in zip(*blocks))


def _brute_force_hits(metric, rows, elevs, n_samples, seed, radius):
    """Hits of every row of a draw, each row recounted point by point.

    Each chunk is drawn whole on the stream layout of the montecarlo
    docstring.  A constant draw takes its class splits from the side stream
    and marks every point with its LoS class.  A tangent draw takes its
    tangents from the side stream, its LoS uniforms at +total and its
    fading at +2 total; it gives every point its secant and LoS mark, and
    puts it in class 0.  Each row then forms its path gains, first maximum
    and sums over each realization's points."""
    params = rows[0]
    col, rho, gain, tail = _draw_rows(params, elevs, radius)
    hits = np.zeros(len(rows), dtype=np.int64)
    for size, rng in mc._chunks(n_samples, radius, params.density, seed):
        counts = rng.poisson(params.density * math.pi * radius**2, size=size)
        total = int(counts.sum())
        side = mc._stream_at(rng, mc._SPLIT_STEPS)
        if isinstance(elevs[0], ConstantElevation):
            fade = mc._stream_at(rng, total)
            share = np.diff(rho, prepend=0.0, append=1.0)
            cells = side.multinomial(counts, share)
            path = (radius**2 * rng.random(total)) ** (-params.alpha / 2.0)
            klass = np.repeat(np.tile(np.arange(share.size), size), cells.ravel())
        else:
            los_u = mc._stream_at(rng, total).random(total)
            fade = mc._stream_at(rng, 2 * total)
            tan = elevs[0].sample_tan(side, total)
            path = (radius**2 * rng.random(total) * (1.0 + tan**2)) ** (-params.alpha / 2.0)
            los = los_u < los_probability(np.arctan(tan), params.c1, params.c2)
            path *= np.where(los, 1.0, params.ell)
            klass = np.zeros(total, dtype=np.intp)
        if metric == "downlink":
            g_star = fade.standard_gamma(params.n_antennas, size=size)
            fading = fade.standard_exponential(size=total)
        else:
            fading = fade.standard_gamma(params.n_antennas, size=total)
        nz = counts > 0
        cnz = counts[nz]
        starts = np.concatenate(([0], np.cumsum(cnz)[:-1]))
        for i, (row, j) in enumerate(zip(rows, col)):
            noise = row.noise * (params.density / row.density) ** (params.alpha / 2.0)
            noise /= params.power
            # column j: classes 0..j are LoS, the rest NLoS
            xi = gain[j] * path * np.where(klass <= j, 1.0, params.ell)
            if metric == "cellfree":
                total_gain = np.full(size, params.n_antennas * tail[j])
                if cnz.size:
                    total_gain[nz] += np.add.reduceat(fading * xi, starts)
                hits[i] += np.count_nonzero(total_gain >= row.beta * noise)
                continue
            if not cnz.size:
                continue
            xi_max = np.maximum.reduceat(xi, starts)
            i_star = mc._first_max_index(xi, xi_max, cnz, starts)
            gx = fading * xi
            interference = np.add.reduceat(gx, starts) - gx[i_star] + tail[j]
            signal = g_star[nz] * xi_max
            hits[i] += np.count_nonzero(signal >= row.beta * (interference + noise))
    return hits


def _check_against_brute_force(metric, ell, elevs, beta_scales):
    beta = 1.0 if metric == "downlink" else 1e4
    p = NetworkParams(density=1e-6, ell=ell, beta=beta, n_antennas=2)
    rows = [replace(p, beta=beta * scale) for scale in beta_scales]
    n, seed = 300, 41
    radius = max(guard_radius(p, e, 1e-3) for e in elevs)
    estimates = mc.estimate_sweep(metric, rows, elevs, n, seed)
    got = [round(est.mean * n) for est in estimates]
    want = _brute_force_hits(metric, rows, elevs, n, seed, radius)
    assert got == want.tolist()
    assert 0 < want.min() and want.max() < n


def _constant(*degrees):
    return [ConstantElevation(math.radians(t)) for t in degrees]


@pytest.mark.parametrize("ell", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("metric", ["downlink", "cellfree"])
def test_theta_draw_counts_every_row_as_brute_force(block_points, metric, ell):
    # unsorted rows with a repeat, which reads its twin's column
    elevs = _constant(40.0, 5.0, 25.0, 10.0, 25.0, 60.0)
    _check_against_brute_force(metric, ell, elevs, (1.0,) * 6)


@pytest.mark.parametrize("layout", ["one-row", "beta"])
@pytest.mark.parametrize("ell", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("metric", ["downlink", "cellfree"])
def test_one_theta_draw_counts_every_row_as_brute_force(block_points, metric, ell, layout):
    # one theta_bar: two classes (LoS, NLoS) and one column, which every
    # beta row reads at its own threshold
    scales = {"one-row": (1.0,), "beta": (1.0, 0.7, 3.0, 1.5)}[layout]
    _check_against_brute_force(metric, ell, _constant(*(25.0,) * len(scales)), scales)


@pytest.mark.parametrize("layout", ["one-row", "beta"])
@pytest.mark.parametrize("ell", [0.0, 0.25, 1.0])
@pytest.mark.parametrize("metric", ["downlink", "cellfree"])
def test_tangent_draw_counts_every_row_as_brute_force(block_points, metric, ell, layout):
    # a tangent law: one class, LoS at the draw's one column, which every
    # beta row reads at its own threshold; the net under the tangent goldens
    scales = {"one-row": (1.0,), "beta": (1.0, 0.7, 3.0, 1.5)}[layout]
    gamma_tan = GammaTanElevation(3.0, math.radians(20.0))
    _check_against_brute_force(metric, ell, [gamma_tan] * len(scales), scales)


@pytest.mark.parametrize("metric", ["downlink", "cellfree"])
def test_theta_draw_operands_keep_their_bits_at_every_block_size(monkeypatch, metric):
    p = NetworkParams(density=1e-6, ell=0.25, n_antennas=2)
    elevs = [ConstantElevation(math.radians(t)) for t in (5.0, 25.0, 25.0, 60.0)]
    radius = max(guard_radius(p, e, 1e-3) for e in elevs)
    digests = set()
    for block_points in (1, 7, 1000, mc._BLOCK_POINTS):
        monkeypatch.setattr(mc, "_BLOCK_POINTS", block_points)
        blocks = list(_row_blocks(metric, p, elevs, radius, 200, np.random.default_rng(43)))
        if metric == "downlink":  # (signal, interference) per block
            blocks = [np.concatenate(operand) for operand in zip(*blocks)]
        digests.add(_sha256(np.concatenate(blocks)))
    assert len(digests) == 1


def test_theta_sweep_differences_follow_the_analytic_curve():
    # theta_sweep.cfg's rows, half of them, at 0 dB.  On one draw the
    # adjacent rows' hit indicators are paired, and their difference has
    # its own standard error, far below either row's: this checks the
    # shape of the curve, its optimum near 16 deg included
    p = NetworkParams(density=1e-7, n_antennas=4, beta=1.0)
    elevs = [ConstantElevation(math.radians(t)) for t in np.linspace(5.0, 60.0, 12)]
    n, seed = 20000, 7
    radius = max(guard_radius(p, e, 1e-3) for e in elevs)
    assert _draw_rows(p, elevs, radius)[0].tolist() == list(range(len(elevs)))
    hits = np.zeros(len(elevs), dtype=np.int64)
    gained = np.zeros(len(elevs) - 1, dtype=np.int64)
    lost = np.zeros(len(elevs) - 1, dtype=np.int64)
    for size, rng in mc._chunks(n, radius, p.density, seed):
        for operands in _row_blocks("downlink", p, elevs, radius, size, rng):
            signal, interference = operands
            hit = signal >= p.beta * (interference + p.noise / p.power)
            hits += hit.sum(axis=0)
            gained += (hit[:, 1:] & ~hit[:, :-1]).sum(axis=0)
            lost += (hit[:, :-1] & ~hit[:, 1:]).sum(axis=0)
    means = [est.mean for est in mc.estimate_sweep("downlink", [p] * len(elevs), elevs, n, seed)]
    assert (hits / n).tolist() == means
    diff = (gained - lost) / n
    se = np.sqrt(((gained + lost) / n - diff**2) / n)
    want = np.diff([downlink_coverage(p, e).value for e in elevs])
    z = (want - diff) / np.maximum(se, 1.0 / n)
    assert np.all(np.abs(z) <= 3.0), z
    # separate runs would give each difference a binomial error of ~4.5e-3
    assert np.all(se < math.sqrt(2.0 * 0.72 * 0.28 / n)), se


@pytest.mark.parametrize("metric,params", [
    ("downlink", NetworkParams(density=1e-6, alpha=4.0, beta=0.3)),
    ("cellfree", NetworkParams(density=1e-6, alpha=4.0, beta=1.0)),
])
def test_theta_draw_rows_match_separate_runs(metric, params):
    # the marking theorem: each row of a theta_bar draw is on its own
    # distributed as a one-row run at that theta_bar and at the draw's
    # radius.  Coverage spans 0.2-0.65 over these rows; the seeds are
    # distinct, so the rows and the runs are independent
    elevs = [ConstantElevation(math.radians(t)) for t in (5.0, 15.0, 30.0, 60.0)]
    n = 20000
    radius = max(guard_radius(params, e, 1e-3) for e in elevs)
    shared = mc.estimate_sweep(metric, [params] * len(elevs), elevs, n, 901)
    for k, (row, elev) in enumerate(zip(shared, elevs)):
        alone = mc.estimate_sweep(metric, [params], elev, n, 902 + k, sim_radius=radius)[0]
        z = (row.mean - alone.mean) / math.hypot(row.std_error, alone.std_error)
        assert abs(z) <= 3.0, (elev, row.mean, alone.mean)


def test_first_max_index_matches_associate_per_segment():
    alpha, ell = 2.75, 0.25
    segments = [
        ([100.0], [True]),                                 # one point
        ([50.0, 80.0, 90.0], [True, True, True]),          # max at the start
        ([90.0, 80.0, 50.0], [True, True, True]),          # max at the end
        ([70.0, 40.0, 70.0, 40.0], [True] * 4),            # tie: lowest index
        ([40.0, 40.0], [False, False]),                    # NLoS tie
        ([30.0, 40.0], [False, True]),                     # attenuation decides
        ([200.0], [False]),                                # one NLoS point
        ([30.0, 50.0], [True, True]),                      # 50 is not this max...
        ([50.0, 60.0], [True, True]),                      # ...but is this one
    ]
    reals = [_make_realization(x, [0.0] * len(x), [0.0] * len(x), los) for x, los in segments]
    xi = np.concatenate(
        [r.distance_3d ** -alpha * np.where(r.los, 1.0, ell) for r in reals])
    cnz = np.array([len(r) for r in reals])
    starts = np.concatenate(([0], np.cumsum(cnz)[:-1]))
    got = mc._first_max_index(xi, np.maximum.reduceat(xi, starts), cnz, starts)
    want = [s + associate(r, alpha, ell) for s, r in zip(starts, reals)]
    assert got.tolist() == want


def test_chunk_kernels_peak_allocation_per_point():
    # A chunk of 500 or 2000 realizations holds ~4.7e5 or ~1.9e6 points.
    # The kernel walks it in blocks of at most _BLOCK_POINTS points, on two
    # buffers reused from block to block, and draws every mark block by
    # block, so under either law the peak does not grow with the chunk,
    # whose per-class grids are block-sized too, and the per-row grids are
    # gathered a block-sized slice at a time: theta_bar draws of one row, 12
    # rows and 1000, gamma_tan beta draws of one row and 1000, and beta
    # draws of _MAX_ROWS rows under both laws.
    p = NetworkParams(density=1e-6)
    seed = 7
    gamma_tan = GammaTanElevation(3.0, math.radians(20.0))
    draws = [_constant(*np.linspace(25.0, 60.0, rows)) for rows in (1, 12, 1000)]
    draws += [[gamma_tan] * rows for rows in (1, 1000)]
    cases = [(elevs, n) for elevs in draws for n in (500, 2000)]
    cases += [([elev] * mc._MAX_ROWS, 500) for elev in (E25, gamma_tan)]
    for elevs, n in cases:
        radius = guard_radius(p, elevs[0], 1e-3)
        for metric in ("downlink", "cellfree"):
            blocks = _row_blocks(metric, p, elevs, radius, n, np.random.default_rng(seed))
            tracemalloc.start()
            try:
                for _ in blocks:
                    pass
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * 2**20, (elevs[0], len(elevs), metric, n, peak)


def _traced_peaks(runs):
    """Traced peak allocation of each call of runs, made in order on a
    fresh thread."""
    peaks = []

    def trace():
        for run in runs:
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

    thread = threading.Thread(target=trace)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive() and len(peaks) == len(runs)
    return peaks


def test_chunks_of_realizations_larger_than_a_block_peak_as_one(monkeypatch):
    # ~5000-point realizations against 1000-point blocks: each is a block
    # of its own, on fresh arrays that die before the next block's are
    # drawn, so a chunk of three peaks no higher per point of its largest
    # realization than a chunk of its first alone, give or take its
    # per-realization grids.  Under either law the helper draws such a
    # block only once the block before is handed back
    monkeypatch.setattr(mc, "_BLOCK_POINTS", 1000)
    monkeypatch.setattr(jobs.os, "cpu_count", lambda: 2)
    p = NetworkParams(density=1e-6, beta=1e4, n_antennas=2)
    radius = 40e3
    counts = np.random.default_rng(9).poisson(p.density * math.pi * radius**2, 3)
    assert counts.min() > 4 * mc._BLOCK_POINTS

    def walk(metric, elev, n):
        return lambda: list(_row_blocks(metric, p, [elev], radius, n, np.random.default_rng(9)))

    for elev in (E25, GammaTanElevation(3.0, math.radians(20.0))):
        for metric in ("downlink", "cellfree"):
            runs = [walk(metric, elev, n) for n in (1, 1, 3)]  # the first, cold
            _, one, three = _traced_peaks(runs)
            assert three / counts.max() <= one / counts[0] + 1.0, (elev, metric)


def test_a_second_run_in_a_thread_allocates_no_block_buffers():
    # a thread's first walk allocates its two block buffers and every later
    # run in that thread reuses them.  A constant-elevation cell-free run
    # allocates nothing else point-sized, so a second one's traced peak is
    # well under one buffer; a tangent law also allocates each block's
    # tangents and LoS law, but a second run saves the two buffers
    p = NetworkParams(density=1e-6, beta=1e4, n_antennas=2)
    gamma_tan = GammaTanElevation(3.0, math.radians(20.0))
    buffer = 8 * mc._BLOCK_POINTS
    first, second = _traced_peaks([lambda: estimate_cellfree(p, E25, 2000, 5)] * 2)
    assert first > 2 * buffer > 16 * second, (first, second)
    first, second = _traced_peaks([lambda: estimate_downlink(p, gamma_tan, 2000, 6)] * 2)
    assert first - second >= 2 * buffer, (first, second)


def test_two_walks_alive_in_one_thread_keep_their_bits():
    # a walk that starts while another of the same thread is alive gets
    # buffers of its own: walked in step, each gives its bits alone
    p = NetworkParams(density=1e-6)
    gamma_tan = GammaTanElevation(3.0, math.radians(20.0))
    share = np.array([0.6, 0.4])

    def walk(elev, seed):
        radius = guard_radius(p, elev, 1e-3)
        return mc._draw(p, elev, radius, share, 200, np.random.default_rng(seed))[1]

    for elevs in ((E25, E25), (E25, gamma_tan), (gamma_tan, gamma_tan)):
        alone = [_sha256(np.concatenate([block[5].copy() for block in walk(elev, seed)]))
                 for seed, elev in enumerate(elevs)]
        together = ([], [])
        for blocks in itertools.zip_longest(*(walk(elev, seed) for seed, elev in enumerate(elevs))):
            for xi, block in zip(together, blocks):
                if block is not None:
                    xi.append(block[5].copy())
        assert [_sha256(np.concatenate(xi)) for xi in together] == alone, elevs


@pytest.fixture
def two_cores(monkeypatch):
    """A host of two CPUs, so that a walk on the calling thread starts its
    helper on any host."""
    monkeypatch.setattr(jobs.os, "cpu_count", lambda: 2)


def _helpers_started(runs):
    """Names of the helper threads that runs, called in order, start."""
    started = []
    spawn = threading.Thread.start

    def spy_start(thread):
        if thread.name == "uavcov-fills":
            started.append(thread.name)
        spawn(thread)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(threading.Thread, "start", spy_start)
        for run in runs:
            run()
    return started


def _failing_third_fill(monkeypatch, elev, fills):
    """Make the third fill of elev's walk helper raise: a constant law's
    fading, a tangent law's tangents.  fills records each fill's thread."""
    if isinstance(elev, ConstantElevation):
        owner, name = mc, "_gamma_fill"
    else:
        owner, name = GammaTanElevation, "sample_tan"
    fill = getattr(owner, name)

    def failing(*args, **kwargs):
        fills.append(threading.current_thread().name)
        if len(fills) == 3:
            raise FloatingPointError("third fill")
        return fill(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)


def test_a_helper_error_reaches_the_caller_and_no_thread_outlives_the_walk(
        two_cores, monkeypatch):
    monkeypatch.setattr(mc, "_BLOCK_POINTS", 1000)
    for elev in (E25, GAMMA20):
        fills = []
        with monkeypatch.context() as patch:
            _failing_third_fill(patch, elev, fills)
            before = threading.active_count()
            with pytest.raises(FloatingPointError, match="third fill"):
                estimate_downlink(NetworkParams(density=1e-6), elev, 200, 3)
        assert fills == ["uavcov-fills"] * 3, elev
        assert threading.active_count() == before, elev


def test_a_reduction_error_stops_the_walk_and_its_helper(two_cores, monkeypatch):
    calls = []

    def failing(*args):
        calls.append(args)
        if len(calls) == 2:
            raise FloatingPointError("second block")
        return first_max(*args)

    def run(elev):
        calls.clear()
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="second block") as raised:
            estimate_downlink(NetworkParams(density=1e-6), elev, 200, 3)
        # the traceback still holds the walk's frames, but not its helper
        assert raised.traceback and threading.active_count() == before, elev

    first_max = mc._first_max_index
    monkeypatch.setattr(mc, "_first_max_index", failing)
    monkeypatch.setattr(mc, "_BLOCK_POINTS", 1000)
    started = _helpers_started([lambda: run(E25), lambda: run(GAMMA20)])
    assert started == ["uavcov-fills"] * 2


def test_a_walk_closed_early_joins_its_helper_and_frees_its_buffers(two_cores):
    p = NetworkParams(density=1e-6, n_antennas=2)
    share = np.array([0.6, 0.4])

    def walk(elev):
        radius = guard_radius(p, elev, 1e-3)
        return mc._draw(p, elev, radius, share, 200, np.random.default_rng(18), 2)[1]

    def digest(elev):
        return _sha256(np.concatenate(
            [np.concatenate((block[5], block[6])) for block in walk(elev)]))

    for elev in (E25, GAMMA20):
        alone = digest(elev)
        before = threading.active_count()
        blocks = walk(elev)
        next(blocks), next(blocks)
        assert threading.active_count() == before + 1, elev  # the walk's helper
        blocks.close()
        assert threading.active_count() == before, elev
        # the next walk of the thread takes the buffers back and gives its bits alone
        assert digest(elev) == alone, elev


@pytest.mark.parametrize("n_cores", [1, 2])
def test_a_walk_draws_each_fill_at_most_one_block_ahead(monkeypatch, n_cores):
    # the two halves of the buffers take turns, so block k + 2's fill may
    # start only once block k is handed back; a block larger than the
    # buffers gets fresh arrays, and its fill starts only once the block
    # before is handed back, so no two such blocks are alive at once.  The
    # sizes are distinct, so a fill's size names its block
    monkeypatch.setattr(mc, "_BLOCK_POINTS", 100)
    monkeypatch.setattr(jobs.os, "cpu_count", lambda: n_cores)
    sizes = [10, 20, 105, 30, 107, 109, 40]
    events, threads, lock = [], set(), threading.Lock()

    def log(event, k):
        with lock:
            events.append((event, k))

    def fill(*views):
        log("fill", sizes.index(views[0].size))
        threads.add(threading.current_thread().name)
        time.sleep(0.002)  # a window for the caller to race into
        for view in views:
            view.fill(view.size)

    def walk():
        with mc._block_fills(fill, sizes, [np.empty(100) for _ in range(4)]) as fills:
            for k, views in enumerate(fills):
                log("take", k)
                time.sleep(0.002)  # a window for the helper to race into
                seen.append([(v.size, *np.unique(v)) for v in views])
                log("back", k)
                del views

    seen = []
    caller = threading.Thread(target=walk, name="caller", daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert seen == [[(size, size)] * 2 for size in sizes]
    at = {event: i for i, event in enumerate(events)}
    assert len(at) == len(events) == 3 * len(sizes)
    assert threads == {"uavcov-fills" if n_cores == 2 else "caller"}
    for k in range(len(sizes) - 1):
        assert at["take", k] > at["fill", k]
        if k + 2 < len(sizes):
            assert at["fill", k + 2] > at["back", k], k
        if sizes[k + 1] > mc._BLOCK_POINTS:
            assert at["fill", k + 1] > at["back", k], k


def test_a_walk_starts_a_helper_only_on_a_thread_with_two_cores(monkeypatch):
    # each call below walks one chunk
    p = NetworkParams(density=1e-6, beta=1e4, n_antennas=2)
    calls = [call for elev in (E25, GAMMA20) for call in _entry_points(elev, sim_radius=5000.0)]
    calls += [lambda elev=elev: estimate_cellfree(p, elev, 10, 1, sim_radius=5000.0)
              for elev in (E25, GAMMA20)]
    monkeypatch.setattr(jobs.os, "cpu_count", lambda: 2)
    # the calling thread of a two-CPU host: every chunk walk starts one helper
    assert len(_helpers_started(calls)) == len(calls) == 12
    # a 2-worker pool on two CPUs gives each of its threads one core: none does
    assert _helpers_started([lambda: jobs.map_jobs(lambda call: call(), calls, 2)]) == []


def test_estimates_keep_their_bits_with_and_without_a_helper(monkeypatch):
    # a walk on one core draws its fills inline, on the calling thread, from
    # the same streams in the same order.  At blocks of 1000 points some
    # realizations are blocks of their own, on fresh arrays
    monkeypatch.setattr(mc, "_BLOCK_POINTS", 1000)

    def outputs():
        out = []
        for elev in (E25, GAMMA20):
            out += [pickle.dumps(call()) for call in _entry_points(elev, n_samples=200)]
            for metric, p in (("downlink", NetworkParams(density=1e-6)),
                              ("cellfree", NetworkParams(density=1e-6, beta=1e4))):
                rows = [replace(p, beta=p.beta * (0.5 + 0.01 * i)) for i in range(100)]
                out.append(pickle.dumps(mc.estimate_sweep(metric, rows, elev, 300, 7)))
        return out

    runs = {}
    for n_cores in (1, 2):
        monkeypatch.setattr(jobs.os, "cpu_count", lambda: n_cores)
        started = _helpers_started([lambda: runs.setdefault(n_cores, outputs())])
        assert len(started) == (14 if n_cores == 2 else 0)  # one chunk per call
    assert runs[1] == runs[2]


def test_gamma_tan_marks_draw_no_los_uniform_at_unit_ell(block_points, monkeypatch):
    # at ell = 1 a mark leaves every gain as it is, so the walk draws no LoS
    # uniform and evaluates no LoS law; the LoS uniforms have a stream of
    # their own, so every other draw keeps its bits (recorded when the marks
    # were still drawn)
    los_draws, mark = [], mc._mark

    def spy_mark(params, radius, rng, los_rng, *args):
        state = los_rng.bit_generator.state
        try:
            mark(params, radius, rng, los_rng, *args)
        finally:
            los_draws.append(los_rng.bit_generator.state != state)

    def no_law(*args):
        raise AssertionError("LoS law evaluated")

    monkeypatch.setattr(mc, "_mark", spy_mark)
    monkeypatch.setattr(mc, "los_probability", no_law)
    gamma_tan = GammaTanElevation(3.0, math.radians(20.0))
    p = NetworkParams(density=1e-6, ell=1.0)
    assert estimate_downlink(p, gamma_tan, 3000, 12).mean == 0.8033333333333333
    p_cf = NetworkParams(density=1e-6, ell=1.0, beta=1e4, n_antennas=2)
    assert estimate_cellfree(p_cf, gamma_tan, 3000, 16).mean == 0.806
    radius = guard_radius(p, gamma_tan, 1e-3)
    _, blocks = mc._draw(p, gamma_tan, radius, np.array([1.0, 0.0]), 200,
                         np.random.default_rng(18))
    xi = np.concatenate([block[5].copy() for block in blocks])
    assert xi.size == 192618
    assert _sha256(xi) == "7302acb574eeb2c63a4c43fe59628a9d29ade5f8475d2fc7fd051c6e40b10473"
    assert _sha256(sample_peak_gain(p, gamma_tan, 3000, 14)) == (
        "38c277787ce8c9395b0baed2523d6aa629767133be2f5d11a71de949648a86c4")
    assert los_draws and not any(los_draws)
    # an attenuating walk draws its LoS uniforms and reads the law
    with pytest.raises(AssertionError, match="LoS law"):
        estimate_downlink(replace(p, ell=0.25), gamma_tan, 10, 1, sim_radius=5000.0)
    assert los_draws[-1]


def test_nlos_attenuation_arithmetic_keeps_los_gains_exact():
    # _marked_blocks attenuates by xi *= ell + (1 - ell) los, which keeps
    # the bits of the masked multiply exactly when the sum rounds to 1.0 at
    # every ell in [0, 1], subnormal ones included
    rng = np.random.default_rng(24)
    ells = np.concatenate((
        rng.random(10**6), 10.0 ** rng.uniform(-323.0, 0.0, 10**5),
        [0.0, 5e-324, np.finfo(float).tiny, 0.25, 0.5, np.nextafter(1.0, 0.0), 1.0]))
    assert np.all(ells + (1.0 - ells) == 1.0)


def test_unit_shape_gamma_fill_is_the_exponential_fill():
    # cell-free fading at N = 1 takes numpy's exponential fill: the same
    # values, and the generator left in the same state
    for shape in (1, 1.0, 2):
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        want, got = np.empty(10**5), np.empty(10**5)
        a.standard_gamma(shape, out=want)
        mc._gamma_fill(b, shape, got)
        assert want.tobytes() == got.tobytes(), shape
        assert a.bit_generator.state == b.bit_generator.state, shape


def test_estimate_matches_analytic_downlink():
    p = NetworkParams(density=1e-6)
    want = downlink_coverage(p, E25).value
    est = estimate_downlink(p, E25, 40000, 5150)
    assert abs(est.mean - want) <= 4.0 * est.std_error


def test_estimate_matches_analytic_gamma_tan():
    p = NetworkParams(density=1e-7, n_antennas=4)
    elev = GammaTanElevation(3.0, math.radians(20.0))
    want = downlink_coverage(p, elev).value
    est = estimate_downlink(p, elev, 20000, 60)
    assert abs(est.mean - want) <= 4.0 * max(est.std_error, 1e-4)


def test_estimate_matches_analytic_gamma_tan_below_unit_shape():
    # shape 0.1 put the density's u^(shape - 1) singularity into the
    # quadrature and both routes failed to converge
    p = NetworkParams(density=1e-6)
    elev = GammaTanElevation(0.1, math.radians(20.0))
    est = estimate_downlink(p, elev, 20000, 6204)
    assert abs(est.z_score(downlink_coverage(p, elev).value)) <= 3.0


@pytest.mark.parametrize("metric,params,elev,seed,tolerance,want", [
    ("downlink", NetworkParams(density=1e-6, ell=0.0), ConstantElevation(math.radians(10.0)),
     6201, 1e-3, 0.7927),
    ("downlink", NetworkParams(density=1e-7, ell=0.0, n_antennas=4),
     GammaTanElevation(3.0, math.radians(20.0)), 6202, 1e-3, 0.99785),
    ("cellfree", NetworkParams(density=1e-6, ell=0.0, beta=7575.08), E25, 6203, 3e-4, 0.4961),
], ids=["downlink-theta10", "gamma_tan-N4", "cellfree-beta7575"])
def test_estimate_matches_analytic_with_nlos_erased(metric, params, elev, seed, tolerance, want):
    # ell = 0 erases the NLoS UAVs: the thinned process is the LoS one alone.
    # The means are exact outputs (numpy 2.4, x86-64 with AVX-512, as above).
    analytic = {"downlink": downlink_coverage, "cellfree": cellfree_coverage}[metric]
    estimate = {"downlink": estimate_downlink, "cellfree": estimate_cellfree}[metric]
    est = estimate(params, elev, 20000, seed, guard_tolerance=tolerance)
    assert est.mean == want
    assert abs(est.z_score(analytic(params, elev).value)) <= 3.0


@pytest.mark.parametrize("n_antennas,beta_db,seed", [
    (2, 39.60, 102), (4, 42.74, 104), (16, 48.87, 116),
])
def test_cellfree_estimate_matches_analytic_over_antennas(n_antennas, beta_db, seed):
    # N > 1 cell-free, beta set per N so that coverage is about 0.8.  A tail
    # compensation of tail instead of N tail reads z 3.8-9.4 here, and
    # Gamma(1, 1) fading in place of Gamma(N, 1) reads z > 70
    p = NetworkParams(density=1e-6, n_antennas=n_antennas, beta=10.0 ** (beta_db / 10.0))
    est = estimate_cellfree(p, E25, 10_000, seed)
    assert abs(est.z_score(cellfree_coverage(p, E25).value)) <= 3.0


def test_estimate_stable_under_doubled_radius():
    p = NetworkParams(density=1e-6)
    r = guard_radius(p, E25, 1e-3)
    a = estimate_downlink(p, E25, 30000, 91, sim_radius=r)
    b = estimate_downlink(p, E25, 30000, 92, sim_radius=2.0 * r)
    joint = math.hypot(a.std_error, b.std_error)
    assert abs(a.mean - b.mean) <= 4.0 * joint


def test_estimate_stable_under_different_chunking(monkeypatch):
    p = NetworkParams(density=1e-6)
    want = downlink_coverage(p, E25).value
    monkeypatch.setattr(mc, "_POINTS_PER_CHUNK", 100_000)
    est = estimate_downlink(p, E25, 20000, 4242)
    assert abs(est.mean - want) <= 4.0 * est.std_error


def test_chunk_sizes_respect_point_budget():
    # arithmetic only: no chunk holds more points than the budget or one realization
    for mean_points in (0.5, 30.0, 3738.0, 31_250.0, 31_251.0, 3.7e6, 1e9):
        for n_samples in (1, 63, 64, 1000, 100_000):
            sizes = mc._chunk_sizes(n_samples, mean_points)
            assert sum(sizes) == n_samples and min(sizes) >= 1
            assert max(sizes) * mean_points <= max(mc._POINTS_PER_CHUNK, mean_points)


def test_reported_stderr_matches_empirical_spread():
    p = NetworkParams(density=1e-6)
    reps, n = 25, 2000
    radius = 5000.0  # fixed small disk: bias is irrelevant to spread checks
    means = np.array(
        [estimate_downlink(p, E25, n, 1000 + i, sim_radius=radius).mean
         for i in range(reps)]
    )
    reported = estimate_downlink(p, E25, n, 1, sim_radius=radius).std_error
    ratio = means.std(ddof=1) / reported
    assert 0.6 <= ratio <= 1.5


def test_error_scales_with_inverse_sqrt_samples():
    p = NetworkParams(density=1e-6)
    radius = 5000.0
    reps = 30
    lo = np.array(
        [estimate_downlink(p, E25, 500, 3000 + i, sim_radius=radius).mean
         for i in range(reps)]
    )
    hi = np.array(
        [estimate_downlink(p, E25, 8000, 4000 + i, sim_radius=radius).mean
         for i in range(reps)]
    )
    slope = math.log(hi.std(ddof=1) / lo.std(ddof=1)) / math.log(8000 / 500)
    assert slope == pytest.approx(-0.5, abs=0.2)


def test_cellfree_estimator_saturated_regime():
    p = NetworkParams(density=1e-6)
    est = estimate_cellfree(p, E25, 2000, 8)
    assert est.mean == 1.0


def test_cellfree_requires_noise():
    p = NetworkParams(density=1e-6, noise=0.0)
    with pytest.raises(ValueError):
        estimate_cellfree(p, E25, 100, 1)


def test_estimators_validate_sample_count():
    p = NetworkParams(density=1e-6)
    with pytest.raises(ValueError):
        estimate_downlink(p, E25, 0, 1)


def _entry_points(elev=E25, **kwargs):
    """Every Monte Carlo entry point that takes n_samples and sim_radius."""
    p = NetworkParams(density=1e-6)
    args = {"n_samples": 10, "master_seed": 1, **kwargs}
    return [
        lambda: estimate_downlink(p, elev, **args),
        lambda: estimate_cellfree(p, elev, **args),
        lambda: mc.estimate_sweep("downlink", [p, p], elev, **args),
        lambda: sample_peak_gain(p, elev, **args),
        lambda: sample_nearest_sq(p, elev, "pure-los", **args),
    ]


@pytest.mark.parametrize("radius", [-5000.0, 0.0, math.nan, math.inf],
                         ids=["negative", "zero", "nan", "inf"])
def test_entry_points_reject_sim_radius_outside_positive_reals(radius):
    for call in _entry_points(sim_radius=radius):
        with pytest.raises(InvalidParameterError, match="sim_radius"):
            call()


@pytest.mark.parametrize("n", [2.7, 3.0, "3", 0, -1, None])
def test_entry_points_reject_non_integer_sample_counts(n):
    # 2.7 once ran 2 samples without a word
    for call in _entry_points(n_samples=n):
        with pytest.raises(InvalidParameterError, match="n_samples"):
            call()


def test_entry_points_refuse_oversized_realizations_before_drawing(monkeypatch):
    # 1e7 m at 1e-6 / m^2 is 3.1e8 points per realization, ~8 GB; the
    # refusal must come before any draw; every draw starts with its counts,
    # so a draw here fails the test
    monkeypatch.setattr(mc, "_counts", None)
    for call in _entry_points(sim_radius=1e7):
        with pytest.raises(InvalidParameterError, match=r"3\.14e\+08 points.*16777216"):
            call()
    p = NetworkParams(density=1e-6)
    for estimate in (estimate_downlink, estimate_cellfree):
        with pytest.raises(InvalidParameterError, match=r"6\.8e\+09 points"):
            estimate(p, E25, 10, 1, guard_tolerance=1e-9)


def test_estimate_sweep_refuses_rows_over_the_cap_before_drawing(monkeypatch):
    # a theta_bar draw keeps rows + 1 numbers per realization of a block,
    # and its blocks hold at least one realization
    monkeypatch.setattr(mc, "_counts", None)
    p = NetworkParams(density=1e-6)
    elevs = [ConstantElevation(math.radians(t)) for t in np.linspace(5.0, 60.0, mc._MAX_ROWS + 1)]
    with pytest.raises(InvalidParameterError, match=f"at most {mc._MAX_ROWS} rows"):
        mc.estimate_sweep("downlink", [p] * len(elevs), elevs, 10, 1)
    with pytest.raises(InvalidParameterError, match="one per row"):
        mc.estimate_sweep("downlink", [p, p], elevs[:3], 10, 1)
    gamma_tan = GammaTanElevation(3.0, math.radians(20.0))
    with pytest.raises(InvalidParameterError, match="constant theta_bar"):
        mc.estimate_sweep("downlink", [p, p], [E25, gamma_tan], 10, 1)


def test_largest_guard_disks_in_use_fit_under_the_point_cap():
    # by arithmetic only: alpha 2.3 at guard_tolerance 1e-5 holds 3.7e6
    # points per realization, theta 0 with ell 0 at the default 3.8e4
    for params, elev, tol in (
        (NetworkParams(density=1e-6, alpha=2.3), E25, 1e-5),
        (NetworkParams(density=1e-6, ell=0.0), ConstantElevation(0.0), 1e-3),
    ):
        radius = guard_radius(params, elev, tol)
        assert 3e4 < params.density * math.pi * radius**2 < mc._MAX_POINTS


def test_entry_points_accept_numpy_integer_sample_counts():
    for n in (np.int64(7), np.int32(7), np.uint16(7)):
        down, cell, sweep, peak, nearest = (
            call() for call in _entry_points(n_samples=n, sim_radius=5000.0))
        for est in (down, cell, *sweep):
            assert est.n_samples == 7 and type(est.n_samples) is int
        assert peak.size == nearest.size == 7


# -- distribution sampling ---------------------------------------------------------


def test_peak_gain_samples_follow_cdf():
    p = NetworkParams(density=1e-6)
    for elev, seed in ((E25, 123), (GammaTanElevation(3.0, math.radians(20.0)), 124)):
        xs = sample_peak_gain(p, elev, 5000, seed)
        assert kstest(xs, lambda r: peak_gain_cdf(r, p, elev)).pvalue > 0.01, elev


def test_nearest_sq_samples_follow_exponential_laws():
    p = NetworkParams(density=1e-6)
    for elev, seed in ((E25, 200), (GammaTanElevation(3.0, math.radians(20.0)), 203)):
        for i, case in enumerate(("all-los-unit", "los-weighted", "pure-los")):
            xs = sample_nearest_sq(p, elev, case, 5000, seed + i)
            rate = nearest_sq_rate(p, elev, case)
            assert kstest(xs, "expon", args=(0.0, 1.0 / rate)).pvalue > 0.01, (elev, case)


def test_nearest_sq_rejects_unknown_case():
    p = NetworkParams(density=1e-6)
    with pytest.raises(ValueError):
        sample_nearest_sq(p, E25, "nearest", 100, 1)


def test_coverage_estimate_fields():
    est = CoverageEstimate(mean=0.25, std_error=0.01, n_samples=1000, seed=9)
    assert est.mean == 0.25 and est.n_samples == 1000


def test_result_records_pickle():
    # the --workers pool returns both records pickled; slots leave no __dict__
    est = CoverageEstimate(mean=0.25, std_error=0.01, n_samples=1000, seed=9)
    res = downlink_coverage(NetworkParams(density=1e-6), E25)
    for record in (est, res):
        assert pickle.loads(pickle.dumps(record)) == record
        assert not hasattr(record, "__dict__")


def test_z_score_floors_the_standard_error_at_one_over_n():
    est = CoverageEstimate(mean=0.25, std_error=0.01, n_samples=1000, seed=9)
    assert est.z_score(0.27) == pytest.approx(2.0, rel=1e-12)
    # every sample hit: std_error 0, z stays finite (and is 0 on exact agreement)
    hit_all = CoverageEstimate(mean=1.0, std_error=0.0, n_samples=2000, seed=9)
    assert hit_all.z_score(0.9998) == pytest.approx(-0.4, rel=1e-9)
    assert hit_all.z_score(1.0) == 0.0
    # one miss: std_error = sqrt(n - 1)/n < 1/n, so the floor applies too
    one_miss = CoverageEstimate(mean=0.999, std_error=math.sqrt(0.999 * 0.001 / 1000),
                                n_samples=1000, seed=9)
    assert one_miss.z_score(1.0) == pytest.approx(1.0, rel=1e-9)
