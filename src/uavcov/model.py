"""Network model: UAVs as a marked planar Poisson process lifted into 3D.

Ground projections form a homogeneous Poisson process of the given density;
each UAV independently draws an elevation angle Theta seen from the typical
user at the origin, so its altitude is ||X|| tan(Theta) and its 3D distance
||X|| sqrt(1 + tan^2(Theta)).  A Bernoulli line-of-sight mark with probability
rho(Theta) = 1/(1 + c2 exp(-c1 Theta)) selects the attenuation L in {1, ell}.
An elevation law is any object with sample_tan(rng, size, out=None), which
draws size values of tan(Theta) (the altitude mark per unit range; the angle
itself is needed only by the LoS law) into out, or into a fresh array
without one, and returns that array; and expect(fn) = E[fn(Theta)] for a
vectorized fn on [0, pi/2).

Angles are radians everywhere; powers are linear milliwatts.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics.quadrature import integrate

# LoS model constants for a suburban environment.
SUBURBAN_C1 = 24.5811
SUBURBAN_C2 = 39.5971


class InvalidParameterError(ValueError):
    """A model parameter is outside its valid range."""


@dataclass(frozen=True)
class NetworkParams:
    """Scenario parameters.

    density    UAV projections per square meter
    power      per-UAV transmit power, linear mW
    n_antennas transmit antennas per UAV (serving gain ~ Gamma(N, 1))
    noise      thermal noise power, linear mW
    alpha      path-loss exponent, > 2
    ell        NLoS attenuation factor in [0, 1]
    beta       SINR threshold, linear
    c1, c2     LoS probability constants
    """

    density: float
    power: float = 50.0
    n_antennas: int = 1
    noise: float = 10.0 ** -9.25
    alpha: float = 2.75
    ell: float = 0.25
    beta: float = 0.1
    c1: float = SUBURBAN_C1
    c2: float = SUBURBAN_C2

    def __post_init__(self):
        for name in ("density", "power", "noise", "alpha", "ell", "beta", "c1", "c2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value!r}")
        if not self.density > 0.0:
            raise InvalidParameterError(f"density must be positive, got {self.density!r}")
        if not self.power > 0.0:
            raise InvalidParameterError(f"power must be positive, got {self.power!r}")
        if int(self.n_antennas) != self.n_antennas or self.n_antennas < 1:
            raise InvalidParameterError(
                f"n_antennas must be an integer >= 1, got {self.n_antennas!r}"
            )
        if not self.noise >= 0.0:
            raise InvalidParameterError(f"noise must be >= 0, got {self.noise!r}")
        if not self.alpha > 2.0:
            raise InvalidParameterError(
                f"alpha must exceed 2 for finite interference, got {self.alpha!r}"
            )
        if not 0.0 <= self.ell <= 1.0:
            raise InvalidParameterError(f"ell must lie in [0, 1], got {self.ell!r}")
        if not self.beta > 0.0:
            raise InvalidParameterError(f"beta must be positive, got {self.beta!r}")
        if not (self.c1 > 0.0 and self.c2 > 0.0):
            raise InvalidParameterError("c1 and c2 must be positive")


def los_probability(theta, c1=SUBURBAN_C1, c2=SUBURBAN_C2):
    """P[line of sight | elevation angle theta], theta in radians in [0, pi/2].

    Computed as 1/(1 + c2 exp(-c1 theta)), step by step in that order, with
    numpy's exp: a scalar theta (a Python or numpy number) in scalar
    arithmetic, returning a float, and an array in one output array.  Both
    give the same bits for the same angle.  NaN is outside the range.
    """
    if np.isscalar(theta):
        th = float(theta)
        if not 0.0 <= th <= math.pi / 2:
            raise InvalidParameterError("elevation angle must lie in [0, pi/2] radians")
        return 1.0 / (float(np.exp(th * -c1)) * c2 + 1.0)
    th = np.asarray(theta, dtype=float)
    if th.size and not (th.min() >= 0.0 and th.max() <= math.pi / 2):
        raise InvalidParameterError("elevation angle must lie in [0, pi/2] radians")
    out = np.multiply(th, -c1, out=np.empty_like(th))
    np.exp(out, out=out)
    out *= c2
    out += 1.0
    np.divide(1.0, out, out=out)
    return out


@dataclass(frozen=True)
class ConstantElevation:
    """Every UAV sees the user under the same elevation angle."""

    theta_bar: float

    def __post_init__(self):
        if not 0.0 <= self.theta_bar < math.pi / 2:
            raise InvalidParameterError(
                f"theta_bar must lie in [0, pi/2) radians, got {self.theta_bar!r}"
            )

    def sample_tan(self, rng, size, out=None):
        if out is None:
            out = np.empty(size)
        out.fill(np.tan(self.theta_bar))
        return out

    def expect(self, fn):
        return float(fn(self.theta_bar))


@dataclass(frozen=True)
class GammaTanElevation:
    """tan(Theta) ~ Gamma(shape, rate=shape/tan(theta_bar)).

    The rate choice keeps E[tan(Theta)] = tan(theta_bar) for every shape, so
    theta_bar acts as the nominal design angle while shape controls spread
    (shape -> inf degenerates to ConstantElevation).
    """

    shape: float
    theta_bar: float

    def __post_init__(self):
        if not self.shape > 0.0:
            raise InvalidParameterError(f"shape must be positive, got {self.shape!r}")
        if not 0.0 < self.theta_bar < math.pi / 2:
            raise InvalidParameterError(
                f"theta_bar must lie in (0, pi/2) radians, got {self.theta_bar!r}"
            )

    @property
    def rate(self):
        return self.shape / math.tan(self.theta_bar)

    def sample_tan(self, rng, size, out=None):
        # a standard gamma fill times the scale gives rng.gamma(shape,
        # scale)'s bits, and draws into out without a temporary
        if out is None:
            out = np.empty(size)
        rng.standard_gamma(self.shape, out=out)
        out *= 1.0 / self.rate
        return out

    def expect(self, fn):
        # E[fn(arctan(G/rate))] with G ~ Gamma(shape, 1); integrate against
        # the standardized density on a window holding all but ~1e-15 of mass
        a = self.shape
        rate = self.rate
        lognorm = math.lgamma(a)
        spread = 12.0 * math.sqrt(a) + 35.0
        lo = max(0.0, a - spread)
        hi = a + spread

        def integrand(u):
            u = np.asarray(u, dtype=float)
            dens = np.exp((a - 1.0) * np.log(u) - u - lognorm)
            return fn(np.arctan(u / rate)) * dens

        if a >= 1.0:
            return integrate(integrand, lo, hi)

        # below u = 1 the density's u^(a-1) singularity spreads the mass over
        # y = -log(u) on the scale 1/a; in y it is the smooth
        # exp(-e^-y - a y)/Gamma(a).  Past y0, arctan(u/rate) < e^-40, so fn
        # is constant to double precision and that mass, P[G < e^-y0], is
        # e^(-a y0)/Gamma(a + 1) up to a factor 1 - O(e^-y0)
        y0 = max(0.0, -math.log(rate)) + 40.0

        def head(y):
            y = np.asarray(y, dtype=float)
            u = np.exp(-y)
            return fn(np.arctan(u / rate)) * np.exp(-u - a * y - lognorm)

        below = float(fn(np.arctan(math.exp(-y0) / rate)))
        below *= math.exp(-a * y0 - math.lgamma(a + 1.0))
        return below + integrate(head, 0.0, y0) + integrate(integrand, 1.0, hi)


@dataclass(frozen=True)
class NetworkRealization:
    """One sampled network inside a disk of sim_radius around the user, as flat arrays."""

    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    altitude: np.ndarray
    los: np.ndarray
    sim_radius: float
    seed: int

    def __len__(self):
        return self.x.size

    @property
    def horizontal_distance(self):
        return np.hypot(self.x, self.y)

    @property
    def distance_3d(self):
        # ||X|| sec(Theta); identical to hypot(||X||, altitude) up to rounding
        return self.horizontal_distance / np.cos(self.theta)


def sample_projections(density, sim_radius, rng):
    """Planar Poisson process inside a disk: returns an (n, 2) array."""
    if not density > 0.0 or not sim_radius > 0.0:
        raise InvalidParameterError("density and sim_radius must be positive")
    n = rng.poisson(density * math.pi * sim_radius**2)
    r = sim_radius * np.sqrt(rng.random(n))
    phi = rng.random(n) * (2.0 * math.pi)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi)])


def realize_network(params, elev, sim_radius, seed):
    """Sample one marked realization; the stored seed replays it bit-exactly."""
    seed = int(seed)
    rng = np.random.default_rng(seed)
    xy = sample_projections(params.density, sim_radius, rng)
    n = xy.shape[0]
    tan_theta = elev.sample_tan(rng, n)
    theta = np.arctan(tan_theta)
    altitude = np.hypot(xy[:, 0], xy[:, 1]) * tan_theta
    los = rng.random(n) < los_probability(theta, params.c1, params.c2)
    return NetworkRealization(
        x=xy[:, 0],
        y=xy[:, 1],
        theta=theta,
        altitude=altitude,
        los=los,
        sim_radius=float(sim_radius),
        seed=seed,
    )
