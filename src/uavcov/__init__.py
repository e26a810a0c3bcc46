"""Coverage analysis for aerial base stations modeled as a marked PPP.

UAVs form a planar Poisson process with i.i.d. elevation-angle marks that
set each station's altitude; links are line-of-sight with an angle-dependent
probability, non-LoS links attenuated by a constant factor.  The package
computes downlink and cell-free coverage probabilities two independent ways,
by analytic expressions (truncated-series coefficient extraction and a
stable-law integral) and by vectorized Monte Carlo, so each route validates
the other.
"""

from .analytic import (
    CoverageResult,
    cellfree_coverage,
    downlink_coverage,
    effective_density_factor,
    interference_integral,
    jensen_lower_bound,
    nearest_sq_rate,
    peak_gain_cdf,
    tail_gain_moment,
    thinned_points,
)
from .config import ConfigError, RunConfig, SweepAxis, parse_config
from .model import (
    ConstantElevation,
    GammaTanElevation,
    InvalidParameterError,
    NetworkParams,
    NetworkRealization,
    los_probability,
    realize_network,
)
from .montecarlo import (
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

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConstantElevation",
    "CoverageEstimate",
    "CoverageResult",
    "EmptyRealizationError",
    "GammaTanElevation",
    "InvalidParameterError",
    "NetworkParams",
    "NetworkRealization",
    "RunConfig",
    "SweepAxis",
    "associate",
    "cellfree_coverage",
    "downlink_coverage",
    "effective_density_factor",
    "estimate_cellfree",
    "estimate_downlink",
    "guard_radius",
    "interference_integral",
    "interference_tail_mean",
    "jensen_lower_bound",
    "los_probability",
    "nearest_sq_rate",
    "parse_config",
    "peak_gain_cdf",
    "realize_network",
    "sample_nearest_sq",
    "sample_peak_gain",
    "tail_gain_moment",
    "thinned_points",
]
