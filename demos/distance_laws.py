"""Check the sampled geometry against its closed-form distribution laws.

Three exact results make the model tractable: the best received gain over
the network has an explicit CDF, and the squared nearest-point distance is
exponential both for the raw process (rate pi lambda E[cos^2 Theta]) and for
the attenuation-thinned one (rate pi lambda omega, with omega the effective
density factor).  The script draws samples of each and compares quantiles
and Kolmogorov-Smirnov p-values against the analytic laws.
"""

import math

import numpy as np
from scipy.stats import kstest

from uavcov.analytic import effective_density_factor, nearest_sq_rate, peak_gain_cdf
from uavcov.model import ConstantElevation, NetworkParams
from uavcov.montecarlo import sample_nearest_sq, sample_peak_gain

params = NetworkParams(density=1e-6)
elev = ConstantElevation(math.radians(25.0))
n = 4_000

omega = effective_density_factor(params, elev)
rates = {case: nearest_sq_rate(params, elev, case) for case in ("all-los-unit", "los-weighted")}
print(f"E[cos^2 Theta] = {rates['all-los-unit'] / (math.pi * params.density):.6f}")
print(f"effective density factor omega = {omega:.6f}")
print(f"(attenuation thins the usable network to {100 * omega:.1f}% "
      "of its nominal density)")
print()

gains = sample_peak_gain(params, elev, n, master_seed=314)
ks = kstest(gains, lambda r: peak_gain_cdf(r, params, elev))
print(f"peak received gain, {n} realizations: KS p = {ks.pvalue:.3f}")
for q in (0.25, 0.5, 0.75):
    emp = float(np.quantile(gains, q))
    # invert the analytic CDF by bisection on a log grid
    grid = np.geomspace(1e-12, 1e-2, 20_001)
    ana = float(grid[np.searchsorted(peak_gain_cdf(grid, params, elev), q)])
    print(f"  q{int(100 * q):02d}: empirical {emp:.3e}, analytic {ana:.3e}")
print()

for case, rate in rates.items():
    sq = sample_nearest_sq(params, elev, case, n, master_seed=2718)
    ks = kstest(sq, "expon", args=(0.0, 1.0 / rate))
    print(f"nearest-distance^2, case {case}:")
    print(f"  exponential rate {rate:.3e} /m^2, KS p = {ks.pvalue:.3f}")
    print(f"  mean {np.mean(sq):.3e} vs 1/rate {1.0 / rate:.3e}")
