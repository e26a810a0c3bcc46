"""Sweep the common elevation angle and locate the coverage optimum.

Raising the elevation angle trades interference isolation against a longer
serving link, so downlink coverage peaks at an interior angle (near 16 deg
for 4 antennas at density 1e-7).  The script sweeps the analytic expression,
spot-checks it against Monte Carlo, and prints the Jensen lower bound.  With
noise that bound is the single-antenna one, valid at every antenna count,
so its gap includes the gain of the four antennas.

For CSV output of the same sweep use the CLI:
    uavcov sweep demos/configs/theta_sweep.cfg
"""

import math

import numpy as np

from uavcov.analytic import downlink_coverage, jensen_lower_bound
from uavcov.model import ConstantElevation, NetworkParams
from uavcov.montecarlo import estimate_downlink

params = NetworkParams(density=1e-7, n_antennas=4)

thetas = np.arange(5.0, 60.0 + 1e-9, 2.5)
values = np.array(
    [downlink_coverage(params, ConstantElevation(math.radians(t))).value
     for t in thetas]
)

fine = np.arange(10.0, 30.0 + 1e-9, 0.25)
fine_vals = [downlink_coverage(params, ConstantElevation(math.radians(t))).value
             for t in fine]
best = fine[int(np.argmax(fine_vals))]

print(f"density {params.density:g} /m^2, {params.n_antennas} antennas, "
      f"threshold {params.beta:g}")
print(f"coverage optimum at {best:.2f} deg (fine grid)")
print()

lo, hi = values.min(), values.max()
print(" theta   coverage")
for t, v in zip(thetas, values):
    bar = "#" * int(round(40 * (v - lo) / (hi - lo)))
    print(f"  {t:4.1f}   {v:.5f}  {bar}")

print()
print("Monte Carlo spot checks (20000 samples each):")
for t, seed in ((10.0, 1), (float(best), 2), (40.0, 3)):
    elev = ConstantElevation(math.radians(t))
    pa = downlink_coverage(params, elev).value
    est = estimate_downlink(params, elev, 20_000, seed)
    print(f"  theta {t:5.2f}: analytic {pa:.5f}, "
          f"simulated {est.mean:.5f} +- {est.std_error:.5f} (z = {est.z_score(pa):+.2f})")

print()
print("Jensen lower bound at the optimum:")
elev = ConstantElevation(math.radians(best))
pa = downlink_coverage(params, elev).value
jb = jensen_lower_bound(params, elev).value
print(f"  exact {pa:.5f}, bound {jb:.5f}, gap {pa - jb:.5f}")
