"""Compare cell-free joint transmission against classical association.

When every UAV transmits the same signal, received powers add and no
co-channel interference remains; coverage is then noise-limited.  Over the
usual threshold window the cell-free probability pins at 1 while classical
downlink coverage saturates well below it, and the antenna count barely
moves the cell-free curve.  Pushing the threshold far higher exposes the
noise-limited transition, where the analytic value (one integral of
Zolotarev's stable-law representation) is checked against simulation and,
at pathloss exponent 4, against its erf closed form.
"""

import math

import numpy as np

from uavcov.analytic import cellfree_coverage, downlink_coverage, effective_density_factor
from uavcov.model import ConstantElevation, NetworkParams
from uavcov.montecarlo import estimate_cellfree

elev = ConstantElevation(math.radians(25.0))

print("threshold window -20..10 dB (density 1e-6 /m^2):")
print("  N   downlink   cell-free")
for n in (1, 2, 4, 8):
    params = NetworkParams(density=1e-6, n_antennas=n)
    dl = downlink_coverage(params, elev).value
    cf = cellfree_coverage(params, elev).value
    print(f"  {n}   {dl:.5f}    {cf:.5f}")
print("  cell-free stays at 1.0 through the whole window, for every N")
print()

print("noise-limited transition (threshold in dB):")
print("  beta_dB  analytic   simulated (1e4 samples)")
for beta_db, seed in ((35.0, 1), (38.8, 2), (43.0, 3)):
    beta = 10.0 ** (beta_db / 10.0)
    params = NetworkParams(density=1e-6, beta=beta)
    pa = cellfree_coverage(params, elev).value
    est = estimate_cellfree(params, elev, 10_000, seed, guard_tolerance=3e-4)
    print(f"  {beta_db:6.1f}   {pa:.4f}     {est.mean:.4f} +- {est.std_error:.4f}")
print()

print("closed-form cross-check at pathloss exponent 4:")
worst = 0.0
for beta_db in np.linspace(-20.0, 10.0, 7):
    params = NetworkParams(density=1e-6, alpha=4.0, beta=10.0 ** (beta_db / 10.0))
    # one antenna: kappa = pi density w_eff Gamma(3/2) Gamma(1/2) = pi^2 density w_eff / 2
    kappa = math.pi**2 * params.density * effective_density_factor(params, elev) / 2.0
    t = params.beta * params.noise / params.power
    erf_form = math.erf(kappa / (2.0 * math.sqrt(t)))
    worst = max(worst, abs(cellfree_coverage(params, elev).value - erf_form))
print(f"  Zolotarev integral vs erf expression: max gap {worst:.1e}")
