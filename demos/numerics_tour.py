"""Tour the numerical kernels the coverage expressions are built on.

Three kernels carry the analytic route: adaptive Gauss-Kronrod quadrature
(with a Gauss-Laguerre rule beside it), the exponential of a power series
for high-order derivatives, and Talbot-contour inverse Laplace transforms.
First the cell-free integral meets its closed form at alpha = 4; then each
kernel is exercised against an identity with a known value, and the
bundled cross-check suite is run end to end.
"""

import math

from uavcov import ConstantElevation, NetworkParams, cellfree_coverage, effective_density_factor
from uavcov.numerics import gauss_laguerre, integrate, inverse_laplace, jet_exp
from uavcov.validation import finite_difference, run_suite

print("cell-free coverage at alpha = 4 against erf(kappa / (2 sqrt t)):")
elev = ConstantElevation(math.radians(25.0))
for n, beta_db in ((1, 0.0), (4, 0.0), (16, 10.0)):
    p = NetworkParams(density=1e-6, alpha=4.0, n_antennas=n, beta=10.0 ** (beta_db / 10.0))
    # kappa = pi density w_eff Gamma(N + 1/2) Gamma(1/2) / (N - 1)!, t = beta noise / power
    kappa = (math.pi * p.density * effective_density_factor(p, elev)
             * math.gamma(n + 0.5) * math.sqrt(math.pi) / math.factorial(n - 1))
    t = p.beta * p.noise / p.power
    value = cellfree_coverage(p, elev).value
    print(f"  N = {n:2d}, beta {beta_db:4.1f} dB: integral {value:.15f}, "
          f"erf {math.erf(kappa / (2.0 * math.sqrt(t))):.15f}")
print()

print("adaptive quadrature:")
val = integrate(lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0)
print(f"  4/(1+x^2) on [0,1]  -> {val:.15f} (pi)")
val = integrate(lambda x: x**3 * math.e ** -x, 0.0, math.inf)
print(f"  x^3 e^-x on [0,inf) -> {val:.15f} (Gamma(4) = 6)")
nodes, weights = gauss_laguerre(8)
val = float(sum(w * n**3 for n, w in zip(nodes, weights)))
print(f"  8-node Gauss-Laguerre, same integrand -> {val:.15f}")
print()

print("series exponential (Taylor coefficients of exp of a power series):")
x0 = 0.7
# x^2 about x0 is the row x0^2 + 2 x0 h + h^2; d^3/dx^3 = 3! * coefficient 3
d3_jet = math.factorial(3) * jet_exp([x0 * x0, 2.0 * x0, 1.0, 0.0, 0.0, 0.0, 0.0])[3]
d3_fd = finite_difference(lambda x: math.exp(x * x), x0, 3)
print(f"  d^3/dx^3 exp(x^2) at {x0}: jet {d3_jet:.10f}, "
      f"finite difference {d3_fd:.10f}")
print()

print("inverse Laplace (Talbot contour):")
for t in (0.5, 2.0):
    val = inverse_laplace(lambda s: 1.0 / (s * (s + 1.0)), t)
    print(f"  L^-1[1/(s(s+1))]({t}) = {val:.12f} "
          f"(exact {1.0 - math.exp(-t):.12f})")
print()

report = run_suite("numerics")
print(f"bundled numerics suite: {report['n_checks'] - report['n_failed']}/"
      f"{report['n_checks']} checks passed")
for check in report["checks"]:
    if not check["passed"]:
        print(f"  FAIL {check['name']}: {check['detail']}")
