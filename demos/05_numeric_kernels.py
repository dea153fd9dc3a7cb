"""The numeric substrate: the same routines the library runs on double as
independent cross-checks.

Quadrature integrates densities without knowing the cdf, root finding
inverts the cdf without knowing the quantile formula, and golden-section
search locates modes without knowing the mode formula: three routes to
numbers the closed forms must reproduce.
"""

import math

import numpy as np

from ifdist import (
    Bracket,
    IFDistribution,
    IFParams,
    UniformStream,
    beta,
    find_root,
    integrate,
    ln_gamma,
    maximize_scalar,
    mode,
)

print("Special functions:")
print(f"  ln_gamma(5)   = {ln_gamma(5.0):.15f}   (ln 24 = {math.log(24):.15f})")
print(f"  beta(1/2,1/2) = {beta(0.5, 0.5):.15f}   (pi    = {math.pi:.15f})")

d = IFDistribution(IFParams(1.0, 1.0, 200.0, 2.0, 0.0))

r = integrate(d.pdf, 0.0, math.inf, tol=1e-10)
print("\nAdaptive quadrature of the density over its support:")
print(f"  value {r.value:.12f}, error estimate {r.abs_error_estimate:.1e}, "
      f"converged={r.converged}, {r.evaluations} evaluations")

y = 0.75
root = find_root(lambda x: d.cdf(x) - y, Bracket(1e-9, 1e5), tol=1e-12)
print("\nInverting the cdf by bracketed root finding:")
print(f"  cdf(x) = {y}: root {root:.10f} vs closed-form quantile "
      f"{d.quantile(y):.10f}")

argmax, _ = maximize_scalar(d.log_pdf, 1e-9, 5000.0, tol=1e-10)
print("\nLocating the mode by golden-section search on the log-density:")
print(f"  argmax {argmax:.10f} vs closed-form mode {mode(d.params).x:.10f}")

print("\nSeedable uniform stream on the open interval (0, 1):")
s = UniformStream(123)
print(f"  first draws: {[round(next(s), 6) for _ in range(4)]}")
print(f"  bulk draws continue the same sequence: "
      f"{np.round(s.draws(2), 6).tolist()}")
