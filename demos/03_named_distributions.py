"""The catalog: classical size distributions as exact family members.

Each named case is a pinned corner of the five-parameter space.  resolve()
inverts the mapping: given raw parameters it lists every name that matches,
most specific first.
"""

from ifdist import IFDistribution, mean, named, resolve, table1_mean
from ifdist.catalog import CATALOG, records

print(f"{len(CATALOG)} catalog entries:\n")
print(f"{'name':<22}{'parameters':<18}{'maps to (p, b, c, q, x0)':<34}parent")
for rec in records():
    print(f"{rec['name']:<22}{rec['parameters']:<18}{rec['if_map']:<34}"
          f"{rec['tree_parent']}")

print("\nAn exponential is a Weibull is a cut-off member:")
print(" ", resolve(named("exponential", c=3.0)))

print("\nStoppa locks its location to c m^(-1/q):")
pa = named("stoppa", m=2.0, c=1.0, q=3.0)
print(f"  {pa}")
print("  resolve:", resolve(pa))

print("\nTabled means agree with the moment machinery:")
for name, args in [("rayleigh", dict(c=2.0)),
                   ("pareto_i", dict(x0=1.0, q=3.0)),
                   ("dagum", dict(b=-2.5, c=1.0, q=2.0)),
                   ("generalized_lomax", dict(m=2.0, c=1.0, q=4.0))]:
    t = table1_mean(name, **args)
    m = mean(named(name, **args))
    print(f"  {name:<18} printed formula {t.value:.10f}   "
          f"machinery {m.value:.10f}")

print("\nThe inverse exponential has no mean at all:")
res = table1_mean("inverse_exponential", c=1.0)
print(f"  exists={res.exists}  violated constraint: {res.constraint!r}")

print("\nSign of b mirrors a family member into its inverse:")
w = named("weibull_2p", c=1.0, q=2.0)      # this is the Rayleigh
iw = named("inverse_rayleigh", c=1.0)
print(f"  rayleigh    b={w.b}, median  {IFDistribution(w).quantile(0.5):.4f}")
print(f"  inverse     b={iw.b}, median  {IFDistribution(iw).quantile(0.5):.4f}"
      f"  = 1/median of the mirror: {1.0 / IFDistribution(w).quantile(0.5):.4f}")
