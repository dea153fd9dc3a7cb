"""Relations that hold at every point of the domain, with no reference value
(ROADMAP item 20).

The grid has 720 points: p in {0, 1e-300, 1e-30, 1e-6, 0.3, 3, 1e6, 1e30,
1e300, inf}, b in +-{0.05, 0.7, 2, 20}, q in {0.05, 1.3, 20} and c in
{1e-250, 1, 1e250}, with x0 = 0.  At each point the surface is read at the
offsets c 10^k, k = -300..300, that are finite positive doubles, and must
show:

- no NaN in pdf, cdf, sf, hazard or the quantile of the levels below;
- 0 <= cdf <= 1 and 0 <= sf <= 1, cdf rising and sf falling;
- cdf + sf = 1 within 4e-16;
- hazard = pdf/sf within 1e-12 relative, where pdf, sf and their ratio
  are normal doubles;
- the round trip: at each normal offset y whose level F = cdf(y) lies in
  (1e-290, 0.5), quantile_offset(F) = y within
  8 eps (1 + |ln F| + |ln y|) max(1, F/(y pdf)) relative, the rounding of
  the log-space forms times the conditioning of the inverse in log space.

The relations skip NaN elements, which the first check counts.  Each point
known to miss a relation is listed in a row of its table, one strict xfail
per row (a case that fails once any point of the row holds), naming the
ROADMAP items whose fixes it waits for; the misses are the same on numpy's
AVX-512, AVX2 and baseline loops.
"""

import functools
import math
from itertools import product

import numpy as np
import pytest

from ifdist import IFDistribution, IFParams

INF = math.inf
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)

P = (0.0, 1e-300, 1e-30, 1e-6, 0.3, 3.0, 1e6, 1e30, 1e300, INF)
B = (0.05, 0.7, 2.0, 20.0, -0.05, -0.7, -2.0, -20.0)
Q = (0.05, 1.3, 20.0)
C = (1e-250, 1.0, 1e250)
GRID = list(product(P, B, Q, C))  # (p, b, q, c)

def _table(text):
    """Rows "p b q c-values items", the c values comma-separated or "all",
    as (points, items) pairs."""
    rows = []
    for row in text.strip().splitlines():
        p, b, q, cs, items = row.split()
        rows.append(([(float(p), float(b), float(q), c)
                      for c in (C if cs == "all" else map(float, cs.split(",")))], items))
    return rows


# The points where pdf_offset, cdf_offset or hazard reads NaN at some
# offset: ln(1 - w) meets -inf - -inf where ln G = logaddexp(ln k, b ln y)
# has lost its last digits.
NAN_MISSES = _table("""
3      0.7   1.3  all          2
3      2     1.3  all          2
3      20    1.3  all          2
3      -0.7  1.3  all          2
3      -2    1.3  all          2
3      -20   1.3  all          2
1e300  2     1.3  1,1e250      2
1e300  20    1.3  all          2
1e300  -2    1.3  1e-250,1     2
1e300  -20   1.3  all          2
""")

# The points that miss the round trip, with the ROADMAP items at fault, told
# apart by 400-digit mpmath at the worst offsets: item 2 where the cdf is
# farther from its value than the bound allows (near x0 for b > 0; for
# b < 0 at large p, where w is subnormal), item 16 where the quantile of the
# cdf's own level is (its ln(1 - v^(1/(p+1))) next to x0, and at p >= 1e6
# the logs of (p+1)^(-1/(bq)) and (e^z - 1)^(1/b), which cancel).
ROUND_TRIP_MISSES = _table("""
1e-300  0.05   0.05  1,1e250       16
1e-300  0.05   1.3   1,1e250       16
1e-300  0.05   20    1,1e250       16
1e-300  0.7    0.05  all           16
1e-300  0.7    1.3   all           16
1e-300  0.7    20    all           16
1e-300  2      0.05  all           16
1e-300  2      1.3   all           16
1e-300  2      20    all           16
1e-30   0.05   0.05  1,1e250       16
1e-30   0.05   1.3   1,1e250       16
1e-30   0.05   20    1,1e250       16
1e-30   0.7    0.05  1e-250        16
1e-30   0.7    0.05  1,1e250       2,16
1e-30   0.7    1.3   1e-250        16
1e-30   0.7    1.3   1,1e250       2,16
1e-30   0.7    20    1e-250        16
1e-30   0.7    20    1,1e250       2,16
1e-30   2      0.05  all           2,16
1e-30   2      1.3   all           2,16
1e-30   2      20    all           2,16
1e-30   20     0.05  all           2
1e-30   20     1.3   all           2
1e-30   20     20    all           2
1e-6    0.05   0.05  1,1e250       2,16
1e-6    0.05   1.3   1,1e250       2,16
1e-6    0.05   20    1,1e250       2,16
1e-6    0.7    0.05  all           2,16
1e-6    0.7    1.3   all           2,16
1e-6    0.7    20    all           2,16
1e-6    2      0.05  all           2,16
1e-6    2      1.3   all           2,16
1e-6    2      20    all           2,16
1e-6    20     0.05  all           2
1e-6    20     1.3   all           2
1e-6    20     20    all           2
0.3     0.05   0.05  1,1e250       2,16
0.3     0.05   1.3   1,1e250       2,16
0.3     0.05   20    1,1e250       2,16
0.3     0.7    0.05  all           2,16
0.3     0.7    1.3   all           2,16
0.3     0.7    20    all           2,16
0.3     2      0.05  all           2,16
0.3     2      1.3   all           2,16
0.3     2      20    all           2,16
3       0.05   0.05  1,1e250       2,16
3       0.05   1.3   1,1e250       2
3       0.05   20    1,1e250       2
3       0.7    0.05  all           2
3       0.7    1.3   1e-250,1e250  2
3       0.7    1.3   1             2,16
3       0.7    20    1e-250,1e250  2
3       0.7    20    1             2,16
3       2      0.05  all           2,16
3       2      1.3   all           2,16
3       2      20    all           2,16
3       20     0.05  all           2,16
1e6     0.05   0.05  1e250         16
1e30    0.05   0.05  1             16
1e30    0.05   0.05  1e250         2,16
1e30    0.05   1.3   1             16
1e30    0.7    0.05  1             16
1e30    0.7    1.3   1             16
1e30    2      0.05  1             2,16
1e30    -0.05  0.05  1e250         16
1e30    -0.05  20    1,1e250       2
1e30    -2     1.3   1             2
1e30    -20    0.05  1,1e250       2
1e30    -20    1.3   1e-250,1      2
1e300   0.05   0.05  1,1e250       2,16
1e300   0.05   1.3   all           2,16
1e300   0.05   20    1             2,16
1e300   0.7    0.05  all           2,16
1e300   2      0.05  1             2,16
1e300   20     1.3   1             2,16
1e300   -0.05  0.05  1e250         2,16
1e300   -0.05  1.3   1,1e250       2
1e300   -0.05  20    all           2
1e300   -0.7   0.05  1,1e250       2,16
1e300   -0.7   1.3   all           2
1e300   -0.7   20    all           2
1e300   -2     0.05  1,1e250       2
1e300   -2     1.3   all           2
1e300   -20    0.05  all           2
""")


@functools.cache
def _surface(point):
    """The arrays the relations read at one grid point."""
    p, b, q, c = point
    d = IFDistribution(IFParams(p, b, c, q, 0.0))
    with np.errstate(over="ignore", under="ignore"):
        ds = c * 10.0 ** np.arange(-300.0, 301.0)
    ds = ds[(ds > 0.0) & (ds < INF)]
    pdf, cdf, sf = d.pdf_offset(ds), d.cdf_offset(ds), d.sf_offset(ds)
    at = (cdf > 1e-290) & (cdf < 0.5) & (ds >= TINY)
    return {"pdf": pdf, "cdf": cdf, "sf": sf, "hazard": d.hazard(ds),
            "level": cdf[at], "y": ds[at], "pdf_y": pdf[at],
            "quantile": d.quantile_offset(cdf[at])}


def _id(point):
    return "p={:g},b={:g},q={:g},c={:g}".format(*point)


def _cases(known):
    """One case per p of the grid points that hold, and one case per row
    of known, a `_table`, with its ROADMAP items."""
    missing = {pt for points, _ in known for pt in points}
    return ([pytest.param([pt for pt in GRID if pt[0] == p and pt not in missing], None,
                          id=f"p={p:g}") for p in P]
            + [pytest.param(points, items, id=_id(points[0]) + "".join(
                f"|{pt[3]:g}" for pt in points[1:])) for points, items in known])


def _check(points, items, relation):
    """Assert relation at points.  A row of known misses (items set) is a
    strict xfail, taken imperatively: it xfails while every point of the
    row misses and fails once one holds, and skips the traceback that
    pytest formats for a failed assertion (about 10 ms a case)."""
    __tracebackhide__ = True
    missed = [_id(pt) for pt in points if not relation(_surface(pt))]
    if items is None:
        assert not missed
    elif len(missed) == len(points):
        pytest.xfail(f"ROADMAP item {items}")
    else:
        pytest.fail(f"{sorted(set(map(_id, points)) - set(missed))} now hold: "
                    "remove them from the table of misses")


def _no_nan(s):
    return not any(np.isnan(s[k]).any() for k in ("pdf", "cdf", "sf", "hazard", "quantile"))


@pytest.mark.parametrize("points, items", _cases(NAN_MISSES))
def test_no_nan(points, items):
    _check(points, items, _no_nan)


def _bounded_and_monotone(s):
    cdf, sf = (v[~np.isnan(v)] for v in (s["cdf"], s["sf"]))
    return (((cdf >= 0.0) & (cdf <= 1.0)).all() and ((sf >= 0.0) & (sf <= 1.0)).all()
            and (np.diff(cdf) >= 0.0).all() and (np.diff(sf) <= 0.0).all())


def _complement(s):
    total = s["cdf"] + s["sf"]
    return (np.abs(total[~np.isnan(total)] - 1.0) <= 4e-16).all()


def _hazard_ratio(s):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = s["pdf"] / s["sf"]
    at = ((s["pdf"] >= TINY) & (s["sf"] >= TINY) & (ratio >= TINY) & (ratio < INF)
          & ~np.isnan(s["hazard"]))
    return (np.abs(s["hazard"][at] - ratio[at]) <= 1e-12 * ratio[at]).all()


@pytest.mark.parametrize("relation", [_bounded_and_monotone, _complement, _hazard_ratio])
@pytest.mark.parametrize("p", P, ids=lambda p: f"p={p:g}")
def test_relation_holds(p, relation):
    _check([pt for pt in GRID if pt[0] == p], None, relation)


def _round_trip(s):
    level, y = s["level"], s["y"]
    with np.errstate(divide="ignore", over="ignore"):
        bound = (8.0 * EPS * (1.0 + np.abs(np.log(level)) + np.abs(np.log(y)))
                 * np.maximum(1.0, level / (y * s["pdf_y"])))
    return (np.abs(s["quantile"] / y - 1.0) <= bound).all()


@pytest.mark.parametrize("points, items", _cases(ROUND_TRIP_MISSES))
def test_round_trip(points, items):
    _check(points, items, _round_trip)
