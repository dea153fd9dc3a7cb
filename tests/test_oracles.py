"""Oracles that need no mpmath: the leading terms of cdf, pdf and quantile
next to x0, and pdf, cdf, sf, hazard, quantile and median at p next to 0
and at large p against the two limits IF1 (p = 0) and IF2 (p = inf).

With y = (x - x0)/c and k = (p+1)^(-1/q), 1 - w = 1 - (1 + y^b/k)^(-q)
and, as y -> 0:

- b > 0 at finite p: cdf = (1 - w)^(p+1) ~ (q y^b/k)^(p+1), and the next
  term has relative size (p+1)(q+1) y^b/(2k);
- b < 0: cdf = 1 - (1 - w)^(p+1) ~ y^(|b|q), and the next term has
  relative size q k y^|b| + p y^(|b|q)/(2(p+1)).

The pdf is the derivative of each expansion, and the quantile offset at
a level v the inverse of the cdf's leading term: c (k v^(1/(p+1))/q)^(1/b)
for b > 0 and c v^(1/(|b|q)) for b < 0, whose next term is the cdf's over
the power of y that leading term carries, b(p+1) or |b|q.  The bound on a
value over its leading term is a few times the next term, plus a floor of
a few eps times the log-space terms the value is summed from.  The points
are fixed: two named ones of each sign of b and draws from a seeded
generator.
"""

import dataclasses
import math

import numpy as np
import pytest

from ifdist import IFDistribution, IFParams

EPS = float(np.finfo(float).eps)

NAMED_POSITIVE = [IFParams(3.0, 2.0, 1.0, 1.3, 0.0),
                  IFParams(2.5, 1.7, 1.3, 2.2, 0.1)]  # the table point
NAMED_NEGATIVE = [IFParams(3.0, -0.7, 2.0, 1.3, 0.0),
                  IFParams(2.5, -1.7, 1.3, 2.2, 0.1)]


def _drawn(sign, n, seed):
    """n points with b of the given sign; p <= 8 keeps every leading term
    below tested here inside the normal doubles."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        p = math.exp(rng.uniform(math.log(0.05), math.log(8.0)))
        b = sign * rng.uniform(0.3 if sign > 0 else 0.7, 4.0)
        q = rng.uniform(0.5, 4.0 if sign > 0 else 3.0)
        out.append(IFParams(p, b, rng.uniform(0.5, 3.0), q, rng.uniform(0.0, 1.5)))
    return out


POSITIVE = NAMED_POSITIVE + _drawn(1, 8, 17)
NEGATIVE = NAMED_NEGATIVE + _drawn(-1, 8, 71)
Y_NEGATIVE = 10.0 ** -np.arange(3.0, 13.0)  # y from 1e-3 down to 1e-12, b < 0
T_POSITIVE = [1e-3, 1e-4, 1e-5]  # y^b/k where b > 0 passes


def _k(pa):
    return (pa.p + 1.0) ** (-1.0 / pa.q)


def _offsets_at(pa, ratios):
    """The offsets x - x0 where y^b/k takes each ratio (b > 0)."""
    return np.array([pa.c * (t * _k(pa)) ** (1.0 / pa.b) for t in ratios])


def _leading(pa, delta):
    """(ln of the cdf's leading term, its next term; the same for the pdf;
    the size of the density's log terms) at offsets delta."""
    p, b, c, q = pa.p, pa.b, pa.c, pa.q
    ln_y = np.log(delta / c)
    if b > 0:
        t = np.exp(b * ln_y) / _k(pa)
        ln_cdf = (p + 1.0) * np.log(q * t)
        ln_pdf = ln_cdf + math.log(b * (p + 1.0) / c) - ln_y
        next_cdf = (p + 1.0) * (q + 1.0) * t / 2.0
        next_pdf = (p + 2.0) * (q + 1.0) * t / 2.0
    else:
        s, v = np.exp(-b * ln_y), np.exp(-b * q * ln_y)  # y^|b|, y^(|b|q)
        ln_cdf = -b * q * ln_y
        ln_pdf = ln_cdf + math.log(-b * q / c) - ln_y
        next_cdf = q * _k(pa) * s + p * v / (2.0 * (p + 1.0))
        next_pdf = (q + 1.0) * _k(pa) * s + p * v / (p + 1.0)
    # ln pdf sums (b - 1) ln y, -(q + 1) ln G and p ln(1 - w); their sizes
    # can far exceed that of the sum when |b| or q is small
    terms = np.abs(ln_pdf) + (abs(b) + 1.0) * (q + 2.0) * np.abs(ln_y)
    return ln_cdf, next_cdf, ln_pdf, next_pdf, terms


def _ln_quantile_leading(pa, ln_v):
    """ln of the quantile offset's leading term at the levels e^ln_v."""
    p, b, c, q = pa.p, pa.b, pa.c, pa.q
    if b > 0:
        return math.log(c) + (math.log(_k(pa)) + ln_v / (p + 1.0) - math.log(q)) / b
    return math.log(c) + ln_v / (-b * q)


def _misses(pa, fn, delta):
    """|value / leading term - 1| over its bound, at each offset; the
    quantile's at the level the cdf's leading term takes there."""
    d = IFDistribution(pa)
    ln_cdf, next_cdf, ln_pdf, next_pdf, terms = _leading(pa, delta)
    if fn == "quantile":
        got = d.quantile_offset(np.exp(ln_cdf))
        ln_lead = _ln_quantile_leading(pa, ln_cdf)
        power = pa.b * (pa.p + 1.0) if pa.b > 0 else -pa.b * pa.q
        # the offset is formed from ln y, |ln y| the size of its log terms
        bound = 3 * next_cdf / power + 8 * EPS * np.abs(ln_lead - math.log(pa.c))
    elif fn == "cdf":
        got, ln_lead = d.cdf_offset(delta), ln_cdf
        bound = 3 * next_cdf + 8 * EPS * np.abs(ln_cdf)
    else:
        got, ln_lead = d.pdf_offset(delta), ln_pdf
        bound = 3 * next_pdf + 8 * EPS * terms
    with np.errstate(invalid="ignore"):
        return np.abs(got / np.exp(ln_lead) - 1.0) / bound


def _assert_within(pa, fn, delta):
    miss = _misses(pa, fn, delta)
    bad = ~(miss <= 1)  # NaN too
    assert not bad.any(), (f"{fn} of {pa!r} at offsets {delta[bad].tolist()}: "
                           f"{miss[bad].tolist()} times the bound")


# y^b/k at or below 1e-12: the named points at y = 1e-8 and 1e-12, and
# every point at y^b/k = 1e-12, 1e-16 and 1e-20
def _deep_points():
    out = [(NAMED_POSITIVE[0], np.array([1e-8, 1e-12])),
           (NAMED_POSITIVE[1], np.array([1.3e-8, 1.3e-12]))]
    return out + [(pa, _offsets_at(pa, [1e-12, 1e-16, 1e-20])) for pa in POSITIVE]


def test_every_leading_term_is_a_normal_double():
    cases = ([(pa, pa.c * Y_NEGATIVE) for pa in NEGATIVE]
             + [(pa, _offsets_at(pa, T_POSITIVE)) for pa in POSITIVE]
             + _deep_points())
    for pa, delta in cases:
        ln_cdf, _, ln_pdf, _, _ = _leading(pa, delta)
        assert (np.minimum(ln_cdf, ln_pdf) > math.log(np.finfo(float).tiny)).all()


@pytest.mark.parametrize("fn", ["cdf", "pdf", "quantile"])
@pytest.mark.parametrize("pa", NEGATIVE, ids=repr)
def test_b_negative_down_to_y_1e_12(pa, fn):
    _assert_within(pa, fn, pa.c * Y_NEGATIVE)


@pytest.mark.parametrize("fn", ["cdf", "pdf", "quantile"])
@pytest.mark.parametrize("pa", POSITIVE, ids=repr)
def test_b_positive_where_y_b_over_k_is_1e_5_or_more(pa, fn):
    _assert_within(pa, fn, _offsets_at(pa, T_POSITIVE))


@pytest.mark.parametrize("fn", [
    pytest.param("cdf", marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "b > 0 next to x0: ln G = logaddexp(ln k, b ln y) keeps an absolute "
        "rounding of about eps |ln k|, so ln w = -q ln G - ln(p + 1) cancels; "
        "cdf over its leading term reads 0.1195 at y = 1e-8 and NaN at 1e-12 "
        "for IFParams(3, 2, 1, 1.3, 0), and 1.001343 at y = 1e-8 and 0 at "
        "1e-12 at the table point (ROADMAP item 2)"))),
    pytest.param("pdf", marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "b > 0 next to x0: ln(1 - w) loses its digits as for the cdf, and the "
        "density carries p times its error (ROADMAP item 2)"))),
    pytest.param("quantile", marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "b > 0 next to x0: _quantile_plus_offset forms ln(1 - v^(1/(p+1))) as "
        "log(-expm1(s)) unless that reads exactly 1.0, so z keeps an absolute "
        "error of about eps while z itself is tiny; at IFParams(3, 2, 1, 1.3, "
        "0) the offset is 1.5e-5 and 7.6e-2 off at y^b/k = 1e-12 and 1e-16, "
        "where the next terms are 5.8e-13 and 5.8e-17 (ROADMAP item 16)"))),
])
def test_b_positive_where_y_b_over_k_is_1e_12_or_less(fn):
    for pa, delta in _deep_points():
        _assert_within(pa, fn, delta)


# ---- the two p-limits ----------------------------------------------------
#
# The same points at p next to 0 against IF1 (p = 0) and at large p against
# IF2 (p = inf), compared in log space at the limit's quantiles of LEVELS.
# Toward IF1 the log of each value moves by about p times the log size l of
# its level, l = 1 + |ln v| + |ln(1 - v)|.  Toward IF2, with t = y^(-bq),
# the limit's -ln cdf (b > 0) or -ln sf (b < 0), at most l, (p + 1) ln(1 - w)
# is -t + q k t^(1 + 1/q) - t^2/(2(p + 1)) to first order, k = (p+1)^(-1/q):
# at l = 1 the rate (p+1)^(-1/q) + 1/p that test_criterion_6 states.  The
# bound is 4 times that rate plus 8 eps times the size of the log terms the
# values are summed from.

LEVELS = np.array([1e-12, 1e-6, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0 - 1e-6])
TOWARD = {"if1": (0.0, [1e-300, 1e-30, 1e-12]),
          "if2": (math.inf, [1e6, 1e12, 1e100, 1e300])}


def _limit_misses(pa, toward, fn, levels=LEVELS):
    """|ln(value at each p / value at the limit)| over its bound, at levels."""
    limit, ps = TOWARD[toward]
    lim = IFDistribution(dataclasses.replace(pa, p=limit))
    ell = 1.0 + np.abs(np.log(levels)) + np.abs(np.log1p(-levels))
    ds = lim.quantile_offset(levels)
    xs = pa.x0 + ds
    if fn == "hazard":  # x0 + ds rounds onto x0 for the deepest offsets
        ell, ds, xs = ell[xs > pa.x0], ds[xs > pa.x0], xs[xs > pa.x0]

    def value(dist):
        if fn == "quantile":
            return dist.quantile_offset(levels)
        if fn == "median":
            return np.array([dist.median() - pa.x0])
        if fn == "hazard":
            return dist.hazard(xs)
        return getattr(dist, f"{fn}_offset")(ds)

    want, q = value(lim), pa.q
    # the size of the log terms: the value's own, (b - 1) ln y and (q + 1) ln G,
    # and ln(p + 1) in ln w, scaled as the gap is by the level's log size
    terms = np.abs(np.log(want)) + (abs(pa.b) + 1.0) * (q + 2.0) * np.abs(np.log(ds / pa.c))
    out = []
    for p in ps:
        got = value(IFDistribution(dataclasses.replace(pa, p=p)))
        rate = (p * ell if limit == 0.0 else
                q * (p + 1.0) ** (-1.0 / q) * ell ** (1.0 + 1.0 / q) + ell ** 2 / p)
        bound = 4.0 * rate + 8.0 * EPS * (terms + (1.0 + math.log1p(p)) * ell)
        with np.errstate(divide="ignore", invalid="ignore"):
            out.append(np.abs(np.log(got / want)) / bound)
    return np.array(out)


def _assert_near_limit(pa, toward, fn, levels=LEVELS):
    if fn == "median":
        levels = np.array([0.5])
    miss = _limit_misses(pa, toward, fn, levels)
    bad = ~(miss <= 1)  # NaN too
    assert not bad.any(), (f"{fn} of {pa!r} toward {toward}: {miss.tolist()} "
                           f"times the bound at p = {TOWARD[toward][1]}")


@pytest.mark.parametrize("fn", ["pdf", "cdf", "sf", "hazard", "quantile", "median"])
@pytest.mark.parametrize("toward", ["if1", "if2"])
def test_b_negative_near_both_limits(toward, fn):
    for pa in NEGATIVE:
        _assert_near_limit(pa, toward, fn)


@pytest.mark.parametrize("fn", ["pdf", "cdf", "sf", "hazard", "quantile", "median"])
@pytest.mark.parametrize("toward", ["if1", "if2"])
def test_b_positive_near_both_limits(toward, fn):
    # the quantile toward IF1 at levels 1e-12 and 1e-6 is the strict xfail below
    levels = LEVELS[2:] if (toward, fn) == ("if1", "quantile") else LEVELS
    for pa in POSITIVE:
        _assert_near_limit(pa, toward, fn, levels)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "b > 0 at low levels: _quantile_plus_offset forms ln(1 - v^(1/(p+1))) "
    "as log(-expm1(s)) unless that reads exactly 1.0, so its absolute error "
    "of about eps is large against the tiny z; at p = 1e-300 the offset is "
    "up to 2.5e-5 off its IF1 value at level 1e-12 and 3.2e-11 at 1e-6, "
    "4e7 times the bound at the worst point (ROADMAP item 16)"))
def test_b_positive_quantile_near_if1_at_low_levels():
    for pa in POSITIVE:
        _assert_near_limit(pa, "if1", "quantile", LEVELS[:2])
