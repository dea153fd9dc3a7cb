"""Oracles that need no mpmath: the leading terms of cdf, pdf and quantile
next to x0.

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
