"""Moment existence, closed-form raw moments, means and variances.

Closed forms cover the three subfamilies (p = 0, p = inf, and b = 1), all
from one engine: E[X^r] is the binomial sum over the standardised moments
E[Y^k], Y = (X - x0)/c (`_standard_moment`), the mean is its r = 1 case and
the variance is c^2 (E[Y^2] - E[Y]^2).  Every other parameter combination
takes verified adaptive quadrature of x^r times the density within a fixed
budget; what that cannot finish is answered from the tail-free [0, 1] form
of E[Y^r].

Existence of the r-th moment:

    finite p:  b > 0  <=>  r < b q          (tail decays like x^(-bq-1))
               b < 0  <=>  r < -b (p+1)     (tail decays like x^(b(p+1)-1))
    p = inf:   b > 0  <=>  r < b q
               b < 0  =>   every moment exists (exponential upper tail)

The b < 0 condition carries the factor (p+1): the deformation sharpens the
upper tail as p grows, which is also what makes the two rows agree in the
p -> inf limit.  Both sides of the boundary are exercised numerically in the
test suite via truncated-integral growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_LN2, IFDistribution, IFParams, Subfamily, _exp,
                   _ln1m_exp_far, _ln1m_exp_near, classify)
from .errors import DomainError, NumericFailure
from .kernels import _EPS, _real, _shown, beta, integrate, ln_gamma

__all__ = [
    "MomentResult",
    "CLOSED_FORM",
    "NUMERIC",
    "UNIT_INTERVAL",
    "moment_exists",
    "raw_moment",
    "mean",
    "variance",
]

CLOSED_FORM = "closed-form"
NUMERIC = "numeric"
UNIT_INTERVAL = "unit-interval"

# Subdivision budget of each moment quadrature: 2000 subdivisions, 30,000
# evaluations.  With the default budget (20,000 subdivisions) the most any
# converging x-space moment needed was 541 evaluations over the tests, 451
# over the CLI commands the benchmark pins and 3,181 over benchmark
# `analysis` seeds 1-3; the only 5 calls beyond that took 204,901-257,431
# and sit next to the existence boundary, where the [0, 1] form does better.
_LIMIT = 2000
# The [0, 1] form aims at this relative tolerance and fails above the bound.
_UNIT_RTOL = 1e-14
_UNIT_MAX_REL_ERR = 1e-10


@dataclass(frozen=True, slots=True)
class MomentResult:
    """A finite moment with provenance, or the violated existence condition."""

    value: float | None = None
    provenance: str | None = None
    abs_error: float = 0.0
    constraint: str | None = None

    @property
    def exists(self) -> bool:
        return self.constraint is None


def _check_order(r) -> int:
    if not (rr := _real(r, math.nan)).is_integer() or rr < 1:
        raise DomainError(f"moment order must be a positive integer, got {_shown(r)}")
    return int(rr)


def moment_exists(params: IFParams, r) -> tuple[bool, str]:
    """(exists, governing condition) for the r-th moment."""
    r = _check_order(r)
    b, q, p = params.b, params.q, params.p
    if b > 0:
        return r < b * q, "requires r < bq"
    if math.isinf(p):
        return True, "all moments exist"
    return r < -b * (p + 1.0), "requires r < -b(p+1)"


def _numeric_moment(params: IFParams, r: int) -> MomentResult | None:
    """E[X^r] by quadrature of x^r times the density within the budget, or
    None where that does not converge or the value is not above its own
    absolute tolerance (a tiny c)."""
    d = IFDistribution(params)

    def integrand(ds):
        # x^r * pdf(x) assembled in log space; x^r alone overflows near the
        # top of the representable range while the product stays finite.
        # integrate passes the open nodes of [0, inf): every offset is > 0
        return np.exp(r * np.log(params.x0 + ds) + d.log_pdf_offset(ds))

    tol = 1e-9 * max(1.0, (params.x0 + params.c) ** r)
    res = integrate(integrand, 0.0, math.inf, tol=tol, limit=_LIMIT)
    if res.converged and res.value > tol:
        return MomentResult(value=res.value, provenance=NUMERIC,
                            abs_error=res.abs_error_estimate)
    return None


def _unit_moment(params: IFParams, k: int) -> tuple[float, float]:
    """(E[Y^k], abs error) at finite p from the tail-free [0, 1] form

        E[Y^k] = (p+1)^(1 - k/(bq)) q int_0^1 v^(a-1) (1-v)^(k/b) (1-v^q)^p dv

    with a = q - k/b, split at 1/2.  The lower half is integrated in
    s = ln v, split at s_mid = min(-ln 2, -ln(p+1)/q): for large p and
    small q the factor (1-v^q)^p spreads the mass over decades of v around
    e^s_mid.  An end where the integrand is singular has its leading term
    integrated in closed form and only the remainder left to the
    quadrature: e^(as) = v^(a-1) dv below s_mid when a < 1, and
    q^p w^(beta-1) on w = 1 - v in [0, 1/2] when beta = k/b + p + 1 < 1.
    Elsewhere the integrand is integrated whole: there the leading term
    would only cancel.  Raises NumericFailure beyond a relative error of
    _UNIT_MAX_REL_ERR."""
    p, b, q = params.p, params.b, params.q
    kb = k / b
    a = q - kb
    bt = kb + p + 1.0
    ln_qp = p * math.log(q)
    s_mid = min(-_LN2, -math.log1p(p) / q)

    def lower(s, lead=False):
        # the integrand in s = ln v, less e^(as) when lead
        with np.errstate(all="ignore"):
            lh = kb * _ln1m_exp_far(s) + p * _ln1m_exp_far(q * s)
            if lead:
                return np.exp(a * s) * np.expm1(lh)
            return np.exp(a * s + lh)

    def upper(w, lead=bt < 1.0):
        # the integrand at v = 1 - w, less q^p w^(beta-1) when lead
        with np.errstate(all="ignore"):
            ln_w = np.log(w)
            lg = ((a - 1.0) * np.log1p(-w) + (bt - 1.0) * ln_w
                  + p * (_ln1m_exp_near(q * np.log1p(-w)) - ln_w))
            if lead:
                ln_lead = ln_qp + (bt - 1.0) * ln_w
                return np.exp(ln_lead) * np.expm1(lg - ln_lead)
            return np.exp(lg)

    pieces = [(lambda u: lower(s_mid - u, a < 1.0), 0.0, math.inf),
              (upper, 0.0, 0.5)]
    if s_mid < -_LN2:
        pieces.append((lower, s_mid, -_LN2))
    e0 = _exp(a * s_mid - math.log(a))               # int below s_mid of e^(as)
    e1 = _exp(ln_qp - bt * _LN2 - math.log(bt))      # int_0^1/2 q^p w^(bt-1) dw
    ends = (e0 if a < 1.0 else 0.0) + (e1 if bt < 1.0 else 0.0)
    # the closed-form terms set the first tolerance; where the total comes
    # out far below them, that pass was a pilot and the second aims at it
    scale = e0 + e1
    for _ in range(2):
        tol = _UNIT_RTOL * scale
        if not tol > 0.0:  # the integrand is below the doubles, the moment may not be
            raise NumericFailure(f"[0, 1] moment form of {params} k={k} underflows")
        parts = [integrate(f, lo, hi, tol=tol, limit=_LIMIT)
                 for f, lo, hi in pieces]
        total = ends + sum(r.value for r in parts)
        if not (0.0 < total < 0.25 * scale):
            break
        scale = total
    err = sum(r.abs_error_estimate + 4.0 * _EPS * abs(r.value) for r in parts)
    err += 4.0 * _EPS * ends
    if not (0.0 < total and err <= _UNIT_MAX_REL_ERR * total):
        raise NumericFailure(
            f"[0, 1] moment form did not resolve {params} k={k}: "
            f"{total!r} with error estimate {err:.3e}")
    # the prefactor (p+1)^(1 - k/(bq)) may leave the doubles on its own: the
    # value then reads inf, which the public entry turns into NumericFailure
    value = q * _exp((1.0 - kb / q) * math.log1p(p) + math.log(total))
    return value, value * (err / total)


def _ln_gamma_error(x: float, dx: float) -> float:
    """Error bound of ln_gamma(x) in a sum, x off by up to dx: a few eps of
    |ln_gamma| <= (x + 1)|ln x| + 1, plus dx |digamma| <= dx (1/x + |ln x| + 1)."""
    ln_x = abs(math.log(x))
    return 4.0 * _EPS * ((x + 1.0) * ln_x + 1.0) + (1.0 / x + ln_x + 1.0) * dx


def _standard_moment(params: IFParams, k: int,
                     weight: float = 1.0) -> tuple[float, float]:
    """(weight E[Y^k], abs error) with Y = (X - x0)/c: closed forms and their
    rounding bounds on the subfamilies, the [0, 1] form elsewhere; E[Y^0] = 1.
    A beta sum rounds as (weight scale) sum coef B, as the means are written."""
    if k == 0:
        return weight, 0.0
    b, q, m = params.b, params.q, params.p + 1.0
    sub = classify(params)
    if sub is Subfamily.GENERAL:
        value, err = _unit_moment(params, k)
        return weight * value, weight * err
    if sub is Subfamily.IF2:
        x, dx = 1.0 - k / (b * q), _EPS * (1.0 + 3.0 * abs(k / (b * q)))
        value = math.exp(ln_gamma(x))
        return weight * value, weight * (value * (_ln_gamma_error(x, dx) + 2.0 * _EPS))
    # scale times a sum of coef B(x, y), with x and y off by up to dx, dy
    if sub is Subfamily.IF1:
        kb = abs(k / b)
        scale, d_scale = q, _EPS
        terms = [(1.0, q - k / b, 1.0 + k / b,
                  _EPS * (q + 2.0 * kb), _EPS * (1.0 + 2.0 * kb))]
    else:
        scale = m ** (1.0 - k / q)
        # the exponent off by eps (1 + 2k/q), times ln m, and m by eps m
        d_scale = _EPS * (math.log(m) * (1.0 + 2.0 * k / q) + abs(1.0 - k / q) + 2.0)
        terms = [(math.comb(k, j) * (-1.0) ** j, 1.0 - (k - j) / q, m,
                  _EPS * (1.0 + 2.0 * k / q), _EPS * m) for j in range(k + 1)]
    vals = [coef * beta(x, y) for coef, x, y, _, _ in terms]
    value = weight * scale * sum(vals)
    if not math.isfinite(value):  # weight scale alone may leave the doubles
        value = weight * (scale * sum(vals))
    err = sum(abs(v) * (_ln_gamma_error(x, dx) + _ln_gamma_error(y, dy) + (k + 5) * _EPS
                        + _ln_gamma_error(x + y, dx + dy + _EPS * (x + y)))
              for v, (_, x, y, dx, dy) in zip(vals, terms))
    return value, weight * (abs(scale) * err) + abs(value) * d_scale


def _binomial(params: IFParams, r: int) -> tuple[float, float]:
    """(E[X^r], abs error) from the binomial expansion of (x0 + c Y)^r over
    the standardised moments; the error includes the rounding of the
    weights, the products and the sum."""
    x0, c = params.x0, params.c
    total = err = 0.0
    for i in range(r + 1):
        wm, we = _standard_moment(params, r - i, math.comb(r, i) * x0 ** i * c ** (r - i))
        total += wm
        err += we + (r + 4) * _EPS * abs(wm)
    return total, err


def _moment(params: IFParams, r: int, body) -> MomentResult:
    """The one way in and out of raw_moment, mean, variance and
    catalog.table1_mean: answer non_existent where the r-th moment does not
    exist, and raise NumericFailure where body()'s value leaves the doubles
    or is not above its abs_error (every raw moment and variance is
    positive)."""
    ok, condition = moment_exists(params, r)
    if not ok:
        return MomentResult(constraint=condition)
    try:
        res = body()
    except OverflowError as exc:
        raise NumericFailure(f"a moment of {params} overflowed: {exc}") from exc
    if not math.isfinite(res.value):
        raise NumericFailure(f"a moment of {params} is {res.value!r}")
    if not res.value > res.abs_error:
        raise NumericFailure(f"a moment {res.value!r} of {params} is not "
                             f"above its error bound {res.abs_error:.3e}")
    return res


def _raw_moment(params: IFParams, r: int) -> MomentResult:
    provenance = CLOSED_FORM
    if classify(params) is Subfamily.GENERAL:
        # x-space where that finishes, else the [0, 1] form
        if (res := _numeric_moment(params, r)) is not None:
            return res
        provenance = UNIT_INTERVAL
    value, err = _binomial(params, r)
    return MomentResult(value=value, provenance=provenance, abs_error=err)


def raw_moment(params: IFParams, r) -> MomentResult:
    """E[X^r] for positive integer r: the binomial expansion of (x0 + c Y)^r
    over the standardised moments on the subfamilies, quadrature elsewhere."""
    r = _check_order(r)
    return _moment(params, r, lambda: _raw_moment(params, r))


def mean(params: IFParams) -> MomentResult:
    """First moment: the r = 1 raw moment, x0 + c E[Y] from the closed forms
    on the subfamilies, quadrature elsewhere."""
    return _moment(params, 1, lambda: _raw_moment(params, 1))


def _variance(params: IFParams) -> MomentResult:
    c = params.c
    if classify(params) is not Subfamily.GENERAL:
        (v1, e1), (v2, e2) = (_standard_moment(params, k) for k in (1, 2))
        val = v2 - v1 * v1
        # the subtraction's rounding: its operands' bounds, and the square
        # and the difference rounded in doubles
        e2 += 2.0 * _EPS * (v1 * v1 + abs(val))
        scale, provenance = c * c, CLOSED_FORM
    else:
        m1 = _numeric_moment(params, 1)
        m2 = None if m1 is None else _numeric_moment(params, 2)
        if m2 is None:
            # c^2 Var(Y) from the [0, 1] form; x0 drops out
            (v1, e1), (v2, e2) = (_standard_moment(params, k) for k in (1, 2))
            scale, provenance = c * c, UNIT_INTERVAL
        else:
            (v1, e1), (v2, e2) = (m1.value, m1.abs_error), (m2.value, m2.abs_error)
            scale, provenance = 1.0, NUMERIC
        # heavy tails make this subtraction genuinely cancellation-prone; an
        # E[Y] beyond the doubles makes it inf - inf, which the exit reports
        with np.errstate(invalid="ignore"):
            val = float(np.longdouble(v2) - np.longdouble(v1) ** 2)
    return MomentResult(value=scale * val, provenance=provenance,
                        abs_error=scale * (e2 + 2.0 * abs(v1) * e1))


def variance(params: IFParams) -> MomentResult:
    """Variance: c^2 Var(Y) from the closed forms on the subfamilies and from
    the [0, 1] form where the quadrature of E[X^2] - E[X]^2 cannot finish."""
    return _moment(params, 2, lambda: _variance(params))
