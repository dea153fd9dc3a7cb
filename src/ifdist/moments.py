"""Moment existence, closed-form raw moments, means and variances.

Closed forms cover the three subfamilies (p = 0, p = inf, and b = 1); every
other parameter combination falls back to verified adaptive quadrature of
x^r times the density.

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

from .core import IFDistribution, IFParams, Subfamily, classify
from .errors import DomainError, NumericFailure
from .kernels import beta, integrate, ln_gamma

__all__ = [
    "MomentResult",
    "CLOSED_FORM",
    "NUMERIC",
    "moment_exists",
    "raw_moment",
    "mean",
    "variance",
]

CLOSED_FORM = "closed-form"
NUMERIC = "numeric"


@dataclass(frozen=True)
class MomentResult:
    """A finite moment with provenance, or the violated existence condition."""

    value: float | None = None
    provenance: str | None = None
    abs_error: float = 0.0
    constraint: str | None = None

    @property
    def exists(self) -> bool:
        return self.constraint is None

    @staticmethod
    def closed_form(value: float) -> "MomentResult":
        return MomentResult(value=value, provenance=CLOSED_FORM)

    @staticmethod
    def numeric(value: float, abs_error: float) -> "MomentResult":
        return MomentResult(value=value, provenance=NUMERIC, abs_error=abs_error)

    @staticmethod
    def non_existent(constraint: str) -> "MomentResult":
        return MomentResult(constraint=constraint)


def _check_order(r) -> int:
    try:
        rr = float(r)
    except (TypeError, ValueError):
        raise DomainError(f"moment order must be a positive integer, got {r!r}")
    if not rr.is_integer() or rr < 1:
        raise DomainError(f"moment order must be a positive integer, got {r!r}")
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


def _dist(params: IFParams) -> IFDistribution:
    return IFDistribution(params)


def _numeric_moment(params: IFParams, r: int) -> MomentResult:
    d = _dist(params)

    def integrand(deltas):
        # x^r * pdf(x) assembled in log space; x^r alone overflows near the
        # top of the representable range while the product stays finite
        ds = np.atleast_1d(np.asarray(deltas, dtype=float))
        out = np.zeros(ds.shape)
        pos = ds > 0
        if pos.any():
            lp = d.log_pdf_offset(ds[pos])
            out[pos] = np.exp(r * np.log(params.x0 + ds[pos]) + lp)
        return out

    scale = max(1.0, (params.x0 + params.c) ** r)
    res = integrate(integrand, 0.0, math.inf, tol=1e-9 * scale)
    if not res.converged:
        raise NumericFailure(
            f"moment quadrature did not converge for {params} r={r} "
            f"(error estimate {res.abs_error_estimate:.3e})")
    return MomentResult.numeric(res.value, res.abs_error_estimate)


def _standard_moment(params: IFParams, k: int) -> float:
    """E[Y^k] with Y = (X - x0)/c, in closed form on the subfamilies."""
    b, q = params.b, params.q
    sub = classify(params)
    if sub is Subfamily.IF1:
        return q * beta(q - k / b, 1.0 + k / b)
    if sub is Subfamily.IF2:
        return math.exp(ln_gamma(1.0 - k / (b * q)))
    m = params.p + 1.0
    return m ** (1.0 - k / q) * sum(
        math.comb(k, j) * (-1.0) ** j * beta(1.0 - (k - j) / q, m)
        for j in range(k + 1))


def raw_moment(params: IFParams, r) -> MomentResult:
    """E[X^r] for positive integer r: the binomial expansion of (x0 + c Y)^r
    over the standardised moments on the subfamilies, quadrature elsewhere."""
    r = _check_order(r)
    _dist(params)  # validate
    ok, condition = moment_exists(params, r)
    if not ok:
        return MomentResult.non_existent(condition)
    if classify(params) is Subfamily.GENERAL:
        return _numeric_moment(params, r)
    x0, c = params.x0, params.c
    total = 0.0
    for i in range(r + 1):
        total += (math.comb(r, i) * x0 ** i * c ** (r - i)
                  * _standard_moment(params, r - i))
    return MomentResult.closed_form(total)


def mean(params: IFParams) -> MomentResult:
    """First moment through the single-term closed forms where available."""
    _dist(params)
    ok, condition = moment_exists(params, 1)
    if not ok:
        return MomentResult.non_existent(condition)
    b, c, q, x0, p = params.b, params.c, params.q, params.x0, params.p
    sub = classify(params)
    # the IF1 and IF3 forms stay written out: their rounding differs in the
    # last bit from x0 + c E[Y]
    if sub is Subfamily.IF1:
        return MomentResult.closed_form(x0 + c * q * beta(q - 1.0 / b, 1.0 + 1.0 / b))
    if sub is Subfamily.IF3:
        m = p + 1.0
        val = x0 + c * m ** (1.0 - 1.0 / q) * (beta(1.0 - 1.0 / q, m) - 1.0 / m)
        return MomentResult.closed_form(val)
    if sub is Subfamily.IF2:
        return MomentResult.closed_form(x0 + c * _standard_moment(params, 1))
    return _numeric_moment(params, 1)


def variance(params: IFParams) -> MomentResult:
    """Variance; scale-squared closed forms on the subfamilies (the location
    x0 drops out), numeric second-moment-minus-squared-mean elsewhere."""
    _dist(params)
    ok, condition = moment_exists(params, 2)
    if not ok:
        return MomentResult.non_existent(condition)
    c, q, p = params.c, params.q, params.p
    sub = classify(params)
    if sub is Subfamily.IF1 or sub is Subfamily.IF2:
        m1 = _standard_moment(params, 1)
        m2 = _standard_moment(params, 2)
        return MomentResult.closed_form(c * c * (m2 - m1 * m1))
    if sub is Subfamily.IF3:
        # written out, like the IF3 mean, for its last-bit rounding
        m = p + 1.0
        b1 = beta(1.0 - 1.0 / q, m) - 1.0 / m
        b2 = (beta(1.0 - 2.0 / q, m) - 2.0 * beta(1.0 - 1.0 / q, m) + 1.0 / m)
        val = c * c * (m ** (1.0 - 2.0 / q) * b2 - m ** (2.0 - 2.0 / q) * b1 * b1)
        return MomentResult.closed_form(val)
    m1 = _numeric_moment(params, 1)
    m2 = _numeric_moment(params, 2)
    # heavy tails make this subtraction genuinely cancellation-prone
    val = float(np.longdouble(m2.value) - np.longdouble(m1.value) ** 2)
    err = m2.abs_error + 2.0 * abs(m1.value) * m1.abs_error
    if val <= 0.0:
        raise NumericFailure(
            f"numeric variance lost all precision for {params}: {val!r}")
    return MomentResult.numeric(val, err)
