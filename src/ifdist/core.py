"""Parameter model, subfamily classification and the distribution surface.

The family has density

    f(x) = |b| q / c * y^(b-1) * G(x)^(-q-1) * e_p(G(x)^-q),   y = (x-x0)/c

on [x0, oo), where G(x) = (p+1)^(-1/q) + y^b for finite p (just y^b at
p = inf) and e_p is the deformed exponential (1 - t/(p+1))^p bridging the
constant 1 at p = 0 and exp(-t) at p = inf.  p = 0 gives pure power laws,
p = inf power laws with exponential cut-off, and finite p > 0 interpolates.

All distribution functions accept scalars or arrays and return matching
shapes.  Everything is evaluated through log1p/expm1-style stable forms so
that large finite p, deep tails and points near x0 keep full precision.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kernels import UniformStream

__all__ = [
    "IFParams",
    "Subfamily",
    "IFDistribution",
    "new_distribution",
    "classify",
    "p_exponential",
    "g_big",
]

_LN2 = math.log(2.0)
_TINY = np.finfo(float).tiny  # smallest normal double


def _is_real(v) -> bool:
    # bools are ints to Python; testing float and int first spares the slow
    # ABC check for the common cases
    return not isinstance(v, bool) and (isinstance(v, (float, int))
                                        or isinstance(v, numbers.Real))


def _first_float(out: np.ndarray) -> float:
    return float(out[0])


def _power_offset(c: float, ln_scale: float, z, expo: float,
                  cutoff: bool = False):
    """c e^ln_scale w^expo, the closed-form quantile offset, with w = z at
    p = inf (cutoff) and w = e^z - 1 otherwise, for a float or an array z.
    A factor can leave the doubles while the product does not; only where
    the linear-space product is not finite and positive is it formed from
    logs, so every other result keeps its bits."""
    scalar = isinstance(z, float)
    try:
        if cutoff:
            out = z ** expo
        elif scalar:
            out = math.expm1(z) ** expo
        else:  # in place, so no 1e6-element temporary is added
            out = np.expm1(z)
            np.power(out, expo, out=out)
        out *= c * math.exp(ln_scale)
    except OverflowError:  # math.exp, math.expm1 or a Python float power
        out = np.full(np.shape(z), math.nan)
    if scalar:
        if 0.0 < out < math.inf:
            return out
        out = np.array(out)
    elif np.isfinite(out).all() and out.all():
        return out
    bad = ~np.isfinite(out) | (out == 0.0)
    zb = np.asarray(z)[bad]
    with np.errstate(over="ignore", divide="ignore"):
        ln_w = np.log(zb) if cutoff else zb + np.log(-np.expm1(-zb))
        out[bad] = np.exp(math.log(c) + ln_scale + expo * ln_w)
    return float(out) if scalar else out


def _coerce(x):
    """The scalar/array contract of every distribution function.

    Returns x as a float array of at least one dimension, and the function
    that turns a result of that shape back into the caller's form: a Python
    float for a scalar or 0-d input, the array itself otherwise.
    """
    xs = np.asarray(x, dtype=float)
    return np.atleast_1d(xs), (_first_float if xs.ndim == 0 else np.asarray)


@dataclass(frozen=True)
class IFParams:
    """The five parameters. p may be math.inf; all others are finite reals.

    p >= 0 selects the family member (0 = power law, inf = cut-off law),
    b != 0 shapes skewness (negative b gives the inverse family),
    c > 0 is scale, q > 0 tail-weight, x0 >= 0 the lower support endpoint.
    """

    p: float
    b: float
    c: float
    q: float
    x0: float

    def violations(self) -> list[str]:
        vals = (self.p, self.b, self.c, self.q, self.x0)
        if not all(map(_is_real, vals)):
            return [f"{name} must be a real number, got {v!r}"
                    for name, v in zip(("p", "b", "c", "q", "x0"), vals)
                    if not _is_real(v)]
        out = []
        if math.isnan(self.p) or self.p < 0:
            out.append("p must be a nonnegative real or inf")
        if math.isnan(self.b) or math.isinf(self.b) or self.b == 0:
            out.append("b must be nonzero and finite")
        if math.isnan(self.c) or math.isinf(self.c) or not self.c > 0:
            out.append("c must be positive and finite")
        if math.isnan(self.q) or math.isinf(self.q) or not self.q > 0:
            out.append("q must be positive and finite")
        if math.isnan(self.x0) or math.isinf(self.x0) or self.x0 < 0:
            out.append("x0 must be nonnegative and finite")
        return out


class Subfamily(enum.Enum):
    IF1 = "IF1"          # p = 0
    IF2 = "IF2"          # p = inf
    IF3 = "IF3"          # 0 < p < inf and b = 1
    GENERAL = "General"


def classify(params: IFParams) -> Subfamily:
    """Subfamily tag; thresholds (p = 0, p = inf, b = 1) compare exactly."""
    if params.p == 0.0:
        return Subfamily.IF1
    if math.isinf(params.p):
        return Subfamily.IF2
    if params.b == 1.0:
        return Subfamily.IF3
    return Subfamily.GENERAL


def p_exponential(p: float, x):
    """Deformed exponential e_p(x) = (1 - x/(p+1))^p on [0, p+1].

    e_0 is identically 1 on [0, 1]; e_inf(x) = exp(-x) on [0, inf).
    """
    if math.isnan(p) or p < 0:
        raise DomainError("p must be a nonnegative real or inf")
    xs, unwrap = _coerce(x)
    if np.isnan(xs).any() or (xs < 0).any():
        raise DomainError("p_exponential requires x >= 0")
    if math.isinf(p):
        out = np.exp(-xs)
    else:
        if (xs > p + 1.0).any():
            raise DomainError(f"p_exponential with p={p} requires x <= p+1")
        if p == 0.0:
            out = np.ones_like(xs)
        else:
            with np.errstate(divide="ignore"):
                out = np.exp(p * np.log1p(-xs / (p + 1.0)))
    return unwrap(out)


def g_big(params: IFParams, x):
    """G(x) = (p+1)^(-1/q) + ((x-x0)/c)^b, with the (p+1) term absent at
    p = inf.  For b < 0 the value at x = x0 is +inf."""
    d = IFDistribution(params)
    xs, unwrap = _coerce(x)
    if (xs < params.x0).any():
        raise DomainError("g_big requires x >= x0")
    ds = xs - params.x0
    with np.errstate(all="ignore"):
        y = ds / params.c
        powered = np.power(y, params.b)
        # y^b as exp(b ln y) where y leaves the normal doubles and ds does not
        far = ((y < _TINY) | (y == math.inf)) & (ds > 0) & (ds < math.inf)
        powered[far] = np.exp(params.b * d._ln_y(ds[far]))
    k = 0.0 if math.isinf(params.p) else math.exp(d._ln_k)
    return unwrap(k + powered)


def new_distribution(params: IFParams) -> "IFDistribution":
    """Validate params and return an immutable distribution value."""
    return IFDistribution(params)


class IFDistribution:
    """Immutable distribution value over [x0, inf).

    Quantile endpoint convention (for either sign of b): quantile(0) = x0
    and quantile(1) = +inf, the mathematical limits of the inverse cdf.
    """

    def __init__(self, params: IFParams):
        problems = params.violations()
        if problems:
            raise DomainError("; ".join(problems))
        self.params = params
        self.p = float(params.p)
        self.b = float(params.b)
        self.c = float(params.c)
        self.q = float(params.q)
        self.x0 = float(params.x0)
        self._inf_p = math.isinf(self.p)
        coef = abs(self.b) * self.q / self.c
        # the product leaves the normal doubles for extreme parameters
        self._ln_coef = (math.log(coef) if _TINY <= coef < math.inf else
                         math.log(abs(self.b)) + math.log(self.q) - math.log(self.c))
        # ln k with k = (p+1)^(-1/q); -inf at p = inf so logaddexp degrades
        # gracefully to ln G = b ln y
        self._ln_k = -math.inf if self._inf_p else -math.log1p(self.p) / self.q
        self._boundary = self._boundary_density()

    def __repr__(self):
        pa = self.params
        return (f"IFDistribution(p={pa.p!r}, b={pa.b!r}, c={pa.c!r}, "
                f"q={pa.q!r}, x0={pa.x0!r})")

    @property
    def subfamily(self) -> Subfamily:
        return classify(self.params)

    # -- boundary behavior ---------------------------------------------------

    def _boundary_exponent(self) -> float:
        """The local exponent e of the density at x -> x0+, f ~ y^e: e > 0
        means 0, e < 0 divergence, e = 0 a finite positive limit.

        For b > 0 the density grows like y^(b(p+1)-1) near the boundary
        (exponent +inf at p = inf), for b < 0 like y^(-bq-1) independent of p.
        """
        if self.b > 0:
            return self.b * (self.p + 1.0) - 1.0
        return -self.b * self.q - 1.0

    def _boundary_density(self) -> float:
        """Limit of the density at x -> x0+ (0, a finite constant, or +inf).
        A finite limit beyond the doubles reads inf, and one below them 0."""
        e = self._boundary_exponent()
        if e != 0:
            return 0.0 if e > 0 else math.inf
        b, q, c, p = self.b, self.q, self.c, self.p
        if b < 0:
            return 1.0 / c
        ln_val = (math.log(b) + (p + 1.0) * math.log(q)
                  + ((p + q + 1.0) / q) * math.log1p(p) - math.log(c))
        try:
            return math.exp(ln_val)
        except OverflowError:
            return math.inf

    # -- the one path from the offset to the log terms ------------------------

    # Each caller holds np.errstate(all="ignore") around these: ds/c may
    # overflow, and y^(-bq) -> inf, ln(1 - w) = -inf mean density 0.

    def _ln_y(self, ds: np.ndarray) -> np.ndarray:
        """ln y, y = ds/c, at offsets ds > 0 (inf allowed); ln ds - ln c
        where ds/c leaves the normal doubles while ds is finite."""
        y = ds / self.c
        ln_y = np.log(y)
        if y.size and not (y.min() >= _TINY and y.max() < math.inf):
            far = ((y < _TINY) | (y == math.inf)) & (ds < math.inf)
            ln_y[far] = np.log(ds[far]) - math.log(self.c)
        return ln_y

    def _terms(self, ds: np.ndarray, with_1mw: bool = True):
        """(ln y, g, ln(1 - w)) at offsets ds > 0: g is ln G at finite p and
        y^(-bq) at p = inf; ln(1 - w), w = G^(-q)/(p+1), is formed at
        finite p when with_1mw (else None), stable on both ends."""
        ln_y = self._ln_y(ds)
        if self._inf_p:
            return ln_y, np.exp(-self.b * self.q * ln_y), None
        ln_g = np.logaddexp(self._ln_k, self.b * ln_y)
        if not with_1mw:
            return ln_y, ln_g, None
        ln_w = -self.q * ln_g - math.log1p(self.p)
        big = np.log(-np.expm1(ln_w))
        small = np.log1p(-np.exp(ln_w))
        return ln_y, ln_g, np.where(ln_w > -_LN2, big, small)

    def _ln_density(self, ln_y, g, ln_1mw) -> np.ndarray:
        """ln pdf from the terms; e_p is left out without ln(1 - w)."""
        if self._inf_p:
            return self._ln_coef + (-self.b * self.q - 1.0) * ln_y - g
        out = self._ln_coef + (self.b - 1.0) * ln_y - (self.q + 1.0) * g
        if ln_1mw is not None and self.p > 0:  # e_0 = 1
            out += self.p * ln_1mw
        return out

    def _ln_sf_plus(self, g, ln_1mw) -> np.ndarray:
        """(p+1) ln(1 - w): ln cdf for b > 0, ln survival for b < 0."""
        return -g if self._inf_p else (self.p + 1.0) * ln_1mw

    def _log_pdf(self, ds: np.ndarray, message: str) -> np.ndarray:
        if not (ds > 0).all():
            raise DomainError(message)
        with np.errstate(all="ignore"):
            out = self._ln_density(*self._terms(ds, self.p > 0))
        out[np.isinf(ds)] = -math.inf  # inf - inf above; the density is 0
        return out

    # -- distribution surface --------------------------------------------------

    def pdf(self, x):
        """Density, total on the reals: 0 below x0, the boundary limit at
        x0 (possibly +inf), strictly positive on (x0, inf)."""
        return self.pdf_offset(np.asarray(x, dtype=float) - self.x0)

    def pdf_offset(self, delta):
        """pdf(x0 + delta) computed straight from the offset.

        Avoids the cancellation in (x - x0) when delta is many orders of
        magnitude below x0; the workhorse for quadrature up against the
        support boundary.
        """
        ds, unwrap = _coerce(delta)
        out = np.zeros(ds.shape)
        interior = (ds > 0) & (ds < math.inf)
        if interior.any():
            with np.errstate(all="ignore"):
                terms = self._terms(ds[interior], self.p > 0)
                out[interior] = np.exp(self._ln_density(*terms))
        out[ds == 0.0] = self._boundary
        out[np.isnan(ds)] = np.nan
        return unwrap(out)

    def log_pdf(self, x):
        """ln pdf on the open support x > x0; stays finite where pdf underflows."""
        xs, unwrap = _coerce(x)
        return unwrap(self._log_pdf(xs - self.x0, "log_pdf requires x > x0"))

    def log_pdf_offset(self, delta):
        """log_pdf(x0 + delta) straight from the offset; requires delta > 0."""
        ds, unwrap = _coerce(delta)
        return unwrap(self._log_pdf(ds, "log_pdf_offset requires delta > 0"))

    def _tail_offset(self, delta, lower: bool):
        """cdf (lower) or survival at the offsets delta, each from its own
        branch."""
        ds, unwrap = _coerce(delta)
        out = np.zeros(ds.shape) if lower else np.ones(ds.shape)
        pos = ds > 0
        if pos.any():
            with np.errstate(all="ignore"):
                _, g, ln_1mw = self._terms(ds[pos])
            ln_plus = self._ln_sf_plus(g, ln_1mw)
            if (self.b > 0) == lower:
                out[pos] = np.exp(ln_plus)
            else:
                out[pos] = -np.expm1(ln_plus)
        # the limits; at b < 0 the form above can round to NaN there
        out[ds == math.inf] = 1.0 if lower else 0.0
        out[np.isnan(ds)] = np.nan
        return unwrap(out)

    def cdf(self, x):
        """Distribution function; 0 at and below x0, 1 in the limit."""
        return self.cdf_offset(np.asarray(x, dtype=float) - self.x0)

    def cdf_offset(self, delta):
        """cdf(x0 + delta) straight from the offset (no x0 cancellation)."""
        return self._tail_offset(delta, lower=True)

    def survival(self, x):
        """1 - cdf computed from the complementary branch directly, so deep
        tail values keep relative accuracy (no 1.0 - ... subtraction)."""
        return self.sf_offset(np.asarray(x, dtype=float) - self.x0)

    def sf_offset(self, delta):
        """survival(x0 + delta) straight from the offset."""
        return self._tail_offset(delta, lower=False)

    sf = survival

    def hazard(self, x):
        """pdf / survival, from the explicit branch for each sign of b."""
        xs, unwrap = _coerce(x)
        ds = xs - self.x0
        if not (ds > 0).all():
            raise DomainError("hazard requires x > x0")
        with np.errstate(all="ignore"):
            if self.b > 0:
                ln_y, g, ln_1mw = self._terms(ds)
                ln_num = self._ln_density(ln_y, g, ln_1mw)
                num = np.exp(ln_num)
                den = -np.expm1(self._ln_sf_plus(g, ln_1mw))
                out = num / den
                # far out, pdf or survival leaves the normal doubles; the
                # survival is G^(-q) = (p+1) w there, to double precision
                far = np.nonzero((num < _TINY) | (den < _TINY))
                if far[0].size:
                    den_far = den[far]
                    tiny = den_far < _TINY
                    ln_den = np.log(den_far)
                    ln_g = self.b * ln_y[far] if self._inf_p else g[far]
                    ln_den[tiny] = -self.q * ln_g[tiny]
                    out[far] = np.exp(ln_num[far] - ln_den)
            elif self._inf_p:  # e ln_y is nan at x = inf when e = 0
                e, ln_y = -self.b * self.q - 1.0, self._ln_y(ds)
                out = np.exp(self._ln_coef
                             + (e * ln_y if e != 0.0 else np.zeros_like(ln_y)))
            else:
                ln_y, ln_g, ln_1mw = self._terms(ds)
                out = np.exp(self._ln_density(ln_y, ln_g, None) - ln_1mw)
        if not (self._inf_p and self.b < 0):
            out[np.isinf(xs)] = 0.0  # the limit; the forms above meet inf - inf
        return unwrap(out)

    def _quantile_plus_offset(self, ln_y: np.ndarray,
                              ln_1my: np.ndarray) -> np.ndarray:
        """Rising-branch quantile minus x0, evaluated from ln(y) and ln(1-y).

        Taking both logs keeps full precision for probabilities next to
        either endpoint; the b < 0 case reuses this with the two swapped.
        """
        b, q, c, p = self.b, self.q, self.c, self.p
        if self._inf_p:
            return _power_offset(c, 0.0, -ln_y, -1.0 / (b * q), cutoff=True)
        if p == 0.0:
            return _power_offset(c, 0.0, -ln_1my / q, 1.0 / b)
        u = -np.expm1(ln_y / (p + 1.0))          # 1 - y^(1/(p+1))
        low = u == 1.0                           # deep in the lower tail
        z = np.log(u, out=u)                     # in place: no 1e6-element temporary
        z[low] = np.log1p(-np.exp(ln_y[low] / (p + 1.0)))
        z /= -q
        return _power_offset(c, -math.log1p(p) / (b * q), z, 1.0 / b)

    def quantile_offset(self, y):
        """quantile(y) - x0 without forming x, so offsets far below the
        floating-point resolution of x0 survive."""
        ys, unwrap = _coerce(y)
        if np.isnan(ys).any() or (ys < 0).any() or (ys > 1).any():
            raise DomainError("quantile requires y in [0, 1]")
        out = np.empty(ys.shape)
        out[ys == 0.0] = 0.0
        out[ys == 1.0] = math.inf
        mid = (ys > 0.0) & (ys < 1.0)
        if mid.any():
            ym = ys[mid]
            ln_y = np.log(ym)
            ln_1my = np.log1p(-ym)
            with np.errstate(over="ignore", invalid="ignore"):
                if self.b > 0:
                    out[mid] = self._quantile_plus_offset(ln_y, ln_1my)
                else:
                    out[mid] = self._quantile_plus_offset(ln_1my, ln_y)
        return unwrap(out)

    def quantile(self, y):
        """Inverse cdf on [0, 1]; strictly increasing on (0, 1), with
        quantile(0) = x0 and quantile(1) = +inf."""
        ys, unwrap = _coerce(y)
        return unwrap(self.x0 + self.quantile_offset(ys))

    def median(self) -> float:
        """Closed-form median; identical for either sign of b."""
        b, q, c, p, x0 = self.b, self.q, self.c, self.p, self.x0
        if self._inf_p:
            return x0 + _power_offset(c, 0.0, _LN2, -1.0 / (b * q), cutoff=True)
        if p == 0.0:
            return x0 + _power_offset(c, 0.0, _LN2 / q, 1.0 / b)
        u = -math.expm1(-_LN2 / (p + 1.0))       # 1 - 2^(-1/(p+1))
        ln_scale = -math.log1p(p) / (b * q)
        return x0 + _power_offset(c, ln_scale, -math.log(u) / q, 1.0 / b)

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n inverse-transform draws, deterministic per seed, in stream order.

        Uniforms are strictly inside (0, 1), so every draw is greater than
        x0, and finite unless its quantile lies beyond the largest double
        (possible when |b| q is tiny).  Draws whose offset from x0 falls
        below the float spacing at x0 (a real boundary-layer event for b < 0
        with small |b| q) are represented by the smallest double above x0.
        """
        if n < 0:
            raise DomainError(f"n must be nonnegative, got {n!r}")
        us = UniformStream(seed).draws(int(n))
        xs = np.asarray(self.quantile(us), dtype=float)
        return np.maximum(xs, np.nextafter(self.x0, math.inf))
