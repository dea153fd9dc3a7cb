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
import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError
from .kernels import UniformStream, _count, _real, _shown

__all__ = [
    "IFParams",
    "Subfamily",
    "IFDistribution",
    "classify",
    "p_exponential",
    "g_big",
]

_LN2 = math.log(2.0)
_TINY = float(np.finfo(float).tiny)  # smallest normal double

# Array calls larger than this run one block at a time (`_blocked`).  A
# method body makes four to eight temporaries of its input's size, so 2^15
# doubles (256 KiB each) bound them to about 2 MiB.  On the bulk surface
# calls (2-vCPU AVX-512 Xeon) blocks of 2^13, 2^15, 2^16 and 2^17 timed
# 0.89x, 0.85x, 0.92x and 1.04x the unblocked calls.
_BLOCK = 2 ** 15


def _first_float(out: np.ndarray) -> float:
    return float(out[0])


def _exp(x: float) -> float:
    """math.exp, reading inf where the value leaves the doubles."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _ln1m_exp_near(ln_w):
    """ln(1 - e^ln_w) for -ln 2 < ln_w <= 0, a float or an array."""
    return np.log(-np.expm1(ln_w))


def _ln1m_exp_far(ln_w):
    """ln(1 - e^ln_w) for ln_w <= -ln 2, a float or an array."""
    return np.log1p(-np.exp(ln_w))


def _ln1m_exp(ln_w):
    """ln(1 - e^ln_w) for ln_w <= 0, a float or an array: the near form
    above -ln 2, the far form at or below it."""
    if isinstance(ln_w, np.ndarray):
        return np.where(ln_w > -_LN2, _ln1m_exp_near(ln_w), _ln1m_exp_far(ln_w))
    # the two forms written out: a float call makes one frame fewer
    return np.log(-np.expm1(ln_w)) if ln_w > -_LN2 else np.log1p(-np.exp(ln_w))


def _all_inside(v: np.ndarray, hi: float) -> bool:
    """Whether every element lies in the open interval (0, hi)."""
    return bool(((v > 0.0) & (v < hi)).all())


def _coerce(x):
    """The scalar/array contract of every distribution function.

    Returns x as a float array of at least one dimension, and the function
    that turns a result of that shape back into the caller's form: a Python
    float for a scalar or 0-d input, the array itself otherwise.
    """
    xs = np.asarray(x, dtype=float)
    return (xs, np.asarray) if xs.ndim else (xs.reshape(1), _first_float)


def _blocked(body):
    """The array method body(self, x), run on consecutive `_BLOCK`-element
    blocks of an input larger than one block and written into one output of
    the input's shape, so a call holds its input, its output and at most one
    block of temporaries.  Every operation of a body is elementwise, so each
    output bit is the one a single call gives.  A float or a smaller input
    goes straight to body after one size test."""
    @functools.wraps(body)
    def method(self, x):
        if isinstance(x, float) or (
                x.size if isinstance(x, np.ndarray) else np.size(x)) <= _BLOCK:
            return body(self, x)
        xs = np.asarray(x, dtype=float)
        out = np.empty(xs.shape)
        src, dst = (xs.reshape(-1) if xs.flags.c_contiguous else xs.flat), out.reshape(-1)
        for i in range(0, xs.size, _BLOCK):
            dst[i:i + _BLOCK] = body(self, src[i:i + _BLOCK])
        return out
    # a private body bound to its public name, such as pdf_offset
    method.__name__ = body.__name__.lstrip("_")
    method.__qualname__ = body.__qualname__.replace("._", ".")
    return method


@dataclass(frozen=True)
class IFParams:
    """The five parameters as Python floats. p may be math.inf; all others
    are finite.  Construction (replace() too) raises DomainError naming
    every violation of the rules below.

    p >= 0 selects the family member (0 = power law, inf = cut-off law),
    b != 0 shapes skewness (negative b gives the inverse family),
    c > 0 is scale, q > 0 tail-weight, x0 >= 0 the lower support endpoint.
    """

    p: float
    b: float
    c: float
    q: float
    x0: float

    def __post_init__(self):
        vals = (self.p, self.b, self.c, self.q, self.x0)
        p, b, c, q, x0 = reals = tuple(map(_real, vals))
        if None in reals:
            raise DomainError("; ".join(
                f"{name} must be a real number, got {_shown(v)}"
                for name, v, r in zip(_PARAM_NAMES, vals, reals) if r is None))
        out = []  # NaN fails every comparison
        if not p >= 0:
            out.append("p must be a nonnegative real or inf")
        if not 0 < abs(b) < math.inf:
            out.append("b must be nonzero and finite")
        if not 0 < c < math.inf:
            out.append("c must be positive and finite")
        if not 0 < q < math.inf:
            out.append("q must be positive and finite")
        if not 0 <= x0 < math.inf:
            out.append("x0 must be nonnegative and finite")
        if out:
            raise DomainError("; ".join(out))
        for name, v in zip(_PARAM_NAMES, reals):
            object.__setattr__(self, name, v)


# the five names in parameter order: the one list the CLI flags, the mode
# grid axes and the catalog maps read
_PARAM_NAMES = tuple(f.name for f in fields(IFParams))


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
    p = _real(p)
    if p is None or not p >= 0:  # NaN too
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
    return unwrap(math.exp(d._ln_k) + powered)


class IFDistribution:
    """Immutable distribution value over [x0, inf).

    Quantile endpoint convention (for either sign of b): quantile(0) = x0
    and quantile(1) = +inf, the mathematical limits of the inverse cdf.
    """

    def __init__(self, params: IFParams):
        self.params = params
        self.p, self.b, self.c = params.p, params.b, params.c
        self.q, self.x0 = params.q, params.x0
        self._inf_p = math.isinf(self.p)
        coef = abs(self.b) * self.q / self.c
        # the product leaves the normal doubles for extreme parameters
        self._ln_coef = (math.log(coef) if _TINY <= coef < math.inf else
                         math.log(abs(self.b)) + math.log(self.q) - math.log(self.c))
        # ln k with k = (p+1)^(-1/q); -inf at p = inf so logaddexp degrades
        # gracefully to ln G = b ln y
        self._ln_p1 = math.log1p(self.p)  # ln(p+1)
        self._ln_k = -math.inf if self._inf_p else -self._ln_p1 / self.q
        self._boundary = self._boundary_density()

    def __repr__(self):
        pa = self.params
        return (f"IFDistribution(p={pa.p!r}, b={pa.b!r}, c={pa.c!r}, "
                f"q={pa.q!r}, x0={pa.x0!r})")

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
        return _exp(math.log(b) + (p + 1.0) * math.log(q)
                    + ((p + q + 1.0) / q) * math.log1p(p) - math.log(c))

    # -- the one path from the offset to the log terms ------------------------

    # Each caller holds np.errstate(all="ignore") around these: ds/c may
    # overflow, and y^(-bq) -> inf, ln(1 - w) = -inf mean density 0.
    # Each takes an array or a float that `_float_path` admits: a float
    # stays a float, with numpy's ufuncs for the transcendental functions,
    # so both give the same bits.

    def _float_path(self, delta) -> bool:
        """Whether delta stays a float: a float whose y = delta/c is a
        normal double (in Python floats, which overflow to inf without an
        np.float64 warning).  Every other offset takes the array path,
        which holds every edge rule."""
        return isinstance(delta, float) and _TINY <= float(delta) / self.c < math.inf

    def _ln_y(self, ds):
        """ln y, y = ds/c, at offsets ds > 0 (inf allowed); ln ds - ln c
        where ds/c leaves the normal doubles while ds is finite, which a
        float offset never does."""
        y = ds / self.c
        ln_y = np.log(y)
        # |ln y| < 708 puts every y inside the normal doubles with one
        # reduction, not two; the exact test decides where it does not hold
        if (isinstance(ds, np.ndarray) and y.size and not np.abs(ln_y).max() < 708.0
                and not (y.min() >= _TINY and y.max() < math.inf)):
            far = ((y < _TINY) | (y == math.inf)) & (ds < math.inf)
            ln_y[far] = np.log(ds[far]) - math.log(self.c)
        return ln_y

    def _terms(self, ds, with_1mw: bool = True):
        """(ln y, g, ln(1 - w)) at offsets ds > 0: g is ln G at finite p and
        y^(-bq) at p = inf; ln(1 - w), w = G^(-q)/(p+1), is formed at
        finite p when with_1mw (else None), stable on both ends."""
        ln_y = self._ln_y(ds)
        if self._inf_p:
            return ln_y, np.exp(-self.b * self.q * ln_y), None
        ln_g = np.logaddexp(self._ln_k, self.b * ln_y)
        if not with_1mw:
            return ln_y, ln_g, None
        return ln_y, ln_g, _ln1m_exp(-self.q * ln_g - self._ln_p1)

    def _ln_density(self, ln_y, g, ln_1mw):
        """ln pdf from the terms; e_p is left out without ln(1 - w)."""
        if self._inf_p:
            return self._ln_coef + (-self.b * self.q - 1.0) * ln_y - g
        out = self._ln_coef + (self.b - 1.0) * ln_y - (self.q + 1.0) * g
        if ln_1mw is not None and self.p > 0:  # e_0 = 1
            out += self.p * ln_1mw
        return out

    def _ln_sf_plus(self, g, ln_1mw):
        """(p+1) ln(1 - w): ln cdf for b > 0, ln survival for b < 0."""
        return -g if self._inf_p else (self.p + 1.0) * ln_1mw

    def _offset(self, x):
        """x - x0: a float stays a float; anything else goes through a
        float array (a 0-d one gives an np.float64, also a float)."""
        return (x if isinstance(x, float) else np.asarray(x, dtype=float)) - self.x0

    def _log_pdf(self, delta, message: str):
        fast = self._float_path(delta)
        ds, unwrap = (delta, float) if fast else _coerce(delta)
        if not (fast or (ds > 0).all()):
            raise DomainError(message)
        with np.errstate(all="ignore"):
            out = self._ln_density(*self._terms(ds, self.p > 0))
        if not fast:
            out[np.isinf(ds)] = -math.inf  # inf - inf above; the density is 0
        return unwrap(out)

    # -- distribution surface --------------------------------------------------

    # The public array methods are `_blocked`; a body calls other bodies, so
    # a public call is one call of its public name.

    @_blocked
    def pdf(self, x):
        """Density, total on the reals: 0 below x0, the boundary limit at
        x0 (possibly +inf), strictly positive on (x0, inf)."""
        return self._pdf_offset(self._offset(x))

    def _pdf_offset(self, delta):
        """pdf(x0 + delta) computed straight from the offset.

        Avoids the cancellation in (x - x0) when delta is many orders of
        magnitude below x0; the workhorse for quadrature up against the
        support boundary.
        """
        fast = self._float_path(delta)
        ds, unwrap = (delta, float) if fast else _coerce(delta)
        with np.errstate(all="ignore"):
            out = np.exp(self._ln_density(*self._terms(ds, self.p > 0)))
        if not (fast or _all_inside(ds, math.inf)):
            out[(ds < 0.0) | (ds == math.inf)] = 0.0
            out[ds == 0.0] = self._boundary
            out[np.isnan(ds)] = np.nan
        return unwrap(out)

    pdf_offset = _blocked(_pdf_offset)

    @_blocked
    def log_pdf(self, x):
        """ln pdf on the open support x > x0; stays finite where pdf underflows."""
        return self._log_pdf(self._offset(x), "log_pdf requires x > x0")

    @_blocked
    def log_pdf_offset(self, delta):
        """log_pdf(x0 + delta) straight from the offset; requires delta > 0."""
        return self._log_pdf(delta, "log_pdf_offset requires delta > 0")

    def _tail_offset(self, delta, lower: bool):
        """cdf (lower) or survival at the offsets delta, each from its own
        branch."""
        fast = self._float_path(delta)
        ds, unwrap = (delta, float) if fast else _coerce(delta)
        with np.errstate(all="ignore"):
            _, g, ln_1mw = self._terms(ds)
            ln_plus = self._ln_sf_plus(g, ln_1mw)
            out = np.exp(ln_plus) if (self.b > 0) == lower else -np.expm1(ln_plus)
        if not (fast or _all_inside(ds, math.inf)):
            # the limits; at b < 0 the form above can round to NaN at inf,
            # and -expm1 gives a NaN offset a sign bit
            out[ds <= 0.0] = 0.0 if lower else 1.0
            out[ds == math.inf] = 1.0 if lower else 0.0
            out[np.isnan(ds)] = np.nan
        return unwrap(out)

    @_blocked
    def cdf(self, x):
        """Distribution function; 0 at and below x0, 1 in the limit."""
        return self._tail_offset(self._offset(x), lower=True)

    @_blocked
    def cdf_offset(self, delta):
        """cdf(x0 + delta) straight from the offset (no x0 cancellation)."""
        return self._tail_offset(delta, lower=True)

    @_blocked
    def survival(self, x):
        """1 - cdf computed from the complementary branch directly, so deep
        tail values keep relative accuracy (no 1.0 - ... subtraction)."""
        return self._tail_offset(self._offset(x), lower=False)

    @_blocked
    def sf_offset(self, delta):
        """survival(x0 + delta) straight from the offset."""
        return self._tail_offset(delta, lower=False)

    sf = survival

    @_blocked
    def hazard(self, x):
        """pdf / survival, from the explicit branch for each sign of b."""
        ds, unwrap = _coerce(self._offset(x))
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
            out[np.isinf(ds)] = 0.0  # the limit; the forms above meet inf - inf
        return unwrap(out)

    def _offset_at(self, z):
        """x - x0 at z, a float or an array, the closed-form quantile
        offset: c z^(-1/(bq)) at p = inf and c (p+1)^(-1/(bq)) (e^z - 1)^(1/b)
        at finite p.  A factor can leave the doubles while the product does
        not; only where the linear-space product is not finite and positive,
        or the z factor is below the normal doubles (few digits survive its
        scaling), is it formed from logs, so every other result keeps its
        bits."""
        b, q, c = self.b, self.q, self.c
        expo = -1.0 / (b * q) if self._inf_p else 1.0 / b
        ln_scale = 0.0 if self._inf_p else -self._ln_p1 / (b * q)
        scalar = isinstance(z, float)
        try:
            if self._inf_p:
                out = z ** expo
            elif scalar:
                out = math.expm1(z) ** expo
            else:  # in place, so no temporary is added
                out = np.expm1(z)
                np.power(out, expo, out=out)
            sub = out < _TINY
            out *= c * math.exp(ln_scale)
        except OverflowError:  # math.exp, math.expm1 or a Python float power
            out, sub = np.full(np.shape(z), math.nan), np.False_
        if scalar:
            if 0.0 < out < math.inf and not sub:
                return out
            out = np.array(out)
        elif np.isfinite(out).all() and out.all() and not sub.any():
            return out
        bad = ~np.isfinite(out) | (out == 0.0) | sub
        zb = np.asarray(z)[bad]
        with np.errstate(over="ignore", divide="ignore"):
            ln_w = np.log(zb) if self._inf_p else zb + _ln1m_exp_near(-zb)
            out[bad] = np.exp(math.log(c) + ln_scale + expo * ln_w)
        return float(out) if scalar else out

    def _quantile_plus_offset(self, ln_v: np.ndarray) -> np.ndarray:
        """Rising-branch quantile minus x0 at the level y, from ln v: v is
        the lower tail y at p > 0 and the upper tail 1 - y (w itself) at
        p = 0.  The b < 0 case passes the other tail: its quantile at y is
        this branch's at 1 - y."""
        q, p = self.q, self.p
        if self._inf_p:
            return self._offset_at(-ln_v)
        if p == 0.0:
            return self._offset_at(-ln_v / q)
        u = -np.expm1(ln_v / (p + 1.0))          # 1 - y^(1/(p+1))
        low = u == 1.0                           # deep in the lower tail
        z = np.log(u, out=u)                     # in place: no 1e6-element temporary
        z[low] = _ln1m_exp_far(ln_v[low] / (p + 1.0))
        z /= -q
        return self._offset_at(z)

    def _quantile_offset(self, y):
        """quantile(y) - x0 without forming x, so offsets far below the
        floating-point resolution of x0 survive."""
        ys, unwrap = _coerce(y)
        if np.isnan(ys).any() or (ys < 0).any() or (ys > 1).any():
            raise DomainError("quantile requires y in [0, 1]")
        with np.errstate(all="ignore"):
            # the one logarithm the branch reads: each tail's own keeps full
            # precision for probabilities next to its endpoint
            lower = (self.b > 0) != (self.p == 0.0)
            out = self._quantile_plus_offset(np.log(ys) if lower else np.log1p(-ys))
        if not _all_inside(ys, 1.0):
            out[ys == 0.0] = 0.0
            out[ys == 1.0] = math.inf
        return unwrap(out)

    def _quantile(self, y):
        """Inverse cdf on [0, 1]; strictly increasing on (0, 1), with
        quantile(0) = x0 and quantile(1) = +inf."""
        return self.x0 + self._quantile_offset(y)

    quantile_offset = _blocked(_quantile_offset)
    quantile = _blocked(_quantile)

    def _level_offset(self, t: float) -> float:
        """x - x0 at the level t in (0, 1) of w = G^(-q)/(p+1), finite p:
        c (p+1)^(-1/(bq)) (t^(-1/q) - 1)^(1/b)."""
        return self._offset_at(-math.log(t) / self.q)

    def median(self) -> float:
        """Closed-form median; identical for either sign of b.  At finite p
        it is the level t = 1 - 2^(-1/(p+1)) of `_level_offset`."""
        return self.x0 + (self._offset_at(_LN2) if self._inf_p else
                          self._level_offset(-math.expm1(-_LN2 / (self.p + 1.0))))

    def _draw_blocks(self, n: int, seed: int):
        """The n draws of `sample(n, seed)` as consecutive arrays of at most
        `_BLOCK` draws, in stream order: the one draw loop of the library.
        The seed and n are checked at the call; each block is drawn when it
        is read, so a reader holds one block of draws at a time."""
        stream, count = UniformStream(seed), _count(n)
        floor = np.nextafter(self.x0, math.inf)
        return (np.maximum(self._quantile(stream.draws(min(_BLOCK, count - i))), floor)
                for i in range(0, count, _BLOCK))

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n inverse-transform draws, deterministic per seed, in stream order.

        Uniforms are strictly inside (0, 1), so every draw is greater than
        x0, and finite unless its quantile lies beyond the largest double
        (possible when |b| q is tiny).  Draws whose offset from x0 falls
        below the float spacing at x0 (a real boundary-layer event for b < 0
        with small |b| q) are represented by the smallest double above x0.

        The output is allocated before the first draw (a count beyond memory
        raises MemoryError at once) and filled from `_draw_blocks`, one
        `_BLOCK` of draws at a time; draw i depends only on (seed, i), so
        the blocks change no bit.  `ifdist sample` writes the same blocks
        to its file without this output.
        """
        blocks = self._draw_blocks(n, seed)
        out = np.empty(_count(n))
        for i, block in zip(range(0, out.size, _BLOCK), blocks):
            out[i:i + _BLOCK] = block
        return out
