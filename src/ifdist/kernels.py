"""Shared numeric substrate: special functions, quadrature, root finding,
scalar maximization and a seedable uniform generator.

Everything here is deliberately self-contained (numpy + stdlib only) so the
same routines can serve both as production kernels and as independent
oracles in the test suite.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from heapq import heappush, heappop
from typing import Callable, Sequence

import numpy as np

from .errors import BracketError, DomainError, NumericFailure

__all__ = [
    "QuadratureResult",
    "Bracket",
    "ln_gamma",
    "beta",
    "integrate",
    "find_root",
    "maximize_scalar",
    "UniformStream",
]

_EPS = float(np.finfo(float).eps)  # the spacing of the doubles at 1


# ---------------------------------------------------------------------------
# the number rules: every number a caller passes is read by one of these
# ---------------------------------------------------------------------------

def _real(v, refused=None) -> float | None:
    """v as a Python float, or `refused` for a bool, a value that is not a
    numbers.Real and an int beyond the doubles; inf and NaN pass.  Before a
    range rule, refused=math.nan: every such rule refuses NaN."""
    # bools are ints to Python; testing float and int first spares the slow
    # ABC check for the common cases
    if isinstance(v, bool) or not isinstance(v, (float, int, numbers.Real)):
        return refused
    try:
        return float(v)
    except OverflowError:
        return refused


def _shown(v) -> str:
    """repr(v) for a `got ...` message, or the size of an int too long for it."""
    try:
        return repr(v)
    except ValueError:
        return f"an int of {v.bit_length()} bits"


# int(v) for an integral v that is not a bool, never rounded through a float,
# or for a `_real` v with no fractional part, else DomainError; int is tested
# first, as in `_real`, to spare the ABC check (1.4 -> 0.25 us per call on a
# 2-core Xeon VM)
def _whole(v, what: str) -> int:
    if not ((isinstance(v, (int, numbers.Integral)) and not isinstance(v, bool))
            or _real(v, math.nan).is_integer()):
        raise DomainError(f"{what} must be a whole number, got {_shown(v)}")
    return int(v)


def _count(n) -> int:
    """n as a nonnegative whole number (`_whole`): a count of draws."""
    if (count := _whole(n, "n")) < 0:
        raise DomainError(f"n must be nonnegative, got {_shown(n)}")
    return count


def _tol(tol) -> float:
    """The one tolerance rule of the kernels: a positive real number."""
    if not (t := _real(tol, math.nan)) > 0.0:
        raise DomainError(f"tol must be positive, got {_shown(tol)}")
    return t


# ---------------------------------------------------------------------------
# log-gamma and beta
# ---------------------------------------------------------------------------

_LN_SQRT_2PI = np.longdouble("0.91893853320467274178032973640561763986")

# Stirling series coefficients c_k of sum_k c_k / x^(2k-1):
# 1/12, -1/360, 1/1260, -1/1680, 1/1188, -691/360360, 1/156, -3617/122400
_STIRLING = tuple(
    np.longdouble(s)
    for s in (
        "0.083333333333333333333333333333333333333",
        "-0.0027777777777777777777777777777777777778",
        "0.00079365079365079365079365079365079365079",
        "-0.00059523809523809523809523809523809523810",
        "0.00084175084175084175084175084175084175084",
        "-0.0019175269175269175269175269175269175269",
        "0.0064102564102564102564102564102564102564",
        "-0.029550653594771241830065359477124183007",
    )
)


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Evaluated as a Stirling series in 80-bit extended precision, shifting
    the argument above 15 first; the result is accurate to well below one
    double-precision ulp of ln(gamma(x)) across [1e-6, 170].
    """
    xf = _real(x, math.nan)
    if not 0.0 < xf < math.inf:
        raise DomainError(f"ln_gamma requires finite x > 0, got {_shown(x)}")
    z = np.longdouble(xf)
    shift = np.longdouble(0.0)
    while z < 15.0:
        shift += np.log(z)
        z += 1.0
    r = 1.0 / (z * z)
    s = _STIRLING[-1]
    for coef in _STIRLING[-2::-1]:
        s = s * r + coef
    out = (z - 0.5) * np.log(z) - z + _LN_SQRT_2PI + s / z - shift
    return float(out)


def beta(a: float, b: float) -> float:
    """Beta function B(a, b) = exp(ln_gamma(a) + ln_gamma(b) - ln_gamma(a+b)),
    and B(1, y) = B(y, 1) = 1/y exactly."""
    x, y = _real(a, math.nan), _real(b, math.nan)
    if not (0.0 < x < math.inf and 0.0 < y < math.inf):
        raise DomainError(f"beta requires positive arguments, "
                          f"got ({_shown(a)}, {_shown(b)})")
    if x == 1.0 or y == 1.0:
        return 1.0 / (x * y)
    return math.exp(ln_gamma(x) + ln_gamma(y) - ln_gamma(x + y))


# ---------------------------------------------------------------------------
# adaptive quadrature (15-point Gauss-Kronrod, global strategy)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    converged: bool
    evaluations: int


# The one interval rule of `find_root` and `maximize_scalar`: lo < hi with a
# finite width hi - lo, the ends read by `_real` and kept as floats.  The one
# comparison refuses NaN and infinite ends, and ends so far apart that their
# difference overflows, where the golden-section points would leave the
# interval.
@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = _real(self.lo, math.nan), _real(self.hi, math.nan)
        if not (0.0 < hi - lo < math.inf):
            raise DomainError(f"bracket requires lo < hi with a finite width "
                              f"hi - lo, got [{_shown(self.lo)}, {_shown(self.hi)}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)


# Kronrod-15 abscissae on [-1, 1] (positive half; nodes are symmetric) with
# Kronrod weights, plus the embedded 7-point Gauss weights.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 ascending nodes
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])              # matching Kronrod weights
_WGFULL = np.zeros(15)
_WGFULL[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])    # Gauss weights on odd slots
_W = np.stack([_WK, _WGFULL], axis=1)                     # (15 x 2): both rules at once
_X_OUTER = float(_XGK[0])                                 # the outermost node, +-

# Upper limit of the log substitution u: x - lo = expm1(u) stays below the
# largest finite double.
_U_MAX = 709.0


def _sums(ys: np.ndarray) -> np.ndarray:
    """The Kronrod and Gauss sums of each row of ys, from one product with
    the (15 x 2) weight matrix.  A one-row product would go through BLAS's
    matrix-vector kernel, which rounds differently, so one row is doubled."""
    return ((ys if len(ys) > 1 else np.vstack([ys, ys])) @ _W)[:len(ys)]


def _rule(f: Callable[[np.ndarray], np.ndarray], lo: Sequence[float],
          hi: Sequence[float]) -> list:
    """The 15-point Gauss-Kronrod rule on each interval [lo[i], hi[i]], with
    f called once on all their nodes: a (value, error_estimate) row per
    interval, and None for an interval where f returned NaN."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    xs = (0.5 * lo + 0.5 * hi)[:, None] + half[:, None] * _NODES
    ys = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    finite = np.isfinite(ys).all(axis=1)
    # a non-finite value stays out of the products: inf times a zero Gauss
    # weight is NaN
    safe = ys if finite.all() else np.where(finite[:, None], ys, 0.0)
    sums = _sums(safe)
    vk = half * sums[:, 0]
    resasc = half * _sums(np.abs(safe - (vk / (hi - lo))[:, None]))[:, 0]
    diff = np.abs(vk - half * sums[:, 1])
    out = []
    for i, (ok, k, d, r) in enumerate(zip(finite.tolist(), vk.tolist(),
                                          diff.tolist(), resasc.tolist())):
        if ok:
            # QUADPACK-style error heuristic keyed to the integrand's
            # variation, in Python floats: np.power rounds differently
            out.append((k, r * min(1.0, (200.0 * d / r) ** 1.5) if r != 0.0 else d))
        elif np.isnan(ys[i]).any():
            out.append(None)
        else:
            # an infinite value: the Kronrod sum is +-inf (NaN where both
            # signs meet) and no finite error estimate holds
            with np.errstate(invalid="ignore"):
                out.append((float(half[i]) * float(_WK @ ys[i]), math.inf))
    return out


def _used(row, a: float, b: float) -> tuple[float, float]:
    if row is None:
        raise NumericFailure(f"integrand returned NaN on [{a}, {b}]")
    return row


# The midpoint of [a, b] where the split rule that `_adapt` states allows
# the split, else None: one rule for its stop test and `_split`'s look-ahead.
# The nodes `_rule` forms rise with the abscissae, so the outermost two of
# each half decide whether all lie strictly inside it.  Every midpoint is
# 0.5 a + 0.5 b, as `_rule` forms its centres: a + b overflows near the top
# of the doubles.
def _split_point(a: float, b: float) -> float | None:
    m = 0.5 * a + 0.5 * b
    ca, ra = 0.5 * a + 0.5 * m, 0.5 * (m - a) * _X_OUTER
    cb, rb = 0.5 * m + 0.5 * b, 0.5 * (b - m) * _X_OUTER
    return m if a < ca - ra and ca + ra < m < cb - rb and cb + rb < b else None


# Look-ahead past the popped interval's own subtree: the call that splits it
# also splits up to _WIDE_MORE intervals from the first _WIDE_SLOTS slots of
# the heap array that have no rows yet, the top of the heap where the next
# pops mostly fall.  On the seed-1 tight_quadrature pass 16 and 3 make 28,741
# calls of f; 8 slots made 29,392 and 1 more interval 31,133, while 64 slots
# or 7 more intervals saved at most 1.3% of the calls for 0.6-1.7% more nodes
# (6-12% more on the analysis pass) and were no faster, timed in one process
# on a 2-core Xeon VM.
_WIDE_SLOTS = 16
_WIDE_MORE = 3


def _split(f, triples: Sequence[tuple[float, float, float]]) -> dict:
    """The rule on [a, m] and [m, b] of each (a, m, b) in triples and, in the
    same call of f, on the two halves of each of these that `_split_point`
    lets split: a row per interval, keyed by its (lo, hi), the halves first
    and then their halves, in order."""
    lo, hi = [], []
    for a, m, b in triples:
        lo += a, m
        hi += m, b
    for c, d in list(zip(lo, hi)):
        mid = _split_point(c, d)
        if mid is not None:
            lo += c, mid
            hi += mid, d
    return dict(zip(zip(lo, hi), _rule(f, lo, hi)))


def _adapt(f, breakpoints: Sequence[float], tol: float, limit: int):
    """Global adaptive refinement over an initial mesh: an interval is split
    only while every Kronrod node of both halves, formed as `_rule` forms
    them, lies strictly inside its half.  A seed interval narrower than its
    own nodes is still evaluated once, at nodes that round onto its ends.

    Splitting an interval whose halves are not yet known makes the one call
    of f that `integrate` states.  Rows evaluated before their interval is
    pushed wait in one dict keyed by that interval, so those splits need no
    call.  The look-ahead changes no step: each row is the row `_rule` gives
    alone."""
    heap = []  # (-err, tiebreak, a, b, value)
    known = {}  # (lo, hi) -> the row of an interval evaluated before its push
    segments = []  # unsplittable leftovers: (value, err)
    stuck_err = 0.0
    live_err = 0.0
    los, his = breakpoints[:-1], breakpoints[1:]
    for counter, (a, b, row) in enumerate(zip(los, his, _rule(f, los, his)), 1):
        v, e = _used(row, a, b)
        live_err += e
        heappush(heap, (-e, counter, a, b, v))
    evals = 15 * counter

    while (heap and stuck_err + live_err > tol and stuck_err <= tol
           and evals < limit * 15):
        neg_e, _, a, b, v = heappop(heap)
        live_err += neg_e  # removes the popped error
        m = _split_point(a, b)
        if m is None or neg_e == -math.inf:
            # halves whose nodes would round onto their ends, or an infinite
            # integrand value that no split can settle
            segments.append((v, -neg_e))
            stuck_err += -neg_e
            continue
        if (a, m) not in known:
            todo = [(a, m, b)]
            for neg, _, c, d, _ in heap[:_WIDE_SLOTS]:
                # the lookup first, as most slots have known halves; the
                # split rule gives this midpoint where it allows a split
                mid = 0.5 * c + 0.5 * d
                if (neg != -math.inf and (c, mid) not in known
                        and _split_point(c, d) is not None):
                    todo.append((c, mid, d))
                    if len(todo) > _WIDE_MORE:
                        break
            known.update(_split(f, todo))
        row1, row2 = known.pop((a, m)), known.pop((m, b))
        (v1, e1), (v2, e2) = _used(row1, a, m), _used(row2, m, b)
        evals += 30
        counter += 1
        heappush(heap, (-e1, counter, a, m, v1))
        counter += 1
        heappush(heap, (-e2, counter, m, b, v2))
        live_err += e1 + e2

    values = [v for v, _ in segments] + [h[4] for h in heap]
    errors = [e for _, e in segments] + [-h[0] for h in heap]
    return math.fsum(values), math.fsum(errors), evals


def _seed_mesh(a: float, b: float) -> list[float]:
    # geometric clustering at both ends resolves endpoint singularities early
    rel = [0.0, 1e-9, 1e-6, 1e-3, 0.02, 0.1, 0.3, 0.5,
           0.7, 0.9, 0.98, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9, 1.0]
    pts = [a + (b - a) * s for s in rel]
    pts[0], pts[-1] = a, b
    return sorted(set(pts))


def integrate(f, lo: float, hi: float, tol: float = 1e-8,
              limit: int = 20000) -> QuadratureResult:
    """Adaptive quadrature of f over [lo, hi]: lo finite, hi may be math.inf.

    Semi-infinite ranges are mapped with x = lo + expm1(u) so that power-law
    tails become exponentially decaying integrands in u.  An interval is
    split only while every Kronrod node of both halves lies strictly inside
    its half, so f never sees the end of an interval being refined and
    integrable singularities at lo are fine; a seed interval narrower than
    its own nodes, such as [1, nextafter(1, 2)], is still evaluated once.
    When the refinement budget runs out the result is flagged converged=False
    rather than silently trusted.

    `limit` ends the refinement once the result rests on that many 15-node
    rows, the seed mesh's included: a nonnegative whole number (`_whole`),
    such as 2000 or 2e4.

    f must act elementwise on a 1-d array of nodes, whole 15-node rows of
    them: it is called once on the nodes of the whole seed mesh, then on the
    nodes of both halves of an interval being split and of up to three more
    intervals from near the heap's top, each half with its own halves
    (`_adapt`), so most later splits need no call.  `evaluations` counts
    the nodes the result rests on; f sees more, because a look-ahead row
    goes unused where its interval is never split.
    """
    tol = _tol(tol)
    if (rows := _whole(limit, "limit")) < 0:
        raise DomainError(f"limit must be nonnegative, got {_shown(limit)}")
    a, b = _real(lo, math.nan), _real(hi, math.nan)
    if not (-math.inf < a < b and (b == math.inf or b - a < math.inf)):
        raise DomainError(f"integration requires -inf < lo < hi, with a finite width "
                          f"hi - lo where hi is finite (bounds must not be NaN), "
                          f"got [{_shown(lo)}, {_shown(hi)}]")

    if math.isinf(b):
        def g(us):
            xs = a + np.expm1(us)
            with np.errstate(over="ignore"):
                return np.asarray(f(xs), dtype=float) * np.exp(us)

        # tail sentinel: mass invisible beyond the largest representable x
        # shows up as a non-negligible transformed integrand at u = U_MAX;
        # an infinite one leaves nothing for the refinement to converge to
        tail = float(np.atleast_1d(g(np.array([_U_MAX])))[0])
        if math.isnan(tail):
            raise NumericFailure("integrand returned NaN near the upper limit")
        if math.isinf(tail):
            return QuadratureResult(math.inf, math.inf, False, 1)

        mesh = [0.0, 1e-9, 1e-6, 1e-3, 0.05, 0.25, 1.0, 2.0, 4.0, 7.0,
                12.0, 20.0, 40.0, 80.0, 160.0, 320.0, _U_MAX]
        value, err, evals = _adapt(g, mesh, tol, rows)
        err += 100.0 * abs(tail)
        evals += 1
    else:
        value, err, evals = _adapt(f, _seed_mesh(a, b), tol, rows)

    return QuadratureResult(value=value, abs_error_estimate=err,
                            converged=err <= tol, evaluations=evals)


# ---------------------------------------------------------------------------
# bracketed root finding (Brent: inverse quadratic / secant with bisection)
# ---------------------------------------------------------------------------

# Brent's steps per call before it raises: the mode equation's roots take at
# most 8 calls of f, and bisection alone takes [0, 1] to 1e-14 in 47 steps;
# a bracket spanning hundreds of decades may need more
_ROOT_STEPS = 200


def find_root(f, bracket: Bracket, tol: float = 1e-10) -> float:
    """Root of f inside a sign-changing bracket, to within tol, by Brent's
    method; NumericFailure, not an unconverged iterate, after `_ROOT_STEPS`."""
    tol = _tol(tol)
    a, b = bracket.lo, bracket.hi
    fa, fb = float(f(a)), float(f(b))
    if math.isnan(fa) or math.isnan(fb):
        raise NumericFailure("function returned NaN at a bracket endpoint")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise BracketError(f"no sign change on [{a}, {b}]: f={fa!r}, {fb!r}")

    c, fc = a, fa
    d = e = b - a
    for _ in range(_ROOT_STEPS):
        if math.copysign(1.0, fb) == math.copysign(1.0, fc):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        delta = 0.5 * tol + 2.0 * _EPS * abs(b)
        m = 0.5 * (c - b)
        if abs(m) <= delta or fb == 0.0:
            return b
        if abs(e) < delta or abs(fa) <= abs(fb):
            d = e = m  # bisection
        else:
            s = fb / fa
            if a == c:  # secant
                p = 2.0 * m * s
                qd = 1.0 - s
            else:  # inverse quadratic
                qa = fa / fc
                r = fb / fc
                p = s * (2.0 * m * qa * (qa - r) - (b - a) * (r - 1.0))
                qd = (qa - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                qd = -qd
            p = abs(p)
            if 2.0 * p < min(3.0 * m * qd - abs(delta * qd), abs(e * qd)):
                e = d
                d = p / qd
            else:
                d = e = m
        a, fa = b, fb
        b = b + (d if abs(d) > delta else math.copysign(delta, m))
        fb = float(f(b))
        if math.isnan(fb):
            raise NumericFailure("function returned NaN during root refinement")
    raise NumericFailure(f"root not resolved to tol={tol!r} within {_ROOT_STEPS} "
                         f"steps on [{bracket.lo}, {bracket.hi}]")


# ---------------------------------------------------------------------------
# golden-section maximization
# ---------------------------------------------------------------------------

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def maximize_scalar(f, lo: float, hi: float, tol: float = 1e-10) -> tuple[float, float]:
    """(argmax, max) of f on the `Bracket` [lo, hi] by golden-section shrinking.

    Exact for unimodal f; best effort otherwise.
    """
    bracket = Bracket(lo, hi)
    tol = _tol(tol)
    a, b = bracket.lo, bracket.hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = float(f(c)), float(f(d))
    # every step moves one end strictly inward, so the loop ends: at width
    # tol, or where the doubles are spaced so widely that the inner points
    # no longer lie strictly inside the interval in order
    while b - a > tol and a < c < d < b:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = float(f(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = float(f(d))
    # halved before the sum, which can overflow near the top of the doubles
    x = 0.5 * a + 0.5 * b
    return x, float(f(x))


# ---------------------------------------------------------------------------
# seedable uniform stream on the open interval (0, 1)
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix_array(states: np.ndarray) -> np.ndarray:
    z = states.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


class UniformStream:
    """Deterministic stream of doubles strictly inside (0, 1).

    splitmix64 from a whole-number seed mod 2^64; draw i depends only on
    (seed, i), so bulk and one-at-a-time draws give the identical sequence.
    """

    def __init__(self, seed: int):
        self._seed = _whole(seed, "seed") & _MASK64
        self._index = 0

    def draws(self, n: int) -> np.ndarray:
        """The next n values as an array (advances the stream); n is a
        nonnegative whole number (`_whole`), such as 3 or 1e6."""
        count = _count(n)
        idx = np.arange(self._index + 1, self._index + count + 1, dtype=np.uint64)
        self._index += count
        states = np.uint64(self._seed) + idx * np.uint64(_GOLDEN)
        bits53 = _splitmix_array(states) >> np.uint64(11)
        return (bits53.astype(np.float64) + 0.5) * 2.0 ** -53

    def __next__(self) -> float:
        return float(self.draws(1)[0])
