"""Mode location and boundary-behavior classification.

Closed forms exist for the three subfamilies; for general finite p the
stationary points come from the roots t in (0, 1) of

    (b-1) t^(-1/q) (1-t) - b(q+1) (t^(-1/q) - 1)(1-t) + p b q (t^(-1/q) - 1) t = 0

each mapping back to x = x0 + c (p+1)^(-1/(bq)) (t^(-1/q) - 1)^(1/b).
Unimodality is only guaranteed for the subfamilies, so the general path
evaluates the density at every root plus the boundary and keeps the global
maximizer.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import _PARAM_NAMES, IFDistribution, IFParams, Subfamily, classify
from .errors import DomainError, NumericFailure
from .kernels import Bracket, _real, _whole, find_root

__all__ = [
    "BoundaryKind",
    "BoundaryBehavior",
    "ModeKind",
    "ModeResult",
    "boundary_behavior",
    "solve_mode_equation",
    "mode",
    "mode_grid",
    "MODE_AT_BOUNDARY",
    "MODE_ASYMPTOTE",
]

# sentinel codes used by mode_grid cells (modes are >= x0 >= 0, so these
# cannot collide with a real mode location)
MODE_AT_BOUNDARY = -1.0
MODE_ASYMPTOTE = -2.0

_GRID_POINTS = 1000
_GRID_EPS = 1e-12
# the absolute tolerance in t of each stationary root
_ROOT_TOL = 1e-14

# the most cells mode_grid solves: at about 0.12 ms a cell (a 21 x 21 grid
# of the benchmark's `cli` workload) they take about 2 minutes
MAX_GRID_CELLS = 10 ** 6


class BoundaryKind(enum.Enum):
    DIVERGES = "diverges-to-infinity"
    FINITE = "finite-positive"
    ZERO = "zero-at-boundary"


@dataclass(frozen=True)
class BoundaryBehavior:
    kind: BoundaryKind
    value: float  # the density limit at x0: +inf, a positive constant, or 0


class ModeKind(enum.Enum):
    BOUNDARY = "boundary"
    INTERIOR = "interior"
    ASYMPTOTE = "asymptote-at-boundary"


# the mode_grid cell of each kind that has a code; an interior cell holds x
_GRID_CODES = {ModeKind.BOUNDARY: MODE_AT_BOUNDARY, ModeKind.ASYMPTOTE: MODE_ASYMPTOTE}


@dataclass(frozen=True, slots=True)
class ModeResult:
    kind: ModeKind
    x: float
    density: float
    n_candidates: int = 0  # interior stationary points examined (general path)


def boundary_behavior(params: IFParams) -> BoundaryBehavior:
    """How the density behaves as x -> x0+.

    Near the boundary the density scales like y^(b(p+1)-1) for b > 0 (with
    exponent +inf at p = inf) and like y^(-bq-1) for b < 0, so the sign of
    that local exponent decides between divergence, a finite limit and zero.
    A finite limit keeps its kind where its value leaves the doubles.
    """
    d = IFDistribution(params)
    e = d._boundary_exponent()
    kind = (BoundaryKind.ZERO if e > 0 else BoundaryKind.DIVERGES if e < 0
            else BoundaryKind.FINITE)
    return BoundaryBehavior(kind, d._boundary)


def _residual_factory(params: IFParams):
    b, q, p = params.b, params.q, params.p

    def residual(t):
        t = np.asarray(t, dtype=float)
        # at small q, t^(-1/q) overflows near t = 0; the residual is then
        # +-inf or NaN there, which the sign test and find_root handle
        with np.errstate(over="ignore", invalid="ignore"):
            sm1 = np.expm1(-np.log(t) / q)   # t^(-1/q) - 1, exact near t = 1
            s = sm1 + 1.0
            return ((b - 1.0) * s * (1.0 - t)
                    - b * (q + 1.0) * sm1 * (1.0 - t)
                    + p * b * q * sm1 * t)

    return residual


# logarithmic half-grids in t and in 1-t, built once: the residual varies
# fastest near t = 0, while small-p roots crowd toward t = 1.  Sorted with
# repeats dropped, as np.unique would, without the numpy.ma import that
# np.unique's first call costs
_T_GRID = np.sort(np.concatenate([
    np.exp(np.linspace(math.log(_GRID_EPS), math.log(0.5), _GRID_POINTS // 2)),
    1.0 - np.exp(np.linspace(math.log(0.5), math.log(_GRID_EPS), _GRID_POINTS // 2)),
]))
_T_GRID = _T_GRID[np.append(True, _T_GRID[1:] != _T_GRID[:-1])]
_T_GRID.flags.writeable = False


def solve_mode_equation(params: IFParams) -> list[float]:
    """The roots t in (0, 1) of the stationarity equation (finite p), sorted:
    one per sign change of the residual on the t grid, and its exact zeros."""
    if math.isinf(params.p):
        raise DomainError("the stationarity equation in t requires finite p")
    residual = _residual_factory(params)
    ts = _T_GRID
    vals = residual(ts)
    roots = [float(t) for t in ts[vals == 0.0]]
    # brackets by sign: the product of values overflows at p near 1e300
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0.0):
        roots.append(find_root(residual, Bracket(ts[i], ts[i + 1]), tol=_ROOT_TOL))
    return sorted(roots)


def mode_x_from_t(params: IFParams, t: float) -> float:
    """The level map `IFDistribution._level_offset` from t, here a root of
    the stationarity equation, to x; the median is its t = 1 - 2^(-1/(p+1))."""
    d = IFDistribution(params)
    return d.x0 + d._level_offset(t)


def _closed_form_mode(d: IFDistribution, sub: Subfamily) -> float:
    """The interior mode of a subfamily member whose density is 0 at x0."""
    b, c, q, p, x0 = d.b, d.c, d.q, d.p, d.x0
    if sub is Subfamily.IF1:
        return x0 + c * ((b - 1.0) / (b * q + 1.0)) ** (1.0 / b)
    if sub is Subfamily.IF2:
        return x0 + c * (b * q / (b * q + 1.0)) ** (1.0 / (b * q))
    k = math.exp(d._ln_k)  # (p+1)^(-1/q)
    return x0 + c * k * (((q + 1.0) / ((p + 1.0) * q + 1.0)) ** (-1.0 / q) - 1.0)


def mode(params: IFParams) -> ModeResult:
    """Global maximizer of the density: a vertical asymptote at x0 where the
    density diverges there (`boundary_behavior`), else the best of x0 and
    the candidates, which are a subfamily's closed-form interior mode or,
    off the subfamilies, the stationary roots."""
    d = IFDistribution(params)
    e = d._boundary_exponent()
    if e < 0:
        return ModeResult(ModeKind.ASYMPTOTE, params.x0, math.inf)
    sub = classify(params)
    if sub is Subfamily.GENERAL:
        roots = solve_mode_equation(params)
        xs, n = [d.x0 + d._level_offset(t) for t in roots], len(roots)
    else:
        xs, n = [_closed_form_mode(d, sub)] if e > 0 else [], 0
    best_x, best_f = params.x0, d._boundary
    for x in xs:
        fx = d.pdf(x)
        if fx > best_f:
            best_x, best_f = x, fx
    if best_x != params.x0:
        return ModeResult(ModeKind.INTERIOR, best_x, best_f, n)
    if e > 0:
        # the density is 0 at x0 and positive above it: a root was missed,
        # or the mode lies closer to x0 than the doubles resolve
        raise NumericFailure(f"no stationary point resolved above the zero "
                             f"density at x0 of {params}")
    return ModeResult(ModeKind.BOUNDARY, params.x0, best_f, n)


def mode_grid(template: IFParams, axis1: tuple[str, float, float],
              axis2: tuple[str, float, float],
              steps: tuple[int, int]) -> np.ndarray:
    """Matrix of mode locations over a 2-parameter sweep between finite bounds.

    steps = (N1, N2); row i, column j holds the mode x for axis1 value i
    and axis2 value j.  Boundary modes are encoded as -1.0 and asymptotes
    at x0 as -2.0 (real modes are >= x0 >= 0, so the codes are unambiguous).

    A grid of more than MAX_GRID_CELLS cells raises DomainError before any
    array is built: one that large would run for minutes or more, and numpy
    fails on huge sizes with a different error at each size.
    """
    n1, n2 = (_whole(n, "steps") for n in steps)
    if n1 < 1 or n2 < 1:
        raise DomainError("mode_grid needs at least one step per axis")
    if n1 * n2 > MAX_GRID_CELLS:
        raise DomainError(f"mode_grid allows at most {MAX_GRID_CELLS} cells "
                          f"(steps N1 x N2)")
    name1, lo1, hi1 = axis1
    name2, lo2, hi2 = axis2
    for name in (name1, name2):
        if name not in _PARAM_NAMES:
            raise DomainError(f"unknown axis parameter {name!r}")
    if name1 == name2:
        raise DomainError("the two axes must name different parameters")
    lo1, hi1, lo2, hi2 = (_real(v, math.nan) for v in (lo1, hi1, lo2, hi2))
    for lo, hi in ((lo1, hi1), (lo2, hi2)):
        if not -math.inf < lo <= hi < math.inf:  # NaN too, as a refused bound reads
            raise DomainError("axis range must satisfy finite lo <= hi")
    vals1 = np.linspace(lo1, hi1, n1)
    vals2 = np.linspace(lo2, hi2, n2)
    out = np.empty((n1, n2))
    for i, v1 in enumerate(vals1):
        for j, v2 in enumerate(vals2):
            res = mode(replace(template, **{name1: v1, name2: v2}))
            out[i, j] = _GRID_CODES.get(res.kind, res.x)
    return out
