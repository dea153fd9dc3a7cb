import hashlib
import math
import re
import warnings
from heapq import heappop, heappush
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifdist import (
    Bracket,
    BracketError,
    DomainError,
    IFDistribution,
    IFParams,
    UniformStream,
    beta,
    find_root,
    integrate,
    kernels,
    ln_gamma,
    maximize_scalar,
)
from ifdist.errors import NumericFailure

# reference log-gamma values, 40-digit arithmetic rounded to double
LN_GAMMA_REFS = [
    (1e-06, 13.815509980749432),
    (0.0001, 9.210282658633963),
    (0.03, 3.489971043442412),
    (0.2, 1.5240638224307845),
    (0.5, 0.5723649429247001),
    (0.77, 0.18206516866053707),
    (1.0, 0.0),
    (1.5, -0.12078223763524522),
    (2.0, 0.0),
    (3.75, 1.486815578593417),
    (5.0, 3.1780538303479458),
    (11.5, 16.292000476567242),
    (30.0, 71.25703896716801),
    (61.2, 189.4490345806203),
    (100.0, 359.1342053695754),
    (137.036, 535.6739356936151),
    (170.0, 701.437263808737),
]


class TestLnGamma:
    def test_trivial_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-15)

    @pytest.mark.parametrize("x,ref", LN_GAMMA_REFS)
    def test_reference_grid(self, x, ref):
        # contract: relative error of exp(result) <= 1e-13
        assert abs(math.expm1(ln_gamma(x) - ref)) <= 1e-13

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan, math.inf,
                                     "2", True, pytest.param(10 ** 400, id="10**400")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            ln_gamma(bad)

    @pytest.mark.parametrize("x", [5, np.int64(5), np.float32(2.5), 2.5])
    def test_int_and_numpy_arguments_keep_their_values(self, x):
        assert ln_gamma(x) == ln_gamma(float(x))


class TestBeta:
    def test_known_values(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
        assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-12)
        assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-12)

    @given(a=st.floats(0.01, 60.0), b=st.floats(0.01, 60.0))
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, a, b):
        assert beta(a, b) == pytest.approx(beta(b, a), rel=1e-12)

    @given(a=st.floats(0.01, 80.0) | st.floats(1e-300, 1e300))
    @settings(max_examples=60, deadline=None)
    def test_beta_a_one(self, a):
        # exact: the 1/m term of the IF3 moments
        assert beta(a, 1.0) == 1.0 / a == beta(1.0, a)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta(-1.0, 2.0)
        with pytest.raises(DomainError):
            beta(1.0, 0.0)

    @pytest.mark.parametrize("a, b", [(True, 2), (2, True), ("2", 3.0),
                                      pytest.param(10 ** 400, 2, id="10**400-2")])
    def test_argument_the_number_rule_refuses(self, a, b):
        # beta(True, 2) used to answer 0.5, and 10**400 raised OverflowError
        with pytest.raises(DomainError, match="beta requires positive arguments, got"):
            beta(a, b)

    @pytest.mark.parametrize("a, b", [(2, np.int64(3)), (np.float32(2.5), 3),
                                      (1, np.float32(4.0)), (np.float64(0.5), 1)])
    def test_int_and_numpy_arguments_keep_their_values(self, a, b):
        assert beta(a, b) == beta(float(a), float(b))


# B(a, b) at the doubles a and b, from mpmath: (2/3, 1e12) at 50 and 80
# digits (they agree to 25), (1/2, 1e15) and (1/2, 1e16) at 50
BETA_AT_LARGE_ARGUMENTS = [
    (2.0 / 3.0, 1e12, 1.3541179394265524e-08),
    (0.5, 1e15, 5.6049912163979294e-08),
    (0.5, 1e16, 1.7724538509055160e-08),
]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ln B as a sum of ln Gamma values near b ln b keeps their absolute "
    "rounding: beta(2/3, 1e12) reads 1.3598841250546692e-08, 4.3e-3 off, "
    "beta(1/2, 1e15) 2.06e-9, 27 times too small, and beta(1/2, 1e16) "
    "exactly 1.0 (ROADMAP item 5)"))
@pytest.mark.parametrize("a, b, want", BETA_AT_LARGE_ARGUMENTS,
                         ids=["2/3-1e12", "1/2-1e15", "1/2-1e16"])
def test_beta_at_a_large_argument(a, b, want):
    assert beta(a, b) == pytest.approx(want, rel=1e-12)


class TestIntegrate:
    def test_linear(self):
        r = integrate(lambda x: x, 0.0, 1.0, 1e-10)
        assert r.converged and r.evaluations > 0
        assert r.value == pytest.approx(0.5, abs=1e-12)

    def test_exponential_tail(self):
        r = integrate(lambda x: np.exp(-x), 0.0, math.inf, 1e-10)
        assert r.converged
        assert r.value == pytest.approx(1.0, abs=1e-10)

    def test_density_normalizes(self):
        d = IFDistribution(IFParams(1.0, 1.0, 200.0, 2.0, 0.0))
        r = integrate(d.pdf, 0.0, math.inf, 1e-8)
        assert r.converged
        assert r.value == pytest.approx(1.0, abs=1e-7)

    def test_endpoint_singularity(self):
        r = integrate(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, 1e-9)
        assert r.converged
        assert r.value == pytest.approx(2.0, abs=1e-8)

    def test_converged_respects_tolerance(self):
        r = integrate(lambda x: np.exp(-x * x), 0.0, 4.0, 1e-12)
        assert r.converged
        assert r.abs_error_estimate <= 1e-12

    def test_additivity(self):
        f = lambda x: np.sin(x) + x * x
        whole = integrate(f, 0.0, 3.0, 1e-11)
        left = integrate(f, 0.0, 1.2, 1e-11)
        right = integrate(f, 1.2, 3.0, 1e-11)
        tol = whole.abs_error_estimate + left.abs_error_estimate + right.abs_error_estimate
        assert abs(left.value + right.value - whole.value) <= tol + 1e-14

    def test_overflowing_tail_is_unconverged(self):
        # f(x) e^u overflows at the upper-limit probe: no warning, and no
        # refinement of an integral that cannot converge
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = integrate(lambda x: np.full(np.shape(x), 1e300), 0.0, math.inf, 1e-8)
        assert not r.converged and r.value == math.inf and r.evaluations == 1

    # the seed mesh's 14 intervals on [0, 1], and the tail probe and 16
    # intervals on [0, inf)
    @pytest.mark.parametrize("hi, evals", [(1.0, 15 * 14), (math.inf, 1 + 15 * 16)])
    def test_infinite_values_are_unconverged(self, hi, evals):
        # inf on the first interval of the seed mesh: an infinite error
        # estimate, no warning, and no split of what cannot converge
        def f(x):
            return np.where(x < 1e-9, np.inf, np.exp(-x))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = integrate(f, 0.0, hi, 1e-8)
        assert not r.converged and r.abs_error_estimate == math.inf
        assert r.value == math.inf and r.evaluations == evals

    def test_refinement_never_evaluates_an_end(self):
        # the refinement reaches the width of an ulp at lo = 1, where a
        # midpoint still exists but the nodes of its halves round onto lo
        rec = _Recorded(lambda x: 1.0 / np.sqrt(x - 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = integrate(rec, 1.0, 2.0, 1e-12)
        assert np.concatenate(rec.calls).min() > 1.0
        assert not r.converged
        assert r.value == pytest.approx(2.0, rel=0, abs=r.abs_error_estimate)

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            integrate(lambda x: x, 1.0, 1.0, 1e-8)
        with pytest.raises(DomainError):
            integrate(lambda x: x, 2.0, 1.0, 1e-8)

    @pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.nan),
                                        (math.nan, math.inf), ("0", 1.0),
                                        (False, 1.0),
                                        pytest.param(0.0, 10 ** 400, id="0-10**400")])
    def test_nan_bound(self, lo, hi):
        # a bound the number rule refuses reads as NaN; "0" used to escape
        # as TypeError and 10**400 as OverflowError
        with pytest.raises(DomainError, match="must not be NaN"):
            integrate(lambda x: x, lo, hi, 1e-8)

    @pytest.mark.parametrize("lo, hi, tol", [(0, np.int64(2), 1), (np.int64(0), 2.0, 1e-8),
                                             (1, math.inf, np.float32(2.0 ** -20))])
    def test_int_and_numpy_arguments_keep_their_values(self, lo, hi, tol):
        def f(x):
            return np.exp(-x) * np.sqrt(x)

        assert integrate(f, lo, hi, tol) == integrate(f, float(lo), float(hi), float(tol))

    @pytest.mark.parametrize("hi", [0.0, math.inf])
    def test_infinite_lower_bound_is_refused_before_any_call(self, hi):
        # only hi may be infinite: lo = -inf would give the seed mesh NaN
        # nodes and fail as "integrand returned NaN on [0.0, nan]"
        calls = []

        def f(x):
            calls.append(x)
            return np.exp(x)

        with pytest.raises(DomainError, match=re.escape("-inf < lo < hi")):
            integrate(f, -math.inf, hi)
        assert calls == []

    def test_overflowing_width_is_refused_before_any_call(self):
        # hi - lo = inf on a finite range gave every node of the seed mesh
        # an overflowed or NaN value: RuntimeWarnings, then "integrand
        # returned NaN" from an f that never returns NaN
        calls = []

        def f(x):
            calls.append(x)
            return np.zeros_like(x)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="finite width hi - lo"):
                integrate(f, -1e308, 1e308)
        assert calls == []

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, "1", True])
    def test_bad_tol(self, tol):
        with pytest.raises(DomainError, match="tol must be positive"):
            integrate(lambda x: x, 0.0, 1.0, tol)

    def test_an_interval_near_the_top_of_the_doubles(self):
        # every midpoint is 0.5 a + 0.5 b: a + b overflows here
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = integrate(lambda x: x / 1e308, 1e308, 1.7e308, tol=1e294)
        assert r.converged and r.evaluations == 210
        assert r.value == pytest.approx(0.945e308, rel=1e-14)

    @pytest.mark.parametrize("limit, refused", [
        (True, "whole number"), (math.nan, "whole number"), (2.5, "whole number"),
        (math.inf, "whole number"), ("10", "whole number"), (None, "whole number"),
        (-5, "nonnegative"), (0, None), (20000.0, None)])
    def test_bad_limit(self, limit, refused):
        # True, nan, 2.5 and -5 used to return the seed mesh's unconverged
        # answer, and "10" and None to raise TypeError
        f = lambda x: 1.0 / np.sqrt(x)
        if refused is None:
            assert integrate(f, 0.0, 1.0, 1e-12, limit) == integrate(f, 0.0, 1.0, 1e-12, int(limit))
            return
        with pytest.raises(DomainError, match=f"limit must be .*{refused}"):
            integrate(f, 0.0, 1.0, 1e-12, limit)


def _rule_one_interval(f, a, b):
    # the refinement as it was first written: f called on one interval's
    # 15 nodes at a time; the reference for the batched node evaluation
    row = kernels._rule(f, [a], [b])[0]
    if row is None:
        raise NumericFailure(f"integrand returned NaN on [{a}, {b}]")
    return (*row, 15)


def _adapt_one_interval(f, breakpoints, tol, limit):
    evals = 0
    heap = []
    segments = []
    stuck_err = live_err = 0.0
    counter = 0
    for a, b in zip(breakpoints[:-1], breakpoints[1:]):
        v, e, n = _rule_one_interval(f, a, b)
        evals += n
        counter += 1
        live_err += e
        heappush(heap, (-e, counter, a, b, v))
    while (heap and stuck_err + live_err > tol and stuck_err <= tol
           and evals < limit * 15):
        neg_e, _, a, b, v = heappop(heap)
        live_err += neg_e
        m = kernels._split_point(a, b)
        if m is None:
            segments.append((v, -neg_e))
            stuck_err += -neg_e
            continue
        v1, e1, n1 = _rule_one_interval(f, a, m)
        v2, e2, n2 = _rule_one_interval(f, m, b)
        evals += n1 + n2
        counter += 1
        heappush(heap, (-e1, counter, a, m, v1))
        counter += 1
        heappush(heap, (-e2, counter, m, b, v2))
        live_err += e1 + e2
    values = [v for v, _ in segments] + [h[4] for h in heap]
    errors = [e for _, e in segments] + [-h[0] for h in heap]
    return math.fsum(values), math.fsum(errors), evals


def integrate_one_interval(f, lo, hi, tol, limit=20000):
    with mock.patch.object(kernels, "_adapt", _adapt_one_interval):
        return integrate(f, lo, hi, tol, limit)


class _Recorded:
    """An integrand that keeps the nodes of every call."""

    def __init__(self, f):
        self.f, self.calls = f, []

    def __call__(self, xs):
        self.calls.append(np.array(xs))
        return self.f(xs)


def _rational(x):
    # + - * / only: numpy's SIMD loops round these like scalar code
    return (x * x - 3.0 * x + 1.0) / (x * x + 0.5)


# sha256 of kernels._rule's (value, error) rows on the seeded meshes of 1 to
# 40 intervals below, recorded with the rule as first written: one BLAS dot
# product per sum and interval, on OpenBLAS's SkylakeX kernel
RULE_DIGEST = "c60d5af7a22cffd85cd5fd661cdc9143bcabe2299615e102c94e379b764fb8a3"


# IF1+-, IF2+-, IF3 and General+-
DENSITY_POINTS = [
    IFParams(0.0, 2.0, 1.0, 1.5, 0.0), IFParams(0.0, -2.0, 1.0, 1.5, 0.3),
    IFParams(math.inf, 1.5, 2.0, 1.0, 0.0), IFParams(math.inf, -0.7, 1.0, 2.0, 0.0),
    IFParams(2.0, 1.0, 1.0, 3.0, 0.0), IFParams(2.5, 1.7, 1.3, 2.2, 0.1),
    IFParams(0.5, -1.5, 1.0, 2.0, 0.0),
]


def _moment_integrand(b, q, p, r):
    # x^r times the density, the integrand of the tight_quadrature benchmark
    d = IFDistribution(IFParams(p, b, 1.0, q, 0.0))

    def f(ds):
        return np.where(ds > 0, ds, 0.0) ** r * d.pdf_offset(ds)

    return f


# (b, q, p, r): moment cells whose upper decades spend the budget
BUDGET_CELLS = [(0.5, 0.5, 0.0, 2), (-0.5, 1.0, 1.0, 2), (1.0, 1.0, 1.0, 2), (2.0, 0.5, 1.0, 2)]
DECADES = [0.0] + [10.0 ** k for k in range(2, 7)]


class TestBatchedNodes:
    """Evaluating many intervals in one integrand call, with the halves of
    each half split and more intervals from near the heap's top,
    gives the bits of one call per interval: value, error, convergence and
    evaluations."""

    @pytest.mark.parametrize("pa", DENSITY_POINTS)
    def test_density_over_the_half_line(self, pa):
        f = IFDistribution(pa).pdf_offset
        assert integrate(f, 0.0, math.inf, 1e-12) == integrate_one_interval(f, 0.0, math.inf, 1e-12)

    @pytest.mark.parametrize("b, q, p, r", BUDGET_CELLS)
    def test_moment_decades_to_the_budget(self, b, q, p, r):
        f = _moment_integrand(b, q, p, r)
        # one call also splits intervals of other subtrees, at any heap
        # size: 3.3-5.8 steps per call over a spending range at 60 or 600
        # rows, against 1.6-1.9 at 60 rows with the popped interval's
        # subtree alone
        for limit in (60, 600):
            got = []
            for lo, hi in zip(DECADES[:-1], DECADES[1:]):
                rec = _Recorded(f)
                got.append(integrate(rec, lo, hi, 1e-11, limit=limit))
                steps = (got[-1].evaluations - rec.calls[0].size) // 30
                if not got[-1].converged:
                    assert len(rec.calls) - 1 < steps / 2.5
                nodes = np.concatenate(rec.calls)
                assert np.unique(nodes).size == nodes.size
            want = [integrate_one_interval(f, lo, hi, 1e-11, limit=limit)
                    for lo, hi in zip(DECADES[:-1], DECADES[1:])]
            assert got == want
            assert not all(res.converged for res in got)

    def test_a_budget_cell_to_its_end(self):
        # the last decade of a tight_quadrature cell spends the whole
        # default budget of 20,000 rows, with the bits of one call per
        # interval; its calls of f are not pinned, because its split order
        # follows the exp/log1p bits of numpy's SIMD loop set
        f = _moment_integrand(*BUDGET_CELLS[0])
        got = integrate(f, 1e5, 1e6, 1e-11)
        assert not got.converged and got.evaluations == 15 * 20000
        assert got == integrate_one_interval(f, 1e5, 1e6, 1e-11)

    def test_the_look_ahead_work_of_a_spent_budget(self):
        # the look-ahead's work to the end of the whole budget: the calls of
        # f, and the nodes f sees beyond the 300,000 the result rests on;
        # + - * / round alike on every SIMD loop set, so these hold on all
        f = lambda x: x * x * _rational(x)
        rec = _Recorded(f)
        got = integrate(rec, 1e5, 1e6, 1e-11)
        assert not got.converged and got.evaluations == 15 * 20000
        assert len(rec.calls) == 2030
        assert sum(call.size for call in rec.calls) == 452190

    # the seed mesh's 14 intervals on [0, 1], and the tail probe and 16
    # intervals on [0, inf)
    @pytest.mark.parametrize("f, hi, probe, mesh", [
        (lambda x: 1.0 / np.sqrt(x), 1.0, [], 14),
        (lambda x: np.exp(-x), math.inf, [1], 16),
    ], ids=["finite", "half_line"])
    def test_one_call_for_the_mesh_then_whole_rows(self, f, hi, probe, mesh):
        rec = _Recorded(f)
        res = integrate(rec, 0.0, hi, 1e-12)
        sizes = [call.size for call in rec.calls]
        assert sizes[:len(probe) + 1] == probe + [15 * mesh]
        later = sizes[len(probe) + 1:]
        # each later call: whole 30-node pairs of halves, for the popped
        # interval and up to _WIDE_MORE more, with the halves of each half
        assert all(size % 30 == 0 and size <= 90 * (1 + kernels._WIDE_MORE)
                   for size in later)
        # more than one interval split in a call, even in these small heaps
        assert max(later) > 90
        assert len(later) <= (res.evaluations - len(probe) - 15 * mesh) // 30
        nodes = np.concatenate(rec.calls)
        assert np.unique(nodes).size == nodes.size

    def test_a_mesh_of_one_interval(self):
        a, b = 1.0, math.nextafter(1.0, 2.0)
        assert kernels._seed_mesh(a, b) == [a, b]
        rec = _Recorded(_rational)
        res = integrate(rec, a, b, 1e-300)
        assert [call.size for call in rec.calls] == [15]
        assert res == integrate_one_interval(_rational, a, b, 1e-300)

    def test_rule_bits_on_seeded_meshes(self):
        rng = np.random.default_rng(20)
        h = hashlib.sha256()
        for n in range(1, 41):
            edges = (np.cumsum(rng.uniform(1e-3, 2.0, n + 1)) - 2.0).tolist()
            h.update(np.array(kernels._rule(_rational, edges[:-1], edges[1:])).tobytes())
        assert h.hexdigest() == RULE_DIGEST

    def test_infinite_rows_keep_an_infinite_error(self):
        # +inf, -inf and both on the nodes of three rows, beside a finite one
        def f(x):
            return np.select([(1.0 < x) & (x < 1.5), (2.0 < x) & (x < 2.5),
                              (3.0 < x) & (x < 3.5), 3.5 < x],
                             [np.inf, -np.inf, np.inf, -np.inf], _rational(x))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = kernels._rule(f, [0.0, 1.0, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        assert rows[0] == kernels._rule(_rational, [0.0], [1.0])[0]
        assert rows[1:3] == [(math.inf, math.inf), (-math.inf, math.inf)]
        assert math.isnan(rows[3][0]) and rows[3][1] == math.inf

    @pytest.mark.parametrize("used", [False, True])
    def test_nan_on_a_look_ahead_row(self, used):
        # NaN on the nodes of one look-ahead row: raised, with the
        # reference's message, only where the refinement uses that row
        f = lambda x: 1.0 / np.sqrt(x)
        rec, ref = _Recorded(f), _Recorded(f)
        integrate(rec, 0.0, 1.0, 1e-12)
        integrate_one_interval(ref, 0.0, 1.0, 1e-12)
        seen = set(np.concatenate(ref.calls).tolist())
        ahead = [row for call in rec.calls[1:] for row in call.reshape(-1, 15)[2:]]
        if used:
            nan_at = next(row for row in ahead if seen.issuperset(row.tolist()))
        else:
            nan_at = next(row for row in ahead if seen.isdisjoint(row.tolist()))

        def g(x):
            return np.where(np.isin(x, nan_at), math.nan, 1.0 / np.sqrt(x))

        if not used:
            assert integrate(g, 0.0, 1.0, 1e-12) == integrate_one_interval(g, 0.0, 1.0, 1e-12)
            return
        with pytest.raises(NumericFailure) as new:
            integrate(g, 0.0, 1.0, 1e-12)
        with pytest.raises(NumericFailure) as want:
            integrate_one_interval(g, 0.0, 1.0, 1e-12)
        assert str(new.value) == str(want.value)

    @pytest.mark.parametrize("used", [False, True])
    def test_nan_on_a_row_of_another_subtree(self, used):
        # NaN on the nodes of a half of an interval that a wide call split
        # before its pop: raised, with the reference's message, only where
        # the refinement pops that interval
        f = _moment_integrand(*BUDGET_CELLS[0])
        rec, ref = _Recorded(f), _Recorded(f)
        integrate(rec, 1e5, 1e6, 1e-11, limit=600)
        integrate_one_interval(ref, 1e5, 1e6, 1e-11, limit=600)
        seen = set(np.concatenate(ref.calls).tolist())
        # a call of more than six rows splits more than one interval, and its
        # rows 2 and 3 are the halves of the first one beside the popped
        wide = [row for call in rec.calls[1:] if call.size > 6 * 15
                for row in call.reshape(-1, 15)[2:4]]
        if used:
            nan_at = next(row for row in wide if seen.issuperset(row.tolist()))
        else:
            nan_at = next(row for row in wide if seen.isdisjoint(row.tolist()))

        def g(x):
            return np.where(np.isin(x, nan_at), math.nan, f(x))

        if not used:
            assert (integrate(g, 1e5, 1e6, 1e-11, limit=600)
                    == integrate_one_interval(g, 1e5, 1e6, 1e-11, limit=600))
            return
        with pytest.raises(NumericFailure) as new:
            integrate(g, 1e5, 1e6, 1e-11, limit=600)
        with pytest.raises(NumericFailure) as want:
            integrate_one_interval(g, 1e5, 1e6, 1e-11, limit=600)
        assert str(new.value) == str(want.value)

    @pytest.mark.parametrize("half", [0, 1])
    def test_nan_on_one_half_names_that_half(self, half):
        # NaN exactly at the nodes of one half of the first split, which
        # no seed node hits
        seen = []

        def f(x):
            seen.append(np.array(x))
            return 1.0 / np.sqrt(x)

        integrate(f, 0.0, 1.0, 1e-12)
        nan_at = seen[1][15 * half:15 * (half + 1)]

        def g(x):
            return np.where(np.isin(x, nan_at), math.nan, 1.0 / np.sqrt(x))

        with pytest.raises(NumericFailure) as new:
            integrate(g, 0.0, 1.0, 1e-12)
        with pytest.raises(NumericFailure) as ref:
            integrate_one_interval(g, 0.0, 1.0, 1e-12)
        assert str(new.value) == str(ref.value)
        lo, hi = map(float, re.findall(r"\[(.*), (.*)\]", str(new.value))[0])
        assert (lo < nan_at).all() and (nan_at < hi).all()

    def test_nan_names_the_first_interval_in_order(self):
        g = lambda x: np.where(x > 0.5, math.nan, 1.0)
        with pytest.raises(NumericFailure, match=re.escape("on [0.5, 0.7]")):
            integrate(g, 0.0, 1.0, 1e-10)
        with pytest.raises(NumericFailure, match=re.escape("on [0.5, 0.7]")):
            integrate_one_interval(g, 0.0, 1.0, 1e-10)


class TestFindRoot:
    def test_linear(self):
        assert find_root(lambda x: x - 0.3, Bracket(0.0, 1.0), 1e-12) == pytest.approx(0.3, abs=1e-12)

    def test_sqrt2(self):
        r = find_root(lambda x: x * x - 2.0, Bracket(1.0, 2.0), 1e-12)
        assert r == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_mode_equation_residual(self):
        # stationarity residual in t for p=0, b=2, q=1; the root t*=3/4 maps to
        # the argmax sqrt(1/3) of the matching density
        p, b, q = 0.0, 2.0, 1.0

        def h(t):
            s = t ** (-1.0 / q)
            return (b - 1.0) * s * (1.0 - t) - b * (q + 1.0) * (s - 1.0) * (1.0 - t) \
                + p * b * q * (s - 1.0) * t

        t_star = find_root(h, Bracket(0.5, 0.9), 1e-14)
        assert t_star == pytest.approx(0.75, abs=1e-12)
        x = (t_star ** (-1.0 / q) - 1.0) ** (1.0 / b)
        assert x == pytest.approx(0.5773502691896257, abs=1e-10)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            find_root(lambda x: x * x + 1.0, Bracket(-1.0, 1.0), 1e-10)

    def test_residual_small(self):
        f = lambda x: math.cos(x) - x
        r = find_root(f, Bracket(0.0, 1.5), 1e-12)
        # |f(root)| bounded by local slope times tolerance
        assert abs(f(r)) <= 10.0 * 2.0 * 1e-12

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0),
                                        (0.0, math.nan), (0.0, math.inf),
                                        (-math.inf, 5.0), (-math.inf, math.inf),
                                        (-1e308, 1e308), ("0", "1"), (False, True),
                                        pytest.param(0, 10 ** 400, id="0-10**400")])
    def test_empty_bracket(self, lo, hi):
        with pytest.raises(DomainError, match="bracket requires lo < hi"):
            Bracket(lo, hi)

    @pytest.mark.parametrize("lo, hi, tol", [(0, np.int64(1), 1e-10),
                                             (np.float32(0.25), 1, np.float32(0.5)),
                                             (np.float64(0.0), 1, 1)])
    def test_int_and_numpy_arguments_keep_their_values(self, lo, hi, tol):
        def f(x):
            return x * x - 0.3

        assert (find_root(f, Bracket(lo, hi), tol)
                == find_root(f, Bracket(float(lo), float(hi)), float(tol)))

    @pytest.mark.parametrize("f, lo, hi", [(lambda x: x - 0.3, 0.0, math.inf),
                                           (math.atan, -math.inf, 5.0)])
    def test_infinite_end_raises(self, f, lo, hi):
        # from an infinite end Brent's steps would end on inf and -inf
        with pytest.raises(DomainError, match="bracket requires lo < hi"):
            find_root(f, Bracket(lo, hi))

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, "1", True])
    def test_bad_tol(self, tol):
        with pytest.raises(DomainError, match="tol must be positive"):
            find_root(lambda x: x - 0.3, Bracket(0.0, 1.0), tol)

    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_nan_at_a_bracket_end(self, end):
        f = lambda x: math.nan if x == end else x - 0.3
        with pytest.raises(NumericFailure, match="NaN at a bracket endpoint"):
            find_root(f, Bracket(0.0, 1.0))

    @pytest.mark.parametrize("root", [0.0, 1.0])
    def test_exact_zero_at_an_end(self, root):
        calls = []

        def f(x):
            calls.append(x)
            return x - root

        assert find_root(f, Bracket(0.0, 1.0)) == root
        assert calls == [0.0, 1.0]

    def test_nan_during_refinement(self):
        f = lambda x: x - 0.3 if x in (0.0, 1.0) else math.nan
        with pytest.raises(NumericFailure, match="NaN during root refinement"):
            find_root(f, Bracket(0.0, 1.0))

    def test_step_cap_raises(self, monkeypatch):
        # five steps leave x^3 - 0.3 at 0.66943 (f = -5.6e-6), short of tol
        calls = []

        def f(x):
            calls.append(x)
            return x ** 3 - 0.3

        monkeypatch.setattr(kernels, "_ROOT_STEPS", 5)
        with pytest.raises(NumericFailure, match="within 5 steps on \\[0.0, 1.0\\]"):
            find_root(f, Bracket(0.0, 1.0), 1e-15)
        assert len(calls) == 5 + 2


class TestMaximizeScalar:
    def test_parabola(self):
        x, v = maximize_scalar(lambda x: -(x - 0.7) ** 2, 0.0, 1.0, 1e-10)
        assert x == pytest.approx(0.7, abs=1e-7)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_rayleigh_density(self):
        # 2 x exp(-x^2) peaks at 1/sqrt(2)
        x, _ = maximize_scalar(lambda x: 2.0 * x * math.exp(-x * x), 0.0, 5.0, 1e-10)
        assert x == pytest.approx(0.7071067811865476, abs=1e-7)

    def test_decreasing_hits_lower_end(self):
        x, _ = maximize_scalar(lambda x: math.exp(-x), 0.0, 5.0, 1e-10)
        assert x <= 1e-9

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            maximize_scalar(lambda x: x, 1.0, 1.0)

    @pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (-1.0, math.inf),
                                        (-1e308, 1e308), ("0", "1"),
                                        pytest.param(0, 10 ** 400, id="0-10**400")])
    def test_infinite_or_overflowing_bounds(self, lo, hi):
        # an infinite end makes the golden-section points NaN, and ends
        # 2e308 apart overflow them
        with pytest.raises(DomainError, match="bracket requires lo < hi"):
            maximize_scalar(lambda x: -x * x, lo, hi)

    def test_argmax_near_the_top_of_the_doubles(self):
        # the midpoint of the last bracket as 0.5 * (a + b) overflowed to inf,
        # an argmax outside [lo, hi]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            x, v = maximize_scalar(lambda x: -abs(x - 1.5e308), 1e308, 1.7e308, tol=1e290)
        assert (x, v) == (1.5e308, 0.0)

    def test_stops_where_the_inner_points_collapse(self):
        # tol 1e-12 lies below the spacing of doubles near 1e6 (1.2e-10):
        # the search stops once its inner points leave strict order, after
        # about 50 steps, not at some step budget
        calls = []

        def f(x):
            calls.append(x)
            return -(x - 1e6) ** 2

        x, v = maximize_scalar(f, 1e6 - 1.0, 1e6 + 1.0, tol=1e-12)
        assert abs(x - 1e6) <= 4 * math.ulp(1e6) and v == f(x)
        assert len(calls) < 100

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, "1", True])
    def test_bad_tol(self, tol):
        with pytest.raises(DomainError, match="tol must be positive"):
            maximize_scalar(lambda x: -x * x, -1.0, 1.0, tol)

    @pytest.mark.parametrize("lo, hi, tol", [(-1, np.int64(2), 1e-10),
                                             (np.float32(-0.5), 2, np.float32(0.25))])
    def test_int_and_numpy_arguments_keep_their_values(self, lo, hi, tol):
        def f(x):
            return -(x - 0.3) ** 2

        assert (maximize_scalar(f, lo, hi, tol)
                == maximize_scalar(f, float(lo), float(hi), float(tol)))


class TestUniformStream:
    def test_deterministic(self):
        a = UniformStream(12345).draws(1000)
        b = UniformStream(12345).draws(1000)
        assert np.array_equal(a, b)

    def test_bulk_matches_single(self):
        s1 = UniformStream(7)
        bulk = s1.draws(10)
        s2 = UniformStream(7)
        singles = np.array([next(s2) for _ in range(10)])
        assert np.array_equal(bulk, singles)

    def test_open_interval(self):
        u = UniformStream(99).draws(200_000)
        assert (u > 0.0).all() and (u < 1.0).all()

    def test_mean_clt(self):
        u = UniformStream(2024).draws(1_000_000)
        # ~7 standard errors of 1/sqrt(12 n)
        assert abs(u.mean() - 0.5) < 0.002

    @given(s1=st.integers(0, 2**63), s2=st.integers(0, 2**63))
    @settings(max_examples=40, deadline=None)
    def test_distinct_seeds_distinct_heads(self, s1, s2):
        if s1 == s2:
            return
        a = UniformStream(s1).draws(10)
        b = UniformStream(s2).draws(10)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [1.7, True, "12", None, math.nan, math.inf,
                                      np.float64(math.nan), np.float64(math.inf)])
    def test_seed_that_is_not_a_whole_number_raises(self, seed):
        # 1.7, True and "12" used to give the streams of seeds 1, 1 and 12
        with pytest.raises(DomainError, match="seed must be a whole number, got"):
            UniformStream(seed)

    @pytest.mark.parametrize("seed", [12.0, np.int64(12), np.float32(12.0)])
    def test_whole_seed_of_any_real_type(self, seed):
        assert np.array_equal(UniformStream(seed).draws(5), UniformStream(12).draws(5))

    def test_int_seed_is_not_rounded_through_a_float(self):
        # float(2**63 + 1) is 2**63; negative seeds wrap mod 2^64
        assert not np.array_equal(UniformStream(2 ** 63 + 1).draws(5),
                                  UniformStream(2 ** 63).draws(5))
        assert np.array_equal(UniformStream(-1).draws(5), UniformStream(2 ** 64 - 1).draws(5))
        assert np.array_equal(UniformStream(2 ** 64 + 3).draws(5), UniformStream(3).draws(5))

    def test_negative_n(self):
        with pytest.raises(DomainError, match="n must be nonnegative, got -1"):
            UniformStream(1).draws(-1)

    @pytest.mark.parametrize("n", [2.5, True, math.inf, math.nan])
    def test_bad_n_leaves_the_stream_unchanged(self, n):
        # a fractional n would advance the index by 2.5 and repeat a draw
        s = UniformStream(7)
        head = s.draws(1)
        with pytest.raises(DomainError, match="n must be"):
            s.draws(n)
        assert np.array_equal(np.concatenate([head, s.draws(2)]),
                              UniformStream(7).draws(3))

    def test_integral_float_n(self):
        assert np.array_equal(UniformStream(7).draws(1e3), UniformStream(7).draws(1000))


# An int of more than 4300 digits has no repr by default, so a message that
# formats it with {v!r} raised ValueError in place of the DomainError
_TOO_LONG = 10 ** 5000


@pytest.mark.parametrize("call, message", [
    (lambda: IFParams(_TOO_LONG, 1, 1, 1, 0), "p must be a real number"),
    (lambda: UniformStream(1).draws(-_TOO_LONG), "n must be nonnegative"),
    (lambda: ln_gamma(_TOO_LONG), "ln_gamma requires finite x > 0"),
    (lambda: integrate(math.exp, 0.0, 1.0, -_TOO_LONG), "tol must be positive"),
])
def test_an_int_too_long_for_repr_is_named_by_its_size(call, message):
    with pytest.raises(DomainError, match=f"^{message}, got an int of "
                                          f"{_TOO_LONG.bit_length()} bits$"):
        call()
