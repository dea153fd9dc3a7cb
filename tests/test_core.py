import dataclasses
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ifdist import (
    Bracket,
    DomainError,
    IFDistribution,
    IFParams,
    Subfamily,
    classify,
    find_root,
    g_big,
    integrate,
    mean,
    mode,
    p_exponential,
    variance,
)
from ifdist.modes import boundary_behavior, mode_x_from_t

INF = math.inf


def dist(p, b, c, q, x0):
    return IFDistribution(IFParams(p, b, c, q, x0))


EXPONENTIAL = IFParams(INF, -1.0, 1.0, 1.0, 0.0)
PARETO_I = IFParams(0.0, 1.0, 1.0, 2.0, 1.0)      # c = x0 = 1, tail index 2
FIG_BASE = IFParams(1.0, 1.0, 200.0, 2.0, 0.0)

# moderate grid reused by several invariant tests
GRID = [
    IFParams(p, b, c, q, x0)
    for p, b, q, c, x0 in product(
        [0.0, 0.5, 5.0, 1e3, INF], [-3.0, -0.5, 1.0, 2.0], [0.5, 2.0],
        [1.0, 200.0], [0.0, 1.0],
    )
]


class TestValidation:
    def test_valid(self):
        d = IFDistribution(FIG_BASE)
        assert d.params == FIG_BASE

    def test_b_zero(self):
        with pytest.raises(DomainError, match="b must be nonzero"):
            dist(0.0, 0.0, 1.0, 1.0, 0.0)

    def test_exponential_is_valid(self):
        assert classify(IFParams(INF, -1.0, 1.0, 1.0, 0.0)) is Subfamily.IF2

    @pytest.mark.parametrize(
        "params,msg",
        [
            ((-0.5, 1.0, 1.0, 1.0, 0.0), "p must be"),
            ((1.0, 1.0, 0.0, 1.0, 0.0), "c must be"),
            ((1.0, 1.0, -2.0, 1.0, 0.0), "c must be"),
            ((1.0, 1.0, 1.0, 0.0, 0.0), "q must be"),
            ((1.0, 1.0, 1.0, 1.0, -0.1), "x0 must be"),
            ((math.nan, 1.0, 1.0, 1.0, 0.0), "p must be"),
            ((1.0, math.nan, 1.0, 1.0, 0.0), "b must be"),
        ],
    )
    def test_rejections_by_name(self, params, msg):
        with pytest.raises(DomainError, match=msg):
            IFParams(*params)

    @pytest.mark.parametrize("bad", [True, False, "2", None, 1j])
    def test_non_real_values_rejected(self, bad):
        # bools are ints to Python and strings used to escape as TypeError
        with pytest.raises(DomainError, match="b must be a real number"):
            dist(1.0, bad, 1.0, 2.0, 0.0)

    @pytest.mark.parametrize("params, name", [((10 ** 400, 1, 1, 1, 0), "p"),
                                              ((1, 1, 1, 1, -10 ** 400), "x0"),
                                              ((10 ** 5000, 1, 1, 1, 0), "p")])
    def test_int_beyond_the_doubles_rejected(self, params, name):
        # float() of such an int used to escape as OverflowError
        with pytest.raises(DomainError, match=f"{name} must be a real number"):
            IFParams(*params)

    def test_int_and_numpy_values_accepted(self):
        d = dist(1, np.float64(2.0), np.float32(1.0), 2, np.int64(0))
        assert d.pdf(1.0) == dist(1.0, 2.0, 1.0, 2.0, 0.0).pdf(1.0)

    def test_all_violations_reported(self):
        with pytest.raises(DomainError) as err:
            dist(-1.0, 0.0, -1.0, -1.0, -1.0)
        text = str(err.value)
        for name in ("p must", "b must", "c must", "q must", "x0 must"):
            assert name in text

    def test_invalid_point_cannot_be_built(self):
        # no function sees an invalid point: construction and replace() raise
        with pytest.raises(DomainError, match="p must be a nonnegative real or inf"):
            IFParams(-5, -1, 1, 1, 0)
        with pytest.raises(DomainError, match="b must be nonzero and finite"):
            dataclasses.replace(PARETO_I, b=0.0)
        with pytest.raises(DomainError, match="p must be a nonnegative real or inf"):
            IFParams(math.nan, 0, -1, 1, 0)

    def test_fields_stored_as_python_floats(self):
        pa = IFParams(1, np.int64(2), np.float32(1.5), np.float64(2.0), 0)
        assert pa == IFParams(1.0, 2.0, 1.5, 2.0, 0.0)
        assert all(type(getattr(pa, f)) is float for f in "p b c q x0".split())
        assert repr(IFParams(1, 2, 1, 2, 0)) == "IFParams(p=1.0, b=2.0, c=1.0, q=2.0, x0=0.0)"
        assert type(dataclasses.replace(pa, q=np.float32(3.0)).q) is float


class TestSinglePrecisionFields:
    # float32 fields used to reach the closed forms and the mode residual as
    # float32, 6.7e-8 off relative against an abs_error of 1.8e-14
    F = np.float32

    @pytest.mark.parametrize("single", [(0.0, F(1.7), F(1.3), F(2.2), 0.0),
                                        (2.5, F(1.7), 1.3, 2.2, 0.1)])
    def test_results_equal_the_double_point(self, single):
        pa = IFParams(*single)
        double = IFParams(*map(float, single))
        for fn, field in ((mean, "value"), (variance, "value"), (mode, "x")):
            got, want = getattr(fn(pa), field), getattr(fn(double), field)
            assert type(got) is float and got.hex() == want.hex(), fn.__name__


class TestClassify:
    @pytest.mark.parametrize(
        "params,expected",
        [
            (IFParams(0.0, 2.0, 1.0, 1.0, 0.0), Subfamily.IF1),
            (IFParams(INF, -1.0, 1.0, 1.0, 0.0), Subfamily.IF2),
            (IFParams(3.0, 2.0, 1.0, 1.0, 0.0), Subfamily.GENERAL),
            (IFParams(3.0, 1.0, 1.0, 1.0, 0.0), Subfamily.IF3),
            (IFParams(0.0, 1.0, 1.0, 1.0, 0.0), Subfamily.IF1),
        ],
    )
    def test_examples(self, params, expected):
        assert classify(params) is expected


class TestPExponential:
    def test_p_zero_is_one(self):
        assert p_exponential(0.0, 0.5) == 1.0

    def test_p_inf_is_exp(self):
        assert p_exponential(INF, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-15, abs=0.0)

    def test_p_one(self):
        assert p_exponential(1.0, 1.0) == pytest.approx(0.5, rel=1e-15, abs=0.0)

    def test_upper_endpoint(self):
        assert p_exponential(2.0, 3.0) == 0.0
        assert p_exponential(0.0, 1.0) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            p_exponential(1.0, 2.5)
        with pytest.raises(DomainError):
            p_exponential(1.0, -0.1)

    @pytest.mark.parametrize("p", [-1.0, -1e-300, math.nan, "1", None, 1j, True])
    def test_bad_p(self, p):
        with pytest.raises(DomainError, match="p must be a nonnegative real or inf"):
            p_exponential(p, 0.5)

    def test_int_beyond_the_doubles(self):
        # float() of such an int used to escape as OverflowError
        with pytest.raises(DomainError, match="p must be a nonnegative real or inf"):
            p_exponential(10 ** 400, 0.5)

    def test_vectorized(self):
        out = p_exponential(1.0, np.array([0.0, 1.0, 2.0]))
        assert out == pytest.approx([1.0, 0.5, 0.0])


class TestGBig:
    def test_if1(self):
        assert g_big(IFParams(0.0, 1.0, 1.0, 1.0, 0.0), 2.0) == pytest.approx(3.0)

    def test_if2(self):
        assert g_big(IFParams(INF, 1.0, 2.0, 1.0, 0.0), 2.0) == pytest.approx(1.0)

    def test_p3(self):
        assert g_big(IFParams(3.0, 1.0, 1.0, 2.0, 0.0), 0.0) == pytest.approx(0.5)

    def test_negative_b_at_boundary(self):
        assert g_big(IFParams(0.0, -1.0, 1.0, 1.0, 0.0), 0.0) == math.inf

    def test_below_support(self):
        with pytest.raises(DomainError):
            g_big(IFParams(0.0, 1.0, 1.0, 1.0, 1.0), 0.5)

    @pytest.mark.parametrize("params, x, want", [
        # (x - x0)/c overflows, then underflows; 40-digit mpmath references
        (IFParams(0.0, 0.01, 1e-3, 0.05, 0.0), 1e306, 1231.2687708123817),
        (IFParams(0.0, -0.5, 1e300, 0.05, 0.0), 1e-30, 9.9999999999999998e164),
    ])
    def test_far_range(self, params, x, want):
        with np.errstate(all="raise"):
            assert g_big(params, x) == pytest.approx(want, rel=1e-12)
            assert g_big(params, [x])[0] == pytest.approx(want, rel=1e-12)

    def test_power_bits_kept_in_range(self):
        # x = x0 and every offset whose y is a normal double keep np.power's bits
        pa = IFParams(2.0, -0.7, 3.0, 1.5, 0.0)
        x = np.array([0.0, 1e-300, 1e-5, 0.3, 1.0, 7.0, 1e5, 1e300])
        with np.errstate(divide="ignore"):
            want = math.exp(-math.log1p(2.0) / 1.5) + np.power(x / 3.0, -0.7)
        assert np.array_equal(g_big(pa, x), want)


class TestPdf:
    def test_exponential(self):
        d = IFDistribution(EXPONENTIAL)
        assert d.pdf(0.0) == pytest.approx(1.0, rel=1e-14, abs=0.0)
        assert d.pdf(1.0) == pytest.approx(math.exp(-1.0), rel=1e-14, abs=0.0)

    def test_pareto_i_at_boundary(self):
        # alpha x0^alpha / x^(alpha+1) with alpha=2, x0=1 gives 2 at x=1
        assert IFDistribution(PARETO_I).pdf(1.0) == pytest.approx(2.0, rel=1e-14, abs=0.0)

    def test_fig_base_hand_evaluated(self):
        d = IFDistribution(FIG_BASE)
        # at x0, e_p((p+1)) = 0 for p > 0: density starts at zero
        assert d.pdf(0.0) == 0.0
        # symbolic evaluation at x=100 frozen from 40-digit arithmetic
        assert d.pdf(100.0) == pytest.approx(0.003734495538076993, rel=1e-12)

    def test_total_function(self):
        d = IFDistribution(PARETO_I)
        assert d.pdf(0.5) == 0.0
        assert d.pdf(-3.0) == 0.0
        assert d.pdf(math.inf) == 0.0

    def test_asymptote_boundary(self):
        d = dist(0.0, 0.5, 1.0, 2.0, 0.0)
        assert d.pdf(0.0) == math.inf

    def test_pdf_offset_matches(self):
        d = dist(0.5, -0.5, 1.0, 2.0, 1.0)
        xs = np.array([1.5, 2.0, 10.0])
        assert d.pdf_offset(xs - 1.0) == pytest.approx(list(d.pdf(xs)), rel=1e-12)


class TestLogPdf:
    def test_exponential_deep_tail(self):
        assert IFDistribution(EXPONENTIAL).log_pdf(50.0) == pytest.approx(-50.0, rel=1e-13,
                                                                          abs=0.0)

    def test_pareto_i(self):
        assert IFDistribution(PARETO_I).log_pdf(10.0) == pytest.approx(
            math.log(2e-3), rel=1e-13, abs=0.0)

    def test_weibull_hand_evaluated(self):
        d = dist(INF, -1.0, 1.0, 3.0, 0.0)
        assert d.log_pdf(0.5) == pytest.approx(math.log(3 * 0.25 * math.exp(-0.125)),
                                               rel=1e-13, abs=0.0)

    def test_finite_where_pdf_underflows(self):
        d = IFDistribution(EXPONENTIAL)
        assert d.pdf(800.0) == 0.0
        assert d.log_pdf(800.0) == pytest.approx(-800.0, rel=1e-13, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            IFDistribution(PARETO_I).log_pdf(1.0)
        with pytest.raises(DomainError):
            IFDistribution(PARETO_I).log_pdf(0.2)


class TestCdfSurvival:
    def test_weibull_half(self):
        d = dist(INF, -1.0, 1.0, 2.0, 0.0)
        assert d.cdf(math.sqrt(math.log(2.0))) == pytest.approx(0.5, rel=1e-14, abs=0.0)

    def test_zero_at_x0(self):
        for params in (EXPONENTIAL, PARETO_I, FIG_BASE):
            d = IFDistribution(params)
            assert d.cdf(params.x0) == 0.0
            assert d.survival(params.x0) == 1.0

    def test_pareto_i_values(self):
        d = IFDistribution(PARETO_I)
        assert d.cdf(2.0) == pytest.approx(0.75, rel=1e-14, abs=0.0)
        assert d.survival(100.0) == pytest.approx(1e-4, rel=1e-12)

    def test_survival_deep_tail_not_zero(self):
        d = IFDistribution(EXPONENTIAL)
        assert d.survival(700.0) == pytest.approx(math.exp(1) ** -700, rel=1e-12)
        assert d.survival(700.0) > 0.0

    def test_monotone(self):
        for params in GRID[::5]:
            d = IFDistribution(params)
            xs = params.x0 + params.c * np.geomspace(1e-6, 1e4, 80)
            F = d.cdf(xs)
            assert (np.diff(F) >= 0).all()
            assert ((F >= 0) & (F <= 1)).all()


class TestHazard:
    def test_exponential_constant(self):
        d = IFDistribution(EXPONENTIAL)
        assert d.hazard(np.array([0.1, 1.0, 10.0])) == pytest.approx([1.0, 1.0, 1.0],
                                                                     rel=1e-13, abs=0.0)

    def test_weibull(self):
        d = dist(INF, -1.0, 1.0, 2.0, 0.0)
        assert d.hazard(1.0) == pytest.approx(2.0, rel=1e-13, abs=0.0)

    def test_pareto_i(self):
        assert IFDistribution(PARETO_I).hazard(2.0) == pytest.approx(1.0, rel=1e-13, abs=0.0)

    def test_matches_ratio(self):
        # body points: deep-tail offsets can underflow both pdf and survival,
        # where the ratio oracle itself degenerates to 0/0
        for params in GRID[::3]:
            d = IFDistribution(params)
            xs = d.quantile(np.array([0.05, 0.35, 0.7, 0.97]))
            got = d.hazard(xs)
            want = d.pdf(xs) / d.survival(xs)
            assert got == pytest.approx(list(want), rel=1e-10)

    def test_hazard_times_survival_is_pdf(self):
        for params in GRID[::3]:
            d = IFDistribution(params)
            xs = d.quantile(np.array([0.1, 0.5, 0.9]))
            assert d.hazard(xs) * d.survival(xs) == pytest.approx(list(d.pdf(xs)),
                                                                  rel=1e-10)

    @pytest.mark.parametrize("p", [0.5, INF])
    def test_far_tail_follows_asymptote(self, p):
        # b > 0: pdf and survival both leave the normal doubles out here,
        # while their ratio tends to bq / (x - x0)
        d = dist(p, 1.5, 1.0, 2.0, 0.0)
        xs = np.array([1e100, 1e150, 1e170])
        want = [3.0 / x for x in xs]
        assert d.hazard(xs) == pytest.approx(want, rel=1e-12)
        assert [d.hazard(float(x)) for x in xs] == pytest.approx(want, rel=1e-12)
        grid = d.hazard(np.array([[2.0, xs[0]], [xs[1], xs[2]]]))
        assert grid.shape == (2, 2)
        assert list(grid.flat)[1:] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p, b, q, want", [
        (0.0, 1.5, 2.0, 0.0),
        (0.5, 1.5, 2.0, 0.0),
        (INF, 1.5, 2.0, 0.0),
        (0.0, -1.5, 2.0, 0.0),
        (0.5, -1.5, 2.0, 0.0),
        (INF, -1.5, 2.0, INF),   # Weibull with shape bq = 3 > 1
        (INF, -1.0, 1.0, 0.5),   # exponential: 1/c throughout
        (INF, -1.0, 0.5, 0.0),   # Weibull with shape 1/2
    ])
    def test_at_infinity(self, p, b, q, want):
        d = dist(p, b, 2.0, q, 0.0)
        assert d.hazard(INF) == pytest.approx(want, rel=1e-15, abs=0.0)
        assert d.hazard(np.array([3.0, INF]))[1] == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            IFDistribution(EXPONENTIAL).hazard(0.0)


class TestQuantile:
    def test_pareto_i(self):
        assert IFDistribution(PARETO_I).quantile(0.75) == pytest.approx(2.0, rel=1e-14, abs=0.0)

    def test_endpoints(self):
        for params in (PARETO_I, EXPONENTIAL, FIG_BASE):
            d = IFDistribution(params)
            assert d.quantile(0.0) == params.x0
            assert d.quantile(1.0) == math.inf

    def test_weibull_median_level(self):
        d = dist(INF, -1.0, 1.0, 1.0, 0.0)
        assert d.quantile(0.5) == pytest.approx(math.log(2.0), rel=1e-14, abs=0.0)

    def test_strictly_increasing(self):
        ys = np.linspace(1e-9, 1 - 1e-9, 200)
        for params in GRID[::7]:
            xs = IFDistribution(params).quantile(ys)
            assert (np.diff(xs) > 0).all()

    def test_domain(self):
        d = IFDistribution(PARETO_I)
        for bad in (-0.1, 1.1, math.nan):
            with pytest.raises(DomainError):
                d.quantile(bad)

    def test_inverse_symmetry_by_construction(self):
        # the falling branch is the rising branch evaluated at 1-y, exactly
        ys = np.array([0.001, 0.2, 0.5, 0.9, 0.999])
        d_neg = dist(2.0, -1.5, 3.0, 1.2, 0.5)
        direct = d_neg.x0 + d_neg._quantile_plus_offset(np.log(1.0 - ys))
        assert np.array_equal(d_neg.quantile(ys), direct)


class TestMedian:
    def test_if1(self):
        assert dist(0.0, 1.0, 1.0, 1.0, 0.0).median() == pytest.approx(1.0, rel=1e-14, abs=0.0)

    def test_exponential(self):
        d = IFDistribution(EXPONENTIAL)
        assert d.median() == pytest.approx(math.log(2.0), rel=1e-14, abs=0.0)

    def test_if3_against_bisection_oracle(self):
        d = dist(1.0, 1.0, 1.0, 2.0, 0.0)
        # frozen from 40-digit inversion of the cdf
        assert d.median() == pytest.approx(0.599456183689829, abs=1e-12)
        root = find_root(lambda x: d.cdf(x) - 0.5, Bracket(1e-6, 50.0), 1e-12)
        assert d.median() == pytest.approx(root, abs=1e-10)

    def test_equals_quantile_half(self):
        for params in GRID[::4]:
            d = IFDistribution(params)
            assert d.median() == pytest.approx(d.quantile(0.5), rel=1e-14, abs=0.0)


class TestSample:
    def test_empty(self):
        assert IFDistribution(EXPONENTIAL).sample(0, 1).shape == (0,)

    def test_fractional_n_raises(self):
        # a fractional n would be cut to 2 draws without a word
        with pytest.raises(DomainError, match="n must be a whole number, got 2.5"):
            IFDistribution(EXPONENTIAL).sample(2.5, 1)

    def test_fractional_seed_raises(self):
        # the seed used to be cut to 1, giving seed 1's draws without a word
        with pytest.raises(DomainError, match="seed must be a whole number, got 1.7"):
            IFDistribution(EXPONENTIAL).sample(5, 1.7)

    def test_deterministic(self):
        d = IFDistribution(FIG_BASE)
        assert np.array_equal(d.sample(500, 77), d.sample(500, 77))
        assert not np.array_equal(d.sample(500, 77), d.sample(500, 78))

    def test_above_x0_and_finite(self):
        d = IFDistribution(PARETO_I)
        xs = d.sample(10_000, 3)
        assert (xs > 1.0).all() and np.isfinite(xs).all()

    def test_boundary_layer_draws_stay_inside_support(self):
        # this member puts ~1e-4 of its mass within one ulp of x0 = 1:
        # such draws must still come out strictly above x0
        d = dist(0.0, -0.5, 1.0, 0.5, 1.0)
        xs = d.sample(1_000_000, 13)
        assert (xs > 1.0).all()
        assert xs.min() == np.nextafter(1.0, math.inf)

    def test_exponential_mean_clt(self):
        xs = IFDistribution(EXPONENTIAL).sample(1_000_000, 42)
        assert abs(xs.mean() - 1.0) < 0.004


class TestSplitFactorOverflow:
    """The quantile offset c (p+1)^(-1/(bq)) (e^z - 1)^(1/b) (c z^(-1/(bq))
    at p = inf) at points where a factor leaves the doubles and the product
    does not; medians from 50-digit mpmath."""

    CASES = [
        (IFParams(1e10, 0.05, 1.0, 0.05, 0.0), 4.6753657169415787e+63),
        (IFParams(3000.0, -0.05, 1.0, 0.05, 0.0), 2.0423154611841039e-64),
        (IFParams(0.0, 1000.0, 1.0, 0.0009, 0.0), 2.1601194777846123),
        (IFParams(INF, 0.01, 1e-300, 0.04, 0.0), 8.6366911051753705e+97),
    ]

    @pytest.mark.parametrize("params, want", CASES)
    def test_median_and_quantile(self, params, want):
        d = IFDistribution(params)
        # abs=0: approx's default absolute tolerance, 1e-12, would pass any
        # value of the 2e-64 median
        assert d.median() == pytest.approx(want, rel=1e-10, abs=0.0)
        assert d.quantile(0.5) == pytest.approx(want, rel=1e-10, abs=0.0)
        assert d.quantile(np.array([0.5]))[0] == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("params, want", CASES[:3])
    def test_mode_map_at_the_median_level(self, params, want):
        # t = 1 - 2^(-1/(p+1)) is the median's level on the t axis
        t = -math.expm1(-math.log(2.0) / (params.p + 1.0))
        assert mode_x_from_t(params, t) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("params, want", CASES)
    def test_sample_has_no_nan(self, params, want):
        xs = IFDistribution(params).sample(1000, 5)
        assert not np.isnan(xs).any() and (xs > params.x0).all()

    def test_no_levels(self):
        # (p+1)^(-1/(bq)) = e^5526 overflows math.exp; an empty array raised
        # AttributeError on the overflow path's mask
        d = IFDistribution(IFParams(1e6, -0.05, 1e-250, 0.05, 0.0))
        for fn in (d.quantile_offset, d.quantile):
            assert fn(np.empty(0)).shape == (0,)


class TestSubnormalFactor:
    """The quantile offset where its z factor, (e^z - 1)^(1/b), is below the
    normal doubles and its scale (p+1)^(-1/(bq)) lifts the product into
    them: a subnormal factor keeps few digits, so the product is formed
    from logs there."""

    CASES = [  # (params, level)
        (IFParams(0.3, -0.05, 1.0, 0.05, 0.0), 0.196954),
        (IFParams(1e6, -0.7, 1.0, 0.05, 0.0), 4.78629e-6),
        (IFParams(3.0, -0.7, 1.0, 0.05, 0.0), 3.16228e-11),
    ]

    def test_value(self):
        # 60-digit mpmath; the product of the linear-space factors read
        # 1.8669e-278
        params, v = self.CASES[0]
        d = IFDistribution(params)
        for got in (d.quantile_offset(v), d.quantile_offset(np.array([v]))[0]):
            assert got == pytest.approx(1.0009833393980818e-278, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("params, v", CASES)
    def test_round_trip(self, params, v):
        # the surface's round-trip bound: 8 eps (1 + |ln F| + |ln y|) times
        # the conditioning max(1, F/(y pdf)) of the inverse in log space
        d = IFDistribution(params)
        y = d.quantile_offset(v)
        got = d.cdf_offset(y)
        eps = float(np.finfo(float).eps)
        bound = (8 * eps * (1 + abs(math.log(got)) + abs(math.log(y)))
                 * max(1.0, got / (y * d.pdf_offset(y))))
        assert abs(got - v) <= bound * v


def _mp_reference(params, delta):
    """pdf, log_pdf, cdf, sf and hazard at x0 + delta, with y = delta/c
    taken exactly; ln(1 - w) = ln(1 - (1 + y^b/k)^(-q)) in stable form."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    p, b, c, q = (mp.inf if v == INF else mp.mpf(v)
                  for v in (params.p, params.b, params.c, params.q))
    ln_y = mp.log(mp.mpf(delta) / c)
    core = mp.log(abs(b) * q / c)
    if p == mp.inf:
        s = mp.exp(-b * q * ln_y)
        core += (-b * q - 1) * ln_y
        ln_pdf, ln_plus, ln_hazard_neg = core - s, -s, core
    else:
        ln_k = -mp.log1p(p) / q
        ln_1pt = mp.log1p(mp.exp(b * ln_y - ln_k))
        ln_w = -q * ln_1pt
        ln_1mw = (mp.log1p(-mp.exp(ln_w)) if ln_w < -1
                  else mp.log(-mp.expm1(ln_w)))
        core += (b - 1) * ln_y - (q + 1) * (ln_k + ln_1pt)
        ln_pdf, ln_plus = core + p * ln_1mw, (p + 1) * ln_1mw
        ln_hazard_neg = core - ln_1mw
    plus, minus = mp.exp(ln_plus), -mp.expm1(ln_plus)
    cdf, sf = (plus, minus) if b > 0 else (minus, plus)
    hazard = (mp.exp(ln_pdf - mp.log(sf)) if b > 0
              else mp.exp(ln_hazard_neg))
    return {"pdf": mp.exp(ln_pdf), "log_pdf": ln_pdf, "cdf": cdf, "sf": sf,
            "hazard": hazard}


class TestFarRange:
    """(x - x0)/c leaves the doubles while x is finite: ln y is then
    ln(x - x0) - ln c.  References from 50-digit mpmath."""

    CASES = [
        (IFParams(0.0, 0.01, 1e-3, 0.05, 0.0), 1e306, {
            "pdf": 3.5002534851476803e-310, "log_pdf": -712.5485434379534,
            "cdf": 0.29938028040105643, "sf": 0.70061971959894357,
            "hazard": 4.9959391482034417e-310}),
        (IFParams(0.0, 2.2, 1e-3, 1.7, 0.0), 1e306, {
            "log_pdf": -3364.2774414142505, "hazard": 3.74e-306}),
        (IFParams(INF, 1.5, 1e-3, 2.0, 0.0), 1e306, {
            "log_pdf": -2837.9888073729902, "hazard": 3.0e-306}),
        (IFParams(0.5, 1.5, 1e-3, 2.0, 0.0), 1e307, {
            "log_pdf": -2847.1991477449664, "hazard": 3.0e-307}),
        (IFParams(0.0, 0.5, 1e300, 2.0, 0.0), 1e-30, {
            "pdf": 9.9999999999999993e-136, "log_pdf": -310.84898755419617,
            "cdf": 2.0e-165, "sf": 1.0, "hazard": 9.9999999999999993e-136}),
        (IFParams(0.0, -0.5, 1e300, 2.0, 0.0), 1e-30, {
            "pdf": 9.9999999999999995e-301, "log_pdf": -690.77552789821371,
            "sf": 1.0}),
    ]

    @pytest.mark.parametrize("params, delta, want", CASES)
    def test_x_forms(self, params, delta, want):
        d = IFDistribution(params)
        x = params.x0 + delta
        for name, value in want.items():
            fn = getattr(d, name)
            assert fn(x) == pytest.approx(value, rel=1e-12), name
            assert fn(np.array([x]))[0] == pytest.approx(value, rel=1e-12), name

    @pytest.mark.parametrize("params, delta, want", CASES)
    def test_offset_forms(self, params, delta, want):
        # x0 = 3 cannot hold the tiny offsets, so only the offset forms see them
        pa = IFParams(params.p, params.b, params.c, params.q, 3.0)
        d = IFDistribution(pa)
        offset = {"pdf": d.pdf_offset, "log_pdf": d.log_pdf_offset,
                  "cdf": d.cdf_offset, "sf": d.sf_offset}
        for name, value in want.items():
            if name in offset:
                assert offset[name](delta) == pytest.approx(value, rel=1e-12), name

    @pytest.mark.parametrize("params, delta, want", CASES)
    def test_references_match_mpmath(self, params, delta, want):
        ref = _mp_reference(params, delta)
        for name, value in want.items():
            assert float(ref[name]) == pytest.approx(value, rel=1e-15, abs=0.0), name

    def test_cdf_of_quantile(self):
        d = IFDistribution(IFParams(0.0, 0.01, 1e-3, 0.05, 0.0))
        assert d.quantile(0.3) > 1e306
        assert d.cdf(d.quantile(0.3)) == pytest.approx(0.3, rel=1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "b < 0 at finite p: ln G = logaddexp(ln k, b ln y) rounds to ln k in "
        "the far right tail, so ln(1 - w) is lost; the ln t form of ROADMAP "
        "item 2 fixes it"))
    def test_b_negative_far_right_tail(self):
        d = IFDistribution(IFParams(0.5, -1.5, 1e-3, 2.0, 0.0))
        assert d.hazard(1e306) == pytest.approx(2.25e-306, rel=1e-12)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "small p, b > 0: ln w = -q ln G - ln(p + 1) cancels to about 1e-17 "
        "and keeps ln G's absolute rounding, so the lower-tail cdf reads "
        "1.0285e-17 (ROADMAP item 2)"))
    def test_lower_tail_cdf_at_small_p(self):
        # x is the quantile of 1e-17; the closed-form cdf there at 40 and 80
        # digits of mpmath is 1.00000000000000004464e-17
        d = IFDistribution(IFParams(0.004263593054679348, 1.0, 0.41753005533152676,
                                    4.168562581055472, 0.0))
        assert d.cdf(1.1814940272845318e-18) == pytest.approx(1e-17, rel=1e-12, abs=0)

    # ln pdf at y = 1e-12 and 1e-9 of IFParams(3, 2, 1, 1.3, 0), from mpmath
    # at 50 and 80 digits (they agree to 25) with
    # 1 - w = -expm1(-q log1p((p+1)^(1/q) y^b))
    LOG_PDF_NEAR_X0 = [-186.02272810081192, -137.66844114793696]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "b > 0 next to x0: ln G = logaddexp(ln k, b ln y) rounds to ln k, so "
        "ln w = -q ln G - ln(p + 1) rounds to +2.2e-16 and ln(1 - w) is NaN "
        "(ROADMAP item 2)"))
    def test_log_pdf_next_to_x0(self):
        d = IFDistribution(IFParams(3.0, 2.0, 1.0, 1.3, 0.0))
        got = d.log_pdf_offset(np.array([1e-12, 1e-9]))
        assert got.tolist() == pytest.approx(self.LOG_PDF_NEAR_X0, rel=1e-12)


class TestExtremeParameters:
    """Parameters whose derived constants or limits leave the doubles."""

    # |b| q / c underflows to 0, then overflows; log-densities at y = 1
    # from 50-digit mpmath
    COEF_CASES = [
        (IFParams(1e-310, 1.0, 1e100, 1e-300, 0.0), 1e100, -921.7271843781282),
        (IFParams(0.5, 1e10, 1e-300, 1e10, 0.0), 1e-300, -6931471069.262638),
    ]

    @pytest.mark.parametrize("params, delta, want", COEF_CASES)
    def test_density_coefficient_beyond_the_doubles(self, params, delta, want):
        d = IFDistribution(params)
        assert d.log_pdf_offset(delta) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("params, delta, want", COEF_CASES)
    def test_coefficient_references_match_mpmath(self, params, delta, want):
        ref = _mp_reference(params, delta)["log_pdf"]
        assert float(ref) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("params", [IFParams(3.0, -2.0, 1.0, 1.3, 0.0)]
                             + GRID[::3])
    def test_cdf_and_sf_limits_at_inf(self, params):
        # at b < 0 and finite p the finite-x form can round to NaN there
        d = IFDistribution(params)
        assert d.cdf(INF) == 1.0 and d.survival(INF) == 0.0
        assert d.cdf_offset(INF) == 1.0 and d.sf_offset(INF) == 0.0
        assert list(d.cdf(np.array([params.x0, INF]))) == [0.0, 1.0]
        assert list(d.sf(np.array([params.x0, INF]))) == [1.0, 0.0]

    def test_lower_tail_quantile(self):
        # 1 - y^(1/(p+1)) rounds to 1 here; 50-digit mpmath gives the offset
        # 1.1814940272845318e-18
        pa = IFParams(0.004263593054679348, 1.0, 0.41753005533152676,
                      4.168562581055472, 0.0)
        d = IFDistribution(pa)
        want = 1.1814940272845318e-18
        assert d.quantile_offset(1e-17) == pytest.approx(want, rel=1e-12, abs=0)
        assert d.quantile(np.array([1e-17]))[0] == pytest.approx(want, rel=1e-12,
                                                                 abs=0)

    def test_lower_tail_quantile_reference(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        p, b, c, q = (mp.mpf(v) for v in (0.004263593054679348, 1.0,
                                           0.41753005533152676, 4.168562581055472))
        t = mp.mpf(1e-17) ** (1 / (p + 1))
        want = c * (p + 1) ** (-1 / (b * q)) * mp.expm1(-mp.log1p(-t) / q) ** (1 / b)
        assert float(want) == pytest.approx(1.1814940272845318e-18, rel=1e-15, abs=0.0)


class TestDistributionInvariants:
    @pytest.mark.parametrize("params", GRID[::6])
    def test_normalization(self, params):
        d = IFDistribution(params)
        r = integrate(d.pdf_offset, 0.0, math.inf, 1e-8)
        assert r.converged
        assert r.value == pytest.approx(1.0, abs=1e-6)

    def test_roundtrip_offsets(self):
        levels = np.array([1e-6, 0.001, 0.01, 0.05, 0.1, 0.25, 0.5,
                           0.75, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6])
        for params in GRID:
            d = IFDistribution(params)
            again = d.cdf_offset(d.quantile_offset(levels))
            assert np.max(np.abs(again - levels)) <= 1e-9

    @given(y=st.floats(1e-9, 1 - 1e-9))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_property(self, y):
        d = dist(3.5, -1.7, 2.0, 1.3, 0.5)
        assert d.cdf_offset(d.quantile_offset(y)) == pytest.approx(y, abs=1e-9)

    @pytest.mark.parametrize("params", GRID[::8])
    def test_cdf_is_integral_of_pdf(self, params):
        d = IFDistribution(params)
        pts = d.quantile_offset(np.linspace(0.08, 0.92, 8))
        acc = 0.0
        prev = 0.0
        for delta in pts:
            acc += integrate(d.pdf_offset, prev, delta, 1e-9).value
            prev = delta
            assert acc == pytest.approx(d.cdf_offset(delta), abs=1e-6)

    def test_interpolation_power_law_end(self):
        for b, c, q, x0 in [(1.0, 1.0, 2.0, 0.0), (-0.5, 200.0, 0.5, 1.0),
                            (2.0, 1.0, 5.0, 0.0), (-3.0, 1.0, 1.0, 1.0)]:
            d0 = dist(0.0, b, c, q, x0)
            dp = dist(1e-12, b, c, q, x0)
            xs = d0.quantile(np.linspace(0.05, 0.95, 12))
            assert dp.pdf(xs) == pytest.approx(list(d0.pdf(xs)), rel=1e-8)

    def test_interpolation_cutoff_end(self):
        # deviation is O((p+1)^(-1/q)) + O(1/p), so q near or below 1 makes
        # p = 1e6 land within 1e-4
        for b, c, q, x0 in [(-1.0, 1.0, 1.0, 0.0), (0.5, 200.0, 0.75, 1.0),
                            (2.0, 1.0, 1.1, 0.0), (-2.0, 1.0, 0.5, 1.0)]:
            di = dist(INF, b, c, q, x0)
            dp = dist(1e6, b, c, q, x0)
            xs = di.quantile(np.linspace(0.05, 0.95, 12))
            assert dp.pdf(xs) == pytest.approx(list(di.pdf(xs)), rel=1e-4)

    def test_interpolation_rate_improves_with_p(self):
        # at q = 2 the gap shrinks like p^(-1/2): two decades of p buy 10x
        di = dist(INF, -1.0, 1.0, 2.0, 0.0)
        xs = di.quantile(np.linspace(0.1, 0.9, 9))
        gap6 = np.max(np.abs(dist(1e6, -1.0, 1.0, 2.0, 0.0).pdf(xs) / di.pdf(xs) - 1))
        gap10 = np.max(np.abs(dist(1e10, -1.0, 1.0, 2.0, 0.0).pdf(xs) / di.pdf(xs) - 1))
        assert gap10 < gap6 / 50.0


_CONTRACT = IFDistribution(IFParams(1.0, 1.5, 2.0, 2.0, 0.5))


@pytest.mark.parametrize(
    "fn,v,nan_passes",
    [
        (lambda x: p_exponential(1.0, x), 0.7, False),
        (lambda x: g_big(_CONTRACT.params, x), 1.7, True),
        (_CONTRACT.pdf, 1.7, True),
        (_CONTRACT.pdf_offset, 1.2, True),
        (_CONTRACT.log_pdf, 1.7, False),
        (_CONTRACT.log_pdf_offset, 1.2, False),
        (_CONTRACT.cdf, 1.7, True),
        (_CONTRACT.cdf_offset, 1.2, True),
        (_CONTRACT.survival, 1.7, True),
        (_CONTRACT.sf_offset, 1.2, True),
        (_CONTRACT.hazard, 1.7, False),
        (_CONTRACT.quantile, 0.3, False),
        (_CONTRACT.quantile_offset, 0.3, False),
    ],
    ids=["p_exponential", "g_big", "pdf", "pdf_offset", "log_pdf",
         "log_pdf_offset", "cdf", "cdf_offset", "survival", "sf_offset",
         "hazard", "quantile", "quantile_offset"],
)
def test_scalar_array_contract(fn, v, nan_passes):
    s = fn(v)
    assert type(s) is float
    zero_d = fn(np.array(v))
    assert type(zero_d) is float and zero_d == s
    out = fn([v, v, v])
    assert isinstance(out, np.ndarray) and out.shape == (3,)
    assert (out == s).all()
    grid = fn(np.full((2, 3), v))
    assert isinstance(grid, np.ndarray) and grid.shape == (2, 3)
    assert (grid == s).all()
    if nan_passes:
        assert math.isnan(fn(math.nan))
        mixed = fn([v, math.nan])
        assert mixed[0] == s and math.isnan(mixed[1])
    else:
        with pytest.raises(DomainError):
            fn(math.nan)


# IF1+-, IF2+-, IF3 and General+-
_ONE_PASS_POINTS = [
    IFParams(0.0, 2.0, 1.0, 1.5, 0.0), IFParams(0.0, -2.0, 1.0, 1.5, 0.3),
    IFParams(INF, 1.5, 2.0, 1.0, 0.0), IFParams(INF, -0.7, 1.0, 2.0, 0.0),
    IFParams(2.0, 1.0, 1.0, 3.0, 0.0), IFParams(2.5, 1.7, 1.3, 2.2, 0.1),
    IFParams(0.5, -1.5, 1.0, 2.0, 0.0), IFParams(0.5, 1.0, 0.5, 1.0, 0.0),
]
# interior offsets over the whole double range, so y = ds/c leaves the
# normal doubles, and probabilities next to both ends
_OFFSETS = np.concatenate([np.geomspace(1e-300, 1e300, 61), [5e-324, 0.3, 1.0, 7.5]])
_PROBS = np.concatenate([np.geomspace(1e-300, 0.5, 40), 1.0 - np.geomspace(1e-16, 0.4, 20)])


class TestOnePassSurface:
    """Entries outside the open domain are overwritten after one pass over
    all of them: the interior keeps its bits, the rest read their limits."""

    @staticmethod
    def _surfaces(pa):
        d = IFDistribution(pa)
        lim = boundary_behavior(pa).value
        return [(d.pdf_offset, _OFFSETS, [0.0, -1.0, INF, math.nan], [lim, 0.0, 0.0, math.nan]),
                (d.cdf_offset, _OFFSETS, [0.0, -1.0, INF, math.nan], [0.0, 0.0, 1.0, math.nan]),
                (d.sf_offset, _OFFSETS, [0.0, -1.0, INF, math.nan], [1.0, 1.0, 0.0, math.nan]),
                (d.quantile_offset, _PROBS, [0.0, 1.0], [0.0, INF])]

    @pytest.mark.parametrize("pa", _ONE_PASS_POINTS)
    def test_interior_bits_and_limits(self, pa):
        for fn, inside, edges, limits in self._surfaces(pa):
            alone = fn(inside)
            mixed = fn(np.concatenate([inside, edges]))
            assert mixed[:inside.size].tobytes() == alone.tobytes()
            assert alone.tobytes() == np.array([fn(float(v)) for v in inside]).tobytes()
            assert mixed[inside.size:].tobytes() == np.array(limits).tobytes()

    @pytest.mark.parametrize("pa", _ONE_PASS_POINTS)
    def test_empty_and_zero_d(self, pa):
        for fn, inside, edges, _ in self._surfaces(pa):
            empty = fn(np.array([]))
            assert isinstance(empty, np.ndarray) and empty.shape == (0,)
            for v in (inside[30], edges[0]):
                zero_d = fn(np.array(v))
                assert type(zero_d) is float and zero_d == fn([v])[0]
