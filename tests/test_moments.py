import math
import warnings

import numpy as np
import pytest

from ifdist import (DomainError, IFDistribution, IFParams, NumericFailure,
                    UniformStream, cli, integrate, moments)
from ifdist.kernels import QuadratureResult, beta
from ifdist.moments import (
    CLOSED_FORM,
    NUMERIC,
    UNIT_INTERVAL,
    MomentResult,
    _numeric_moment,
    _standard_moment,
    mean,
    moment_exists,
    raw_moment,
    variance,
)

INF = math.inf


class TestMomentExists:
    def test_pareto_boundary_strict(self):
        ok, cond = moment_exists(IFParams(0.0, 1.0, 1.0, 1.0, 0.0), 1)
        assert not ok
        assert cond == "requires r < bq"

    def test_if2_negative_b_all_moments(self):
        ok, cond = moment_exists(IFParams(INF, -1.0, 1.0, 0.3, 0.0), 7)
        assert ok
        assert cond == "all moments exist"

    def test_if1_negative_b(self):
        assert moment_exists(IFParams(0.0, -3.0, 1.0, 1.0, 0.0), 2)[0]
        assert not moment_exists(IFParams(0.0, -3.0, 1.0, 1.0, 0.0), 3)[0]

    def test_negative_b_condition_scales_with_p(self):
        # the deformation sharpens the upper tail: at p = 1 the b = -1 member
        # has a finite mean even though the p = 0 member does not
        assert not moment_exists(IFParams(0.0, -1.0, 1.0, 1.0, 0.0), 1)[0]
        assert moment_exists(IFParams(1.0, -1.0, 1.0, 1.0, 0.0), 1)[0]
        assert not moment_exists(IFParams(1.0, -1.0, 1.0, 1.0, 0.0), 2)[0]

    def test_strict_at_equality(self):
        # r = bq exactly is out (the governing inequality is strict)
        assert not moment_exists(IFParams(0.0, 1.0, 1.0, 2.0, 0.0), 2)[0]
        assert not moment_exists(IFParams(INF, 2.0, 1.0, 1.0, 0.0), 2)[0]

    def test_non_integer_order_rejected(self):
        with pytest.raises(DomainError):
            moment_exists(IFParams(0.0, 1.0, 1.0, 5.0, 0.0), 1.5)
        with pytest.raises(DomainError):
            moment_exists(IFParams(0.0, 1.0, 1.0, 5.0, 0.0), 0)

    @pytest.mark.parametrize("r", ["two", None, [1]])
    def test_non_numeric_order_rejected(self, r):
        with pytest.raises(DomainError, match="moment order must be a positive integer"):
            raw_moment(IFParams(0.0, 1.0, 1.0, 5.0, 0.0), r)


    @pytest.mark.parametrize("r", [True, "1", pytest.param(10 ** 400, id="10**400"),
                                   pytest.param(10 ** 5000, id="10**5000")])
    @pytest.mark.parametrize("fn", [moment_exists, raw_moment])
    def test_order_follows_the_real_number_rule(self, fn, r):
        # float() used to read True and "1" as order 1, and to raise
        # OverflowError past the doubles
        with pytest.raises(DomainError, match="moment order must be a positive integer"):
            fn(IFParams(1.0, 2.0, 1.0, 2.0, 0.0), r)

    @pytest.mark.parametrize("r", [2.0, np.int64(2), np.float32(2.0)])
    def test_whole_order_of_any_real_type(self, r):
        pa = IFParams(0.0, 1.0, 1.0, 5.0, 0.0)
        assert moment_exists(pa, r) == moment_exists(pa, 2)
        assert raw_moment(pa, r) == raw_moment(pa, 2)


class TestRawMoment:
    def test_pareto_i_mean(self):
        res = raw_moment(IFParams(0.0, 1.0, 1.0, 2.0, 1.0), 1)
        assert res.exists and res.provenance == CLOSED_FORM
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_exponential_mean_is_scale(self):
        res = raw_moment(IFParams(INF, -1.0, 3.0, 1.0, 0.0), 1)
        assert res.value == pytest.approx(3.0, rel=1e-12)

    def test_exponential_higher_moments(self):
        # E[X^r] = r! for the unit exponential
        pa = IFParams(INF, -1.0, 1.0, 1.0, 0.0)
        for r, want in ((1, 1.0), (2, 2.0), (3, 6.0), (4, 24.0)):
            assert raw_moment(pa, r).value == pytest.approx(want, rel=1e-12)

    def test_general_numeric_vs_monte_carlo(self):
        pa = IFParams(2.0, 2.0, 1.0, 3.0, 0.0)
        res = raw_moment(pa, 1)
        assert res.provenance == NUMERIC and res.abs_error > 0
        xs = IFDistribution(pa).sample(1_000_000, 2718)
        se = xs.std() / 1000.0
        assert abs(res.value - xs.mean()) < 4.0 * se

    def test_corrected_tail_rule_value(self):
        # p=1, b=-1, q=1: substitution gives E[X] = 4 * int_0^1 t dt = 2
        res = raw_moment(IFParams(1.0, -1.0, 1.0, 1.0, 0.0), 1)
        assert res.provenance == NUMERIC
        assert res.value == pytest.approx(2.0, abs=1e-6)

    def test_non_existent(self):
        res = raw_moment(IFParams(0.0, 1.0, 1.0, 1.0, 0.0), 1)
        assert not res.exists
        assert res.value is None and res.constraint == "requires r < bq"

    def test_zeroth_standard_moment_is_one(self):
        # the closed forms at k = 0 used to round away from 1 on IF1/IF3,
        # which then showed as x0^r * 0.9999999999999998 in E[X^r]
        u = UniformStream(0)
        for _ in range(300):
            b, c, q, x0, p = u.draws(5) * [6.0, 1.0, 6.0, 1.0, 8.0] + 0.05
            for pa in (IFParams(0.0, b, c, q, x0), IFParams(0.0, -b, c, q, x0),
                       IFParams(p, 1.0, c, q, x0), IFParams(INF, -b, c, q, x0)):
                assert _standard_moment(pa, 0) == (1.0, 0.0), pa
        assert raw_moment(IFParams(0.7, 1.0, 1e-300, 3.0, 1.0), 2).value == 1.0


class TestMean:
    def test_rayleigh(self):
        res = mean(IFParams(INF, -1.0, 2.0, 2.0, 0.0))
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_inverse_exponential_not_defined(self):
        res = mean(IFParams(INF, 1.0, 1.0, 1.0, 0.0))
        assert not res.exists

    def test_stoppa_parameterization(self):
        # m = 2, c = 1, q = 3, x0 = c m^(-1/q): mean = m^(1-1/q) B(1-1/q, m)
        m, q = 2.0, 3.0
        pa = IFParams(m - 1.0, 1.0, 1.0, q, m ** (-1.0 / q))
        want = m ** (1.0 - 1.0 / q) * 0.9  # B(2/3, 2) = 9/10
        assert mean(pa).value == pytest.approx(want, rel=1e-12)

    def test_matches_raw_moment(self):
        for pa in (IFParams(0.0, -2.0, 1.0, 1.5, 0.5),
                   IFParams(3.0, 1.0, 2.0, 4.0, 1.0),
                   IFParams(INF, 2.0, 1.0, 3.0, 0.0)):
            assert mean(pa).value == pytest.approx(raw_moment(pa, 1).value,
                                                   rel=1e-10)


class TestOneExit:
    # a moment beyond the doubles raises NumericFailure, whichever path
    # formed it: Gamma overflow (IF2), c ** 2 in the binomial loop (IF1),
    # the x-space tolerance (General), c^2 times a finite Var(Y), and the
    # [0, 1] form's prefactor
    @pytest.mark.parametrize("fn, pa", [
        (mean, IFParams(INF, -1.0, 1.0, 0.001, 0.0)),
        (lambda pa: raw_moment(pa, 2), IFParams(0.0, 2.0, 1e200, 3.0, 0.0)),
        (lambda pa: raw_moment(pa, 2), IFParams(1.0, 2.0, 1e200, 3.0, 0.0)),
        (variance, IFParams(1.0, 2.0, 1e200, 3.0, 0.0)),
        (variance, IFParams(0.0, 2.0, 1e200, 3.0, 0.0)),
        # E[Y] itself beyond the doubles in the [0, 1] form
        (mean, IFParams(100.0, -0.1, 1.0, 0.05, 0.0)),
        (variance, IFParams(100.0, -0.1, 1.0, 0.05, 0.0)),
    ])
    def test_beyond_the_doubles_raises(self, fn, pa):
        with pytest.raises(NumericFailure, match="moment of IFParams"):
            fn(pa)

    @pytest.mark.parametrize("fn", [mean, variance, lambda pa: raw_moment(pa, 2)])
    def test_overflowing_tail_warns_nothing(self, fn):
        # the x-space integrand overflows at the upper-limit probe
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure):
                fn(IFParams(100.0, -0.1, 1.0, 0.05, 0.0))

    def test_finite_neighbours_still_answer(self):
        assert mean(IFParams(INF, -1.0, 1.0, 0.01, 0.0)).value == pytest.approx(
            math.factorial(100), rel=1e-12)
        assert variance(IFParams(0.0, 2.0, 1e100, 3.0, 0.0)).exists
        # c^2 m^(1 - 2/q) alone leaves the doubles, c^2 E[Y^2] does not;
        # 80-digit mpmath gives 5.16280345672e299
        res = raw_moment(IFParams(1e10, 1.0, 1e150, 20.0, 0.0), 2)
        assert abs(res.value - 5.16280345672e299) <= res.abs_error

    def test_non_existence_comes_first(self):
        # the existence test answers before any value is formed
        res = variance(IFParams(0.0, 2.0, 1e200, 0.9, 0.0))
        assert not res.exists and res.constraint == "requires r < bq"

    def test_mean_is_the_binomial_first_moment(self):
        # IF1 with either sign of b, IF2 with either sign, IF3
        u = UniformStream(21)
        for _ in range(200):
            b = (0.3 + 4.0 * next(u)) * (1.0 if next(u) < 0.5 else -1.0)
            q = 0.2 + 5.0 * next(u)
            c, x0, p = 0.1 + 3.0 * next(u), 2.0 * next(u), 10.0 ** (4.0 * next(u) - 2.0)
            for pa in (IFParams(0.0, b, c, q, x0), IFParams(INF, b, c, q, x0),
                       IFParams(p, 1.0, c, q, x0)):
                m = mean(pa)
                if m.exists:
                    assert m == raw_moment(pa, 1), pa


def _written_out_mean(pa: IFParams) -> float:
    """The single-beta means of the Burr/Dagum (p = 0) and Stoppa (b = 1)
    rows, as Kleiber & Kotz (2003) print them."""
    b, c, q, x0 = pa.b, pa.c, pa.q, pa.x0
    if pa.p == 0.0:
        return x0 + c * q * beta(q - 1.0 / b, 1.0 + 1.0 / b)
    m = pa.p + 1.0
    return x0 + c * m ** (1.0 - 1.0 / q) * (beta(1.0 - 1.0 / q, m) - 1.0 / m)


# (p, b, c, q, x0, variance, E[X^2]) from 60-digit mpmath over the closed
# forms q B(q - k/b, 1 + k/b) and m^(1-k/q) sum_j C(k,j) (-1)^j B(1-(k-j)/q, m)
CLOSED_SECOND_MOMENTS = [
    (9193.263317767038, 1.0, 0.03313841185748303, 17.76548131030448, 0.0,
     6.7137904430766323e-6, 0.00021693529575820479),
    (5603.221917669122, 1.0, 17.42395844566074, 3.6069216399823123, 0.0,
     118.95825819598198, 536.03506114042772),
    (0.015461632562287735, 1.0, 0.30352705673776437, 3.60794369287894,
     0.01560125139317346, 0.030463440768146591, 0.048087889955505552),
    (0.2032040228124991, 1.0, 2.9952770450441797, 2.1904707787053694,
     2.724447916154837, 73.107316504655213, 102.05257181233656),
    (1e6, 1.0, 1.0, 3.0, 0.5, 0.84530303101677247, 4.2460745727475555),
    (3e7, 1.0, 2.0, 5.0, 0.0, 0.53504568487887959, 5.6632052115391368),
    (0.0, 2.657140536928577, 4.54958990331968, 7.137646404268004, 0.0,
     0.76641529271165806, 4.7839768608119727),
    (0.0, 12.08308280263954, 0.3235033777493215, 0.2753405475808938,
     0.025315846331990747, 0.051156219385958968, 0.27947525231617305),
    (0.0, -10.35879247566355, 0.013540970416550016, 0.43831426170220883,
     0.012361417471486363, 8.6098939629150043e-6, 0.00059502441359612173),
    (0.0, -2.9710981149385276, 14.801870286248509, 0.4723287369104683,
     6.269030146950143, 145.02524178973573, 493.28317800741631),
]


class TestOneMomentEngine:
    """mean is the r = 1 raw moment on every path: its IF1/IF3 terms round
    as (c scale) sum coef B with B(1, m) = 1/m, which is the rounding of the
    written-out single-beta means."""

    def test_mean_is_the_written_out_form_bit_for_bit(self):
        u = UniformStream(17)
        checked = 0
        for _ in range(400):
            b = 10.0 ** (2.3 * next(u) - 1.0) * (1.0 if next(u) < 0.5 else -1.0)
            q = 10.0 ** (2.0 * next(u) - 0.7)
            c, x0 = 10.0 ** (4.0 * next(u) - 2.0), 10.0 ** (4.0 * next(u) - 2.0)
            p = 10.0 ** (6.0 * next(u) - 2.0)
            for pa in (IFParams(0.0, b, c, q, x0), IFParams(p, 1.0, c, q, x0)):
                try:
                    m = mean(pa)
                except NumericFailure:
                    continue
                if m.exists:
                    assert m.value == _written_out_mean(pa), pa
                    checked += 1
        assert checked > 400

    @pytest.mark.parametrize("p, b, c, q, x0, var, m2", CLOSED_SECOND_MOMENTS)
    def test_second_moments_match_mpmath(self, p, b, c, q, x0, var, m2):
        pa = IFParams(p, b, c, q, x0)
        for res, want in ((variance(pa), var), (raw_moment(pa, 2), m2)):
            assert res.provenance == CLOSED_FORM
            assert abs(res.value - want) <= res.abs_error < 1e-4 * want

    def test_infinite_node_answers_the_parent_result(self):
        # x^r pdf overflows at a node next to x0 (log_pdf_offset is 709.3
        # there): the x-space quadrature stops unconverged without a warning
        # and the [0, 1] form answers
        pa = IFParams(0.028890671008554407, 0.04715556254465179,
                      7.016533169591586e18, 379.80210689405845, 2.76619020069903e165)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = mean(pa)
        assert res == MomentResult(value=2.76619020069903e+165, provenance=UNIT_INTERVAL,
                                   abs_error=3.0710880513085458e+150)


class TestClosedFormVarianceError:
    # c^2 (E[Y^2] - E[Y]^2) cancels at large |b|q; the variances from
    # 50-digit mpmath
    @pytest.mark.parametrize("pa", [IFParams(INF, 1e4, 1.0, 1e4, 0.0),
                                    IFParams(INF, -1e4, 1.0, 1e4, 0.0)])
    def test_value_not_above_its_error_raises(self, pa):
        # the doubles give 2.2e-16 and 1.1e-16; the true values are 1.645e-16
        with pytest.raises(NumericFailure, match="not above its error bound"):
            variance(pa)

    def test_error_covers_the_beta_rounding(self):
        # 0.15% off: the betas at q = 1e4 carry ln_gamma values near 8e4
        res = variance(IFParams(0.0, -1e4, 1.0, 1e4, 0.0))
        assert res.provenance == CLOSED_FORM
        assert res.value == 1.6510019351656524e-08
        assert abs(res.value - 1.64849834290597e-08) <= res.abs_error < 0.1 * res.value

    @pytest.mark.parametrize("pa", [IFParams(0.0, 2.0, 1.0, 3.0, 0.5),
                                    IFParams(INF, -1.0, 2.0, 2.0, 0.0),
                                    IFParams(3.0, 1.0, 1.0, 3.0, 0.0)])
    def test_every_closed_form_states_an_error(self, pa):
        res = variance(pa)
        assert res.provenance == CLOSED_FORM
        assert 0.0 < res.abs_error < 1e-12 * res.value


class TestClosedFormMeanError:
    # the betas at q = 1e4 carry ln_gamma values near 8e4; 40-digit mpmath
    # gives q B(q - 1/b, 1 + 1/b) = 1.00097923796990668 here
    @pytest.mark.parametrize("fn", [mean, lambda pa: raw_moment(pa, 1)])
    def test_error_covers_the_beta_rounding(self, fn):
        res = fn(IFParams(0.0, -1e4, 1.0, 1e4, 0.0))
        assert res.provenance == CLOSED_FORM
        assert res.value == 1.0009792379563192
        assert abs(res.value - 1.00097923796990668) <= res.abs_error < 1e-9

    # at p = 1e200, p + 1.0 + (1 - 1/q) rounds to p + 1.0, so each beta
    # reads 1 and their difference cancels: the written-out mean gives 1e198
    # where the true value is about 0.996
    @pytest.mark.parametrize("fn", [mean, lambda pa: raw_moment(pa, 1),
                                    lambda pa: raw_moment(pa, 2)])
    def test_value_not_above_its_error_raises(self, fn):
        with pytest.raises(NumericFailure, match="not above its error bound"):
            fn(IFParams(1e200, 1.0, 1.0, 100.0, 0.0))

    @pytest.mark.parametrize("pa", [IFParams(0.0, 2.0, 1.0, 3.0, 0.5),
                                    IFParams(INF, -1.0, 2.0, 2.0, 0.0),
                                    IFParams(3.0, 1.0, 1.0, 3.0, 0.0)])
    @pytest.mark.parametrize("fn", [mean, lambda pa: raw_moment(pa, 2)])
    def test_every_closed_form_states_an_error(self, pa, fn):
        res = fn(pa)
        assert res.provenance == CLOSED_FORM
        assert 0.0 < res.abs_error < 1e-12 * res.value


class TestUnitIntervalUnderflow:
    # both closed-form end terms underflow at large p and small q, so the
    # quadrature tolerance would be 0; the p = inf limit of the mean is
    # c Gamma(1 - 1/(bq)) = 2.8e37
    @pytest.mark.parametrize("fn", [mean, variance, lambda pa: raw_moment(pa, 2)])
    def test_numeric_failure_not_domain_error(self, fn):
        with pytest.raises(NumericFailure, match="underflows"):
            fn(IFParams(1e12, -0.15, 1.0, 0.2, 0.0))


class TestUnconvergedQuadrature:
    """Where every quadrature stops unconverged, the numeric paths raise."""

    @pytest.fixture(autouse=True)
    def unconverged(self, monkeypatch):
        monkeypatch.setattr(moments, "integrate",
                            lambda *args, **kw: QuadratureResult(1.0, 1.0, False, 15))

    def test_quadrature_returns_none(self):
        # the x-space quadrature alone, on the subfamilies (IF1, IF2, IF3)
        # and off them: None, and the caller decides
        for pa in (IFParams(0.0, 2.0, 1.0, 3.0, 0.0), IFParams(INF, 1.5, 1.0, 2.0, 0.0),
                   IFParams(2.0, 1.0, 1.0, 3.0, 0.0), IFParams(2.0, 2.0, 1.0, 3.0, 0.0)):
            assert _numeric_moment(pa, 1) is None

    def test_check_suite_raises(self, capsys):
        # the subfamilies have no [0, 1] fallback: their closed forms are
        # checked against this quadrature, so the moments suite fails
        assert cli.main(["check", "--suite", "moments"]) == 2
        assert "moment quadrature did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("fn", [mean, variance, lambda pa: raw_moment(pa, 2)])
    def test_unresolved_unit_form_raises(self, fn):
        with pytest.raises(NumericFailure, match=r"\[0, 1\] moment form did not resolve"):
            fn(IFParams(2.0, 2.0, 1.0, 3.0, 0.0))


class TestVariance:
    def test_exponential(self):
        assert variance(IFParams(INF, -1.0, 1.0, 1.0, 0.0)).value == pytest.approx(
            1.0, rel=1e-12)

    def test_pareto_ii_q3(self):
        # Lomax variance c^2 q / ((q-1)^2 (q-2)) = 3/4 at c=1, q=3
        res = variance(IFParams(0.0, 1.0, 1.0, 3.0, 0.0))
        assert res.value == pytest.approx(0.75, rel=1e-10)
        xs = IFDistribution(IFParams(0.0, 1.0, 1.0, 3.0, 0.0)).sample(1_000_000, 5)
        assert abs(res.value - xs.var()) < 5.0 * xs.var() / 100.0

    def test_pareto_i_q2_not_defined(self):
        res = variance(IFParams(0.0, 1.0, 1.0, 2.0, 1.0))
        assert not res.exists and res.constraint == "requires r < bq"

    def test_location_invariance(self):
        v0 = variance(IFParams(0.0, 1.0, 2.0, 5.0, 0.0)).value
        v1 = variance(IFParams(0.0, 1.0, 2.0, 5.0, 7.0)).value
        assert v0 == pytest.approx(v1, rel=1e-12)

    def test_general_numeric(self):
        pa = IFParams(2.0, 2.0, 1.0, 3.0, 0.0)
        res = variance(pa)
        assert res.provenance == NUMERIC and res.value > 0
        xs = IFDistribution(pa).sample(1_000_000, 6)
        assert res.value == pytest.approx(xs.var(), rel=0.02)


class TestInvariants:
    def test_if3_double_sum_vs_quadrature(self):
        for p in (0.5, 1.0, 4.0):
            for q in (3.0, 5.0):
                for r in (1, 2):
                    pa = IFParams(p, 1.0, 1.0, q, 0.5)
                    cf = raw_moment(pa, r)
                    nm = _numeric_moment(pa, r)
                    assert nm is not None, f"moment quadrature did not converge for {pa} r={r}"
                    assert cf.provenance == CLOSED_FORM
                    assert abs(cf.value - nm.value) <= 1e-6 * (1.0 + abs(cf.value))

    def test_zero_location_collapses_sum(self):
        # with x0 = 0 only the i = 0 binomial term contributes
        pa = IFParams(0.0, 2.0, 1.5, 3.0, 0.0)
        full = raw_moment(pa, 2).value
        single = pa.c ** 2 * pa.q * (
            math.gamma(pa.q - 1.0) * math.gamma(2.0) / math.gamma(pa.q + 1.0))
        assert full == pytest.approx(single, rel=1e-12)

    def test_existence_boundary_signature(self):
        # q = 1 + 1e-3: the mean exists; truncated integrals are bounded by
        # the closed form and their decade increments shrink.  q = 1 exactly:
        # the increments stabilize at a constant (logarithmic divergence).
        def truncated(q):
            d = IFDistribution(IFParams(0.0, 1.0, 1.0, q, 0.0))
            f = lambda ds: np.asarray(ds) * d.pdf_offset(ds)
            return np.array([integrate(f, 0.0, 10.0 ** k, 1e-10).value
                             for k in range(1, 9)])

        ok, _ = moment_exists(IFParams(0.0, 1.0, 1.0, 1.001, 0.0), 1)
        assert ok
        T = truncated(1.001)
        inc = np.diff(T)
        assert (T < mean(IFParams(0.0, 1.0, 1.0, 1.001, 0.0)).value).all()
        assert inc[-1] / inc[-2] < 0.999

        ok, _ = moment_exists(IFParams(0.0, 1.0, 1.0, 1.0, 0.0), 1)
        assert not ok
        T = truncated(1.0)
        inc = np.diff(T)
        assert (inc > 0).all()
        assert inc[-1] / inc[-2] >= 0.999

    def test_numeric_failure_is_not_nonexistent(self):
        res = MomentResult(constraint="requires r < bq")
        assert not res.exists
        assert not isinstance(res, NumericFailure)


def _mp_standard_moment(p, b, q, k):
    """E[Y^k] from the [0, 1] form at 50 digits, with both end terms taken
    in closed form and subtracted: the mass of v^(a-1) below v = 1e-30 is
    beyond a plain quadrature near the existence boundary."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    p, b, q = mp.mpf(p), mp.mpf(b), mp.mpf(q)
    kb = k / b
    a, bt = q - kb, kb + p + 1
    half = mp.mpf(1) / 2
    lower = lambda v: v ** (a - 1) * mp.expm1(kb * mp.log1p(-v)
                                              + p * mp.log1p(-v ** q))
    upper = lambda w: w ** (bt - 1) * ((1 - w) ** (a - 1) * (
        -mp.expm1(q * mp.log1p(-w)) / w) ** p - q ** p)
    total = (mp.quad(lower, [0, half]) + mp.quad(upper, [0, half])
             + half ** a / a + q ** p * half ** bt / bt)
    return (p + 1) ** (1 - k / (b * q)) * q * total


# (p, b, q, k, E[Y^k]) from _mp_standard_moment: the points of benchmark
# `analysis` seed 1 whose x-space moments do not finish within the budget
# (SEED1 below), the bq = 2.01 and b < 0 variance points, the bq = 1.01 mean
# and the tiny-c point's shape
UNIT_CASES = [
    (0.11734045868201377, -2.6296565779815104, 1.0782892151687442, 1, 1.2633891348642771),
    (0.11734045868201377, -2.6296565779815104, 1.0782892151687442, 2, 2.80983310365813),
    (0.11856868528308277, -2.5975875966777315, 0.6484197773255048, 1, 0.98989383159921677),
    (0.11856868528308277, -2.5975875966777315, 0.6484197773255048, 2, 1.9427915382971833),
    (0.11856868528308277, -2.5975875966777315, 1.8340080864093422, 1, 1.6143736915337395),
    (0.11856868528308277, -2.5975875966777315, 1.8340080864093422, 2, 4.3942398841378549),
    (0.11856868528308277, -2.5975875966777315, 3.0844216508158815, 1, 2.0135744100274432),
    (0.11856868528308277, -2.5975875966777315, 3.0844216508158815, 2, 6.6028199736502439),
    (0.11856868528308277, -1.0954451150103321, 0.6484197773255048, 1, 3.4760953104622837),
    (0.11856868528308277, -1.0954451150103321, 1.8340080864093422, 1, 8.6681735425210226),
    (0.11856868528308277, -1.0954451150103321, 3.0844216508158815, 1, 13.862322992563644),
    (0.11856868528308277, 1.0954451150103321, 1.8340080864093422, 1, 1.1108090160319579),
    (0.11856868528308277, 1.0954451150103321, 1.8340080864093422, 2, 219.35546522527345),
    (0.5, -1.5, 2.0, 1, 2.3254358933770576),
    (0.5, -1.5, 2.0, 2, 25.54985240376934),
    (0.5, 1.5, 0.6733333333, 1, 100.50606645257416),
    (0.5, 1.5, 1.34, 1, 1.4478703911681225),
    (0.5, 1.5, 1.34, 2, 199.6204444552933),
    (0.5, 1.5, 2.0, 1, 0.89262234400403071),
    (0.5, 1.5, 2.0, 2, 1.7503243724185015),
    (0.6667607160816621, 1.0954451150103321, 1.8340080864093422, 1, 1.2125385629695392),
    (0.6667607160816621, 1.0954451150103321, 1.8340080864093422, 2, 219.63673634420304),
    (3.7494710466622796, -1.0954451150103321, 3.0844216508158815, 1, 2.135966386582133),
    (3.7494710466622796, -1.0954451150103321, 3.0844216508158815, 2, 7.2235023414117624),
    (3.7494710466622796, -0.4619670965224728, 0.6484197773255048, 1, 9.3045523857493837),
    (3.7494710466622796, -0.4619670965224728, 0.6484197773255048, 2, 23387.290362142583),
    (3.7494710466622796, -0.4619670965224728, 1.0905077326652575, 1, 5.6944899039114478),
    (3.7494710466622796, -0.4619670965224728, 1.0905077326652575, 2, 3644.0706285258263),
    (3.7494710466622796, -0.4619670965224728, 1.8340080864093422, 1, 7.0372071753630696),
    (3.7494710466622796, -0.4619670965224728, 1.8340080864093422, 2, 3052.453479476377),
    (3.7494710466622796, -0.4619670965224728, 3.0844216508158815, 1, 12.853973542654109),
    (3.7494710466622796, -0.4619670965224728, 3.0844216508158815, 2, 6897.7907962120292),
    (3.7494710466622796, 1.0954451150103321, 1.8340080864093422, 1, 1.4257523440552067),
    (3.7494710466622796, 1.0954451150103321, 1.8340080864093422, 2, 220.24087674342445),
    (21.08482517142911, -0.4619670965224728, 3.0844216508158815, 1, 2.9809212316722269),
    (21.08482517142911, -0.4619670965224728, 3.0844216508158815, 2, 23.04758067644079),
    (21.08482517142911, 1.0954451150103321, 1.8340080864093422, 1, 1.6089575093093491),
    (21.08482517142911, 1.0954451150103321, 1.8340080864093422, 2, 220.79315317725386),
]
_UNIT = {case[:4]: case[4] for case in UNIT_CASES}

# the last is the benchmark's variance-defect point, where the x-space
# variance converged (beyond the present budget) 22 times outside its error
SEED1 = [
    IFParams(0.11856868528308277, -1.0954451150103321, 2.5889230412506854, 0.6484197773255048, 0.4228167410468132),
    IFParams(0.11856868528308277, -1.0954451150103321, 2.512637082862524, 1.8340080864093422, 1.4455063092674563),
    IFParams(0.11856868528308277, -1.0954451150103321, 0.8763120760529437, 3.0844216508158815, 0.7233185822990048),
    IFParams(0.11856868528308277, -2.5975875966777315, 2.736789655490434, 0.6484197773255048, 0.6340753604181559),
    IFParams(0.11856868528308277, -2.5975875966777315, 2.1836497178823473, 1.8340080864093422, 1.3786329294507338),
    IFParams(0.11856868528308277, -2.5975875966777315, 2.567063323891803, 3.0844216508158815, 1.3282804000649202),
    IFParams(0.11856868528308277, 1.0954451150103321, 1.4906404055424662, 1.8340080864093422, 0.008736892661971418),
    IFParams(0.6667607160816621, 1.0954451150103321, 1.8140738079056353, 1.8340080864093422, 0.22357203505606882),
    IFParams(3.7494710466622796, -0.4619670965224728, 1.0030080018116612, 0.6484197773255048, 1.4823283518303185),
    IFParams(3.7494710466622796, -0.4619670965224728, 2.395764655009546, 1.0905077326652575, 0.5396803897389153),
    IFParams(3.7494710466622796, -0.4619670965224728, 2.103783973764008, 1.8340080864093422, 0.5714723089396313),
    IFParams(3.7494710466622796, -0.4619670965224728, 1.4537323315998, 3.0844216508158815, 0.7557044252917944),
    IFParams(3.7494710466622796, -1.0954451150103321, 1.0232026065444637, 3.0844216508158815, 1.3575038562271944),
    IFParams(3.7494710466622796, 1.0954451150103321, 2.653166711967485, 1.8340080864093422, 1.098541255988407),
    IFParams(21.08482517142911, -0.4619670965224728, 0.979496791808916, 3.0844216508158815, 0.8054581193576889),
    IFParams(21.08482517142911, 1.0954451150103321, 1.6581000907184498, 1.8340080864093422, 1.3267822974271695),
    IFParams(0.11734045868201377, -2.6296565779815104, 2.812690941815569, 1.0782892151687442, 1.0396889933649844),
]


def _unit_reference(pa, k):
    return _UNIT[(pa.p, pa.b, pa.q, k)]


class TestUnitIntervalForm:
    """Moments the x-space quadrature cannot finish within its budget come
    from the [0, 1] form: E[Y^k] by _standard_moment, E[X^r] through the
    binomial expansion."""

    @pytest.mark.parametrize("p, b, q, k, want", UNIT_CASES)
    def test_standard_moment_matches_mpmath(self, p, b, q, k, want):
        got, err = _standard_moment(IFParams(p, b, 1.0, q, 0.0), k)
        assert got == pytest.approx(want, rel=1e-12)
        assert 0.0 < err <= 1e-10 * got

    @pytest.mark.parametrize("p, b, q, k, want", UNIT_CASES)
    def test_references_match_mpmath(self, p, b, q, k, want):
        assert float(_mp_standard_moment(p, b, q, k)) == pytest.approx(
            want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("pa", SEED1)
    def test_budget_misses_answered(self, pa):
        m1 = _unit_reference(pa, 1)
        answered = 0
        res = mean(pa)
        if res.provenance == UNIT_INTERVAL:
            assert res.value == pytest.approx(pa.x0 + pa.c * m1, rel=1e-12)
            answered += 1
        if moment_exists(pa, 2)[0]:
            res = variance(pa)
            assert res.provenance in (NUMERIC, UNIT_INTERVAL)
            if res.provenance == UNIT_INTERVAL:
                want = pa.c ** 2 * (_unit_reference(pa, 2) - m1 * m1)
                assert res.value == pytest.approx(want, rel=1e-12)
                assert 0.0 < res.abs_error <= 1e-10 * res.value
                answered += 1
        assert answered

    def test_variance_defect_point(self):
        # the x-space variance converged to 9.601687661843316 with error
        # 1.6e-8 under the old budget; mpmath gives 9.6017099239...
        res = variance(SEED1[-1])
        assert res.provenance == UNIT_INTERVAL
        assert res.value == pytest.approx(9.60170992394377, rel=1e-12)

    def test_bq_201_variance(self):
        res = variance(IFParams(0.5, 1.5, 1.0, 1.34, 0.0))
        want = 199.6204444552933 - 1.4478703911681225 ** 2
        assert res.provenance == UNIT_INTERVAL
        assert res.value == pytest.approx(want, rel=1e-12)

    def test_negative_b_second_moment(self):
        res = raw_moment(IFParams(0.5, -1.5, 1.0, 2.0, 0.0), 2)
        assert res.provenance == UNIT_INTERVAL
        assert res.value == pytest.approx(25.54985240376934, rel=1e-12)

    def test_tiny_c_mean(self):
        # the whole x-space integral sits below its absolute tolerance
        res = mean(IFParams(0.5, 1.5, 1e-200, 2.0, 0.0))
        assert res.provenance == UNIT_INTERVAL
        assert res.value == pytest.approx(1e-200 * 0.89262234400403071,
                                          rel=1e-12, abs=0)

    @pytest.mark.parametrize("b, q, k", [(1.5, 2.0, 1), (-3.5, 2.0, 2),
                                         (0.7, 3.1, 2), (1.01, 1.0, 1),
                                         (-2.01, 0.6, 2)])
    def test_p_zero_closed_form(self, b, q, k):
        # the General path at p = 0: q B(q - k/b, 1 + k/b)
        got, _ = _standard_moment(IFParams(1e-300, b, 1.0, q, 0.0), k)
        assert got == pytest.approx(q * beta(q - k / b, 1.0 + k / b), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("p, q, k", [(0.5, 2.0, 1), (3.0, 1.5, 1),
                                         (0.3, 3.0, 2), (2.0, 2.02, 2)])
    def test_b_one_closed_form(self, p, q, k):
        near = IFParams(p, 1.0 + 2.0 ** -52, 1.0, q, 0.0)
        got, _ = _standard_moment(near, k)
        want, _ = _standard_moment(IFParams(p, 1.0, 1.0, q, 0.0), k)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_converging_calls_stay_numeric(self):
        assert mean(IFParams(2.0, 2.0, 1.0, 3.0, 0.0)).provenance == NUMERIC
        assert variance(IFParams(2.0, 2.0, 1.0, 3.0, 0.0)).provenance == NUMERIC

    def test_nan_density_still_raises(self):
        nan_point = IFParams(6.110284993404673, 2.2938144691702855,
                             1.823280400491926, 3.400199961998661,
                             0.8293116987113416)
        with pytest.raises(NumericFailure, match="NaN"):
            mean(nan_point)


# Means of open defects, each a strict xfail naming its ROADMAP item.  The
# references were computed once with mpmath at 40 and 80 digits (the two
# agree to 25), so no mpmath is needed here.  Each comes from a form whose
# integrand is bounded: the [0, 1] form with v = s^(1/a) below 1/2 and
# 1 - v = t^(1/beta) above it, or, at p = 1e12, u = p v^q, where
# (1 - u/p)^p decays like e^(-u).  The IF3 mean at p = 1e200 is the closed
# form m^(1 - 1/q) (B(1 - 1/q, m) - 1/m) at 250 and 300 digits, and the
# same u form with u = s^(q/a) agrees.
OPEN_DEFECT_MEANS = [
    pytest.param(IFParams(0.0025492254626320633, -1.3838072136940511, 1.0,
                          2.7304148267427943, 0.0), 6.434419392358350,
                 marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                     "the x-space quadrature converges to 6.4343796977033465 "
                     "with error 1e-9 (ROADMAP item 3)")),
                 id="x-space-silently-wrong"),
    pytest.param(IFParams(1.0, -1.5, 1.0, 1.0 / 3.0, 1.0), 1.9334449988582002,
                 marks=pytest.mark.xfail(strict=True, raises=NumericFailure, reason=(
                     "the b < 0 far-tail density is NaN, and the x-space "
                     "quadrature raises before the [0, 1] form (ROADMAP item 3)")),
                 id="far-tail-nan"),
    pytest.param(IFParams(1e12, -0.15, 1.0, 0.2, 0.0), 2.8038651505428394e37,
                 marks=pytest.mark.xfail(strict=True, raises=NumericFailure, reason=(
                     "the [0, 1] integrand lies below the doubles, about 1e-374 "
                     "(ROADMAP item 3)")),
                 id="unit-form-underflow"),
    pytest.param(IFParams(1e200, 1.0, 1.0, 100.0, 0.0), 0.9958719796441078,
                 marks=pytest.mark.xfail(strict=True, raises=NumericFailure, reason=(
                     "the IF3 betas at m = 1e200 cancel in ln Gamma "
                     "(ROADMAP item 5)")),
                 id="if3-large-p-beta"),
]


@pytest.mark.parametrize("pa, want", OPEN_DEFECT_MEANS)
def test_open_defect_mean(pa, want):
    res = mean(pa)
    assert res.value == pytest.approx(want, rel=1e-12)


# the IF3 mean c m^(1 - 1/q) (B(1 - 1/q, m) - 1/m) at IFParams(1e12, 1, 1, 2,
# 0), m = 1e12 + 1, from mpmath at 50 and 80 digits (they agree to 25)
IF3_MEAN_AT_1E12 = 1.7724528509057376


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "beta(1/2, 1e12 + 1) is 9.6e-4 off, so the IF3 mean reads 1.77415 with an "
    "error bound of 0.12 (ROADMAP item 5)"))
def test_if3_mean_at_large_p():
    res = mean(IFParams(1e12, 1.0, 1.0, 2.0, 0.0))
    assert res.value == pytest.approx(IF3_MEAN_AT_1E12, rel=1e-12)
    assert res.abs_error <= 1e-12 * IF3_MEAN_AT_1E12
