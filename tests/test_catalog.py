import dataclasses
import json
import math
import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from ifdist import DomainError, IFParams, NumericFailure, UniformStream
from ifdist.catalog import (
    CATALOG,
    TREE_EDGES,
    _compiled,
    _evaluate,
    catalog_names,
    entry,
    named,
    records,
    resolve,
    table1_mean,
)
from ifdist.kernels import beta
from ifdist.moments import mean, moment_exists

INF = math.inf

# seeded argument draws per entry, honoring constraints with margin so the
# tabled means stay well-defined
def draw_args(e, u):
    args = {}
    for pname, constraint in e.free_parameters:
        if pname == "gamma":
            args[pname] = 0.1 + 0.7 * next(u)          # gamma < 1 < q margins
        elif pname == "b":
            if "b < 0" in constraint:
                args[pname] = -4.0 + 2.5 * next(u)      # in [-4, -1.5]
            else:
                args[pname] = 1.5 + 3.0 * next(u)       # in [1.5, 4.5]
        elif pname == "m":
            args[pname] = 1.5 + 3.0 * next(u)
        elif pname == "q":
            args[pname] = 1.6 + 3.0 * next(u)           # q > 1.6
        elif pname == "c":
            args[pname] = 0.5 + 4.0 * next(u)
        elif pname == "x0":
            args[pname] = 2.0 * next(u)
        elif pname == "p":
            args[pname] = 0.3 + 4.0 * next(u)
    return args


class TestNamed:
    def test_exponential(self):
        assert named("exponential", c=1) == IFParams(INF, -1.0, 1.0, 1.0, 0.0)

    def test_pareto_i(self):
        assert named("pareto_i", x0=1, q=2) == IFParams(0.0, 1.0, 1.0, 2.0, 1.0)

    def test_burr_xii(self):
        assert named("burr_xii", b=2, q=3) == IFParams(0.0, 2.0, 1.0, 3.0, 0.0)

    def test_weibull_triplet(self):
        assert named("weibull", c=2, q=3, x0=1) == IFParams(INF, -1.0, 2.0, 3.0, 1.0)

    def test_stoppa_location_lock(self):
        pa = named("stoppa", m=2, c=1, q=3)
        assert pa.x0 == 2.0 ** (-1.0 / 3.0)

    def test_pareto_iv_gamma_conversion(self):
        pa = named("pareto_iv", gamma=0.5, c=1, q=3, x0=0)
        assert pa.b == 2.0

    def test_unknown_name(self):
        with pytest.raises(DomainError, match="unknown distribution"):
            named("nonexistent", c=1)

    def test_constraint_violation(self):
        with pytest.raises(DomainError, match="negative"):
            named("dagum", b=2.0, c=1, q=1)

    # one entry per constraint form, several arguments out of range at once;
    # the messages were recorded from the hand-written checks they replace
    @pytest.mark.parametrize("name, args, message", [
        ("if1", dict(b=0, c=0, q=-1, x0=-1), "if1: b must be nonzero; "
         "c must be positive; q must be positive; x0 must be nonnegative"),
        ("lomax", dict(c=0, q=-2), "lomax: c must be positive; q must be positive"),
        ("weibull", dict(c=-1, q=1, x0=-0.5),
         "weibull: c must be positive; x0 must be nonnegative"),
        ("dagum", dict(b=1, c=-1, q=1), "dagum: b must be negative; c must be positive"),
        ("stoppa", dict(m=1, c=1, q=0), "stoppa: m must exceed 1; q must be positive"),
        ("if3", dict(p=INF, c=1, q=1, x0=-1),
         "if3: p must be in (0, inf); x0 must be nonnegative"),
        ("generalized_lomax", dict(m=math.nan, c=math.nan, q=1),
         "generalized_lomax: m must exceed 1; c must be positive"),
    ])
    def test_every_violation_reported_in_order(self, name, args, message):
        with pytest.raises(DomainError) as exc:
            named(name, **args)
        assert str(exc.value) == message

    # infinite (or, for b, NaN) arguments pass the constraint texts, but
    # their image is no point of the family
    @pytest.mark.parametrize("name, args, problem", [
        ("pareto_iv", dict(gamma=INF, c=1, q=2, x0=0), "b must be nonzero and finite"),
        ("lomax", dict(c=1, q=INF), "q must be positive and finite"),
        ("weibull", dict(c=INF, q=1, x0=0), "c must be positive and finite"),
        ("pareto_i", dict(x0=INF, q=2), "c must be positive and finite; "
         "x0 must be nonnegative and finite"),
        ("if1", dict(b=math.nan, c=1, q=1, x0=0), "b must be nonzero and finite"),
    ])
    def test_image_outside_the_family(self, name, args, problem):
        for fn in (named, table1_mean):
            if fn is table1_mean and CATALOG[name].mean_text is None:
                continue
            with pytest.raises(DomainError) as exc:
                fn(name, **args)
            assert str(exc.value).startswith(f"{name} maps ")
            assert str(exc.value).endswith(f" outside the family: {problem}")

    def test_infinite_m_is_the_p_inf_edge(self):
        gumbel = named("gumbel_ii", c=2, q=3)
        assert named("generalized_lomax", m=INF, c=2, q=3) == gumbel
        assert named("stoppa", m=INF, c=2, q=3) == gumbel

    @pytest.mark.parametrize("bad", [True, "2", None,
                                     pytest.param(10 ** 400, id="10**400"),
                                     pytest.param(10 ** 5000, id="10**5000")])
    @pytest.mark.parametrize("fn", [named, table1_mean])
    def test_argument_that_is_not_a_real_double_rejected(self, fn, bad):
        # IFParams' rule: float() used to read True as 1 and "2" as 2, and
        # to raise TypeError on None and OverflowError past the doubles
        with pytest.raises(DomainError, match="lomax: c must be a real number, got"):
            fn("lomax", c=bad, q=2)

    @pytest.mark.parametrize("c, q", [(2, np.int64(3)), (np.float32(2.0), 3.0),
                                      (np.float64(2.0), 3)])
    def test_int_and_numpy_arguments_keep_their_values(self, c, q):
        assert named("lomax", c=c, q=q) == named("lomax", c=2.0, q=3.0)
        assert table1_mean("lomax", c=c, q=q) == table1_mean("lomax", c=2.0, q=3.0)

    def test_missing_and_extra_args(self):
        with pytest.raises(DomainError, match="missing"):
            named("exponential")
        with pytest.raises(DomainError, match="unexpected"):
            named("exponential", c=1, q=2)


class TestResolve:
    def test_exponential_is_weibull(self):
        names = resolve(IFParams(INF, -1.0, 3.0, 1.0, 0.0))
        assert names[0] == "exponential"
        assert "weibull" in names and "weibull_2p" in names

    def test_pareto_chain(self):
        names = resolve(IFParams(0.0, 1.0, 2.0, 3.0, 2.0))
        assert names[:3] == ["pareto_i", "pareto_ii", "pareto_iv"]

    def test_general_point_matches_nothing(self):
        assert resolve(IFParams(2.5, 1.7, 1.0, 1.0, 0.0)) == []

    def test_gumbel_and_frechet_2p_are_both_reported(self):
        names = resolve(IFParams(INF, 1.0, 2.0, 3.0, 0.0))
        assert "gumbel_ii" in names and "frechet_2p" in names

    def test_corner_grid_pinned(self):
        # p, b at and around their special values, c, q, x0 on small corner
        # values (x0 = c for Pareto I), plus the Stoppa location lock; the
        # expected lists were recorded from the hand-written predicates
        data = json.loads((Path(__file__).parent / "data"
                           / "resolve_corner_grid.json").read_text())
        points = list(product([0.0, 0.5, 2.0, INF], [1.0, -1.0, -0.5, 2.0],
                              [0.7, 1.0, 2.0, 3.0], [0.7, 1.0, 2.0, 3.0],
                              [0.0, 0.7, 1.0, 2.0, 3.0]))
        points.append((1.0, 1.0, 1.0, 3.0, 2.0 ** (-1.0 / 3.0)))
        assert len(points) == len(data["index"])
        wrong = [(pt, resolve(IFParams(*pt)), data["outcomes"][k])
                 for pt, k in zip(points, data["index"])
                 if resolve(IFParams(*pt)) != data["outcomes"][k]]
        assert not wrong, wrong[:5]

    def test_read_back_parameter_is_not_compared(self):
        # 1/(1/49) is 49.00000000000001: b holds by the inverse gamma = 1/b
        assert 1.0 / (1.0 / 49.0) != 49.0
        names = resolve(IFParams(0.0, 49.0, 1.0, 1.0, 0.0))
        assert "pareto_iv" in names and "pareto_iii" in names

    def test_arguments_no_double_reaches(self):
        # m = p + 1 rounds to 1 (not > 1), gamma = 1/b overflows to inf, and
        # m = inf is the p -> inf edge to Gumbel II, not a member
        assert resolve(IFParams(1e-20, 1.0, 1.0, 2.0, 0.0)) == ["if3"]
        assert "pareto_iv" not in resolve(IFParams(0.0, 1e-310, 1.0, 2.0, 0.0))
        assert "generalized_lomax" not in resolve(IFParams(INF, 1.0, 1.0, 2.0, 0.0))

    def test_read_back_outside_the_family_is_no_match(self):
        # gamma = 1/b is subnormal here and maps back to b = inf, which
        # named("pareto_iv", gamma=5.56e-309, ...) refuses as well
        assert resolve(IFParams(0.0, 1.7976931348623157e308, 1.0, 1.0, 0.0)) == [
            "burr_xii", "fisk", "tadikamalla_burr_xii", "if1"]
        with pytest.raises(DomainError, match="maps .* outside the family"):
            named("pareto_iv", gamma=5.56e-309, c=1, q=1, x0=0)

    def test_invalid_point_rejected(self):
        # q = 0 used to reach the Stoppa predicate's 1/q
        with pytest.raises(DomainError, match="q must be positive"):
            resolve(IFParams(1.0, 1.0, 1.0, 0.0, 0.0))
        with pytest.raises(DomainError, match="c must be positive"):
            resolve(IFParams(0.0, 1.0, 0.0, 1.0, 0.0))

    def test_contains_own_name(self):
        u = UniformStream(2024)
        for name in catalog_names():
            e = CATALOG[name]
            args = draw_args(e, u)
            assert name in resolve(named(name, **args)), name


# the Stoppa mean c m^(1 - 1/q) B(1 - 1/q, m) at m = 1e16, c = 1, q = 2, from
# mpmath at 50 and 80 digits (they agree to 25)
STOPPA_MEAN_AT_1E16 = 1.7724538509055160


class TestTable1Mean:
    def test_rayleigh(self):
        res = table1_mean("rayleigh", c=2)
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_inverse_exponential_not_defined(self):
        assert not table1_mean("inverse_exponential", c=1).exists

    def test_lomax(self):
        assert table1_mean("lomax", c=3, q=4).value == pytest.approx(1.0, rel=1e-14)

    def test_constraint_column(self):
        assert not table1_mean("pareto_ii", c=1, q=0.8, x0=0).exists
        assert not table1_mean("fisk", b=0.9, c=1).exists
        assert not table1_mean("dagum", b=-0.5, c=1, q=2).exists

    def test_non_existence_reads_the_family_condition(self):
        assert (table1_mean("dagum", b=-0.5, c=1, q=2).constraint
                == "requires r < -b(p+1)")
        assert table1_mean("fisk", b=0.9, c=1).constraint == "requires r < bq"
        assert (table1_mean("inverse_exponential", c=1).constraint
                == "requires r < bq")

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            table1_mean("nope", c=1)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "beta(1/2, 1e16) reads exactly 1.0, so the closed form reads 1e8 with "
        "abs_error 0.0, and mean() at the same point raises NumericFailure by "
        "its error bound (ROADMAP item 5)"))
    def test_stoppa_at_large_m(self):
        res = table1_mean("stoppa", m=1e16, c=1, q=2)
        assert res.provenance == "closed-form"
        assert res.value == pytest.approx(STOPPA_MEAN_AT_1E16, rel=1e-12)

    @pytest.mark.parametrize("name, args", [("weibull", {"x0": 0}), ("weibull_2p", {})])
    def test_gamma_beyond_the_doubles_is_a_numeric_failure(self, name, args):
        # the mean Gamma(1001) is finite but beyond the largest double
        with pytest.raises(NumericFailure, match="overflowed"):
            table1_mean(name, c=1, q=0.001, **args)

    @pytest.mark.parametrize("name", ["stoppa", "generalized_lomax"])
    def test_m_inf_is_the_gumbel_ii_mean(self, name):
        # the printed formula has no m = inf limit in floating point; the
        # family point (p = inf, b = 1) answers c Gamma(1 - 1/q)
        res = table1_mean(name, m=INF, c=1, q=2)
        assert res.value == table1_mean("gumbel_ii", c=1, q=2).value
        assert res.value == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert table1_mean(name, m=INF, c=1, q=0.5).constraint == "requires r < bq"

    def test_existence_is_the_moment_rule(self, monkeypatch):
        # the printed constraint is text: existence comes from moment_exists
        # at the family point, as for mean()
        monkeypatch.setitem(CATALOG, "lomax", dataclasses.replace(
            CATALOG["lomax"], mean_constraint="q > 100"))
        assert table1_mean("lomax", c=3, q=4).value == pytest.approx(1.0, rel=1e-14)

    def test_printed_constraint_states_the_rule(self):
        # the printed mean_constraint holds exactly where the first moment
        # exists, on log-uniform draws on both sides of it; "violated" marks
        # a row whose mean exists nowhere
        u = UniformStream(31)
        for e in CATALOG.values():
            if e.mean_constraint is None:
                continue
            for _ in range(200):
                args = {}
                for pname, text in e.free_parameters:
                    mag = 10.0 ** (4.0 * next(u) - 2.0)
                    args[pname] = (1.0 + mag if pname == "m"
                                   else -mag if "< 0" in text else mag)
                printed = (False if e.mean_constraint == "violated"
                           else _evaluate(e.mean_constraint, args))
                assert printed == moment_exists(named(e.name, **args), 1)[0], (
                    e.name, args)

    def test_fixture_equality_against_moments(self):
        # every tabled row, 20 seeded draws: printed formula == mean machinery
        u = UniformStream(7)
        rows = [n for n in catalog_names() if CATALOG[n].in_mean_table]
        assert len(rows) == 19
        for name in rows:
            e = CATALOG[name]
            for _ in range(20):
                args = draw_args(e, u)
                t1 = table1_mean(name, **args)
                m = mean(named(name, **args))
                assert t1.exists == m.exists, (name, args)
                if t1.exists:
                    assert t1.value == pytest.approx(m.value, rel=1e-9), (name, args)


class TestFormulaTexts:
    def test_every_text_compiles_once(self):
        # a text that does not parse fails here, not at a user's first call
        for e in CATALOG.values():
            texts = [e.map_text]
            if e.mean_constraint != "violated":
                texts += [t for t in (e.mean_text, e.mean_constraint) if t]
            for text in texts:
                assert _compiled(text) is _compiled(text), (e.name, text)

    def test_side_by_side_is_a_product_and_caret_a_power(self):
        m, c, q, x0, b = 2.5, 3.0, 4.0, 0.5, 0.25
        args = dict(m=m, c=c, q=q, x0=x0, b=b)
        assert (_evaluate("c m^(1-1/q) (B(1 - 1/q, m) - 1/m)", args)
                == c * m ** (1 - 1 / q) * (beta(1 - 1 / q, m) - 1 / m))
        assert _evaluate("q x0 / (q - 1)", args) == q * x0 / (q - 1)
        assert _evaluate("(m-1, 1, c, q, c m^(-1/q))", args) == (
            m - 1, 1, c, q, c * m ** (-1 / q))
        assert _evaluate("b q > 1", args) is False

    def test_no_builtins(self):
        with pytest.raises(NameError):
            _evaluate("abs(c)", {"c": 1.0})


class TestTree:
    def test_every_edge_is_exact(self):
        # drawing arguments on one side and pinning the edge condition must
        # reproduce the other side's parameter map exactly; the family "if"
        # takes the five parameters themselves
        u = UniformStream(99)
        for parent, child, cond, direction, binder in TREE_EDGES:
            ce = CATALOG[child]
            if parent == "if":
                for _ in range(5):
                    cargs = draw_args(ce, u)
                    assert IFParams(**binder(cargs)) == ce.to_if(**cargs), child
                continue
            pe = CATALOG[parent]
            for _ in range(5):
                if direction == "up":
                    cargs = draw_args(ce, u)
                    pargs = binder(cargs)
                else:
                    pargs = draw_args(pe, u)
                    pargs["x0"] = 0.0  # the pinned condition of the down edge
                    cargs = binder(pargs)
                assert pe.to_if(**pargs) == ce.to_if(**cargs), (parent, child)

    def test_every_condition_holds_on_the_child(self):
        # each drawn condition ("q = 1", "x0 = c (p+1)^(-1/q)", "p -> inf"),
        # read by the formula reader, holds on the child's family point
        u = UniformStream(5)
        for parent, child, cond, _, _ in TREE_EDGES:
            lhs, rhs = re.split(r" = | -> ", cond)
            for _ in range(20):
                point = dataclasses.asdict(CATALOG[child].to_if(
                    **draw_args(CATALOG[child], u)))
                assert _evaluate(lhs, point) == _evaluate(rhs, point), (
                    parent, child, cond, point)

    def test_root_edges_present(self):
        roots = [(p, c) for p, c, _, _, _ in TREE_EDGES if p == "if"]
        assert set(roots) == {("if", "if1"), ("if", "if2"), ("if", "if3")}

    def test_edge_count_matches_figure(self):
        assert len(TREE_EDGES) == 24

    def test_limit_edges_reach_gumbel(self):
        gl = CATALOG["generalized_lomax"].to_if(m=INF, c=2.0, q=3.0)
        st = CATALOG["stoppa"].to_if(m=INF, c=2.0, q=3.0)
        gm = named("gumbel_ii", c=2.0, q=3.0)
        assert gl == gm and st == gm


class TestInversePairs:
    def test_weibull_frechet_mirror(self):
        w = named("weibull", c=2, q=3, x0=1)
        f = named("frechet", c=2, q=3, x0=1)
        assert w == IFParams(w.p, -f.b, f.c, f.q, f.x0)

    def test_rayleigh_mirror(self):
        r = named("rayleigh", c=2)
        ir = named("inverse_rayleigh", c=2)
        assert r.b == -ir.b and (r.p, r.c, r.q, r.x0) == (ir.p, ir.c, ir.q, ir.x0)


class TestRecords:
    def test_complete_and_well_formed(self):
        rs = records()
        assert len(rs) == len(CATALOG) >= 20
        for r in rs:
            assert r["name"] in CATALOG
            assert r["arity"] == CATALOG[r["name"]].arity
            assert r["if_map"].startswith("(")

    def test_stoppa_map_text(self):
        assert entry("stoppa").map_text == "(m-1, 1, c, q, c m^(-1/q))"
