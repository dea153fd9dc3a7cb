import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ifdist import (Bracket, DomainError, IFDistribution, IFParams, NumericFailure,
                    find_root, maximize_scalar, modes)
from ifdist.modes import (
    MAX_GRID_CELLS,
    MODE_ASYMPTOTE,
    MODE_AT_BOUNDARY,
    BoundaryKind,
    ModeKind,
    boundary_behavior,
    mode,
    mode_grid,
    mode_x_from_t,
    solve_mode_equation,
)

INF = math.inf


def golden_argmax(params, lo_frac=1e-9, hi_frac=50.0):
    # maximize the log-density: same argmax, but no float-underflow plateaus
    # for golden section to stall on
    d = IFDistribution(params)
    lo = params.x0 + lo_frac * params.c
    hi = params.x0 + hi_frac * params.c
    return maximize_scalar(d.log_pdf, lo, hi, tol=1e-11 * params.c)[0]


class TestBoundaryBehavior:
    def test_if1_asymptote_band(self):
        bb = boundary_behavior(IFParams(0.0, 0.5, 1.0, 2.0, 0.0))
        assert bb.kind is BoundaryKind.DIVERGES and bb.value == INF

    def test_rayleigh_zero(self):
        bb = boundary_behavior(IFParams(INF, -1.0, 1.0, 2.0, 0.0))
        assert bb.kind is BoundaryKind.ZERO and bb.value == 0.0

    def test_if1_b1_finite(self):
        bb = boundary_behavior(IFParams(0.0, 1.0, 1.0, 1.0, 0.0))
        assert bb.kind is BoundaryKind.FINITE
        assert bb.value == pytest.approx(1.0, rel=1e-12)  # q/c

    def test_b_minus_one_over_q_finite_any_p(self):
        for p in (0.0, 2.5, INF):
            bb = boundary_behavior(IFParams(p, -0.5, 7.0, 2.0, 0.0))
            assert bb.kind is BoundaryKind.FINITE
            assert bb.value == pytest.approx(1.0 / 7.0, rel=1e-12)

    @pytest.mark.parametrize("p", [1100.0, 3000.0, 2.0 ** 60])
    def test_finite_limit_beyond_the_doubles(self, p):
        # b (p+1) - 1 rounds to exactly 0, and the finite limit exceeds the
        # largest double: the kind stays FINITE, and the mode is x0
        pa = IFParams(p, 1.0 / (p + 1.0), 1.0, 2.0, 0.0)
        assert pa.b * (pa.p + 1.0) - 1.0 == 0.0
        bb = boundary_behavior(pa)
        assert bb.kind is BoundaryKind.FINITE and bb.value == INF
        assert IFDistribution(pa).pdf(0.0) == INF
        res = mode(pa)
        assert res.kind is ModeKind.BOUNDARY and res.x == 0.0

    def test_consistent_with_pdf_at_x0(self):
        cases = [
            IFParams(0.0, 0.7, 1.0, 0.5, 1.0),
            IFParams(2.0, 0.25, 1.0, 2.0, 0.0),
            IFParams(2.0, 1.0 / 3.0, 1.0, 2.0, 0.0),
            IFParams(5.0, -0.1, 1.0, 2.0, 0.0),
            IFParams(INF, 3.0, 1.0, 0.5, 1.0),
            IFParams(INF, -4.0, 2.0, 1.0, 0.0),
        ]
        for pa in cases:
            bb = boundary_behavior(pa)
            got = IFDistribution(pa).pdf(pa.x0)
            if bb.kind is BoundaryKind.FINITE:
                assert got == pytest.approx(bb.value, rel=1e-10)
            else:
                assert got == bb.value

    def test_local_exponent_numerically(self):
        # log-log slope of the density near x0 matches the predicted exponent
        # (offsets deep enough that the O(y^b) subleading term is negligible)
        for pa, expo in [
            (IFParams(2.0, 0.25, 1.0, 2.0, 0.0), 0.25 * 3.0 - 1.0),
            (IFParams(0.0, 0.5, 1.0, 2.0, 0.0), 0.5 - 1.0),
            (IFParams(3.0, -0.2, 1.0, 2.0, 0.0), 0.2 * 2.0 - 1.0),
        ]:
            d = IFDistribution(pa)
            deltas = 10.0 ** np.arange(-16.0, -9.0)
            slopes = np.diff(np.log(d.pdf_offset(deltas))) / np.diff(np.log(deltas))
            assert slopes[0] == pytest.approx(expo, rel=0.02)


class TestSolveModeEquation:
    def test_if1_b2_q1(self):
        pa = IFParams(0.0, 2.0, 1.0, 1.0, 0.0)
        roots = solve_mode_equation(pa)
        assert len(roots) == 1
        x = mode_x_from_t(pa, roots[0])
        assert x == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-10)

    def test_if3_p1_q2(self):
        pa = IFParams(1.0, 1.0, 1.0, 2.0, 0.0)
        roots = solve_mode_equation(pa)
        assert len(roots) == 1
        x = mode_x_from_t(pa, roots[0])
        # frozen from 40-digit stationarity solve; golden argmax agrees
        assert x == pytest.approx(0.20576414798872933, abs=1e-12)
        assert x == pytest.approx(golden_argmax(pa), abs=1e-8)

    def test_boundary_mode_has_no_interior_root(self):
        assert solve_mode_equation(IFParams(0.0, 1.0, 1.0, 1.0, 0.0)) == []

    def test_requires_finite_p(self):
        with pytest.raises(DomainError):
            solve_mode_equation(IFParams(INF, 1.0, 1.0, 1.0, 0.0))

    @pytest.mark.parametrize("p", [1e-3, 0.7, 40.0, 1e4])
    @pytest.mark.parametrize("b", [-3.0, -0.4, 0.3, 1.6, 4.0])
    @pytest.mark.parametrize("q", [0.5, 3.0])
    def test_vector_scan_matches_loop_scan(self, p, b, q):
        # reference: the grid scanned pair by pair in Python
        pa = IFParams(p, b, 1.0, q, 0.0)
        residual = modes._residual_factory(pa)
        ts = modes._T_GRID
        vals = residual(ts)
        roots = []
        for i in range(len(ts) - 1):
            if vals[i] == 0.0:
                roots.append(float(ts[i]))
            elif vals[i] * vals[i + 1] < 0.0:
                roots.append(find_root(residual, Bracket(float(ts[i]), float(ts[i + 1])),
                                       tol=1e-14))
        if vals[-1] == 0.0:
            roots.append(float(ts[-1]))
        want = []
        for r in sorted(roots):
            if not want or abs(r - want[-1]) > 1e-9 * max(1.0, abs(r)):
                want.append(r)
        assert solve_mode_equation(pa) == want


class TestMode:
    def test_rayleigh(self):
        res = mode(IFParams(INF, -1.0, 1.0, 2.0, 0.0))
        assert res.kind is ModeKind.INTERIOR
        assert res.x == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_if1_interior(self):
        pa = IFParams(0.0, 2.0, 1.0, 1.0, 0.0)
        res = mode(pa)
        assert res.x == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)
        assert res.x == pytest.approx(golden_argmax(pa), abs=1e-8)
        assert res.density == pytest.approx(IFDistribution(pa).pdf(res.x))

    def test_if1_asymptote(self):
        res = mode(IFParams(0.0, 0.5, 1.0, 2.0, 0.0))
        assert res.kind is ModeKind.ASYMPTOTE
        assert res.density == INF

    def test_if1_boundary_cases(self):
        for pa in (IFParams(0.0, 1.0, 1.0, 1.5, 2.0),
                   IFParams(0.0, -0.5, 1.0, 2.0, 2.0)):
            res = mode(pa)
            assert res.kind is ModeKind.BOUNDARY
            assert res.x == 2.0

    def test_if2_boundary_case(self):
        res = mode(IFParams(INF, -0.5, 1.0, 2.0, 0.0))
        assert res.kind is ModeKind.BOUNDARY

    def test_weibull_known_mode(self):
        # shape q, scale c: mode = c ((q-1)/q)^(1/q)
        q, c = 3.0, 2.0
        res = mode(IFParams(INF, -1.0, c, q, 0.0))
        assert res.x == pytest.approx(c * ((q - 1.0) / q) ** (1.0 / q), rel=1e-12)

    def test_frechet_known_mode(self):
        q = 2.5
        res = mode(IFParams(INF, 1.0, 1.0, q, 0.0))
        assert res.x == pytest.approx((q / (q + 1.0)) ** (1.0 / q), rel=1e-12)

    def test_general_path_against_golden(self):
        for pa in (IFParams(2.5, 2.0, 1.0, 1.5, 0.0),
                   IFParams(0.7, -2.0, 1.0, 1.0, 1.0),
                   IFParams(5.0, 3.0, 2.0, 0.5, 0.0)):
            res = mode(pa)
            assert res.kind is ModeKind.INTERIOR
            assert res.n_candidates >= 1
            assert abs(res.x - golden_argmax(pa)) <= 1e-6 * pa.c

    def test_general_asymptote(self):
        res = mode(IFParams(2.0, 0.25, 1.0, 2.0, 0.0))
        assert res.kind is ModeKind.ASYMPTOTE

    def test_general_boundary(self):
        # b(p+1) = 1: finite boundary density dominates when no interior
        # candidate beats it
        pa = IFParams(1.0, 0.5, 1.0, 0.5, 0.0)
        res = mode(pa)
        d = IFDistribution(pa)
        if res.kind is ModeKind.BOUNDARY:
            xs = pa.x0 + pa.c * np.geomspace(1e-6, 50.0, 500)
            assert (d.pdf(xs) <= res.density + 1e-12).all()

    def test_second_order_interior(self):
        for pa in (IFParams(0.0, 3.0, 1.0, 1.0, 0.0),
                   IFParams(INF, -1.0, 2.0, 4.0, 1.0),
                   IFParams(4.0, 1.0, 1.0, 2.0, 0.0)):
            res = mode(pa)
            d = IFDistribution(pa)
            for h in (1e-5 * pa.c, 1e-6 * pa.c):
                assert d.pdf(res.x - h) < res.density
                assert d.pdf(res.x + h) < res.density

    def test_closed_forms_vs_general_solver(self):
        # b = 1 members: the general machinery reproduces the closed forms
        for p in (0.3, 1.0, 7.0):
            for q in (0.5, 2.0, 5.0):
                pa = IFParams(p, 1.0, 1.0, q, 0.0)
                closed = mode(pa).x
                roots = solve_mode_equation(pa)
                assert len(roots) == 1
                assert abs(mode_x_from_t(pa, roots[0]) - closed) <= 1e-9

    def test_p0_general_solver_boundary(self):
        # at p=0, b=1 the interior root disappears: boundary mode
        assert solve_mode_equation(IFParams(0.0, 1.0, 1.0, 2.0, 0.0)) == []
        assert mode(IFParams(0.0, 1.0, 1.0, 2.0, 0.0)).kind is ModeKind.BOUNDARY

    def test_limit_consistency_frechet(self):
        for q in (0.5, 1.0, 1.5):
            pa = IFParams(1e6, 1.0, 1.0, q, 0.0)
            solved = mode_x_from_t(pa, solve_mode_equation(pa)[0])
            frechet = mode(IFParams(INF, 1.0, 1.0, q, 0.0)).x
            assert abs(solved - frechet) <= 1e-3


def _kind_sweep_points(seed=13, n=600):
    # every subfamily, both signs of b, and the two boundary-exponent zeros
    # b = -1/q and b(p+1) = 1 formed in floating point
    rng = random.Random(seed)
    out = []
    for i in range(n):
        q = rng.uniform(0.1, 10.0)
        p = (0.0, INF, 10.0 ** rng.uniform(-3.0, 3.0))[i % 3]
        b = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.3, 1.3)
        shape = (i // 3) % 4
        if shape == 0:
            b = -1.0 / q
        elif shape == 1 and not math.isinf(p):
            b = 1.0 / (p + 1.0)
        elif shape == 2 and p > 0.0:
            b = 1.0
        out.append(IFParams(p, b, rng.uniform(0.5, 3.0), q, rng.uniform(0.0, 2.0)))
    return out


class TestKindFromBoundaryExponent:
    def test_kind_agrees_with_boundary_behavior(self):
        asymptotes = boundaries = 0
        for pa in _kind_sweep_points():
            bb = boundary_behavior(pa)
            try:
                res = mode(pa)
            except NumericFailure:
                # only a zero boundary density can leave the search empty
                assert bb.kind is BoundaryKind.ZERO, pa
                continue
            assert ((res.kind is ModeKind.ASYMPTOTE)
                    == (bb.kind is BoundaryKind.DIVERGES)), pa
            if res.kind is ModeKind.BOUNDARY:
                assert bb.kind is BoundaryKind.FINITE, pa
                assert res.x == pa.x0 and res.density == bb.value, pa
                boundaries += 1
            asymptotes += res.kind is ModeKind.ASYMPTOTE
        assert asymptotes > 50 and boundaries > 50

    def test_b_minus_one_over_q_rounding_off_zero(self):
        # b = -1/q with b q rounding to -1 + 2^-53: the density diverges
        q = 0.7136836766054665
        pa = IFParams(0.0, -1.0 / q, 1.0, q, 0.0)
        assert -pa.b * pa.q - 1.0 < 0.0
        assert boundary_behavior(pa).kind is BoundaryKind.DIVERGES
        assert mode(pa).kind is ModeKind.ASYMPTOTE
        assert mode(replace(pa, p=INF)).kind is ModeKind.ASYMPTOTE


class TestGeneralSearchFailsHonestly:
    # the density is 0 at x0 here, and the t grid (floor 1e-12) misses the
    # stationary point (near t = 1/(pq) at large p); the true modes come
    # from a direct argmax of log_pdf_offset in ln(x - x0)
    MISSED = [
        (IFParams(1e13, 1.5, 1.0, 2.0, 0.0), 0.9085600770010052, 1.1605046228478404),
        (IFParams(0.06450202816419705, -0.1151131134286553, 0.2712521005669212,
                  8.732215825896946, 0.0), 1.5943443448214571e-21, 2.7809356173364184),
    ]

    @pytest.mark.parametrize("pa, _x, _f", MISSED)
    def test_missed_root_raises(self, pa, _x, _f):
        assert boundary_behavior(pa).kind is BoundaryKind.ZERO
        with pytest.raises(NumericFailure):
            mode(pa)

    @pytest.mark.xfail(strict=True, raises=NumericFailure,
                       reason="t grid floor 1e-12 misses the root (ROADMAP item 4)")
    @pytest.mark.parametrize("pa, x, f", MISSED)
    def test_missed_root_found(self, pa, x, f):
        res = mode(pa)
        assert res.kind is ModeKind.INTERIOR
        assert res.x == pytest.approx(x, rel=1e-5)
        assert res.density == pytest.approx(f, rel=1e-6)

    def test_huge_p_no_overflow_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure):
                mode(IFParams(1e300, 1.5, 1.0, 2.0, 0.0))


class TestSmallQNoWarning:
    # at small q, t^(-1/q) overflows in the stationarity residual near t = 0;
    # and a numpy-scalar b made the map back to x a numpy scalar power,
    # which warns where a Python float power raises OverflowError
    def test_residual_overflow_is_not_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure, match="no stationary point resolved"):
                mode(IFParams(2883.5927693182516, 0.09672790810659611, 1.0,
                              0.02536210147367804, 0.0))

    def test_numpy_scalar_parameter_reads_as_a_float(self):
        b = 0.2886959377682714
        points = [IFParams(3933.6142950656117, v, 1.0, 0.02642293876435011, 0.0)
                  for v in (np.float64(b), b)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = (mode(pa) for pa in points)
        assert want.kind is ModeKind.INTERIOR and got == want


class TestOneWeighingRule:
    # a subfamily's closed-form mode is weighed against x0 as the General
    # roots are: closer to x0 than the doubles resolve, it reads density 0
    # there (the densities at the true modes are 6.5e48 and 5.5e48)
    @pytest.mark.parametrize("pa", [IFParams(0.0, 2.0, 1e-49, 1.0, 0.0017),
                                    IFParams(3.0, 1.0, 1e-49, 1.0, 0.0017)])
    def test_unresolved_subfamily_mode_raises(self, pa):
        assert boundary_behavior(pa).kind is BoundaryKind.ZERO
        with pytest.raises(NumericFailure, match="no stationary point resolved"):
            mode(pa)

    def test_resolved_subfamily_mode_keeps_its_bits(self):
        pa = IFParams(0.0, 2.0, 1e-3, 1.0, 0.0017)
        res = mode(pa)
        x = 0.0017 + 1e-3 * (1.0 / 3.0) ** 0.5
        assert (res.kind, res.x, res.n_candidates) == (ModeKind.INTERIOR, x, 0)
        assert res.density == IFDistribution(pa).pdf(x)


class TestModeGrid:
    def test_if1_interior_block(self):
        template = IFParams(0.0, 1.0, 1.0, 1.0, 0.0)
        grid = mode_grid(template, ("b", 1.1, 3.0), ("q", 0.5, 3.0), (5, 5))
        assert grid.shape == (5, 5)
        bs = np.linspace(1.1, 3.0, 5)
        qs = np.linspace(0.5, 3.0, 5)
        for i, b in enumerate(bs):
            for j, q in enumerate(qs):
                want = ((b - 1.0) / (b * q + 1.0)) ** (1.0 / b)
                assert grid[i, j] == pytest.approx(want, rel=1e-12)
        # monotone in b at fixed q
        assert (np.diff(grid, axis=0) > 0).all()

    def test_if2_sentinels_on_crossing(self):
        template = IFParams(INF, -1.0, 1.0, 1.0, 0.0)
        grid = mode_grid(template, ("b", -2.0, -0.5), ("q", 0.5, 2.0), (4, 4))
        bs = np.linspace(-2.0, -0.5, 4)
        qs = np.linspace(0.5, 2.0, 4)
        for i, b in enumerate(bs):
            for j, q in enumerate(qs):
                if b == -1.0 / q:
                    assert grid[i, j] == MODE_AT_BOUNDARY
                elif -1.0 / q < b:
                    assert grid[i, j] == MODE_ASYMPTOTE
                else:
                    assert grid[i, j] > 0

    def test_degenerate_single_cell(self):
        template = IFParams(INF, -1.0, 1.0, 2.0, 0.0)
        grid = mode_grid(template, ("b", -1.0, -1.0), ("q", 2.0, 2.0), 1)
        assert grid.shape == (1, 1)
        assert grid[0, 0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_if3_matches_closed_form(self):
        template = IFParams(1.0, 1.0, 1.0, 1.0, 0.0)
        grid = mode_grid(template, ("p", 0.1, 5.0), ("q", 0.5, 4.0), (4, 3))
        ps = np.linspace(0.1, 5.0, 4)
        qs = np.linspace(0.5, 4.0, 3)
        for i, p in enumerate(ps):
            for j, q in enumerate(qs):
                want = mode(IFParams(p, 1.0, 1.0, q, 0.0)).x
                assert grid[i, j] == pytest.approx(want, rel=1e-12)

    def test_bad_axis(self):
        template = IFParams(0.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            mode_grid(template, ("nope", 0.0, 1.0), ("q", 0.5, 1.0), 3)
        with pytest.raises(DomainError):
            mode_grid(template, ("b", 1.0, 2.0), ("b", 1.0, 2.0), 3)
        with pytest.raises(DomainError):
            mode_grid(template, ("b", 2.0, 1.0), ("q", 0.5, 1.0), 3)

    def test_axis_across_b_zero(self):
        # each cell is built by replace(), which refuses b = 0
        with pytest.raises(DomainError, match="b must be nonzero and finite"):
            mode_grid(IFParams(0.0, 1.0, 1.0, 1.0, 0.0), ("b", -1.0, 1.0), ("q", 0.5, 1.0), 3)

    @pytest.mark.parametrize("steps", [(10 ** 300, 1), (MAX_GRID_CELLS + 1, 1),
                                       (1, MAX_GRID_CELLS + 1), (1001, 1000)])
    def test_too_many_cells(self, steps, monkeypatch):
        # raised before any array is built
        monkeypatch.setattr(np, "linspace", None)
        with pytest.raises(DomainError, match=f"at most {MAX_GRID_CELLS} cells"):
            mode_grid(IFParams(0.0, 1.0, 1.0, 1.0, 0.0),
                      ("b", 1.0, 2.0), ("q", 0.5, 1.0), steps)

    @pytest.mark.parametrize("lo, hi", [(0.0, INF), (-INF, 2.0), (-INF, INF),
                                        (math.nan, 2.0), (1.0, math.nan)])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_bound(self, lo, hi, axis):
        # an infinite bound would reach IFParams as NaN through linspace
        axes = [("b", 1.0, 2.0), ("q", 0.5, 1.0)]
        axes[axis] = (axes[axis][0], lo, hi)
        with pytest.raises(DomainError, match="finite lo <= hi"):
            mode_grid(IFParams(0.0, 1.0, 1.0, 1.0, 0.0), *axes, 3)


class TestOracleAgreement:
    @pytest.mark.parametrize("p", [0.0, 0.5, 5.0, INF])
    @pytest.mark.parametrize("b", [-3.0, -2.0, 1.5, 2.0])
    def test_interior_modes_match_golden(self, p, b):
        for q, c, x0 in ((0.5, 1.0, 0.0), (2.0, 200.0, 1.0)):
            pa = IFParams(p, b, c, q, x0)
            res = mode(pa)
            if res.kind is not ModeKind.INTERIOR:
                continue
            assert abs(res.x - golden_argmax(pa)) <= 1e-6 * c
