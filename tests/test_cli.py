import math

import numpy as np
import pytest

from ifdist import cli
from ifdist.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_exponential_pdf(self, capsys):
        code, out, _ = run(capsys, "--dist", "exponential", "--c", "1",
                           "eval", "--what", "pdf", "--at", "0,1")
        assert code == 0
        assert out.splitlines() == ["x,value", "0,1",
                                    "1,0.36787944117144233"]

    def test_pareto_quantile(self, capsys):
        code, out, _ = run(capsys, "--dist", "pareto_i", "--x0", "1", "--q", "2",
                           "eval", "--what", "quantile", "--at", "0.75")
        assert code == 0
        assert out.splitlines()[1] == "0.75,2"

    def test_cdf_at_support_start(self, capsys):
        code, out, _ = run(capsys, "--p", "inf", "--b", "-1", "--c", "1",
                           "--q", "2", "--x0", "0",
                           "eval", "--what", "cdf", "--at", "0")
        assert code == 0
        assert out.splitlines()[1] == "0,0"

    @pytest.mark.parametrize("what, limit", [("cdf", "1"), ("sf", "0")])
    def test_limits_at_inf(self, capsys, what, limit):
        # b < 0 at finite p: the finite-x form rounds to NaN at x = inf
        code, out, _ = run(capsys, "--p", "3", "--b", "-2", "--c", "1",
                           "--q", "1.3", "--x0", "0",
                           "eval", "--what", what, "--at", "2,inf")
        assert code == 0
        assert out.splitlines()[2] == f"inf,{limit}"

    def test_quantile_one_prints_inf(self, capsys):
        code, out, _ = run(capsys, "--dist", "lomax", "--c", "1", "--q", "2",
                           "eval", "--what", "quantile", "--at", "1")
        assert code == 0
        assert out.splitlines()[1] == "1,inf"

    def test_quantile_with_overflowing_factor(self, capsys):
        # (p+1)^(-1/(bq)) alone overflows here; the quantile is ~2e-64
        code, out, _ = run(capsys, "--p", "3000", "--b", "-0.05", "--c", "1",
                           "--q", "0.05", "--x0", "0",
                           "eval", "--what", "quantile", "--at", "0.5")
        assert code == 0
        assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(
            2.0423154611841039e-64, rel=1e-10)

    def test_seventeen_digits_roundtrip(self, capsys):
        code, out, _ = run(capsys, "--dist", "rayleigh", "--c", "1.7",
                           "eval", "--what", "pdf", "--at", "0.9")
        val = float(out.splitlines()[1].split(",")[1])
        from ifdist import IFDistribution, IFParams
        d = IFDistribution(IFParams(math.inf, -1.0, 1.7, 2.0, 0.0))
        assert val == d.pdf(0.9)

    def test_domain_error_exits_1(self, capsys):
        code, _, err = run(capsys, "--dist", "pareto_i", "--x0", "1", "--q", "2",
                           "eval", "--what", "logpdf", "--at", "0.5")
        assert code == 1 and "log_pdf" in err

    def test_domain_error_writes_no_rows(self, capsys):
        # every point is evaluated before the first row is written
        code, out, err = run(capsys, "--p", "1", "--b", "2", "--c", "1",
                             "--q", "3", "--x0", "1",
                             "eval", "--what", "logpdf", "--at", "2,0.5,3")
        assert code == 1 and out == "" and "log_pdf" in err


class TestParamSelection:
    def test_missing_flags(self, capsys):
        code, _, err = run(capsys, "--p", "1", "--b", "1",
                           "eval", "--what", "pdf", "--at", "1")
        assert code == 1 and "missing parameter flags" in err

    def test_unknown_dist(self, capsys):
        code, _, err = run(capsys, "--dist", "nope", "summary")
        assert code == 1 and "unknown distribution" in err

    def test_dist_excludes_p(self, capsys):
        code, _, err = run(capsys, "--dist", "exponential", "--c", "1",
                           "--p", "2", "summary")
        assert code == 1 and "mutually exclusive" in err

    def test_dist_if3_takes_p(self, capsys):
        by_name = run(capsys, "--dist", "if3", "--p", "1", "--c", "1",
                      "--q", "2", "--x0", "0", "summary")
        raw = run(capsys, "--p", "1", "--b", "1", "--c", "1", "--q", "2",
                  "--x0", "0", "summary")
        assert by_name[0] == 0 and by_name == raw

    def test_dist_if3_checks_p(self, capsys):
        code, _, err = run(capsys, "--dist", "if3", "--p", "inf", "--c", "1",
                           "--q", "2", "--x0", "0", "summary")
        assert code == 1 and "p must be in (0, inf)" in err

    def test_dist_rejects_foreign_flag(self, capsys):
        code, _, err = run(capsys, "--dist", "exponential", "--c", "1",
                           "--q", "2", "summary")
        assert code == 1 and "not a parameter" in err

    def test_constraint_violation(self, capsys):
        code, _, err = run(capsys, "--p", "1", "--b", "0", "--c", "1",
                           "--q", "1", "--x0", "0", "summary")
        assert code == 1 and "b must be nonzero" in err

    def test_params_file_with_override(self, capsys, tmp_path):
        f = tmp_path / "pars.txt"
        f.write_text("p = inf\nb = -1\nc = 5\nq = 1\nx0 = 0\n# comment\n")
        code, out, _ = run(capsys, "--params", str(f),
                           "eval", "--what", "pdf", "--at", "0")
        assert code == 0 and float(out.splitlines()[1].split(",")[1]) == 0.2
        code, out, _ = run(capsys, "--params", str(f), "--c", "1",
                           "eval", "--what", "pdf", "--at", "0")
        assert code == 0 and out.splitlines()[1] == "0,1"

    def test_params_file_unknown_key(self, capsys, tmp_path):
        f = tmp_path / "pars.txt"
        f.write_text("alpha = 2\n")
        code, _, err = run(capsys, "--params", str(f), "summary")
        assert code == 1 and "unknown parameter" in err

    def test_params_file_bad_number(self, capsys, tmp_path):
        f = tmp_path / "pars.txt"
        f.write_text("p = 1\nb = abc\nc = 1\nq = 1\nx0 = 0\n")
        code, out, err = run(capsys, "--params", str(f), "summary")
        assert code == 1 and out == ""
        assert err == f"ifdist: {f}:2: cannot parse b value 'abc'\n"

    @pytest.mark.parametrize("flag", ["--gamma", "--m"])
    def test_entry_flag_needs_dist(self, capsys, flag):
        code, out, err = run(capsys, flag, "2", "--p", "1", "--b", "1", "--c", "1",
                             "--q", "2", "--x0", "0", "summary")
        assert code == 1 and out == "" and f"{flag} goes only with --dist" in err

    def test_p_reads_like_every_number(self, capsys):
        raw = ["--b", "1.5", "--c", "1", "--q", "2", "--x0", "0", "eval",
               "--what", "pdf", "--at", "0.5,1,2"]
        want = run(capsys, "--p", "inf", *raw)
        assert want[0] == 0
        for spelling in ("Infinity", "INF", " inf"):
            assert run(capsys, "--p", spelling, *raw) == want
        code, _, err = run(capsys, "--p", "abc", *raw)
        assert code == 1 and "invalid float value: 'abc'" in err


class TestSummary:
    def test_pareto_i(self, capsys):
        code, out, _ = run(capsys, "--dist", "pareto_i", "--x0", "1", "--q", "2",
                           "summary")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "subfamily=IF1"
        assert lines[1].startswith("median=1.414213562373")
        assert lines[2] == "mean=2 provenance=closed-form"
        assert lines[3] == "variance=non-existent constraint=requires r < bq"
        assert lines[4] == "mode=boundary x=1"

    def test_rayleigh(self, capsys):
        code, out, _ = run(capsys, "--dist", "rayleigh", "--c", "1", "summary")
        lines = out.splitlines()
        assert lines[0] == "subfamily=IF2"
        assert float(lines[2].split("=")[1].split()[0]) == pytest.approx(
            math.sqrt(math.pi) / 2.0, rel=1e-14)
        assert lines[4].startswith("mode=interior x=0.70710678118654")

    def test_asymptote_case(self, capsys):
        code, out, _ = run(capsys, "--p", "0", "--b", "0.5", "--c", "1",
                           "--q", "2", "--x0", "0", "summary")
        assert "mode=asymptote-at-boundary x=0" in out

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "--dist", "stoppa", "--m", "2", "--c", "1",
                         "--q", "3", "summary")
        _, out2, _ = run(capsys, "--dist", "stoppa", "--m", "2", "--c", "1",
                         "--q", "3", "summary")
        assert out1 == out2


class TestSample:
    def test_empty_has_header(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        code, _, _ = run(capsys, "--dist", "exponential", "--c", "1",
                         "sample", "--n", "0", "--seed", "1",
                         "--out", str(path))
        assert code == 0
        assert path.read_bytes() == b"value\n"

    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--dist", "weibull_2p", "--c", "2", "--q", "1.5",
                "sample", "--n", "500", "--seed", "99"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_values_parse_and_exceed_x0(self, capsys, tmp_path):
        path = tmp_path / "s.csv"
        run(capsys, "--dist", "pareto_i", "--x0", "1", "--q", "3",
            "sample", "--n", "200", "--seed", "5", "--out", str(path))
        vals = [float(line) for line in path.read_text().splitlines()[1:]]
        assert len(vals) == 200 and min(vals) > 1.0

    def test_io_error_exits_3(self, capsys):
        code, _, err = run(capsys, "--dist", "exponential", "--c", "1",
                           "sample", "--n", "1", "--seed", "1",
                           "--out", "/nonexistent-dir/s.csv")
        assert code == 3 and "i/o error" in err

    def test_million_exponential_draws_mean(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        code, _, _ = run(capsys, "--dist", "exponential", "--c", "1",
                         "sample", "--n", "1000000", "--seed", "42",
                         "--out", str(path))
        assert code == 0
        vals = np.loadtxt(path, skiprows=1)
        assert vals.shape == (1_000_000,)
        assert abs(vals.mean() - 1.0) < 0.004  # 4 standard errors


class TestCurve:
    def test_default_base_point_and_header(self, capsys):
        code, out, _ = run(capsys, "curve", "--vary", "p",
                           "--values", "0,1,inf", "--x-range", "0,600,4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,p=0,p=1,p=inf"
        assert len(lines) == 5
        # base point (b=1, c=200, q=2): the p=0 column at x=0 is q/c
        assert float(lines[1].split(",")[1]) == pytest.approx(0.01, rel=1e-15)

    def test_scale_identity(self, capsys):
        # f_{2c}(2 (x - x0) + x0) = f_c(x) / 2 at x0 = 0
        _, out1, _ = run(capsys, "curve", "--vary", "c", "--values", "200",
                         "--x-range", "1,801,5")
        _, out2, _ = run(capsys, "curve", "--vary", "c", "--values", "400",
                         "--x-range", "2,1602,5")
        f1 = [float(l.split(",")[1]) for l in out1.splitlines()[1:]]
        f2 = [float(l.split(",")[1]) for l in out2.splitlines()[1:]]
        for a, b in zip(f1, f2):
            assert b == pytest.approx(a / 2.0, rel=1e-10)

    def test_shift_identity(self, capsys):
        # f_{x0+s}(x+s) = f_{x0}(x) with s = 64
        _, out1, _ = run(capsys, "curve", "--vary", "x0", "--values", "0",
                         "--x-range", "1,601,4")
        _, out2, _ = run(capsys, "curve", "--vary", "x0", "--values", "64",
                         "--x-range", "65,665,4")
        f1 = [float(l.split(",")[1]) for l in out1.splitlines()[1:]]
        f2 = [float(l.split(",")[1]) for l in out2.splitlines()[1:]]
        for a, b in zip(f1, f2):
            assert b == pytest.approx(a, rel=1e-12)

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "curve", "--vary", "p", "--values", "1",
                           "--x-range", "5,1,10")
        assert code == 1

    def test_range_below_x0_rejected(self, capsys):
        code, _, err = run(capsys, "--x0", "5", "curve", "--vary", "p",
                           "--values", "1", "--x-range", "0,100,11")
        assert code == 1 and "above x0" in err


class TestModeGrid:
    def test_axis_headers_and_sentinels(self, capsys):
        code, out, _ = run(capsys, "--p", "inf", "--b", "-1", "--c", "1",
                           "--q", "1", "--x0", "0", "modegrid",
                           "--axis1", "b,-2,-0.5", "--axis2", "q,0.5,2",
                           "--steps", "4,4")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("b\\q,0.5,1,1.5,2")
        row_b2 = lines[1].split(",")
        assert row_b2[0] == "-2"
        assert row_b2[1] == "-1"          # b = -1/q exactly: boundary code
        row_bhalf = lines[4].split(",")
        assert row_bhalf[1] == "-2"       # asymptote code

    def test_interior_matches_closed_form(self, capsys):
        code, out, _ = run(capsys, "--p", "0", "--b", "2", "--c", "1",
                           "--q", "1", "--x0", "0", "modegrid",
                           "--axis1", "b,1.1,3", "--axis2", "q,0.5,3",
                           "--steps", "3,3")
        assert code == 0
        cell = float(out.splitlines()[1].split(",")[1])
        b, q = 1.1, 0.5
        assert cell == pytest.approx(((b - 1) / (b * q + 1)) ** (1 / b), rel=1e-12)

    def test_bad_axis_name(self, capsys):
        code, _, err = run(capsys, "--p", "0", "--b", "2", "--c", "1",
                           "--q", "1", "--x0", "0", "modegrid",
                           "--axis1", "zz,1,2", "--axis2", "q,1,2")
        assert code == 1

    @pytest.mark.parametrize("axis", ["b,abc,3", "b,1,", "b,1", "b,1,2,3"])
    def test_bad_axis_numbers(self, capsys, axis):
        code, out, err = run(capsys, "--p", "0", "--b", "2", "--c", "1",
                             "--q", "1", "--x0", "0", "modegrid",
                             "--axis1", axis, "--axis2", "q,1,2")
        assert code == 1 and out == ""
        assert err == "ifdist: --axis expects NAME,LO,HI\n"


class TestCatalog:
    def test_list_has_all_entries(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("name,arity,")
        assert len(lines) - 1 >= 20

    def test_show_stoppa(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "stoppa")
        assert code == 0
        assert "if_map=(m-1, 1, c, q, c m^(-1/q))" in out

    def test_show_unknown(self, capsys):
        code, _, err = run(capsys, "catalog", "show", "nothere")
        assert code == 1


class TestCheck:
    def test_roundtrip_passes(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "roundtrip")
        assert code == 0 and "result=pass" in out

    def test_moments_passes_with_row_report(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "moments")
        assert code == 0 and "result=pass" in out
        assert "row=rayleigh" in out and "row=stoppa" in out

    def test_impossible_tolerance_fails_with_culprit(self, capsys):
        code, out, err = run(capsys, "check", "--suite", "roundtrip",
                             "--tol", "1e-18")
        assert code == 2
        assert "result=fail" in out and "offending=IFParams" in err

    @pytest.mark.parametrize("nan_at", ["first", "middle", "all"])
    def test_nan_deviation_fails_with_its_point(self, capsys, monkeypatch,
                                                nan_at):
        # a NaN deviation is never "> worst"; it must fail the suite anyway
        suite, tol = cli._SUITES["roundtrip"]
        points = [repr(pa) for pa in cli._check_params_iter()]
        where = {"first": 0, "middle": len(points) // 2, "all": 0}[nan_at]

        def with_nan(t):
            for i, (dev, point) in enumerate(suite(t)):
                yield (math.nan if nan_at == "all" or i == where else dev), point

        monkeypatch.setitem(cli._SUITES, "roundtrip", (with_nan, tol))
        code, out, err = run(capsys, "check", "--suite", "roundtrip")
        assert code == 2
        assert "worst=nan" in out and "result=fail" in out
        assert err == f"offending={points[where]}\n"


class TestExitCodes:
    def test_no_command(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_numeric_failure_exits_2(self, capsys):
        # the density rounds to NaN near x0 here, so the moment quadrature
        # raises (ROADMAP item 1)
        code, _, err = run(capsys, "--p", "6.110284993404673",
                           "--b", "2.2938144691702855", "--c", "1.823280400491926",
                           "--q", "3.400199961998661", "--x0", "0.8293116987113416",
                           "summary")
        assert code == 2 and "numeric failure" in err

    def test_mean_beyond_the_float_range_answered(self, capsys):
        # bq = 1.01: most of the mean's mass lies beyond the largest double,
        # so the x-space quadrature cannot finish and the [0, 1] form answers;
        # E[X] = 100.50606645257416 from 50-digit mpmath
        code, out, _ = run(capsys, "--p", "0.5", "--b", "1.5", "--c", "1",
                           "--q", "0.6733333333", "--x0", "0", "summary")
        assert code == 0
        lines = out.splitlines()
        value, provenance = lines[2].split(" ")
        assert provenance == "provenance=unit-interval"
        assert float(value.split("=")[1]) == pytest.approx(100.50606645257416,
                                                           rel=1e-12)
        assert lines[3] == "variance=non-existent constraint=requires r < bq"
