from hypothesis import given
from hypothesis import strategies as st

import json
import math
import subprocess
import sys
import tracemalloc

import pytest

from etafloor.cli import (
    EXIT_COMPARE_DIFFERS,
    EXIT_CROSS_CHECK,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    UsageError,
    main,
    parse_args,
    parse_complex_literal,
    parse_range,
)
from etafloor.eta import ComplexPoint
from etafloor.reporting import SCAN_CSV_HEADER, parse_report_json


class TestParsers:
    def test_complex_literals(self):
        assert parse_complex_literal("1+0i") == ComplexPoint(1.0, 0.0)
        assert parse_complex_literal("0.5+14.1347i") == ComplexPoint(0.5, 14.1347)
        assert parse_complex_literal("0.5-3.25i") == ComplexPoint(0.5, -3.25)
        assert parse_complex_literal("2") == ComplexPoint(2.0, 0.0)
        assert parse_complex_literal("3i") == ComplexPoint(0.0, 3.0)
        assert parse_complex_literal("-2.5i") == ComplexPoint(0.0, -2.5)
        assert parse_complex_literal("1e-2+4e1i") == ComplexPoint(0.01, 40.0)
        assert parse_complex_literal("1+i") == ComplexPoint(1.0, 1.0)
        assert parse_complex_literal("i") == ComplexPoint(0.0, 1.0)
        assert parse_complex_literal("-i") == ComplexPoint(0.0, -1.0)
        assert parse_complex_literal("1-i") == ComplexPoint(1.0, -1.0)
        assert parse_complex_literal("infi") == ComplexPoint(0.0, math.inf)
        assert parse_complex_literal("1e+5i") == ComplexPoint(0.0, 1e5)
        assert parse_complex_literal("1_0i") == ComplexPoint(0.0, 10.0)
        point = parse_complex_literal("-0i")  # -0.0 == 0.0, so compare the signs
        assert math.copysign(1.0, point.alpha) == 1.0
        assert math.copysign(1.0, point.beta) == -1.0

    def test_bad_literals(self):
        # complex()'s own spellings are not literals here
        for text in ("", "abc", "1+2j+3i", "1..2", "1j", "1+2j", "(1+2i)", "(5)"):
            with pytest.raises(UsageError):
                parse_complex_literal(text)

    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
    def test_literal_round_trip(self, re, im):
        text = f"{re!r}{'+' if im >= 0 else '-'}{abs(im)!r}i"
        point = parse_complex_literal(text)
        assert point.alpha == re
        assert point.beta == im or (im == 0.0 and point.beta == 0.0)

    def test_ranges(self):
        assert parse_range("0:200", "beta") == (0.0, 200.0)
        assert parse_range("0.75", "alpha") == (0.75, 0.75)
        # a reversed range is refused by the grid or the survey that reads it
        assert parse_range("5:1", "beta") == (5.0, 1.0)
        with pytest.raises(UsageError):
            parse_range("a:b", "beta")


class TestParseArgs:
    def test_eval_config(self):
        cfg = parse_args(["eval", "--s", "1+0i", "--tol", "1e-12"])
        assert cfg.command == "eval"
        assert cfg.s == ComplexPoint(1.0, 0.0)
        assert cfg.tol == 1e-12
        assert cfg.engine == "checked"

    def test_scan_config(self):
        cfg = parse_args(
            ["scan", "--alpha", "0.75", "--beta", "0:200", "--step", "0.01", "--strict"]
        )
        assert cfg.alpha_range == (0.75, 0.75)
        assert cfg.beta_range == (0.0, 200.0)
        assert cfg.strict

    def test_usage_errors(self):
        with pytest.raises(UsageError):
            parse_args(["scan", "--beta", "0:1"])  # missing --alpha
        with pytest.raises(UsageError):
            parse_args(["pca"])  # needs --s or --alpha
        with pytest.raises(UsageError):
            parse_args(["report", "a.json", "b.json", "c.json", "--compare"])


_NO_ENGINE = ("argument --engine: invalid choice: 'x' (choose from 'partial', 'euler', 'accel', "
              "'checked')")
_NO_COMMAND = ("argument command: invalid choice: 'bogus' (choose from 'eval', 'props', 'pca', "
               "'scan', 'zeros', 'report')")


class TestUsageErrors:
    """Exit code and the exact stderr line for each way a run can be refused."""

    @pytest.mark.parametrize("argv, code, message", [
        (["eval", "--s", "abc"], 64,
         "usage error: cannot parse complex literal 'abc' (expected a+bi)"),
        (["eval", "--s", "1+0i", "--tol", "0"], 64, "invalid parameter: tol must be > 0"),
        (["eval", "--s=-1+0i"], 64,
         "invalid parameter: series evaluation requires Re(s) > 0, got alpha=-1.0"),
        (["props", "--cases", "0"], 64, "invalid parameter: cases must be >= 1, got 0"),
        (["props", "--cases", "x"], 64, "usage error: argument --cases: invalid int value: 'x'"),
        (["pca"], 64, "usage error: pca needs either --s or --alpha with --beta"),
        (["pca", "--s", "1+0i", "--alpha", "0.5"], 64,
         "usage error: pca needs either --s or --alpha with --beta"),
        (["pca", "--alpha", "0.5"], 64, "usage error: pca line mode needs --beta lo:hi"),
        (["pca", "--alpha", "0.5:0.6", "--beta", "0:1"], 64,
         "usage error: pca line mode takes a single alpha"),
        (["pca", "--alpha", "0.5", "--beta", "0:1", "--step", "0"], 64,
         "invalid parameter: grid step must be > 0, got 0.0"),
        (["pca", "--s", "1+0i", "--tol", "-1"], 64, "invalid parameter: tol must be > 0"),
        (["scan", "--beta", "0:1"], 64,
         "usage error: the following arguments are required: --alpha"),
        (["scan", "--alpha", "a:b", "--beta", "0:1"], 64,
         "usage error: cannot parse alpha range 'a:b' (expected lo:hi)"),
        (["scan", "--alpha", "0.5", "--beta", "2:1"], 64,
         "invalid parameter: grid 2.0:1.0 is empty (hi < lo)"),
        (["scan", "--alpha", "0.5", "--beta", "0:1", "--workers", "0"], 64,
         "invalid parameter: workers must be >= 1, got 0"),
        (["scan", "--alpha", "0.5", "--beta", "0:1", "--tol", "0"], 64,
         "invalid parameter: tol must be > 0"),
        (["scan", "--alpha", "0", "--beta", "0:1"], 64,
         "invalid parameter: series evaluation requires Re(s) > 0, got alpha=0.0"),
        (["scan", "--alpha", "0.5", "--beta", "0:1", "--step", "0"], 64,
         "invalid parameter: grid step must be > 0, got 0.0"),
        (["scan", "--alpha", "0.5:0.6", "--alpha-step", "0", "--beta", "0:1"], 64,
         "invalid parameter: grid step must be > 0, got 0.0"),
        (["zeros", "--t", "5:1"], 64, "invalid parameter: need 0 <= t_lo < t_hi"),
        (["zeros", "--t", "0:1", "--workers", "0"], 64,
         "invalid parameter: workers must be >= 1, got 0"),
        (["zeros", "--t", "1:1"], 64, "invalid parameter: need 0 <= t_lo < t_hi"),
        (["report", "a", "b", "c", "--compare"], 64,
         "usage error: --compare needs exactly two input reports"),
        (["report", "{tmp}/absent.json"], 74,
         "i/o error: [Errno 2] No such file or directory: '{tmp}/absent.json'"),
        ([], 64, "usage error: the following arguments are required: command"),
        (["bogus"], 64, f"usage error: {_NO_COMMAND}"),
        (["eval", "--s", "1+0i", "--engine", "x"], 64, f"usage error: {_NO_ENGINE}"),
        (["eval", "--s", "0.05+1500i", "--tol", "1e-12", "--engine", "euler"], 3,
         "numerical failure: euler engine cannot certify tol=1e-12 at s=0.05+1500j "
         "(best estimate 1.06065e-08)"),
        (["eval", "--s", "0.5+14.1i", "--engine", "partial", "--tol", "1e-12"], 3,
         "numerical failure: partial engine certifies a tolerance only on the real axis "
         "(beta = 0)"),
        # a value starting with '-' reaches its own parser; a missing one does not
        (["eval", "--s", "-1+0i"], 64,
         "invalid parameter: series evaluation requires Re(s) > 0, got alpha=-1.0"),
        (["eval", "--s", "-0.5i"], 64,
         "invalid parameter: series evaluation requires Re(s) > 0, got alpha=0.0"),
        (["eval", "--s", "1+0i", "--tol", "-1e-3"], 64, "invalid parameter: tol must be > 0"),
        (["scan", "--alpha", "0.5", "--beta", "-1:-2"], 64,
         "invalid parameter: grid -1.0:-2.0 is empty (hi < lo)"),
        (["scan", "--alpha", "-0.5:0.5", "--beta", "0:1"], 64,
         "invalid parameter: series evaluation requires Re(s) > 0, got alpha=-0.5"),
        (["zeros", "--t", "-1:1"], 64, "invalid parameter: need 0 <= t_lo < t_hi"),
        (["eval", "--s", "--tol", "1e-9"], 64, "usage error: argument --s: expected one argument"),
        (["pca", "--s", "1+0i", "--beta", "garbage"], 64,
         "usage error: pca point mode takes no --beta or --step"),
        (["pca", "--s", "1+0i", "--step", "-5"], 64,
         "usage error: pca point mode takes no --beta or --step"),
        # -i, -inf and -nan (any case) are values too
        (["eval", "--s", "-i"], 64,
         "invalid parameter: series evaluation requires Re(s) > 0, got alpha=0.0"),
        (["eval", "--s", "-I"], 64,
         "invalid parameter: series evaluation requires Re(s) > 0, got alpha=0.0"),
        (["eval", "--s", "-inf"], 64,
         "invalid parameter: series evaluation requires Re(s) > 0, got alpha=-inf"),
        (["eval", "--s", "-NaN"], 64,
         "invalid parameter: series evaluation requires Re(s) > 0, got alpha=nan"),
        (["eval", "--s", "1+0i", "--tol", "-Inf"], 64, "invalid parameter: tol must be > 0"),
        (["eval", "--s", "-inform"], 64, "usage error: argument --s: expected one argument"),
        # an infinite or NaN number is refused before any arithmetic
        (["scan", "--alpha", "0.75", "--beta", "0:inf"], 64,
         "invalid parameter: grid 0.0:inf with step 0.01 has no finite point count"),
        (["scan", "--alpha", "0.75", "--beta", "nan:1"], 64,
         "invalid parameter: grid nan:1.0 with step 0.01 has no finite point count"),
        (["scan", "--alpha", "0.75", "--beta", "0:1", "--step", "inf"], 64,
         "invalid parameter: grid 0.0:1.0 with step inf has no finite point count"),
        (["scan", "--alpha", "0.5:inf", "--beta", "0:1"], 64,
         "invalid parameter: grid 0.5:inf with step 0.05 has no finite point count"),
        (["scan", "--alpha", "inf", "--beta", "0:1"], 64,
         "invalid parameter: alpha and tol must be finite, got alpha=inf, tol=1e-09"),
        (["zeros", "--t", "0:inf"], 64,
         "invalid parameter: grid 0.0:inf with step 0.01 has no finite point count"),
        (["zeros", "--t", "0:1", "--tol", "inf"], 64,
         "invalid parameter: alpha and tol must be finite, got alpha=0.5, tol=inf"),
        (["pca", "--alpha", "0.5", "--beta", "0:inf"], 64,
         "invalid parameter: grid 0.0:inf with step 1.0 has no finite point count"),
        (["pca", "--s", "inf"], 64,
         "invalid parameter: alpha and tol must be finite, got alpha=inf, tol=1e-10"),
        (["eval", "--s", "inf"], 64,
         "invalid parameter: alpha and tol must be finite, got alpha=inf, tol=1e-12"),
        (["eval", "--s", "1+infi"], 64, "invalid parameter: beta=inf is not finite"),
        (["scan", "--alpha", "0.5:0.6", "--alpha-step", "inf", "--beta", "0:1"], 64,
         "invalid parameter: grid 0.5:0.6 with step inf has no finite point count"),
        # an Euler head over MAX_EULER_HEAD is refused before any matrix is built
        (["eval", "--s", "0.5+500000i", "--engine", "euler", "--tol", "1e-9"], 3,
         "numerical failure: euler engine cannot certify tol=1e-09 at s=0.5+500000j "
         "(best estimate inf)"),
        (["eval", "--s", "0.5+1e9i"], 3,
         "numerical failure: euler engine cannot certify tol=1e-12 at s=0.5+1e+09j "
         "(best estimate inf)"),
        (["pca", "--s", "2", "--theta", "inf"], 64,
         "invalid parameter: theta must be finite, got theta=inf"),
        (["pca", "--s", "2", "--theta", "nan"], 64,
         "invalid parameter: theta must be finite, got theta=nan"),
        (["pca", "--alpha", "0.5", "--beta", "0:1", "--theta", "-inf"], 64,
         "invalid parameter: theta must be finite, got theta=-inf"),
        (["scan", "--alpha", "0.75", "--beta", "0:1", "--tol", "inf"], 64,
         "invalid parameter: alpha and tol must be finite, got alpha=0.75, tol=inf"),
        # 4**alpha overflows a float from alpha = 512 on
        (["scan", "--alpha", "512", "--beta", "0:0.02"], 64,
         "invalid parameter: alpha=512.0 is too large: 4**alpha overflows"),
        (["pca", "--s", "600+1i"], 64,
         "invalid parameter: alpha=600.0 is too large: 4**alpha overflows"),
        # 2/tol overflows at a subnormal tol
        (["eval", "--s", "0.5+14i", "--tol", "1e-320"], 3,
         "numerical failure: euler engine cannot certify tol=9.99989e-321 at s=0.5+14j "
         "(best estimate 3.46468e-13)"),
        (["eval", "--s", "0.5+14i", "--tol", "1e-320", "--engine", "accel"], 3,
         "numerical failure: accel engine cannot certify tol=9.99989e-321 at s=0.5+14j "
         "(estimate 4.43701e-13)"),
        (["pca", "--s", "0.5+14i", "--tol", "1e-320"], 3,
         "numerical failure: euler engine cannot certify tol=9.99989e-321 at s=0.5+14j "
         "(best estimate 3.46468e-13)"),
        # a grid of more points than a list can hold is refused before any is built
        (["scan", "--alpha", "0.75", "--beta", "0:0.02", "--step", "1e-300"], 64,
         "invalid parameter: grid 0.0:0.02 with step 1e-300 has more points than a list can hold"),
        (["scan", "--alpha", "0.75:0.8", "--alpha-step", "1e-300", "--beta", "0:0.02"], 64,
         "invalid parameter: grid 0.75:0.8 with step 1e-300 has more points than a list can hold"),
        (["pca", "--alpha", "0.75", "--beta", "0:0.02", "--step", "1e-300"], 64,
         "invalid parameter: grid 0.0:0.02 with step 1e-300 has more points than a list can hold"),
        # a zero search evaluates eta to tol/100, which may not go below 1e-12
        (["zeros", "--t", "14:14.2", "--tol", "1e-20"], 3,
         "numerical failure: zero tol=1e-20 needs eta to tol/100=1e-22, below the 1e-12 floor "
         "of a zero search"),
        # every campaign refuses a negative seed before numpy's default_rng sees it
        (["props", "--cases", "10", "--seed", "-1"], 64,
         "invalid parameter: seed must be >= 0, got -1"),
        # a reversed range is refused by the first grid that reads it
        (["pca", "--alpha", "0.5", "--beta", "2:1"], 64,
         "invalid parameter: grid 2.0:1.0 is empty (hi < lo)"),
        (["scan", "--alpha", "0.6:0.5", "--beta", "0:1"], 64,
         "invalid parameter: grid 0.6:0.5 is empty (hi < lo)"),
        (["pca", "--alpha", "2:1", "--beta", "0:1"], 64,
         "usage error: pca line mode takes a single alpha"),
    ])
    def test_exit_code_and_message(self, tmp_path, capsys, argv, code, message):
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == f"etafloor: {message.replace('{tmp}', str(tmp_path))}\n"
        assert captured.out == ""


class TestEvalCommand:
    def test_eval_ln2(self, capsys):
        code = main(["eval", "--s", "1+0i", "--tol", "1e-12"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "0.693147180559945" in out
        assert "terms" in out

    def test_eval_writes_report(self, tmp_path, capsys):
        target = tmp_path / "eval.json"
        code = main(
            ["eval", "--s", "2+0i", "--tol", "1e-12", "--output", str(target)]
        )
        assert code == EXIT_OK
        report = parse_report_json(target.read_bytes())
        assert report.result.value.real == pytest.approx(0.822467033424113, abs=1e-11)

    def test_eval_domain_error_is_usage(self, capsys):
        assert main(["eval", "--s", "-1+0i"]) == EXIT_USAGE


class TestScanCommand:
    def test_clean_scan_exit_zero(self, tmp_path, capsys):
        target = tmp_path / "scan.csv"
        code = main(
            ["scan", "--alpha", "0.75", "--beta", "10:12", "--step", "0.05",
             "--strict", "--output", str(target)]
        )
        assert code == EXIT_OK
        text = target.read_text()
        assert text.startswith(SCAN_CSV_HEADER + "\n")
        for line in text.strip().split("\n")[1:]:
            fields = line.split(",")
            alpha, beta, eta_abs, floor, margin = map(float, fields[:5])
            assert alpha == 0.75
            assert margin == eta_abs - floor

    def test_violation_scan_strict_exit_two(self, tmp_path, capsys):
        # real violations live near beta = 163.1 on alpha = 0.75
        code = main(
            ["scan", "--alpha", "0.75", "--beta", "163:163.2", "--step", "0.01",
             "--strict", "--format", "json", "--output", str(tmp_path / "viol.json")]
        )
        assert code == EXIT_VIOLATION
        report = parse_report_json((tmp_path / "viol.json").read_bytes())
        assert report.violations

    def test_violation_scan_without_strict_exit_zero(self, tmp_path, capsys):
        code = main(
            ["scan", "--alpha", "0.75", "--beta", "163:163.2", "--step", "0.01",
             "--format", "json", "--output", str(tmp_path / "viol.json")]
        )
        assert code == EXIT_OK

    def test_forced_engine_disagreement_exit_three(self, tmp_path, capsys, monkeypatch):
        import etafloor.eta as eta_mod

        real_rows = eta_mod._chebyshev_rows

        def corrupted(*args):
            return [(value + 1e-3, est) for value, est in real_rows(*args)]

        monkeypatch.setattr(eta_mod, "_chebyshev_rows", corrupted)
        code = main(
            ["scan", "--alpha", "0.9", "--beta", "1:1.2", "--step", "0.1",
             "--output", str(tmp_path / "bad.json"), "--format", "json"]
        )
        assert code == EXIT_CROSS_CHECK
        report = parse_report_json((tmp_path / "bad.json").read_bytes())
        assert report.failures
        assert not report.samples

    def test_subnormal_tol_fails_each_point(self, tmp_path, capsys):
        # no engine certifies tol=1e-320, where 2/tol overflows
        code = main(
            ["scan", "--alpha", "0.75", "--beta", "14:14.02", "--tol", "1e-320",
             "--output", str(tmp_path / "tiny.json"), "--format", "json"]
        )
        assert code == EXIT_CROSS_CHECK
        report = parse_report_json((tmp_path / "tiny.json").read_bytes())
        assert [failure.s.beta for failure in report.failures] == [14.0, 14.01, 14.02]
        assert not report.samples

    def test_grid_scan(self, tmp_path, capsys):
        target = tmp_path / "grid.json"
        code = main(
            ["scan", "--alpha", "0.6:0.8", "--alpha-step", "0.2",
             "--beta", "0:1", "--step", "0.5", "--format", "json",
             "--output", str(target)]
        )
        assert code == EXIT_OK
        grid = parse_report_json(target.read_bytes())
        assert [ln.alpha for ln in grid.lines] == [0.6, 0.8]


class TestZerosCommand:
    def test_zero_rows_csv(self, tmp_path, capsys):
        target = tmp_path / "zeros.csv"
        code = main(
            ["zeros", "--t", "14:14.3", "--tol", "1e-8", "--output", str(target)]
        )
        assert code == EXIT_OK
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "t,residual,engine_gap,bracket_lo,bracket_hi,angle,in_claimed_range"
        assert len(lines) == 2
        t_value = float(lines[1].split(",")[0])
        assert t_value == pytest.approx(14.134725, abs=1e-5)

    def test_empty_range_ok(self, tmp_path, capsys):
        code = main(
            ["zeros", "--t", "2:3", "--tol", "1e-8", "--format", "json",
             "--output", str(tmp_path / "none.json")]
        )
        assert code == EXIT_OK
        report = parse_report_json((tmp_path / "none.json").read_bytes())
        assert report.rows == ()

    def test_three_rows_up_to_30(self, tmp_path, capsys):
        target = tmp_path / "zeros30.csv"
        code = main(
            ["zeros", "--t", "0:30", "--tol", "1e-8", "--workers", "2",
             "--output", str(target)]
        )
        assert code == EXIT_OK
        rows = target.read_text().strip().split("\n")[1:]
        assert len(rows) == 3
        assert all(row.endswith("true") for row in rows)  # angles all in range


class TestPropsCommand:
    def test_props_pass(self, tmp_path, capsys):
        target = tmp_path / "props.json"
        code = main(
            ["props", "--cases", "300", "--seed", "7", "--format", "json",
             "--output", str(target)]
        )
        assert code == EXIT_OK
        report = parse_report_json(target.read_bytes())
        assert len(report.rows) == 5
        assert all(row.failures == 0 for row in report.rows)
        err = capsys.readouterr().err
        assert "prop5" in err

    # numpy names the allocation it refused; the interpreter's own MemoryError is bare
    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 1 TiB"), "Unable to allocate 1 TiB"),
        (MemoryError(), "MemoryError"),
    ])
    def test_out_of_memory_is_one_line_and_usage_exit(self, capsys, monkeypatch, error, message):
        import etafloor.cli as cli_mod

        def exhausted(cases, seed):
            raise error

        monkeypatch.setattr(cli_mod, "run_all_suites", exhausted)
        assert main(["props"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == f"etafloor: out of memory: {message}\n"
        assert captured.out == ""


class TestPcaCommand:
    def test_point_mode(self, capsys):
        code = main(["pca", "--s", "2+0i", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        header, row = out.strip().split("\n")
        assert header.startswith("alpha,beta,theta,tail_re")
        assert row.endswith("W1")

    def test_failing_point_writes_no_report(self, tmp_path, capsys):
        target = tmp_path / "pca.csv"
        argv = ["pca", "--alpha", "0.05", "--beta", "0:1000", "--step", "100",
                "--output", str(target)]
        assert main(argv) == EXIT_CROSS_CHECK
        # beta 400 is the lowest grid point the checked engine cannot certify
        assert capsys.readouterr().err == (
            "etafloor: numerical failure: euler engine cannot certify tol=1e-10 at "
            "s=0.05+400j (best estimate 6.99012e-10)\n")
        assert not target.exists()

    def test_parameters_are_refused_before_the_point_list(self, capsys):
        tracemalloc.start()
        try:
            code = main(["pca", "--alpha", "0.5", "--beta", "0:1000", "--step", "0.01",
                         "--tol", "inf"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "etafloor: invalid parameter: alpha and tol must be finite, got alpha=0.5, tol=inf\n")
        assert peak < 1 << 20  # 100 001 points would take several MB

    def test_line_mode(self, tmp_path, capsys):
        target = tmp_path / "pca.json"
        code = main(
            ["pca", "--alpha", "0.5", "--beta", "0:2", "--step", "1.0",
             "--format", "json", "--output", str(target)]
        )
        assert code == EXIT_OK
        report = parse_report_json(target.read_bytes())
        assert len(report.rows) == 3


class TestReportCommand:
    def test_merge_and_compare(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["scan", "--alpha", "0.6", "--beta", "0:1", "--step", "0.5",
                     "--format", "json", "--output", str(a)]) == EXIT_OK
        assert main(["scan", "--alpha", "0.8", "--beta", "0:1", "--step", "0.5",
                     "--format", "json", "--output", str(b)]) == EXIT_OK
        merged = tmp_path / "merged.json"
        assert main(["report", str(a), str(b), "--output", str(merged)]) == EXIT_OK
        grid = parse_report_json(merged.read_bytes())
        assert len(grid.lines) == 2

        assert main(["report", str(a), str(a), "--compare"]) == EXIT_OK
        assert main(["report", str(a), str(b), "--compare"]) == EXIT_COMPARE_DIFFERS

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "absent.json")]) == 74

    @pytest.mark.parametrize("mangle", [
        lambda obj: b"not json",
        lambda obj: b"[1, 2]",
        lambda obj: b'{"kind": "eval", "schema": 1}',
        lambda obj: json.dumps({**obj, "terms_used": "7"}).encode(),
        lambda obj: json.dumps({**obj, "s": [2.0, 0.0]}).encode(),
        lambda obj: json.dumps({**obj, "schema": 2}).encode(),
        lambda obj: json.dumps({**obj, "kind": "bogus"}).encode(),
    ], ids=["not-json", "not-object", "missing-keys", "typed-leaf", "typed-member",
            "schema-2", "unknown-kind"])
    def test_malformed_report_is_usage_error(self, tmp_path, capsys, mangle):
        good = tmp_path / "good.json"
        assert main(["eval", "--s", "2+0i", "--output", str(good)]) == EXIT_OK
        bad = tmp_path / "bad.json"
        bad.write_bytes(mangle(json.loads(good.read_bytes())))
        assert main(["report", str(bad), str(good), "--compare"]) == EXIT_USAGE
        assert main(["report", str(good), str(bad)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("etafloor: invalid parameter: ")


class TestHelp:
    def test_help_is_usage_on_stdout_and_exit_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        out, err = capsys.readouterr()
        assert out.startswith("usage: etafloor ")
        assert "{eval,props,pca,scan,zeros,report}" in out
        assert err == ""


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "etafloor", "eval", "--s", "1+0i"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "0.693147" in proc.stdout

    def test_import_loads_no_dependency_besides_numpy(self):
        # public top-level modules that importing the CLI adds after numpy, less the stdlib
        code = (
            "import sys, numpy; top = lambda: {n.split('.')[0] for n in sys.modules}; "
            "before = top(); import etafloor.cli; "
            "print(sorted(n for n in top() - before - set(sys.stdlib_module_names) "
            "if not n.startswith('_')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "['etafloor']"

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "etafloor", "scan", "--beta", "0:1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 64
