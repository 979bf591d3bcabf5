import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from etafloor.decomposition import decompose_from_eta
from etafloor.eta import ComplexPoint, eta_eval
from etafloor.exceptions import DomainError
from etafloor.propositions import run_all_suites
from etafloor.reporting import (
    EvalReport,
    PcaReport,
    PropsReport,
    SCAN_CSV_HEADER,
    ZerosReport,
    merge_reports,
    parse_report_json,
    serialize_report,
    write_report_bytes,
)
from etafloor.scanner import locate_zero, scan_grid, scan_line, zero_geometry


@pytest.fixture(scope="module")
def line_report():
    return scan_line(0.75, 1.0, 2.0, 0.1)


@pytest.fixture(scope="module")
def zeros_report():
    record = locate_zero(14.0, 14.3, 1e-8)
    return ZerosReport(t_range=(14.0, 14.3), tol=1e-8, rows=(zero_geometry(record),))


class TestDeterminism:
    def test_identical_bytes_on_repeat(self, line_report):
        for fmt in ("csv", "json"):
            assert serialize_report(line_report, fmt) == serialize_report(line_report, fmt)

    def test_csv_header_schema(self, line_report):
        data = serialize_report(line_report, "csv").decode()
        lines = data.split("\n")
        assert lines[0] == SCAN_CSV_HEADER
        assert lines[0] == ("alpha,beta,eta_abs,floor,margin,tail_abs,"
                            "tail_bound,leading,tail_ineq_holds")
        assert data.endswith("\n")
        assert "\r" not in data

    def test_unknown_format_rejected(self, line_report):
        with pytest.raises(DomainError):
            serialize_report(line_report, "yaml")

    def test_object_without_a_schema_rejected(self):
        with pytest.raises(DomainError, match="^no CSV schema for object$"):
            serialize_report(object(), "csv")


class TestRoundTrip:
    def test_line_scan(self, line_report):
        data = serialize_report(line_report, "json")
        parsed = parse_report_json(data)
        assert parsed == line_report
        assert serialize_report(parsed, "json") == data

    def test_grid(self):
        grid = scan_grid((0.6, 0.7), (0.0, 1.0), 0.1, 0.25)
        parsed = parse_report_json(serialize_report(grid, "json"))
        assert parsed == grid

    def test_eval(self):
        s = ComplexPoint(0.5, 14.1)
        report = EvalReport(s, 1e-10, "checked", eta_eval(s, 1e-10))
        parsed = parse_report_json(serialize_report(report, "json"))
        assert parsed == report

    def test_cross_check_gap_is_not_reported(self):
        s = ComplexPoint(0.5, 14.1)
        result = eta_eval(s, 1e-10)
        assert result.gap is not None
        with_gap = EvalReport(s, 1e-10, "checked", result)
        without_gap = EvalReport(s, 1e-10, "checked", dataclasses.replace(result, gap=None))
        for fmt in ("json", "csv"):
            assert serialize_report(with_gap, fmt) == serialize_report(without_gap, fmt)
        data = serialize_report(with_gap, "json")
        assert "gap" not in json.loads(data)
        assert parse_report_json(data) == with_gap

    def test_props(self):
        report = PropsReport(cases=50, seed=3, rows=tuple(run_all_suites(50, 3)))
        parsed = parse_report_json(serialize_report(report, "json"))
        assert parsed == report

    def test_pca(self):
        points = (ComplexPoint(1.5, 0.0), ComplexPoint(0.5, 9.0))
        rows = tuple(decompose_from_eta(p, eta_eval(p, 1e-10).value) for p in points)
        report = PcaReport(tol=1e-10, rows=rows)
        parsed = parse_report_json(serialize_report(report, "json"))
        assert parsed == report

    def test_zeros(self, zeros_report):
        parsed = parse_report_json(serialize_report(zeros_report, "json"))
        assert parsed == zeros_report

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            parse_report_json(json.dumps({"kind": "bogus"}))

    def test_line_range_of_three_entries_rejected(self, line_report):
        obj = json.loads(serialize_report(line_report, "json"))
        obj["beta_range"] = [1.0, 1.5, 2.0]
        with pytest.raises(DomainError, match=r"^malformed line_scan report: expected "
                                              r"tuple\[float, float\], got \[1\.0, 1\.5, 2\.0\]$"):
            parse_report_json(json.dumps(obj))

    @pytest.mark.parametrize("key, value, message", [
        ("abs_error_estimate", -1.0, "abs_error_estimate must be finite and >= 0"),
        ("terms_used", 0, "terms_used must be >= 1"),
    ])
    def test_invalid_eval_result_rejected(self, key, value, message):
        s = ComplexPoint(0.5, 14.1)
        obj = json.loads(serialize_report(EvalReport(s, 1e-10, "checked", eta_eval(s, 1e-10)),
                                          "json"))
        obj[key] = value
        with pytest.raises(DomainError, match=f"^malformed eval report: {message}$"):
            parse_report_json(json.dumps(obj))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_repr_round_trips(self, x):
        assert float(repr(x)) == x


class TestViolationsSchema:
    def test_empty_violations_key_present(self, line_report):
        obj = json.loads(serialize_report(line_report, "json"))
        assert obj["violations"] == []
        assert obj["failures"] == []


class TestMerge:
    def test_merge_lines_to_grid(self):
        a = scan_line(0.6, 0.0, 1.0, 0.5)
        b = scan_line(0.8, 0.0, 1.0, 0.5)
        merged = merge_reports([b, a])
        assert [ln.alpha for ln in merged.lines] == [0.6, 0.8]
        assert merged.min_eta_abs == min(a.min_eta_abs, b.min_eta_abs)

    def test_merge_zeros(self, zeros_report):
        other = ZerosReport(t_range=(20.9, 21.1), tol=1e-8, rows=())
        merged = merge_reports([other, zeros_report])
        assert merged.t_range == (14.0, 21.1)
        assert len(merged.rows) == 1

    def test_merge_mixed_rejected(self, line_report, zeros_report):
        with pytest.raises(DomainError):
            merge_reports([line_report, zeros_report])
        with pytest.raises(DomainError):
            merge_reports([])


class TestAtomicWrite:
    def test_write_and_content(self, tmp_path, line_report):
        target = tmp_path / "report.csv"
        data = serialize_report(line_report, "csv")
        write_report_bytes(data, str(target))
        assert target.read_bytes() == data
        # no temp files left behind
        assert [p.name for p in tmp_path.iterdir()] == ["report.csv"]

    def test_failed_rename_removes_the_temp_file(self, tmp_path, monkeypatch, capsys):
        import etafloor.reporting as reporting_mod
        from etafloor.cli import EXIT_IO, main

        def failing_replace(src, dst):
            raise OSError("injected rename failure")

        monkeypatch.setattr(reporting_mod.os, "replace", failing_replace)
        with pytest.raises(OSError, match="injected rename failure"):
            write_report_bytes(b"data", str(tmp_path / "report.csv"))
        assert list(tmp_path.iterdir()) == []
        assert main(["eval", "--s", "2", "--output", str(tmp_path / "eval.json")]) == EXIT_IO
        assert capsys.readouterr().err == "etafloor: i/o error: injected rename failure\n"
        assert list(tmp_path.iterdir()) == []

    def test_failed_cleanup_keeps_the_rename_error(self, tmp_path, monkeypatch):
        import etafloor.reporting as reporting_mod

        def failing_replace(src, dst):
            raise OSError("injected rename failure")

        def failing_unlink(path):
            raise OSError("injected unlink failure")

        monkeypatch.setattr(reporting_mod.os, "replace", failing_replace)
        monkeypatch.setattr(reporting_mod.os, "unlink", failing_unlink)
        with pytest.raises(OSError, match="^injected rename failure$"):
            write_report_bytes(b"data", str(tmp_path / "report.csv"))

    def test_overwrite_is_atomic_replace(self, tmp_path, line_report):
        target = tmp_path / "report.json"
        write_report_bytes(b"old", str(target))
        data = serialize_report(line_report, "json")
        write_report_bytes(data, str(target))
        assert target.read_bytes() == data
