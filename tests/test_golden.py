"""Golden report bytes: parsing a fixture and serializing it again reproduces
both its JSON and its CSV byte for byte (fixtures: tests/golden/generate.py)."""

from pathlib import Path

import pytest

from etafloor.reporting import parse_report_json, serialize_report

GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = sorted(path.stem for path in GOLDEN.glob("*.json"))


def test_every_report_kind_has_a_fixture():
    assert NAMES == sorted(["line", "grid", "eval", "props", "pca", "zeros",
                            "merged_scan", "merged_zeros", "failed_line"])


@pytest.mark.parametrize("name", NAMES)
def test_golden_bytes_round_trip(name):
    report = parse_report_json((GOLDEN / f"{name}.json").read_bytes())
    assert serialize_report(report, "json") == (GOLDEN / f"{name}.json").read_bytes()
    assert serialize_report(report, "csv") == (GOLDEN / f"{name}.csv").read_bytes()
