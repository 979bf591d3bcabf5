"""Golden report bytes: parsing a fixture and serializing it again reproduces
both its JSON and its CSV byte for byte, and the CLI writes the same bytes
(fixtures: tests/golden/generate.py)."""

from pathlib import Path

import pytest

from etafloor.cli import EXIT_OK, main
from etafloor.reporting import parse_report_json, serialize_report

GOLDEN = Path(__file__).resolve().parent / "golden"
NAMES = sorted(path.stem for path in GOLDEN.glob("*.json"))


def test_every_report_kind_has_a_fixture():
    assert NAMES == sorted(["line", "grid", "grid_high", "eval", "props", "pca", "zeros",
                            "merged_scan", "merged_zeros", "failed_line"])


@pytest.mark.parametrize("name", NAMES)
def test_golden_bytes_round_trip(name):
    report = parse_report_json((GOLDEN / f"{name}.json").read_bytes())
    assert serialize_report(report, "json") == (GOLDEN / f"{name}.json").read_bytes()
    assert serialize_report(report, "csv") == (GOLDEN / f"{name}.csv").read_bytes()


# CLI runs that write each fixture; several runs are merged by `etafloor report`
# (pca.json holds three unrelated points, so no single command writes it)
CLI_RUNS = {
    "line": [["scan", "--alpha", "0.75", "--beta", "163.06:163.12", "--step", "0.01"]],
    "grid": [["scan", "--alpha", "0.6:0.7", "--alpha-step", "0.1", "--beta", "0:1",
              "--step", "0.25"]],
    "grid_high": [["scan", "--alpha", "0.55:0.95", "--alpha-step", "0.2", "--beta",
                   "2000.4:2000.5", "--step", "0.01", "--workers", "2"]],
    "eval": [["eval", "--s", "0.5+14.1i", "--tol", "1e-10"]],
    "props": [["props", "--cases", "50", "--seed", "3"]],
    "zeros": [["zeros", "--t", "0:30", "--tol", "1e-8"]],
    "merged_scan": [["scan", "--alpha", "0.8", "--beta", "0:1", "--step", "0.5"],
                    ["scan", "--alpha", "0.6:0.7", "--alpha-step", "0.1", "--beta", "0:1",
                     "--step", "0.5"]],
    "merged_zeros": [["zeros", "--t", "20.9:21.1"], ["zeros", "--t", "14.0:14.3"]],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_writes_golden_bytes(name, fmt, tmp_path, capsys):
    runs = CLI_RUNS[name]
    if len(runs) > 1:
        inputs = [str(tmp_path / f"input{k}.json") for k in range(len(runs))]
        for argv, path in zip(runs, inputs):
            assert main(argv + ["--format", "json", "--output", path]) == EXIT_OK
        runs = [["report", *inputs]]
    target = tmp_path / f"report.{fmt}"
    assert main(runs[0] + ["--format", fmt, "--output", str(target)]) == EXIT_OK
    assert target.read_bytes() == (GOLDEN / f"{name}.{fmt}").read_bytes()
