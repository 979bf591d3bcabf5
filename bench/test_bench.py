"""Self-test of the benchmark harness at reduced sizes.

    python3 -m pytest bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the layers a workload exercises report work, that traced and untraced runs
write byte-identical reports and repeat their exact counts, and that the
harness refuses to run where its numbers would mislead.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run as bench
from spans import LAYER_UNITS, parse_importtime
from workloads import WHY, WORKLOADS

SEED = 101

with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

# layer metrics that must be positive on a workload that exercises the layer
EXERCISED = {
    "scan_accept": ("eta.calls", "eta.terms", "decomposition.calls", "scanner.grid_points",
                    "scanner.basins", "scanner.refine_probes", "reporting.bytes",
                    "reporting.serialize_s"),
    "scan_high": ("eta.calls", "eta.terms", "scanner.grid_points", "scanner.basins",
                  "scanner.pool_starts", "scanner.pool_s", "reporting.bytes"),
    "zeros_500": ("eta.calls", "eta.terms", "decomposition.calls", "scanner.grid_points",
                  "scanner.basins", "scanner.refine_probes", "scanner.refine_yield",
                  "scanner.geometry_s", "reporting.bytes"),
    "props_10k": ("eta.calls", "reporting.bytes",
                  *(f"propositions.prop{k}_s" for k in range(1, 6))),
}
EVERY_RUN = ("setup.numpy_s", "setup.scipy_s", "setup.etafloor_s")


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(w["why"] == WHY[w["name"]] for w in SPEC["workloads"])
    assert _units(SPEC["end_to_end"]) == bench.END_TO_END_UNITS
    assert _units(SPEC["per_layer"]) == LAYER_UNITS
    setup_bound = next(e["bound"] for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup_bound == max(e["bound"] for e in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = bench.run(workload, SEED, seconds=0, trace=False, small=True)
    assert result["correct"], result["notes"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert _units(SPEC["end_to_end"]) == {k: m["unit"] for k, m in result["metrics"].items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_keeps_the_report(workload):
    result = bench.run(workload, SEED, seconds=0, trace=True, small=True)
    # correct needs every report of the run, traced or not, byte-identical to
    # the first, and every count equal across the traced interpreters
    assert result["correct"], result["notes"]
    assert not any("differ" in note for note in result["notes"])
    assert len(result["samples"]["wall_s.traced"]) >= 2
    assert _units(SPEC["per_layer"]) == {k: m["unit"] for k, m in result["metrics"].items()}
    for name in EXERCISED[workload] + EVERY_RUN:
        assert result["metrics"][name]["value"] > 0, name
    for name in ("eta.calls", "eta.terms", "scanner.basins", "scanner.refine_probes"):
        assert len(set(result["samples"][name])) == 1, name


def _run_cli(args, cwd, **env):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args], cwd=cwd,
                          env={**os.environ, **env}, capture_output=True, text=True, timeout=180)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run_cli(["--workload", "scan_accept", "--seed", "1", "--seconds", "1",
                     "--trace", "0"], tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_refuses_to_run_with_a_worker_cap():
    done = _run_cli(["--workload", "scan_high", "--seed", "1", "--seconds", "1", "--trace", "0"],
                    bench.ROOT, ETAFLOOR_MAX_WORKERS="1")
    assert done.returncode != 0
    assert "ETAFLOOR_MAX_WORKERS" in done.stderr
    assert "correct" not in done.stdout


def test_compare_prints_one_row_per_workload_and_metric(tmp_path):
    def result(workload, wall):
        metrics = {name: {"value": wall if name == "wall_s" else 1.0, "unit": unit}
                   for name, unit in bench.END_TO_END_UNITS.items()}
        return json.dumps({"workload": workload, "trace": 0, "metrics": metrics})

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text("\n".join(result(w, x) for w in ("scan_accept", "zeros_500") for x in (2.0, 4.0)))
    b.write_text("\n".join(result(w, x) for w in ("scan_accept", "zeros_500") for x in (1.0, 2.0)))
    done = _run_cli(["--compare", str(a), str(b)], bench.ROOT)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[3:]]
    assert len(rows) == 2 * len(bench.END_TO_END_UNITS)
    wall = [r for r in rows if r[1] == "wall_s"]
    assert [r[0] for r in wall] == ["scan_accept", "zeros_500"]
    assert all(float(r[2]) == 3.0 and float(r[4]) == 1.5 and float(r[6]) == 0.5 for r in wall)


def test_importtime_charges_numpy_scipy_and_the_rest():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       900 |       1000 |     numpy",
        "import time:        50 |         50 |         numpy.linalg",
        "import time:       150 |        200 |       scipy",
        "import time:      2800 |       3000 |     scipy.special",
        "import time:       500 |       4500 |   etafloor",
        "import time:       500 |       5000 | etafloor.cli",
    ])
    assert parse_importtime(text) == {
        "setup.numpy_s": 0.001,
        "setup.scipy_s": 0.003,
        "setup.etafloor_s": pytest.approx(0.001),
    }
