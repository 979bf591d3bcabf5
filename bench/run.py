#!/usr/bin/env python3
"""etafloor benchmark: end-to-end and per-layer metrics of the `etafloor` CLI.

Run from the repository root:

    python3 bench/run.py --workload scan_accept --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --compare BEFORE.jsonl AFTER.jsonl

A run starts fresh interpreters (bench/child.py), each timing
`import etafloor.cli` and one `etafloor.cli.main(argv)` call on the workload's
argv, back to back for `--seconds` (at least MIN_SAMPLES of them), and reports
medians.  `--trace 0` gives the end-to-end metrics.  `--trace 1` alternates
untraced and traced interpreters; the traced ones wrap the calls into each
module (spans.py) and give the per-layer metrics.  Every report a run writes
is checked by the oracle (oracle.py) after the timing, and every report of a
run must be byte-identical to the first.

The last line of stdout is the result JSON; the run also appends it, with the
run record and all samples, to .bench_out/results.jsonl, which `--compare`
reads.  Reports and spans go to .bench_out/ as well.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata

import oracle
from spans import LAYER_UNITS, PARENT_SIDE_ONLY, parse_importtime
from workloads import WORKLOADS, make_job

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
RESULTS = os.path.join(OUT, "results.jsonl")

MIN_SAMPLES = 3          # untraced interpreters per run, whatever --seconds says
MIN_TRACED = 2           # traced interpreters per traced run, so counts can be compared
MIN_SETUP_SAMPLES = 7    # imports timed per run; import-only interpreters top up
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "points_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
EXACT_UNITS = ("count", "bytes", "ratio")


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------------------
# run record and preflight
# ----------------------------------------------------------------------------

def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "etafloor", "*.py"))):
        digest.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def run_record(job, seed: int) -> dict:
    return {
        "workload": job.workload,
        "argv": list(job.argv),
        "seed": seed,
        "workers": job.workers,
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def preflight(job) -> None:
    """Refuse to run where the numbers would not mean what they say."""
    if not os.path.isfile(os.path.join(SRC, "etafloor", "cli.py")):
        _fail(f"no etafloor sources under {SRC}; run from a checkout of the repository")
    if os.environ.get("ETAFLOOR_MAX_WORKERS"):
        _fail("ETAFLOOR_MAX_WORKERS is set; it silently caps the scanner's workers, unset it")
    if job.workers > _nproc():
        _fail(f"{job.workload} asks for {job.workers} workers but only {_nproc()} CPUs are usable")


# ----------------------------------------------------------------------------
# fresh interpreters
# ----------------------------------------------------------------------------

@dataclass
class Sample:
    traced: bool
    result: dict | None = None        # the child's JSON line
    report: bytes | None = None
    error: str | None = None


def run_child(job, workdir: str, index: int, traced: bool) -> Sample:
    report_path = os.path.join(workdir, f"report-{index}.csv")
    spec = {
        "argv": list(job.argv) + ["--output", report_path],
        "trace": traced,
        "run_id": f"{os.path.basename(workdir)}-{index}",
        "spans_path": os.path.join(workdir, f"spans-{index}.csv"),
        "workers": job.workers,
    }
    # its own session, so that a timeout also stops the pool workers it started
    with subprocess.Popen([sys.executable, os.path.join(BENCH, "child.py"), json.dumps(spec)],
                          cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as child:
        try:
            stdout, stderr = child.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return Sample(traced, error=f"timed out after {CHILD_TIMEOUT_S} s")
    sample = Sample(traced)
    if child.returncode != 0:
        tail = stderr.strip().splitlines()[-3:]
        sample.error = f"interpreter exited {child.returncode}: {' | '.join(tail)}"
        return sample
    try:
        sample.result = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sample.error = "interpreter printed no result"
        return sample
    if not sample.result["module"].startswith(SRC + os.sep):
        sample.error = f"etafloor imported from {sample.result['module']}, not {SRC}"
    elif sample.result["rc"] != job.expect_exit:
        sample.error = f"exit code {sample.result['rc']}, expected {job.expect_exit}"
    try:
        with open(report_path, "rb") as handle:
            sample.report = handle.read()
    except OSError as exc:
        sample.error = sample.error or f"no report: {exc}"
    return sample


def time_import() -> float:
    code = ("import time; t = time.perf_counter(); import etafloor.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(done.stdout.strip())


def import_breakdown() -> dict[str, float]:
    """Median setup.* over fresh `python -X importtime` interpreters."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import etafloor.cli"],
                              cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        runs.append(parse_importtime(done.stderr))
    return {name: _median([r[name] for r in runs]) for name in runs[0]}


def collect(job, workdir: str, seconds: float, trace: bool) -> list[Sample]:
    """Interpreters back to back for `seconds`; with `trace`, alternately untraced and traced."""
    pattern = (False, True) if trace else (False,)
    minimum = MIN_TRACED if trace else MIN_SAMPLES
    samples: list[Sample] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for traced in pattern:
            samples.append(run_child(job, workdir, len(samples), traced))
        rounds += 1
        last = time.perf_counter() - round_start
        if rounds >= minimum and time.perf_counter() - start + last > seconds:
            return samples


# ----------------------------------------------------------------------------
# one benchmark run
# ----------------------------------------------------------------------------

def judge(job, samples: list[Sample], seed: int) -> tuple[int, int, list[str], bool | None]:
    """attempted, failed, notes and bytes_match over all interpreters of a run."""
    good = [s for s in samples if s.error is None]
    notes = [s.error for s in samples if s.error is not None]
    if not good:
        return job.points * len(samples), job.points * len(samples), notes, None
    reference = good[0].report
    verdict = oracle.check(job, reference, seed)
    notes += verdict.notes
    attempted = failed = 0
    for sample in samples:
        attempted += verdict.operations
        if sample.error is not None:
            failed += verdict.operations
        elif sample.report != reference:
            failed += verdict.operations
            notes.append("reports differ between interpreters of one run")
        else:
            failed += verdict.failed
    bytes_match = None
    if job.reference_digest is not None:
        bytes_match = hashlib.sha256(reference).hexdigest() == job.reference_digest
    return attempted, failed, notes, bytes_match


def end_to_end(job, samples: list[Sample]) -> tuple[dict, dict]:
    good = [s.result for s in samples if s.error is None]
    values = {
        "wall_s": [r["wall_s"] for r in good],
        "points_per_s": [job.points / r["wall_s"] for r in good],
        "setup_s": [s.result["setup_s"] for s in samples if s.result],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    while good and len(values["setup_s"]) < MIN_SETUP_SAMPLES:
        values["setup_s"].append(time_import())
    return {name: _median(v) for name, v in values.items()}, values


def per_layer(samples: list[Sample]) -> tuple[dict, dict, list[str]]:
    traced = [s.result for s in samples if s.traced and s.error is None]
    plain = [s.result for s in samples if not s.traced and s.error is None]
    if not traced:
        return {name: 0.0 for name in LAYER_UNITS}, {}, ["no traced interpreter succeeded"]
    values = {name: [r["layers"][name] for r in traced] for name in traced[0]["layers"]}
    notes = []
    metrics = {}
    for name, v in values.items():
        if LAYER_UNITS[name] in EXACT_UNITS:
            if len(set(v)) > 1:
                notes.append(f"{name} differs between traced runs: {v}")
            metrics[name] = v[0]
        else:
            metrics[name] = _median(v)
    metrics.update(import_breakdown())
    values["wall_s.traced"] = [r["wall_s"] for r in traced]
    values["wall_s.untraced"] = [r["wall_s"] for r in plain]
    metrics["trace.overhead_s"] = _median(values["wall_s.traced"]) - _median(values["wall_s.untraced"])
    return metrics, values, notes


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """One benchmark run; returns the result record (the printed JSON is a subset)."""
    job = make_job(workload, seed, small)
    preflight(job)
    record = run_record(job, seed)
    workdir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    samples = collect(job, workdir, seconds, trace)
    attempted, failed, notes, bytes_match = judge(job, samples, seed)
    if trace:
        metrics, values, trace_notes = per_layer(samples)
        units = LAYER_UNITS
    else:
        metrics, values = end_to_end(job, samples)
        trace_notes, units = [], END_TO_END_UNITS
    for path in glob.glob(os.path.join(workdir, "report-*.csv")):
        os.remove(path)

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "record": record,
        "correct": failed == 0 and not trace_notes,
        "attempted": attempted,
        "failed": failed,
        "bytes_match": bytes_match,
        "notes": notes + trace_notes,
        "samples": values,
        "installed": next((s.result["installed"] for s in samples if s.traced and s.result), []),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def print_result(result: dict) -> None:
    print("record " + json.dumps(result["record"], sort_keys=True))
    for name, metric in result["metrics"].items():
        values = result["samples"].get(name, [])
        q1, _, q3 = _quartiles(values)
        print(f"{name} = {metric['value']:.6g} {metric['unit']} "
              f"(median of {len(values)}; quartiles {q1:.6g} .. {q3:.6g})" if values
              else f"{name} = {metric['value']:.6g} {metric['unit']}")
    fail_frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"fail_frac = {fail_frac:.6g} ({result['failed']} of {result['attempted']} operations)")
    print(f"bytes_match = {json.dumps(result['bytes_match'])} (check against the reference digest)")
    if result["trace"] and result["record"]["workers"] > 1:
        print("parent-side only (pool workers run the grid): " + ", ".join(PARENT_SIDE_ONLY))
    for note in result["notes"]:
        print(f"note: {note}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


# ----------------------------------------------------------------------------
# compare mode
# ----------------------------------------------------------------------------

def _load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def compare(path_a: str, path_b: str) -> None:
    """Per workload and end-to-end metric: each side's median, quartiles and B/A."""
    sides = [_load(path_a), _load(path_b)]
    names = [w for w in WORKLOADS if any(r["workload"] == w for side in sides for r in side)]
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<12} {'metric':<13} {'A median':>12} {'A q1..q3':>25} "
          f"{'B median':>12} {'B q1..q3':>25} {'B/A':>7}  runs")
    for workload in names:
        for metric in END_TO_END_UNITS:
            cols = []
            for side in sides:
                values = [r["metrics"][metric]["value"] for r in side
                          if r["workload"] == workload and not r["trace"] and metric in r["metrics"]]
                cols.append((values, _quartiles(values)))
            (va, (a1, a2, a3)), (vb, (b1, b2, b3)) = cols
            ratio = f"{b2 / a2:7.4f}" if va and vb and a2 else "      -"
            print(f"{workload:<12} {metric:<13} {a2:12.6g} {f'{a1:.6g}..{a3:.6g}':>25} "
                  f"{b2:12.6g} {f'{b1:.6g}..{b3:.6g}':>25} {ratio}  {len(va)}/{len(vb)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two results.jsonl files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(RESULTS, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(result) + "\n")
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
