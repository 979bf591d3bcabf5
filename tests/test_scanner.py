import json
import math
import os
import time
import tracemalloc
from concurrent.futures import Future
from dataclasses import fields
from functools import partial
from pathlib import Path

import pytest

from etafloor.decomposition import LeadingComponent, decompose_from_eta, second_term, tail_bound
import etafloor.eta as eta_mod
from etafloor.eta import ComplexPoint, EvalResult, eta_eval, eta_line
from etafloor.exceptions import (
    CrossCheckError,
    DegenerateGeometryError,
    DomainError,
    EtaFloorError,
    NonConvergenceError,
    NoZeroFoundError,
)
from etafloor.reporting import SCAN_CSV_HEADER
from etafloor.scanner import (
    SCAN_REFINE_XTOL,
    ZERO_GRID_STEP,
    ZERO_REFINE_XTOL,
    BoundSample,
    ScanFailure,
    ZeroRecord,
    ZeroRow,
    _grid_count,
    _local_minima,
    _refine_basins,
    _task_map,
    bound_floor,
    decompose_line,
    golden_section_min,
    locate_zero,
    scan_grid,
    scan_line,
    survey_zeros,
    zero_geometry,
)

LN2 = math.log(2.0)
SQRT2 = math.sqrt(2.0)

ETA_HALF = 0.6048986434216303  # cross-engine value; brute bracket confirms
ZERO_T1 = 14.134725
ZERO_T2 = 21.022040
ZERO_T3 = 25.010858
ABS_FLOOR_2 = 2.0 - math.pi**2 / 6.0  # 1 - sum_{n>=2} n^(-2) = 0.3550659...


def _marked_block(directory: str, k: int) -> list:
    """A pool task standing in for grid block k of a zero survey: block 0
    raises at once, any other block leaves a marker file named k after 0.5 s."""
    if k == 0:
        raise NonConvergenceError("block 0 failed")
    time.sleep(0.5)
    Path(directory, str(k)).touch()
    return [k]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class TestBoundFloor:
    def test_values(self):
        assert bound_floor(0.5) == 0.0
        assert bound_floor(1.0) == pytest.approx(1 - SQRT2 / 2, abs=1e-15)
        assert bound_floor(0.25) == pytest.approx(0.18920711500272125, abs=1e-15)

    def test_branches_meet_continuously(self):
        eps = 1e-9
        assert bound_floor(0.5 - eps) == pytest.approx(0.0, abs=1e-8)
        assert bound_floor(0.5 + eps) == pytest.approx(0.0, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            bound_floor(0.0)

    def test_tail_bound(self):
        assert tail_bound(0.5) == pytest.approx(1.0, abs=1e-15)
        assert tail_bound(1.0) == pytest.approx(SQRT2 / 2, abs=1e-15)


def _one_sample(alpha: float, beta: float, tol: float):
    """The one row of a scan of the single grid point alpha + i beta."""
    sample, = scan_line(alpha, beta, beta, 0.01, tol).samples
    return sample


class TestTailInequalityCheck:
    def test_at_one(self):
        sample = _one_sample(1.0, 0.0, 1e-10)
        assert sample.tail_abs == pytest.approx(1 - LN2, abs=1e-10)
        assert sample.tail_bound == pytest.approx(SQRT2 / 2, abs=1e-15)
        assert sample.leading is LeadingComponent.W1
        assert sample.tail_ineq_holds

    def test_at_half(self):
        sample = _one_sample(0.5, 0.0, 1e-10)
        assert sample.tail_abs == pytest.approx(1 - ETA_HALF, abs=1e-9)
        assert sample.tail_bound == pytest.approx(1.0, abs=1e-15)
        assert sample.floor == 0.0

    def test_margin_is_exact_difference(self):
        sample = _one_sample(0.8, 37.5, 1e-9)
        assert sample.margin == sample.eta_abs - sample.floor


class TestRowLayout:
    """Scanner rows are declared as their reports print them."""

    def test_scan_row_fields_are_the_csv_columns(self):
        names = [f.name for f in fields(BoundSample)]
        assert names[0] == "s"
        assert names[1:] == SCAN_CSV_HEADER.split(",")[2:]

    def test_zero_row_is_a_zero_record(self):
        assert issubclass(ZeroRow, ZeroRecord)

    def test_zero_row_fields_are_the_json_keys(self):
        golden = Path(__file__).resolve().parent / "golden" / "zeros.json"
        rows = json.loads(golden.read_text())["rows"]
        assert rows
        assert all(list(row) == [f.name for f in fields(ZeroRow)] for row in rows)


class TestGoldenSection:
    def test_parabola(self):
        # flat quadratic minimum: argmin resolvable only to ~sqrt(eps) scale
        x, fx = golden_section_min(lambda x: (x - 1.25) ** 2 + 3.0, 0.0, 3.0, 1e-10)
        assert x == pytest.approx(1.25, abs=2e-7)
        assert fx == pytest.approx(3.0, abs=1e-13)

    def test_v_shape(self):
        x, _ = golden_section_min(lambda x: abs(x - 0.7), 0.0, 1.0, 1e-9)
        assert x == pytest.approx(0.7, abs=1e-8)

    def test_returns_evaluated_point(self):
        seen = []

        def f(x):
            seen.append(x)
            return (x - 2.0) ** 2

        x, fx = golden_section_min(f, 0.0, 5.0, 1e-6)
        assert x in seen
        assert fx == f(x)

    def test_probe_sequence_is_pinned(self):
        seen = []

        def f(x):
            seen.append(x)
            return (x - 1.25) ** 2 + 3.0

        assert golden_section_min(f, 0.0, 3.0, 1e-10) == (1.2499999925116705, 3.0)
        assert [x.hex() for x in seen] == PARABOLA_PROBES

    def test_empty_bracket(self):
        with pytest.raises(DomainError, match="golden section needs hi > lo"):
            golden_section_min(abs, 1.0, 1.0, 1e-9)


# probes of golden_section_min on (x - 1.25)**2 + 3 over [0, 3] at xtol 1e-10
PARABOLA_PROBES = [
    "0x1.255992d382208p+0", "0x1.daa66d2c7ddf8p+0", "0x1.6a99b4b1f77dcp-1", "0x1.6a99b4b1f77dep+0",
    "0x1.f519f86ee2386p-1", "0x1.3fcd1e15e6798p+0", "0x1.5026296f9324fp+0", "0x1.35b29e2d2ecc0p+0",
    "0x1.460ba986db778p+0", "0x1.3bf1299e23ca1p+0", "0x1.422fb50f18c81p+0", "0x1.3e53c0975618bp+0",
    "0x1.40b6579088674p+0", "0x1.3f3cfa11f8067p+0", "0x1.4026338c99f44p+0", "0x1.405d4219d4ec8p+0",
    "0x1.40042ca32171cp+0", "0x1.3fef24ff5efc0p+0", "0x1.40112be8d77e9p+0", "0x1.3ffc24451508dp+0",
    "0x1.3ff72d5d6b64fp+0", "0x1.3fff35bb77cddp+0", "0x1.40011b2cbeaccp+0", "0x1.3ffe09b65be7cp+0",
    "0x1.3fffef27a2c6bp+0", "0x1.400061c093b3fp+0", "0x1.3fffa85468bb2p+0", "0x1.40001aed59a86p+0",
    "0x1.3fffd41a1f9cep+0", "0x1.3fffffdfd67eap+0", "0x1.40000a3525f07p+0", "0x1.3ffff97cf2388p+0",
    "0x1.400003d241aa5p+0", "0x1.3ffffd6f5d643p+0", "0x1.40000161c88fep+0", "0x1.3ffffef14f757p+0",
    "0x1.400000734186bp+0", "0x1.3fffff84ba7d8p+0", "0x1.400000182585ap+0", "0x1.3fffffbd09848p+0",
    "0x1.3ffffff5588b9p+0", "0x1.3fffffd28b917p+0", "0x1.3fffffca5471bp+0", "0x1.3fffffc540a45p+0",
    "0x1.3fffffc21d51ep+0", "0x1.3fffffc02cd6fp+0", "0x1.3fffffbef9ff7p+0", "0x1.3fffffc0ea7a6p+0",
    "0x1.3fffffbfb7a2fp+0", "0x1.3fffffc075466p+0", "0x1.3fffffc000127p+0", "0x1.3fffffbfe4677p+0",
    "0x1.3fffffc0112bfp+0",
]


def _grid_abs(alpha, lo, hi, step, tol):
    """|eta| at the scanner's grid lo + k*step, NaN where a point failed."""
    betas = [lo + k * step for k in range(_grid_count(lo, hi, step))]
    return [math.nan if isinstance(res, EtaFloorError) else abs(res.value)
            for res in eta_line(alpha, betas, tol, "checked")]


class TestRefineBasins:
    """_refine_basins gives, basin by basin, what golden_section_min gives."""

    @pytest.mark.parametrize("alpha, lo, hi, step, xtol, tol, whole", [
        (0.5, 0.0, 60.0, ZERO_GRID_STEP, ZERO_REFINE_XTOL, 1e-10, None),    # zero survey
        (0.75, 150.0, 180.0, 0.01, SCAN_REFINE_XTOL, 1e-9, None),           # acceptance line
        (0.5, 14.13, 14.135, ZERO_GRID_STEP, ZERO_REFINE_XTOL, 1e-10, (14.13, 14.135)),
        (0.5, 14.0, 14.3, ZERO_GRID_STEP, ZERO_REFINE_XTOL, 1e-10, (14.0, 14.3)),
    ], ids=["zeros-0-60", "accept-150-180", "whole-bracket", "whole-unused"])
    def test_equals_golden_section_bracket_by_bracket(self, alpha, lo, hi, step, xtol, tol, whole):
        values = _grid_abs(alpha, lo, hi, step, tol)

        def f(x):
            return abs(eta_eval(ComplexPoint(alpha, x), tol, "checked").value)

        brackets = [(i, lo + (i - 1) * step, lo + (i + 1) * step) for i in _local_minima(values)]
        if whole is not None and not brackets:
            brackets = [(None, *whole)]
        expected = [(i, *golden_section_min(f, b_lo, b_hi, xtol)) for i, b_lo, b_hi in brackets]
        got = _refine_basins(_local_minima(values), alpha, lo, step, xtol, tol, "checked", whole)
        assert expected
        assert (expected[0][0] is None) == (len(values) < 3)
        assert [(i, x, abs(res.value)) for i, x, res in got] == expected


class TestScanLine:
    def test_single_point(self):
        report = scan_line(1.0, 0.0, 0.0, 0.01)
        assert len(report.samples) == 1
        sample = report.samples[0]
        assert sample.eta_abs == pytest.approx(LN2, abs=1e-10)
        assert sample.margin == pytest.approx(0.40025396174649286, abs=1e-9)
        assert report.min_eta_abs == sample.eta_abs
        assert not report.violations

    def test_zero_dip_at_half(self):
        report = scan_line(0.5, 14.0, 14.3, 0.001)
        assert report.min_eta_abs < 1e-6
        assert report.argmin_beta == pytest.approx(ZERO_T1, abs=1e-4)
        # floor is exactly zero on the critical line: margins never negative
        assert not report.violations

    def test_absolute_convergence_floor_alpha_2(self):
        # the rigorous floor 1 - sum_{n>=2} n^(-2) always holds; the candidate
        # floor 1 - sqrt(2)/4 is genuinely violated near beta = 8.6 and the
        # scan reports that honestly rather than asserting it away
        report = scan_line(2.0, 0.0, 10.0, 0.05)
        assert report.min_eta_abs >= ABS_FLOOR_2 - 1e-9
        assert report.violations
        assert all(v.eta_abs >= ABS_FLOOR_2 - 1e-9 for v in report.violations)
        assert any(v.s.beta == pytest.approx(8.6, abs=0.2) for v in report.violations)

    def test_real_violations_near_163(self):
        # the candidate floor genuinely fails on this stretch of alpha = 0.75
        report = scan_line(0.75, 162.9, 163.35, 0.01)
        assert report.violations
        floor = bound_floor(0.75)
        for v in report.violations:
            assert v.margin < -report.tol
            assert v.eta_abs < floor
        assert report.min_eta_abs < 0.1440  # refined dip bottom
        betas = [v.s.beta for v in report.violations]
        assert min(betas) == pytest.approx(163.01, abs=1e-9)

    def test_refinement_monotone_and_in_samples(self):
        report = scan_line(0.5, 14.0, 14.3, 0.01)
        grid_min = min(
            s.eta_abs for s in report.samples if s.s.beta in
            {14.0 + i * 0.01 for i in range(31)}
        )
        assert report.min_eta_abs <= grid_min
        assert report.min_eta_abs == min(s.eta_abs for s in report.samples)
        assert any(s.eta_abs == report.min_eta_abs for s in report.samples)

    def test_validation(self):
        with pytest.raises(DomainError):
            scan_line(0.0, 0.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            scan_line(1.0, 2.0, 1.0, 0.1)
        with pytest.raises(DomainError):
            scan_line(1.0, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError, match="^tol must be > 0$"):
            scan_line(0.75, 0.0, 1.0, 0.1, tol=0.0)

    def test_unknown_engine_is_refused_before_sampling(self, monkeypatch):
        import etafloor.scanner as scanner_mod

        monkeypatch.setattr(scanner_mod, "_sample_lines", None)  # sampling would be a TypeError
        with pytest.raises(DomainError, match=r"^unknown engine 'bogus'; expected one of "):
            scan_line(0.75, 0.0, 1.0, 0.01, engine="bogus")

    def test_failed_sample_keeps_other_rows(self, monkeypatch):
        import etafloor.scanner as scanner_mod

        clean = scan_line(0.75, 160.0, 166.0, 0.01)
        bad_beta = 160.0 + 50 * 0.01
        real_lines = scanner_mod.eta_lines

        def failing(alphas, betas, tol, engine="checked"):
            return [[CrossCheckError("injected", gap=1.0, budget=0.0) if beta == bad_beta else res
                     for beta, res in zip(betas, line)]
                    for line in real_lines(alphas, betas, tol, engine)]

        monkeypatch.setattr(scanner_mod, "eta_lines", failing)
        report = scan_line(0.75, 160.0, 166.0, 0.01)
        assert [f.s.beta for f in report.failures] == [bad_beta]
        # the clean line has refined basin rows besides its 601 grid rows
        assert len(clean.samples) > 601
        assert report.samples == tuple(smp for smp in clean.samples if smp.s.beta != bad_beta)
        assert report.violations == tuple(v for v in clean.violations if v.s.beta != bad_beta)
        assert (report.min_eta_abs, report.argmin_beta) == (clean.min_eta_abs, clean.argmin_beta)

    def test_failed_refinement_probe_keeps_the_basin_grid_sample(self, monkeypatch):
        clean = scan_line(0.75, 160.0, 166.0, 0.01)
        real_block = eta_mod._eval_block

        def off_grid(beta):
            return beta != 160.0 + round((beta - 160.0) / 0.01) * 0.01

        def failing(alpha, betas, tol, engine):
            out = real_block(alpha, betas, tol, engine)
            for k, beta in enumerate(betas):
                if 163.0 < beta < 163.2 and off_grid(beta):
                    out[0][k] = CrossCheckError("injected", gap=1.0, budget=0.0)
            return out

        monkeypatch.setattr(eta_mod, "_eval_block", failing)
        report = scan_line(0.75, 160.0, 166.0, 0.01)
        (failure,) = report.failures
        assert (failure.error, failure.message) == ("CrossCheckError", "injected")
        assert 163.0 < failure.s.beta < 163.2 and off_grid(failure.s.beta)
        # the clean line's only refined row in the window is its minimum
        dropped = [smp for smp in clean.samples if 163.0 < smp.s.beta < 163.2
                   and off_grid(smp.s.beta)]
        assert [smp.s.beta for smp in dropped] == [clean.argmin_beta]
        kept = tuple(smp for smp in clean.samples if smp not in dropped)
        assert report.samples == kept
        assert report.violations == tuple(v for v in clean.violations if v not in dropped)
        assert (report.min_eta_abs, report.argmin_beta) == min(
            (smp.eta_abs, smp.s.beta) for smp in kept)

    def test_worker_determinism(self):
        from etafloor.reporting import serialize_report

        kwargs = dict(step=0.05, tol=1e-9)
        reports = [
            scan_line(0.75, 10.0, 17.0, workers=w, **kwargs) for w in (1, 2, 8)
        ]
        assert reports[0] == reports[1] == reports[2]
        blobs = {serialize_report(r, fmt) for r in reports for fmt in ("csv", "json")}
        assert len(blobs) == 2  # one csv byte string, one json byte string


    def test_failed_samples_cross_the_pool_as_rows(self):
        # Euler cannot certify most of this line: both kinds of row, from either path
        serial = scan_line(0.05, 900.0, 1100.0, 1.0, workers=1)
        pooled = scan_line(0.05, 900.0, 1100.0, 1.0, workers=2)
        assert pooled == serial
        assert len(serial.samples) == 113
        assert len(serial.failures) == 112
        assert {f.error for f in serial.failures} == {"NonConvergenceError"}

    def test_euler_head_over_the_cap_is_one_failure(self):
        # ceil|beta| = 1e9 head terms, past MAX_EULER_HEAD: refused, not allocated
        report = scan_line(0.5, 1e9, 1e9, 0.01)
        assert report.samples == () and report.min_eta_abs == math.inf
        (failure,) = report.failures
        assert failure.error == "NonConvergenceError"
        assert failure.message.endswith("(best estimate inf)")


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and the tasks
    submitted to it, one list per mapped function (a grid block by its first
    index, a line's refinement by its alpha, a survey's refinement chunk by
    its basin indices), and runs each in-process as it is submitted, keeping
    its result or its error in its future."""

    def __init__(self, calls: list, max_workers: int):
        self.calls = calls
        self.fn = None
        calls.append([max_workers])

    def submit(self, fn, numbered):
        if fn is not self.fn:
            self.fn = fn
            self.calls[-1].append([])
        _, task = numbered  # the pool numbers its tasks in submission order
        self.calls[-1][-1].append(task[0] if isinstance(task, tuple) else task)
        future = Future()
        try:
            future.set_result(fn(numbered))
        except EtaFloorError as error:
            future.set_exception(error)
        return future

    def shutdown(self, wait=True, *, cancel_futures=False):
        pass


class TestPoolSize:
    """One task per block of BLOCK_POINTS grid indices, then one refinement
    task per scan line, or per contiguous chunk of a survey's basins; a pool
    starts min(workers, blocks, usable CPUs) processes, and none when that is 1."""

    @pytest.fixture
    def calls(self, monkeypatch):
        import etafloor.scanner as scanner_mod

        calls: list = []
        # the pool's initializer is not run: it would leave a pool process's
        # shared task index in this process
        monkeypatch.setattr(scanner_mod, "ProcessPoolExecutor",
                            lambda max_workers, **pool_args: _RecordingPool(calls, max_workers))
        return calls

    @staticmethod
    def cpus(monkeypatch, count):
        """`count` usable CPUs on a larger host, or no usable count at all."""
        import os

        if count is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: None)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                                raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 64)

    @pytest.mark.parametrize("beta_max, workers, cpus, expected", [
        pytest.param(1.27, 8, 8, [], id="128-points"),  # one block
        pytest.param(1.28, 8, 8, [[2, [0, 128], [0.75]]], id="129-points"),  # two blocks
        pytest.param(10.0, 64, 4, [[4, list(range(0, 1001, 128)), [0.75]]],
                     id="1001-points-4-cpus"),
        pytest.param(10.0, 4, None, [], id="unknown-cpus"),  # runs in-process
        pytest.param(10.0, 4, 1, [], id="one-cpu"),  # so does 1 usable CPU
    ])
    def test_scan_line(self, calls, monkeypatch, beta_max, workers, cpus, expected):
        from etafloor.reporting import serialize_report

        serial = serialize_report(scan_line(0.75, 0.0, beta_max, 0.01), "csv")
        self.cpus(monkeypatch, cpus)
        pooled = scan_line(0.75, 0.0, beta_max, 0.01, workers=workers)
        assert calls == expected
        assert serialize_report(pooled, "csv") == serial

    @pytest.mark.parametrize("beta_max, expected", [
        pytest.param(1.27, [], id="128-points"),  # one block a line: no pool, refinement included
        pytest.param(1.28, [[2, [0, 128], [0.6 + j * 0.1 for j in range(3)]]], id="129-points"),
    ])
    def test_scan_grid(self, calls, monkeypatch, beta_max, expected):
        from etafloor.reporting import serialize_report

        args = ((0.6, 0.8), (0.0, beta_max), 0.1, 0.01)
        serial = serialize_report(scan_grid(*args), "csv")
        self.cpus(monkeypatch, 8)
        pooled = scan_grid(*args, workers=8)
        assert calls == expected
        assert len(pooled.lines) == 3
        assert serialize_report(pooled, "csv") == serial

    def test_survey_zeros(self, calls, monkeypatch):
        serial = survey_zeros(14.0, 17.0)
        self.cpus(monkeypatch, 8)
        assert survey_zeros(14.0, 17.0, workers=4) == serial  # 301 points, 3 blocks
        assert calls == [[3, [0, 128, 256], [[13]]]]  # 1 basin, so 1 refinement chunk

    def test_survey_zeros_splits_refinement_into_chunks(self, calls, monkeypatch):
        serial = survey_zeros(0.0, 30.0)
        self.cpus(monkeypatch, 8)
        assert survey_zeros(0.0, 30.0, workers=4) == serial  # 3001 points, 24 blocks
        # 6 basins in 4 contiguous chunks, one per process
        assert calls == [[4, list(range(0, 3001, 128)),
                          [[904], [1413, 1815], [2102], [2501, 2713]]]]

    def test_survey_stops_submitting_at_its_first_failed_block(self, calls, monkeypatch):
        import etafloor.scanner as scanner_mod

        real_lines = scanner_mod.eta_lines

        def failing(alphas, betas, tol, engine="checked"):
            return [[NonConvergenceError(f"injected at t={t!r}") if 2.995 < t < 3.005 else res
                     for t, res in zip(betas, line)]
                    for line in real_lines(alphas, betas, tol, engine)]

        monkeypatch.setattr(scanner_mod, "eta_lines", failing)
        with pytest.raises(NonConvergenceError, match="^injected at t=") as serial:
            survey_zeros(0.0, 30.0)
        self.cpus(monkeypatch, 8)
        with pytest.raises(NonConvergenceError) as pooled:
            survey_zeros(0.0, 30.0, workers=4)
        # t = 3 is in block 2 of 24: 2 blocks per process are submitted ahead of
        # the awaited one, and none once its failure is read
        assert calls == [[4, list(range(0, 11 * 128, 128))]]
        assert str(pooled.value) == str(serial.value)

    def test_failed_refinement_probe_in_the_survey_pool(self, calls, monkeypatch):
        import etafloor.scanner as scanner_mod

        real_line = scanner_mod.eta_line

        def failing(alpha, betas, tol, engine="checked"):
            # only refinement calls eta_line; both failing basins are in the second chunk
            return [NonConvergenceError(f"injected low at t={t!r}") if 20.9 < t < 21.1 else
                    CrossCheckError(f"injected high at t={t!r}") if 24.9 < t < 25.1 else res
                    for t, res in zip(betas, real_line(alpha, betas, tol, engine))]

        monkeypatch.setattr(scanner_mod, "eta_line", failing)
        with pytest.raises(NonConvergenceError, match="^injected low at t=") as serial:
            survey_zeros(0.0, 30.0)
        self.cpus(monkeypatch, 8)
        with pytest.raises(NonConvergenceError) as pooled:
            survey_zeros(0.0, 30.0, workers=2)
        assert calls == [[2, list(range(0, 3001, 128)), [[904, 1413, 1815], [2102, 2501, 2713]]]]
        assert str(pooled.value) == str(serial.value)

    def test_failed_refinement_probe_in_the_pool(self, calls, monkeypatch):
        import etafloor.scanner as scanner_mod

        args = ((0.6, 0.8), (160.0, 166.0), 0.1, 0.01)
        real_line = scanner_mod.eta_line

        def failing(alpha, betas, tol, engine="checked"):
            # only refinement calls eta_line; fail the probes of one line's window
            return [CrossCheckError("injected", gap=1.0, budget=0.0)
                    if alpha == 0.7 and 163.0 < beta < 163.2 else res
                    for beta, res in zip(betas, real_line(alpha, betas, tol, engine))]

        monkeypatch.setattr(scanner_mod, "eta_line", failing)
        serial = scan_grid(*args)
        self.cpus(monkeypatch, 8)
        pooled = scan_grid(*args, workers=2)
        assert [max_workers for max_workers, *_ in calls] == [2]
        assert [ln.failures for ln in pooled.lines] == [ln.failures for ln in serial.lines]
        assert pooled == serial
        (failure,) = (f for ln in serial.lines for f in ln.failures)
        assert (failure.s.alpha, failure.error, failure.message) == (
            0.7, "CrossCheckError", "injected")
        assert 163.0 < failure.s.beta < 163.2

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_is_refused(self, calls, workers):
        message = f"^workers must be >= 1, got {workers}$"
        with pytest.raises(DomainError, match=message):
            scan_line(0.75, 0.0, 1.0, 0.01, workers=workers)
        with pytest.raises(DomainError, match=message):
            survey_zeros(14.0, 14.3, workers=workers)
        assert calls == []


class TestScanGrid:
    def test_degenerate_grid_is_line(self):
        grid = scan_grid((0.8, 0.8), (1.0, 2.0), 0.05, 0.1)
        line = scan_line(0.8, 1.0, 2.0, 0.1)
        assert grid.lines == (line,)
        assert grid.min_eta_abs == line.min_eta_abs

    def test_two_lines_global_min(self):
        grid = scan_grid((0.6, 0.8), (0.0, 5.0), 0.2, 0.1)
        assert len(grid.lines) == 2
        assert grid.min_eta_abs == min(ln.min_eta_abs for ln in grid.lines)
        assert grid.argmin_alpha in (0.6, 0.8)

    def test_empty_beta_range_rejected(self):
        with pytest.raises(DomainError):
            scan_grid((0.6, 0.8), (5.0, 1.0), 0.2, 0.1)

    def test_reversed_alpha_range_rejected(self):
        with pytest.raises(DomainError, match=r"^grid 0.7:0.6 is empty \(hi < lo\)$"):
            scan_grid((0.7, 0.6), (0.0, 1.0), 0.05, 0.1)

    def test_parameters_are_refused_before_the_alpha_grid(self):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=r"^alpha and tol must be finite, "
                                                  r"got alpha=0\.5, tol=inf$"):
                scan_grid((0.5, 1.0), (0.0, 1.0), 1e-7, 0.01, tol=math.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_reversed_grid_is_refused(self):
        with pytest.raises(DomainError, match=r"^grid 1.0:0.0 is empty \(hi < lo\)$"):
            _grid_count(1.0, 0.0, 0.1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lines_equal_scan_line_near_2000(self, workers):
        alphas = [0.55 + j * 0.1 for j in range(_grid_count(0.55, 0.95, 0.1))]
        grid = scan_grid((0.55, 0.95), (2000.0, 2002.0), 0.1, 0.01, workers=workers)
        assert len(alphas) == 5
        assert grid.lines == tuple(scan_line(a, 2000.0, 2002.0, 0.01) for a in alphas)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_injected_failure_stays_on_its_line(self, monkeypatch, workers):
        import etafloor.scanner as scanner_mod

        args = ((0.6, 0.8), (20.0, 22.0), 0.1, 0.01)
        clean = scan_grid(*args, workers=workers)
        bad_alpha, bad_beta = clean.lines[1].alpha, 20.0 + 50 * 0.01
        real_lines = scanner_mod.eta_lines

        def failing(alphas, betas, tol, engine="checked"):
            return [[CrossCheckError("injected", gap=1.0, budget=0.0)
                     if (alpha, beta) == (bad_alpha, bad_beta) else res
                     for beta, res in zip(betas, line)]
                    for alpha, line in zip(alphas, real_lines(alphas, betas, tol, engine))]

        monkeypatch.setattr(scanner_mod, "eta_lines", failing)
        grid = scan_grid(*args, workers=workers)
        assert len(grid.lines) == 3
        assert grid.lines[0] == clean.lines[0]
        assert grid.lines[2] == clean.lines[2]
        (failure,) = grid.lines[1].failures
        assert failure == ScanFailure(ComplexPoint(bad_alpha, bad_beta), "CrossCheckError",
                                      "injected")
        assert grid.lines[1].samples == tuple(smp for smp in clean.lines[1].samples
                                              if smp.s.beta != bad_beta)
        assert grid.lines[1].violations == clean.lines[1].violations
        assert ((grid.lines[1].min_eta_abs, grid.lines[1].argmin_beta) ==
                (clean.lines[1].min_eta_abs, clean.lines[1].argmin_beta))

    @pytest.mark.skipif(_usable_cpus() < 2, reason="a real pool needs 2 usable CPUs")
    def test_pooled_refinement_equals_in_process(self):
        args = ((0.55, 0.95), (1990.0, 1992.0), 0.1, 0.01)
        serial = scan_grid(*args, workers=1)
        assert scan_grid(*args, workers=2) == serial
        grid_betas = {1990.0 + i * 0.01 for i in range(201)}
        assert any(smp.s.beta not in grid_betas for ln in serial.lines for smp in ln.samples)

    def test_pool_children_grow_their_own_log_table(self, monkeypatch):
        from etafloor.reporting import serialize_report

        # beta 5000 needs ln n past the 4096 entries the table starts with
        monkeypatch.setattr(eta_mod, "_logs", eta_mod._logs[:4096].copy())
        grids = [scan_grid((0.9, 0.9), (5000.0, 5002.0), 0.1, 0.01, workers=w) for w in (2, 1)]
        assert serialize_report(grids[0], "csv") == serialize_report(grids[1], "csv")

    def test_pooled_grid_bytes_equal_serial(self):
        from etafloor.reporting import serialize_report

        # the alpha = 0.05 line fails at most points, the others refine basins
        grids = [scan_grid((0.05, 0.75), (995.0, 1002.0), 0.35, 0.05, workers=w)
                 for w in (1, 2)]
        assert grids[0].lines[0].failures and grids[0].lines[2].samples
        for fmt in ("csv", "json"):
            assert serialize_report(grids[1], fmt) == serialize_report(grids[0], fmt)


class TestDecomposeLine:
    def test_rows_equal_one_point_decompositions(self):
        # 401 grid points, 4 blocks
        points = [ComplexPoint(0.5, k * 0.75) for k in range(401)]
        assert decompose_line(0.5, 0.0, 300.0, 0.75, 1e-10, theta=0.3) == [
            decompose_from_eta(p, eta_eval(p, 1e-10).value, 0.3) for p in points]


class TestZeros:
    def test_locate_first_zero(self):
        record = locate_zero(14.0, 14.3, 1e-8)
        assert record.t == pytest.approx(ZERO_T1, abs=1e-5)
        assert record.residual < 1e-8
        assert record.engine_gap <= 1e-9
        assert record.bracket == (14.0, 14.3)

    def test_locate_second_zero(self):
        record = locate_zero(20.9, 21.1, 1e-8)
        assert record.t == pytest.approx(ZERO_T2, abs=1e-5)

    def test_no_zero_in_2_3(self):
        with pytest.raises(NoZeroFoundError) as err:
            locate_zero(2.0, 3.0, 1e-8)
        assert err.value.best_residual > 1e-3

    def test_survey_finds_three_below_30(self):
        records = survey_zeros(0.0, 30.0, 1e-8)
        assert len(records) == 3
        ts = [r.t for r in records]
        assert ts[0] == pytest.approx(ZERO_T1, abs=1e-5)
        assert ts[1] == pytest.approx(ZERO_T2, abs=1e-5)
        assert ts[2] == pytest.approx(ZERO_T3, abs=1e-5)

    def test_survey_worker_determinism(self):
        r1 = survey_zeros(13.0, 22.0, 1e-8, workers=1)
        r4 = survey_zeros(13.0, 22.0, 1e-8, workers=4)
        assert r1 == r4

    def test_validation(self):
        with pytest.raises(DomainError):
            locate_zero(0.0, 1.0)
        with pytest.raises(DomainError):
            survey_zeros(-1.0, 5.0)
        with pytest.raises(DomainError, match="^tol must be > 0$"):
            survey_zeros(0.0, 1.0, tol=0.0)


    @pytest.mark.parametrize("grid_step", [0.0, -0.01, math.nan])
    def test_grid_step_must_be_positive(self, grid_step):
        with pytest.raises(DomainError, match=r"^grid step must be > 0, got "):
            survey_zeros(0.0, 1.0, grid_step=grid_step)

    def test_grid_beyond_a_list_is_refused(self):
        with pytest.raises(DomainError, match=r"^grid 0:1 with step 1e-300 has more points than "):
            survey_zeros(0, 1, grid_step=1e-300)

    def test_tol_under_the_evaluation_floor_is_refused_before_sampling(self, monkeypatch):
        import etafloor.scanner as scanner_mod

        monkeypatch.setattr(scanner_mod, "_sample_lines", None)  # sampling would be a TypeError
        for search in (survey_zeros, locate_zero):
            with pytest.raises(NonConvergenceError, match=r"below the 1e-12 floor"):
                search(14.0, 14.2, 1e-20)
            with pytest.raises(NonConvergenceError, match=r"^zero tol=9\.9e-11 needs "):
                search(14.0, 14.2, 9.9e-11)

    def test_parameters_are_refused_before_sampling(self, monkeypatch):
        import etafloor.scanner as scanner_mod

        monkeypatch.setattr(scanner_mod, "_sample_lines", None)  # sampling would be a TypeError
        with pytest.raises(DomainError, match=r"^alpha and tol must be finite, got alpha=0.5, "
                                              r"tol=inf$"):
            survey_zeros(0, 1, tol=math.inf)
        with pytest.raises(DomainError, match=r"^unknown engine 'bogus'; expected one of "):
            survey_zeros(14.0, 14.2, engine="bogus")

    def test_tol_at_the_evaluation_floor_finds_the_first_zero(self):
        record, = survey_zeros(14.0, 14.2, 1e-10)  # 1e-10 / 100 == 1e-12 exactly
        assert record.t == pytest.approx(ZERO_T1, abs=1e-5)
        assert record.residual < 1e-10

    @pytest.mark.parametrize("block_points", [4, 5])
    def test_basins_across_block_edges(self, monkeypatch, block_points):
        import etafloor.scanner as scanner_mod

        survey, located = survey_zeros(14.0, 40.0), locate_zero(14.0, 14.3)
        # basins 13, 415, ..., 2359: at size 4, 415 and 2359 end a block; at
        # size 5, 415 starts one and 1894, 2249 and 2359 end one
        monkeypatch.setattr(scanner_mod, "BLOCK_POINTS", block_points)
        assert survey_zeros(14.0, 40.0) == survey
        assert locate_zero(14.0, 14.3) == located

    @staticmethod
    def survey_peak_growth(workers: int) -> int:
        """How much higher the parent's traced peak is for survey_zeros(0, 100)
        at grid step 0.0025 than at 0.01; both find the same 29 zeros."""
        survey_zeros(0.0, 1.0)  # warm the engine's tables
        peaks, found = [], []
        for grid_step in (0.01, 0.0025):
            tracemalloc.start()
            try:
                found.append(len(survey_zeros(0.0, 100.0, grid_step=grid_step, workers=workers)))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert found == [29, 29]
        return peaks[1] - peaks[0]

    def test_survey_memory_does_not_grow_with_the_grid(self):
        # 30 000 more grid values would be about 940 KB held in a list
        assert self.survey_peak_growth(1) < 64 << 10

    @pytest.mark.skipif(_usable_cpus() < 2, reason="a real pool needs 2 usable CPUs")
    def test_pooled_survey_memory_does_not_grow_with_the_grid(self):
        # one future per grid block, submitted up front, would be about 370 KB
        assert self.survey_peak_growth(2) < 64 << 10

    @pytest.mark.skipif(_usable_cpus() < 2, reason="a real pool needs 2 usable CPUs")
    def test_pooled_survey_runs_no_queued_block_after_its_failure(self, tmp_path):
        # block 0 fails at once, while the executor's call queue already holds
        # blocks 2..4, out of reach of cancelling, and the process that ran
        # block 0 takes block 2 before the failure is read; only block 1, if
        # the other process started it before block 0 failed, may still run
        blocks = partial(_marked_block, str(tmp_path))
        with pytest.raises(NonConvergenceError, match="^block 0 failed$"), \
                _task_map(2) as task_map:
            list(task_map(blocks, range(12)))
        assert len(list(tmp_path.iterdir())) <= 1

    @pytest.mark.parametrize("workers", [1, 2])
    def test_survey_raises_first_uncertified_point(self, workers):
        with pytest.raises(NonConvergenceError, match=r"s=0\.5\+4400j"):
            survey_zeros(4400.0, 4401.3, workers=workers)

    def test_engine_disagreement_at_a_zero_is_a_cross_check_error(self, monkeypatch):
        import etafloor.scanner as scanner_mod

        monkeypatch.setattr(scanner_mod, "_engine_gap_at", lambda t, eval_tol: 1.0)
        with pytest.raises(CrossCheckError) as info:
            locate_zero(14.0, 14.3, 1e-8)
        assert (info.value.gap, info.value.budget) == (1.0, scanner_mod.ZERO_ENGINE_GAP_LIMIT)

    def test_survey_raises_the_lowest_failed_basin(self, monkeypatch):
        # the basin at 21.02 fails at its first probe, the one at 14.13 only
        # once its bracket is 1e-4 wide: the lower basin's error still wins
        real_block = eta_mod._eval_block

        def failing(alpha, betas, tol, engine):
            out = real_block(alpha, betas, tol, engine)
            for k, t in enumerate(betas):
                if t == round(t / ZERO_GRID_STEP) * ZERO_GRID_STEP:
                    continue  # grid points are left alone
                if abs(t - ZERO_T1) < 1e-4:
                    out[0][k] = NonConvergenceError(f"injected low at t={t!r}")
                elif 20.9 < t < 21.1:
                    out[0][k] = CrossCheckError(f"injected high at t={t!r}")
            return out

        monkeypatch.setattr(eta_mod, "_eval_block", failing)
        with pytest.raises(NonConvergenceError, match="injected low"):
            survey_zeros(0.0, 30.0, 1e-8)

class TestZeroGeometry:
    def test_first_zero_geometry(self):
        record = locate_zero(14.0, 14.3, 1e-8)
        geometry = zero_geometry(record)
        assert 0.0 <= geometry.angle < 2 * math.pi
        assert geometry.in_claimed_range
        # u2 + R = eta_bar - 1, so |u2 + R + 1| = |eta_bar| = residual-level
        s0 = ComplexPoint(0.5, record.t)
        eta_bar = eta_eval(s0, 1e-12).value.conjugate()
        u2 = -complex(math.cos(record.t * LN2), math.sin(record.t * LN2)) / SQRT2
        remainder = eta_bar - 1.0 - u2
        assert abs(u2 + remainder + 1.0) <= record.residual + 1e-11
        assert abs(u2) == pytest.approx(2 ** -0.5, abs=1e-15)

    def test_angles_of_first_three(self):
        for lo, hi in ((14.0, 14.3), (20.9, 21.1), (24.9, 25.1)):
            geometry = zero_geometry(locate_zero(lo, hi, 1e-8))
            assert math.pi / 2 <= geometry.angle <= 3 * math.pi / 2

    def test_vanishing_remainder_is_degenerate(self, monkeypatch):
        import etafloor.scanner as scanner_mod

        # eta_bar = 1 + u2 leaves no remainder vector to measure an angle from
        def without_remainder(s, tol, engine="checked"):
            return EvalResult((1.0 + second_term(s)).conjugate(), 0.0, "euler", 1)

        record = locate_zero(14.0, 14.3, 1e-8)
        monkeypatch.setattr(scanner_mod, "eta_eval", without_remainder)
        with pytest.raises(DegenerateGeometryError, match=r"^geometry vectors too small at t="):
            zero_geometry(record)
