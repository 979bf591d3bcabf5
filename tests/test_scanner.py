import math

import pytest

from etafloor.decomposition import LeadingComponent
import etafloor.eta as eta_mod
from etafloor.eta import ComplexPoint, eta_eval, eta_line
from etafloor.exceptions import (
    CrossCheckError,
    DomainError,
    EtaFloorError,
    NonConvergenceError,
    NoZeroFoundError,
)
from etafloor.scanner import (
    SCAN_REFINE_XTOL,
    ZERO_GRID_STEP,
    ZERO_REFINE_XTOL,
    ScanFailure,
    _grid_count,
    _local_minima,
    _refine_basins,
    bound_floor,
    golden_section_min,
    locate_zero,
    scan_grid,
    scan_line,
    survey_zeros,
    tail_bound,
    tail_inequality_check,
    zero_geometry,
)

LN2 = math.log(2.0)
SQRT2 = math.sqrt(2.0)

ETA_HALF = 0.6048986434216303  # cross-engine value; brute bracket confirms
ZERO_T1 = 14.134725
ZERO_T2 = 21.022040
ZERO_T3 = 25.010858
ABS_FLOOR_2 = 2.0 - math.pi**2 / 6.0  # 1 - sum_{n>=2} n^(-2) = 0.3550659...


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


class TestTailInequalityCheck:
    def test_at_one(self):
        sample = tail_inequality_check(1.0, 1e-10)
        assert sample.tail_abs == pytest.approx(1 - LN2, abs=1e-10)
        assert sample.tail_bound == pytest.approx(SQRT2 / 2, abs=1e-15)
        assert sample.leading is LeadingComponent.W1
        assert sample.tail_inequality_holds

    def test_at_half(self):
        sample = tail_inequality_check(0.5, 1e-10)
        assert sample.tail_abs == pytest.approx(1 - ETA_HALF, abs=1e-9)
        assert sample.tail_bound == pytest.approx(1.0, abs=1e-15)
        assert sample.floor_value == 0.0

    def test_margin_is_exact_difference(self):
        sample = tail_inequality_check(ComplexPoint(0.8, 37.5), 1e-9)
        assert sample.margin == sample.eta_abs - sample.floor_value


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
        got = _refine_basins(values, alpha, lo, step, xtol, tol, "checked", whole)
        assert expected
        assert (expected[0][0] is None) == (len(values) < 3)
        assert [row[:3] for row in got] == expected


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
            return [CrossCheckError("injected", gap=1.0, budget=0.0)
                    if 163.0 < beta < 163.2 and off_grid(beta) else res
                    for beta, res in zip(betas, real_block(alpha, betas, tol, engine))]

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
            scan_line(0.75, 10.0, 12.0, workers=w, **kwargs) for w in (1, 2, 8)
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lines_equal_scan_line_near_2000(self, workers):
        alphas = [0.55 + j * 0.1 for j in range(_grid_count(0.55, 0.95, 0.1))]
        grid = scan_grid((0.55, 0.95), (2000.0, 2001.0), 0.1, 0.01, workers=workers)
        assert len(alphas) == 5
        assert grid.lines == tuple(scan_line(a, 2000.0, 2001.0, 0.01) for a in alphas)

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

    def test_pool_children_grow_their_own_log_table(self, monkeypatch):
        from etafloor.reporting import serialize_report

        # beta 5000 needs ln n past the 4096 entries the table starts with
        monkeypatch.setattr(eta_mod, "_logs", eta_mod._logs[:4096].copy())
        grids = [scan_grid((0.9, 0.9), (5000.0, 5000.02), 0.1, 0.01, workers=w) for w in (2, 1)]
        assert serialize_report(grids[0], "csv") == serialize_report(grids[1], "csv")

    def test_pooled_grid_bytes_equal_serial(self):
        from etafloor.reporting import serialize_report

        # the alpha = 0.05 line fails at most points, the others refine basins
        grids = [scan_grid((0.05, 0.75), (995.0, 1001.0), 0.35, 0.05, workers=w)
                 for w in (1, 2)]
        assert grids[0].lines[0].failures and grids[0].lines[2].samples
        for fmt in ("csv", "json"):
            assert serialize_report(grids[1], fmt) == serialize_report(grids[0], fmt)


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


    @pytest.mark.parametrize("grid_step", [0.0, -0.01, math.nan])
    def test_grid_step_must_be_positive(self, grid_step):
        with pytest.raises(DomainError, match=r"^grid step must be > 0, got "):
            survey_zeros(0.0, 1.0, grid_step=grid_step)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_survey_raises_first_uncertified_point(self, workers):
        with pytest.raises(NonConvergenceError, match=r"s=0\.5\+4400j"):
            survey_zeros(4400.0, 4400.5, workers=workers)

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
                    out[k] = NonConvergenceError(f"injected low at t={t!r}")
                elif 20.9 < t < 21.1:
                    out[k] = CrossCheckError(f"injected high at t={t!r}")
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
