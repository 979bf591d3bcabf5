"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

from etafloor.cli import EXIT_VIOLATION, main
from etafloor.decomposition import inner_product_w1_w2, max_star_w
from etafloor.eta import (
    ComplexPoint,
    accel_stages_for,
    conversion_factor,
    eta_accel,
    eta_euler,
    eta_eval,
    factor_zero,
    partial_sum_bracket,
)
from etafloor.propositions import run_all_suites
from etafloor.scanner import locate_zero, scan_line, survey_zeros, zero_geometry

LN2 = math.log(2.0)
SQRT2 = math.sqrt(2.0)
INNER_1_0 = -math.pi * (LN2 - 0.5)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_eta1_accuracy_terms_and_speed():
    """eta(1) = ln 2 to 1e-12 with <= 64 terms per accelerated engine, < 1 ms/point."""
    euler = eta_euler(1.0, 1e-12)
    stages = accel_stages_for(1.0, 1e-12)
    accel = eta_accel(1.0, stages)
    err_euler = abs(euler.value - LN2)
    err_accel = abs(accel.value - LN2)

    reps = 200
    t0 = time.perf_counter()
    for _ in range(reps):
        eta_euler(1.0, 1e-12)
        eta_accel(1.0, stages)
    per_point_ms = (time.perf_counter() - t0) / (2 * reps) * 1e3

    ok = (
        err_euler <= 1e-12
        and err_accel <= 1e-12
        and euler.terms_used <= 64
        and accel.terms_used <= 64
        and per_point_ms < 1.0
    )
    _report(
        1,
        ok,
        f"|euler-ln2|={err_euler:.2e} ({euler.terms_used} terms), "
        f"|accel-ln2|={err_accel:.2e} ({accel.terms_used} terms), "
        f"{per_point_ms:.3f} ms/point",
    )


def test_criterion_2_conversion_factor_zeros():
    """conversion_factor(factor_zero(k)) = 0 within 1e-12 for k in {+-1,+-2,+-3}."""
    worst = max(abs(conversion_factor(factor_zero(k))) for k in (-3, -2, -1, 1, 2, 3))
    _report(2, worst < 1e-12, f"max |factor| at the six zeros = {worst:.2e}")


def test_criterion_3_proposition_suites():
    """Props 1-5 pass on 1e4 seeded cases each; Prop 4 error <= 1e-11(1+r); < 10 s."""
    t0 = time.perf_counter()
    results = run_all_suites(cases=10_000, seed=20260810)
    elapsed = time.perf_counter() - t0
    prop4 = next(r for r in results if r.proposition == "prop4")
    ok = all(r.passed for r in results) and elapsed < 10.0
    detail = (
        ", ".join(f"{r.proposition}:{r.failures}f" for r in results)
        + f", prop4 worst scaled error {prop4.worst_violation:.2e}, {elapsed:.1f}s"
    )
    _report(3, ok, detail)


def test_criterion_4_cross_engine_agreement():
    """1000 random points agree within combined estimates; 50 real points sit
    inside the N=1e6 partial-sum bracket."""
    rng = np.random.default_rng(4)
    bad = 0
    for _ in range(1000):
        s = ComplexPoint(rng.uniform(0.3, 2.0), rng.uniform(-100.0, 100.0))
        r1 = eta_euler(s, 1e-9)
        r2 = eta_accel(s, accel_stages_for(s, 1e-9))
        if abs(r1.value - r2.value) > r1.abs_error_estimate + r2.abs_error_estimate:
            bad += 1

    bracket_bad = 0
    for _ in range(50):
        alpha = float(rng.uniform(0.3, 2.0))
        lo, hi = partial_sum_bracket(alpha, 1_000_000)
        for res in (eta_euler(alpha, 1e-10),
                    eta_accel(alpha, accel_stages_for(alpha, 1e-10))):
            v = res.value.real
            slack = res.abs_error_estimate + 1e-12
            if not (lo - slack <= v <= hi + slack):
                bracket_bad += 1
    ok = bad == 0 and bracket_bad == 0
    _report(4, ok, f"{bad}/1000 disagreements, {bracket_bad}/100 bracket escapes")


def test_criterion_5_peak_objective_bound_on_grid():
    """sqrt(2)(1 - eta(alpha)) <= sqrt(2)/2^alpha at every alpha on [0.1, 5] step 0.01."""
    alphas = np.round(np.arange(0.10, 5.0001, 0.01), 10)
    failures = [float(a) for a in alphas if not max_star_w(float(a), 1e-10).holds]
    _report(5, not failures, f"{len(alphas)} grid points, violations at {failures[:5]}")


def test_criterion_6_inner_product_quadrature_vs_closed_form():
    """Agreement within 1e-9 on 500 random (alpha, beta); value at (1, 0)."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(500):
        s = ComplexPoint(rng.uniform(0.3, 2.0), rng.uniform(-50.0, 50.0))
        result = inner_product_w1_w2(s, 1e-9)
        worst = max(worst, abs(result.quadrature - result.closed_form))
    at_origin = inner_product_w1_w2(1.0, 1e-9)
    err_q = abs(at_origin.quadrature - INNER_1_0)
    err_c = abs(at_origin.closed_form - INNER_1_0)
    ok = worst <= 1e-9 and err_q <= 1e-9 and err_c <= 1e-9
    _report(
        6,
        ok,
        f"worst quad/closed gap {worst:.2e}; at (1,0): quad err {err_q:.2e}, "
        f"closed err {err_c:.2e} vs -pi(ln2-1/2) = {INNER_1_0:.12f}",
    )


def test_criterion_7_three_zeros_stable_with_geometry():
    """Exactly 3 zeros in t in [0, 30] at tol 1e-8, ordinates stable to 1e-6
    across engines and worker counts; |u2 + R + 1| <= 1e-7 at each."""
    records_1 = survey_zeros(0.0, 30.0, 1e-8, workers=1)
    records_4 = survey_zeros(0.0, 30.0, 1e-8, workers=4)
    count_ok = len(records_1) == 3 and len(records_4) == 3
    worker_stable = count_ok and all(
        abs(a.t - b.t) <= 1e-6 for a, b in zip(records_1, records_4)
    )

    engine_stable = True
    geometry_ok = True
    worst_closure = 0.0
    brackets = ((14.0, 14.3), (20.9, 21.1), (24.9, 25.1))
    for (lo, hi), record in zip(brackets, records_1):
        t_euler = locate_zero(lo, hi, 1e-8, engine="euler").t
        t_accel = locate_zero(lo, hi, 1e-8, engine="accel").t
        engine_stable &= abs(t_euler - t_accel) <= 1e-6
        zero_geometry(record)  # must not be degenerate
        eta_bar = eta_eval(ComplexPoint(0.5, record.t), 1e-12).value.conjugate()
        closure = abs(eta_bar)  # |u2 + R + 1| = |eta_bar - 1 + 1| exactly
        worst_closure = max(worst_closure, closure)
        geometry_ok &= closure <= 1e-7
    ok = count_ok and worker_stable and engine_stable and geometry_ok
    ts = [round(r.t, 6) for r in records_1]
    _report(
        7,
        ok,
        f"zeros {ts}, worker-stable={worker_stable}, engine-stable={engine_stable}, "
        f"worst |u2+R+1| = {worst_closure:.2e}",
    )


def test_criterion_8_scan_reproducibility_and_exit_contract(tmp_path, capsys):
    """Byte-identical CSV for 1 and 8 workers on alpha=0.75, beta 0:200 step 0.01;
    margin = eta_abs - floor on every row; refined minimum at alpha=0.5 over
    [14, 14.3] below 1e-6; negative margins listed and flipping --strict to 2."""
    out1 = tmp_path / "w1.csv"
    out8 = tmp_path / "w8.csv"
    base = ["scan", "--alpha", "0.75", "--beta", "0:200", "--step", "0.01",
            "--strict", "--format", "csv"]
    code1 = main(base + ["--workers", "1", "--output", str(out1)])
    code8 = main(base + ["--workers", "8", "--output", str(out8)])
    bytes1, bytes8 = out1.read_bytes(), out8.read_bytes()
    identical = bytes1 == bytes8

    rows = bytes1.decode().strip().split("\n")[1:]
    margin_ok = True
    negative_rows = 0
    for row in rows:
        fields = row.split(",")
        eta_abs, floor, margin = (float(fields[2]), float(fields[3]), float(fields[4]))
        margin_ok &= margin == eta_abs - floor
        negative_rows += margin < -1e-9

    # the floor hypothesis fails near beta=163.1, so --strict must exit 2 and
    # the violations must be first-class rows
    exit_ok = (code1 == code8) and (
        (negative_rows > 0 and code1 == EXIT_VIOLATION)
        or (negative_rows == 0 and code1 == 0)
    )

    zero_line = scan_line(0.5, 14.0, 14.3, 0.01)
    dip_ok = zero_line.min_eta_abs < 1e-6 and not zero_line.violations

    ok = identical and margin_ok and exit_ok and dip_ok
    _report(
        8,
        ok,
        f"byte-identical={identical} ({len(bytes1)} bytes, {len(rows)} rows), "
        f"margin-exact={margin_ok}, {negative_rows} negative margins -> exit {code1}, "
        f"min |eta(0.5+i beta)| on [14,14.3] = {zero_line.min_eta_abs:.2e}",
    )


def test_criterion_9_checked_throughput_on_critical_line():
    """1e4 checked evaluations of eta on the critical line, t in [0, 1000], <= 5 s."""
    ts = np.linspace(0.0, 1000.0, 10_000)
    t0 = time.perf_counter()
    for t in ts:
        eta_eval(ComplexPoint(0.5, float(t)), 1e-9, "checked")
    elapsed = time.perf_counter() - t0
    _report(9, elapsed <= 5.0, f"{elapsed:.2f} s for 10^4 checked evaluations")
