"""Write the golden fixtures: JSON and CSV bytes of every report kind, and the
exact eta_eval outcomes at seeded points (eta_eval_pins.tsv).

    PYTHONPATH=src python tests/golden/generate.py

The fixtures pin the serializer's output and the engines' bits; regenerate
them only for a deliberate change, never to make a failing comparison pass.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from etafloor.decomposition import decompose_from_eta
import numpy as np

from etafloor.eta import ComplexPoint, eta_eval
from etafloor.exceptions import EtaFloorError
from etafloor.propositions import run_all_suites
from etafloor.reporting import (
    EvalReport,
    PcaReport,
    PropsReport,
    ZerosReport,
    merge_reports,
    serialize_report,
)
from etafloor.scanner import (
    LineScanReport,
    ScanFailure,
    scan_grid,
    scan_line,
    survey_zeros,
    zero_geometry,
)

HERE = Path(__file__).resolve().parent


def _zeros(t_lo: float, t_hi: float) -> ZerosReport:
    rows = tuple(map(zero_geometry, survey_zeros(t_lo, t_hi, 1e-8)))
    return ZerosReport(t_range=(t_lo, t_hi), tol=1e-8, rows=rows)


def _failed_line() -> LineScanReport:
    """A line whose every sample failed: no rows, min_eta_abs = inf."""
    points = (ComplexPoint(0.9, 1.0), ComplexPoint(0.9, 1.1))
    return LineScanReport(
        alpha=0.9,
        beta_range=(1.0, 1.1),
        step=0.1,
        tol=1e-9,
        samples=(),
        min_eta_abs=math.inf,
        argmin_beta=1.0,
        violations=(),
        failures=tuple(
            ScanFailure(p, "CrossCheckError", f"engines disagree at beta={p.beta!r}")
            for p in points
        ),
    )


def golden_reports() -> dict:
    """Every report kind, small enough to keep each fixture under 15 KB."""
    eval_point = ComplexPoint(0.5, 14.1)
    pca_points = (ComplexPoint(1.5, 0.0), ComplexPoint(0.5, 9.0), ComplexPoint(2.0, 8.6))
    return {
        "line": scan_line(0.75, 163.06, 163.12, 0.01),
        "grid": scan_grid((0.6, 0.7), (0.0, 1.0), 0.1, 0.25),
        # pooled, near beta 2000: every sub-block of the engines holds one row
        "grid_high": scan_grid((0.55, 0.95), (2000.4, 2000.5), 0.2, 0.01, workers=2),
        "eval": EvalReport(eval_point, 1e-10, "checked", eta_eval(eval_point, 1e-10)),
        "props": PropsReport(cases=50, seed=3, rows=tuple(run_all_suites(50, 3))),
        "pca": PcaReport(tol=1e-10, rows=tuple(
            decompose_from_eta(p, eta_eval(p, 1e-10).value) for p in pca_points)),
        "zeros": _zeros(0.0, 30.0),
        "merged_scan": merge_reports([scan_line(0.8, 0.0, 1.0, 0.5),
                                      scan_grid((0.6, 0.7), (0.0, 1.0), 0.1, 0.5)]),
        "merged_zeros": merge_reports([_zeros(20.9, 21.1), _zeros(14.0, 14.3)]),
        "failed_line": _failed_line(),
    }


PIN_ENGINES = ("partial", "euler", "accel", "checked")
PIN_TOLS = (1e-9, 1e-12)


def pin_points() -> list[tuple[float, float]]:
    """60 points: 46 seeded over alpha in [0.02, 3] and |beta| <= 4000, plus
    the Euler ladder (second rung, all four rungs, the head cap), the
    Chebyshev stage cap and the real axis."""
    rng = np.random.default_rng(20261018)
    points = []
    for k in range(46):
        beta_max = (50.0, 500.0, 4000.0)[k % 3]
        beta = float(rng.uniform(0.0, beta_max)) * (-1.0 if k % 7 == 3 else 1.0)
        points.append((float(rng.uniform(0.02, 3.0)), beta))
    return points + [
        (0.05, 900.0), (0.5, 4400.0), (0.5, 0.0), (1.0, 0.0), (3.0, 0.0), (0.05, 1500.0),
        (0.3, 3000.0), (0.5, 14.134725141734693), (0.75, 4600.0), (0.75, -160.5),
        (2.50262241104943, 2.5836969559698), (0.8366641980688805, 322.8604477874739),
        (0.02, 50.0), (0.5, 150000.0),
    ]


def _pin_line(alpha: float, beta: float, engine: str, tol: float) -> str:
    key = f"{alpha!r}\t{beta!r}\t{engine}\t{tol!r}"
    try:
        res = eta_eval(ComplexPoint(alpha, beta), tol, engine)
    except EtaFloorError as exc:
        return f"{key}\terror\t{type(exc).__name__}\t{exc}"
    return (f"{key}\tok\t{res.value.real.hex()}\t{res.value.imag.hex()}\t"
            f"{res.abs_error_estimate.hex()}\t{res.method}\t{res.terms_used}")


def eta_pins() -> str:
    """One tab-separated line per (point, engine, tol): the key, then either
    `ok`, value re/im, estimate (float.hex), method and terms, or `error`,
    the exception type and its message."""
    return "".join(_pin_line(alpha, beta, engine, tol) + "\n"
                   for alpha, beta in pin_points() for engine in PIN_ENGINES for tol in PIN_TOLS)


def main() -> int:
    for name, report in golden_reports().items():
        for fmt in ("json", "csv"):
            path = HERE / f"{name}.{fmt}"
            path.write_bytes(serialize_report(report, fmt))
            print(f"{path.name}: {path.stat().st_size} bytes")
    path = HERE / "eta_eval_pins.tsv"
    path.write_text(eta_pins(), encoding="utf-8")
    print(f"{path.name}: {path.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
