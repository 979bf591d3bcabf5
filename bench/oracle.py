"""Correctness gate: checks one CSV report against mpmath, outside the timed region.

* scans: every grid point has a row, and a seeded sample of rows (plus a few
  violation rows) has `eta_abs` within the run's tol of |mpmath.altzeta| at 30
  digits; a strict scan must contain violation rows;
* zeros: the survey found mpmath.nzeros(T) zeros, and a seeded sample of
  ordinates matches mpmath.zetazero within the run's tol;
* props: five campaigns with the requested cases and seeds, none failing.

`check` returns how many operations the report stands for and how many of
them failed, the fail_frac numerator and denominator.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, field

import mpmath

from workloads import Job, grid_count

ORACLE_DPS = 30
SCAN_SAMPLE_ROWS = 24
SCAN_SAMPLE_VIOLATIONS = 4
ZERO_SAMPLE_ORDINATES = 4


@dataclass
class Verdict:
    operations: int
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def miss(self, count: int, note: str) -> None:
        if count:
            self.failed += count
            self.notes.append(note)


def _rows(report: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(report.decode("utf-8"))))


def _check_scan(job: Job, rows: list[dict], rng: random.Random) -> Verdict:
    verdict = Verdict(operations=job.points)
    lo, hi = job.span
    n_beta = grid_count(lo, hi, job.step)
    on_grid = {alpha: set() for alpha in job.lines}
    for row in rows:
        alpha, beta = float(row["alpha"]), float(row["beta"])
        i = round((beta - lo) / job.step)
        if alpha in on_grid and 0 <= i < n_beta and lo + i * job.step == beta:
            on_grid[alpha].add(i)
    verdict.miss(job.points - sum(len(found) for found in on_grid.values()),
                 "grid points without a row (scan failures)")

    violations = [row for row in rows if float(row["margin"]) < -job.tol]
    if job.expect_exit == 2 and not violations:
        verdict.miss(1, "strict scan exited for violations but has no violation rows")
    sample = rng.sample(rows, min(SCAN_SAMPLE_ROWS, len(rows)))
    sample += rng.sample(violations, min(SCAN_SAMPLE_VIOLATIONS, len(violations)))
    bad = 0
    with mpmath.workdps(ORACLE_DPS):
        for row in sample:
            s = mpmath.mpc(mpmath.mpf(row["alpha"]), mpmath.mpf(row["beta"]))
            exact = abs(mpmath.altzeta(s))
            if abs(mpmath.mpf(row["eta_abs"]) - exact) > job.tol:
                bad += 1
    verdict.miss(bad, f"{bad} of {len(sample)} sampled rows off mpmath.altzeta by more than tol")
    verdict.notes.append(f"oracle checked {len(sample)} rows, {len(violations)} violation rows")
    return verdict


def _check_zeros(job: Job, rows: list[dict], rng: random.Random) -> Verdict:
    t_lo, t_hi = job.span
    expected = int(mpmath.nzeros(t_hi)) - (int(mpmath.nzeros(t_lo)) if t_lo > 0 else 0)
    verdict = Verdict(operations=expected)
    found = [float(row["t"]) for row in rows]
    verdict.miss(abs(expected - len(found)), f"found {len(found)} zeros, mpmath.nzeros says {expected}")
    first = int(mpmath.nzeros(t_lo)) if t_lo > 0 else 0
    picks = sorted(rng.sample(range(len(found)), min(ZERO_SAMPLE_ORDINATES, len(found))))
    bad = 0
    with mpmath.workdps(ORACLE_DPS):
        for k in picks:
            exact = mpmath.zetazero(first + k + 1).imag
            if abs(mpmath.mpf(found[k]) - exact) > job.tol:
                bad += 1
    verdict.miss(bad, f"{bad} of {len(picks)} sampled ordinates off mpmath.zetazero")
    verdict.notes.append(f"oracle: {len(found)} zeros found, {expected} expected, "
                         f"ordinates {[first + k + 1 for k in picks]} checked")
    return verdict


def _check_props(job: Job, rows: list[dict]) -> Verdict:
    verdict = Verdict(operations=job.points)
    expected = {f"prop{k}": job.seed + k - 1 for k in range(1, 6)}
    seen = {row["proposition"]: row for row in rows}
    for name, seed in expected.items():
        row = seen.get(name)
        if row is None or int(row["cases"]) != job.cases or int(row["seed"]) != seed:
            verdict.miss(job.cases, f"{name} missing or run with other cases/seed")
        else:
            verdict.miss(int(row["failures"]), f"{name}: {row['failures']} failing cases")
    return verdict


def check(job: Job, report: bytes, seed: int) -> Verdict:
    """Verdict on one report of `job`; `seed` picks the sampled rows."""
    rng = random.Random(f"{job.workload}:{seed}")
    try:
        rows = _rows(report)
        if job.kind == "scan":
            return _check_scan(job, rows, rng)
        if job.kind == "zeros":
            return _check_zeros(job, rows, rng)
        return _check_props(job, rows)
    except (UnicodeDecodeError, csv.Error, KeyError, ValueError, TypeError) as exc:
        return Verdict(operations=job.points, failed=job.points,
                       notes=[f"malformed report: {type(exc).__name__}: {exc}"])
