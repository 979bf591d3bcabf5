"""The benchmark's workloads: one `etafloor` command line each, built from a seed.

Each workload stresses a different layer (see WHY).  The seed only moves
`scan_high`'s beta window and `props_10k`'s `--seed`; it also picks which
report rows the oracle checks (see oracle.py).  The program receives only the
generated argv.  `small=True` gives the reduced sizes the harness self-test
uses; the benchmark itself always runs the full sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Why each workload is in the benchmark; BENCHMARK.json repeats these lines.
WHY = {
    "scan_accept": "acceptance scan on one line at low height: eta per-call overhead, "
                   "decomposition and the largest report; single process",
    "scan_high": "five lines near beta 2000: the eta summation kernel dominates; "
                 "the only workload that starts the scanner's process pools",
    "zeros_500": "critical-line zero survey to t=500: eta-only grid plus golden-section "
                 "refinement of every basin; no decomposition, small report",
    "props_10k": "the five proposition campaigns: real-valued Chebyshev weights only; "
                 "predicted flat for scanner, decomposition and reporting changes",
}
WORKLOADS = tuple(WHY)

SCAN_TOL = 1e-9   # the CLI's scan default, also the scanner's evaluation tol
ZERO_TOL = 1e-8   # the CLI's zeros default

# sha256 of the CSV report each fixed-input workload wrote at the commit the
# benchmark was defined on; a mismatch is reported as bytes_match, not a failure.
REFERENCE_DIGESTS = {
    "scan_accept": "0d7d51858856f80c159b427c467b128040cfb95b6815a3d80afa8ffd2e028f5e",
    "zeros_500": "a2fc8619b522bdd5cf0f1cad9e0381ce8ddc21b856abb05a38b0785182a94c46",
}


@dataclass(frozen=True)
class Job:
    """One workload at one seed: what to run and what its output must satisfy."""

    workload: str
    kind: str                           # "scan", "zeros" or "props"
    argv: tuple[str, ...]
    points: int                         # input points, the numerator of points_per_s
    workers: int
    expect_exit: int
    lines: tuple[float, ...] = ()       # scan: the alpha of every line
    span: tuple[float, float] = (0.0, 0.0)  # scan: beta range; zeros: t range
    step: float = 0.0                   # scan: beta step
    tol: float = 0.0
    cases: int = 0                      # props
    seed: int = 0                       # props: the program's --seed
    reference_digest: str | None = None


def grid_count(lo: float, hi: float, step: float) -> int:
    """Points of the grid lo + i*step <= hi, by the scanner's own formula."""
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


def scan_high_window(seed: int) -> int:
    """Start B of scan_high's beta window: 1990..2010, set by the seed."""
    return 1990 + seed % 21


def _scan_job(name, alpha_lo, alpha_hi, alpha_step, beta_lo, beta_hi, step,
              workers, strict, digest) -> Job:
    n_alpha = 1 if alpha_hi == alpha_lo else grid_count(alpha_lo, alpha_hi, alpha_step)
    lines = tuple(alpha_lo + j * alpha_step for j in range(n_alpha))
    alpha = f"{alpha_lo:g}" if n_alpha == 1 else f"{alpha_lo:g}:{alpha_hi:g}"
    argv = ["scan", "--alpha", alpha]
    if n_alpha > 1:
        argv += ["--alpha-step", f"{alpha_step:g}"]
    argv += ["--beta", f"{beta_lo:g}:{beta_hi:g}", "--step", f"{step:g}"]
    if strict:
        argv.append("--strict")
    argv += ["--workers", str(workers)]
    points = n_alpha * grid_count(beta_lo, beta_hi, step)
    return Job(name, "scan", tuple(argv), points, workers,
               expect_exit=2 if strict else 0, lines=lines, span=(float(beta_lo), float(beta_hi)),
               step=step, tol=SCAN_TOL, reference_digest=digest)


def make_job(workload: str, seed: int, small: bool = False) -> Job:
    """The job for `workload` at `seed`; KeyError for an unknown workload."""
    digest = None if small else REFERENCE_DIGESTS.get(workload)
    if workload == "scan_accept":
        # the small window still holds the violations near beta = 163
        beta = (150, 180) if small else (0, 200)
        return _scan_job(workload, 0.75, 0.75, 0.0, *beta, 0.01,
                         workers=1, strict=True, digest=digest)
    if workload == "scan_high":
        b = scan_high_window(seed)
        return _scan_job(workload, 0.55, 0.95, 0.1, b, b + (1 if small else 10), 0.01,
                         workers=2, strict=False, digest=digest)
    if workload == "zeros_500":
        t_hi = 50.0 if small else 500.0
        argv = ("zeros", "--t", f"0:{t_hi:g}")
        return Job(workload, "zeros", argv, grid_count(0.0, t_hi, 0.01), 1, 0,
                   span=(0.0, t_hi), tol=ZERO_TOL, reference_digest=digest)
    if workload == "props_10k":
        cases = 300 if small else 10_000
        argv = ("props", "--cases", str(cases), "--seed", str(seed))
        return Job(workload, "props", argv, 5 * cases, 1, 0,
                   cases=cases, seed=seed, reference_digest=digest)
    raise KeyError(workload)
