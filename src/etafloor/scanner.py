"""Line and grid scans of |eta| against the candidate floor, plus zero location.

The candidate floor on the vertical line Re(s) = alpha is

    L(alpha) = |1 - sqrt(2)/2^alpha|,

treated strictly as a hypothesis under test: every sample records its margin
|eta(s)| - L(alpha), negative margins are collected as violations, and nothing
here asserts the floor.  Each sample also records the tail modulus |T(s)|
against sqrt(2)/2^alpha under whichever component the variance classifier
marks as leading.

Scans are deterministic: the beta grid is an index formula, workers receive
contiguous index chunks, results merge in ascending beta order, and every local
minimum is refined by golden section, all basins of a line in lockstep (the
refined samples join the report so the reported minimum is the minimum over
the report's samples).

Zero location runs the same machinery on f(t) = |eta(1/2 + i t)| with a much
finer abscissa resolution, and accepts an ordinate only when the residual is
below tolerance and the two accelerated engines agree at it.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Generator, NamedTuple, Sequence

from .decomposition import LeadingComponent, decompose_from_eta, second_term, tail_bound
from .eta import (
    BLOCK_POINTS,
    ComplexPoint,
    EvalResult,
    accel_stages_for,
    as_point,
    eta_accel,
    eta_eval,
    eta_euler,
    eta_line,
    eta_lines,
)
from .exceptions import (
    CrossCheckError,
    DegenerateGeometryError,
    DomainError,
    EtaFloorError,
    NoZeroFoundError,
)

__all__ = [
    "BoundSample",
    "ScanFailure",
    "LineScanReport",
    "GridReport",
    "ZeroRecord",
    "ZeroGeometry",
    "bound_floor",
    "tail_inequality_check",
    "scan_line",
    "scan_grid",
    "golden_section_min",
    "locate_zero",
    "survey_zeros",
    "zero_geometry",
]

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_SCAN_TOL = 1e-9
SCAN_REFINE_XTOL = 1e-6
DEFAULT_ZERO_TOL = 1e-8
ZERO_REFINE_XTOL = 1e-10
ZERO_GRID_STEP = 0.01
GOLDEN_MAX_ITER = 200
ZERO_GEOMETRY_TOL = 1e-10
ZERO_ENGINE_GAP_LIMIT = 1e-9


@dataclass(frozen=True)
class BoundSample:
    s: ComplexPoint
    eta_abs: float
    floor_value: float
    margin: float
    tail_abs: float
    tail_bound: float
    leading: LeadingComponent
    tail_inequality_holds: bool


@dataclass(frozen=True)
class ScanFailure:
    s: ComplexPoint
    error: str
    message: str


@dataclass(frozen=True)
class LineScanReport:
    alpha: float
    beta_range: tuple[float, float]
    step: float
    tol: float
    min_eta_abs: float
    argmin_beta: float
    samples: tuple[BoundSample, ...]
    violations: tuple[BoundSample, ...]
    failures: tuple[ScanFailure, ...]


@dataclass(frozen=True)
class GridReport:
    min_eta_abs: float
    argmin_alpha: float
    argmin_beta: float
    violation_count: int
    lines: tuple[LineScanReport, ...]

    @classmethod
    def from_lines(cls, lines) -> GridReport:
        """Summary over scanned lines: the least line minimum (ties go to the
        lower alpha) and the total violation count."""
        lines = tuple(lines)
        best = min(lines, key=lambda ln: (ln.min_eta_abs, ln.alpha))
        return cls(
            min_eta_abs=best.min_eta_abs,
            argmin_alpha=best.alpha,
            argmin_beta=best.argmin_beta,
            violation_count=sum(len(ln.violations) for ln in lines),
            lines=lines,
        )


@dataclass(frozen=True)
class ZeroRecord:
    t: float
    residual: float
    engine_gap: float
    bracket: tuple[float, float]


class ZeroGeometry(NamedTuple):
    angle: float
    in_claimed_range: bool


def bound_floor(alpha: float) -> float:
    """Candidate floor |1 - sqrt(2) * 2^(-alpha)|; zero exactly at alpha = 1/2."""
    return abs(1.0 - tail_bound(alpha))


def tail_inequality_check(s, tol: float, engine: str = "checked") -> BoundSample:
    """One sample: |eta|, floor margin, tail modulus versus sqrt(2)/2^alpha.

    Under a leading first component the recorded inequality is
    |T| <= sqrt(2)/2^alpha; under a leading second component it is
    |T| >= sqrt(2)/2^alpha.  The outcome is recorded, never asserted.
    """
    p = as_point(s)
    return _bound_sample(p, eta_eval(p, tol, engine))


def _bound_sample(p: ComplexPoint, res: EvalResult) -> BoundSample:
    """The sample tail_inequality_check records at p from eta(p) = res."""
    dec = decompose_from_eta(p, res.value)
    eta_abs = abs(res.value)
    floor_value = bound_floor(p.alpha)
    t_abs = abs(dec.tail)
    t_bound = tail_bound(p.alpha)
    slack = res.abs_error_estimate + 1e-12 * (1.0 + t_bound)
    if dec.leading is LeadingComponent.W1:
        holds = t_abs <= t_bound + slack
    else:
        holds = t_abs >= t_bound - slack
    return BoundSample(
        s=p,
        eta_abs=eta_abs,
        floor_value=floor_value,
        margin=eta_abs - floor_value,
        tail_abs=t_abs,
        tail_bound=t_bound,
        leading=dec.leading,
        tail_inequality_holds=holds,
    )


def _abs_value(p: ComplexPoint, res: EvalResult) -> float:
    return abs(res.value)


# ----------------------------------------------------------------------------
# deterministic parallel evaluation
# ----------------------------------------------------------------------------

def _index_chunks(count: int, workers: int) -> list[tuple[int, int]]:
    workers = min(workers, count) or 1
    size, extra = divmod(count, workers)
    chunks = []
    start = 0
    for w in range(workers):
        stop = start + size + (1 if w < extra else 0)
        chunks.append((start, stop))
        start = stop
    return chunks


def _grid_chunk(args: tuple) -> list[list]:
    """Per line alpha, row(p, eta(p)) at p = alpha + i(lo + k*step) for k in
    k0..k1-1.  Every line goes through one eta_lines call per block of grid
    indices, so the lines share each block's phases and only one block's
    results are held at once.  The EtaFloorError stands where a point failed,
    so it crosses a process pool as a value.  `row` must be a module-level
    function."""
    row, alphas, lo, step, k0, k1, tol, engine = args
    out: list[list] = [[] for _ in alphas]
    for b0 in range(k0, k1, BLOCK_POINTS):
        betas = [lo + k * step for k in range(b0, min(b0 + BLOCK_POINTS, k1))]
        for alpha, rows, results in zip(alphas, out, eta_lines(alphas, betas, tol, engine)):
            for beta, res in zip(betas, results):
                rows.append(res if isinstance(res, EtaFloorError)
                            else row(ComplexPoint(alpha, beta), res))
    return out


def _sample_lines(row: Callable, alphas: Sequence[float], lo: float, step: float, count: int,
                  workers: int, tol: float, engine: str) -> list[list]:
    """_grid_chunk over grid indices 0..count-1 of every line alpha: the indices
    are cut into workers x len(alphas) contiguous chunks, each chunk evaluates
    every line, and all chunks go through one process pool (a pool task holds
    as many rows as one line's chunk per worker would).  Each line's rows
    come back merged in index order."""
    workers = max(1, int(workers))
    chunks = _index_chunks(count, workers * len(alphas))
    arg_sets = [(row, tuple(alphas), lo, step, k0, k1, tol, engine) for k0, k1 in chunks]
    if min(workers, count) <= 1:
        results = list(map(_grid_chunk, arg_sets))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_grid_chunk, arg_sets))
    return [[value for chunk in results for value in chunk[j]] for j in range(len(alphas))]


# ----------------------------------------------------------------------------
# golden-section refinement
# ----------------------------------------------------------------------------

def _golden_section(
    lo: float, hi: float, xtol: float
) -> Generator[float, float, tuple[float, float]]:
    """Golden section for the minimum of a unimodal f on [lo, hi], as a
    generator: it yields each probe x, is sent f(x), and returns the best
    evaluated (x, f(x)).

    Returning an actually-evaluated point (rather than the final bracket
    midpoint) keeps "refined minimum <= coarse minimum" true by construction
    whenever the coarse point is one of the probes.
    """
    if not (hi > lo):
        raise DomainError("golden section needs hi > lo")
    a, b = lo, hi
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc = yield c
    fd = yield d
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(GOLDEN_MAX_ITER):
        if (b - a) <= xtol:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - INV_PHI * (b - a)
            fc = yield c
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + INV_PHI * (b - a)
            fd = yield d
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def golden_section_min(
    f: Callable[[float], float], lo: float, hi: float, xtol: float
) -> tuple[float, float]:
    """Minimum of a unimodal f on [lo, hi]; returns the best evaluated point."""
    search = _golden_section(lo, hi, xtol)
    x = next(search)
    while True:
        try:
            x = search.send(f(x))
        except StopIteration as done:
            return done.value


def _local_minima(values: Sequence[float]) -> list[int]:
    """Indices of interior local minima (strict on the left, lax on the right).

    A NaN value marks a failed grid point: every comparison with it is false,
    so no minimum is taken at it or next to it.
    """
    idx = []
    for i in range(1, len(values) - 1):
        if values[i] < values[i - 1] and values[i] <= values[i + 1]:
            idx.append(i)
    return idx


class _ProbeAbs(float):
    """|eta| at a refinement probe, carrying the probe's EvalResult, so the
    best point golden section returns brings its result along."""

    __slots__ = ("result",)

    def __new__(cls, result: EvalResult) -> _ProbeAbs:
        self = super().__new__(cls, abs(result.value))
        self.result = result
        return self


def _refine_basins(
    values: Sequence[float], alpha: float, lo: float, step: float, xtol: float, tol: float,
    engine: str, whole: tuple[float, float] | None = None,
) -> list[tuple[int | None, float, float, EvalResult | EtaFloorError]]:
    """(i, x, |eta(alpha + ix)|, eta(alpha + ix)) at the golden-section minimum
    of each grid basin, in basin order.

    values[i] is the grid sample at x = lo + i*step (NaN where it failed); the
    basin of an interior local minimum i is [lo + (i-1)*step, lo + (i+1)*step].
    A grid without interior minima refines the bracket `whole`, if given, as i = None.
    Every basin advances in lockstep: each round evaluates the next probe of
    every unfinished basin with one eta_line call.  A basin whose probe fails
    stops there, as (i, probe, NaN, the EtaFloorError).
    """
    brackets = [(i, lo + (i - 1) * step, lo + (i + 1) * step) for i in _local_minima(values)]
    if whole is not None and not brackets:
        brackets = [(None, *whole)]
    searches = [_golden_section(b_lo, b_hi, xtol) for _, b_lo, b_hi in brackets]
    probes = [next(search) for search in searches]
    refined: list = [None] * len(brackets)
    active = list(range(len(brackets)))
    while active:
        results = eta_line(alpha, [probes[j] for j in active], tol, engine)
        still = []
        for j, res in zip(active, results):
            if isinstance(res, EtaFloorError):
                refined[j] = (brackets[j][0], probes[j], math.nan, res)
                continue
            try:
                probes[j] = searches[j].send(_ProbeAbs(res))
                still.append(j)
            except StopIteration as done:
                best_x, best_f = done.value
                refined[j] = (brackets[j][0], best_x, float(best_f), best_f.result)
        active = still
    return refined



# ----------------------------------------------------------------------------
# line and grid scans
# ----------------------------------------------------------------------------

def _grid_count(lo: float, hi: float, step: float) -> int:
    if not (step > 0.0):
        raise DomainError(f"grid step must be > 0, got {step}")
    if not all(map(math.isfinite, (lo, hi, step, (hi - lo) / step))):
        raise DomainError(f"grid {lo}:{hi} with step {step} has no finite point count")
    return int(math.floor((hi - lo) / step + 1e-9)) + 1


def _scan_lines(alphas: Sequence[float], beta_min: float, beta_max: float, step: float,
                tol: float, workers: int, engine: str) -> list[LineScanReport]:
    """The report of each line alpha; the grid points of every line are
    sampled through one process pool, then each line is refined in turn."""
    if not (alphas[0] > 0.0):
        raise DomainError("alpha must be > 0")
    if not math.isfinite(alphas[0]):
        raise DomainError("alpha must be finite")
    if beta_max < beta_min:
        raise DomainError("beta range is empty (beta_max < beta_min)")
    if not (step > 0.0):
        raise DomainError("step must be > 0")
    if not (tol > 0.0):
        raise DomainError("tol must be > 0")
    if tol == math.inf:  # no margin is below -inf
        raise DomainError(f"tol must be finite, got tol={tol}")
    eval_tol = min(tol, DEFAULT_SCAN_TOL)
    lines = _sample_lines(_bound_sample, alphas, beta_min, step,
                          _grid_count(beta_min, beta_max, step), workers, eval_tol, engine)
    return [_line_report(alpha, beta_min, beta_max, step, tol, eval_tol, engine, rows)
            for alpha, rows in zip(alphas, lines)]


def _line_report(alpha: float, beta_min: float, beta_max: float, step: float, tol: float,
                 eval_tol: float, engine: str, rows: list) -> LineScanReport:
    """The report of one line from its grid rows (a BoundSample or the
    EtaFloorError of each grid point): failures, refined basins, violations."""
    samples = [row for row in rows if isinstance(row, BoundSample)]
    failures = [ScanFailure(ComplexPoint(alpha, beta_min + i * step), type(row).__name__, str(row))
                for i, row in enumerate(rows) if isinstance(row, EtaFloorError)]

    # refine each basin whose grid point and both grid neighbours were sampled
    eta_abs_values = [row.eta_abs if isinstance(row, BoundSample) else math.nan for row in rows]
    refined: list[BoundSample] = []
    for i, x, x_abs, res in _refine_basins(eta_abs_values, alpha, beta_min, step,
                                           SCAN_REFINE_XTOL, eval_tol, engine):
        # a failed probe ends its basin, which keeps its grid sample
        if isinstance(res, EtaFloorError):
            failures.append(ScanFailure(ComplexPoint(alpha, x), type(res).__name__, str(res)))
        # keep only genuine improvements over the basin's grid sample (a probe that
        # lands on a grid beta gets its bits, and no grid sample in the bracket is lower)
        elif x_abs < eta_abs_values[i]:
            refined.append(_bound_sample(ComplexPoint(alpha, x), res))

    merged = sorted(samples + refined, key=lambda smp: smp.s.beta)
    if merged:
        min_sample = min(merged, key=lambda smp: (smp.eta_abs, smp.s.beta))
        min_eta_abs, argmin_beta = min_sample.eta_abs, min_sample.s.beta
    else:
        # every sample failed its cross-check; the failures list tells the story
        min_eta_abs, argmin_beta = math.inf, beta_min
    violations = tuple(smp for smp in merged if smp.margin < -tol)
    return LineScanReport(
        alpha=alpha,
        beta_range=(beta_min, beta_max),
        step=step,
        tol=tol,
        samples=tuple(merged),
        min_eta_abs=min_eta_abs,
        argmin_beta=argmin_beta,
        violations=violations,
        failures=tuple(failures),
    )


def scan_line(
    alpha: float,
    beta_min: float,
    beta_max: float,
    step: float,
    tol: float = DEFAULT_SCAN_TOL,
    *,
    workers: int = 1,
    engine: str = "checked",
) -> LineScanReport:
    """Sample |eta(alpha + i beta)| on a beta grid and refine every local minimum.

    Violations are the samples with margin < -tol.  Output is independent of
    the worker count: chunks are merged in index order and refinement runs on
    the merged grid.
    """
    return _scan_lines([alpha], beta_min, beta_max, step, tol, workers, engine)[0]


def scan_grid(
    alpha_range: tuple[float, float],
    beta_range: tuple[float, float],
    alpha_step: float,
    beta_step: float,
    tol: float = DEFAULT_SCAN_TOL,
    *,
    workers: int = 1,
    engine: str = "checked",
) -> GridReport:
    """scan_line over an alpha grid, with global extremes; the grid points of
    every line go through one process pool."""
    a_lo, a_hi = alpha_range
    if not (a_lo > 0.0):
        raise DomainError("alpha range must lie in (0, inf)")
    if a_hi < a_lo:
        raise DomainError("alpha range is empty (hi < lo)")
    if not (alpha_step > 0.0):
        raise DomainError("alpha_step must be > 0")
    alphas = [a_lo + j * alpha_step for j in range(_grid_count(a_lo, a_hi, alpha_step))]
    return GridReport.from_lines(
        _scan_lines(alphas, beta_range[0], beta_range[1], beta_step, tol, workers, engine))


# ----------------------------------------------------------------------------
# critical-line zeros
# ----------------------------------------------------------------------------

def _engine_gap_at(t: float, eval_tol: float) -> float:
    s = ComplexPoint(0.5, t)
    v1 = eta_euler(s, eval_tol).value
    v2 = eta_accel(s, accel_stages_for(s, eval_tol)).value
    return abs(v1 - v2)


def _zero_candidates(
    t_lo: float, t_hi: float, tol: float, grid_step: float, workers: int, engine: str,
    whole_bracket: bool,
) -> list[tuple[float, float, float]]:
    """(t, residual, engine gap) at every refined minimum of |eta(1/2 + i t)|.

    The grid t_lo + i*grid_step is sampled in worker chunks (then the failed
    point of lowest index, if any, raises its error), every interior
    local minimum is refined by golden section (then the failed basin of
    lowest index, if any, raises its error), and the Euler/Chebyshev gap is
    measured wherever the residual is below tol (elsewhere it is inf).  With
    `whole_bracket`, a grid without interior minima refines [t_lo, t_hi] itself.
    """
    if not (tol > 0.0):
        raise DomainError("tol must be > 0")
    eval_tol = max(tol / 100.0, 1e-12)
    count = _grid_count(t_lo, t_hi, grid_step)
    values, = _sample_lines(_abs_value, (0.5,), t_lo, grid_step, count, workers, eval_tol, engine)
    _raise_first_error(values)
    refined = _refine_basins(values, 0.5, t_lo, grid_step, ZERO_REFINE_XTOL, eval_tol, engine,
                             (t_lo, t_hi) if whole_bracket else None)
    _raise_first_error([res for _, _, _, res in refined])
    return [(t_star, residual, _engine_gap_at(t_star, eval_tol) if residual < tol else math.inf)
            for _, t_star, residual, _ in refined]


def _raise_first_error(results: Sequence) -> None:
    """Raise the first EtaFloorError among results, if there is one."""
    for res in results:
        if isinstance(res, EtaFloorError):
            raise res


def survey_zeros(
    t_lo: float,
    t_hi: float,
    tol: float = DEFAULT_ZERO_TOL,
    *,
    grid_step: float = ZERO_GRID_STEP,
    workers: int = 1,
    engine: str = "checked",
) -> list[ZeroRecord]:
    """All accepted zeros of |eta(1/2 + i t)| with t in [t_lo, t_hi].

    Every interior local minimum of the grid is refined; an ordinate is
    accepted iff the residual is below tol and the Euler and Chebyshev engines
    agree there within 1e-9.
    """
    if not (0.0 <= t_lo < t_hi):
        raise DomainError("need 0 <= t_lo < t_hi")
    return [
        ZeroRecord(t, residual, gap, (t_lo, t_hi))
        for t, residual, gap in _zero_candidates(t_lo, t_hi, tol, grid_step, workers, engine,
                                                 whole_bracket=False)
        if gap <= ZERO_ENGINE_GAP_LIMIT
    ]


def locate_zero(
    t_lo: float,
    t_hi: float,
    tol: float = DEFAULT_ZERO_TOL,
    *,
    engine: str = "checked",
) -> ZeroRecord:
    """Best zero candidate inside one bracket, or NoZeroFoundError.

    The survey's grid plus golden section on f(t) = |eta(1/2 + i t)|, keeping
    the candidate of least residual; the returned record certifies
    residual < tol with the two accelerated engines agreeing within 1e-9 at
    the refined ordinate, and CrossCheckError reports a disagreement.
    """
    if not (0.0 < t_lo < t_hi):
        raise DomainError("need 0 < t_lo < t_hi")
    candidates = _zero_candidates(t_lo, t_hi, tol, ZERO_GRID_STEP, 1, engine, whole_bracket=True)
    t_star, residual, gap = min(candidates, key=lambda c: (c[1], c[0]))
    if residual >= tol:
        raise NoZeroFoundError(
            f"no point of [{t_lo}, {t_hi}] has |eta(1/2+it)| below {tol:g} "
            f"(best residual {residual:g} at t={t_star!r})",
            best_t=t_star,
            best_residual=residual,
        )
    if gap > ZERO_ENGINE_GAP_LIMIT:
        raise CrossCheckError(
            f"engines disagree at candidate zero t={t_star!r}: gap {gap:g}",
            gap=gap,
            budget=ZERO_ENGINE_GAP_LIMIT,
        )
    return ZeroRecord(t_star, residual, gap, (t_lo, t_hi))


def zero_geometry(record: ZeroRecord) -> ZeroGeometry:
    """Angle between the remaining-terms vector and the n = 2 term at a zero.

    At s0 = 1/2 + i t the conjugated series splits as u2 + R = eta_bar(s0) - 1
    with u2 = -e^{i t ln 2}/sqrt(2); the reported angle is
    arg(R) - arg(u2) normalized to [0, 2*pi).  Reported, not asserted.
    """
    s0 = ComplexPoint(0.5, record.t)
    eta_bar = eta_eval(s0, ZERO_GEOMETRY_TOL).value.conjugate()
    u2 = second_term(s0)
    remainder = eta_bar - 1.0 - u2
    if abs(u2) < 1e-14 or abs(remainder) < 1e-14:
        raise DegenerateGeometryError(
            f"geometry vectors too small at t={record.t!r}: |u2|={abs(u2):g}, "
            f"|R|={abs(remainder):g}"
        )
    angle = (math.atan2(remainder.imag, remainder.real)
             - math.atan2(u2.imag, u2.real)) % (2.0 * math.pi)
    return ZeroGeometry(angle, math.pi / 2.0 <= angle <= 3.0 * math.pi / 2.0)
