"""Line and grid scans of |eta| against the candidate floor, plus zero location.

The candidate floor on the vertical line Re(s) = alpha is

    L(alpha) = |1 - sqrt(2)/2^alpha|,

treated strictly as a hypothesis under test: every sample records its margin
|eta(s)| - L(alpha), negative margins are collected as violations, and nothing
here asserts the floor.  Each sample also records the tail modulus |T(s)|
against sqrt(2)/2^alpha under whichever component the variance classifier
marks as leading.

Scans are deterministic: the beta grid is an index formula, every block of
BLOCK_POINTS grid indices is one task (in-process or in a process pool, which
only caps how many run at once and holds at most two tasks per process
ahead of the one awaited), results merge in ascending beta order, and
every local minimum is refined by golden section, all basins of a line in
lockstep as one more task of the same pool (the refined samples join the
report so the reported minimum is the minimum over the report's samples).
``decompose_line`` samples the same grid, in-process, into the tail
decompositions of the pca command.

Zero location runs the same machinery on f(t) = |eta(1/2 + i t)| with a much
finer abscissa resolution, and accepts an ordinate only when the residual is
below tolerance and the two accelerated engines agree at it.  The zero survey
keeps no list as long as its grid: each block is folded into basin indices as
it arrives, holding only the last two grid values across a block edge, and
the basins are refined in contiguous lockstep chunks, one task each of the
pool that sampled the grid.  A survey stops at its first failed block: the
block raises its error where it was sampled, and the pool skips every later
block that has not started.  The pool class is imported when the first pool
starts, so a run in one process never loads it.
"""

from __future__ import annotations

import math
import os
import sys
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from itertools import islice
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Iterator, Sequence

from .decomposition import (DEFAULT_THETA, LeadingComponent, TailDecomposition, decompose_from_eta,
                            second_term, tail_bound)
from .eta import (
    BLOCK_POINTS,
    ComplexPoint,
    EvalResult,
    eta_eval,
    eta_line,
    eta_lines,
    parameter_error,
)
from .exceptions import (
    CrossCheckError,
    DegenerateGeometryError,
    DomainError,
    EtaFloorError,
    NonConvergenceError,
    NoZeroFoundError,
)

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing.sharedctypes import Synchronized

__all__ = [
    "BoundSample",
    "ScanFailure",
    "LineScanReport",
    "GridReport",
    "ZeroRecord",
    "ZeroRow",
    "bound_floor",
    "scan_line",
    "scan_grid",
    "decompose_line",
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
ZERO_EVAL_TOL_FLOOR = 1e-12  # least tol/100 a zero search evaluates eta to
GOLDEN_MAX_ITER = 200
ZERO_GEOMETRY_TOL = 1e-10
ZERO_ENGINE_GAP_LIMIT = 1e-9


@dataclass(frozen=True)
class BoundSample:
    s: ComplexPoint
    eta_abs: float
    floor: float
    margin: float
    tail_abs: float
    tail_bound: float
    leading: LeadingComponent
    tail_ineq_holds: bool


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


@dataclass(frozen=True)
class ZeroRow(ZeroRecord):
    angle: float
    in_claimed_range: bool


def bound_floor(alpha: float) -> float:
    """Candidate floor |1 - sqrt(2) * 2^(-alpha)|; zero exactly at alpha = 1/2."""
    return abs(1.0 - tail_bound(alpha))


def _bound_sample(p: ComplexPoint, res: EvalResult) -> BoundSample:
    """One sample at p from eta(p) = res: |eta|, floor margin, tail modulus
    versus sqrt(2)/2^alpha.

    Under a leading first component the recorded inequality is
    |T| <= sqrt(2)/2^alpha; under a leading second component it is
    |T| >= sqrt(2)/2^alpha.  The outcome is recorded, never asserted.
    """
    dec = decompose_from_eta(p, res.value)
    eta_abs = abs(res.value)
    floor = bound_floor(p.alpha)
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
        floor=floor,
        margin=eta_abs - floor,
        tail_abs=t_abs,
        tail_bound=t_bound,
        leading=dec.leading,
        tail_ineq_holds=holds,
    )


def _scan_row(p: ComplexPoint, res: EvalResult | EtaFloorError) -> BoundSample | ScanFailure:
    """The scan's row at p: its BoundSample, or the ScanFailure of its EtaFloorError."""
    return (ScanFailure(p, type(res).__name__, str(res)) if isinstance(res, EtaFloorError)
            else _bound_sample(p, res))


def _certified_value(res: EvalResult | EtaFloorError) -> complex:
    """eta's value from res; a failed point raises its EtaFloorError."""
    if isinstance(res, EtaFloorError):
        raise res
    return res.value


def _abs_value(p: ComplexPoint, res: EvalResult | EtaFloorError) -> float:
    return abs(_certified_value(res))


def _decomposition(theta: float, p: ComplexPoint,
                   res: EvalResult | EtaFloorError) -> TailDecomposition:
    return decompose_from_eta(p, _certified_value(res), theta)


# ----------------------------------------------------------------------------
# deterministic parallel evaluation
# ----------------------------------------------------------------------------

def _grid_block(row: Callable, alphas: tuple[float, ...], lo: float, step: float, count: int,
                tol: float, engine: str, k0: int) -> list[list]:
    """Per line alpha, row(p, eta(p)) at p = alpha + i(lo + k*step) for the
    grid indices k of the block k0..k0+BLOCK_POINTS-1 below count, from one
    eta_lines call, so the lines share the block's phases.  eta(p) is the
    EvalResult or the EtaFloorError of the point, and row either keeps an
    error as a row (a scan's ScanFailure) or raises it, the block's first in
    line and point order (the zero survey and pca, which stop there).
    `row` must be a module-level function."""
    betas = [lo + k * step for k in range(k0, min(k0 + BLOCK_POINTS, count))]
    return [[row(ComplexPoint(alpha, beta), res) for beta, res in zip(betas, results)]
            for alpha, results in zip(alphas, eta_lines(alphas, betas, tol, engine))]


def _pool_size(workers: int, count: int) -> int:
    """Processes for a grid of count indices: no more than there are workers,
    grid blocks of the count indices, or usable CPUs."""
    if not (workers >= 1):
        raise DomainError(f"workers must be >= 1, got {workers}")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(int(workers), len(range(0, count, BLOCK_POINTS)), cpus or 1)


def __getattr__(name: str):
    """ProcessPoolExecutor, imported on first use: only a pool of two or more
    processes needs it, so a run that starts none never loads
    concurrent.futures.process or multiprocessing."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor


_last_task: Synchronized | None = None  # in a pool process: the last task index still needed


def _share_last_task(last_task: Synchronized) -> None:
    """Pool initializer: keep the shared index of the last task the pool still needs."""
    global _last_task
    _last_task = last_task


def _pool_task(fn: Callable, numbered: tuple[int, object]):
    """fn(task) for the i-th task of a pool, numbered = (i, task), or None at
    once if i is past the shared index of the last task still needed.  The
    owner sets that index to -1 when it stops reading, and a task that raises
    lowers it to its own i: the owner reads results in order and stops at
    that error, and every task before it has already started."""
    i, task = numbered
    if _last_task is not None and i > _last_task.value:
        return None
    try:
        return fn(task)
    except BaseException:
        if _last_task is not None:
            with _last_task.get_lock():
                _last_task.value = min(_last_task.value, i)
        raise


@contextmanager
def _task_map(processes: int) -> Iterator[Callable]:
    """The builtin map, or a map through one pool of that many processes that
    keeps at most 2 tasks per process submitted ahead of its consumer.
    A task that raises ends the context, as its consumer re-raises the error
    on reaching it; the pool's processes skip every later task, and leaving
    the context cancels those still held in this process, so a consumer that
    stops at an error waits only for the tasks running then."""
    if processes <= 1:
        yield map
        return
    import multiprocessing

    last_task = multiprocessing.Value("q", sys.maxsize)
    # looked up on the module, which imports the class on first use; a replacement set there is used
    pool = sys.modules[__name__].ProcessPoolExecutor(
        max_workers=processes, initializer=_share_last_task, initargs=(last_task,))
    try:
        yield partial(_window_map, pool, 2 * processes)
    finally:
        last_task.value = -1
        pool.shutdown(cancel_futures=True)


def _window_map(pool: ProcessPoolExecutor, window: int, fn: Callable,
                tasks: Iterable) -> Iterator:
    """fn of each task, in order, run by pool with at most `window` tasks
    submitted besides the one whose result is awaited; the pool's tasks are
    numbered in submission order (see _pool_task)."""
    fn = partial(_pool_task, fn)
    tasks = enumerate(tasks)
    futures = deque(pool.submit(fn, task) for task in islice(tasks, window))
    while futures:
        future = futures.popleft()
        futures.extend(pool.submit(fn, task) for task in islice(tasks, 1))
        yield future.result()


def _sample_lines(task_map: Callable, row: Callable, alphas: Sequence[float], lo: float,
                  step: float, count: int, tol: float, engine: str) -> Iterator[list[list]]:
    """_grid_block over grid indices 0..count-1 of every line alpha: one task
    per block of BLOCK_POINTS indices, run through task_map.  Yields each
    block's rows (one list per line) as it arrives, in index order."""
    block = partial(_grid_block, row, tuple(alphas), lo, step, count, tol, engine)
    return task_map(block, range(0, count, BLOCK_POINTS))


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


def _local_minima(values: Iterable[float]) -> list[int]:
    """Indices of interior local minima (strict on the left, lax on the right),
    read in one pass that holds only the last two values.

    A NaN value marks a failed grid point: every comparison with it is false,
    so no minimum is taken at it or next to it.
    """
    idx = []
    before = last = math.nan
    for i, value in enumerate(values):
        if last < before and last <= value:
            idx.append(i - 1)
        before, last = last, value
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
    basins: Sequence[int], alpha: float, lo: float, step: float, xtol: float, tol: float,
    engine: str, whole: tuple[float, float] | None = None,
) -> list[tuple[int | None, float, EvalResult | EtaFloorError]]:
    """(i, x, eta(alpha + ix)) at the golden-section minimum of each grid
    basin, in basin order.

    The basin of grid index i (an interior local minimum of the samples at
    x = lo + i*step) is [lo + (i-1)*step, lo + (i+1)*step].  Without basins,
    the bracket `whole`, if given, is refined as i = None.
    Every basin advances in lockstep: each round evaluates the next probe of
    every unfinished basin with one eta_line call.  A basin whose probe fails
    stops there, as (i, probe, the EtaFloorError).
    """
    brackets = [(i, lo + (i - 1) * step, lo + (i + 1) * step) for i in basins]
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
                refined[j] = (brackets[j][0], probes[j], res)
                continue
            try:
                probes[j] = searches[j].send(_ProbeAbs(res))
                still.append(j)
            except StopIteration as done:
                best_x, best_f = done.value
                refined[j] = (brackets[j][0], best_x, best_f.result)
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
    if hi < lo:
        raise DomainError(f"grid {lo}:{hi} is empty (hi < lo)")
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    if count > sys.maxsize:
        raise DomainError(f"grid {lo}:{hi} with step {step} has more points than a list can hold")
    return count


def _scan_lines(alphas: Sequence[float], beta_min: float, beta_max: float, step: float,
                tol: float, workers: int, engine: str) -> list[LineScanReport]:
    """The report of each line alpha; one process pool samples the grid
    points of every line, then refines each line's basins as one task."""
    if (error := parameter_error(alphas[0], tol, engine)) is not None:
        raise error
    eval_tol = min(tol, DEFAULT_SCAN_TOL)
    count = _grid_count(beta_min, beta_max, step)
    with _task_map(_pool_size(workers, count)) as task_map:
        lines: list[list] = [[] for _ in alphas]
        for rows in _sample_lines(task_map, _scan_row, alphas, beta_min, step, count,
                                  eval_tol, engine):
            for line, part in zip(lines, rows):
                line.extend(part)
        # refine each basin whose grid point and both grid neighbours were sampled
        basins = [_local_minima(row.eta_abs if isinstance(row, BoundSample) else math.nan
                                for row in rows) for rows in lines]
        refined = list(task_map(partial(_refine_line, beta_min, step, eval_tol, engine),
                                zip(alphas, basins)))
    return [_line_report(alpha, beta_min, beta_max, step, tol, rows, line_refined)
            for alpha, rows, line_refined in zip(alphas, lines, refined)]


def _refine_line(lo: float, step: float, tol: float, engine: str, line: tuple) -> list:
    """_refine_basins of one scan line (alpha, grid basin indices), as a pool task."""
    alpha, basins = line
    return _refine_basins(basins, alpha, lo, step, SCAN_REFINE_XTOL, tol, engine)


def _line_report(alpha: float, beta_min: float, beta_max: float, step: float, tol: float,
                 rows: list, basins: list) -> LineScanReport:
    """The report of one line from its grid rows (_scan_row of each grid
    point) and refined basins (_refine_basins)."""
    samples = [row for row in rows if isinstance(row, BoundSample)]
    failures = [row for row in rows if isinstance(row, ScanFailure)]
    refined: list[BoundSample] = []
    for i, x, res in basins:
        # a failed probe ends its basin, which keeps its grid sample
        if isinstance(res, EtaFloorError):
            failures.append(_scan_row(ComplexPoint(alpha, x), res))
        # keep only genuine improvements over the basin's grid sample (a probe that
        # lands on a grid beta gets its bits, and no grid sample in the bracket is lower)
        elif abs(res.value) < rows[i].eta_abs:
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
    the worker count: grid blocks are merged in index order and refinement
    runs on the merged grid.
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
    if (error := parameter_error(a_lo, tol, engine)) is not None:
        raise error
    alphas = [a_lo + j * alpha_step for j in range(_grid_count(a_lo, a_hi, alpha_step))]
    return GridReport.from_lines(
        _scan_lines(alphas, beta_range[0], beta_range[1], beta_step, tol, workers, engine))


def decompose_line(alpha: float, beta_min: float, beta_max: float, step: float, tol: float,
                   *, theta: float = DEFAULT_THETA,
                   engine: str = "checked") -> list[TailDecomposition]:
    """The tail decomposition at theta of eta(alpha + i beta) on the scan
    grid beta_min + k*step, in order, sampled block by block in-process; the
    first point that fails raises its error when its block is evaluated."""
    if (error := parameter_error(alpha, tol, engine)) is not None:
        raise error
    count = _grid_count(beta_min, beta_max, step)
    blocks = _sample_lines(map, partial(_decomposition, theta), (alpha,), beta_min, step, count,
                           tol, engine)
    return [dec for rows in blocks for dec in rows[0]]


# ----------------------------------------------------------------------------
# critical-line zeros
# ----------------------------------------------------------------------------

def _zero_candidates(
    t_lo: float, t_hi: float, tol: float, grid_step: float, workers: int, engine: str,
    whole: tuple[float, float] | None = None,
) -> list[ZeroRecord]:
    """The record of every refined minimum of |eta(1/2 + i t)| on [t_lo, t_hi].

    The grid t_lo + i*grid_step is sampled in blocks, each folded into the
    basin indices (interior local minima) as it arrives, so only the last two
    grid values are held across block edges; the failed point of lowest
    index, if any, raises its error when its block arrives.  The basins are
    refined by golden section in min(processes, basins) contiguous chunks,
    each in lockstep as one task of the pool that sampled the grid (then the
    failed basin of lowest index, if any, raises its error).  One checked
    evaluation of every refined ordinate whose residual is below tol gives
    its Euler/Chebyshev gap (elsewhere the gap is inf); an error there other
    than the engines' disagreement raises, the lowest ordinate's first.  A
    grid without interior minima refines the bracket `whole`, if given.
    """
    if (error := parameter_error(0.5, tol, engine)) is not None:
        raise error
    eval_tol = tol / 100.0
    if eval_tol < ZERO_EVAL_TOL_FLOOR:
        raise NonConvergenceError(
            f"zero tol={tol:g} needs eta to tol/100={eval_tol:g}, below the "
            f"{ZERO_EVAL_TOL_FLOOR:g} floor of a zero search")
    count = _grid_count(t_lo, t_hi, grid_step)
    processes = _pool_size(workers, count)
    with _task_map(processes) as task_map:
        blocks = _sample_lines(task_map, _abs_value, (0.5,), t_lo, grid_step, count, eval_tol,
                               engine)
        basins = _local_minima(value for rows in blocks for value in rows[0])
        # contiguous chunks of basins, each refined in lockstep as one task
        n, chunks = len(basins), min(processes, len(basins)) or 1
        refine = partial(_refine_basins, alpha=0.5, lo=t_lo, step=grid_step,
                         xtol=ZERO_REFINE_XTOL, tol=eval_tol, engine=engine, whole=whole)
        parts = task_map(refine, [basins[k * n // chunks:(k + 1) * n // chunks]
                                  for k in range(chunks)])
        refined = [basin for part in parts for basin in part]
    _raise_first_error([res for _, _, res in refined])
    candidates = [t for _, t, res in refined if abs(res.value) < tol]
    checks = eta_line(0.5, candidates, eval_tol, "checked")
    _raise_first_error([check for check in checks if not isinstance(check, CrossCheckError)])
    gaps = (check.gap for check in checks)  # a CrossCheckError carries its gap too
    return [ZeroRecord(t, residual := abs(res.value), next(gaps) if residual < tol else math.inf,
                       (t_lo, t_hi))
            for _, t, res in refined]


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
    return [record for record in _zero_candidates(t_lo, t_hi, tol, grid_step, workers, engine)
            if record.engine_gap <= ZERO_ENGINE_GAP_LIMIT]


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
    best = min(_zero_candidates(t_lo, t_hi, tol, ZERO_GRID_STEP, 1, engine, (t_lo, t_hi)),
               key=lambda z: (z.residual, z.t))
    if best.residual >= tol:
        raise NoZeroFoundError(
            f"no point of [{t_lo}, {t_hi}] has |eta(1/2+it)| below {tol:g} "
            f"(best residual {best.residual:g} at t={best.t!r})",
            best_t=best.t,
            best_residual=best.residual,
        )
    if best.engine_gap > ZERO_ENGINE_GAP_LIMIT:
        raise CrossCheckError(
            f"engines disagree at candidate zero t={best.t!r}: gap {best.engine_gap:g}",
            gap=best.engine_gap,
            budget=ZERO_ENGINE_GAP_LIMIT,
        )
    return best


def zero_geometry(record: ZeroRecord) -> ZeroRow:
    """The report row of a zero: the angle between the remaining-terms vector
    and the n = 2 term there, and whether it lies in [pi/2, 3*pi/2].

    At s0 = 1/2 + i t the conjugated series splits as u2 + R = eta_bar(s0) - 1
    with u2 = -e^{i t ln 2}/sqrt(2) and R the decomposition's tail3; the reported
    angle is arg(R) - arg(u2) normalized to [0, 2*pi).  Reported, not asserted.
    """
    s0 = ComplexPoint(0.5, record.t)
    u2 = second_term(s0)
    remainder = decompose_from_eta(s0, eta_eval(s0, ZERO_GEOMETRY_TOL).value).tail3
    if abs(u2) < 1e-14 or abs(remainder) < 1e-14:
        raise DegenerateGeometryError(
            f"geometry vectors too small at t={record.t!r}: |u2|={abs(u2):g}, "
            f"|R|={abs(remainder):g}"
        )
    angle = (math.atan2(remainder.imag, remainder.real)
             - math.atan2(u2.imag, u2.real)) % (2.0 * math.pi)
    return ZeroRow(record.t, record.residual, record.engine_gap, record.bracket, angle,
                   math.pi / 2.0 <= angle <= 3.0 * math.pi / 2.0)
