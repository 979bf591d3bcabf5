"""Dirichlet eta engines with explicit, testable error control.

eta(s) = sum_{n>=1} (-1)^(n+1) n^(-s) converges for Re(s) > 0.  Three
algorithmically independent evaluation routes are provided so they can act as
oracles for each other:

* ``eta_partial_sum`` — plain truncation.  On the real axis the alternating
  remainder bound |sum_{n>=m} (-1)^(n+1) a_n| <= a_m makes consecutive partial
  sums a rigorous bracket; off the axis it is only an exploratory tool.
* ``eta_euler`` — direct head of max(32, ceil|Im s|) terms followed by an Euler
  transformation of the remaining alternating tail.  The head length keeps the
  forward-difference ratio below ~1/2 for any height; a point whose head would
  exceed MAX_EULER_HEAD terms is refused.
* ``eta_accel`` — Chebyshev-weighted summation in the style of Cohen,
  Rodriguez Villegas and Zagier ("Convergence acceleration of alternating
  series", Exp. Math. 9 (2000)): with d_n the Chebyshev polynomial T_n(3),
  eta(s) ~ (1/d_n) sum_{k<n} (-1)^k (d_n - d_k) (k+1)^(-s).  The truncation
  error decays like (3+sqrt(8))^(-n) times the total variation of the
  representing measure, Gamma(alpha)/|Gamma(s)|, where ln|Gamma| comes from
  an in-house Stirling series.

``eta_lines`` evaluates several vertical lines on one beta grid in blocks.
Every n^(-s) matrix is built in one place, as a per-line magnitude row
n^(-alpha) times a per-block phase matrix e^(-i beta ln n): the lines of a
block share its phases, and the Euler and Chebyshev engines share each
line's matrix.  Every value keeps the bits of a one-point call.
``eta_line`` is ``eta_lines`` on one line, and ``eta_eval`` is ``eta_line``
at one point.

Error certificates: accelerated engines report a heuristic estimate
(last-correction magnitude x 10, or the Chebyshev truncation model) plus a
phase-roundoff floor eps*(2*sum|a| + |beta|*sum|a|*ln n); only the real-axis
partial-sum bracket is a rigorous bound.  All arithmetic is binary64.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import (
    CrossCheckError,
    DomainError,
    EtaFloorError,
    IllConditionedError,
    NonConvergenceError,
    SingularityError,
)

__all__ = [
    "ComplexPoint",
    "EvalResult",
    "as_point",
    "eta_partial_sum",
    "partial_sum_bracket",
    "eta_euler",
    "eta_accel",
    "accel_stages_for",
    "eta_eval",
    "eta_line",
    "eta_lines",
    "eta_conjugate",
    "conversion_factor",
    "factor_zero",
    "zeta_from_eta",
    "crvz_reference_sum",
    "LN2",
]

LN2 = math.log(2.0)
EPS = float(np.finfo(np.float64).eps)

_DELTA = 3.0 + math.sqrt(8.0)
_LN_DELTA = math.log(_DELTA)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2k / (2k (2k-1)), k = 1..8
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156,
             -3617 / 122400)

ENGINES = ("partial", "euler", "accel", "checked")

MAX_PARTIAL_TERMS = 20_000_000
MAX_ACCEL_STAGES = 4096
MAX_EULER_HEAD = 400_000
BLOCK_POINTS = 128  # most points eta_line evaluates together
BLOCK_ELEMENTS = 4096  # most entries of one n^(-s) matrix (one row always fits)
ZETA_EXCLUSION = 1e-6  # least |1 - 2^(1-s)| zeta_from_eta divides by

# read-only cache of ln n, n = 1..size, one per process; replaced, never
# written, when it grows (no row is wider than MAX_EULER_HEAD + 96 columns)
_logs = np.log(np.arange(1, 4097, dtype=np.float64))
_JS = np.arange(1.0, 97.0)  # Euler tail-length model: corrections j = 1..96


@dataclass(frozen=True)
class ComplexPoint:
    """A point s = alpha + i*beta of the strip."""

    alpha: float
    beta: float = 0.0

    def to_complex(self) -> complex:
        return complex(self.alpha, self.beta)

    def conjugate(self) -> "ComplexPoint":
        return ComplexPoint(self.alpha, -self.beta)


@dataclass(frozen=True)
class EvalResult:
    """A complex function value plus its error certificate."""

    value: complex
    abs_error_estimate: float
    method: str  # "partial" | "euler" | "accel"
    terms_used: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.abs_error_estimate) or self.abs_error_estimate < 0:
            raise ValueError("abs_error_estimate must be finite and >= 0")
        if self.terms_used < 1:
            raise ValueError("terms_used must be >= 1")


PointLike = "ComplexPoint | complex | float | int"


def as_point(s) -> ComplexPoint:
    """Coerce a ComplexPoint, complex, or real number to a ComplexPoint."""
    if isinstance(s, ComplexPoint):
        return s
    if isinstance(s, complex):
        return ComplexPoint(s.real, s.imag)
    if isinstance(s, (int, float)):
        return ComplexPoint(float(s), 0.0)
    raise DomainError(f"cannot interpret {s!r} as a point of the strip")


def _series_point(s) -> ComplexPoint:
    """s as a point at which the series is evaluated: alpha > 0, alpha and beta finite."""
    p = as_point(s)
    if not (p.alpha > 0.0):
        raise DomainError(f"series evaluation requires Re(s) > 0, got alpha={p.alpha}")
    if not (math.isfinite(p.alpha) and math.isfinite(p.beta)):
        raise DomainError(f"alpha and beta must be finite, got alpha={p.alpha}, beta={p.beta}")
    return p


def _log_range(n: int) -> np.ndarray:
    """ln(1..n) from the shared read-only table, growing it if needed."""
    global _logs
    if n > _logs.size:
        _logs = np.log(np.arange(1, max(n, 2 * _logs.size) + 1, dtype=np.float64))
    return _logs[:n]


def _euler_head(beta: float) -> int:
    """Terms the Euler engine sums directly, before transforming the tail."""
    return max(32, int(math.ceil(abs(beta))))


def _alternating_signs(n: int) -> np.ndarray:
    signs = np.ones(n)
    signs[1::2] = -1.0
    return signs


# ----------------------------------------------------------------------------
# direct partial summation
# ----------------------------------------------------------------------------

def eta_partial_sum(s: PointLike, n_terms: int) -> complex:
    """sum_{n=1}^{n_terms} (-1)^(n+1) n^(-s), term by term in binary64."""
    p = _series_point(s)
    n_terms = int(n_terms)
    if n_terms < 1:
        raise DomainError("n_terms must be >= 1")
    if n_terms > MAX_PARTIAL_TERMS:
        raise NonConvergenceError(f"n_terms {n_terms} exceeds cap {MAX_PARTIAL_TERMS}")
    sc = p.to_complex()
    total = 0.0 + 0.0j
    chunk = 1 << 20  # even, so every chunk starts at an odd n, whose term is positive
    for start in range(1, n_terms + 1, chunk):
        stop = min(start + chunk - 1, n_terms)
        lnn = np.log(np.arange(start, stop + 1, dtype=np.float64))
        pows = _power_row(sc.real, sc.imag, lnn)[0]
        total += complex(np.sum(_alternating_signs(stop - start + 1) * pows))
    return total


def partial_sum_bracket(alpha: float, n_terms: int) -> tuple[float, float]:
    """Rigorous bracket [S_even, S_even + a_{even+1}] containing eta(alpha), beta = 0.

    Even partial sums increase to the limit and odd ones decrease to it, so
    S_{2m} <= eta(alpha) <= S_{2m+1}; n_terms is rounded down to an even count.
    """
    if not (alpha > 0.0):
        raise DomainError("bracket requires alpha > 0")
    n_even = int(n_terms) - (int(n_terms) % 2)
    if n_even < 2:
        raise DomainError("need at least 2 terms for a bracket")
    s_even = eta_partial_sum(ComplexPoint(alpha, 0.0), n_even).real
    return s_even, s_even + (n_even + 1) ** (-alpha)


# ----------------------------------------------------------------------------
# Euler transformation engine
# ----------------------------------------------------------------------------

@functools.cache
def _euler_weights(m: int) -> np.ndarray:
    """(-1)^i W_i with W_i = sum_{j=i}^{m-1} C(j,i) 2^(-j-1): the truncated Euler
    transform is sum_k (-1)^k b_k ~ sum_{i<m} (-1)^i W_i b_i."""
    W = np.zeros(m)
    row = np.array([1.0])
    for j in range(m):
        W[: j + 1] += row * 0.5 ** (j + 1)
        nxt = np.empty(j + 2)
        nxt[0] = 1.0
        nxt[j + 1] = 1.0
        nxt[1 : j + 1] = row[:-1] + row[1:]
        row = nxt
    W[1::2] *= -1.0
    W.setflags(write=False)
    return W


def _euler_tail_lengths(s: list[complex], heads: list[int], tol: float) -> list[int]:
    """Per point, the number of difference terms so the modelled ladder lands
    well under tol.

    Correction j decays roughly like prod (|s|+j)/(2(head+1+j)) relative to the
    first tail term; target tol*1e-4 so the heuristic estimate clears tol.
    """
    # 2(head+1+j) is an exact integer, so it may be formed in any order
    ratio = np.add.outer([abs(z) for z in s], _JS)
    ratio /= np.add.outer([2.0 * head + 2.0 for head in heads], 2.0 * _JS)
    cum = np.log(ratio, out=ratio).cumsum(axis=1)
    cum += np.array([-z.real * math.log(head + 1.0) for z, head in zip(s, heads)])[:, None]
    hit = cum <= math.log(max(tol, 1e-300)) + math.log(1e-4)
    return [max(16, min(96, ((k + 8) // 8) * 8)) if found else 96
            for k, found in zip(hit.argmax(axis=1).tolist(), hit.any(axis=1).tolist())]


def _euler_rows(pows: np.ndarray, absp: np.ndarray, betas, head: int,
                m: int) -> list[tuple[complex, float]]:
    """(value, estimate) of the Euler attempt (head, m) per row, where row r of
    `pows` is n^(-s_r) for n = 1..head+m and `absp` is abs(pows)."""
    lnn = _log_range(head + m)
    head_sums = (_alternating_signs(head) * pows[:, :head]).sum(axis=1)
    b = pows[:, head:]
    full = (_euler_weights(m) * b).sum(axis=1)
    short = (_euler_weights(m - 8) * b[:, : m - 8]).sum(axis=1)
    tail_sign = 1.0 if head % 2 == 0 else -1.0
    out = []
    for head_sum, tail, tail2, abs_sum, row, beta in zip(
            head_sums.tolist(), full.tolist(), short.tolist(), absp.sum(axis=1).tolist(), absp,
            betas):
        tail = tail_sign * tail
        tail2 = tail_sign * tail2
        floor = EPS * (2.0 * abs_sum + abs(beta) * float(np.dot(row, lnn)))
        out.append((head_sum + tail, 10.0 * abs(tail - tail2) + floor))
    return out


def _euler_ladder(z: complex, head: int, m: int, tol: float,
                  est: float) -> tuple[complex, float, int] | NonConvergenceError:
    """The retry ladder for a point whose first Euler attempt (head, m) missed
    tol with estimate `est`: (value, estimate, terms) of the first rung that
    certifies, or the error."""
    for head, m in ((head, min(96, m + 16)), (2 * head, 96), (4 * head, 96)):
        if head > MAX_EULER_HEAD:
            break
        pows = _power_row(z.real, z.imag, _log_range(head + m))
        value, est = _euler_rows(pows, np.abs(pows), [z.imag], head, m)[0]
        if est <= tol:
            return value, est, head + m
    return NonConvergenceError(
        f"euler engine cannot certify tol={tol:g} at s={z:g} (best estimate {est:g})"
    )


def eta_euler(s: PointLike, tol: float) -> EvalResult:
    """eta(s) via a direct head plus the Euler transformation of the tail."""
    return eta_eval(s, tol, "euler")


# ----------------------------------------------------------------------------
# Chebyshev-accelerated engine
# ----------------------------------------------------------------------------

def _frexp_add(acc_m: float, acc_e: int, m: float, e: int) -> tuple[float, int]:
    """(mantissa, exponent) addition for positive values spanning huge ranges."""
    if acc_m == 0.0:
        total_m, total_e = m, e
    elif e >= acc_e:
        total_m, total_e = acc_m * 2.0 ** (acc_e - e) + m, e
    else:
        total_m, total_e = acc_m + m * 2.0 ** (e - acc_e), acc_e
    m2, e2 = math.frexp(total_m)
    return m2, total_e + e2


@functools.cache
def _crvz_weights(n: int) -> np.ndarray:
    """(-1)^k e_k, e_k = (d_n - d_k)/d_n for k < n, d_k = n sum_{i<=k} (n+i-1)! 4^i/((n-i)! (2i)!).

    The addends t_i are positive with t_{i+1} = t_i * 4(n+i)(n-i)/((2i+1)(2i+2)),
    peaking near 4^n, so sums are accumulated as (mantissa, exponent) pairs.
    """
    tm, te = math.frexp(1.0 / n)
    terms = [(tm, te)]
    for i in range(n):
        tm *= 4.0 * (n + i) * (n - i) / ((2 * i + 1) * (2 * i + 2))
        m2, e2 = math.frexp(tm)
        tm, te = m2, te + e2
        terms.append((tm, te))
    suffix: list[tuple[float, int]] = [(0.0, 0)] * n
    sm, se = 0.0, 0
    for k in range(n - 1, -1, -1):
        sm, se = _frexp_add(sm, se, *terms[k + 1])
        suffix[k] = (sm, se)
    tot_m, tot_e = _frexp_add(sm, se, *terms[0])
    weights = np.array([(m / tot_m) * 2.0 ** (e - tot_e) for (m, e) in suffix])
    weights[1::2] *= -1.0
    weights.setflags(write=False)
    return weights


def _log_abs_gamma(s: complex) -> float:
    """ln|Gamma(s)| for Re s > 0: shift up to |z| >= 17, then Stirling's series."""
    z, shifted = s, 1.0
    while abs(z) < 17.0:
        shifted *= abs(z)
        z += 1.0
    w = 1.0 / z
    w2 = w * w
    series = 0.0
    for c in reversed(_STIRLING):
        series = series * w2 + c
    return ((z - 0.5) * cmath.log(z) - z + series * w).real + _HALF_LN_2PI - math.log(shifted)


def _log_total_variation(s: complex) -> float:
    """ln(Gamma(alpha)/|Gamma(s)|), the Chebyshev error model's measure size."""
    return math.lgamma(s.real) - _log_abs_gamma(s)


def _stages(log_tv: float, tol: float) -> int:
    """Smallest multiple of 32 (at least 32) whose modelled truncation error,
    for a measure of log size log_tv, clears tol."""
    n = int(math.ceil((log_tv + math.log(2.0 / tol)) / _LN_DELTA)) + 4
    return ((max(n, 8) + 31) // 32) * 32


def accel_stages_for(s: PointLike, tol: float) -> int:
    """Smallest stage count (rounded to a multiple of 32) whose modelled
    truncation error clears tol."""
    p = _series_point(s)
    error = _domain_error(p.alpha, tol, "accel")
    if error is not None:
        raise error
    return _stages(_log_total_variation(p.to_complex()), tol)


def _chebyshev_rows(pows: np.ndarray, absp: np.ndarray, betas, n: int,
                    log_tvs) -> list[tuple[complex, float]]:
    """(value, estimate) of the Chebyshev-weighted sum of n terms per row, where
    row r of `pows` is n^(-s_r) for n = 1..n, `absp` is abs(pows) and
    log_tvs[r] is ln(Gamma(alpha)/|Gamma(s_r)|).  The estimate is the truncation model
    2 (3+sqrt 8)^(-n) Gamma(alpha)/|Gamma(s)| plus the roundoff floor."""
    weights = _crvz_weights(n)
    lnn = _log_range(n)
    values = (weights * pows).sum(axis=1)
    wabs = np.abs(weights) * absp
    out = []
    for value, abs_sum, row, beta, log_tv in zip(values.tolist(), wabs.sum(axis=1).tolist(),
                                                 wabs, betas, log_tvs):
        floor = EPS * (2.0 * abs_sum + abs(beta) * float(np.dot(row, lnn)))
        out.append((value, 2.0 * math.exp(min(700.0, log_tv - n * _LN_DELTA)) + floor))
    return out


def eta_accel(s: PointLike, n_stages: int) -> EvalResult:
    """eta(s) by Chebyshev-weighted summation of the first n_stages terms."""
    p = _series_point(s)
    n = int(n_stages)
    if n < 1:
        raise DomainError("n_stages must be >= 1")
    if n > MAX_ACCEL_STAGES:
        raise NonConvergenceError(f"n_stages {n} exceeds cap {MAX_ACCEL_STAGES}")
    sc = p.to_complex()
    pows = _power_row(sc.real, sc.imag, _log_range(n))
    value, est = _chebyshev_rows(pows, np.abs(pows), [p.beta], n, [_log_total_variation(sc)])[0]
    return EvalResult(value, est, "accel", n)


def crvz_reference_sum(terms: np.ndarray) -> float | np.ndarray:
    """Chebyshev-weighted value of sum_k (-1)^k terms[..., k], per row of a 2-D array.

    Rigorous to ~2(3+sqrt 8)^(-len(terms)) x total variation when the terms are
    moments of a positive measure on [0,1] (every completely monotone sequence);
    used as a reference limit for alternating series with no closed form.
    """
    terms = np.atleast_1d(np.asarray(terms, dtype=np.float64))
    n = terms.shape[-1]
    if n < 1:
        raise DomainError("need at least one term")
    sums = np.sum(_crvz_weights(n) * terms, axis=-1)
    return float(sums) if sums.ndim == 0 else sums


# ----------------------------------------------------------------------------
# dispatch, conjugate, conversion factor
# ----------------------------------------------------------------------------

def _eta_partial_certified(p: ComplexPoint, tol: float) -> EvalResult | NonConvergenceError:
    if p.beta != 0.0:
        return NonConvergenceError(
            "partial engine certifies a tolerance only on the real axis (beta = 0)"
        )
    # remainder after N terms is at most (N+1)^(-alpha); bracket midpoint halves it
    log_needed = math.log(2.0 / tol) / p.alpha
    if log_needed <= math.log(MAX_PARTIAL_TERMS):
        n = min(max(int(math.ceil(math.exp(log_needed))) + 2, 4), MAX_PARTIAL_TERMS)
        n -= n % 2
        lo, hi = partial_sum_bracket(p.alpha, n)
        est = 0.5 * (hi - lo) + EPS * 2.0 * n ** max(0.0, 1.0 - p.alpha)
        if est <= tol:
            return EvalResult(complex(0.5 * (lo + hi)), est, "partial", n)
    return NonConvergenceError(
        f"partial summation cannot certify tol={tol:g} at alpha={p.alpha} "
        f"within {MAX_PARTIAL_TERMS} terms"
    )


def _domain_error(alpha, tol: float, engine: str) -> DomainError | None:
    if not (alpha > 0.0):
        return DomainError(f"series evaluation requires Re(s) > 0, got alpha={alpha}")
    if not (tol > 0.0):
        return DomainError("tol must be > 0")
    if math.inf in (alpha, tol):
        return DomainError(f"alpha and tol must be finite, got alpha={alpha}, tol={tol}")
    if engine not in ENGINES:
        return DomainError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    return None


def _magnitudes(alpha: float, lnn: np.ndarray) -> np.ndarray:
    """n^(-alpha) = exp(-alpha ln n) for the ln n in lnn, taken by the complex exp
    (numpy's float exp is another routine, with other bits)."""
    return np.exp(np.multiply(-alpha, lnn) + 0j).real.copy()


def _phases(betas, lnn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of -beta ln n for the ln n in lnn, row r for betas[r]."""
    y = np.multiply.outer(np.negative(np.array(betas, dtype=np.float64)), lnn)
    return np.cos(y), np.sin(y)


def _powers(magnitudes: np.ndarray, phases: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Row r is n^(-s_r) = n^(-alpha) e^(-i beta_r ln n): the magnitude row times
    row r of the phases, over as many columns as the phases have.

    The complex exp(x + iy) returns exp(x) cos y + i exp(x) sin y, so forming
    the real and imaginary parts apart gives every bit of exp(-s ln n), signed
    zeros included (a complex-times-real product flips some zeros at beta = 0).
    """
    cos, sin = phases
    magnitudes = magnitudes[: cos.shape[1]]
    out = np.empty(cos.shape, dtype=np.complex128)
    np.multiply(cos, magnitudes, out=out.real)
    np.multiply(sin, magnitudes, out=out.imag)
    return out


def _power_row(alpha: float, beta: float, lnn: np.ndarray) -> np.ndarray:
    """n^(-alpha - i beta) for the ln n in lnn, as a one-row matrix."""
    return _powers(_magnitudes(alpha, lnn), _phases([beta], lnn))


def _runs(keys: list, r0: int, r1: int) -> list[tuple]:
    """(key, lo, hi) for each run keys[lo:hi] of equal keys in keys[r0:r1]."""
    runs = []
    lo = r0
    for k in range(r0 + 1, r1):
        if keys[k] != keys[lo]:
            runs.append((keys[lo], lo, k))
            lo = k
    runs.append((keys[lo], lo, r1))
    return runs


def _checked(z: complex, euler: tuple, accel: tuple) -> EvalResult | CrossCheckError:
    """The cross-checked result at z from the (value, estimate, terms) of the
    Euler and the Chebyshev engine: the one with the smaller estimate."""
    gap = abs(euler[0] - accel[0])
    budget = euler[1] + accel[1] + 4.0 * EPS
    if gap > budget:
        return CrossCheckError(
            f"engines disagree at s={z:g}: gap {gap:g} exceeds combined estimate {budget:g}",
            gap=gap,
            budget=budget,
        )
    # the Euler estimate is within tol here, so the smaller one is too
    value, est, _, method = (*euler, "euler") if euler[1] <= accel[1] else (*accel, "accel")
    return EvalResult(value, est, method, euler[2] + accel[2])


class _BlockLine:
    """One line's points in an _eval_block call: their Euler and Chebyshev
    parameters, the row width each needs, the line's magnitude row and the
    results so far (None where a point has none yet)."""

    def __init__(self, alpha: float, betas: list, heads: list | None, tol: float, engine: str):
        self.zs = [complex(alpha, beta) for beta in betas]
        self.imags = [z.imag for z in self.zs]
        self.tol, self.engine = tol, engine
        self.out: list = [None] * len(self.zs)
        self.widths = [0] * len(self.zs)
        if engine != "accel":
            self.tails = list(zip(heads, _euler_tail_lengths(self.zs, heads, tol)))
            # a head over the cap builds no row: its ladder refuses it at once
            self.widths = [head + m if head <= MAX_EULER_HEAD else 0 for head, m in self.tails]
            self.euler: list = [None] * len(self.zs)
        if engine != "euler":
            self.log_tvs = [_log_total_variation(z) for z in self.zs]
            self.stages = [_stages(log_tv, tol) for log_tv in self.log_tvs]
            self.widths = [max(w, n) if n <= MAX_ACCEL_STAGES else w
                           for w, n in zip(self.widths, self.stages)]
        self.magnitudes = _magnitudes(alpha, _log_range(max(self.widths)))

    def evaluate(self, r0: int, r1: int, phases: tuple[np.ndarray, np.ndarray]) -> None:
        """The results of rows r0..r1-1, whose phases are at least as wide as
        any of these rows needs."""
        tol, engine, zs, imags, out = self.tol, self.engine, self.zs, self.imags, self.out
        width = max(self.widths[r0:r1])
        pows = _powers(self.magnitudes, (phases[0][:, :width], phases[1][:, :width]))
        absp = np.abs(pows)  # both engines' roundoff floors read it
        if engine != "accel":
            euler = self.euler
            for (head, m), lo, hi in _runs(self.tails, r0, r1):
                rows = slice(lo - r0, hi - r0), slice(0, head + m)
                firsts = (_euler_rows(pows[rows], absp[rows], imags[lo:hi], head, m)
                          if head <= MAX_EULER_HEAD else [(None, math.inf)] * (hi - lo))
                for k, (value, est) in zip(range(lo, hi), firsts):
                    euler[k] = ((value, est, head + m) if est <= tol
                                else _euler_ladder(zs[k], head, m, tol, est))
                    if isinstance(euler[k], EtaFloorError):
                        out[k] = euler[k]
                    elif engine == "euler":
                        out[k] = EvalResult(euler[k][0], euler[k][1], "euler", euler[k][2])
            if engine == "euler":
                return
        # a row whose Euler evaluation failed keeps that error, as a one-point call does
        for n, lo, hi in _runs(self.stages, r0, r1):
            if n > MAX_ACCEL_STAGES:
                for k in range(lo, hi):
                    if out[k] is None:
                        out[k] = NonConvergenceError(f"n_stages {n} exceeds cap {MAX_ACCEL_STAGES}")
                continue
            rows = slice(lo - r0, hi - r0), slice(0, n)
            results = _chebyshev_rows(pows[rows], absp[rows], imags[lo:hi], n, self.log_tvs[lo:hi])
            for k, (value, est) in zip(range(lo, hi), results):
                if out[k] is not None:
                    continue
                if engine == "checked":
                    out[k] = _checked(zs[k], self.euler[k], (value, est, n))
                elif est > tol:
                    out[k] = NonConvergenceError(
                        f"accel engine cannot certify tol={tol:g} at s={zs[k]:g} "
                        f"(estimate {est:g})")
                else:
                    out[k] = EvalResult(value, est, "accel", n)


def _eval_block(alphas: Sequence[float], betas: list, tol: float, engine: str) -> list:
    """eta_lines on at most BLOCK_POINTS betas of each line alpha, for the
    engine "euler", "accel" or "checked": the results line after line, so
    result k of line j stands at j*len(betas) + k.

    Sub-blocks are an even cut, as many rows each as fit in BLOCK_ELEMENTS at
    the widest row any line needs, and each builds one phase matrix, as wide
    as its own widest row, that every line shares.  Each line forms its own
    n^(-s) matrix from it and the line's magnitude row, one line at a time, and
    both engines slice that matrix.  Each run of consecutive rows with the
    same Euler (head, m), or the same Chebyshev n, is reduced row by row on
    exactly its own columns, so every value has the bits of a one-point
    call.  A point whose first Euler attempt misses tol climbs the retry
    ladder on its own.
    """
    heads = [_euler_head(beta) for beta in betas] if engine != "accel" else None
    lines = [_BlockLine(alpha, betas, heads, tol, engine) for alpha in alphas]
    widths = [max(row) for row in zip(*(line.widths for line in lines))]
    rows = max(1, BLOCK_ELEMENTS // max(1, max(widths)))  # a width is 0 where every engine refuses
    for r0 in range(0, len(betas), rows):
        r1 = min(r0 + rows, len(betas))
        phases = _phases(betas[r0:r1], _log_range(max(widths[r0:r1])))
        for line in lines:
            line.evaluate(r0, r1, phases)
    return [result for line in lines for result in line.out]


def eta_lines(alphas: Sequence[float], betas, tol: float, engine: str = "checked") -> list[list]:
    """eta(alpha + i beta) on each line alpha, for each beta: out[j][k] is the
    EvalResult eta_eval returns at alphas[j] + i betas[k], or the
    EtaFloorError it raises.

    Euler and Chebyshev points run in blocks of at most BLOCK_POINTS betas,
    every line of a block sharing its phases, with the bits of one-point
    calls; "partial" runs point by point.
    """
    betas = list(betas)
    finite = [beta for beta in betas if math.isfinite(beta)]
    if len(finite) < len(betas):  # a non-finite beta fails at its own point only
        return [[next(line) if math.isfinite(beta) else DomainError(f"beta={beta} is not finite")
                 for beta in betas] for line in map(iter, eta_lines(alphas, finite, tol, engine))]
    out: list[list] = []
    shared = []  # the lines that go through _eval_block
    for alpha in alphas:
        error = _domain_error(alpha, tol, engine)
        if error is not None:
            out.append([error] * len(betas))
        elif engine == "partial":
            out.append([_eta_partial_certified(ComplexPoint(alpha, beta), tol) for beta in betas])
        else:
            shared.append(len(out))
            out.append([])
    if not shared:
        return out
    for start in range(0, len(betas), BLOCK_POINTS):
        block = betas[start : start + BLOCK_POINTS]
        results = _eval_block([alphas[j] for j in shared], block, tol, engine)
        for i, j in enumerate(shared):
            out[j] += results[i * len(block) : (i + 1) * len(block)]
    return out


def eta_line(alpha: float, betas, tol: float, engine: str = "checked") -> list:
    """eta(alpha + i beta) for each beta, in order: the EvalResult eta_eval
    returns there, or the EtaFloorError it raises (eta_lines on one line)."""
    return eta_lines((alpha,), betas, tol, engine)[0]


def eta_eval(s: PointLike, tol: float, engine: str = "checked") -> EvalResult:
    """Evaluate eta(s) with the configured engine: eta_line at one point.

    "checked" runs the Euler and Chebyshev engines and fails with
    CrossCheckError if they disagree beyond the combined error estimates;
    the result with the smaller estimate is returned.
    """
    p = as_point(s)
    result = eta_line(p.alpha, (p.beta,), tol, engine)[0]
    if isinstance(result, EtaFloorError):
        raise result
    return result


def eta_conjugate(s: PointLike, tol: float, engine: str = "checked") -> complex:
    """sum_{n>=1} (-1)^(n+1) e^{+i beta ln n} / n^alpha = conj(eta(s))."""
    return complex(np.conj(eta_eval(s, tol, engine).value))


def conversion_factor(s: PointLike) -> complex:
    """1 - 2^(1-s), defined on the whole plane."""
    if isinstance(s, ComplexPoint):
        sc = s.to_complex()
    else:
        sc = complex(s)
    return 1.0 - cmath.exp((1.0 - sc) * LN2)


def factor_zero(k: int) -> ComplexPoint:
    """k-th zero of the conversion factor: s_k = 1 + 2*k*pi*i/ln 2, k != 0."""
    k = int(k)
    if k == 0:
        raise DomainError("k = 0 corresponds to s = 1, the zeta pole, not a factor zero")
    return ComplexPoint(1.0, 2.0 * k * math.pi / LN2)


def zeta_from_eta(s: PointLike, tol: float) -> EvalResult:
    """zeta(s) = eta(s) / (1 - 2^(1-s)) with propagated error estimate.

    Rejects points where |1 - 2^(1-s)| < ZETA_EXCLUSION: near s = 1 this is the
    zeta pole (SingularityError), near the factor zeros s_k it is an
    ill-conditioned division (IllConditionedError).
    """
    p = _series_point(s)
    factor = conversion_factor(p)
    fabs = abs(factor)
    if fabs < ZETA_EXCLUSION:
        if abs(p.beta) < math.pi / LN2:
            raise SingularityError(
                f"s={p.to_complex():g} is within the exclusion radius of the pole at s=1"
            )
        raise IllConditionedError(
            f"conversion factor {fabs:g} at s={p.to_complex():g} is below the "
            f"exclusion threshold {ZETA_EXCLUSION:g}"
        )
    res = eta_eval(p, tol)
    value = res.value / factor
    est = (res.abs_error_estimate + 4.0 * EPS * abs(res.value)) / fabs + 4.0 * EPS * abs(value)
    return EvalResult(value, est, res.method, res.terms_used)
