"""Dirichlet eta engines with explicit, testable error control.

eta(s) = sum_{n>=1} (-1)^(n+1) n^(-s) converges for Re(s) > 0.  Three
algorithmically independent evaluation routes are provided so they can act as
oracles for each other:

* ``eta_partial_sum`` — plain truncation.  On the real axis the alternating
  remainder bound |sum_{n>=m} (-1)^(n+1) a_n| <= a_m makes consecutive partial
  sums a rigorous bracket; off the axis it is only an exploratory tool.
* ``eta_euler`` — direct head of max(32, ceil|Im s|) terms followed by an Euler
  transformation of the remaining alternating tail.  The head length keeps the
  forward-difference ratio below ~1/2 for any height.
* ``eta_accel`` — Chebyshev-weighted summation in the style of Cohen,
  Rodriguez Villegas and Zagier ("Convergence acceleration of alternating
  series", Exp. Math. 9 (2000)): with d_n the Chebyshev polynomial T_n(3),
  eta(s) ~ (1/d_n) sum_{k<n} (-1)^k (d_n - d_k) (k+1)^(-s).  The truncation
  error decays like (3+sqrt(8))^(-n) times the total variation of the
  representing measure, Gamma(alpha)/|Gamma(s)|, where ln|Gamma| comes from
  an in-house Stirling series.

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

import numpy as np

from .exceptions import (
    CrossCheckError,
    DomainError,
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
ZETA_EXCLUSION = 1e-6  # least |1 - 2^(1-s)| zeta_from_eta divides by

# read-only cache of ln n, n = 1..size; grown before parallel sections
_LOG_TABLE_LIMIT = 1_000_000
_logs = np.log(np.arange(1, 4097, dtype=np.float64))


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


def _require_alpha_positive(s: ComplexPoint) -> None:
    if not (s.alpha > 0.0):
        raise DomainError(f"series evaluation requires Re(s) > 0, got alpha={s.alpha}")


def _log_range(n: int) -> np.ndarray:
    """ln(1..n) from the shared read-only table, growing it if needed."""
    global _logs
    if n > _logs.size:
        if n <= _LOG_TABLE_LIMIT:
            size = min(_LOG_TABLE_LIMIT, max(n, 2 * _logs.size))
            _logs = np.log(np.arange(1, size + 1, dtype=np.float64))
        else:
            return np.log(np.arange(1, n + 1, dtype=np.float64))
    return _logs[:n]


def _alternating_signs(n: int) -> np.ndarray:
    signs = np.ones(n)
    signs[1::2] = -1.0
    return signs


# ----------------------------------------------------------------------------
# direct partial summation
# ----------------------------------------------------------------------------

def eta_partial_sum(s: PointLike, n_terms: int) -> complex:
    """sum_{n=1}^{n_terms} (-1)^(n+1) n^(-s), term by term in binary64."""
    p = as_point(s)
    _require_alpha_positive(p)
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
        if start == 1:
            lnn = _log_range(stop)
        else:
            lnn = np.log(np.arange(start, stop + 1, dtype=np.float64))
        total += complex(np.sum(_alternating_signs(stop - start + 1) * np.exp(-sc * lnn)))
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


def _euler_tail_length(s: complex, head: int, tol: float) -> int:
    """Number of difference terms so the modelled ladder lands well under tol.

    Correction j decays roughly like prod (|s|+j)/(2(head+1+j)) relative to the
    first tail term; target tol*1e-4 so the heuristic estimate clears tol.
    """
    js = np.arange(1.0, 97.0)
    ratio = (abs(s) + js) / (2.0 * (head + 1.0 + js))
    log_first = -s.real * math.log(head + 1.0)
    cum = log_first + np.cumsum(np.log(ratio))
    target = math.log(max(tol, 1e-300)) + math.log(1e-4)
    hit = np.nonzero(cum <= target)[0]
    m = int(hit[0]) + 1 if hit.size else 96
    return max(16, min(96, ((m + 7) // 8) * 8))


def _euler_attempt(sc: complex, head: int, m: int) -> tuple[complex, float, int]:
    lnn = _log_range(head + m)
    pows = np.exp(-sc * lnn)
    head_sum = complex(np.sum(_alternating_signs(head) * pows[:head]))
    b = pows[head:]
    tail_sign = 1.0 if head % 2 == 0 else -1.0
    tail = tail_sign * complex(np.sum(_euler_weights(m) * b))
    m2 = m - 8
    tail2 = tail_sign * complex(np.sum(_euler_weights(m2) * b[:m2]))
    absp = np.abs(pows)
    floor = EPS * (2.0 * float(np.sum(absp)) + abs(sc.imag) * float(np.dot(absp, lnn)))
    est = 10.0 * abs(tail - tail2) + floor
    return head_sum + tail, est, head + m


def eta_euler(s: PointLike, tol: float) -> EvalResult:
    """eta(s) via a direct head plus the Euler transformation of the tail."""
    p = as_point(s)
    _require_alpha_positive(p)
    if not (tol > 0.0):
        raise DomainError("tol must be > 0")
    sc = p.to_complex()
    head = max(32, int(math.ceil(abs(p.beta))))
    m = _euler_tail_length(sc, head, tol)
    value, est, terms = _euler_attempt(sc, head, m)
    if est > tol:
        for head, m in ((head, min(96, m + 16)), (2 * head, 96), (4 * head, 96)):
            if head > MAX_EULER_HEAD:
                break
            value, est, terms = _euler_attempt(sc, head, m)
            if est <= tol:
                break
    if est > tol:
        raise NonConvergenceError(
            f"euler engine cannot certify tol={tol:g} at s={sc:g} (best estimate {est:g})"
        )
    return EvalResult(value, est, "euler", terms)


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


def _chebyshev_truncation(s: complex, n: int) -> float:
    """2 (3+sqrt 8)^(-n) Gamma(alpha)/|Gamma(s)|: the total-variation error model."""
    return 2.0 * math.exp(min(700.0, _log_total_variation(s) - n * _LN_DELTA))


def accel_stages_for(s: PointLike, tol: float) -> int:
    """Smallest stage count (rounded to a multiple of 32) whose modelled
    truncation error clears tol."""
    p = as_point(s)
    _require_alpha_positive(p)
    if not (tol > 0.0):
        raise DomainError("tol must be > 0")
    log_tv = _log_total_variation(p.to_complex())
    n = int(math.ceil((log_tv + math.log(2.0 / tol)) / _LN_DELTA)) + 4
    n = ((max(n, 8) + 31) // 32) * 32
    return n


def eta_accel(s: PointLike, n_stages: int) -> EvalResult:
    """eta(s) by Chebyshev-weighted summation of the first n_stages terms."""
    p = as_point(s)
    _require_alpha_positive(p)
    n = int(n_stages)
    if n < 1:
        raise DomainError("n_stages must be >= 1")
    if n > MAX_ACCEL_STAGES:
        raise NonConvergenceError(f"n_stages {n} exceeds cap {MAX_ACCEL_STAGES}")
    sc = p.to_complex()
    weights = _crvz_weights(n)
    lnn = _log_range(n)
    a = np.exp(-sc * lnn)
    value = complex(np.sum(weights * a))
    wabs = np.abs(weights) * np.abs(a)
    floor = EPS * (2.0 * float(np.sum(wabs)) + abs(p.beta) * float(np.dot(wabs, lnn)))
    est = _chebyshev_truncation(sc, n) + floor
    return EvalResult(value, est, "accel", n)


def crvz_reference_sum(terms: np.ndarray) -> float:
    """Chebyshev-weighted value of sum_k (-1)^k terms[k].

    Rigorous to ~2(3+sqrt 8)^(-len(terms)) x total variation when the terms are
    moments of a positive measure on [0,1] (every completely monotone sequence);
    used as a reference limit for alternating series with no closed form.
    """
    terms = np.asarray(terms, dtype=np.float64)
    n = terms.size
    if n < 1:
        raise DomainError("need at least one term")
    return float(np.sum(_crvz_weights(n) * terms))


# ----------------------------------------------------------------------------
# dispatch, conjugate, conversion factor
# ----------------------------------------------------------------------------

def _eta_partial_certified(p: ComplexPoint, tol: float) -> EvalResult:
    if p.beta != 0.0:
        raise NonConvergenceError(
            "partial engine certifies a tolerance only on the real axis (beta = 0)"
        )
    # remainder after N terms is at most (N+1)^(-alpha); bracket midpoint halves it
    log_needed = math.log(2.0 / tol) / p.alpha
    if log_needed > math.log(MAX_PARTIAL_TERMS):
        raise NonConvergenceError(
            f"partial summation cannot certify tol={tol:g} at alpha={p.alpha} "
            f"within {MAX_PARTIAL_TERMS} terms"
        )
    n = min(max(int(math.ceil(math.exp(log_needed))) + 2, 4), MAX_PARTIAL_TERMS)
    n -= n % 2
    lo, hi = partial_sum_bracket(p.alpha, n)
    est = 0.5 * (hi - lo) + EPS * 2.0 * n ** max(0.0, 1.0 - p.alpha)
    if est > tol:
        raise NonConvergenceError(
            f"partial summation cannot certify tol={tol:g} at alpha={p.alpha} "
            f"within {MAX_PARTIAL_TERMS} terms"
        )
    return EvalResult(complex(0.5 * (lo + hi)), est, "partial", n)


def eta_eval(s: PointLike, tol: float, engine: str = "checked") -> EvalResult:
    """Evaluate eta(s) with the configured engine.

    "checked" runs the Euler and Chebyshev engines and fails with
    CrossCheckError if they disagree beyond the combined error estimates;
    the result with the smaller estimate is returned.
    """
    p = as_point(s)
    _require_alpha_positive(p)
    if not (tol > 0.0):
        raise DomainError("tol must be > 0")
    if engine == "euler":
        return eta_euler(p, tol)
    if engine == "accel":
        res = eta_accel(p, accel_stages_for(p, tol))
        if res.abs_error_estimate > tol:
            raise NonConvergenceError(
                f"accel engine cannot certify tol={tol:g} at s={p.to_complex():g} "
                f"(estimate {res.abs_error_estimate:g})"
            )
        return res
    if engine == "partial":
        return _eta_partial_certified(p, tol)
    if engine != "checked":
        raise DomainError(f"unknown engine {engine!r}; expected one of {ENGINES}")

    r1 = eta_euler(p, tol)
    r2 = eta_accel(p, accel_stages_for(p, tol))
    gap = abs(r1.value - r2.value)
    budget = r1.abs_error_estimate + r2.abs_error_estimate + 4.0 * EPS
    if gap > budget:
        raise CrossCheckError(
            f"engines disagree at s={p.to_complex():g}: gap {gap:g} exceeds "
            f"combined estimate {budget:g}",
            gap=gap,
            budget=budget,
        )
    best, other = (r1, r2) if r1.abs_error_estimate <= r2.abs_error_estimate else (r2, r1)
    if best.abs_error_estimate > tol:
        raise NonConvergenceError(
            f"checked evaluation cannot certify tol={tol:g} at s={p.to_complex():g}"
        )
    return EvalResult(best.value, best.abs_error_estimate, best.method,
                      best.terms_used + other.terms_used)


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
    p = as_point(s)
    _require_alpha_positive(p)
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
