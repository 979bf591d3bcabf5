"""Executable lemma library: five elementary facts used by the bound machinery.

1. reverse triangle inequality |z1 + z2| >= ||z1| - |z2||;
2. ellipse modulus sqrt(x^2 + y^2) <= a with equality on the major axis, and
   max(x_t + y_t) = sqrt(a^2 + b^2) attained at t = arctan(b/a);
3. sqrt(u^2 + v^2) = u + v exactly when u*v = 0 and u + v >= 0;
4. the circle identity r cos t + r sin t = a cos t + b sin(t + phi) for
   a = r + delta, b = sqrt(r^2 + delta^2), phi = -arctan(delta/r), with the
   parameter orderings delta >= 0 => r <= b <= a and delta <= 0 => a <= r <= b.
   Only these orderings are asserted; the circle modulus sqrt(2)*r at t = pi/4
   is deliberately not compared against a or b.
5. the alternating-series remainder bound |sum_{n>=m} (-1)^(n+1) a_n| <= a_m
   for positive, monotone decreasing, vanishing a_n, checked on the leading
   terms a_1..a_M and the series limit.

Each check returns the compared quantities plus a verdict instead of a bare
boolean so failures stay diagnosable.  Every check works on arrays (a scalar
call, or one sequence, is a batch of one), and the seeded campaigns behind
``props`` (``run_all_suites``) are those checks on seeded arrays, reduced to a
verdict.

Equality slack everywhere: 1e-12 scaled by (1 + magnitude of the operands).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .eta import crvz_reference_sum
from .exceptions import DomainError

__all__ = [
    "EllipseParams",
    "CircleDecomposition",
    "ReverseTriangleCheck",
    "AdditiveModulusCheck",
    "AltTailCheck",
    "PropSuiteResult",
    "reverse_triangle_check",
    "ellipse_point",
    "additive_modulus_check",
    "circle_decomposition",
    "reconstruction_max_error",
    "alt_tail_check",
    "run_prop1_suite",
    "run_prop2_suite",
    "run_prop3_suite",
    "run_prop4_suite",
    "run_prop5_suite",
    "run_all_suites",
]

BASE_SLACK = 1e-12
CASE_BLOCK_VALUES = 1 << 13  # values per array of a campaign's case block: 64 KB of float64


def _slack(x1, x2=0.0):
    return BASE_SLACK * (1.0 + np.abs(x1) + np.abs(x2))


@dataclass(frozen=True)
class EllipseParams:
    """Ellipse (a cos t, b sin t) with semi-axes a >= b > 0 and angle t."""

    a: float
    b: float
    t: float

    def __post_init__(self) -> None:
        if not np.all((self.a >= self.b) & (self.b > 0.0)):
            raise DomainError(f"ellipse requires a >= b > 0, got a={self.a}, b={self.b}")


@dataclass(frozen=True)
class CircleDecomposition:
    """Parameters (a, b, phi) rewriting r cos t + r sin t as a cos t + b sin(t+phi)."""

    r: float
    delta: float
    a: float
    b: float
    phi: float

    @property
    def ordered(self):
        """delta >= 0 => r <= b <= a and delta < 0 => a <= r <= b, within the slack."""
        eps = _slack(self.r)
        return (self.r <= self.b + eps) & np.where(self.delta >= 0.0, self.b <= self.a + eps,
                                                   self.a <= self.r + eps)


class ReverseTriangleCheck(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


class AdditiveModulusCheck(NamedTuple):
    modulus: float
    sum: float
    equal: bool
    iff_condition: bool  # u*v = 0 and u + v >= 0, within the slack


class AltTailCheck(NamedTuple):
    ordered: bool  # odd partial sums fall and even ones rise, within the slack
    excess: float  # max over m of |limit - S_(m-1)| - a_m; the bound holds where <= 0


def reverse_triangle_check(z1: complex, z2: complex) -> ReverseTriangleCheck:
    """Compare |z1 + z2| against ||z1| - |z2||."""
    abs1, abs2 = np.abs(z1), np.abs(z2)
    lhs = np.abs(z1 + z2)
    rhs = np.abs(abs1 - abs2)
    return ReverseTriangleCheck(lhs, rhs, lhs >= rhs - _slack(abs1, abs2))


def ellipse_point(p: EllipseParams) -> tuple[float, float]:
    """(a cos t, b sin t); its modulus never exceeds the semi-major length a."""
    return p.a * np.cos(p.t), p.b * np.sin(p.t)


def additive_modulus_check(u: float, v: float) -> AdditiveModulusCheck:
    """sqrt(u^2+v^2) equals u+v exactly when u*v = 0 and u+v >= 0."""
    modulus = np.hypot(u, v)
    total = u + v
    slack = _slack(u, v)
    return AdditiveModulusCheck(modulus, total, np.abs(modulus - total) <= slack,
                                (np.abs(u * v) <= slack) & (total >= -slack))


def circle_decomposition(r: float, delta: float) -> CircleDecomposition:
    """Decompose r cos t + r sin t into a cos t + b sin(t + phi).

    a = r + delta, b = sqrt(r^2 + delta^2), phi = -arctan(delta/r); the
    identity holds for every t.  Requires r > 0 and |delta| <= r.
    """
    if not np.all(r > 0.0):
        raise DomainError(f"circle radius must be positive, got {r}")
    if np.any(np.abs(delta) > r):
        raise DomainError(f"|delta| = {np.abs(delta)} exceeds the radius {r}")
    return CircleDecomposition(
        r=r,
        delta=delta,
        a=r + delta,
        b=np.hypot(r, delta),
        phi=-np.arctan2(delta, r),
    )


RECON_ROWS = 16  # cases per block: a (16, 4096) float64 buffer is 512 KB and stays in L2


def reconstruction_max_error(dec: CircleDecomposition) -> float:
    """max_t |r cos t + r sin t - a cos t - b sin(t + phi)| over 4096 uniform t.

    The cases go RECON_ROWS at a time through two reused buffers, so a batch
    of any size needs no (cases, 4096) temporary."""
    t = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    cos_t = np.cos(t)
    circle = cos_t + np.sin(t)
    fields = np.broadcast_arrays(dec.r, dec.a, dec.b, dec.phi)
    r, a, b, phi = (x.reshape(-1, 1) for x in fields)
    out = np.empty(r.shape[0])
    x, y = np.empty((2, RECON_ROWS, t.size))
    for i in range(0, out.size, RECON_ROWS):
        k = slice(i, i + RECON_ROWS)
        xk, yk = x[: out[k].size], y[: out[k].size]
        np.sin(np.add(t, phi[k], out=xk), out=xk)
        xk *= b[k]
        xk += np.multiply(a[k], cos_t, out=yk)  # xk = b sin(t + phi) + a cos t
        np.subtract(np.multiply(r[k], circle, out=yk), xk, out=yk)
        np.max(np.abs(yk, out=yk), axis=-1, out=out[k])
    return out.reshape(fields[0].shape)[()]


def alt_tail_check(a, limit) -> AltTailCheck:
    """Remainder bound |limit - S_(m-1)| <= a_m for m = 1..M, with S_0 = 0.

    ``a`` holds the leading terms a_1..a_M on its last axis and ``limit`` is
    each sequence's sum; S_m = a_1 - a_2 + ... +- a_m are the partial sums.
    """
    a = np.asarray(a, dtype=np.float64)
    signs = np.where(np.arange(1, a.shape[-1] + 1) % 2 == 1, 1.0, -1.0)
    partials = np.cumsum(signs * a, axis=-1)
    slack = BASE_SLACK * (1.0 + a[..., :1])
    unordered = (np.any(np.diff(partials[..., 0::2], axis=-1) > slack, axis=-1)
                 | np.any(np.diff(partials[..., 1::2], axis=-1) < -slack, axis=-1))
    prev = np.concatenate((np.zeros_like(a[..., :1]), partials[..., :-1]), axis=-1)
    excess = np.max(np.abs(np.asarray(limit)[..., None] - prev) - a, axis=-1)
    return AltTailCheck(~unordered, excess)


# ----------------------------------------------------------------------------
# randomized suites (vectorized; seeded)
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class PropSuiteResult:
    proposition: str
    cases: int
    failures: int
    worst_violation: float
    seed: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _campaign_rng(cases: int, seed: int) -> np.random.Generator:
    """The generator a campaign of `cases` cases draws from; DomainError for
    cases < 1 or seed < 0."""
    if cases < 1:
        raise DomainError(f"cases must be >= 1, got {cases}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def run_prop1_suite(cases: int = 10_000, seed: int = 0) -> PropSuiteResult:
    """|z1+z2| >= ||z1|-|z2|| on random pairs with |Re|, |Im| <= 1e3."""
    rng = _campaign_rng(cases, seed)
    z1 = rng.uniform(-1e3, 1e3, cases) + 1j * rng.uniform(-1e3, 1e3, cases)
    z2 = rng.uniform(-1e3, 1e3, cases) + 1j * rng.uniform(-1e3, 1e3, cases)
    # include exact cancellation pairs, the equality case
    k = max(1, cases // 100)
    z2[:k] = -z1[:k]
    check = reverse_triangle_check(z1, z2)
    failures = int(np.sum(~check.holds))
    return PropSuiteResult("prop1", cases, failures, float(np.max(check.rhs - check.lhs)), seed)


def run_prop2_suite(cases: int = 10_000, seed: int = 0) -> PropSuiteResult:
    """Modulus <= a on t-grids, equality only on the major axis when a > b.

    From a^2 - |(x,y)|^2 = (a^2-b^2) sin^2 t it follows that
    a - |(x,y)| >= (a-b) sin^2(t) / 2, which is the sharp form checked away
    from t in {0, pi}.
    """
    rng = _campaign_rng(cases, seed)
    axes = np.exp(rng.uniform(-3.0, 3.0, (cases, 2)))
    a = np.max(axes, axis=1)
    b = np.min(axes, axis=1)
    t = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    worst = 0.0
    failures = 0
    chunk = CASE_BLOCK_VALUES // t.size
    for i0 in range(0, cases, chunk):
        aa = a[i0 : i0 + chunk, None]
        bb = b[i0 : i0 + chunk, None]
        mod = np.hypot(*ellipse_point(EllipseParams(aa, bb, t)))
        # modulus <= a, then the strict drop away from the axis endpoints
        for excess in (mod - aa, mod - (aa - 0.5 * (aa - bb) * np.sin(t) ** 2)):
            failures += int(np.sum(np.any(excess > _slack(aa), axis=1)))
            worst = max(worst, float(np.max(excess)))
    return PropSuiteResult("prop2", cases, failures, worst, seed)


def run_prop3_suite(cases: int = 10_000, seed: int = 0) -> PropSuiteResult:
    """Equality sqrt(u^2+v^2) = u+v holds iff u*v = 0 and u+v >= 0."""
    rng = _campaign_rng(cases, seed)
    u = rng.uniform(-100.0, 100.0, cases)
    v = rng.uniform(-100.0, 100.0, cases)
    third = cases // 3
    v[:third] = 0.0
    u[third : 2 * third] = 0.0
    check = additive_modulus_check(u, v)
    mismatch = check.equal != check.iff_condition
    failures = int(np.sum(mismatch))
    worst = float(np.max(np.abs(check.modulus - check.sum) * mismatch)) if failures else 0.0
    return PropSuiteResult("prop3", cases, failures, worst, seed)


def run_prop4_suite(cases: int = 10_000, seed: int = 0) -> PropSuiteResult:
    """Reconstruction identity to 1e-11*(1+r) plus the (a, b, r) orderings."""
    rng = _campaign_rng(cases, seed)
    r = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), cases))
    dec = circle_decomposition(r, r * rng.uniform(-1.0, 1.0, cases))
    err = reconstruction_max_error(dec)
    failures = int(np.sum(err > 1e-11 * (1.0 + dec.r))) + int(np.sum(~dec.ordered))
    return PropSuiteResult("prop4", cases, failures, float(np.max(err / (1.0 + dec.r))), seed)


def run_prop5_suite(cases: int = 10_000, seed: int = 0) -> PropSuiteResult:
    """Partial-sum monotonicity and |S_m| <= a_m on random admissible sequences.

    Families (all completely monotone, so the Chebyshev reference limit is
    rigorous): n^(-p), geometric q^n, and shifted power (n+c)^(-p).  Each
    case's family and parameters are drawn in turn; the sequences are then
    checked as arrays, a block of CASE_BLOCK_VALUES // 64 cases at a time.
    """
    max_m = 50  # |S_m| <= a_m is checked for m <= max_m
    rng = _campaign_rng(cases, seed)
    family = np.empty(cases, dtype=np.int64)
    p = np.ones(cases)
    q = np.ones(cases)
    c = np.zeros(cases)
    for k in range(cases):
        family[k] = rng.integers(0, 3)
        if family[k] == 1:
            q[k] = rng.uniform(0.3, 0.95)
        else:
            p[k] = rng.uniform(0.6, 3.0)
            if family[k] == 2:
                c[k] = rng.uniform(0.0, 5.0)
    n = np.arange(1.0, 65.0)  # the reference sum's 64 terms; a_n for n <= max_m + 1 head them
    failures = 0
    worst = 0.0
    chunk = CASE_BLOCK_VALUES // n.size
    for i0 in range(0, cases, chunk):
        f = family[i0 : i0 + chunk]
        pk, qk, ck = (x[i0 : i0 + chunk, None] for x in (p, q, c))
        terms = np.empty((f.size, n.size))
        terms[f == 0] = n ** -pk[f == 0]
        terms[f == 1] = qk[f == 1] ** n
        terms[f == 2] = (n + ck[f == 2]) ** -pk[f == 2]
        check = alt_tail_check(terms[:, : max_m + 1], crvz_reference_sum(terms))
        violation = check.excess[check.ordered]
        failures += int(np.sum(~check.ordered))
        if violation.size:
            worst = max(worst, float(np.max(violation)))
            failures += int(np.sum(violation > 1e-9 * (1.0 + terms[check.ordered, 0])))
    return PropSuiteResult("prop5", cases, failures, worst, seed)


def run_all_suites(cases: int = 10_000, seed: int = 0) -> list[PropSuiteResult]:
    """All five campaigns with per-suite seeds derived from the given seed."""
    return [
        run_prop1_suite(cases, seed),
        run_prop2_suite(cases, seed + 1),
        run_prop3_suite(cases, seed + 2),
        run_prop4_suite(cases, seed + 3),
        run_prop5_suite(cases, seed + 4),
    ]
