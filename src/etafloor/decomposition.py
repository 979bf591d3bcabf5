"""Rotated-tail decomposition of the conjugate eta series.

With T(s) = sum_{n>=2} (-1)^(n+1) e^{i beta ln n} / n^alpha (the tail of the
conjugated series, computed as conj(eta(s)) - 1), a rotation by theta gives
v = e^{i theta} T(s) and the objective

    w(theta) = Re v + Im v = sum_{n>=2} (-1)^(n+1) sqrt(2)/n^alpha
                             * cos(beta ln n + theta - pi/4).

The n = 2 term is split off as the first component

    w1(theta) = -(sqrt(2)/2^alpha) cos(beta ln 2 + theta - pi/4),

and w2 = w - w1 collects the rest.  Both are first harmonics in theta,
w_i(theta) = Re(c_i e^{i theta}) with

    c1 = sqrt(2) e^{-i pi/4} u2,      u2 = -e^{i beta ln 2} / 2^alpha,
    c2 = sqrt(2) e^{-i pi/4} T3,      T3 = T - u2  (terms with n >= 3),

which yields closed forms over one theta-period [0, 2*pi]:

    integral w1 w2 dtheta   = pi Re(c1 conj(c2)) = 2 pi Re(u2 conj(T3)),
    integral w1^2 dtheta    = pi |c1|^2 = 2 pi / 4^alpha,
    integral w2^2 dtheta    = pi |c2|^2 = 2 pi |T3|^2.

The squared L2 norm over the period is this module's notion of component
variance; the component with the larger variance is "leading" (ties go to the
first component).  w2 is always formed as w - w1: direct summation of its
series is uselessly slow off the real axis and carries no certified bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .eta import ComplexPoint, LN2, as_point, eta_eval
from .exceptions import CrossCheckError, DomainError

__all__ = [
    "LeadingComponent",
    "TailDecomposition",
    "InnerProductResult",
    "MaxStarResult",
    "second_term",
    "w1_component",
    "tail_bound",
    "inner_product_w1_w2",
    "decompose_from_eta",
    "max_star_w",
    "theta_grid",
]

SQRT2 = math.sqrt(2.0)
QUARTER_TURN = cmath.exp(-1j * math.pi / 4.0)

INNER_PRODUCT_PANELS = 4096
DEFAULT_THETA = math.pi / 4.0


class LeadingComponent(str, Enum):
    W1 = "W1"
    W2 = "W2"


@dataclass(frozen=True)
class TailDecomposition:
    """Tail vector, rotation snapshot at one theta, and variance split."""

    s: ComplexPoint
    theta: float
    tail: complex
    tail3: complex
    w: float
    w1: float
    w2: float
    variance1: float
    variance2: float
    inner_product: float
    leading: LeadingComponent


class InnerProductResult(NamedTuple):
    quadrature: float
    closed_form: float


class MaxStarResult(NamedTuple):
    value: float
    bound: float
    holds: bool


def second_term(s) -> complex:
    """u2 = -e^{i beta ln 2} / 2^alpha, the n = 2 term of the conjugated series."""
    p = as_point(s)
    return -cmath.exp(1j * p.beta * LN2) / 2.0**p.alpha


def w1_component(s, theta: float) -> float:
    """First component -(sqrt(2)/2^alpha) cos(beta ln 2 + theta - pi/4)."""
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got theta={theta}")
    p = as_point(s)
    return -(SQRT2 / 2.0**p.alpha) * math.cos(p.beta * LN2 + theta - math.pi / 4.0)


def tail_bound(alpha: float) -> float:
    """Remainder bound sqrt(2)/2^alpha on the rotated-tail objective."""
    if not (alpha > 0.0):
        raise DomainError("alpha must be > 0")
    return SQRT2 / 2.0**alpha


def theta_grid(panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite-trapezoid nodes and weights on [0, 2*pi].

    Exact (to roundoff) for trigonometric polynomials of frequency below the
    panel count, which covers every integrand in this module.
    """
    if panels < 4:
        raise DomainError("need at least 4 trapezoid panels")
    nodes = np.linspace(0.0, 2.0 * math.pi, panels + 1)
    weights = np.full(panels + 1, 2.0 * math.pi / panels)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return nodes, weights


def inner_product_w1_w2(s, tol: float) -> InnerProductResult:
    """integral_0^{2 pi} w1 w2 dtheta by trapezoid quadrature and in closed form.

    The two routes must agree within tol; a larger discrepancy means the
    harmonic bookkeeping is broken, so it raises rather than returns.
    """
    p = as_point(s)
    dec = decompose_from_eta(p, eta_eval(p, tol).value)
    c1 = SQRT2 * QUARTER_TURN * second_term(p)
    c2 = SQRT2 * QUARTER_TURN * dec.tail3
    nodes, weights = theta_grid(INNER_PRODUCT_PANELS)
    phase = np.exp(1j * nodes)
    w1 = np.real(c1 * phase)
    w2 = np.real(c2 * phase)
    quadrature = float(np.dot(weights, w1 * w2))
    closed = math.pi * (c1 * c2.conjugate()).real
    if abs(quadrature - closed) > max(tol, 64.0 * np.finfo(float).eps * (1.0 + abs(closed))):
        raise CrossCheckError(
            f"inner-product quadrature {quadrature!r} and closed form {closed!r} "
            f"disagree beyond tol={tol:g}",
            gap=abs(quadrature - closed),
            budget=tol,
        )
    return InnerProductResult(quadrature, closed)


def decompose_from_eta(s, eta_value: complex, theta: float = DEFAULT_THETA) -> TailDecomposition:
    """Build the full decomposition from an already-evaluated eta(s).

    Pure bookkeeping: no series evaluation happens here, so scanners can reuse
    one checked evaluation per sample.
    """
    p = as_point(s)
    w1 = w1_component(p, theta)  # refuses a non-finite theta
    tail = complex(eta_value.conjugate() - 1.0)
    u2 = second_term(p)
    tail3 = tail - u2
    rotation = cmath.exp(1j * theta)
    v = rotation * tail
    w_raw = v.real + v.imag
    w2 = w_raw - w1
    variance1 = 2.0 * math.pi / 4.0**p.alpha
    variance2 = 2.0 * math.pi * abs(tail3) ** 2
    inner = 2.0 * math.pi * (u2 * tail3.conjugate()).real
    leading = LeadingComponent.W1 if variance1 >= variance2 else LeadingComponent.W2
    return TailDecomposition(
        s=p,
        theta=theta,
        tail=tail,
        tail3=tail3,
        w=w1 + w2,
        w1=w1,
        w2=w2,
        variance1=variance1,
        variance2=variance2,
        inner_product=inner,
        leading=leading,
    )


def max_star_w(alpha: float, tol: float) -> MaxStarResult:
    """Peak objective |sum_{n>=2} (-1)^(n+1) sqrt(2)/n^alpha| = sqrt(2)(1 - eta(alpha))
    against the remainder bound sqrt(2)/2^alpha."""
    bound = tail_bound(alpha)
    res = eta_eval(ComplexPoint(alpha, 0.0), tol)
    value = SQRT2 * abs(res.value.real - 1.0)
    slack = 2.0 * SQRT2 * res.abs_error_estimate + 1e-15 * (1.0 + bound)
    return MaxStarResult(value, bound, value <= bound + slack)
