import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import etafloor.decomposition as decomposition_mod
from etafloor.decomposition import (
    LeadingComponent,
    decompose_from_eta,
    inner_product_w1_w2,
    max_star_w,
    second_term,
    tail_bound,
    theta_grid,
    w1_component,
)
from etafloor.eta import ComplexPoint, as_point, eta_eval
from etafloor.exceptions import CrossCheckError, DomainError
from etafloor.scanner import bound_floor, golden_section_min

LN2 = math.log(2.0)
SQRT2 = math.sqrt(2.0)

# frozen oracle values (brute-force bracket midpoints / defining formulas)
TAIL_1 = LN2 - 1.0                      # -0.3068528194400547
TAIL_2 = -0.17753296657588702           # eta_brute(2) - 1
W_1_QUARTER = SQRT2 * (LN2 - 1.0)       # -0.4339554189045479
W2_1_QUARTER = W_1_QUARTER + SQRT2 / 2  # 0.27315136228199965
INNER_1_0 = -math.pi * (LN2 - 0.5)      # -0.6067897635087054

strip_alpha = st.floats(min_value=0.3, max_value=2.0)
strip_beta = st.floats(min_value=-50.0, max_value=50.0)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi)


def decompose(s, tol, theta=math.pi / 4):
    """The decomposition kernel at one checked evaluation of eta(s)."""
    p = as_point(s)
    return decompose_from_eta(p, eta_eval(p, tol).value, theta)


def coefficients(dec):
    """(c1, c2) with w1 = Re(c1 e^{i theta}) and w2 = Re(c2 e^{i theta})."""
    turn = SQRT2 * cmath.exp(-1j * math.pi / 4)
    return turn * second_term(dec.s), turn * dec.tail3


class TestTailVector:
    def test_at_one(self):
        assert decompose(1.0, 1e-12).tail == pytest.approx(TAIL_1, abs=1e-12)

    def test_at_two(self):
        assert decompose(2.0, 1e-12).tail == pytest.approx(TAIL_2, abs=1e-11)

    def test_index_shift_identity(self):
        s = ComplexPoint(0.8, 17.0)
        tol = 1e-10
        expected = eta_eval(s, tol).value.conjugate() - 1.0
        assert abs(decompose(s, tol).tail - expected) <= 2 * tol


class TestRotatedTail:
    # w(theta) = Re v + Im v of the rotated tail v = e^{i theta} T, so on the
    # real axis w(0) = T and w(pi) = -T, and w(theta)^2 + w(theta + pi/2)^2 = 2|T|^2

    def test_identity_rotation(self):
        assert decompose(1.0, 1e-12, 0.0).w == pytest.approx(TAIL_1, abs=1e-12)

    def test_half_turn(self):
        assert decompose(1.0, 1e-12, math.pi).w == pytest.approx(1.0 - LN2, abs=1e-12)

    def test_modulus_invariance_point(self):
        s = ComplexPoint(0.5, 5.0)
        value = eta_eval(s, 1e-10).value
        a = decompose_from_eta(s, value, math.pi / 3)
        b = decompose_from_eta(s, value, math.pi / 3 + math.pi / 2)
        assert a.tail == b.tail == decompose_from_eta(s, value).tail
        assert math.hypot(a.w, b.w) == pytest.approx(SQRT2 * abs(a.tail), abs=1e-12)

    @given(strip_alpha, strip_beta, angles)
    def test_modulus_invariance(self, alpha, beta, theta):
        s = ComplexPoint(alpha, beta)
        value = eta_eval(s, 1e-9).value
        a = decompose_from_eta(s, value, theta)
        b = decompose_from_eta(s, value, theta + math.pi / 2)
        t = SQRT2 * abs(a.tail)
        assert math.hypot(a.w, b.w) == pytest.approx(t, abs=1e-12 * (1.0 + t))


class TestWObjective:
    def test_quarter_turn_at_one(self):
        assert decompose(1.0, 1e-12, math.pi / 4).w == pytest.approx(W_1_QUARTER, abs=1e-12)

    @given(strip_alpha, strip_beta, angles)
    def test_defining_identity(self, alpha, beta, theta):
        dec = decompose(ComplexPoint(alpha, beta), 1e-9, theta)
        v = cmath.exp(1j * theta) * dec.tail
        assert dec.w == pytest.approx(v.real + v.imag, abs=1e-12 * (1 + abs(v)))

    def test_theta_maximum_equals_tail_modulus(self):
        # max over theta of w = sqrt(2) |T|: 256-point grid + golden refinement
        s = ComplexPoint(0.7, 21.0)
        value = eta_eval(s, 1e-11).value
        tail_mod = abs(decompose_from_eta(s, value).tail)
        thetas = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
        values = [decompose_from_eta(s, value, t).w for t in thetas]
        i = int(np.argmax(values))
        lo, hi = thetas[i] - 2 * math.pi / 256, thetas[i] + 2 * math.pi / 256

        def neg_w(theta):
            return -decompose_from_eta(s, value, theta).w

        _, neg_max = golden_section_min(neg_w, lo, hi, 1e-9)
        assert -neg_max == pytest.approx(SQRT2 * tail_mod, abs=1e-9)


class TestComponents:
    def test_w1_closed_forms(self):
        assert w1_component(ComplexPoint(1.0, 0.0), math.pi / 4) == pytest.approx(
            -SQRT2 / 2, abs=1e-15
        )
        assert w1_component(ComplexPoint(0.5, 0.0), math.pi / 4) == pytest.approx(
            -1.0, abs=1e-15
        )
        periodic = w1_component(ComplexPoint(1.0, 2 * math.pi / LN2), math.pi / 4)
        assert periodic == pytest.approx(-SQRT2 / 2, abs=1e-12)

    def test_w2_at_one(self):
        assert decompose(1.0, 1e-12, math.pi / 4).w2 == pytest.approx(W2_1_QUARTER, abs=1e-12)

    def test_w2_vanishes_at_large_alpha(self):
        assert abs(decompose(30.0, 1e-12, 1.1).w2) < 1e-8

    @given(strip_alpha, strip_beta, angles)
    def test_w1_plus_w2_is_w(self, alpha, beta, theta):
        s = ComplexPoint(alpha, beta)
        dec = decompose(s, 1e-9, theta)
        v = cmath.exp(1j * theta) * dec.tail
        w = v.real + v.imag
        assert dec.w1 == w1_component(s, theta)
        assert dec.w1 + dec.w2 == pytest.approx(w, abs=1e-12 * (1 + abs(w)))


class TestInnerProduct:
    def test_at_one_zero(self):
        result = inner_product_w1_w2(1.0, 1e-9)
        assert result.quadrature == pytest.approx(INNER_1_0, abs=1e-9)
        assert result.closed_form == pytest.approx(INNER_1_0, abs=1e-9)

    def test_at_three_zero_negative(self):
        result = inner_product_w1_w2(3.0, 1e-10)
        assert result.closed_form < 0.0
        assert result.quadrature == pytest.approx(result.closed_form, abs=1e-10)

    def test_origin_shift_invariance(self):
        # integral over a full period does not depend on where theta starts
        s = ComplexPoint(0.8, 11.0)
        c1, c2 = coefficients(decompose(s, 1e-10))
        nodes, weights = theta_grid(4096)
        for shift in (0.0, 0.37, 1.9):
            w1 = np.real(c1 * np.exp(1j * (nodes + shift)))
            w2 = np.real(c2 * np.exp(1j * (nodes + shift)))
            val = float(np.dot(weights, w1 * w2))
            assert val == pytest.approx(
                inner_product_w1_w2(s, 1e-10).closed_form, abs=1e-10
            )

    def test_quadrature_needs_four_panels(self):
        with pytest.raises(DomainError, match="^need at least 4 trapezoid panels$"):
            theta_grid(3)

    def test_disagreeing_quadrature_is_a_cross_check_failure(self, monkeypatch):
        def doubled(panels):
            nodes, weights = theta_grid(panels)
            return nodes, 2.0 * weights

        monkeypatch.setattr(decomposition_mod, "theta_grid", doubled)
        with pytest.raises(CrossCheckError, match="^inner-product quadrature .* disagree beyond "
                                                  r"tol=1e-09$") as info:
            inner_product_w1_w2(1.0, 1e-9)
        assert info.value.gap == pytest.approx(-INNER_1_0, abs=1e-9)
        assert info.value.budget == 1e-9

    @given(strip_alpha, strip_beta)
    def test_quadrature_matches_closed_form(self, alpha, beta):
        result = inner_product_w1_w2(ComplexPoint(alpha, beta), 1e-9)
        assert result.quadrature == pytest.approx(result.closed_form, abs=1e-9)


class TestClassifyLeading:
    def test_alpha_two_is_w1(self):
        dec = decompose(2.0, 1e-10)
        assert dec.leading is LeadingComponent.W1
        assert dec.variance1 == pytest.approx(2 * math.pi / 16.0, abs=1e-15)
        assert abs(dec.tail3) == pytest.approx(0.07246703342411309, abs=1e-10)
        assert dec.variance2 == pytest.approx(
            2 * math.pi * abs(dec.tail3) ** 2, abs=1e-12
        )

    def test_variance1_at_half(self):
        assert decompose(0.5, 1e-10).variance1 == pytest.approx(math.pi, abs=1e-14)

    def test_small_alpha_recorded(self):
        dec = decompose(0.05, 1e-8)
        assert dec.leading in (LeadingComponent.W1, LeadingComponent.W2)

    def test_w_identity_in_record(self):
        dec = decompose(ComplexPoint(0.9, 33.0), 1e-10)
        assert dec.w == dec.w1 + dec.w2
        assert dec.tail == pytest.approx(dec.tail3 + second_term(dec.s), abs=1e-15)

    def test_variances_match_quadrature(self):
        s = ComplexPoint(0.62, 24.0)
        dec = decompose(s, 1e-10)
        c1, c2 = coefficients(dec)
        nodes, weights = theta_grid(4096)
        v1 = float(np.dot(weights, np.real(c1 * np.exp(1j * nodes)) ** 2))
        v2 = float(np.dot(weights, np.real(c2 * np.exp(1j * nodes)) ** 2))
        assert dec.variance1 == pytest.approx(v1, abs=1e-9)
        assert dec.variance2 == pytest.approx(v2, abs=1e-9)


class TestMaxStar:
    def test_at_one(self):
        result = max_star_w(1.0, 1e-12)
        assert result.value == pytest.approx(SQRT2 * (1 - LN2), abs=1e-12)
        assert result.bound == pytest.approx(SQRT2 / 2, abs=1e-15)
        assert result.holds

    def test_at_half(self):
        result = max_star_w(0.5, 1e-10)
        assert result.bound == pytest.approx(1.0, abs=1e-15)
        assert result.value <= 1.0
        assert result.holds

    def test_at_four(self):
        result = max_star_w(4.0, 1e-12)
        assert result.value == pytest.approx(0.07490689088552271, abs=1e-10)
        assert result.holds

    def test_grid_holds(self):
        for alpha in np.arange(0.1, 5.0001, 0.01):
            assert max_star_w(float(alpha), 1e-10).holds


class TestLargeAlpha:
    @pytest.mark.parametrize("call", [
        lambda: tail_bound(1100.0),
        lambda: bound_floor(1100.0),
        lambda: max_star_w(1100.0, 1e-10),
    ])
    def test_overflowing_power_is_a_domain_error(self, call):
        with pytest.raises(DomainError,
                           match=r"^alpha=1100\.0 is too large: 2\*\*alpha overflows$"):
            call()

    def test_decomposition_refuses_from_alpha_512(self):
        dec = decompose_from_eta(ComplexPoint(511.9, 1.0), 1.0 + 0j)
        assert dec.variance1 == 2.0 * math.pi / 4.0**511.9
        with pytest.raises(DomainError,
                           match=r"^alpha=512\.0 is too large: 4\*\*alpha overflows$"):
            decompose_from_eta(ComplexPoint(512.0, 1.0), 1.0 + 0j)
