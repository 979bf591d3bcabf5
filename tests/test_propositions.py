import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import etafloor.propositions as propositions_mod
from etafloor.exceptions import DomainError
from etafloor.propositions import (
    EllipseParams,
    PropSuiteResult,
    additive_modulus_check,
    alt_tail_check,
    circle_decomposition,
    ellipse_point,
    reconstruction_max_error,
    reverse_triangle_check,
    run_all_suites,
    run_prop1_suite,
    run_prop2_suite,
    run_prop3_suite,
    run_prop4_suite,
    run_prop5_suite,
)

LN2 = math.log(2.0)

finite_reals = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


class TestReverseTriangle:
    def test_3_4_5(self):
        check = reverse_triangle_check(3.0, -4.0j)
        assert check.lhs == pytest.approx(5.0)
        assert check.rhs == pytest.approx(1.0)
        assert check.holds

    def test_equality_on_cancellation(self):
        z = 2.5 - 1.5j
        check = reverse_triangle_check(z, -z)
        assert check.lhs == 0.0
        assert check.rhs == 0.0
        assert check.holds

    def test_opposite_phases_equal_radius(self):
        r, theta = 3.0, 0.7
        z1 = r * complex(math.cos(theta), math.sin(theta))
        z2 = r * complex(math.cos(theta + math.pi), math.sin(theta + math.pi))
        check = reverse_triangle_check(z1, z2)
        assert check.lhs == pytest.approx(0.0, abs=1e-12)
        assert check.rhs == pytest.approx(0.0, abs=1e-12)

    @given(finite_reals, finite_reals, finite_reals, finite_reals)
    def test_always_holds(self, a, b, c, d):
        assert reverse_triangle_check(complex(a, b), complex(c, d)).holds


class TestEllipse:
    def test_major_axis_point(self):
        x, y = ellipse_point(EllipseParams(2.0, 1.0, 0.0))
        assert (x, y) == (2.0, 0.0)
        assert math.hypot(x, y) == 2.0
        assert x + y == 2.0

    def test_minor_axis_point(self):
        x, y = ellipse_point(EllipseParams(2.0, 1.0, math.pi / 2))
        assert x == pytest.approx(0.0, abs=1e-15)
        assert y == pytest.approx(1.0)
        assert math.hypot(x, y) <= 2.0

    def test_sum_maximum_at_arctan(self):
        a, b = 2.0, 1.0
        x, y = ellipse_point(EllipseParams(a, b, math.atan2(b, a)))
        assert x + y == pytest.approx(math.sqrt(a * a + b * b))

    def test_invalid_axes(self):
        with pytest.raises(DomainError):
            EllipseParams(1.0, 2.0, 0.0)
        with pytest.raises(DomainError):
            EllipseParams(1.0, 0.0, 0.0)

    @given(
        st.floats(min_value=0.1, max_value=50.0),
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    def test_modulus_never_exceeds_major(self, a, frac, t):
        b = a * frac
        x, y = ellipse_point(EllipseParams(a, b, t))
        assert math.hypot(x, y) <= a * (1 + 1e-12)


class TestAdditiveModulus:
    def test_one_factor_zero(self):
        check = additive_modulus_check(5.0, 0.0)
        assert check.modulus == check.sum == 5.0
        assert check.equal

    def test_both_nonzero(self):
        check = additive_modulus_check(3.0, 4.0)
        assert check.modulus == pytest.approx(5.0)
        assert check.sum == pytest.approx(7.0)
        assert not check.equal

    def test_negative_sum(self):
        check = additive_modulus_check(-2.0, 0.0)
        assert check.modulus == 2.0
        assert check.sum == -2.0
        assert not check.equal

    def test_iff_condition(self):
        assert additive_modulus_check(5.0, 0.0).iff_condition
        assert not additive_modulus_check(3.0, 4.0).iff_condition
        assert not additive_modulus_check(-2.0, 0.0).iff_condition


class TestCircleDecomposition:
    def test_zero_offset_is_identity(self):
        dec = circle_decomposition(1.0, 0.0)
        assert dec.a == dec.b == 1.0
        assert dec.phi == 0.0

    def test_reconstruction_half_offset(self):
        dec = circle_decomposition(1.0, 0.5)
        assert dec.a == 1.5
        assert dec.b == pytest.approx(math.sqrt(1.25))
        assert dec.phi == pytest.approx(-math.atan(0.5))
        assert reconstruction_max_error(dec) <= 1e-12

    def test_negative_offset_ordering(self):
        dec = circle_decomposition(2.0, -1.0)
        assert dec.a == 1.0
        assert dec.b == pytest.approx(math.sqrt(5.0))
        assert dec.a <= dec.r <= dec.b

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            circle_decomposition(0.0, 0.0)
        with pytest.raises(DomainError):
            circle_decomposition(1.0, 1.5)

    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_reconstruction_and_orderings(self, r, frac):
        delta = r * frac
        dec = circle_decomposition(r, delta)
        assert reconstruction_max_error(dec) <= 1e-11 * (1.0 + r)
        eps = 1e-12 * (1.0 + r)
        if delta >= 0:
            assert dec.r <= dec.b + eps <= dec.a + 2 * eps
        else:
            assert dec.a <= dec.r + eps <= dec.b + 2 * eps


class TestBatchOfOne:
    """An array call gives, at each index, the fields of the scalar call."""

    N = 500

    @staticmethod
    def _assert_batch_matches(batch, scalar_at, n):
        for i in range(n):
            single = scalar_at(i)
            for name, column in zip(single._fields, batch):
                assert column[i] == getattr(single, name), (name, i)

    def test_reverse_triangle(self):
        rng = np.random.default_rng(101)
        z1 = rng.uniform(-1e3, 1e3, self.N) + 1j * rng.uniform(-1e3, 1e3, self.N)
        z2 = rng.uniform(-1e3, 1e3, self.N) + 1j * rng.uniform(-1e3, 1e3, self.N)
        z2[:5] = -z1[:5]
        self._assert_batch_matches(
            reverse_triangle_check(z1, z2),
            lambda i: reverse_triangle_check(complex(z1[i]), complex(z2[i])), self.N)

    def test_ellipse_point(self):
        rng = np.random.default_rng(102)
        axes = np.exp(rng.uniform(-3.0, 3.0, (self.N, 2)))
        a, b = axes.max(axis=1), axes.min(axis=1)
        t = rng.uniform(0.0, 2.0 * math.pi, self.N)
        xs, ys = ellipse_point(EllipseParams(a, b, t))
        for i in range(self.N):
            x, y = ellipse_point(EllipseParams(float(a[i]), float(b[i]), float(t[i])))
            assert (xs[i], ys[i]) == (x, y), i
        with pytest.raises(DomainError):
            EllipseParams(a, np.where(np.arange(self.N) == 7, 2.0 * a, b), t)

    def test_additive_modulus(self):
        rng = np.random.default_rng(103)
        u = rng.uniform(-100.0, 100.0, self.N)
        v = rng.uniform(-100.0, 100.0, self.N)
        v[:100] = 0.0
        u[100:200] = 0.0
        batch = additive_modulus_check(u, v)
        assert batch.equal[:200].sum() > 0 and not batch.equal[200:].any()
        self._assert_batch_matches(
            batch, lambda i: additive_modulus_check(float(u[i]), float(v[i])), self.N)

    def test_circle_decomposition(self):
        rng = np.random.default_rng(104)
        r = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), self.N))
        delta = r * rng.uniform(-1.0, 1.0, self.N)
        dec = circle_decomposition(r, delta)
        errors = reconstruction_max_error(dec)
        ordered = dec.ordered
        for i in range(self.N):
            one = circle_decomposition(float(r[i]), float(delta[i]))
            for name in ("r", "delta", "a", "b", "phi"):
                assert getattr(dec, name)[i] == getattr(one, name), (name, i)
            assert errors[i] == reconstruction_max_error(one), i
            assert ordered[i] == one.ordered, i
        with pytest.raises(DomainError):
            circle_decomposition(r, np.where(np.arange(self.N) == 7, 2.0 * r, delta))


def _one_shot_max_error(dec):
    """The reconstruction error as one batch-sized expression: the reference
    that the blocked `reconstruction_max_error` must match bit for bit."""
    t = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    r, a, b, phi = (np.asarray(x)[..., None] for x in (dec.r, dec.a, dec.b, dec.phi))
    rhs = b * np.sin(t + phi)
    rhs += a * np.cos(t)
    err = r * (np.cos(t) + np.sin(t)) - rhs
    return np.max(np.abs(err), axis=-1)


class TestReconstructionBlocks:
    """Blocked reconstruction gives the one-shot formula's bits at any batch shape."""

    @staticmethod
    def _decomposition(shape, seed):
        rng = np.random.default_rng(seed)
        r = np.exp(rng.uniform(math.log(1e-2), math.log(1e2), shape))
        return circle_decomposition(r, r * rng.uniform(-1.0, 1.0, shape))

    @pytest.mark.parametrize("shape", [(1,), (15,), (16,), (17,), (33,), (3, 7)],
                             ids=str)
    def test_matches_one_shot_and_scalar_calls(self, shape):
        dec = self._decomposition(shape, 106)
        errors = reconstruction_max_error(dec)
        assert errors.shape == shape
        assert np.array_equal(errors.view(np.int64), _one_shot_max_error(dec).view(np.int64))
        for i in np.ndindex(shape):
            one = reconstruction_max_error(circle_decomposition(float(dec.r[i]),
                                                                float(dec.delta[i])))
            assert np.float64(one).view(np.int64) == errors[i].view(np.int64), i

    def test_scalar_call_returns_a_scalar(self):
        dec = circle_decomposition(0.7, -0.3)
        error = reconstruction_max_error(dec)
        assert np.ndim(error) == 0 and not isinstance(error, np.ndarray)
        assert np.float64(error).view(np.int64) == _one_shot_max_error(dec).view(np.int64)


class TestAltTailCheck:
    N = np.arange(1.0, 21.0)  # every remainder bound for m = 1..20

    @pytest.mark.parametrize("a, limit", [
        (1.0 / N, LN2),
        (1.0 / N**2, math.pi**2 / 12.0),
        (0.5**N, 0.5 / 1.5),
    ], ids=["harmonic", "inverse_square", "geometric"])
    def test_closed_form_sums(self, a, limit):
        check = alt_tail_check(a, limit)
        assert check.ordered
        assert check.excess < 0.0

    def test_bumped_sequence_is_unordered(self):
        a = np.where(self.N % 7 == 0, 2.0, 1.0 / self.N)
        assert not alt_tail_check(a, LN2).ordered

    def test_wrong_limit_exceeds_the_bound(self):
        check = alt_tail_check(1.0 / self.N, LN2 + 1.0)
        assert check.ordered
        assert check.excess > 0.0

    def test_one_sequence_is_a_batch_of_one(self):
        rng = np.random.default_rng(105)
        p = rng.uniform(0.6, 3.0, (200, 1))
        a = (self.N + rng.uniform(0.0, 5.0, (200, 1))) ** -p
        a[:5, 6] = 2.0  # unordered rows too
        limit = rng.uniform(-1.0, 1.0, 200)
        batch = alt_tail_check(a, limit)
        assert not batch.ordered[:5].any() and batch.ordered[5:].all()
        for i in range(200):
            one = alt_tail_check(a[i], float(limit[i]))
            assert (batch.ordered[i], batch.excess[i]) == (one.ordered, one.excess), i


class TestSuites:
    def test_all_suites_pass_small(self):
        for result in run_all_suites(cases=500, seed=11):
            assert result.passed, result

    def test_prop1_holds_at_1e5_cases(self):
        result = run_prop1_suite(cases=100_000, seed=11)
        assert result.passed
        assert result.worst_violation <= 1e-9 * (1.0 + 2e3)

    @pytest.mark.parametrize("suite", [run_prop1_suite, run_prop2_suite, run_prop3_suite,
                                       run_prop4_suite, run_prop5_suite])
    def test_case_count_and_seed_are_refused(self, suite):
        with pytest.raises(DomainError, match="^cases must be >= 1, got 0$"):
            suite(0)
        with pytest.raises(DomainError, match="^seed must be >= 0, got -1$"):
            suite(10, -1)

    def test_prop4_worst_at_a_partial_block(self):
        # 1000 = 62 * 16 + 8 cases: the last block of rows is a partial one
        assert run_prop4_suite(1000, 9).worst_violation == 9.241580516475127e-16

    def test_suites_are_seed_deterministic(self):
        a = run_prop4_suite(cases=200, seed=5)
        b = run_prop4_suite(cases=200, seed=5)
        assert a == b

    @pytest.mark.parametrize("seed, rows", [
        (0, [
            ("prop1", 0, 0.0, 0),
            ("prop2", 0, 0.0, 1),
            ("prop3", 0, 0.0, 2),
            ("prop4", 0, 8.474510450695459e-16, 3),
            ("prop5", 0, 2.759903213832022e-16, 4),
        ]),
        (20260810, [
            ("prop1", 0, 0.0, 20260810),
            ("prop2", 0, 0.0, 20260811),
            ("prop3", 0, 0.0, 20260812),
            ("prop4", 0, 8.957048871947604e-16, 20260813),
            ("prop5", 0, 2.2204457832282876e-16, 20260814),
        ]),
    ])
    def test_pinned_rows(self, seed, rows):
        # exact campaign results: a reordered draw or sum moves these bytes
        assert run_all_suites(2000, seed) == [
            PropSuiteResult(name, 2000, failures, worst, suite_seed)
            for name, failures, worst, suite_seed in rows
        ]

    def test_pinned_rows_of_the_props_benchmark(self):
        # the campaign `props --cases 10000 --seed 1` runs
        assert run_all_suites(10_000, 1) == [
            PropSuiteResult("prop1", 10_000, 0, 0.0, 1),
            PropSuiteResult("prop2", 10_000, 0, 0.0, 2),
            PropSuiteResult("prop3", 10_000, 0, 0.0, 3),
            PropSuiteResult("prop4", 10_000, 0, 1.0295875648765404e-15, 4),
            PropSuiteResult("prop5", 10_000, 0, 4.440156363217627e-16, 5),
        ]


class TestCampaignBlocks:
    """prop2 and prop5 check their cases in blocks of CASE_BLOCK_VALUES values
    per array: the results do not depend on the block size, and the memory
    beyond the seeded draws does not grow with the case count."""

    @pytest.mark.parametrize("block_values", [1 << 10, 1 << 17])
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch, block_values):
        expected = [run_prop2_suite(3000, 7), run_prop5_suite(3000, 8)]
        monkeypatch.setattr(propositions_mod, "CASE_BLOCK_VALUES", block_values)
        assert [run_prop2_suite(3000, 7), run_prop5_suite(3000, 8)] == expected

    @pytest.mark.parametrize("suite", [run_prop2_suite, run_prop5_suite])
    def test_peak_beyond_the_draws_is_bounded(self, suite):
        suite(100)  # load the generator and fill the weight caches untraced
        tracemalloc.start()
        try:
            suite(10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each campaign holds four 8-byte draws per case while its blocks run;
        # blocks of 512 cases took 1.1 MB (prop5) and 5.1 MB (prop2) beyond them
        assert peak - 4 * 8 * 10_000 < 768 << 10
