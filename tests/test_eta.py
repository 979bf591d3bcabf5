import math
import random
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from etafloor.eta import (
    MAX_ACCEL_STAGES,
    ComplexPoint,
    EvalResult,
    _log_abs_gamma,
    _log_range,
    _magnitudes,
    _phases,
    _power_row,
    _powers,
    accel_stages_for,
    as_point,
    conversion_factor,
    crvz_reference_sum,
    eta_accel,
    eta_conjugate,
    eta_euler,
    eta_eval,
    eta_line,
    eta_lines,
    eta_partial_sum,
    factor_zero,
    partial_sum_bracket,
    zeta_from_eta,
)
from etafloor.exceptions import (
    CrossCheckError,
    DomainError,
    IllConditionedError,
    NonConvergenceError,
    SingularityError,
)

from conftest import eta_brute_bracket, zeta_brute

LN2 = math.log(2.0)

# frozen oracle values (brute-force bracket midpoints, see conftest helpers)
ETA_2 = 0.822467033424113
ETA_3 = 0.9015426773696956
ZETA_2 = 1.6449340668482264  # pi^2/6, confirmed by zeta_brute to 1e-10
ZETA_3 = 1.202056903159594


class TestPartialSum:
    def test_single_term(self):
        assert eta_partial_sum(ComplexPoint(1.0, 0.0), 1) == 1.0 + 0.0j

    def test_eta1_limit(self):
        # alternating harmonic series: converges to ln 2, remainder <= 1/(N+1)
        val = eta_partial_sum(1.0, 1_000_001).real
        assert abs(val - LN2) < 1.1 / 1_000_002

    def test_eta2_brute(self):
        val = eta_partial_sum(2.0, 1_000_000).real
        assert val == pytest.approx(ETA_2, abs=2e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            eta_partial_sum(ComplexPoint(-0.5, 0.0), 10)
        with pytest.raises(DomainError):
            eta_partial_sum(ComplexPoint(0.0, 3.0), 10)
        with pytest.raises(DomainError):
            eta_partial_sum(1.0, 0)

    def test_second_chunk_continues_the_sign_parity(self):
        # terms past 2**20 are summed in a second chunk; its signs must go on
        # from the first chunk's: (-1)^(n+1), positive at odd n
        s = 0.5 + 3.0j
        head = eta_partial_sum(s, 2**20)
        direct = sum((-1) ** (n + 1) * n ** (-s) for n in range(2**20 + 1, 2**20 + 6))
        assert abs(eta_partial_sum(s, 2**20 + 5) - (head + direct)) <= 1e-15

    @pytest.mark.parametrize("s, n_terms, bits", [
        (1.5 + 7.5j, 2**20 + 3, ("0x1.bc2a27f1daa3dp-1", "-0x1.11a71d03efc1cp-1")),
        (2.5, 4097, ("0x1.bc019fb8ccf82p-1", "0x0.0p+0")),
        (0.3 - 300.25j, 10_000, ("-0x1.545f8b3a3509cp+1", "-0x1.11cd7b44449f6p+1")),
    ])
    def test_pinned_bits(self, s, n_terms, bits):
        value = eta_partial_sum(s, n_terms)
        assert (value.real.hex(), value.imag.hex()) == bits

    @pytest.mark.parametrize("alpha, tol, bits, terms", [
        (1.0, 1e-6, ("0x1.62e42fefa37bfp-1", "0x1.0c6f5fb000000p-22"), 2_000_002),
        (2.5, 1e-9, ("0x1.bc019fb4cdc66p-1", "0x1.125cf40000000p-32"), 5256),
        (3.0, 1e-15, ("0x1.cd97007680932p-1", "0x1.a000000000000p-51"), 125_994),
    ])
    def test_certified_partial_pinned_bits(self, alpha, tol, bits, terms):
        res = eta_eval(alpha, tol, "partial")
        assert (res.value.real.hex(), res.abs_error_estimate.hex()) == bits
        assert res.value.imag == 0.0 and res.terms_used == terms

    def test_certified_partial_refuses_when_the_estimate_misses_tol(self):
        # about 171 k terms are under the term cap, but roundoff keeps the
        # bracket's estimate above tol
        error = eta_line(3.0, [0.0], 4e-16, "partial")[0]
        assert isinstance(error, NonConvergenceError)
        assert str(error) == ("partial summation cannot certify tol=4e-16 at alpha=3.0 "
                              "within 20000000 terms")

    def test_bracket_contains_limit(self):
        for alpha in (0.5, 1.0, 2.0):
            lo, hi = partial_sum_bracket(alpha, 10_000)
            mid = eta_eval(alpha, 1e-12).value.real
            assert lo - 1e-12 <= mid <= hi + 1e-12

    @given(st.integers(min_value=1, max_value=40))
    def test_even_odd_bracketing(self, m):
        # S^{2m} <= eta(alpha) <= S^{2m+1} for real alpha
        alpha = 0.7
        lo, hi = eta_brute_bracket(alpha, 2 * m + 1)
        limit = eta_eval(alpha, 1e-12).value.real
        assert lo - 1e-12 <= limit <= hi + 1e-12


class TestEulerEngine:
    def test_eta1(self):
        res = eta_euler(1.0, 1e-12)
        assert abs(res.value - LN2) <= 1e-12
        assert res.abs_error_estimate <= 1e-12
        assert res.terms_used <= 64

    def test_matches_partial_sum_at_3(self):
        res = eta_euler(3.0, 1e-12)
        brute = eta_partial_sum(3.0, 100_000).real
        assert abs(res.value.real - brute) <= res.abs_error_estimate + 1e-15

    def test_first_zero_agrees_with_accel(self):
        s = ComplexPoint(0.5, 14.134725)
        r1 = eta_euler(s, 1e-10)
        r2 = eta_accel(s, accel_stages_for(s, 1e-10))
        assert abs(r1.value - r2.value) <= 1e-9

    def test_unreachable_tolerance(self):
        with pytest.raises(NonConvergenceError):
            eta_euler(ComplexPoint(0.5, 1000.0), 1e-18)


class TestAccelEngine:
    def test_eta1_30_stages(self):
        res = eta_accel(1.0, 30)
        assert abs(res.value - LN2) <= 1e-12
        assert res.terms_used == 30

    def test_stage_cap(self):
        with pytest.raises(NonConvergenceError) as info:
            eta_accel(0.5 + 1j, MAX_ACCEL_STAGES + 1)
        assert str(info.value) == "n_stages 4097 exceeds cap 4096"

    def test_real_half(self):
        r1 = eta_accel(0.5, 40)
        r2 = eta_euler(0.5, 1e-12)
        assert abs(r1.value - r2.value) <= 1e-10
        assert abs(r1.value.imag) == 0.0

    def test_off_axis_agrees_with_euler(self):
        s = ComplexPoint(0.75, 50.0)
        r1 = eta_accel(s, 60)
        r2 = eta_euler(s, 1e-10)
        assert abs(r1.value - r2.value) <= 1e-9

    def test_error_model_decays_geometrically(self):
        # truncation-dominated regime; at large n the roundoff floor takes over
        e6 = eta_accel(1.0, 6).abs_error_estimate
        e14 = eta_accel(1.0, 14).abs_error_estimate
        assert e14 < e6 * (3 + math.sqrt(8)) ** -6

    def test_reference_sum_geometric(self):
        # sum (-1)^k q^(k+1) = q/(1+q), totally monotone terms
        q = 0.7
        terms = q ** np.arange(1.0, 49.0)
        assert crvz_reference_sum(terms) == pytest.approx(q / (1 + q), abs=1e-14)


def _gamma_oracle_points(count=1200, seed=20240601):
    """Seeded (s, ln|Gamma(s)| at 30 digits, ln Gamma(alpha) at 30 digits)."""
    rng = random.Random(seed)
    points = []
    with mpmath.workdps(30):
        for i in range(count):
            alpha = rng.uniform(0.02, 3.0)
            # a tenth on the real axis and a tenth below beta = 17, where the helper shifts
            if i % 10 == 0:
                beta = 0.0
            else:
                beta = rng.uniform(0.0, 17.0 if i % 10 == 5 else 5000.0)
            ref = mpmath.re(mpmath.loggamma(mpmath.mpc(alpha, beta)))
            points.append((complex(alpha, beta), ref, mpmath.loggamma(alpha)))
    return points


class TestLogAbsGamma:
    @pytest.fixture(scope="class")
    def oracle(self):
        return _gamma_oracle_points()

    def test_matches_mpmath(self, oracle):
        for s, ref, _ in oracle:
            ref = float(ref)
            assert abs(_log_abs_gamma(s) - ref) <= 1e-13 * max(1.0, abs(ref)), s

    def test_stage_count_matches_mpmath_formula(self, oracle):
        ln_delta = mpmath.log(3 + mpmath.sqrt(8))
        checked = 0
        with mpmath.workdps(30):
            for i, (s, ref, lgamma_alpha) in enumerate(oracle):
                tol = (1e-8, 1e-9, 1e-10, 1e-12)[i % 4]
                arg = (lgamma_alpha - ref + mpmath.log(2 / mpmath.mpf(tol))) / ln_delta
                if abs(arg - mpmath.nint(arg)) < 1e-9:
                    continue
                n = int(mpmath.ceil(arg)) + 4
                assert accel_stages_for(s, tol) == ((max(n, 8) + 31) // 32) * 32, (s, tol)
                checked += 1
        assert checked >= 1000


class TestEtaEval:
    def test_checked_eta1(self):
        res = eta_eval(1.0, 1e-12)
        assert abs(res.value - LN2) <= 1e-12
        assert res.method in ("euler", "accel")

    def test_checked_eta2(self):
        res = eta_eval(2.0, 1e-12)
        assert res.value.real == pytest.approx(ETA_2, abs=1e-11)

    def test_engine_dispatch(self):
        for engine in ("euler", "accel", "partial", "checked"):
            res = eta_eval(1.5, 1e-9, engine)
            assert abs(res.value.real - eta_eval(1.5, 1e-12).value.real) <= 2e-9
        with pytest.raises(DomainError):
            eta_eval(1.5, 1e-9, "nonsense")

    @pytest.mark.parametrize("s", [complex(math.inf, 0.0), complex(1.0, math.inf)])
    def test_non_finite_point_is_a_domain_error(self, s):
        with pytest.raises(DomainError):
            eta_eval(s, 1e-9)

    @pytest.mark.parametrize("call, message", [
        (lambda: accel_stages_for(math.inf, 1e-9),
         "alpha and beta must be finite, got alpha=inf, beta=0.0"),
        (lambda: accel_stages_for(1.0, math.inf),
         "alpha and tol must be finite, got alpha=1.0, tol=inf"),
        (lambda: eta_accel(math.inf, 32), "alpha and beta must be finite, got alpha=inf, beta=0.0"),
        (lambda: eta_partial_sum(math.inf, 10),
         "alpha and beta must be finite, got alpha=inf, beta=0.0"),
        (lambda: eta_partial_sum(complex(1.0, math.inf), 10),
         "alpha and beta must be finite, got alpha=1.0, beta=inf"),
        (lambda: partial_sum_bracket(math.inf, 10),
         "alpha and beta must be finite, got alpha=inf, beta=0.0"),
        (lambda: zeta_from_eta(complex(2.0, -math.inf), 1e-9),
         "alpha and beta must be finite, got alpha=2.0, beta=-inf"),
    ])
    def test_non_finite_number_is_refused_before_any_arithmetic(self, call, message):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message

    def test_partial_engine_off_axis_refuses(self):
        with pytest.raises(NonConvergenceError):
            eta_eval(ComplexPoint(2.0, 1.0), 1e-6, "partial")

    def test_estimate_respects_tol(self):
        res = eta_eval(ComplexPoint(0.6, 30.0), 1e-10)
        assert res.abs_error_estimate <= 1e-10

    @given(
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_conjugate_symmetry(self, alpha, beta):
        r1 = eta_eval(ComplexPoint(alpha, beta), 1e-9)
        r2 = eta_eval(ComplexPoint(alpha, -beta), 1e-9)
        budget = 2 * (r1.abs_error_estimate + r2.abs_error_estimate)
        assert abs(r1.value.conjugate() - r2.value) <= budget

    @given(
        st.floats(min_value=0.3, max_value=2.0),
        st.floats(min_value=-100.0, max_value=100.0),
    )
    def test_engine_agreement(self, alpha, beta):
        s = ComplexPoint(alpha, beta)
        r1 = eta_euler(s, 1e-9)
        r2 = eta_accel(s, accel_stages_for(s, 1e-9))
        assert abs(r1.value - r2.value) <= (
            r1.abs_error_estimate + r2.abs_error_estimate
        )

    def test_cross_check_detects_corruption(self, monkeypatch):
        import etafloor.eta as eta_mod

        real_rows = eta_mod._chebyshev_rows

        def corrupted(*args):
            return [(value + 1e-3, est) for value, est in real_rows(*args)]

        monkeypatch.setattr(eta_mod, "_chebyshev_rows", corrupted)
        with pytest.raises(CrossCheckError):
            eta_mod.eta_eval(1.0, 1e-12)


PINS = Path(__file__).resolve().parent / "golden" / "eta_eval_pins.tsv"


class TestPinnedOutcomes:
    """eta_eval's exact bits (value, estimate, method, terms) or its exact
    error at 60 points per engine and tol (fixture: tests/golden/generate.py)."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("engine", ["euler", "accel", "checked"])
    def test_matches_pins(self, engine, tol):
        rows = [line.split("\t") for line in PINS.read_text(encoding="utf-8").splitlines()]
        rows = [row for row in rows if row[2] == engine and float(row[3]) == tol]
        assert len(rows) == 60
        for alpha, beta, _, _, kind, *expected in rows:
            s = ComplexPoint(float(alpha), float(beta))
            if kind == "error":
                with pytest.raises(Exception) as info:
                    eta_eval(s, tol, engine)
                assert [type(info.value).__name__, str(info.value)] == expected, s
                continue
            res = eta_eval(s, tol, engine)
            got = [res.value.real.hex(), res.value.imag.hex(), res.abs_error_estimate.hex(),
                   res.method, str(res.terms_used)]
            assert got == expected, s


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # compared by type and message
        return (type(exc).__name__, str(exc))


class TestEtaLine:
    """eta_line over a block equals one-point calls, bit for bit."""

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    @pytest.mark.parametrize("engine", ["euler", "accel", "checked"])
    @pytest.mark.parametrize("alpha, betas", [
        # rows of many Euler (head, m) and Chebyshev n groups and sub-block widths
        (0.75, [-40.0 + 2.37 * k for k in range(128)]),
        # Euler's retry ladder and its failures next to certified points
        (0.05, [880.0 + 0.5 * k for k in range(64)]),
        # the Chebyshev stage cap
        (0.75, [4570.0 + 1.5 * k for k in range(24)]),
    ])
    def test_block_equals_one_point_calls(self, alpha, betas, engine, tol):
        line = [res if not isinstance(res, Exception) else (type(res).__name__, str(res))
                for res in eta_line(alpha, betas, tol, engine)]
        single = [_outcome(lambda: eta_eval(ComplexPoint(alpha, beta), tol, engine))
                  for beta in betas]
        assert line == single

    def test_more_points_than_one_block(self):
        betas = [0.013 * k for k in range(300)]
        assert eta_line(0.6, betas, 1e-9) == [eta_eval(ComplexPoint(0.6, b), 1e-9) for b in betas]

    def test_partial_engine_point_by_point(self):
        line = eta_line(2.0, [0.0, 1.0], 1e-6, "partial")
        assert line[0] == eta_eval(2.0, 1e-6, "partial")
        assert isinstance(line[1], NonConvergenceError)

    def test_non_finite_beta_fails_at_its_point_only(self):
        def outcomes(line):
            return [(type(res).__name__, str(res)) if isinstance(res, Exception) else res
                    for res in line]

        for engine in ("partial", "euler", "accel", "checked"):
            line = outcomes(eta_line(1.5, [0.0, math.inf, 2.0, -math.nan], 1e-9, engine))
            assert line[0::2] == outcomes(eta_line(1.5, [0.0, 2.0], 1e-9, engine))
            assert line[1::2] == [("DomainError", "beta=inf is not finite"),
                                  ("DomainError", "beta=nan is not finite")]

    def test_partial_engine_failure_is_a_value_between_results(self):
        first, error, last = eta_line(2.0, [0.0, 1.0, 0.0], 1e-12, "partial")
        assert isinstance(first, EvalResult) and last == first
        assert isinstance(error, NonConvergenceError)
        assert str(error) == "partial engine certifies a tolerance only on the real axis (beta = 0)"
        assert error.__traceback__ is None

    @pytest.mark.parametrize("alpha, tol, engine", [(0.0, 1e-9, "checked"),
                                                     (0.5, 0.0, "checked"),
                                                     (0.5, 1e-9, "bogus")])
    def test_domain_error_at_every_point(self, alpha, tol, engine):
        line = eta_line(alpha, [1.0, 2.0], tol, engine)
        assert [type(res) for res in line] == [DomainError, DomainError]
        with pytest.raises(DomainError) as info:
            eta_eval(ComplexPoint(alpha, 1.0), tol, engine)
        assert str(info.value) == str(line[0]) == str(line[1])


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.uint64)


class TestPowerBuilder:
    """n^(-s) as magnitude times phase has every bit of exp(-s ln n), the
    complex exp the engines were defined with (glibc's cexp computes
    exp(x) cos y + i exp(x) sin y).  A numpy whose float64 cos or sin is not
    the libm routine fails here instead of moving report bytes."""

    ALPHAS = (0.02, 0.5, 0.75, 3.0)
    BETAS = (0.0, -0.0, 14.134725, -14.134725, 2000.5, 7005.0629)

    @staticmethod
    def _reference(alpha, betas, lnn):
        s = np.array([complex(alpha, beta) for beta in betas])
        return np.exp(np.multiply.outer(-s, lnn))

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_rows_match_complex_exp_bit_for_bit(self, alpha):
        lnn = _log_range(4096)
        for beta in self.BETAS:
            assert (_bits(_power_row(alpha, beta, lnn)) ==
                    _bits(self._reference(alpha, [beta], lnn))).all(), beta

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_shared_phases_match_complex_exp_bit_for_bit(self, alpha):
        # one phase matrix for every row, read over fewer columns than it has
        lnn = _log_range(4096)
        phases = _phases(self.BETAS, lnn)
        got = _powers(_magnitudes(alpha, lnn), (phases[0][:, :3000], phases[1][:, :3000]))
        assert got.shape == (len(self.BETAS), 3000)
        assert (_bits(got) == _bits(self._reference(alpha, self.BETAS, lnn[:3000]))).all()

    @pytest.mark.parametrize("s, n_terms", [(2.0, 1000), (complex(0.5, 14.134725), 4096),
                                            (complex(0.75, -300.0), 5000)])
    def test_partial_sum_keeps_its_bits(self, s, n_terms):
        lnn = np.log(np.arange(1, n_terms + 1, dtype=np.float64))
        signs = np.ones(n_terms)
        signs[1::2] = -1.0
        expected = complex(np.sum(signs * np.exp(-complex(s) * lnn)))
        assert eta_partial_sum(s, n_terms) == expected


def _outcomes(results: list) -> list:
    return [(type(res).__name__, str(res)) if isinstance(res, Exception) else res
            for res in results]


class TestEtaLines:
    """Several lines evaluated together equal one eta_line call per line."""

    @pytest.mark.parametrize("engine", ["partial", "euler", "accel", "checked"])
    @pytest.mark.parametrize("alphas, betas", [
        # many Euler (head, m) and Chebyshev n runs; lines need different widths
        ((0.05, 0.55, 0.75, 1.5, 3.0), [-40.0 + 2.37 * k for k in range(140)]),
        # one row per sub-block near beta 2000
        ((0.55, 0.65, 0.75, 0.85, 0.95), [1995.0 + 0.01 * k for k in range(6)]),
        # a line where most points fail, beside lines that certify
        ((0.05, 0.6, 0.9), [990.0 + 0.5 * k for k in range(30)]),
        # the real axis, where the partial engine certifies
        ((0.5, 2.0), [0.0, 0.25]),
    ], ids=["low", "high", "failing", "real-axis"])
    def test_equal_one_line_at_a_time(self, alphas, betas, engine):
        got = eta_lines(alphas, betas, 1e-9, engine)
        assert len(got) == len(alphas)
        assert ([_outcomes(line) for line in got] ==
                [_outcomes(eta_line(alpha, betas, 1e-9, engine)) for alpha in alphas])

    def test_failing_line_mostly_fails(self):
        line = eta_lines((0.05, 0.6), [990.0 + 0.5 * k for k in range(30)], 1e-9)[0]
        failed = [res for res in line if isinstance(res, NonConvergenceError)]
        assert len(failed) > len(line) // 2

    def test_domain_error_lines_beside_valid_ones(self):
        lines = eta_lines((0.0, 0.7), [1.0, 2.0], 1e-9)
        assert [type(res) for res in lines[0]] == [DomainError, DomainError]
        assert lines[1] == eta_line(0.7, [1.0, 2.0], 1e-9)

    def test_no_lines_and_no_points(self):
        assert eta_lines((), [1.0], 1e-9) == []
        assert eta_lines((0.5, 0.6), [], 1e-9) == [[], []]


class TestConjugate:
    def test_real_point_identity(self):
        assert eta_conjugate(1.0, 1e-12) == pytest.approx(LN2, abs=1e-12)

    def test_matches_conj_of_eval(self):
        s = ComplexPoint(0.5, 10.0)
        tol = 1e-10
        assert abs(eta_conjugate(s, tol) - eta_eval(s, tol).value.conjugate()) <= 2 * tol

    def test_modulus_invariance(self):
        s = ComplexPoint(0.6, 30.0)
        assert abs(eta_conjugate(s, 1e-10)) == pytest.approx(
            abs(eta_eval(s, 1e-10).value), abs=1e-9
        )


class TestConversionFactor:
    def test_at_one(self):
        assert conversion_factor(1.0) == 0.0

    def test_at_zero(self):
        assert conversion_factor(0.0) == pytest.approx(-1.0, abs=1e-15)

    def test_factor_zeros(self):
        for k in (-3, -2, -1, 1, 2, 3):
            assert abs(conversion_factor(factor_zero(k))) < 1e-12

    def test_factor_zero_values(self):
        z1 = factor_zero(1)
        assert z1.alpha == 1.0
        assert z1.beta == pytest.approx(9.06472, abs=1e-5)
        assert factor_zero(-1) == z1.conjugate()
        assert factor_zero(2).beta == pytest.approx(2 * z1.beta, rel=1e-15)
        with pytest.raises(DomainError):
            factor_zero(0)


class TestZetaFromEta:
    def test_zeta2(self):
        res = zeta_from_eta(2.0, 1e-12)
        value, half_width = zeta_brute(2.0)
        assert res.value.real == pytest.approx(value, abs=half_width + 1e-10)
        assert res.value.real == pytest.approx(ZETA_2, abs=1e-10)

    def test_zeta3(self):
        res = zeta_from_eta(3.0, 1e-12)
        assert res.value.real == pytest.approx(ZETA_3, abs=1e-10)

    def test_conversion_identity_at_2(self):
        # eta(2) = (1 - 2^(-1)) zeta(2)
        eta2 = eta_eval(2.0, 1e-12).value.real
        assert eta2 == pytest.approx((1 - 0.5) * ZETA_2, abs=1e-10)

    def test_ill_conditioned_near_factor_zero(self):
        with pytest.raises(IllConditionedError):
            zeta_from_eta(factor_zero(1), 1e-9)

    def test_singularity_near_one(self):
        with pytest.raises(SingularityError):
            zeta_from_eta(ComplexPoint(1.0 + 1e-9, 0.0), 1e-9)


class TestAsPoint:
    def test_coercions(self):
        assert as_point(2) == ComplexPoint(2.0, 0.0)
        assert as_point(0.5 + 3j) == ComplexPoint(0.5, 3.0)
        p = ComplexPoint(1.0, -2.0)
        assert as_point(p) is p
        assert p.to_complex() == 1.0 - 2.0j
        with pytest.raises(DomainError):
            as_point("1+2i")
