import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinlab import exactnum as ex

from oracles import brute_hyp_moment, brute_hyp_pmf, pascal_binomial, product_falling


class TestBinomial:
    def test_identity_cases(self):
        assert ex.binomial(5, 0) == 1
        assert ex.binomial(3, 5) == 0
        assert ex.binomial(6, 2) == 15

    @given(st.integers(0, 40), st.integers(0, 45))
    @settings(max_examples=200)
    def test_matches_pascal_recurrence(self, n, k):
        assert ex.binomial(n, k) == pascal_binomial(n, k)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ex.binomial(-1, 0)


class TestFallingFactorial:
    def test_examples(self):
        assert ex.falling_factorial(4, 0) == 1
        assert ex.falling_factorial(4, 2) == 12
        assert ex.falling_factorial(2, 3) == 0

    @given(st.integers(0, 30), st.integers(0, 35))
    @settings(max_examples=200)
    def test_matches_direct_product(self, n, k):
        expected = product_falling(n, k)
        assert ex.falling_factorial(n, k) == max(expected, 0)


class TestHypPmf:
    def test_single_draw_enumeration(self):
        p = ex.HypergeometricParams(3, 1, 2)
        assert ex.hyp_pmf(p, 1) == Fraction(2, 3)
        assert ex.hyp_pmf(p, 0) == Fraction(1, 3)

    def test_support_bound(self):
        p = ex.HypergeometricParams(10, 4, 3)
        assert ex.hyp_pmf(p, 4) == 0
        assert ex.hyp_pmf(p, -1) == 0

    def test_matches_brute_enumeration(self):
        for N, m, n in [(3, 1, 2), (6, 2, 3), (7, 3, 4), (8, 4, 2)]:
            params = ex.HypergeometricParams(N, m, n)
            for k in range(m + 2):
                assert ex.hyp_pmf(params, k) == brute_hyp_pmf(N, m, n, k)

    def test_normalization_and_symmetry(self):
        for N in range(1, 25):
            for m in range(0, N + 1, 3):
                for n in range(0, N + 1, 3):
                    params = ex.HypergeometricParams(N, m, n)
                    pmf = ex.hyp_pmf_vector(params)
                    assert sum(pmf.values()) == 1
                    assert pmf == {k: ex.hyp_pmf(params, k) for k in params.support()}
                    flipped = ex.HypergeometricParams(N, n, m)
                    for k in range(min(m, n) + 1):
                        assert ex.hyp_pmf(params, k) == ex.hyp_pmf(flipped, k)

    def test_vector_matches_brute_enumeration(self):
        for N in range(9):
            for m in range(N + 1):
                for n in range(N + 1):
                    params = ex.HypergeometricParams(N, m, n)
                    expected = {k: brute_hyp_pmf(N, m, n, k) for k in params.support()}
                    assert ex.hyp_pmf_vector(params) == expected

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ex.HypergeometricParams(3, 4, 1)
        with pytest.raises(ValueError):
            ex.HypergeometricParams(3, 1, 4)


class TestHypMoment:
    def test_mean_is_nm_over_N(self):
        assert ex.hyp_moment(ex.HypergeometricParams(3, 1, 2), 1) == Fraction(2, 3)
        for N, m, n in [(10, 3, 4), (12, 5, 7), (9, 9, 2)]:
            params = ex.HypergeometricParams(N, m, n)
            assert ex.hyp_moment(params, 1) == Fraction(n * m, N)

    def test_no_special_balls(self):
        assert ex.hyp_moment(ex.HypergeometricParams(8, 3, 0), 4) == 0

    def test_second_moment_against_enumeration(self):
        assert ex.hyp_moment(ex.HypergeometricParams(6, 2, 3), 2) == brute_hyp_moment(6, 2, 3, 2)
        assert ex.hyp_moment(ex.HypergeometricParams(7, 3, 3), 3) == brute_hyp_moment(7, 3, 3, 3)


class TestHypZeroProb:
    def test_matches_pmf_everywhere(self):
        for N in range(1, 30):
            for m in range(0, N + 1, 2):
                for n in range(0, N + 1, 2):
                    params = ex.HypergeometricParams(N, m, n)
                    assert ex.hyp_zero_prob(params) == ex.hyp_pmf(params, 0)

    def test_matches_explicit_product(self):
        for N, m, n in [(3, 1, 2), (6, 2, 5), (9, 4, 3), (9, 5, 5)]:
            params = ex.HypergeometricParams(N, m, n)
            prod = Fraction(1)
            for i in range(m):
                prod *= 1 - Fraction(n, N - i)
                if prod == 0:
                    break
            assert ex.hyp_zero_prob(params) == prod

    def test_examples(self):
        assert ex.hyp_zero_prob(ex.HypergeometricParams(3, 1, 2)) == Fraction(1, 3)
        assert ex.hyp_zero_prob(ex.HypergeometricParams(8, 0, 5)) == 1
        assert ex.hyp_zero_prob(ex.HypergeometricParams(6, 2, 5)) == 0


class TestTailBound:
    def test_small_case_holds(self):
        assert ex.check_tail_bound(ex.HypergeometricParams(3, 1, 2), 1.0)["holds"]

    def test_empty_tail(self):
        rep = ex.check_tail_bound(ex.HypergeometricParams(10, 2, 3), 5.0)
        assert rep["lhs"] == 0.0 and rep["holds"]

    def test_grid(self):
        for N in range(10, 61, 10):
            for m in range(1, N // 2 + 1, 4):
                for n in range(1, N // 2 + 1, 4):
                    params = ex.HypergeometricParams(N, m, n)
                    for t in (0.5, 1.0, 2.0, 4.0):
                        assert ex.check_tail_bound(params, t)["holds"]

    def test_t_must_be_positive(self):
        with pytest.raises(ValueError):
            ex.check_tail_bound(ex.HypergeometricParams(3, 1, 2), 0.0)

    @pytest.mark.parametrize("t", [math.inf, float("1e400"), math.nan], ids=["inf", "1e400", "nan"])
    def test_t_must_be_finite(self, t):
        with pytest.raises(ValueError, match="t must lie in"):
            ex.check_tail_bound(ex.HypergeometricParams(20, 5, 6), t)


class TestMomentBound:
    def test_examples(self):
        rep = ex.check_moment_bound(ex.HypergeometricParams(3, 1, 2), 1)
        assert rep["lhs"] == pytest.approx(2 / 3) and rep["holds"]
        rep = ex.check_moment_bound(ex.HypergeometricParams(9, 4, 0), 3)
        assert rep["lhs"] == 0.0 and rep["holds"]
        assert ex.check_moment_bound(ex.HypergeometricParams(20, 5, 6), 3)["holds"]

    def test_grid(self):
        for N in range(5, 41, 5):
            for m in range(1, N + 1, 3):
                for n in range(1, N + 1, 3):
                    params = ex.HypergeometricParams(N, m, n)
                    for k in (1, 2, 3, 4):
                        assert ex.check_moment_bound(params, k)["holds"]


class TestZeroProbSandwich:
    def test_hand_case(self):
        rep = ex.check_zero_prob_sandwich(ex.HypergeometricParams(3, 1, 2))
        assert rep["p0"] == pytest.approx(1 / 3)
        assert rep["upper"] == pytest.approx(math.exp(-2 / 3))
        assert rep["lower"] == pytest.approx(math.exp(-2))
        assert rep["holds"]

    def test_no_draws_degenerate(self):
        rep = ex.check_zero_prob_sandwich(ex.HypergeometricParams(7, 0, 4))
        assert rep["p0"] == 1.0 and rep["holds"]

    def test_grid(self):
        for N in range(61):
            for m in range(N + 1):
                for n in range(N + 1):
                    params = ex.HypergeometricParams(N, m, n)
                    rep = ex.check_zero_prob_sandwich(params)
                    assert rep["holds"]
                    assert rep["p0"] == float(ex.hyp_zero_prob(params))


class TestExpRemainderEnvelope:
    def test_endpoints(self):
        rep = ex.check_exp_remainder_envelope(0.0)
        assert rep["mid"] == 0.0 and rep["holds"]
        rep = ex.check_exp_remainder_envelope(1.0)
        assert rep["mid"] == pytest.approx(1 - 2 / math.e)
        assert rep["lower"] == 0.25 and rep["upper"] == 0.5 and rep["holds"]

    def test_log_grid(self):
        for e in range(-24, 13):
            assert ex.check_exp_remainder_envelope(10.0 ** (e / 4.0))["holds"]


class TestPhi:
    def test_values(self):
        assert ex.phi(0.0) == 0.0
        assert ex.phi(1.0) == pytest.approx(math.exp(-1) * (1 - 2 * math.exp(-1)))

    def test_quadratic_origin(self):
        for x in (1e-8, 1e-6, 1e-5):
            assert ex.phi(x) / (x * x) == pytest.approx(0.5, rel=1e-4)

    def test_branches_agree_at_cutoff(self):
        x = 1e-4
        series = ex.one_minus_exp_poly(x)
        direct = 1.0 - math.exp(-x) * (1.0 + x)
        assert abs(series - direct) <= 1e-13 * max(series, 1e-300) + 1e-21

    def test_sandwich_invariant(self):
        for e in range(-24, 13):
            x = 10.0 ** (e / 4.0)
            value = ex.phi(x)
            lo = math.exp(-x) * min(x * x, 1.0) / 4
            hi = math.exp(-x) * min(x * x, 2.0) / 2
            assert lo <= value + 1e-12 and value <= hi + 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ex.phi(-1.0)
