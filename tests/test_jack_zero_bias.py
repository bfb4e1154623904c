import math
from fractions import Fraction

import numpy as np
import pytest

from steinlab import jack_model as jm
from steinlab import stein_core as sc
from steinlab.exactnum import binomial

ALPHAS = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)]
LAW_ALPHAS = [Fraction(1, 3), Fraction(1), Fraction(2), Fraction(7, 2)]


def exact_pieces_sample(n, alpha, rng):
    """One coupled draw built from the exact public pieces, on the same
    rng stream as ``zero_bias_sample``: the chain to n-1, its exact content
    sum, the exact pair table in sorted order, and an inline inverse CDF."""
    parts, _ = jm.kerov_sample(n - 1, alpha, rng)
    v = float(jm.content_sum(parts, alpha))
    scale = jm.content_scale(n, alpha)
    pair = jm.zero_bias_pair_distribution(parts, alpha)

    def inverse_cdf(weights):
        u, acc = rng.random(), 0.0
        for i, wt in enumerate(weights):
            acc += float(wt)
            if u < acc:
                return i
        return len(weights) - 1

    t = float(pair.contents[inverse_cdf(pair.corner_probs)]) / scale
    items = sorted(pair.weights.items())
    i, j = items[inverse_cdf([wt for _, wt in items])][0]
    t_dag = float(pair.contents[i]) / scale
    t_ddag = float(pair.contents[j]) / scale
    u = rng.random()
    t_star = u * t_dag + (1 - u) * t_ddag
    w = v / scale + t
    w_star = v / scale + t_star
    return {"w": w, "w_star": w_star, "d": w_star - w, "lambda1_prev": parts[0]}


class TestConditionalTMoments:
    def test_single_box(self):
        for alpha in ALPHAS:
            m1, m2 = jm.conditional_t_moments((1,), alpha, 2)
            assert m1 == 0 and m2 == 1

    def test_partitions_of_four(self):
        for parts in jm.enumerate_partitions(4):
            m1, m2 = jm.conditional_t_moments(parts, 3, 5)
            assert m1 == 0 and m2 == Fraction(2, 5)

    def test_partitions_of_seven(self):
        for parts in jm.enumerate_partitions(7):
            m1, m2 = jm.conditional_t_moments(parts, Fraction(1, 2), 8)
            assert m1 == 0 and m2 == Fraction(1, 4)

    def test_all_sizes_and_alphas(self):
        for n in range(2, 8):
            for parts in jm.enumerate_partitions(n - 1):
                for alpha in ALPHAS:
                    m1, m2 = jm.conditional_t_moments(parts, alpha, n)
                    assert m1 == 0 and m2 == Fraction(2, n)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            jm.conditional_t_moments((2, 1), 1, 3)


class TestZeroBiasPairTable:
    def test_single_box_two_cells(self):
        pair = jm.zero_bias_pair_distribution((1,), 2)
        assert set(pair.weights) == {(0, 1), (1, 0)}
        assert all(w == Fraction(1, 2) for w in pair.weights.values())

    def test_normalizer_is_4_over_n(self):
        for size in range(1, 8):
            n = size + 1
            for parts in jm.enumerate_partitions(size):
                pair = jm.zero_bias_pair_distribution(parts, Fraction(3, 2))
                assert pair.normalizer == Fraction(4, n)
                assert sum(pair.weights.values()) == 1

    def test_diagonal_weights_zero(self):
        pair = jm.zero_bias_pair_distribution((3, 1), 2)
        assert all(i != j for i, j in pair.weights)

    def test_float_weights_match_exact(self):
        for size in range(1, 11):
            for parts in jm.enumerate_partitions(size):
                runs = jm._parts_to_runs(parts)
                for alpha in LAW_ALPHAS:
                    exact = jm.zero_bias_pair_distribution(parts, alpha).weights
                    raw = jm._pair_weights(*jm._corner_law(runs, float(alpha)))
                    total = math.fsum(raw.values())
                    assert list(raw) == sorted(exact)
                    for ij, wt in raw.items():
                        assert abs(wt / total - float(exact[ij])) <= 1e-13


class TestZeroBiasSample:
    def test_n2_uniform_between_atoms(self):
        # V = 0 and the pair is the two candidate contents, so W* is uniform
        alpha = Fraction(2)
        rng = np.random.default_rng(8)
        reps = 100_000
        lo, hi = -1 / math.sqrt(2.0), math.sqrt(2.0)
        draws = np.array([jm.zero_bias_sample(2, alpha, rng)["w_star"] for _ in range(reps)])
        assert draws.min() >= lo - 1e-12 and draws.max() <= hi + 1e-12
        u = (np.sort(draws) - lo) / (hi - lo)
        ks = np.max(np.abs(u - (np.arange(1, reps + 1)) / reps))
        assert ks <= math.sqrt(math.log(2 / 0.001) / (2 * reps))

    def test_first_moment_identity_mc(self):
        # E W* = E W^3 / 2, with the third moment from exact enumeration
        n, alpha = 4, Fraction(2)
        scale3 = float(alpha * binomial(n, 2)) ** 1.5
        ew3 = (
            float(
                sum(
                    jm.jack_probability(p, alpha) * jm.content_sum(p, alpha) ** 3
                    for p in jm.enumerate_partitions(n)
                )
            )
            / scale3
        )
        rng = np.random.default_rng(12)
        reps = 20_000
        draws = np.array([jm.zero_bias_sample(n, alpha, rng)["w_star"] for _ in range(reps)])
        assert abs(draws.mean() - ew3 / 2) <= 4 * draws.std(ddof=1) / math.sqrt(reps)

    @pytest.mark.parametrize("n, alpha", [(2, 2), (5, 2), (16, 64), (50, 1)])
    def test_matches_exact_pieces(self, n, alpha):
        for seed in range(5):
            rng_float, rng_exact = np.random.default_rng(seed), np.random.default_rng(seed)
            got = jm.zero_bias_sample(n, Fraction(alpha), rng_float)
            assert got == exact_pieces_sample(n, Fraction(alpha), rng_exact)
            assert rng_float.random() == rng_exact.random()

    def test_no_exact_work_per_draw(self, monkeypatch):
        def exact_work(*args, **kwargs):
            raise AssertionError("exact work inside the sampler")

        for name in ("kerov_transition_probs", "zero_bias_pair_distribution", "content_sum",
                     "kerov_sample"):
            monkeypatch.setattr(jm, name, exact_work)
        s = jm.zero_bias_sample(50, Fraction(1), np.random.default_rng(0))
        assert set(s) == {"w", "w_star", "d", "lambda1_prev"}

    def test_determinism(self):
        s1 = jm.zero_bias_sample(6, Fraction(3, 2), np.random.default_rng(21))
        s2 = jm.zero_bias_sample(6, Fraction(3, 2), np.random.default_rng(21))
        assert s1 == s2

    def test_coupled_w_marginal_moments(self):
        # the W component of the coupling carries the content law at n
        rng = np.random.default_rng(33)
        reps = 20_000
        w = np.array([jm.zero_bias_sample(5, Fraction(2), rng)["w"] for _ in range(reps)])
        assert abs(w.mean()) <= 4 * w.std(ddof=1) / math.sqrt(reps)
        assert abs((w**2).mean() - 1) <= 4 * (w**2).std(ddof=1) / math.sqrt(reps)

    def test_difference_bounded_on_typical_first_row(self):
        # |D| <= 10 sqrt(alpha)/(n epsilon) whenever the pre-final first row
        # stays below 2/epsilon, inside the large-alpha window
        n, alpha, eps = 16, Fraction(64), 0.4
        assert jm.rate_and_region(n, alpha, eps)["in_region"]
        bound = jm.d_bar(n, alpha, eps)
        rng = np.random.default_rng(64)
        tallied = 0
        for _ in range(3_000):
            s = jm.zero_bias_sample(n, alpha, rng)
            if s["lambda1_prev"] <= 2 / eps:
                tallied += 1
                assert abs(s["d"]) <= bound + 1e-12
        assert tallied > 0


class TestZeroBiasIdentity:
    def test_variance_normalization(self):
        rep = jm.check_zero_bias_identity(2, 1, [0, 1])
        assert rep["exact_equal"]
        assert rep["lhs"] == pytest.approx(1.0)
        assert rep["rhs"] == pytest.approx(1.0)

    @pytest.mark.parametrize("n,alpha,coeffs", [(3, 2, [0, 0, 1]), (5, Fraction(1, 2), [0, 0, 0, 1])])
    def test_reported_examples(self, n, alpha, coeffs):
        rep = jm.check_zero_bias_identity(n, alpha, coeffs)
        assert rep["exact_equal"] and rep["max_abs_err"] <= 1e-10

    def test_general_polynomial(self):
        rep = jm.check_zero_bias_identity(6, Fraction(5), [1, -2, 3, 0, 1, 1])
        assert rep["exact_equal"]

    def test_guards(self):
        with pytest.raises(ValueError):
            jm.check_zero_bias_identity(9, 1, [0, 1])
        with pytest.raises(ValueError):
            jm.check_zero_bias_identity(4, 1, [0] * 7)


class TestWassersteinBound:
    def test_two_point_exact_case(self):
        law = jm.exact_w_law(2, 1)
        exact_d1 = sc.wasserstein_discrete_vs_normal(law)
        bound = math.sqrt(2.0 / 2) * (2 + math.sqrt(2 + 1.0 / 1))
        assert exact_d1 <= bound

    def test_bound_value_at_100_1(self):
        rng = np.random.default_rng(6)
        rep = jm.check_wasserstein_bound(100, 1, rng, 500)
        assert rep["bound"] == pytest.approx(math.sqrt(0.02) * (2 + math.sqrt(2 + 1 / 99)))
        assert rep["holds_within_mc"]

    def test_small_grid(self):
        rng = np.random.default_rng(61)
        for n in (10, 50):
            for alpha in (Fraction(1, 4), Fraction(1), Fraction(4)):
                assert jm.check_wasserstein_bound(n, alpha, rng, 400)["holds_within_mc"]


class TestKolmogorovEstimate:
    def test_exact_delta_two_atoms(self):
        exact = sc.kolmogorov_discrete_vs_normal(jm.exact_w_law(2, 1))
        rng = np.random.default_rng(44)
        rep = jm.kolmogorov_estimate(2, 1, rng, 4_000)
        assert abs(rep["delta_hat"] - exact) <= rep["dkw_band"]

    def test_exact_delta_enumeration_n6(self):
        exact = sc.kolmogorov_discrete_vs_normal(jm.exact_w_law(6, Fraction(1)))
        rng = np.random.default_rng(45)
        rep = jm.kolmogorov_estimate(6, 1, rng, 6_000)
        assert abs(rep["delta_hat"] - exact) <= rep["dkw_band"]

    def test_ratio_fields_present(self):
        rng = np.random.default_rng(46)
        rep = jm.kolmogorov_estimate(8, Fraction(3), rng, 500)
        assert rep["delta_times_rate"] == pytest.approx(rep["delta_hat"] * 8 / math.sqrt(3))

    def test_plancherel_scaling_reported(self):
        # delta * sqrt(n) stays bounded at alpha = 1; reported, not asserted
        rng = np.random.default_rng(47)
        values = [
            jm.kolmogorov_estimate(n, 1, rng, 2_000)["delta_hat"] * math.sqrt(n)
            for n in (8, 16, 32)
        ]
        assert all(math.isfinite(v) for v in values)
