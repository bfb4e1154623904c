import itertools
import math
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import loop_efron_stein
from scipy.special import ndtr, ndtri

from steinlab import er_model as er
from steinlab import stein_core as sc

# h(pi, sigmas) of each value type the Efron-Stein check accepts
EFRON_STEIN_H = {
    "int": lambda pi, sig: pi[0] * (sig[0][-1] if sig else 1) + (pi[-1] == 1),
    "negative": lambda pi, sig: -pi[-1] ** 2 + 2 * sum(s[0] for s in sig),
    "fraction": lambda pi, sig: Fraction(pi[0], 3) - Fraction(sum(s[-1] * pi[-1] for s in sig), 7),
    "float": lambda pi, sig: 0.1 * pi[0] + 0.25 * sum(s[0] for s in sig),
}


class TestDiscreteLaw:
    def test_validation(self):
        with pytest.raises(ValueError):
            sc.DiscreteLaw(((0, Fraction(1, 2)), (1, Fraction(1, 3))))
        with pytest.raises(ValueError):
            sc.DiscreteLaw(((0, Fraction(0)), (1, Fraction(1))))

    def test_law_from_pairs_merges(self):
        law = sc.law_from_pairs([(1, Fraction(1, 4)), (1, Fraction(1, 4)), (0, Fraction(1, 2))])
        assert dict(law.atoms)[1] == Fraction(1, 2)

    def test_moments(self):
        law = sc.DiscreteLaw(((0, Fraction(1, 2)), (2, Fraction(1, 2))))
        assert law.moment(1) == 1 and law.moment(2) == 2


class TestNormalLaw:
    """scipy's ndtr and ndtri as oracles for the standard-library normal law."""

    def test_cdf_matches_ndtr(self):
        z = np.linspace(-40, 40, 400_001)
        cdf = np.array([sc.normal_cdf(v) for v in z.tolist()])
        assert np.max(np.abs(cdf - ndtr(z))) <= 4.5e-16

    def test_ppf_matches_ndtri(self):
        p = np.concatenate([
            np.logspace(-299, -1, 20_000),
            np.linspace(1e-6, 1 - 1e-6, 20_001),
            1 - np.logspace(-15, -1, 20_000),
        ])
        q = ndtri(p)
        assert np.max(np.abs(sc.normal_ppf(p) - q) / np.maximum(np.abs(q), 1)) <= 4e-15

    def test_ppf_keeps_the_shape(self):
        grid = np.array([[0.1, 0.5, 0.9], [0.2, 0.3, 0.4]])
        assert np.ndim(sc.normal_ppf(0.25)) == 0 and sc.normal_ppf(0.5) == 0.0
        for p in (grid, grid[0], grid[:, :1], [0.1, 0.5]):
            q = sc.normal_ppf(p)
            assert q.shape == np.shape(p) and q.dtype == np.float64
            assert np.allclose(q, ndtri(p), rtol=0, atol=4e-15)

    @pytest.mark.parametrize("p", [0.0, 1.0, [0.5, 1.0]])
    def test_ppf_rejects_the_endpoints(self, p):
        with pytest.raises(statistics.StatisticsError):
            sc.normal_ppf(p)


class TestEmpiricalKolmogorov:
    def test_quantile_grid_geometry(self):
        for k in (100, 1000):
            samples = sc.normal_ppf((np.arange(1, k + 1) - 0.5) / k)
            rep = sc.empirical_kolmogorov(samples)
            assert abs(rep["delta_hat"] - 1.0 / (2 * k)) <= 1e-12

    def test_constant_samples(self):
        rep = sc.empirical_kolmogorov(np.zeros(500))
        assert rep["delta_hat"] == pytest.approx(0.5)

    def test_dkw_coverage(self):
        hits = 0
        seeds = 40
        for s in range(seeds):
            rng = np.random.default_rng(1000 + s)
            rep = sc.empirical_kolmogorov(rng.standard_normal(10_000))
            hits += rep["delta_hat"] <= rep["dkw_band"]
        assert hits >= 0.85 * seeds

    def test_band_formula(self):
        rep = sc.empirical_kolmogorov(np.linspace(-3, 3, 100_000), confidence=0.05)
        assert rep["dkw_band"] == pytest.approx(math.sqrt(math.log(2 / 0.05) / 2e5))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            sc.empirical_kolmogorov(np.zeros(99))

    def test_matches_slow_reference_scan(self):
        # brute scan over a dense grid augmented with the jump points and
        # their left limits; the step-function sup lives on that set
        rng = np.random.default_rng(55)
        x = np.sort(rng.standard_normal(1_000))
        rep = sc.empirical_kolmogorov(x)
        zs = np.concatenate([np.linspace(-6, 6, 1_000_001), x])
        right = np.searchsorted(x, zs, side="right") / x.size
        left = np.searchsorted(x, zs, side="left") / x.size
        phi = ndtr(zs)
        ref = max(np.max(np.abs(right - phi)), np.max(np.abs(left - phi)))
        assert abs(rep["delta_hat"] - ref) <= 1e-9


class TestDiscreteDistanceHelpers:
    def test_kolmogorov_discrete_hand_value(self):
        law = sc.DiscreteLaw(((-2.0, Fraction(1, 5)), (0.5, Fraction(4, 5))))
        # sup approached just below the upper atom: |1/5 - Phi(0.5)|
        assert sc.kolmogorov_discrete_vs_normal(law) == pytest.approx(
            abs(0.2 - sc.normal_cdf(0.5))
        )

    def test_wasserstein_matches_quadrature(self):
        law = sc.DiscreteLaw(
            ((-1.5, Fraction(1, 3)), (0.25, Fraction(1, 3)), (1.0, Fraction(1, 3)))
        )
        zs = np.linspace(-14, 14, 4_000_001)
        cum = np.zeros_like(zs)
        acc = 0.0
        for v, p in law.sorted_atoms():
            cum[zs >= v] = acc + float(p)
            acc += float(p)
        ref = np.trapezoid(np.abs(cum - ndtr(zs)), zs)
        assert sc.wasserstein_discrete_vs_normal(law) == pytest.approx(ref, abs=1e-5)

    def test_wasserstein_estimate_consistency(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(50_000)
        assert sc.wasserstein_estimate(x) <= 0.02


class TestRecursion:
    def test_base_and_reported_values(self):
        spec = sc.RecursionSpec(0.5, 1.0)
        assert sc.recursion_closed_form(spec, 1) == 1.0
        assert sc.recursion_closed_form(spec, 4) == pytest.approx(1.875)
        assert sc.recursion_closed_form(spec, 200) == pytest.approx(2.0)

    def test_recurrence_random_parameters(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            q = float(rng.uniform(0.05, 0.95))
            c = float(rng.uniform(0.1, 10.0))
            spec = sc.RecursionSpec(q, c)
            prev = sc.recursion_closed_form(spec, 1)
            for n in range(2, 30):
                cur = sc.recursion_closed_form(spec, n)
                assert math.isclose(cur, q * prev + c, rel_tol=1e-14, abs_tol=1e-14)
                prev = cur

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            sc.RecursionSpec(1.0, 1.0)
        with pytest.raises(ValueError):
            sc.RecursionSpec(0.5, 0.0)
        sc.RecursionSpec(0.5, 1e307)
        with pytest.raises(ValueError, match=r"c/\(1-q\) must be finite"):
            sc.RecursionSpec(0.5, 1e308)
        with pytest.raises(ValueError):
            sc.recursion_closed_form(sc.RecursionSpec(0.5, 1.0), 0)

    @pytest.mark.parametrize("c", [math.inf, math.nan, -math.inf])
    def test_c_must_be_finite(self, c):
        with pytest.raises(ValueError, match="c must lie in"):
            sc.RecursionSpec(0.5, c)


def _chain_kernel(length, q, rate_base=None):
    states = tuple(range(1, length + 1))
    trans = {1: ()}
    for k in range(2, length + 1):
        trans[k] = ((k - 1, 1, Fraction(1)),)
    base = rate_base if rate_base is not None else 10.0
    rate = {k: base / (2 * q) ** k for k in states}
    return sc.FiniteKernel(states, frozenset(range(2, length + 1)), trans, rate)


class TestRecursionBoundSolve:
    def test_chain_matches_closed_form(self):
        spec = sc.RecursionSpec(0.5, 1.0)
        out = sc.recursion_bound_solve(_chain_kernel(50, 0.5), spec)
        for n in range(1, 51):
            assert out["a"][n] == pytest.approx(sc.recursion_closed_form(spec, n), abs=1e-9)
        assert out["sup_ok"]

    def test_branching_kernel(self):
        # two equally weighted successors per nice state
        states = (0, 1, 2, 3)
        trans = {
            0: (),
            1: ((0, 1, Fraction(1, 2)), (0, 1, Fraction(1, 2))),
            2: ((0, 1, Fraction(1, 2)), (1, 1, Fraction(1, 2))),
            3: ((1, 1, Fraction(1, 2)), (2, 1, Fraction(1, 2))),
        }
        rate = {0: 100.0, 1: 100.0, 2: 100.0, 3: 100.0}
        kernel = sc.FiniteKernel(states, frozenset({1, 2, 3}), trans, rate)
        spec = sc.RecursionSpec(0.4, 2.0)
        out = sc.recursion_bound_solve(kernel, spec)
        assert out["sup_ok"]
        assert max(out["a"].values()) <= 2.0 / 0.6 + 1e-9

    def test_mean_one_violation_refused(self):
        kernel = _chain_kernel(5, 0.5)
        trans = dict(kernel.transitions)
        trans[3] = ((2, 2, Fraction(1)),)  # E[X] = 2
        broken = sc.FiniteKernel(kernel.states, kernel.active_states, trans, kernel.rate)
        with pytest.raises(sc.KernelConditionError):
            sc.recursion_bound_solve(broken, sc.RecursionSpec(0.5, 1.0))

    def test_inactive_weight_violation_refused(self):
        kernel = _chain_kernel(5, 0.5)
        states = kernel.states
        trans = dict(kernel.transitions)
        trans[1] = ((1, 1, Fraction(1)),)  # X must vanish off the nice set
        broken = sc.FiniteKernel(states, kernel.active_states, trans, kernel.rate)
        with pytest.raises(sc.KernelConditionError):
            sc.recursion_bound_solve(broken, sc.RecursionSpec(0.5, 1.0))

    def test_rate_growth_violation_refused(self):
        # increasing rates break ess-sup r(Psi) <= r/(2q) for q > 1/2
        states = (1, 2, 3)
        trans = {1: (), 2: ((1, 1, Fraction(1)),), 3: ((2, 1, Fraction(1)),)}
        rate = {1: 1.0, 2: 1.0, 3: 1.0}
        kernel = sc.FiniteKernel(states, frozenset({2, 3}), trans, rate)
        with pytest.raises(sc.KernelConditionError):
            sc.recursion_bound_solve(kernel, sc.RecursionSpec(0.9, 0.05))


class TestEfronStein:
    def test_constant_function(self):
        rep = sc.check_efron_stein(lambda pi, sig: 7, 3, 1)
        assert rep["var"] == 0 and rep["bound"] == 0 and rep["holds"]

    def test_indicator_first_position(self):
        rep = sc.check_efron_stein(lambda pi, sig: 1 if pi[0] == 1 else 0, 3, 1)
        assert rep["var"] == Fraction(2, 9)
        assert rep["holds"]

    def test_indicator_n4(self):
        rep = sc.check_efron_stein(lambda pi, sig: 1 if pi[0] == 1 else 0, 4, 1)
        assert rep["var"] == Fraction(3, 16)
        assert rep["holds"]

    def test_isolated_count_function(self):
        params = er.ErParams(3, 1)

        def h(pi, sig):
            return er.isolated_count(er.ErGraphState(params, pi))

        rep = sc.check_efron_stein(h, 3, 0)
        assert rep["var"] == 0  # one edge always isolates exactly one vertex
        assert rep["holds"]

    def test_sigma_dependent_function(self):
        rep = sc.check_efron_stein(lambda pi, sig: pi[0] * sig[0][1], 3, 2)
        assert rep["holds"]

    def test_size_guard(self):
        with pytest.raises(ValueError):
            sc.check_efron_stein(lambda pi, sig: 0, 5, 1)
        with pytest.raises(ValueError):
            sc.check_efron_stein(lambda pi, sig: 0, 3, 3)

    @pytest.mark.parametrize("kind", EFRON_STEIN_H)
    @pytest.mark.parametrize(
        ("N", "n_sigma"), [(N, k) for N in (1, 2, 3, 4) for k in (0, 1, 2) if (N, k) != (4, 2)]
    )
    def test_equals_loop_oracle(self, kind, N, n_sigma):
        h = EFRON_STEIN_H[kind]
        assert sc.check_efron_stein(h, N, n_sigma) == loop_efron_stein(h, N, n_sigma)

    @pytest.mark.slow
    def test_equals_loop_oracle_largest_space(self):
        # 24^3 states: the oracle alone takes several seconds
        h = EFRON_STEIN_H["fraction"]
        assert sc.check_efron_stein(h, 4, 2) == loop_efron_stein(h, 4, 2)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_loop_oracle_on_random_tables(self, data):
        N = data.draw(st.integers(1, 3))
        n_sigma = data.draw(st.integers(0, 2 if N < 3 else 1))
        P = math.factorial(N)
        cells = P ** (1 + n_sigma)
        table = data.draw(st.lists(st.fractions(-5, 5, max_denominator=12),
                                   min_size=cells, max_size=cells))
        rank = {pi: k for k, pi in enumerate(itertools.permutations(range(1, N + 1)))}

        def h(pi, sig):
            k = rank[pi]
            for s in sig:
                k = k * P + rank[s]
            return table[k]

        assert sc.check_efron_stein(h, N, n_sigma) == loop_efron_stein(h, N, n_sigma)

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_exact_fractions_without_sigma(self, N):
        rep = sc.check_efron_stein(lambda pi, sig: pi[0], N, 0)
        assert type(rep["var"]) is Fraction and type(rep["bound"]) is Fraction
        assert rep["var"] == Fraction(N * N - 1, 12)
        assert rep["holds"]
