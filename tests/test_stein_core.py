import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr

from steinlab import er_model as er
from steinlab import stein_core as sc


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
