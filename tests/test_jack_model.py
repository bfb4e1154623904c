import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from steinlab import jack_model as jm

from oracles import (
    ScriptedGenerator,
    axis_scan_sweep,
    fraction_chain_law,
    fraction_content_sum,
    fraction_jack_moments,
    literal_jack_probability,
    literal_transition_probs,
    loop_jack_batch,
    partition_count,
)

ALPHAS = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5)]
LAW_ALPHAS = [Fraction(1, 3), Fraction(1), Fraction(2), Fraction(7, 2)]
ORACLE_ALPHAS = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5), Fraction(7, 3)]
# near one column (large alpha), many corners (alpha near 1), near one row (small alpha), n = 2
SWEEP_POINTS = [
    (16, 64), (32, "181.019336"), (64, 512), (100, 1000), (50, 1), (100, 1), (40, "7/2"),
    (30, "1/3"), (10, "1/4"), (64, "1/512"), (16, "1/64"), (32, "125000/22627417"), (2, 2),
]


class TestEnumeration:
    def test_counts_match_recurrence(self):
        for n in range(1, 16):
            assert len(jm.enumerate_partitions(n)) == partition_count(n)

    def test_small_lists(self):
        assert jm.enumerate_partitions(1) == [(1,)]
        assert len(jm.enumerate_partitions(4)) == 5
        assert len(jm.enumerate_partitions(8)) == 22

    def test_all_valid_and_distinct(self):
        parts = jm.enumerate_partitions(9)
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert sum(p) == 9
            assert all(p[i] >= p[i + 1] for i in range(len(p) - 1))

    def test_guard(self):
        with pytest.raises(ValueError):
            jm.enumerate_partitions(61)


class TestJackProbability:
    def test_unique_partition_of_one(self):
        for alpha in ALPHAS:
            assert jm.jack_probability((1,), alpha) == 1

    def test_two_box_split(self):
        for alpha in ALPHAS:
            assert jm.jack_probability((2,), alpha) == 1 / (1 + alpha)
            assert jm.jack_probability((1, 1), alpha) == alpha / (1 + alpha)

    def test_normalization(self):
        for n in range(1, 9):
            for alpha in ALPHAS:
                total = sum(jm.jack_probability(p, alpha) for p in jm.enumerate_partitions(n))
                assert total == 1

    @pytest.mark.parametrize(
        "alpha", [Fraction(1, 3), Fraction(1), Fraction(7, 2), Fraction(181019336, 1000000)]
    )
    def test_matches_literal_hook_products(self, alpha):
        for n in range(1, 13):
            for parts in jm.enumerate_partitions(n):
                assert jm.jack_probability(parts, alpha) == literal_jack_probability(parts, alpha)

    def test_conjugation_symmetry_at_alpha_one(self):
        for n in range(1, 9):
            for parts in jm.enumerate_partitions(n):
                conj = jm.conjugate(parts)
                assert jm.jack_probability(parts, 1) == jm.jack_probability(conj, 1)
                assert jm.content_sum(conj, 1) == -jm.content_sum(parts, 1)

    def test_invalid_partition(self):
        for parts in ((1, 2), (2, 0)):
            with pytest.raises(ValueError):
                jm.jack_probability(parts, 1)


class TestContentSum:
    def test_two_box_values(self):
        for alpha in ALPHAS:
            assert jm.content_sum((2,), alpha) == alpha
            assert jm.content_sum((1, 1), alpha) == -1

    def test_known_diagram_contents(self):
        # contents 0, a, 2a, 3a, -1, a-1, -2 sum to 7a - 4
        for alpha in ALPHAS:
            assert jm.content_sum((4, 2, 1), alpha) == 7 * alpha - 4

    def test_square_is_balanced_at_alpha_one(self):
        for k in (2, 3, 4):
            assert jm.content_sum((k,) * k, 1) == 0

    def test_standardized(self):
        w = float(jm.content_sum((2,), 4)) / jm.content_scale(2, 4)
        assert w == pytest.approx(2.0)  # alpha / sqrt(alpha) = sqrt(alpha)

    def test_matches_fraction_oracle(self):
        for n in range(1, 13):
            for parts in jm.enumerate_partitions(n):
                for alpha in ORACLE_ALPHAS + [Fraction("181.019336")]:
                    got = jm.content_sum(parts, alpha)
                    assert type(got) is Fraction and got == fraction_content_sum(parts, alpha)


class TestAddableCorners:
    def test_examples(self):
        assert jm.addable_corners((1,)) == [(1, 2), (2, 1)]
        assert jm.addable_corners((4, 2, 1)) == [(1, 5), (2, 3), (3, 2), (4, 1)]

    def test_staircase(self):
        k = 5
        stair = tuple(range(k, 0, -1))
        assert len(jm.addable_corners(stair)) == k + 1


class TestKerovTransitions:
    def test_from_single_box(self):
        for alpha in ALPHAS:
            dist = jm.kerov_transition_probs((1,), alpha)
            table = dict(zip(dist.corners, dist.probs))
            assert table[(1, 2)] == 1 / (1 + alpha)
            assert table[(2, 1)] == alpha / (1 + alpha)

    def test_probabilities_sum_to_one(self):
        for n in range(1, 9):
            for parts in jm.enumerate_partitions(n):
                for alpha in (Fraction(1, 2), Fraction(2)):
                    assert sum(jm.kerov_transition_probs(parts, alpha).probs) == 1

    def test_chain_reproduces_measure(self):
        for alpha in ALPHAS:
            law = jm.chain_law(8, alpha)
            assert sum(law.values()) == 1
            for parts, prob in law.items():
                assert prob == jm.jack_probability(parts, alpha)

    def test_chain_law_matches_fraction_oracle(self):
        for n in range(1, 8):
            for alpha in ORACLE_ALPHAS:
                assert list(jm.chain_law(n, alpha).items()) == (
                    list(fraction_chain_law(n, alpha).items())
                )

    def test_law_matches_literal_oracle(self):
        for n in range(1, 13):
            for parts in jm.enumerate_partitions(n):
                for alpha in LAW_ALPHAS:
                    dist = jm.kerov_transition_probs(parts, alpha)
                    assert list(zip(dist.corners, dist.contents, dist.probs)) == (
                        literal_transition_probs(parts, alpha)
                    )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.integers(1, 10), min_size=1, max_size=10)
        .filter(lambda xs: sum(xs) <= 30)
        .map(lambda xs: tuple(sorted(xs, reverse=True))),
        st.builds(Fraction, st.integers(1, 30), st.integers(1, 8)),
    )
    def test_law_matches_literal_oracle_random(self, parts, alpha):
        dist = jm.kerov_transition_probs(parts, alpha)
        assert list(zip(dist.corners, dist.contents, dist.probs)) == (
            literal_transition_probs(parts, alpha)
        )
        _, weights = jm._corner_law(jm._parts_to_runs(parts), float(alpha))
        for w, p in zip(weights, dist.probs):
            assert w == pytest.approx(float(p), rel=1e-11, abs=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 20), min_size=1, max_size=20)
        .filter(lambda xs: sum(xs) <= 20)
        .map(lambda xs: tuple(sorted(xs, reverse=True))),
        st.builds(Fraction, st.integers(1, 10**7), st.integers(1, 10**6)),
    )
    @example((5, 3, 3, 1), Fraction("181.019336"))
    @example((20,), Fraction(1, 10**6))
    def test_integer_law_property(self, parts, alpha):
        a, b = alpha.numerator, alpha.denominator
        xs, probs = jm._corner_law(jm._parts_to_runs(parts), a, b)
        assert all(type(x) is int for x in xs)
        assert sum(probs) == 1
        got = list(zip(jm.addable_corners(parts), [Fraction(x, b) for x in xs], probs))
        assert got == literal_transition_probs(parts, alpha)

    def test_two_fractions_per_corner(self):
        """One content and one probability per corner, and no Fraction
        arithmetic: ``Fraction.__new__`` also counts every Fraction product."""
        made = 0
        new = Fraction.__dict__["__new__"]

        def counting_new(cls, *args, **kwargs):
            nonlocal made
            made += 1
            return new(cls, *args, **kwargs)

        for parts, alpha in (((1,), Fraction(2)), ((6, 4, 4, 2, 1), Fraction(7, 3)),
                             (tuple(range(8, 0, -1)), Fraction("181.019336"))):
            made = 0
            Fraction.__new__ = counting_new
            try:
                dist = jm.kerov_transition_probs(parts, alpha)
            finally:
                Fraction.__new__ = new
            assert 0 < made <= 2 * len(dist.corners)

    def test_float_law_matches_exact(self):
        for n in range(1, 13):
            for parts in jm.enumerate_partitions(n):
                runs = jm._parts_to_runs(parts)
                for alpha in LAW_ALPHAS:
                    exact = jm.kerov_transition_probs(parts, alpha)
                    contents, weights = jm._corner_law(runs, float(alpha))
                    assert len(weights) == len(exact.probs)
                    for w, p in zip(weights, exact.probs):
                        assert w == pytest.approx(float(p), abs=1e-13)
                    for cf, ce in zip(contents, exact.contents):
                        assert cf == pytest.approx(float(ce), abs=1e-12)


class TestKerovSampling:
    def test_determinism(self):
        p1, t1 = jm.kerov_sample(12, Fraction(3, 2), np.random.default_rng(5))
        p2, t2 = jm.kerov_sample(12, Fraction(3, 2), np.random.default_rng(5))
        assert p1 == p2 and t1 == t2

    def test_two_box_frequencies(self):
        alpha = Fraction(2)
        rng = np.random.default_rng(9)
        reps = 100_000
        rows = 0
        for _ in range(reps):
            parts, _ = jm.kerov_sample(2, alpha, rng)
            rows += parts == (2,)
        p = float(1 / (1 + alpha))
        sd = math.sqrt(p * (1 - p) * reps)
        assert abs(rows - p * reps) <= 3 * sd

    def test_marginal_chi2_n5(self):
        alpha = Fraction(1)
        rng = np.random.default_rng(15)
        reps = 30_000
        counts: dict = {}
        for _ in range(reps):
            parts, _ = jm.kerov_sample(5, alpha, rng)
            counts[parts] = counts.get(parts, 0) + 1
        stat = 0.0
        dof = 0
        for parts in jm.enumerate_partitions(5):
            expected = float(jm.jack_probability(parts, alpha)) * reps
            if expected < 5:
                continue
            stat += (counts.get(parts, 0) - expected) ** 2 / expected
            dof += 1
        assert stat <= chi2.ppf(0.9999, dof - 1)

    def test_trajectory_contents_sum_to_final_content(self):
        rng = np.random.default_rng(77)
        for alpha in (Fraction(1, 2), Fraction(4)):
            parts, traj = jm.kerov_sample(15, alpha, rng)
            assert sum(traj, start=Fraction(0)) == jm.content_sum(parts, alpha)

    def test_batch_determinism_and_lambda1(self):
        b1 = jm.sample_jack_batch(10, Fraction(2), np.random.default_rng(3), 50)
        b2 = jm.sample_jack_batch(10, Fraction(2), np.random.default_rng(3), 50)
        assert np.array_equal(b1["w"], b2["w"])
        assert np.array_equal(b1["lambda1_prev"], b2["lambda1_prev"])
        assert (b1["lambda1_prev"] >= 1).all()
        assert (b1["lambda1_prev"] <= 9).all()

    def test_samplers_share_the_growth_loop(self):
        for n, alpha in ((2, Fraction(2)), (12, Fraction(3, 2)), (40, Fraction(1))):
            for seed in range(5):
                batch = jm.sample_jack_batch(n, alpha, np.random.default_rng(seed), 1)
                parts, _ = jm.kerov_sample(n, alpha, np.random.default_rng(seed))
                w = float(jm.content_sum(parts, alpha)) / jm.content_scale(n, alpha)
                assert batch["w"][0] == pytest.approx(w, abs=1e-12)
                prev, _ = jm.kerov_sample(n - 1, alpha, np.random.default_rng(seed))
                assert batch["lambda1_prev"][0] == prev[0]


def assert_sweep_equals_loop(n, alpha, seed, size):
    rng_sweep, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
    got = jm.sample_jack_batch(n, alpha, rng_sweep, size)
    want = loop_jack_batch(n, alpha, rng_loop, size)
    for key in ("w", "lambda1_prev"):
        assert got[key].dtype == want[key].dtype
        assert np.array_equal(got[key], want[key])
    assert rng_sweep.random() == rng_loop.random()


class TestBatchSweep:
    """The numpy sweep draws exactly what the per-draw ``_grow`` loop draws."""

    @pytest.mark.parametrize("n, alpha", SWEEP_POINTS)
    def test_sweep_equals_loop(self, n, alpha):
        for seed in range(3):
            for size in (0, 1, 7, 300):
                assert_sweep_equals_loop(n, Fraction(alpha), seed, size)

    def test_batch_law_equals_corner_law(self):
        alphas = [float(a) for a in LAW_ALPHAS] + [181.019336, 1 / 181.019336]
        for n in range(1, 15):
            runs = [jm._parts_to_runs(parts) for parts in jm.enumerate_partitions(n)]
            r = np.array([len(rs) for rs in runs])
            v = np.zeros((len(runs), r.max() + 2), dtype=np.int64)  # a spare zero lane
            c = np.zeros_like(v)
            for i, rs in enumerate(runs):
                v[i, : r[i]], c[i, : r[i]] = zip(*rs)
            for alpha in alphas:
                x, weights = jm._batch_corner_law(v.T, c.T, r, alpha)
                x, weights = x.T, weights.T
                for i, rs in enumerate(runs):
                    contents, want = jm._corner_law(rs, alpha)
                    assert x[i, : r[i] + 1].tolist() == contents
                    assert weights[i, : r[i] + 1].tolist() == want
                    assert not weights[i, r[i] + 1 :].any()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 64), st.integers(1, 64), st.integers(0, 2**32 - 1))
    def test_sweep_equals_loop_random(self, n, a, b, seed):
        assert_sweep_equals_loop(n, Fraction(a, b), seed, 5)

    def test_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(jm, "_BATCH_ROWS", 7)
        for n, alpha in ((40, Fraction(1)), (64, Fraction(512)), (30, Fraction(1, 3))):
            assert_sweep_equals_loop(n, alpha, 0, 23)

    @pytest.mark.parametrize("n, alpha", [(16, 64), (50, 1), (30, Fraction(1, 3))])
    def test_pick_rule_at_extreme_uniforms(self, n, alpha):
        # all-lowest draws take the first corner; all-highest ones reach the
        # first running sum above u*total, or else the bottom corner; at
        # alpha = 1 the first step's weights are 1/2, 1/2, so 0.5 ties the
        # first running sum and must pass it
        top = np.nextafter(1.0, 0.0)
        u = np.array([[0.0] * (n - 1), [top] * (n - 1), [0.5] + [0.0] * (n - 2)])
        y, lam1_prev = jm._sweep(n, float(alpha), u)
        rng = ScriptedGenerator(doubles=u.ravel())
        want = loop_jack_batch(n, alpha, rng, len(u))
        assert rng.done
        assert np.array_equal(y / jm.content_scale(n, alpha), want["w"])
        assert np.array_equal(lam1_prev, want["lambda1_prev"])

    def test_sweep_memory_below_half_the_uniforms(self):
        # the sweep reads u in place: a copy of it would alone exceed the bound
        u = np.random.default_rng(0).random((1000, 399))
        tracemalloc.start()
        try:
            jm._sweep(400, 512.0, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < u.nbytes / 2


def assert_sweep_equals_axis_scans(n, alpha, seed, size):
    rng_lanes, rng_scans = np.random.default_rng(seed), np.random.default_rng(seed)
    got = jm.sample_jack_batch(n, alpha, rng_lanes, size)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jm, "_sweep", axis_scan_sweep)
        want = jm.sample_jack_batch(n, alpha, rng_scans, size)
    for key in ("w", "lambda1_prev"):
        assert got[key].dtype == want[key].dtype
        assert (got[key] == want[key]).all()
    assert rng_lanes.random() == rng_scans.random()


class TestLaneScans:
    """The lane-by-lane scans draw exactly what the axis-0 scans drew."""

    @pytest.mark.parametrize("n, alpha", [(16, 64), (32, "181.019336"), (64, 512)])
    def test_jack_report_points(self, n, alpha):
        for seed in range(2):
            assert_sweep_equals_axis_scans(n, Fraction(alpha), seed, 1100)

    @pytest.mark.parametrize("size", [1, 7, 100])
    def test_many_corners(self, size):
        for seed in range(3):
            assert_sweep_equals_axis_scans(100, Fraction(1), seed, size)

    @pytest.mark.parametrize("n, alpha", [(30, "1/4"), (20, "7/3")])
    def test_small_and_fractional_alpha(self, n, alpha):
        for seed in range(3):
            assert_sweep_equals_axis_scans(n, Fraction(alpha), seed, 300)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 40),
        st.sampled_from([Fraction(1, 3), Fraction(1), Fraction(7, 3), Fraction(64)]),
        st.integers(0, 50),
        st.integers(0, 2**32 - 1),
    )
    def test_sweep_equals_axis_scans_random(self, n, alpha, size, seed):
        assert_sweep_equals_axis_scans(n, alpha, seed, size)

    def test_pick_takes_the_first_hit_on_non_monotone_sums(self):
        # chain 0: lane 2 falls back below the level after lane 1 passed it,
        # so the pick is lane 1 although two lanes lie below the level;
        # chain 1: no lane passes, so the pick is the bottom corner r;
        # chain 2: the first lane passes
        cum = np.array([
            [0.2, 0.1, 0.9],
            [0.5, 0.2, 0.3],
            [0.4, 0.3, 0.2],
            [1.0, 0.3, 1.0],
        ])
        level = np.array([0.45, 0.9, 0.5])
        r = np.array([3, 3, 3])
        assert (cum <= level).sum(axis=0).tolist() == [2, 4, 2]
        assert jm._batch_pick(cum, level, r).tolist() == [1, 3, 0]
        for i in range(3):
            weights = np.diff(cum[:, i], prepend=0.0)
            assert jm._pick(weights, level[i]) == [1, 3, 0][i]


class TestDegeneracyAndRegion:
    def test_single_column_cross_check(self):
        for alpha in ALPHAS:
            rep = jm.single_column_prob(2, alpha)
            assert rep["prob"] == jm.jack_probability((1, 1), alpha)
        assert jm.single_column_prob(1, Fraction(3))["prob"] == 1

    def test_large_alpha_value(self):
        rep = jm.single_column_prob(10, Fraction(10**4))
        assert float(rep["prob"]) >= math.exp(-0.01) - 1e-12
        direct = 1.0
        for l in range(10):
            direct /= 1.0 + l / 1e4
        assert float(rep["prob"]) == pytest.approx(direct, abs=1e-12)
        assert rep["holds"]

    def test_monotone_approach_to_one(self):
        values = [float(jm.single_column_prob(n, Fraction(n) ** 3)["prob"]) for n in range(5, 31, 5)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rate_and_region(self):
        rep = jm.rate_and_region(4, 4, 0.5)
        assert rep["r"] == pytest.approx(2.0)
        assert jm.rate_and_region(10, Fraction(316227766, 10**7), 0.4)["in_region"]
        for eps in (0.1, 0.5, 0.9):
            assert not jm.rate_and_region(10, 100, eps)["in_region"]

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            jm.rate_and_region(10, 100, 1.5)

    def test_diagnostics(self):
        assert jm.d_bar(10, 100, 0.5) == pytest.approx(10 * 10 / (10 * 0.5))
        assert jm.first_row_bound(10, 100) == pytest.approx(4 * math.e)


class TestJackMoments:
    def test_two_box_closed_form(self):
        for alpha in ALPHAS:
            rep = jm.check_jack_moments(2, alpha)
            assert rep["holds"] and rep["ey"] == 0 and rep["ey2"] == alpha

    def test_reported_examples(self):
        rep = jm.check_jack_moments(6, 3)
        assert rep["holds"] and rep["ey2"] == 45
        rep = jm.check_jack_moments(8, Fraction(1, 4))
        assert rep["holds"] and rep["ey2"] == 7

    def test_guard(self):
        with pytest.raises(ValueError):
            jm.check_jack_moments(13, 1)

    def test_matches_fraction_oracle(self):
        for n in range(1, 10):
            for alpha in ORACLE_ALPHAS:
                got = jm.check_jack_moments(n, alpha)
                want = fraction_jack_moments(n, alpha)
                assert list(got.items()) == list(want.items())
                assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


class TestExactWLaw:
    def test_two_point_law_at_alpha_one(self):
        law = jm.exact_w_law(2, 1)
        assert sorted(v for v, _ in law.atoms) == [-1.0, 1.0]
        assert all(p == Fraction(1, 2) for _, p in law.atoms)


BAD_ALPHA_CALLS = {
    "jack_probability": lambda a: jm.jack_probability((2, 1), a),
    "content_sum": lambda a: jm.content_sum((2, 1), a),
    "kerov_transition_probs": lambda a: jm.kerov_transition_probs((2, 1), a),
    "chain_law": lambda a: jm.chain_law(3, a),
    "conditional_t_moments": lambda a: jm.conditional_t_moments((2, 1), a, 4),
    "zero_bias_pair_distribution": lambda a: jm.zero_bias_pair_distribution((2, 1), a),
    "check_zero_bias_identity": lambda a: jm.check_zero_bias_identity(3, a, [0, 1]),
    "check_jack_moments": lambda a: jm.check_jack_moments(3, a),
    "exact_w_law": lambda a: jm.exact_w_law(3, a),
    "single_column_prob": lambda a: jm.single_column_prob(3, a),
    "kerov_sample": lambda a: jm.kerov_sample(5, a, np.random.default_rng(0)),
    "sample_jack_batch": lambda a: jm.sample_jack_batch(5, a, np.random.default_rng(0), 3),
    "zero_bias_sample": lambda a: jm.zero_bias_sample(5, a, np.random.default_rng(0)),
    "rate_and_region": lambda a: jm.rate_and_region(10, a, 0.5),
    "d_bar": lambda a: jm.d_bar(10, a, 0.5),
    "first_row_bound": lambda a: jm.first_row_bound(10, a),
}


class TestBadInput:
    """alpha <= 0 and too small an n are one ValueError, not a garbage result
    or a division by zero."""

    def test_chain_law_at_time_zero(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            jm.chain_law(0, 1)

    @pytest.mark.parametrize("alpha", [0, -1, Fraction(-1, 2), "-0.5"])
    @pytest.mark.parametrize("name", list(BAD_ALPHA_CALLS))
    def test_nonpositive_alpha(self, name, alpha):
        with pytest.raises(ValueError, match="alpha must be positive"):
            BAD_ALPHA_CALLS[name](alpha)

    def test_one_box_standardized_checks(self):
        # the scale sqrt(alpha C(1, 2)) is 0
        with pytest.raises(ValueError, match=r"n must lie in \[2, 8\]"):
            jm.check_zero_bias_identity(1, 1, [0, 1])
        with pytest.raises(ValueError, match="n must be >= 2"):
            jm.exact_w_law(1, 1)

    def test_single_column_needs_a_box(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            jm.single_column_prob(0, 1)
