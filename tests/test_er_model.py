import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from steinlab import er_model as er
from steinlab import exactnum as ex
from steinlab import stein_core as sc

from oracles import (
    ScriptedGenerator,
    argsort_distinct_rows,
    b_v_decomposition,
    brute_coupled_isolated,
    brute_er_isolated_law,
    binomial_table_moments,
    binomial_table_negative_correlation,
    brute_er_moments,
    coupling_sample,
    edge_index,
    enumerate_edge_sets,
    gd_conditional_variance_estimate,
    lazy_permutation,
    redistribute,
    relocation_target_law,
    slot_to_pair,
    taylor_shift_y_law,
)


DISTINCT_POINTS = [
    (3, 1), (3, 2), (6, 5), (15, 14), (28, 5), (45, 44), (4950, 100), (79_800, 400),
    # int64 packed keys (N * m > 2**31), then two collision-dense points
    (7_998_000, 300), (66, 40), (190, 150),
]
# repeats that a redraw makes, as queued draws of 4 slots out of 10; the
# second pass sorts only the rows the first one redrew
SECOND_PASS_SCRIPTS = [
    # the redrawn position 1 takes slot 5 from the kept position 2
    [[[0, 0, 5, 7]], [5], [3]],
    # the redrawn position 2 lands on the slot kept at position 0
    [[[5, 0, 0, 7]], [5], [3]],
    # the redrawn positions 1 and 3 land on one new slot
    [[[0, 0, 1, 1]], [6, 6], [8]],
    # the redrawn position 2 draws its own old slot
    [[[0, 2, 0, 3]], [0], [4]],
    # all four at once, one row each; the last row's second redraw
    # repeats its old slot again, so a third pass redraws it
    [
        [[0, 0, 5, 7], [5, 0, 0, 7], [0, 0, 1, 1], [0, 2, 0, 3]],
        [5, 5, 6, 6, 0],
        [3, 3, 8, 0],
        [4],
    ],
]
# the last row holds the top slot N - 1 twice and its redraw draws N - 1
# again, so two passes sort int32 keys up to (N - 1) * m + 1 < 2**31
LOOKUP_PAST_INT32 = [[[1, 2], [3, 4], [10**9 - 1, 10**9 - 1]], [10**9 - 1], [5]]


def _block(rows: int, m: int) -> int:
    """A sampler block size giving row blocks of ``rows`` rows of m slots."""
    return 1 if rows == 1 else rows * m


def assert_distinct_rows_match_oracle(N, m):
    # same draws and same rng stream as stable-argsort rejection over all rows
    for rows in (1, 7, 1000):
        for seed in range(4):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = er._sample_distinct_rows(rng, N, m, rows)
            assert np.array_equal(got, argsort_distinct_rows(ref_rng, N, m, rows))
            assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)


def assert_script_matches_oracle(script, N, m):
    rows = len(script[0])
    rng, ref_rng = ScriptedGenerator(*script), ScriptedGenerator(*script)
    got = er._sample_distinct_rows(rng, N, m, rows)
    assert np.array_equal(got, argsort_distinct_rows(ref_rng, N, m, rows))
    assert rng.done and ref_rng.done
    return got


class TestSlotEnumeration:
    def test_first_and_last_slots(self):
        assert edge_index(1, 2, 4) == 1
        n = 7
        N = ex.binomial(n, 2)
        assert er.pair_table(n)[N - 1] == slot_to_pair(N, n) == (n - 1, n)
        assert er.pair_table(n)[0] == slot_to_pair(1, n) == (1, 2)

    def test_round_trip_n6(self):
        n = 6
        table = er.pair_table(n)
        assert len(table) == ex.binomial(n, 2)
        for v, w in itertools.combinations(range(1, n + 1), 2):
            assert table[edge_index(v, w, n) - 1] == (v, w)
        for i in range(1, ex.binomial(n, 2) + 1):
            assert slot_to_pair(i, n) == table[i - 1]

    def test_triu_indices_match_pair_table(self):
        # the batch sampler reads slot endpoints from triu_indices
        for n in range(3, 41):
            first, second = np.triu_indices(n, 1)
            assert list(zip(first + 1, second + 1)) == list(er.pair_table(n))


class TestSampling:
    def test_same_seed_same_graph(self):
        params = er.ErParams(6, 5)
        g1 = er.sample_graph(params, np.random.default_rng(11))
        g2 = er.sample_graph(params, np.random.default_rng(11))
        assert g1.perm == g2.perm

    def test_single_edge_frequencies(self):
        params = er.ErParams(3, 1)
        rng = np.random.default_rng(5)
        counts = {1: 0, 2: 0, 3: 0}
        reps = 100_000
        for _ in range(reps):
            (slot,) = er.sample_graph(params, rng).edge_slots()
            counts[slot] += 1
        sd = math.sqrt(reps * (1 / 3) * (2 / 3))
        for c in counts.values():
            assert abs(c - reps / 3) <= 3 * sd

    def test_matching_vs_path_split(self):
        # two disjoint edges leave no isolated vertex; adjacent edges leave one
        rng = np.random.default_rng(17)
        y = er.sample_isolated_counts(er.ErParams(4, 2), rng, 100_000)
        frac_matching = np.mean(y == 0)
        sd = math.sqrt((3 / 15) * (12 / 15) / y.size)
        assert abs(frac_matching - 3 / 15) <= 3 * sd
        assert set(np.unique(y)) <= {0, 1}

    def test_vectorized_sampler_matches_exact_law(self):
        rng = np.random.default_rng(23)
        law = brute_er_isolated_law(5, 3)
        y = er.sample_isolated_counts(er.ErParams(5, 3), rng, 50_000)
        for value, prob in law.items():
            p = float(prob)
            sd = math.sqrt(p * (1 - p) / y.size)
            assert abs(np.mean(y == value) - p) <= 4 * sd + 1e-9

    @pytest.mark.parametrize("N, m", DISTINCT_POINTS)
    def test_distinct_rows_match_argsort_oracle(self, N, m):
        assert_distinct_rows_match_oracle(N, m)

    @pytest.mark.parametrize("block_rows", [1, 7])
    @pytest.mark.parametrize("N, m", DISTINCT_POINTS)
    def test_distinct_rows_match_argsort_oracle_in_small_blocks(self, monkeypatch, N, m, block_rows):
        monkeypatch.setattr(er, "_BLOCK", _block(block_rows, m))
        assert_distinct_rows_match_oracle(N, m)

    @pytest.mark.parametrize("script", SECOND_PASS_SCRIPTS)
    def test_second_pass_cases_match_argsort_oracle(self, script):
        # each draw's size is checked, so each script forces its repeat
        assert_script_matches_oracle(script, 10, 4)

    def test_second_pass_lookup_past_int32(self):
        # int32 keys (N * m <= 2**31); the last row's redrawn position 1
        # draws its own old slot, the top one
        got = assert_script_matches_oracle(LOOKUP_PAST_INT32, 10**9, 2)
        assert got[2].tolist() == [10**9 - 1, 5]

    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_second_pass_cases_in_small_blocks(self, monkeypatch, block_rows):
        for script, N, m in [(s, 10, 4) for s in SECOND_PASS_SCRIPTS] + [
            (LOOKUP_PAST_INT32, 10**9, 2)
        ]:
            monkeypatch.setattr(er, "_BLOCK", _block(block_rows, m))
            assert_script_matches_oracle(script, N, m)

    @pytest.mark.parametrize("N", [2, 6, 79_800, 2**31])
    def test_int32_draws_equal_int64_draws(self, N):
        # the sampler's int32 slots rest on this: same values, same next draw
        for size in (1, 7, 1001, (300, 400)):
            rng, ref_rng = np.random.default_rng(N), np.random.default_rng(N)
            got = rng.integers(0, N, size=size, dtype=np.int32)
            assert np.array_equal(got, ref_rng.integers(0, N, size=size, dtype=np.int64))
            assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)

    def test_slot_dtype_follows_the_slot_count(self):
        for N, dtype in ((2**31, np.int32), (2**31 + 1, np.int64)):
            assert er._sample_distinct_rows(np.random.default_rng(0), N, 3, 2).dtype == dtype

    @pytest.mark.parametrize("block_rows", [1, 7])
    def test_isolated_counts_do_not_depend_on_the_block(self, monkeypatch, block_rows):
        for n, m in ((8, 5), (30, 200), (400, 400)):
            params = er.ErParams(n, m)
            rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
            want = er.sample_isolated_counts(params, ref_rng, 777)
            with monkeypatch.context() as patch:
                patch.setattr(er, "_BLOCK", _block(block_rows, m))
                got = er.sample_isolated_counts(params, rng, 777)
            assert np.array_equal(got, want)
            assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)

    def test_isolated_counts_memory_within_one_and_three_quarter_slot_arrays(self):
        # 5000 x 400 int32 slots take 8 MB and the count's bool marks 2 MB; a
        # full-size temporary, such as a second key array, would pass the bound
        params, size = er.ErParams(400, 400), 5000
        er.sample_isolated_counts(params, np.random.default_rng(0), 10)  # lazy imports
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            er.sample_isolated_counts(params, rng, size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * size * params.m * 4

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 60).flatmap(lambda N: st.tuples(st.just(N), st.integers(1, N - 1))),
        st.integers(0, 40),
        st.integers(0, 2**32 - 1),
    )
    def test_distinct_rows_property(self, nm, rows, seed):
        N, m = nm
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = er._sample_distinct_rows(rng, N, m, rows)
        assert np.array_equal(got, argsort_distinct_rows(ref_rng, N, m, rows))
        assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)

    def test_isolated_count_chi2_against_exact_law(self):
        # 105 000 draws, so the last batch is a partial one; the smallest
        # expected cell count is 449, so no cells need pooling
        law = brute_er_isolated_law(8, 5)
        reps = 105_000
        y = er.sample_isolated_counts(er.ErParams(8, 5), np.random.default_rng(31), reps)
        assert set(np.unique(y)) <= set(law)
        expected = {v: float(p) * reps for v, p in law.items()}
        assert min(expected.values()) >= 5
        stat = sum((np.sum(y == v) - e) ** 2 / e for v, e in expected.items())
        assert stat <= chi2.ppf(0.9999, len(expected) - 1)

    def test_isolated_count_chi2_against_exact_law_over_many_blocks(self, monkeypatch):
        # (40, 50): mean about 2.8 and about 1.6 repeats per row, so the five
        # batches run 8 row blocks each and 15 or more passes in all
        params, reps = er.ErParams(40, 50), 50_000
        assert reps >= 5 * er._BATCH_ROWS and er._BATCH_ROWS * params.m >= 7 * er._BLOCK
        passes, redraw = [], er._redraw_repeats

        def counted(*args):
            passes.append(args[2])
            return redraw(*args)

        monkeypatch.setattr(er, "_redraw_repeats", counted)
        y = er.sample_isolated_counts(params, np.random.default_rng(41), reps)
        assert len(passes) >= 15
        # pool neighbouring values until each cell expects at least 5 draws
        cells, counts = [[0.0, 0]], np.bincount(y)
        for v, p in sorted(er.exact_y_law(params).atoms):
            if cells[-1][0] >= 5:
                cells.append([0.0, 0])
            cells[-1][0] += float(p) * reps
            cells[-1][1] += int(counts[v]) if v < counts.size else 0
        if cells[-1][0] < 5:
            tail = cells.pop()
            cells[-1] = [cells[-1][0] + tail[0], cells[-1][1] + tail[1]]
        assert sum(c for _, c in cells) == reps
        stat = sum((c - e) ** 2 / e for e, c in cells)
        assert stat <= chi2.ppf(0.9999, len(cells) - 1)

    def test_degree_sum_is_2m(self):
        rng = np.random.default_rng(3)
        for n, m in [(5, 4), (7, 10), (9, 17)]:
            g = er.sample_graph(er.ErParams(n, m), rng)
            assert sum(er.degrees(g)) == 2 * m

    def test_degree_marginal_exact_at_4_2(self):
        # distribution of d_1 over all edge sets equals Hyp(N, m, n-1)
        params = er.ErParams(4, 2)
        table = er.pair_table(4)
        counts = {}
        total = 0
        for edges in enumerate_edge_sets(params):
            total += 1
            d = sum(1 for s in edges if 1 in table[s - 1])
            counts[d] = counts.get(d, 0) + 1
        hyp = ex.HypergeometricParams(params.slots, params.m, params.n - 1)
        for k, c in counts.items():
            assert Fraction(c, total) == ex.hyp_pmf(hyp, k)

    def test_degree_marginal_chi2_mc(self):
        # the fixed-vertex degree over 1e5 graph draws is Hyp(N, m, n-1)
        params = er.ErParams(12, 20)
        hyp = ex.HypergeometricParams(params.slots, params.m, params.n - 1)
        pmf = {k: float(p) for k, p in ex.hyp_pmf_vector(hyp).items()}
        rng = np.random.default_rng(29)
        reps = 100_000
        table = np.array(er.pair_table(params.n))
        slots = er._sample_distinct_rows(rng, params.slots, params.m, reps)
        verts = table[slots]  # 1-based endpoints, shape (reps, m, 2)
        degs = (verts == 1).sum(axis=(1, 2))
        stat = 0.0
        dof = 0
        for k, p in pmf.items():
            expected = p * reps
            if expected < 5:
                continue
            stat += (np.sum(degs == k) - expected) ** 2 / expected
            dof += 1
        assert stat <= chi2.ppf(0.9999, dof - 1)


class TestIsolatedCount:
    def test_one_edge_three_vertices(self):
        params = er.ErParams(3, 1)
        for perm in itertools.permutations((1, 2, 3)):
            assert er.isolated_count(er.ErGraphState(params, perm)) == 1

    def test_pigeonhole_no_isolated(self):
        # with m > C(n-1,2) every vertex must touch an edge
        for n in (4, 5):
            m = ex.binomial(n - 1, 2) + 1
            params = er.ErParams(n, m)
            table = er.pair_table(n)
            for edges in enumerate_edge_sets(params):
                touched = {v for s in edges for v in table[s - 1]}
                assert len(touched) == n

    def test_n4_m1_always_two(self):
        params = er.ErParams(4, 1)
        for slot in range(1, 7):
            perm = (slot,) + tuple(s for s in range(1, 7) if s != slot)
            assert er.isolated_count(er.ErGraphState(params, perm)) == 2


class TestExactMoments:
    def test_known_values(self):
        assert er.exact_moments(er.ErParams(3, 1)) == (Fraction(1), Fraction(0))
        assert er.exact_moments(er.ErParams(4, 2)) == (Fraction(4, 5), Fraction(4, 25))
        assert er.exact_moments(er.ErParams(4, 1)) == (Fraction(2), Fraction(0))

    def test_against_brute_enumeration(self):
        for n in range(3, 7):
            for m in range(1, ex.binomial(n, 2)):
                if ex.binomial(ex.binomial(n, 2), m) > 20_000:
                    continue
                assert er.exact_moments(er.ErParams(n, m)) == brute_er_moments(n, m)

    def test_equal_to_binomial_table(self):
        # every m for n <= 40, the moment-sandwich candidates of acceptance
        # criterion 8 for n <= 120, m = n at 400, and m far above n
        points = [(n, m) for n in range(3, 41) for m in range(1, ex.binomial(n, 2))]
        for n in range(6, 121):
            m_max = int(n * n / 4 - 1.5 * n)
            for m in {1, n // 2, n, 2 * n, int(n**1.5), n * n // 8, m_max}:
                if 0 < m < ex.binomial(n, 2):
                    points.append((n, m))
        points += [(400, 400), (200, 9700)]
        for n, m in points:
            params = er.ErParams(n, m)
            assert er.exact_moments(params) == binomial_table_moments(n, m), (n, m)
            assert er.check_negative_correlation(params) == binomial_table_negative_correlation(
                n, m
            ), (n, m)

    def test_exact_y_law_consistent(self):
        for n, m in [(5, 4), (100, 100), (200, 200), (400, 400)]:
            params = er.ErParams(n, m)
            law = er.exact_y_law(params)
            mu, s2 = er.exact_moments(params)
            assert law.moment(1) == mu
            assert law.moment(2) - mu * mu == s2
            # the extreme counts keep positive mass: at least n - 2m isolated vertices,
            # at most n minus the fewest vertices that can hold m edges
            fewest_covering = next(k for k in range(n + 1) if ex.binomial(k, 2) >= m)
            assert law.values()[0] == max(n - 2 * m, 0)
            assert law.values()[-1] == n - fewest_covering

    def test_exact_y_law_matches_enumeration(self):
        for n in range(3, 9):
            for m in range(1, ex.binomial(n, 2)):
                if ex.binomial(ex.binomial(n, 2), m) <= 200_000:
                    law = er.exact_y_law(er.ErParams(n, m))
                    assert dict(law.atoms) == brute_er_isolated_law(n, m)

    def test_exact_y_law_equals_taylor_shift(self):
        points = [(n, m) for n in range(3, 9) for m in range(1, ex.binomial(n, 2))]
        for n, m in points + [(30, 40), (100, 100)]:
            assert dict(er.exact_y_law(er.ErParams(n, m)).atoms) == taylor_shift_y_law(n, m)


class TestAsymptoticsAndRate:
    def test_approximation_close_in_sparse_regime(self):
        # mean error profile is m/n^2 + m^2/n^3; variance profile 1/m + m^2/n^3,
        # so the variance side needs m >= 100 or so before the 1% level
        params = er.ErParams(400, 20)
        mu, s2 = er.exact_moments(params)
        mu_a, s2_a = er.asymptotic_moments(params)
        assert abs(float(mu) / mu_a - 1) < 0.01
        assert abs(float(s2) / s2_a - 1) < 2 * (1 / 20 + 20**2 / 400**3)
        params = er.ErParams(400, 200)
        mu, s2 = er.exact_moments(params)
        mu_a, s2_a = er.asymptotic_moments(params)
        assert abs(float(mu) / mu_a - 1) < 0.01
        assert abs(float(s2) / s2_a - 1) < 0.01

    def test_mu_constant_at_most_8(self):
        for n in (27, 50, 100, 200, 400):
            for m in {1, n // 4, n, 2 * n, int(n**1.5)}:
                if not 0 < m < ex.binomial(n, 2):
                    continue
                acc = er.asymptotic_accuracy(er.ErParams(n, m))
                assert acc["mu_measured_const"] <= 8.0

    def test_rate_values(self):
        assert er.rate(er.ErParams(3, 1)) == 0.0
        assert er.rate(er.ErParams(4, 2)) == pytest.approx(0.064)

    def test_rate_reported_on_grid(self):
        values = [er.rate(er.ErParams(n, n)) for n in (50, 100, 200)]
        assert all(v > 0 for v in values)


class TestParameterRegion:
    def test_membership(self):
        assert er.in_parameter_region(er.ErParams(344, 28))
        assert not er.in_parameter_region(er.ErParams(100, 50))
        assert not er.in_parameter_region(er.ErParams(400, 8001))
        assert er.in_parameter_region(er.ErParams(400, 8000))

    def test_custom_thresholds(self):
        assert er.in_parameter_region(
            er.ErParams(10, 5), {"n_bar": 5, "m_bar": 1, "c_bar": 1}
        )

    def test_negative_c_bar_gives_empty_region(self):
        th = {"n_bar": 1, "m_bar": 1, "c_bar": 1}
        assert er.in_parameter_region(er.ErParams(100, 100), th)
        assert not er.in_parameter_region(er.ErParams(100, 100), dict(th, c_bar=-1))

    def test_truncation_region_inequality(self):
        # 4m/n + 2 log(min(m,n)) <= min(n,m)/4 throughout the region
        for n in (344, 400, 600, 1000):
            for m in {28, 50, n // 2, n, 2 * n, int(n**1.5)}:
                if not 28 <= m <= n**1.5:
                    continue
                under_t = 4 * m / n + 2 * math.log(min(m, n))
                assert under_t <= er.truncation_level(er.ErParams(n, m))

    def test_domain_labels(self):
        assert er.domain_label(er.ErParams(100, 10)) == "left"
        assert er.domain_label(er.ErParams(100, 100)) == "central"
        assert er.domain_label(er.ErParams(100, 900)) == "right"


def _path_graph_state():
    # edges {1,2} and {2,3}: slots 1 and 4 at n=4; vertex 4 isolated
    params = er.ErParams(4, 2)
    return er.ErGraphState(params, (1, 4, 2, 3, 5, 6))


class TestRedistribution:
    def test_isolated_vertex_trivial(self):
        g = _path_graph_state()
        res = redistribute(g, 4, range(1, 7))
        assert res.relocated_slots == frozenset()
        assert res.b_v == 1

    def test_never_touches_v_and_never_duplicates(self):
        rng = np.random.default_rng(7)
        params = er.ErParams(7, 8)
        table = er.pair_table(7)
        for _ in range(200):
            g = er.sample_graph(params, rng)
            v = int(rng.integers(1, 8))
            res = redistribute(g, v, lazy_permutation(rng, params.slots))
            for s in res.relocated_slots:
                assert v not in table[s - 1]
                assert s not in g.edge_slots()
            assert len(res.relocated_slots) == er.degrees(g)[v - 1]

    def test_exhaustive_sigma_path_graph_middle_vertex(self):
        g = _path_graph_state()
        for sigma in itertools.permutations(range(1, 7)):
            res = redistribute(g, 2, sigma)
            y_v = brute_coupled_isolated(4, g.edge_slots(), 2, res.relocated_slots)
            assert er.isolated_count(g) - y_v == res.b_v
            assert b_v_decomposition(g, 2, res.relocated_slots) == res.b_v

    def test_sigma_stream_matches_subset_law(self):
        # acceptance of the candidate stream is uniform over free-slot subsets
        g = _path_graph_state()
        counts: dict = {}
        for sigma in itertools.permutations(range(1, 7)):
            res = redistribute(g, 2, sigma)
            counts[res.relocated_slots] = counts.get(res.relocated_slots, 0) + 1
        law = dict(relocation_target_law(4, g.edge_slots(), 2))
        assert set(counts) == set(law)
        total = sum(counts.values())
        for subset, c in counts.items():
            assert Fraction(c, total) == law[subset]

    def test_coupled_marginal_is_uniform_smaller_model(self):
        params = er.ErParams(4, 2)
        table = er.pair_table(4)
        law: dict = {}
        w_edges = Fraction(1, 15)
        for edges in enumerate_edge_sets(params):
            edges = frozenset(edges)
            for relocated, w_sub in relocation_target_law(4, edges, 1):
                kept = [s for s in edges if 1 not in table[s - 1]]
                key = frozenset(
                    frozenset(table[s - 1]) for s in itertools.chain(kept, relocated)
                )
                law[key] = law.get(key, Fraction(0)) + w_edges * w_sub
        assert len(law) == 3
        assert all(p == Fraction(1, 3) for p in law.values())

    def test_b_v_decomposition_randomized(self):
        rng = np.random.default_rng(41)
        params = er.ErParams(5, 3)
        for _ in range(10_000):
            g = er.sample_graph(params, rng)
            v = int(rng.integers(1, 6))
            res = redistribute(g, v, lazy_permutation(rng, params.slots))
            assert b_v_decomposition(g, v, res.relocated_slots) == res.b_v

    def test_nontermination_guard(self):
        params = er.ErParams(4, 4)  # C(3,2) = 3 < 4
        g = er.sample_graph(params, np.random.default_rng(0))
        with pytest.raises(ValueError):
            redistribute(g, 1, range(1, 7))

    def test_lazy_permutation_is_uniform(self):
        rng = np.random.default_rng(13)
        counts = np.zeros((4, 4))
        for _ in range(40_000):
            seq = list(itertools.islice(lazy_permutation(rng, 4), 4))
            assert sorted(seq) == [1, 2, 3, 4]
            for pos, val in enumerate(seq):
                counts[pos][val - 1] += 1
        assert np.all(np.abs(counts / 40_000 - 0.25) < 0.01)


class TestCouplingSample:
    def test_moment_identities_mc(self):
        params = er.ErParams(12, 14)
        mu, s2 = er.exact_moments(params)
        sigma = float(s2) ** 0.5
        rng = np.random.default_rng(101)
        reps = 8_000
        gd = np.empty(reps)
        w = np.empty(reps)
        for i in range(reps):
            s = coupling_sample(params, rng)
            gd[i] = s.g * s.d
            w[i] = s.w
            assert abs(s.d) <= (1 + 2 * s.chosen_degree) / sigma + 1e-12
        assert abs(gd.mean() - 1.0) <= 4 * gd.std(ddof=1) / math.sqrt(reps)
        assert abs(w.mean()) <= 4 * w.std(ddof=1) / math.sqrt(reps)
        assert abs((w**2).mean() - 1.0) <= 4 * (w**2).std(ddof=1) / math.sqrt(reps)

    def test_degenerate_raises(self):
        with pytest.raises(er.DegenerateParamsError):
            coupling_sample(er.ErParams(3, 1), np.random.default_rng(0))

    def test_truncation_tally(self):
        params = er.ErParams(40, 40)
        assert er.truncation_level(params) == 10.0
        assert er.truncation_exceeded(params, 11)
        assert not er.truncation_exceeded(params, 10)
        rng = np.random.default_rng(202)
        exceed = sum(
            er.truncation_exceeded(params, coupling_sample(params, rng).chosen_degree)
            for _ in range(500)
        )
        # mean degree is 2m/n = 2; degree > 10 is a rare event
        assert exceed <= 5


class TestNegativeCorrelation:
    def test_hand_cases(self):
        rep = er.check_negative_correlation(er.ErParams(4, 2))
        assert rep["joint"] == 0 and rep["product"] == Fraction(1, 25)
        assert rep["holds"] and rep["variance_caps"]
        rep = er.check_negative_correlation(er.ErParams(3, 1))
        assert rep["joint"] == 0 and rep["product"] == Fraction(1, 9)
        assert rep["holds"]

    def test_grid(self):
        for n in range(3, 31):
            for m in range(1, ex.binomial(n, 2), max(ex.binomial(n, 2) // 10, 1)):
                rep = er.check_negative_correlation(er.ErParams(n, m))
                assert rep["holds"] and rep["variance_caps"]


class TestMomentSandwich:
    def test_examples(self):
        rep = er.check_moment_sandwich(er.ErParams(20, 30))
        assert rep["applicable"] and rep["holds_mu"] and rep["holds_sigma"]
        rep = er.check_moment_sandwich(er.ErParams(7, 1))
        assert rep["applicable"] and rep["holds_mu"] and rep["holds_sigma"]

    def test_hypothesis_gate(self):
        # at n = 6 the admissible range n^2/4 - 3n/2 collapses to m = 0,
        # which the parameter space excludes, so no n = 6 point is applicable
        assert er.check_moment_sandwich(er.ErParams(6, 1)) == {"applicable": False}
        assert er.check_moment_sandwich(er.ErParams(5, 2)) == {"applicable": False}
        assert er.check_moment_sandwich(er.ErParams(10, 11)) == {"applicable": False}


class TestMomentDropRatios:
    THRESH = {"n_bar": 5, "m_bar": 1, "c_bar": 1}

    def test_d_zero_ratios_near_one(self):
        rep = er.check_moment_drop_ratios(er.ErParams(400, 800), 0)
        assert 1.0 <= rep["mean_ratio"] < 1.2
        assert 1.0 <= rep["var_ratio"] < 1.2

    def test_interior_and_boundary(self):
        rep = er.check_moment_drop_ratios(er.ErParams(400, 800), 10)
        assert rep["below_ceiling"]
        d_max = int(min(400, 800) / 4)
        rep = er.check_moment_drop_ratios(er.ErParams(400, 800), d_max)
        assert math.isfinite(rep["mean_ratio"]) and math.isfinite(rep["var_ratio"])

    def test_d_out_of_range(self):
        with pytest.raises(ValueError):
            er.check_moment_drop_ratios(er.ErParams(400, 800), 201)
        with pytest.raises(ValueError):
            er.check_moment_drop_ratios(er.ErParams(100, 50), 1)  # outside region


class TestGDConditionalVariance:
    def test_matches_exhaustive_oracle_at_4_2(self):
        # oracle: full enumeration over edge sets and candidate permutations,
        # using variance decomposition across independent per-vertex streams
        params = er.ErParams(4, 2)
        mu, s2 = er.exact_moments(params)
        table = er.pair_table(4)
        perms = list(itertools.permutations(range(1, 7)))
        w_edges = Fraction(1, 15)
        mean_x = Fraction(0)
        mean_x2 = Fraction(0)
        for edges in enumerate_edge_sets(params):
            rest = tuple(s for s in range(1, 7) if s not in edges)
            g = er.ErGraphState(params, tuple(edges) + rest)
            deg = er.degrees(g)
            eb, eb2 = [], []
            for v in range(1, 5):
                b1 = Fraction(0)
                b2 = Fraction(0)
                for sigma in perms:
                    b = redistribute(g, v, sigma).b_v
                    b1 += Fraction(b, len(perms))
                    b2 += Fraction(b * b, len(perms))
                eb.append(b1)
                eb2.append(b2)
            a = [(Fraction(1 if deg[v] == 0 else 0) - mu / 4) / s2 for v in range(4)]
            mean_x += w_edges * sum(ai * bi for ai, bi in zip(a, eb))
            m2 = Fraction(0)
            for v in range(4):
                for w in range(4):
                    m2 += a[v] * a[w] * (eb2[v] if v == w else eb[v] * eb[w])
            mean_x2 += w_edges * m2
        assert mean_x == 1  # E[GD] = Var W = 1
        exact_sd = math.sqrt(mean_x2 - mean_x**2)

        rng = np.random.default_rng(31)
        reps = 4_000
        est = gd_conditional_variance_estimate(params, rng, reps)
        # generous band: 3 standard errors of a variance estimate
        assert abs(est**2 - float(mean_x2 - 1)) <= 3 * 0.6 / math.sqrt(reps) + 0.01
        assert abs(est - exact_sd) < 0.05

    def test_degenerate_raises(self):
        with pytest.raises(er.DegenerateParamsError):
            gd_conditional_variance_estimate(er.ErParams(3, 1), np.random.default_rng(0), 10)

    def test_rate_product_reported_on_central_grid(self):
        # sqrt-variance proxy times the rate stays finite (reported only)
        rng = np.random.default_rng(117)
        for n in (30, 60):
            params = er.ErParams(n, n)
            est = gd_conditional_variance_estimate(params, rng, 200)
            assert math.isfinite(est * er.rate(params))


class TestKolmogorovEstimate:
    def test_exact_delta_within_band_at_4_2(self):
        params = er.ErParams(4, 2)
        exact = sc.kolmogorov_discrete_vs_normal(er.exact_w_law(params))
        rng = np.random.default_rng(71)
        rep = er.kolmogorov_estimate(params, rng, 5_000)
        assert abs(rep["delta_hat"] - exact) <= rep["dkw_band"]

    def test_reports_rate_product(self):
        rng = np.random.default_rng(72)
        rep = er.kolmogorov_estimate(er.ErParams(30, 30), rng, 2_000)
        assert rep["delta_times_rate"] == pytest.approx(rep["delta_hat"] * rep["rate"])


@given(st.integers(3, 8), st.data())
@settings(max_examples=40, deadline=None)
def test_graph_invariants_random(n, data):
    N = ex.binomial(n, 2)
    m = data.draw(st.integers(1, N - 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    g = er.sample_graph(er.ErParams(n, m), rng)
    deg = er.degrees(g)
    assert sum(deg) == 2 * m
    assert len(g.edge_slots()) == m
    assert er.isolated_count(g) == sum(1 for d in deg if d == 0)
    if m <= ex.binomial(n - 1, 2):
        v = data.draw(st.integers(1, n))
        res = redistribute(g, v, lazy_permutation(rng, N))
        assert len(res.relocated_slots) == deg[v - 1]
        assert res.relocated_slots.isdisjoint(g.edge_slots())
        y_v = brute_coupled_isolated(n, g.edge_slots(), v, res.relocated_slots)
        assert res.b_v == er.isolated_count(g) - y_v
        assert b_v_decomposition(g, v, res.relocated_slots) == res.b_v
