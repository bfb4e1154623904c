"""Exact coupling-identity checks over full state enumerations."""

import itertools
import math
from fractions import Fraction

import pytest

from steinlab import er_model as er
from steinlab.stein_core import law_from_pairs

from oracles import (
    brute_coupled_isolated,
    enumerate_edge_sets,
    relocation_target_law,
    subset_stein_identity,
)

# every nondegenerate (n, m) with n <= 5, and the cheapest two at n = 6
SUBSET_POINTS = [
    (n, m) for n in range(3, 6) for m in range(1, math.comb(n, 2))
    if er.exact_moments(er.ErParams(n, m))[1]
] + [(6, 2), (6, 3)]


class TestSteinIdentity:
    @pytest.mark.parametrize("nm", [(4, 2), (5, 3)])
    @pytest.mark.parametrize("coeffs", [[0, 1], [0, 0, 1], [0, 0, 0, 1]])
    def test_exact_equality(self, nm, coeffs):
        rep = er.check_stein_identity_exhaustive(er.ErParams(*nm), coeffs)
        assert not rep["skipped"]
        assert rep["equal"], rep

    def test_linear_f_gives_variance(self):
        rep = er.check_stein_identity_exhaustive(er.ErParams(4, 2), [0, 1])
        # E[G(Y' - Y)] = E[(Y - mu) Y] = Var Y; equals 1 after standardization
        assert rep["lhs"] == Fraction(4, 25)
        _, s2 = er.exact_moments(er.ErParams(4, 2))
        assert rep["lhs"] == s2
        rep = er.check_stein_identity_exhaustive(er.ErParams(6, 7), [0, 1])
        assert rep["equal"] and rep["lhs"] == er.exact_moments(er.ErParams(6, 7))[1]

    @pytest.mark.parametrize("nm", SUBSET_POINTS)
    def test_sides_equal_subset_enumeration(self, nm):
        coeffs = [1, -2, 0, 1]
        rep = er.check_stein_identity_exhaustive(er.ErParams(*nm), coeffs)
        assert (rep["lhs"], rep["rhs"]) == subset_stein_identity(*nm, coeffs)

    def test_degenerate_skipped(self):
        rep = er.check_stein_identity_exhaustive(er.ErParams(3, 1), [0, 1])
        assert rep["skipped"] and "degenerate" in rep["reason"]

    def test_linear_f_gives_variance_past_n_six(self):
        # no size cap: the (d, z, h) law reaches n = 7 and beyond
        for nm in [(7, 3), (10, 10), (20, 20)]:
            rep = er.check_stein_identity_exhaustive(er.ErParams(*nm), [0, 1])
            assert rep["equal"] and rep["lhs"] == er.exact_moments(er.ErParams(*nm))[1], nm

    def test_affine_equivalence_with_standardized_form(self):
        # the unstandardized rational identity implies the standardized one:
        # rebuild both sides of E[G f(W') - G f(W)] = E[W f(W)] for f = x^2
        # in floats from the same enumeration and compare
        params = er.ErParams(4, 2)
        mu, s2 = er.exact_moments(params)
        mu_f, sigma = float(mu), float(s2) ** 0.5
        table = er.pair_table(4)
        w_edges = 1.0 / 15.0
        lhs = 0.0
        rhs = 0.0
        for edges in enumerate_edge_sets(params):
            edges = frozenset(edges)
            deg = [0] * 4
            for s in edges:
                a, b = table[s - 1]
                deg[a - 1] += 1
                deg[b - 1] += 1
            y = sum(1 for d in deg if d == 0)
            w = (y - mu_f) / sigma
            rhs += w_edges * w * w**2
            for v in range(1, 5):
                g = -(4 / sigma) * ((1 if deg[v - 1] == 0 else 0) - mu_f / 4)
                for relocated, w_sub in relocation_target_law(4, edges, v):
                    y_v = brute_coupled_isolated(4, edges, v, relocated)
                    w_prime = (y_v - mu_f) / sigma
                    lhs += w_edges * 0.25 * float(w_sub) * g * (w_prime**2 - w**2)
        assert abs(lhs - rhs) < 1e-12


class TestCoupledLaw:
    @pytest.mark.parametrize(
        "nm", [(n, m) for n in range(3, 9) for m in range(1, math.comb(n, 2))] + [(40, 40)]
    )
    def test_coupling_law_y_marginal_is_exact_y_law(self, nm):
        # Y = z - h + [d = 0] under the (d, z, h) law of one vertex
        params = er.ErParams(*nm)
        pairs = ((z - h + (d == 0), p) for p, d, z, h in er._coupling_law(params))
        assert law_from_pairs(pairs) == er.exact_y_law(params)

    def test_chain_equals_relocation_subsets(self):
        # the law of Y_v given (G, v) by the edge chain from the z vertices that
        # keep no edge once v is removed, against a recount of every subset
        for n in range(3, 6):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for m in range(1, math.comb(n - 1, 2) + 1):
                for edges in itertools.combinations(range(1, len(pairs) + 1), m):
                    for v in range(1, n + 1):
                        kept = [pairs[s - 1] for s in edges if v not in pairs[s - 1]]
                        touched = {w for e in kept for w in e}
                        z = n - 1 - len(touched)
                        d = m - len(kept)
                        free = math.comb(n - 1, 2) - len(kept)
                        count = er._edge_chain(n - 1, free, z, d)
                        total = math.perm(free, d)
                        assert sum(count) == total
                        chain = {k: Fraction(c, total) for k, c in enumerate(count) if c}
                        subsets: dict = {}
                        for relocated, w_sub in relocation_target_law(n, edges, v):
                            y_v = brute_coupled_isolated(n, edges, v, relocated)
                            subsets[y_v] = subsets.get(y_v, 0) + w_sub
                        assert chain == subsets, (n, edges, v)


class TestExhaustiveGDIdentity:
    def test_mean_gd_is_one(self):
        # restatement of Var W = 1 through the coupling, exact at (4, 2)
        params = er.ErParams(4, 2)
        mu, s2 = er.exact_moments(params)
        table = er.pair_table(4)
        total = Fraction(0)
        w_edges = Fraction(1, 15)
        for edges in enumerate_edge_sets(params):
            edges = frozenset(edges)
            deg = [0] * 4
            for s in edges:
                a, b = table[s - 1]
                deg[a - 1] += 1
                deg[b - 1] += 1
            y = sum(1 for d in deg if d == 0)
            for v in range(1, 5):
                g = mu - 4 * (1 if deg[v - 1] == 0 else 0)
                for relocated, w_sub in relocation_target_law(4, edges, v):
                    y_v = brute_coupled_isolated(4, edges, v, relocated)
                    total += w_edges * Fraction(1, 4) * w_sub * g * (y_v - y)
        assert total / s2 == 1
