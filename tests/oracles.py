"""Independent brute-force oracles used to freeze expected values.

Each oracle recomputes its target quantity by direct enumeration or
recurrence, along a different route than the implementation under test.
Only ``loop_jack_batch`` imports steinlab internals: it replays the scalar
growth loop, one chain at a time, that the vectorized batch sweep must equal.
The exact ER laws have two references here, on routes the edge chain does
not take: the Taylor shift of the binomial moments for the law of Y, and the
enumeration of relocation-target subsets for the law of Y_v given (G, v).
``loop_efron_stein`` is the exhaustive Efron-Stein check as three Fraction
loops over the states, the reference for the integer-table check.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from steinlab.jack_model import _grow, content_scale


@lru_cache(maxsize=None)
def pascal_binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    if k == 0 or k == n:
        return 1
    return pascal_binomial(n - 1, k - 1) + pascal_binomial(n - 1, k)


def product_falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def brute_hyp_pmf(N: int, m: int, n: int, k: int) -> Fraction:
    """P[H = k] by enumerating all m-subsets of an N-ball urn."""
    special = set(range(n))
    hits = 0
    total = 0
    for draw in itertools.combinations(range(N), m):
        total += 1
        if sum(1 for b in draw if b in special) == k:
            hits += 1
    return Fraction(hits, total)


def brute_hyp_moment(N: int, m: int, n: int, j: int) -> Fraction:
    special = set(range(n))
    acc = Fraction(0)
    total = 0
    for draw in itertools.combinations(range(N), m):
        total += 1
        acc += Fraction(sum(1 for b in draw if b in special)) ** j
    return acc / total


@lru_cache(maxsize=None)
def partition_count(n: int, cap: int | None = None) -> int:
    """p(n) by the bounded-largest-part recurrence."""
    if cap is None:
        cap = n
    if n == 0:
        return 1
    if cap == 0:
        return 0
    return sum(partition_count(n - k, min(k, n - k)) for k in range(1, cap + 1))


def brute_er_moments(n: int, m: int) -> tuple[Fraction, Fraction]:
    """(mean, variance) of the isolated-vertex count by edge-set enumeration.

    Uses its own pair enumeration, independent of the package's slot table.
    """
    pairs = list(itertools.combinations(range(n), 2))
    total = 0
    s1 = 0
    s2 = 0
    for edges in itertools.combinations(pairs, m):
        total += 1
        touched = set()
        for a, b in edges:
            touched.add(a)
            touched.add(b)
        y = n - len(touched)
        s1 += y
        s2 += y * y
    mu = Fraction(s1, total)
    return mu, Fraction(s2, total) - mu * mu


def binomial_moment_table(n: int, m: int) -> list[int]:
    """[S_0, S_1, S_2] with S_j = C(n,j) C(C(n-j,2), m) = C(N,m) E C(Y,j)."""
    return [math.comb(n, j) * math.comb(math.comb(n - j, 2), m) for j in range(3)]


def binomial_table_moments(n: int, m: int) -> tuple[Fraction, Fraction]:
    """(mean, variance) of the isolated-vertex count from the binomial moments."""
    s = binomial_moment_table(n, m)
    mu = Fraction(s[1], s[0])
    return mu, mu + Fraction(2 * s[2], s[0]) - mu * mu


def binomial_table_negative_correlation(n: int, m: int) -> dict:
    """The negative-correlation report from Fractions of the binomial moments."""
    s = binomial_moment_table(n, m)
    joint = Fraction(s[2], math.comb(n, 2) * s[0])
    single = Fraction(s[1], n * s[0])
    mu, s2 = binomial_table_moments(n, m)
    return {
        "joint": joint,
        "product": single * single,
        "holds": joint <= single * single,
        "variance_caps": s2 <= mu and s2 <= 2 * m,
    }


def brute_er_isolated_law(n: int, m: int) -> dict[int, Fraction]:
    pairs = list(itertools.combinations(range(n), 2))
    acc: dict[int, Fraction] = {}
    total = 0
    for edges in itertools.combinations(pairs, m):
        total += 1
        touched = {v for e in edges for v in e}
        y = n - len(touched)
        acc[y] = acc.get(y, 0) + 1
    return {y: Fraction(c, total) for y, c in acc.items()}


def taylor_shift_y_law(n: int, m: int) -> dict[int, Fraction]:
    """Law of the isolated-vertex count: the Taylor shift of sum_j S_j x^j to
    x - 1, by additions only, has the coefficients C(N,m) P(Y = k)."""
    c = [math.comb(n, j) * math.comb(math.comb(n - j, 2), m) for j in range(n + 1)]
    total = c[0]
    for i in range(len(c) - 1):
        for k in range(len(c) - 2, i - 1, -1):
            c[k] -= c[k + 1]
    return {k: Fraction(ck, total) for k, ck in enumerate(c) if ck}


def relocation_target_law(n: int, edge_slots, v: int):
    """Uniform law of the accepted-slot set: all d_v-subsets of free slots.

    The candidate stream visits free slots in uniform random order, so the
    accepted set is a uniform d_v-subset of the slots neither incident to v
    nor already occupied.  Yields (subset, probability) pairs.
    """
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    d_v = sum(1 for s in edge_slots if v in pairs[s - 1])
    allowed = [
        s for s in range(1, len(pairs) + 1) if v not in pairs[s - 1] and s not in edge_slots
    ]
    w = Fraction(1, math.comb(len(allowed), d_v))
    for subset in itertools.combinations(allowed, d_v):
        yield frozenset(subset), w


def subset_stein_identity(n: int, m: int, coeffs) -> tuple[Fraction, Fraction]:
    """(lhs, rhs) of E[G(f(Y') - f(Y))] = E[(Y - mu) f(Y)] with G = mu - n I_V,
    by enumerating edge sets, the chosen vertex and relocation-target subsets."""

    def f(y):
        return sum(Fraction(c) * y**k for k, c in enumerate(coeffs))

    pairs = list(itertools.combinations(range(1, n + 1), 2))
    mu, _ = brute_er_moments(n, m)
    w_edges = Fraction(1, math.comb(len(pairs), m))
    lhs = rhs = Fraction(0)
    for edges in itertools.combinations(range(1, len(pairs) + 1), m):
        touched = {w for s in edges for w in pairs[s - 1]}
        y = n - len(touched)
        rhs += w_edges * (y - mu) * f(y)
        for v in range(1, n + 1):
            g = mu - n * (v not in touched)
            for relocated, w_sub in relocation_target_law(n, edges, v):
                y_v = brute_coupled_isolated(n, edges, v, relocated)
                lhs += w_edges * Fraction(1, n) * w_sub * g * (f(y_v) - f(y))
    return lhs, rhs


def brute_coupled_isolated(n: int, edge_slots, v: int, relocated_slots) -> int:
    """Isolated vertices of the coupled graph: vertex v removed and its edges
    replaced by the relocated slots (1-based, row-major pair order)."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    kept = [pairs[s - 1] for s in edge_slots if v not in pairs[s - 1]]
    touched = {w for e in kept + [pairs[s - 1] for s in relocated_slots] for w in e}
    return sum(1 for w in range(1, n + 1) if w != v and w not in touched)


def edge_index(v: int, w: int, n: int) -> int:
    """1-based slot of the pair {v, w}, v < w, in the row-major pair order, in
    closed form: the reference for ``pair_table`` and ``np.triu_indices``."""
    return (v - 1) * n - v * (v - 1) // 2 + (w - v)


def slot_to_pair(i: int, n: int) -> tuple[int, int]:
    """Inverse of ``edge_index``, by walking the rows of the pair order."""
    v = 1
    while i > n - v:
        i -= n - v
        v += 1
    return v, v + i


def b_v_decomposition(graph, v: int, relocated_slots) -> int:
    """b_v = Y - Y_v as I_v + sum of I_w over the receiving vertices (endpoints
    of the relocated slots) - sum of I[d_w = 1] over the lost neighbors (the
    neighbors of v that receive none of them)."""
    n = graph.params.n
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = [pairs[s - 1] for s in graph.edge_slots()]
    deg = {w: sum(1 for e in edges if w in e) for w in range(1, n + 1)}
    receiving = {w for s in relocated_slots for w in pairs[s - 1]}
    neighbors = {w for e in edges if v in e for w in e if w != v}
    return (
        (deg[v] == 0)
        + sum(1 for w in receiving if deg[w] == 0)
        - sum(1 for w in neighbors - receiving if deg[w] == 1)
    )


def _hook_product(parts: tuple, alpha: Fraction, extra=1) -> Fraction:
    """prod over boxes of (alpha arm + leg + extra), each leg found by
    scanning the rows below the box."""
    out = Fraction(1)
    for r, lam in enumerate(parts):
        for c in range(lam):
            leg = sum(1 for below in parts[r + 1:] if below > c)
            out *= alpha * (lam - 1 - c) + leg + extra
    return out


def literal_jack_probability(parts: tuple, alpha) -> Fraction:
    """alpha^n n! / (prod (alpha a + l + 1) prod (alpha a + l + alpha))."""
    alpha = Fraction(alpha)
    n = sum(parts)
    hooks = _hook_product(parts, alpha) * _hook_product(parts, alpha, alpha)
    return alpha**n * math.factorial(n) / hooks


def literal_transition_probs(parts: tuple, alpha) -> list[tuple]:
    """One-step Jack growth law from hook products, box by box.

    Returns (corner, content, prob) per addable corner, top row first, with
    1-based (row, col) corners.  The weight of a corner is the ratio of the
    lower hook products of the old and grown diagram times the column
    correction over the boxes above the new box.
    """
    alpha = Fraction(alpha)
    corners = [(1, parts[0] + 1)]
    corners += [(i + 1, parts[i] + 1) for i in range(1, len(parts)) if parts[i] < parts[i - 1]]
    corners.append((len(parts) + 1, 1))
    old_hooks = _hook_product(parts, alpha)
    out = []
    for r, c in corners:
        grown = list(parts) + [0]
        grown[r - 1] += 1
        grown = tuple(p for p in grown if p)
        psi = Fraction(1)
        for i in range(1, r):
            a_new = grown[i - 1] - c
            l_new = sum(1 for rr in range(i, len(grown)) if grown[rr] >= c)
            a_old = parts[i - 1] - c
            l_old = sum(1 for rr in range(i, len(parts)) if parts[rr] >= c)
            psi *= (alpha * a_new + l_new + 1) / (alpha * a_new + l_new + alpha)
            psi *= (alpha * a_old + l_old + alpha) / (alpha * a_old + l_old + 1)
        prob = old_hooks / _hook_product(grown, alpha) * psi
        out.append(((r, c), alpha * (c - 1) - (r - 1), prob))
    return out


def argsort_distinct_rows(rng, N: int, m: int, rows: int):
    """(rows, m) distinct slot draws by stable-argsort rejection over all rows.

    Each pass re-sorts every row and redraws, in row-major order, every entry
    that repeats an earlier entry of its row; the sampler under test must
    consume the rng stream the same way.
    """
    out = rng.integers(0, N, size=(rows, m), dtype=np.int64)
    while True:
        order = np.argsort(out, axis=1, kind="stable")
        svals = np.take_along_axis(out, order, axis=1)
        eq = svals[:, 1:] == svals[:, :-1]
        if not eq.any():
            return out
        dup_sorted = np.concatenate([np.zeros((rows, 1), dtype=bool), eq], axis=1)
        dup = np.zeros_like(out, dtype=bool)
        np.put_along_axis(dup, order, dup_sorted, axis=1)
        out[dup] = rng.integers(0, N, size=int(dup.sum()))


def loop_jack_batch(n: int, alpha, rng, size: int) -> dict:
    """``sample_jack_batch`` as a per-draw loop over the scalar ``_grow``."""
    if n < 2:
        raise ValueError("standardized sampling needs n >= 2")
    af = float(Fraction(alpha))
    scale = content_scale(n, alpha)
    w = np.empty(size)
    lam1_prev = np.empty(size, dtype=np.int64)
    for i in range(size):
        runs, boxes, y = _grow(n, af, rng)
        w[i] = y / scale
        lam1_prev[i] = runs[0][0] - (boxes[-1][0] == 0)  # first row before the last box
    return {"w": w, "lambda1_prev": lam1_prev}


def _all_perms(N: int):
    return [tuple(p) for p in itertools.permutations(range(1, N + 1))]


def loop_efron_stein(h: Callable, N: int, n_sigma: int) -> dict:
    """Exhaustive check of the single-coordinate/transposition variance bound.

    ``h(pi, sigmas)`` takes a permutation of [N] and a tuple of ``n_sigma``
    permutations, and may return int or Fraction.  The variance and the
    right-hand side are computed exactly over the full product space, with
    each transposition tau_j averaged over its uniform target in {j..N}.
    """
    if N > 4 or n_sigma > 2:
        raise ValueError("exhaustive enumeration kept feasible only for N <= 4, n_sigma <= 2")
    perms = _all_perms(N)
    nper = len(perms)
    sigma_tuples = list(itertools.product(perms, repeat=n_sigma))
    states = [(pi, sig) for pi in perms for sig in sigma_tuples]
    weight = Fraction(1, len(states))

    hval = {st: Fraction(h(*st)) for st in states}
    mean = sum(hval[st] * weight for st in states)
    var = sum((hval[st] - mean) ** 2 * weight for st in states)

    # sum over coordinates of Sigma: replace sigma_i by an independent copy
    first = Fraction(0)
    for i in range(n_sigma):
        acc = Fraction(0)
        for pi, sig in states:
            base = hval[(pi, sig)]
            for rep in perms:
                other = sig[:i] + (rep,) + sig[i + 1 :]
                acc += (base - hval[(pi, other)]) ** 2
        first += acc * weight / nper

    # sum over positions j: compose pi with tau_j, averaged over its target;
    # pi tau_j is pi with positions j and target exchanged
    second = Fraction(0)
    for j in range(1, N):
        acc = Fraction(0)
        for pi, sig in states:
            base = hval[(pi, sig)]
            for target in range(j, N + 1):
                moved = list(pi)
                moved[j - 1], moved[target - 1] = pi[target - 1], pi[j - 1]
                acc += Fraction((base - hval[(tuple(moved), sig)]) ** 2, N - j + 1)
        second += acc * weight

    bound = first / 2 + second / 2
    return {"var": var, "bound": bound, "holds": var <= bound}
