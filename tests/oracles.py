"""Independent brute-force oracles used to freeze expected values.

Each oracle recomputes its target quantity by direct enumeration or
recurrence, along a different route than the implementation under test.
Only ``loop_jack_batch`` imports steinlab internals: it replays the scalar
growth loop, one chain at a time, that the vectorized batch sweep must equal.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

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


def brute_coupled_isolated(n: int, edge_slots, v: int, relocated_slots) -> int:
    """Isolated vertices of the coupled graph: vertex v removed and its edges
    replaced by the relocated slots (1-based, row-major pair order)."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    kept = [pairs[s - 1] for s in edge_slots if v not in pairs[s - 1]]
    touched = {w for e in kept + [pairs[s - 1] for s in relocated_slots] for w in e}
    return sum(1 for w in range(1, n + 1) if w != v and w not in touched)


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
