"""Independent brute-force oracles used to freeze expected values.

Each oracle recomputes its target quantity by direct enumeration or
recurrence, along a different route than the implementation under test.
Four groups import steinlab internals.  ``loop_jack_batch`` replays the
scalar growth loop, one chain at a time, that the vectorized batch sweep
must equal.  ``axis_scan_sweep`` and ``axis_scan_corner_law`` are the batch
sweep as it was with axis-0 ``np.cumsum`` and ``np.logical_and.accumulate``
scans, which the lane-by-lane sweep must equal bit for bit.
``two_call_jack_row`` builds a jack-report row from one sampler call per
estimate, which the one-sweep row must equal.  The per-draw redistribution
coupling (``redistribute``, ``lazy_permutation``, ``coupling_sample`` and
``gd_conditional_variance_estimate``) is the literal construction behind the
exact Stein-identity check's reductions, on the package's graph state, and
``enumerate_edge_sets`` lists the equally likely edge sets it starts from.
The exact Jack quantities (content sum, chain law, content moments and the
zero-bias identity) have Fraction references here, on the hook-product
measure and transition law with unscaled contents, for the integer-scaled
implementation; they take the partitions from ``enumerate_partitions``.
The exact ER laws have two references here, on routes the edge chain does
not take: the Taylor shift of the binomial moments for the law of Y, and the
enumeration of relocation-target subsets for the law of Y_v given (G, v).
``loop_efron_stein`` is the exhaustive Efron-Stein check as three Fraction
loops over the states, the reference for the integer-table check.
``ScriptedGenerator`` replays fixed draws in place of a random generator, so
that a test can force a sampler's rare branches.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from steinlab import cli, er_model as er, jack_model as jm
from steinlab.jack_model import _grow, content_scale, enumerate_partitions
from steinlab.stein_core import kolmogorov_discrete_vs_normal, normal_cdf


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


def enumerate_edge_sets(params) -> Iterator[tuple]:
    """All C(N, m) edge-slot subsets of ``params``, each equally likely."""
    return itertools.combinations(range(1, params.slots + 1), params.m)


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


# ---------------------------------------------------------------------------
# The redistribution coupling, one draw at a time
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RedistributionResult:
    relocated_slots: frozenset
    b_v: int


def lazy_permutation(rng: np.random.Generator, N: int) -> Iterator[int]:
    """Uniform permutation of 1..N, materializing only the consumed prefix."""
    vals: dict[int, int] = {}
    for i in range(N):
        j = int(rng.integers(i, N))
        out = vals.get(j, j)
        vals[j] = vals.get(i, i)
        yield out + 1


def redistribute(graph, v: int, sigma_v: Iterable[int]) -> RedistributionResult:
    """Remove vertex v and relocate its edges onto candidate slots.

    ``sigma_v`` is consumed in order; a candidate slot is accepted when it is
    not incident to v and not already an edge.  Deterministic given the graph
    and the candidate sequence.  Returns the accepted slots and b_v = Y - Y_v,
    where Y_v, the isolated-vertex count of the coupled graph, is recounted
    from its edges.  The exhaustive Stein-identity check does not recount: it
    reads the law of Y_v from the edge chain.
    """
    return _redistribute(graph, er.degrees(graph), v, sigma_v)


def _redistribute(graph, deg: list[int], v: int, sigma_v: Iterable[int]) -> RedistributionResult:
    """``redistribute`` given the degree list of ``graph``."""
    params = graph.params
    n, m = params.n, params.m
    if m > math.comb(n - 1, 2):
        raise ValueError("redistribution cannot terminate: m > C(n-1, 2)")
    table = er.pair_table(n)
    edges = graph.edge_slots()
    d_v = deg[v - 1]

    relocated = set()
    it = iter(sigma_v)
    while len(relocated) < d_v:
        slot = next(it)
        if v not in table[slot - 1] and slot not in edges:
            relocated.add(slot)

    kept = [s for s in edges if v not in table[s - 1]]
    # v keeps no edge: it is one of the zeros but not a vertex of the coupled graph
    y_v = er._degrees_of_edges(kept + list(relocated), table, n).count(0) - 1
    return RedistributionResult(relocated_slots=frozenset(relocated), b_v=deg.count(0) - y_v)


@dataclass(frozen=True)
class ErCouplingSample:
    w: float
    w_prime: float
    g: float
    d: float
    chosen_vertex: int
    chosen_degree: int


def coupling_sample(params, rng: np.random.Generator) -> ErCouplingSample:
    """One standardized draw (W, W', G, D) from the coupling construction."""
    mu, s2 = er._nondegenerate_moments(params)
    sigma = float(s2) ** 0.5
    graph = er.sample_graph(params, rng)
    v = int(rng.integers(1, params.n + 1))
    res = redistribute(graph, v, lazy_permutation(rng, params.slots))
    deg = er.degrees(graph)
    y = deg.count(0)
    y_v = y - res.b_v
    d_v = deg[v - 1]
    w = (y - float(mu)) / sigma
    w_prime = (y_v - float(mu)) / sigma
    g = -(params.n / sigma) * ((1 if d_v == 0 else 0) - float(mu) / params.n)
    return ErCouplingSample(w, w_prime, g, w_prime - w, v, d_v)


def gd_conditional_variance_estimate(params, rng: np.random.Generator, samples: int) -> float:
    """sqrt of the Monte Carlo variance of E(GD | pi, Sigma).

    The inner expectation over the chosen vertex is computed exactly per
    sampled state: (1/sigma^2) sum_v (I_v - mu/n) B_v, with an independent
    candidate stream per vertex.
    """
    mu, s2 = er._nondegenerate_moments(params)
    n = params.n
    mu_f, s2_f = float(mu), float(s2)
    vals = np.empty(samples)
    for i in range(samples):
        graph = er.sample_graph(params, rng)
        deg = er.degrees(graph)
        total = 0.0
        for v in range(1, n + 1):
            res = _redistribute(graph, deg, v, lazy_permutation(rng, params.slots))
            total += ((1 if deg[v - 1] == 0 else 0) - mu_f / n) * res.b_v
        vals[i] = total / s2_f
    return float(np.sqrt(max(vals.var(ddof=1), 0.0)))


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


def fraction_content_sum(parts: tuple, alpha) -> Fraction:
    """Y = sum over rows of alpha C(lam_i, 2) - (i-1) lam_i, in Fractions."""
    alpha = Fraction(alpha)
    return sum(
        alpha * Fraction(lam * (lam - 1), 2) - (i - 1) * lam
        for i, lam in enumerate(parts, start=1)
    )


def fraction_chain_law(n: int, alpha) -> dict:
    """Law of the growth chain at time n by forward recursion over partitions,
    with the hook-product transition law; partitions in first-reached order."""
    law = {(1,): Fraction(1)}
    for _ in range(n - 1):
        nxt: dict = {}
        for parts, p in law.items():
            for (r, _), _, tp in literal_transition_probs(parts, alpha):
                grown = list(parts) + [0]
                grown[r - 1] += 1
                grown = tuple(q for q in grown if q)
                nxt[grown] = nxt.get(grown, Fraction(0)) + p * tp
        law = nxt
    return law


def _fraction_measure(n: int, alpha: Fraction) -> list[tuple[Fraction, Fraction]]:
    return [
        (literal_jack_probability(parts, alpha), fraction_content_sum(parts, alpha))
        for parts in enumerate_partitions(n)
    ]


def fraction_jack_moments(n: int, alpha) -> dict:
    """``check_jack_moments`` in Fractions over the hook-product measure."""
    alpha = Fraction(alpha)
    measure = _fraction_measure(n, alpha)
    ey = sum(p * y for p, y in measure)
    ey2 = sum(p * y**2 for p, y in measure)
    return {"ey": ey, "ey2": ey2, "holds": ey == 0 and ey2 == alpha * math.comb(n, 2)}


def _u_integral(v: Fraction, ci: Fraction, cj: Fraction, power: int) -> Fraction:
    """int_0^1 (v + u ci + (1-u) cj)^power du, exact."""
    if power == 0:
        return Fraction(1)
    hi, lo = v + ci, v + cj
    if ci == cj:
        return hi**power
    return (hi ** (power + 1) - lo ** (power + 1)) / ((power + 1) * (hi - lo))


def fraction_zero_bias_identity(n: int, alpha, coeffs) -> dict:
    """``check_zero_bias_identity`` in Fractions: the hook-product measure at n,
    the hook-product chain to n-1, the normalized pair table
    p_i p_j (c_i - c_j)^2 on unscaled contents, and the u-integral in closed
    form, monomial by monomial."""
    alpha = Fraction(alpha)
    coeffs = [Fraction(c) for c in coeffs]
    scale2 = alpha * math.comb(n, 2)
    scale = float(scale2) ** 0.5
    measure = _fraction_measure(n, alpha)
    pair_tables = []
    for parts, prob in fraction_chain_law(n - 1, alpha).items():
        law = literal_transition_probs(parts, alpha)
        raw = {
            (i, j): pi * pj * (ci - cj) ** 2
            for i, (_, ci, pi) in enumerate(law)
            for j, (_, cj, pj) in enumerate(law)
            if i != j
        }
        total = sum(raw.values())
        weights = {ij: wt / total for ij, wt in raw.items()}
        pair_tables.append((prob, fraction_content_sum(parts, alpha), [c for _, c, _ in law], weights))

    lhs_total = rhs_total = 0.0
    exact_all = True
    per_monomial = {}
    for k, coef in enumerate(coeffs):
        if coef == 0:
            continue
        lhs_k = sum(p * y ** (k + 1) for p, y in measure)  # times scale^-(k+1)
        rhs_k = k * sum(
            prob * sum(wt * _u_integral(v, cs[i], cs[j], k - 1) for (i, j), wt in weights.items())
            for prob, v, cs, weights in pair_tables
        ) if k else Fraction(0)  # times scale^-(k-1)
        equal = lhs_k == rhs_k * scale2
        per_monomial[k] = equal
        exact_all = exact_all and equal
        lhs_total += float(coef) * float(lhs_k) / scale ** (k + 1)
        rhs_total += float(coef) * float(rhs_k) / scale ** max(k - 1, 0)
    return {
        "lhs": lhs_total,
        "rhs": rhs_total,
        "max_abs_err": abs(lhs_total - rhs_total),
        "exact_equal": exact_all,
        "per_monomial": per_monomial,
    }


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


class ScriptedGenerator:
    """Stand-in for ``np.random.Generator`` whose ``integers`` returns queued
    arrays in order, checking each request's size and range against the next
    one, and whose ``random()`` returns the queued ``doubles`` one at a time;
    ``done`` says whether the whole script was consumed.  A request for no
    values takes none from the script, as it takes no bits from a real
    generator."""

    def __init__(self, *draws, doubles=()):
        self.draws = [np.asarray(d, dtype=np.int64) for d in draws]
        self.doubles = [float(d) for d in doubles]

    def random(self) -> float:
        assert self.doubles, "unscripted double"
        return self.doubles.pop(0)

    def integers(self, low, high, size=None, dtype=np.int64):
        if np.empty(size, dtype=bool).size == 0:
            return np.empty(size, dtype=dtype)
        assert self.draws, f"unscripted draw of size {size}"
        draw = self.draws.pop(0)
        assert draw.shape == np.empty(size, dtype=bool).shape, (draw.shape, size)
        assert ((low <= draw) & (draw < high)).all(), (draw, low, high)
        return draw.astype(dtype)

    @property
    def done(self) -> bool:
        return not self.draws and not self.doubles


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


def axis_scan_corner_law(v: np.ndarray, c: np.ndarray, r: np.ndarray, alpha: float):
    """``_batch_corner_law`` with its rows-above sum S as one axis-0
    ``np.cumsum``, as the sweep had it before the lane loops.

    Float ``_corner_law`` of many run-length encodings at once, bit for bit.

    The arrays are (lanes x chains): column i holds the values ``v`` and
    counts ``c`` of chain i's r_i runs in lanes t < r_i, and zeros after, with
    at least one zero lane.  With S_t the rows above run t, lane t < r_i holds
    the corner x_t = alpha v_t - S_t and the removable box
    y_t = alpha v_t - (S_t + c_t), and the zeros supply the bottom corner
    x_r = alpha 0 - S_r.  The products run in ``_corner_law``'s order, with a
    factor 1.0 on missing lanes.  Returns the contents x and the weights, also
    (lanes x chains), 0 past each bottom corner, where nothing is divided.
    """
    m, b = v.shape
    S = np.cumsum(c, axis=0) - c
    x = alpha * v - S
    ys = alpha * v - (S + c)
    lanes = np.arange(m)
    dead = lanes[:, None] >= r  # lane i holds no run of the chain
    f = np.empty((m, b))
    num = np.ones((m, b))
    for i in range(m - 1):
        np.subtract(x, ys[i], out=f)
        np.copyto(f, 1.0, where=dead[i])
        num *= f
    den = np.ones((m, b))
    for j in range(m):
        np.subtract(x, x[j], out=f)
        if j:
            np.copyto(f, 1.0, where=dead[j - 1])  # j > r: no corner x_j
        f[j] = 1.0
        den *= f
    return x, np.divide(num, den, out=np.zeros((m, b)), where=lanes[:, None] <= r)


def axis_scan_sweep(n: int, alpha: float, u: np.ndarray):
    """``_sweep`` with its running sum and its first-hit pick as axis-0
    ``np.cumsum`` and ``np.logical_and.accumulate``, as it was before the
    lane loops, on ``axis_scan_corner_law``.

    ``_grow`` for len(u) chains at once, one box per numpy step.

    Chain i draws step s with ``u[i, s]``.  Each chain is the run-length
    encoding of ``_grow_runs`` padded with zero runs, held lane-major: values
    V and counts C of shape (lanes x chains), so that every numpy step runs
    along contiguous rows over all chains, and the run count r.
    ``_batch_corner_law`` gives the weights of ``_float_law`` bit for bit.
    The pick is ``_pick``'s first-hit rule: the first lane whose running sum
    of the weights exceeds u times their total, else the bottom corner, so
    every pick and content equals the scalar one.  Returns the content sums
    and the first rows at time n-1.
    """
    b = len(u)
    width = math.isqrt(2 * n) + 3  # a partition of n has at most sqrt(2n) runs
    V = np.zeros((width, b), dtype=np.int64)
    C = np.zeros((width, b), dtype=np.int64)
    V[0] = C[0] = 1
    Vf, Cf = V.ravel(), C.ravel()  # lane t of chain i at flat index t*b + i
    r = np.ones(b, dtype=np.int64)
    chains = np.arange(b)
    lanes = np.arange(width)
    y = np.zeros(b)
    for s in range(n - 1):
        m = int(r.max()) + 1  # lanes in use: every run and the bottom corner
        x, weights = axis_scan_corner_law(V[:m], C[:m], r, alpha)
        cum = np.cumsum(weights, axis=0)
        total = cum[-1]
        jm._check_total(total[np.abs(total - 1.0).argmax()])
        # the leading lanes whose running sum has not passed u*total, at most r
        below = np.logical_and.accumulate(cum <= u[:, s] * total, axis=0)
        t = np.minimum(below.sum(axis=0), r)
        idx = t * b + chains
        y += x.ravel()[idx]

        # _grow_runs, case by case, as masked updates
        vt, ct = Vf[idx], Cf[idx]
        above = idx - b  # for t = 0, negative: the last lane, always zero padding
        up = Vf[above] == vt + 1  # merge into the run above
        Cf[above] += up
        Vf[idx] += ~up  # bump in place, or the new run (v+1, 1)
        Cf[idx] = np.where(up, np.maximum(ct - 1, 0), 1)
        insert = ~up & (ct > 1)  # the rest of run t moves one lane down
        delete = up & (ct == 1)  # run t has emptied
        r += ~up & (ct != 1)  # an inserted run, or a new bottom run
        r -= delete
        shifted = np.flatnonzero(insert | delete)
        if shifted.size:
            head = lanes[: m + 1, None]  # lane m is padding before and after the shift
            ins = insert[shifted]
            moved = head >= t[shifted] + ins
            src = np.minimum(np.where(moved, head + np.where(ins, -1, 1), head), m)
            V[: m + 1, shifted] = Vf[src * b + shifted]
            C[: m + 1, shifted] = Cf[src * b + shifted]
            grown = shifted[ins]  # old run t, one row shorter, below the new run
            at = (t[grown] + 1) * b + grown
            Vf[at] = vt[grown]
            Cf[at] = ct[grown] - 1
    return y, V[0] - (t == 0)  # first row before the last box


def two_call_jack_row(config: dict, grid_index: int, params) -> dict:
    """A jack-report row from two sampler calls in turn on the row's stream:
    ``kolmogorov_estimate`` on ``samples`` chains, then
    ``check_wasserstein_bound`` on ``max(samples // 10, 100)`` more."""
    n, alpha = params.n, params.alpha
    samples, epsilon = config["samples"], config["epsilon"]
    rng = cli._spawn_rng(config["seed"], "jack-report", grid_index)
    kol = jm.kolmogorov_estimate(n, alpha, rng, samples, config["confidence"])
    was = jm.check_wasserstein_bound(n, alpha, rng, max(samples // 10, 100))
    region = jm.rate_and_region(n, alpha, epsilon)
    return {
        "n": n,
        "alpha": alpha,
        "rate": region["r"],
        "in_region": region["in_region"],
        "delta_hat": kol["delta_hat"],
        "dkw_band": kol["dkw_band"],
        "delta_times_rate": kol["delta_times_rate"],
        "d1_hat": was["d1_hat"],
        "wasserstein_bound": was["bound"],
        "single_column_prob": float(jm.single_column_prob(n, alpha)["prob"]),
        "fc_frequency": float(np.mean(kol["lambda1_prev"] > 2.0 / epsilon)),
        "fc_bound": jm.first_row_bound(n, alpha),
        "exact_delta": kolmogorov_discrete_vs_normal(jm.exact_w_law(n, alpha))
        if n <= 8
        else None,
    }


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


def loop_kolmogorov(law) -> float:
    """sup_z |F(z) - Phi(z)| by one loop over the sorted atoms, comparing the
    float of each running Fraction sum, before and after the atom, with Phi."""
    best = 0.0
    cum = Fraction(0)
    for v, p in law.sorted_atoms():
        c = normal_cdf(float(v))
        best = max(best, abs(float(cum) - c), abs(float(cum + p) - c))
        cum += p
    return best
