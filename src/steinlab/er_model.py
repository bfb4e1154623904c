"""Fixed-edge-count random graph: exact moments, the redistribution coupling,
and exact/Monte-Carlo checkers for the isolated-vertex count.

A graph on n vertices with exactly m edges is encoded by a permutation pi of
the N = C(n,2) unordered-pair slots; the edges are the slots pi(1..m).  The
coupling removes a chosen vertex and relocates its incident edges uniformly
onto free slots, producing a graph on n-1 vertices with the same edge count.

The exact mean, variance and law of Y all come from one table, the binomial
moments S_j = C(n,j) C(C(n-j,2), m) = C(N,m) E C(Y,j).

Exhaustive checkers integrate over edge sets directly (the permutation only
matters through the edge set) and over relocation-target subsets (the
candidate stream only matters through the set of accepted slots); both
reductions are exercised against the literal constructions in the tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .exactnum import FLOAT_SLACK, binomial, phi
from .stein_core import DiscreteLaw, empirical_kolmogorov, law_from_pairs

DEFAULT_THRESHOLDS = {"n_bar": 344, "m_bar": 28, "c_bar": 1}
_BATCH_ROWS = 10_000  # graphs per sampler batch; the rng stream depends on it


@dataclass(frozen=True)
class ErParams:
    n: int
    m: int

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3")
        if not 0 < self.m < binomial(self.n, 2):
            raise ValueError("need 0 < m < C(n,2)")

    @property
    def slots(self) -> int:
        return binomial(self.n, 2)


def edge_index(v: int, w: int, n: int) -> int:
    """1-based slot of the pair {v, w} in the row-major pair enumeration."""
    if not 1 <= v < w <= n:
        raise ValueError("need 1 <= v < w <= n")
    return (v - 1) * n - v * (v - 1) // 2 + (w - v)


def slot_to_pair(i: int, n: int) -> tuple[int, int]:
    """Inverse of edge_index; returns (v, w) with v < w."""
    N = binomial(n, 2)
    if not 1 <= i <= N:
        raise ValueError("slot index out of range")
    v = 1
    while i > n - v:
        i -= n - v
        v += 1
    return v, v + i


@lru_cache(maxsize=None)
def pair_table(n: int) -> tuple[tuple[int, int], ...]:
    """pair_table(n)[i-1] = slot_to_pair(i, n), materialized once."""
    return tuple((v, w) for v in range(1, n) for w in range(v + 1, n + 1))


@dataclass(frozen=True)
class ErGraphState:
    params: ErParams
    perm: tuple  # pi as 1-based tuple: perm[j] = pi(j+1)

    def edge_slots(self) -> frozenset:
        return frozenset(self.perm[: self.params.m])


def sample_graph(params: ErParams, rng: np.random.Generator) -> ErGraphState:
    perm = tuple(int(x) + 1 for x in rng.permutation(params.slots))
    return ErGraphState(params, perm)


def degrees(graph: ErGraphState) -> list[int]:
    return _degrees_of_edges(graph.edge_slots(), pair_table(graph.params.n), graph.params.n)


def isolated_count(graph: ErGraphState) -> int:
    return degrees(graph).count(0)


# ---------------------------------------------------------------------------
# Exact moments and law, asymptotics, rate function, parameter region
# ---------------------------------------------------------------------------


def _binomial_moments(params: ErParams, top: int = 2) -> list[int]:
    """[S_0, ..., S_top]: S_j counts edge sets with j marked isolated vertices."""
    n, m = params.n, params.m
    return [binomial(n, j) * binomial(binomial(n - j, 2), m) for j in range(top + 1)]


def _moments_from(s: list[int]) -> tuple[Fraction, Fraction]:
    mu = Fraction(s[1], s[0])
    return mu, mu + Fraction(2 * s[2], s[0]) - mu * mu


def exact_moments(params: ErParams) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of the isolated-vertex count."""
    return _moments_from(_binomial_moments(params))


def exact_y_law(params: ErParams) -> DiscreteLaw:
    """Exact law of the isolated-vertex count: the Taylor shift of sum_j S_j x^j
    to x - 1, by additions only, has the coefficients C(N,m) P(Y = k)."""
    c = _binomial_moments(params, params.n)
    total = c[0]
    for i in range(len(c) - 1):
        for k in range(len(c) - 2, i - 1, -1):
            c[k] -= c[k + 1]
    return law_from_pairs((k, Fraction(ck, total)) for k, ck in enumerate(c))


def exact_w_law(params: ErParams) -> DiscreteLaw:
    """Law of W = (Y - mu)/sigma as float atoms with exact probabilities."""
    mu, s2 = _nondegenerate_moments(params)
    sigma = float(s2) ** 0.5
    return DiscreteLaw(tuple(((y - float(mu)) / sigma, p) for y, p in exact_y_law(params).atoms))


def asymptotic_moments(params: ErParams) -> tuple[float, float]:
    """(n e^(-2m/n), n phi(2m/n)) - the large-graph approximations."""
    x = 2.0 * params.m / params.n
    return params.n * math.exp(-x), params.n * phi(x)


def asymptotic_accuracy(params: ErParams) -> dict:
    """Measured relative errors of the approximations, normalized by the
    error profiles m/n^2 + m^2/n^3 (mean) and 1/m + m^2/n^3 (variance)."""
    mu, s2 = exact_moments(params)
    mu_a, s2_a = asymptotic_moments(params)
    n, m = params.n, params.m
    mu_err = abs(float(mu) / mu_a - 1.0)
    out = {"mu_rel_err": mu_err, "mu_measured_const": mu_err / (m / n**2 + m**2 / n**3)}
    if s2_a > 0:
        s2_err = abs(float(s2) / s2_a - 1.0)
        out["sigma2_rel_err"] = s2_err
        out["sigma2_measured_const"] = s2_err / (1 / m + m**2 / n**3)
    return out


def rate(params: ErParams) -> float:
    """sigma^3 / (mu (1 + m^2/n^2)); zero in the degenerate variance case."""
    mu, s2 = exact_moments(params)
    if s2 == 0:
        return 0.0
    return float(s2) ** 1.5 / (float(mu) * (1.0 + (params.m / params.n) ** 2))


def in_parameter_region(params: ErParams, thresholds: dict | None = None) -> bool:
    """n >= n_bar and m_bar <= m <= c_bar n^(3/2), compared exactly."""
    th = dict(DEFAULT_THRESHOLDS)
    if thresholds:
        th.update(thresholds)
    n, m = params.n, params.m
    c_bar = Fraction(th["c_bar"])
    # m <= c_bar n^(3/2)  <=>  c_bar >= 0 and m^2 <= c_bar^2 n^3, as m > 0
    return n >= th["n_bar"] and th["m_bar"] <= m and c_bar >= 0 and m**2 <= c_bar**2 * n**3


def truncation_level(params: ErParams) -> float:
    """Degree level min(n, m)/4 separating the typical-degree event."""
    return min(params.n, params.m) / 4.0


def truncation_exceeded(params: ErParams, degree: int) -> bool:
    """Diagnostic predicate for tallying the atypically-high-degree event;
    never used to alter sampling."""
    return degree > truncation_level(params)


def domain_label(params: ErParams) -> str:
    """Descriptive edge-density regime: m/n below 1/4, above 4, or central."""
    ratio = params.m / params.n
    if ratio < 0.25:
        return "left"
    if ratio > 4.0:
        return "right"
    return "central"


# ---------------------------------------------------------------------------
# The redistribution coupling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RedistributionResult:
    relocated_slots: frozenset
    receiving_vertices: frozenset
    lost_neighbors: frozenset
    b_v: int


def lazy_permutation(rng: np.random.Generator, N: int) -> Iterator[int]:
    """Uniform permutation of 1..N, materializing only the consumed prefix."""
    vals: dict[int, int] = {}
    for i in range(N):
        j = int(rng.integers(i, N))
        out = vals.get(j, j)
        vals[j] = vals.get(i, i)
        yield out + 1


def redistribute(graph: ErGraphState, v: int, sigma_v: Iterable[int]) -> RedistributionResult:
    """Remove vertex v and relocate its edges onto candidate slots.

    ``sigma_v`` is consumed in order; a candidate slot is accepted when it is
    not incident to v and not already an edge.  Deterministic given the graph
    and the candidate sequence.  Returns the accepted slots, their endpoints
    (receiving vertices), the neighbors of v that receive none of them (lost
    neighbors), and b_v = Y - Y_v, where Y_v comes from ``_coupled_isolated``,
    the one recount of the coupled graph, shared with the exhaustive
    Stein-identity check.
    """
    return _redistribute(graph, degrees(graph), v, sigma_v)


def _redistribute(
    graph: ErGraphState, deg: list[int], v: int, sigma_v: Iterable[int]
) -> RedistributionResult:
    """``redistribute`` given the degree list of ``graph``."""
    params = graph.params
    n, m = params.n, params.m
    if m > binomial(n - 1, 2):
        raise ValueError("redistribution cannot terminate: m > C(n-1, 2)")
    table = pair_table(n)
    edges = graph.edge_slots()
    d_v = deg[v - 1]

    relocated = set()
    it = iter(sigma_v)
    while len(relocated) < d_v:
        slot = next(it)
        if v not in table[slot - 1] and slot not in edges:
            relocated.add(slot)

    receiving = frozenset(w for s in relocated for w in table[s - 1])
    neighbors = {w for s in edges for w in table[s - 1] if v in table[s - 1] and w != v}
    lost = frozenset(neighbors - receiving)
    return RedistributionResult(
        relocated_slots=frozenset(relocated),
        receiving_vertices=receiving,
        lost_neighbors=lost,
        b_v=deg.count(0) - _coupled_isolated(edges, v, relocated, table, n),
    )


def b_v_decomposition(graph: ErGraphState, v: int, result: RedistributionResult) -> int:
    """I_v + sum over receiving vertices of I_w - sum over lost neighbors of
    I[d_w = 1], asserted equal to the direct recount difference."""
    deg = degrees(graph)
    value = (
        (1 if deg[v - 1] == 0 else 0)
        + sum(1 for w in result.receiving_vertices if deg[w - 1] == 0)
        - sum(1 for w in result.lost_neighbors if deg[w - 1] == 1)
    )
    if value != result.b_v:
        raise RuntimeError(
            f"decomposition {value} != direct difference {result.b_v}; coupling bug"
        )
    return value


class DegenerateParamsError(ValueError):
    pass


def _nondegenerate_moments(params: ErParams) -> tuple[Fraction, Fraction]:
    """exact_moments, raising DegenerateParamsError when sigma^2 = 0."""
    mu, s2 = exact_moments(params)
    if s2 == 0:
        raise DegenerateParamsError(f"sigma^2 = 0 at {params}")
    return mu, s2


@dataclass(frozen=True)
class ErCouplingSample:
    w: float
    w_prime: float
    g: float
    d: float
    chosen_vertex: int
    chosen_degree: int


def coupling_sample(params: ErParams, rng: np.random.Generator) -> ErCouplingSample:
    """One standardized draw (W, W', G, D) from the coupling construction."""
    mu, s2 = _nondegenerate_moments(params)
    sigma = float(s2) ** 0.5
    graph = sample_graph(params, rng)
    v = int(rng.integers(1, params.n + 1))
    res = redistribute(graph, v, lazy_permutation(rng, params.slots))
    deg = degrees(graph)
    y = deg.count(0)
    y_v = y - res.b_v
    d_v = deg[v - 1]
    w = (y - float(mu)) / sigma
    w_prime = (y_v - float(mu)) / sigma
    g = -(params.n / sigma) * ((1 if d_v == 0 else 0) - float(mu) / params.n)
    return ErCouplingSample(w, w_prime, g, w_prime - w, v, d_v)


# ---------------------------------------------------------------------------
# Exhaustive enumeration machinery
# ---------------------------------------------------------------------------


def enumerate_edge_sets(params: ErParams) -> Iterator[tuple]:
    """All C(N, m) edge-slot subsets, each equally likely under the model."""
    return itertools.combinations(range(1, params.slots + 1), params.m)


def _degrees_of_edges(edges: Sequence[int], table, n: int) -> list[int]:
    deg = [0] * (n + 1)
    for s in edges:
        a, b = table[s - 1]
        deg[a] += 1
        deg[b] += 1
    return deg[1:]


def relocation_target_law(edges: frozenset, v: int, params: ErParams):
    """Uniform law of the accepted-slot set: all d_v-subsets of free slots.

    The candidate stream visits free slots in uniform random order, so the
    accepted set is a uniform d_v-subset of the slots neither incident to v
    nor already occupied.
    """
    table = pair_table(params.n)
    d_v = sum(1 for s in edges if v in table[s - 1])
    allowed = [
        s for s in range(1, params.slots + 1) if v not in table[s - 1] and s not in edges
    ]
    count = binomial(len(allowed), d_v)
    w = Fraction(1, count)
    for subset in itertools.combinations(allowed, d_v):
        yield frozenset(subset), w


def _coupled_isolated(edges: frozenset, v: int, relocated: Iterable[int], table, n: int) -> int:
    """Isolated-vertex count Y_v of the coupled graph on the vertices other than v."""
    kept = [s for s in edges if v not in table[s - 1]]
    # v keeps no edge: it is one of the zeros but not a vertex of the coupled graph
    return _degrees_of_edges(kept + list(relocated), table, n).count(0) - 1


def check_stein_identity_exhaustive(params: ErParams, coeffs: Sequence) -> dict:
    """Exact coupling identity E[G(f(Y') - f(Y))] = E[(Y - mu) f(Y)].

    Works on the unstandardized count with G = -(n I_V - mu); ``coeffs`` are
    the polynomial coefficients of f, lowest degree first.  Enumerates edge
    sets, the chosen vertex, and relocation-target subsets with exact
    weights; reports exact rational equality.
    """
    mu, s2 = exact_moments(params)
    if s2 == 0:
        return {"skipped": True, "reason": "sigma^2 = 0 (degenerate parameters)"}
    if params.n > 5:
        raise ValueError("exhaustive check kept feasible only for n <= 5")
    coeffs = [Fraction(c) for c in coeffs]

    def f(y):
        return sum(c * Fraction(y) ** k for k, c in enumerate(coeffs))

    table = pair_table(params.n)
    n = params.n
    w_edges = Fraction(1, binomial(params.slots, params.m))
    lhs = Fraction(0)
    rhs = Fraction(0)
    for edges in enumerate_edge_sets(params):
        edges = frozenset(edges)
        deg = _degrees_of_edges(edges, table, n)
        y = deg.count(0)
        fy = f(y)
        rhs += w_edges * (y - mu) * fy
        for v in range(1, n + 1):
            g = mu - n * (1 if deg[v - 1] == 0 else 0)
            inner = Fraction(0)
            for relocated, w_sub in relocation_target_law(edges, v, params):
                y_v = _coupled_isolated(edges, v, relocated, table, n)
                inner += w_sub * (f(y_v) - fy)
            lhs += w_edges * Fraction(1, n) * g * inner
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs, "skipped": False}


# ---------------------------------------------------------------------------
# Inequality checkers
# ---------------------------------------------------------------------------


def check_negative_correlation(params: ErParams) -> dict:
    """Joint isolation probability below the product, and the variance caps
    sigma^2 <= mu and sigma^2 <= 2m, all in exact arithmetic."""
    s = _binomial_moments(params)
    joint = Fraction(s[2], binomial(params.n, 2) * s[0])
    single = Fraction(s[1], params.n * s[0])
    mu, s2 = _moments_from(s)
    return {
        "joint": joint,
        "product": single * single,
        "holds": joint <= single * single,
        "variance_caps": s2 <= mu and s2 <= 2 * params.m,
    }


def check_moment_sandwich(params: ErParams) -> dict:
    """Exponential sandwiches for mu/n and the variance, for n >= 6 and
    m <= n^2/4 - 3n/2."""
    n, m = params.n, params.m
    if n < 6 or m > n * n / 4 - 1.5 * n:
        return {"applicable": False}
    mu, s2 = exact_moments(params)
    mu_f, s2_f = float(mu), float(s2)
    x = 2.0 * m / n
    corr = m * (m + n) / n**3
    mu_lo = math.exp(-x - 8 * corr)
    mu_hi = math.exp(-x)
    holds_mu = mu_lo <= mu_f / n + FLOAT_SLACK and mu_f / n <= mu_hi + FLOAT_SLACK

    s2_lo = mu_f * (1 - mu_f / n * (1 + x + 78 * corr))
    s2_hi = mu_f * (1 - mu_f / n * (1 + x - 48 * corr))
    holds_sigma = s2_lo <= s2_f + 1e-10 and s2_f <= s2_hi + 1e-10
    return {"applicable": True, "holds_mu": holds_mu, "holds_sigma": holds_sigma}


def check_moment_drop_ratios(
    params: ErParams, d: int, thresholds: dict | None = None, ceiling: float = 16.0
) -> dict:
    """Squared mean/variance ratios between (n, m) and (n-1, m-d)."""
    if not in_parameter_region(params, thresholds):
        raise ValueError(f"{params} outside the configured parameter region")
    if not 0 <= d <= min(params.n, params.m) / 4:
        raise ValueError("need 0 <= d <= min(n, m)/4")
    mu, s2 = exact_moments(params)
    mu_s, s2_s = exact_moments(ErParams(params.n - 1, params.m - d))
    if mu_s == 0 or s2_s == 0 or s2 == 0:
        raise ValueError("degenerate moments in the ratio")
    mean_ratio = float(max(mu**2 / mu_s**2, mu_s**2 / mu**2))
    var_ratio = float(max(s2 / s2_s, s2_s / s2))
    return {
        "mean_ratio": mean_ratio,
        "var_ratio": var_ratio,
        "below_ceiling": mean_ratio <= ceiling and var_ratio <= ceiling,
    }


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------


def _sample_distinct_rows(rng: np.random.Generator, N: int, m: int, rows: int) -> np.ndarray:
    """(rows, m) array of distinct slot draws, uniform over ordered tuples.

    Per-entry rejection, which reproduces sequential draw-until-new sampling:
    each pass sorts the packed keys slot * m + position of the live rows (those
    with a duplicate on the previous pass), so a slot's first occurrence sorts
    first, and redraws its later occurrences in row-major order.
    """
    out = rng.integers(0, N, size=(rows, m), dtype=np.int64)
    live = np.arange(rows)
    while True:
        keys = np.sort(out[live] * m + np.arange(m), axis=1)
        slot = keys // m
        r, c = np.nonzero(slot[:, 1:] == slot[:, :-1])
        if r.size == 0:
            return out
        flat = np.sort(live[r] * m + keys[r, c + 1] % m)
        np.put(out, flat, rng.integers(0, N, size=flat.size))
        live = live[np.unique(r)]


def sample_isolated_counts(params: ErParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized draws of the isolated-vertex count, _BATCH_ROWS graphs at a time."""
    n, m, N = params.n, params.m, params.slots
    first, second = np.triu_indices(n, 1)  # 0-based endpoints in pair_table order
    out = np.empty(size, dtype=np.int64)
    for done in range(0, size, _BATCH_ROWS):
        b = min(_BATCH_ROWS, size - done)
        slots = _sample_distinct_rows(rng, N, m, b)
        touched = np.zeros((b, n), dtype=bool)
        np.put_along_axis(touched, first[slots], True, axis=1)
        np.put_along_axis(touched, second[slots], True, axis=1)
        out[done : done + b] = n - np.count_nonzero(touched, axis=1)
    return out


def kolmogorov_estimate(
    params: ErParams,
    rng: np.random.Generator,
    samples: int,
    confidence: float = 0.05,
) -> dict:
    """Empirical Kolmogorov distance of standardized counts to the normal."""
    mu, s2 = _nondegenerate_moments(params)
    sigma = float(s2) ** 0.5
    y = sample_isolated_counts(params, rng, samples)
    w = (y - float(mu)) / sigma
    report = empirical_kolmogorov(w, confidence=confidence)
    report["rate"] = rate(params)
    report["delta_times_rate"] = report["delta_hat"] * report["rate"]
    return report


def gd_conditional_variance_estimate(
    params: ErParams, rng: np.random.Generator, samples: int
) -> float:
    """sqrt of the Monte Carlo variance of E(GD | pi, Sigma).

    The inner expectation over the chosen vertex is computed exactly per
    sampled state: (1/sigma^2) sum_v (I_v - mu/n) B_v, with an independent
    candidate stream per vertex.
    """
    mu, s2 = _nondegenerate_moments(params)
    n = params.n
    mu_f, s2_f = float(mu), float(s2)
    vals = np.empty(samples)
    for i in range(samples):
        graph = sample_graph(params, rng)
        deg = degrees(graph)
        total = 0.0
        for v in range(1, n + 1):
            res = _redistribute(graph, deg, v, lazy_permutation(rng, params.slots))
            total += ((1 if deg[v - 1] == 0 else 0) - mu_f / n) * res.b_v
        vals[i] = total / s2_f
    return float(np.sqrt(max(vals.var(ddof=1), 0.0)))
