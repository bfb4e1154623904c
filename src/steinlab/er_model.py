"""Fixed-edge-count random graph: exact moments, the redistribution coupling,
and exact/Monte-Carlo checkers for the isolated-vertex count.

A graph on n vertices with exactly m edges is encoded by a permutation pi of
the N = C(n,2) unordered-pair slots; the edges are the slots pi(1..m).  The
coupling removes a chosen vertex and relocates its incident edges uniformly
onto free slots, producing a graph on n-1 vertices with the same edge count.

The exact mean and variance come from the short falling-factorial ratios
E C(Y,j) = C(n,j) (N-m)_d / (N)_d for j <= 2, where d is the number of slots
touching j given vertices.  Exact laws come from one edge-placement chain,
``_edge_chain``, which places edges one at a time, each uniform over the free
slots: from the empty graph it gives the law of Y, and from the edges a graph
keeps once vertex v is removed it gives the law of the coupled count Y_v.

The exact Stein-identity check sums over the joint law of one vertex's degree,
the isolated count of the graph without it, and its neighbours among those,
from the chain and the hypergeometric law; the tests check it against the
literal enumeration of edge sets and relocation subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .exactnum import FLOAT_SLACK, HypergeometricParams, binomial, hyp_pmf_vector, phi
from .stein_core import DiscreteLaw, empirical_kolmogorov, law_from_pairs

DEFAULT_THRESHOLDS = {"n_bar": 344, "m_bar": 28, "c_bar": 1}
_BATCH_ROWS = 10_000  # graphs per sampler batch; the rng stream depends on it
_BLOCK = 1 << 16  # slots per sampler row block; the draws do not depend on it


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


@lru_cache(maxsize=None)
def pair_table(n: int) -> tuple[tuple[int, int], ...]:
    """Slot i (1-based) holds the pair pair_table(n)[i-1] = (v, w), v < w, row-major."""
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


def _degrees_of_edges(edges: Sequence[int], table, n: int) -> list[int]:
    deg = [0] * (n + 1)
    for s in edges:
        a, b = table[s - 1]
        deg[a] += 1
        deg[b] += 1
    return deg[1:]


def degrees(graph: ErGraphState) -> list[int]:
    return _degrees_of_edges(graph.edge_slots(), pair_table(graph.params.n), graph.params.n)


def isolated_count(graph: ErGraphState) -> int:
    return degrees(graph).count(0)


# ---------------------------------------------------------------------------
# Exact moments and law, asymptotics, rate function, parameter region
# ---------------------------------------------------------------------------


def _factorial_moments(params: ErParams) -> tuple[int, int, int]:
    """(s_0, s_1, s_2) with s_j / s_0 = E C(Y,j).

    j given vertices are isolated when the m edges avoid the d_j slots that
    touch them (d_1 = n-1, d_2 = 2n-3), so E C(Y,j) = C(n,j) C(N-d_j, m) / C(N,m)
    = C(n,j) (N-m)_{d_j} / (N)_{d_j}.  Over the common denominator
    s_0 = (N)_{d_2}, s_j = C(n,j) (N-m)_{d_j} (N-d_j)_{d_2-d_j}.
    """
    n, m, N = params.n, params.m, params.slots
    d = (0, n - 1, 2 * n - 3)
    # math.perm(N - m, d_j) is 0 when N - m < d_j, as C(N - d_j, m) is
    return tuple(
        binomial(n, j) * math.perm(N - m, d[j]) * math.perm(N - d[j], d[2] - d[j])
        for j in range(3)
    )


@lru_cache(maxsize=None)
def exact_moments(params: ErParams) -> tuple[Fraction, Fraction]:
    """Exact (mean, variance) of the isolated-vertex count."""
    s0, s1, s2 = _factorial_moments(params)
    mu = Fraction(s1, s0)
    # sigma^2 = E Y + 2 E C(Y,2) - (E Y)^2
    return mu, Fraction(s1 + 2 * s2, s0) - mu * mu


def _edge_chain(vertices: int, free: int, start: int, steps: int) -> np.ndarray:
    """Object-int counts of ordered placements of ``steps`` edges, each uniform
    over the slots still free out of ``free``, by untouched vertices.

    ``count[k]`` placements leave k of the ``start`` untouched vertices (all
    of whose slots are free) untouched; the counts sum to perm(free, steps).
    With k untouched after e edges, C(k,2) of the free - e free slots join two
    of them, k(vertices - k) join one to a touched vertex, and the rest leave
    k unchanged.
    """
    k = np.arange(start + 1, dtype=object)
    both = k * (k - 1) // 2
    one = k * (vertices - k)
    count = np.zeros(start + 1, dtype=object)
    count[start] = 1
    for e in range(steps):
        new = count * (free - e - both - one)
        new[:-1] += (count * one)[1:]
        new[:-2] += (count * both)[2:]
        count = new
    return count


def exact_y_law(params: ErParams) -> DiscreteLaw:
    """Exact law of the isolated-vertex count: the edge chain from the empty
    graph, ``_edge_chain(n, N, n, m)``, over the perm(N, m) ordered placements."""
    n, m, N = params.n, params.m, params.slots
    total = math.perm(N, m)
    return law_from_pairs(
        (k, Fraction(ck, total)) for k, ck in enumerate(_edge_chain(n, N, n, m))
    )


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


class DegenerateParamsError(ValueError):
    pass


def _nondegenerate_moments(params: ErParams) -> tuple[Fraction, Fraction]:
    """exact_moments, raising DegenerateParamsError when sigma^2 = 0."""
    mu, s2 = exact_moments(params)
    if s2 == 0:
        raise DegenerateParamsError(f"sigma^2 = 0 at {params}")
    return mu, s2


# ---------------------------------------------------------------------------
# The vertex-removal Stein coupling, exactly
# ---------------------------------------------------------------------------


def _coupling_law(params: ErParams) -> Iterator[tuple[Fraction, int, int, int]]:
    """Joint law of (d, z, h) for one fixed vertex v, as (probability, d, z, h).

    d = deg v; z counts the isolated vertices of G - v, whose m - d edges are
    a uniform subset of the M = C(n-1,2) slots avoiding v (the chain on n - 1
    vertices); h counts the neighbours of v among them, Hyp(n - 1, d, z) given
    (d, z), as the neighbours are a uniform d-subset.  Y = z - h + [d = 0].
    """
    n, m = params.n, params.m
    M = binomial(n - 1, 2)
    for d in range(max(0, m - M), min(n - 1, m) + 1):
        # P(d) over the perm(M, m - d) placements the chain counts
        p_d = Fraction(binomial(n - 1, d) * binomial(M, m - d),
                       binomial(params.slots, m) * math.perm(M, m - d))
        for z, cz in enumerate(_edge_chain(n - 1, M, n - 1, m - d)):
            if cz:
                for h, p_h in hyp_pmf_vector(HypergeometricParams(n - 1, d, z)).items():
                    yield p_d * cz * p_h, d, z, h


def check_stein_identity_exhaustive(params: ErParams, coeffs: Sequence) -> dict:
    """Exact coupling identity E[G(f(Y') - f(Y))] = E[(Y - mu) f(Y)].

    Works on the unstandardized count with G = mu - n [d = 0]; ``coeffs`` are
    the polynomial coefficients of f, lowest degree first.  Sums over
    ``_coupling_law`` (one vertex stands for all).  Given (d, z), the d
    relocated edges are a uniform d-subset of the F = C(n-1,2) - (m - d) free
    slots and the z vertices of G - v start untouched, so Y_v has the law of
    ``_edge_chain(n - 1, F, z, d)``.  Reports exact rational equality.  Cost
    on one Xeon core: about 2 ms at (7, 7), 5-7 ms at (10, 10), 45-70 ms at
    (20, 20) and 0.2-0.3 s at (30, 30).
    """
    mu, s2 = exact_moments(params)
    if s2 == 0:
        return {"skipped": True, "reason": "sigma^2 = 0 (degenerate parameters)"}
    coeffs = [Fraction(c) for c in coeffs]
    n, m = params.n, params.m

    @lru_cache(maxsize=None)
    def f(y):
        return sum(c * Fraction(y) ** k for k, c in enumerate(coeffs))

    @lru_cache(maxsize=None)
    def coupled_mean_f(free, z, d):
        """E f(Y_v) from the chain's law of Y_v given (d, z)."""
        count = _edge_chain(n - 1, free, z, d)
        return sum(ck * f(k) for k, ck in enumerate(count)) / math.perm(free, d)

    slots_without_v = binomial(n - 1, 2)
    lhs = rhs = Fraction(0)
    for p, d, z, h in _coupling_law(params):
        y = z - h + (d == 0)
        fy = f(y)
        rhs += p * (y - mu) * fy
        lhs += p * (mu - n * (d == 0)) * (coupled_mean_f(slots_without_v - (m - d), z, d) - fy)
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs, "skipped": False}


# ---------------------------------------------------------------------------
# Inequality checkers
# ---------------------------------------------------------------------------


def check_negative_correlation(params: ErParams) -> dict:
    """Joint isolation probability below the product, and the variance caps
    sigma^2 <= mu and sigma^2 <= 2m, all in exact arithmetic."""
    n = params.n
    s0, s1, s2 = _factorial_moments(params)
    single = Fraction(s1, n * s0)
    # joint = s2 / (C(n,2) s0), single = s1 / (n s0), and
    # sigma^2 = (s0 (s1 + 2 s2) - s1^2) / s0^2, with mu = s1 / s0
    return {
        "joint": Fraction(s2, binomial(n, 2) * s0),
        "product": single * single,
        "holds": 2 * n * s0 * s2 <= (n - 1) * s1 * s1,
        "variance_caps": 2 * s0 * s2 <= s1 * s1
        and s0 * (s1 + 2 * s2) - s1 * s1 <= 2 * params.m * s0 * s0,
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
    each pass redraws, with one ``rng.integers`` call in row-major order,
    every entry whose slot repeats one at a lower position of its row.  A row
    the previous pass left alone has no repeat, so every pass sorts only the
    rows the previous one redrew (``_redraw_repeats``); the first sorts all.

    The slots are int32 when N <= 2**31 and int64 otherwise, and every call
    draws in that dtype.  The draws rest on numpy's ``integers`` giving, for
    N <= 2**31, the same values in int32 as in int64 and leaving the
    generator in the same state.  The packed sort keys slot * m + position
    are int32 when N * m <= 2**31 and int64 otherwise.  Every pass sorts one
    scratch block of about _BLOCK keys at a time, so besides the slots it
    holds only that block and the indices it redraws.
    """
    key_type = np.int32 if N * m <= 2**31 else np.int64
    out = rng.integers(0, N, size=(rows, m), dtype=np.int32 if N <= 2**31 else np.int64)
    live = np.arange(rows)
    while live.size:
        flat = _redraw_repeats(rng, out, live, N, key_type)
        live = np.flatnonzero(np.bincount(flat // m))  # the rows just redrawn
    return out


def _redraw_repeats(rng, out, live, N, key_type):
    """One sorting pass over the rows ``live`` (sorted) of ``out``.

    Sorts each row's packed keys slot * m + position, so a slot's first
    occurrence sorts first, and redraws its later occurrences.  Works on
    about _BLOCK entries of whole rows at a time in one scratch block.
    Returns the redrawn flat indices, in row-major order.
    """
    m = out.shape[1]
    step = max(1, _BLOCK // m)
    whole = live.size == out.shape[0]  # ``live`` is sorted, so it is every row
    keys = np.empty((min(step, live.size), m), dtype=key_type)
    position = np.arange(m, dtype=key_type)
    found = [np.empty(0, dtype=np.intp)]
    for i in range(0, live.size, step):
        rows = live[i : i + step]
        block = keys[: rows.size]
        # in the key dtype, as int32 slots times m may pass 2**31
        np.multiply(out[i : i + rows.size] if whole else out[rows], m, out=block, dtype=key_type)
        block += position
        block.sort(axis=1)
        slot = block // m
        r, c = np.divmod(np.flatnonzero(slot[:, 1:] == slot[:, :-1]), m - 1)
        # within a row the repeats come in slot order, so sort them by position
        found.append(np.sort(rows[r] * m + block[r, c + 1] % m))
    flat = np.concatenate(found)
    np.put(out, flat, rng.integers(0, N, size=flat.size, dtype=out.dtype))
    return flat


def sample_isolated_counts(params: ErParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized draws of the isolated-vertex count, _BATCH_ROWS graphs at a time.

    Each batch draws its graphs' edge slots with ``_sample_distinct_rows``
    and counts them with ``_count_isolated``; a batch's slots are freed
    before the next batch draws.  A batch of b graphs holds its int32 slots
    and, while they are drawn, the indices each pass redraws (at (400, 400)
    about 4.5 bytes per drawn slot in all), then the slots and a (b * n,)
    bool array while counting, besides one row block of about _BLOCK slots.
    """
    n, m, N = params.n, params.m, params.slots
    ends = np.triu_indices(n, 1)  # 0-based endpoints in pair_table order
    out = np.empty(size, dtype=np.int64)
    for done in range(0, size, _BATCH_ROWS):
        b = min(_BATCH_ROWS, size - done)
        out[done : done + b] = _count_isolated(_sample_distinct_rows(rng, N, m, b), n, ends)
    return out


def _count_isolated(slots: np.ndarray, n: int, ends) -> np.ndarray:
    """Isolated vertices of each row of ``slots``, given the endpoint tables.

    Marks both endpoints of every edge in one flat (rows * n,) bool array at
    row * n + vertex, and counts the unmarked vertices of each row.  The
    marks are made one row block of about _BLOCK slots at a time, through
    one intp endpoint buffer.
    """
    rows, m = slots.shape
    step = max(1, _BLOCK // m)
    touched = np.zeros(rows * n, dtype=bool)
    buffer = np.empty(min(rows, step) * m, dtype=np.intp)
    for i in range(0, rows, step):
        block = slots[i : i + step]
        flat = buffer[: block.size].reshape(block.shape)
        base = np.arange(i * n, (i + block.shape[0]) * n, n)[:, None]
        for vertex in ends:
            # "clip" (the slots are in range) lets take write ``flat`` unbuffered
            np.take(vertex, block, out=flat, mode="clip")
            flat += base
            touched[flat] = True
    return n - np.count_nonzero(touched.reshape(rows, n), axis=1)


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
