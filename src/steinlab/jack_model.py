"""Jack measure on integer partitions: exact probabilities, the one-box
growth process, content statistics and the zero-bias construction.

Partitions are tuples of non-increasing positive parts.  The growth chain
adds one box per step.  Its transition law is Kerov's interlacing formula:
with x_k the alpha-contents of the addable corners and y_i the contents of
the removable boxes plus alpha - 1,

    p_k = prod_i (x_k - y_i) / prod_{j != k} (x_k - x_j).

``_corner_law`` evaluates it over a run-length encoding of the partition; it
is exact for a Fraction alpha and serves the one-chain samplers with a float
alpha.  The batch sampler's ``_sweep`` is its vectorized twin: it grows a
whole batch of chains one box per numpy step, on the same run-length
encoding held in zero-padded int64 arrays, and multiplies the same factors in
the same order, so its draws equal the one-chain loop's.  Both pick a corner
by inverse CDF against the plain running sum of the float weights.  The
zero-bias pair law is one ``_pair_weights``: the sampler draws from it in
floats, the exact identity check reads it exactly.

The deformation parameter alpha is carried as an exact Fraction wherever a
probability or content is produced; the irrational scale sqrt(alpha C(n,2))
enters only at the final standardization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exactnum import binomial
from .stein_core import (
    DiscreteLaw,
    empirical_kolmogorov,
    law_from_pairs,
    wasserstein_estimate,
)

MAX_ENUMERATION_N = 60
_BATCH_ROWS = 10_000  # chains per sweep; the draws do not depend on it


@dataclass(frozen=True)
class JackParams:
    n: int
    alpha: Fraction

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        try:  # the samplers grow partitions with float(alpha)
            as_float = float(self.alpha)
        except OverflowError:
            as_float = math.inf
        if not 0 < as_float < math.inf:
            raise ValueError("alpha must be a nonzero finite float")

def _validate_partition(parts: Sequence[int]) -> tuple:
    parts = tuple(int(p) for p in parts)
    if not parts or any(p <= 0 for p in parts):
        raise ValueError("parts must be positive")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError("parts must be non-increasing")
    return parts


def conjugate(parts: Sequence[int]) -> tuple:
    parts = _validate_partition(parts)
    return tuple(sum(1 for p in parts if p >= c) for c in range(1, parts[0] + 1))


def enumerate_partitions(n: int) -> list[tuple]:
    """All partitions of n, largest part first."""
    if not 1 <= n <= MAX_ENUMERATION_N:
        raise ValueError(f"n must lie in [1, {MAX_ENUMERATION_N}]")
    out: list[tuple] = []

    def rec(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for k in range(min(cap, remaining), 0, -1):
            prefix.append(k)
            rec(remaining - k, k, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def jack_probability(parts: Sequence[int], alpha) -> Fraction:
    """Exact measure of a partition: alpha^n n! over the hook products
    prod (alpha arm + leg + 1) (alpha arm + leg + alpha); for alpha = a/b, b times
    each factor is an integer, so this is (ab)^n n! over an integer product."""
    parts = _validate_partition(parts)
    a, b = Fraction(alpha).as_integer_ratio()
    conj = conjugate(parts)
    n = sum(parts)
    hooks = 1
    for r, lam in enumerate(parts):
        for c in range(lam):
            arm, leg = lam - c - 1, conj[c] - r - 1
            hooks *= (a * arm + b * (leg + 1)) * (a * arm + b * leg + a)
    return Fraction((a * b) ** n * math.factorial(n), hooks)


def content_sum(parts: Sequence[int], alpha) -> Fraction:
    """Y = sum over boxes of alpha (col-1) - (row-1), exact."""
    parts = _validate_partition(parts)
    alpha = Fraction(alpha)
    return sum(
        alpha * Fraction(lam * (lam - 1), 2) - (i - 1) * lam
        for i, lam in enumerate(parts, start=1)
    )


def content_scale(n: int, alpha) -> float:
    return math.sqrt(float(Fraction(alpha) * binomial(n, 2)))


def addable_corners(parts: Sequence[int]) -> list[tuple[int, int]]:
    """Positions (row, col) where a box can be added, new row included."""
    parts = _validate_partition(parts)
    out = [(1, parts[0] + 1)]
    for i in range(1, len(parts)):
        if parts[i] < parts[i - 1]:
            out.append((i + 1, parts[i] + 1))
    out.append((len(parts) + 1, 1))
    return out


def _add_box(parts: tuple, corner: tuple[int, int]) -> tuple:
    r, _ = corner
    if r == len(parts) + 1:
        return parts + (1,)
    grown = list(parts)
    grown[r - 1] += 1
    return tuple(grown)


@dataclass(frozen=True)
class CornerDistribution:
    corners: tuple  # (row, col) positions
    contents: tuple  # exact alpha-contents of the candidate boxes
    probs: tuple  # exact transition probabilities


def _parts_to_runs(parts: tuple) -> list[list[int]]:
    """Run-length encoding [[value, count], ...], values strictly decreasing."""
    return [[v, len(list(g))] for v, g in itertools.groupby(parts)]


def _corner_law(runs: list[list[int]], alpha):
    """(contents, probabilities) of the addable corners, top row first.

    Kerov's interlacing formula over the run-length encoding: with S_t the
    rows above run t, the addable corner of run t has content
    x_t = alpha v_t - S_t, the new bottom row x_r = -S_r, and the removable
    box closing run t gives y_t = alpha v_t - S_{t+1}.  The arithmetic follows
    the type of ``alpha``: exact for a Fraction, float for a float.
    """
    x = []
    y = []
    rows = 0
    for v, count in runs:
        av = alpha * v
        x.append(av - rows)
        rows += count
        y.append(av - rows)
    x.append(alpha * 0 - rows)  # new bottom row; alpha * 0 keeps alpha's number type
    probs = []
    for k, xk in enumerate(x):
        num = den = 1
        for yi in y:
            num *= xk - yi
        for j, xj in enumerate(x):
            if j != k:
                den *= xk - xj
        probs.append(num / den)
    return x, probs


def kerov_transition_probs(parts: Sequence[int], alpha) -> CornerDistribution:
    """Exact one-step growth law from a partition."""
    parts = _validate_partition(parts)
    contents, probs = _corner_law(_parts_to_runs(parts), Fraction(alpha))
    return CornerDistribution(tuple(addable_corners(parts)), tuple(contents), tuple(probs))


def chain_law(n: int, alpha) -> dict:
    """Exact law of the growth chain at time n, by forward recursion."""
    alpha = Fraction(alpha)
    law = {(1,): Fraction(1)}
    for _ in range(n - 1):
        nxt: dict = {}
        for parts, p in law.items():
            dist = kerov_transition_probs(parts, alpha)
            for corner, tp in zip(dist.corners, dist.probs):
                grown = _add_box(parts, corner)
                nxt[grown] = nxt.get(grown, Fraction(0)) + p * tp
        law = nxt
    return law


# ---------------------------------------------------------------------------
# Float growth sampler over run-length encoded partitions
# ---------------------------------------------------------------------------


def _pick(weights, u: float) -> int:
    """Inverse CDF: first index whose running sum exceeds u, else the last."""
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if u < acc:
            return i
    return len(weights) - 1


def _check_total(total: float) -> None:
    if abs(total - 1.0) > 1e-6:
        raise RuntimeError(f"corner weights sum to {total}, not 1")


def _float_law(runs: list[list[int]], alpha: float):
    """Float ``_corner_law`` plus its weight total, which must be 1 up to rounding.

    The total is the plain running sum of the weights, top corner first: the
    last sum ``_pick`` accumulates, and the last cumulative sum of the sweep.
    """
    contents, weights = _corner_law(runs, alpha)
    *_, total = itertools.accumulate(weights)
    _check_total(total)
    return contents, weights, total


def _grow_runs(runs: list[list[int]], t: int) -> None:
    """Add a box at corner index t (len(runs) = bottom corner), in place."""
    if t == len(runs):
        if runs and runs[-1][0] == 1:
            runs[-1][1] += 1
        else:
            runs.append([1, 1])
        return
    v = runs[t][0]
    if t > 0 and runs[t - 1][0] == v + 1:
        runs[t - 1][1] += 1
    else:
        runs.insert(t, [v + 1, 1])
        t += 1
    runs[t][1] -= 1
    if runs[t][1] == 0:
        del runs[t]


def _runs_to_parts(runs: list[list[int]]) -> tuple:
    out = []
    for v, k in runs:
        out.extend([v] * k)
    return tuple(out)


def _grow(n: int, alpha: float, rng: np.random.Generator):
    """Grow the chain from (1) to a partition of n with float weights.

    Returns the final run-length encoding, per step the 0-based (row, col)
    of the added box, whose content is alpha col - row, and the float sum
    of those contents.
    """
    runs = [[1, 1]]
    boxes = []
    y = 0.0
    for _ in range(n - 1):
        _, weights, total = _float_law(runs, alpha)
        t = _pick(weights, rng.random() * total)
        row = 0
        for _, k in runs[:t]:
            row += k
        col = runs[t][0] if t < len(runs) else 0
        boxes.append((row, col))
        y += alpha * col - row
        _grow_runs(runs, t)
    return runs, boxes, y


def kerov_sample(n: int, alpha, rng: np.random.Generator):
    """Grow a partition of n from (1); returns (partition, added contents).

    The n-1 recorded contents are exact Fractions; transition weights are
    evaluated in floats.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    alpha = Fraction(alpha)
    runs, boxes, _ = _grow(n, float(alpha), rng)
    return _runs_to_parts(runs), [alpha * col - row for row, col in boxes]


def _batch_corner_law(v: np.ndarray, c: np.ndarray, r: np.ndarray, alpha: float):
    """Float ``_corner_law`` of many run-length encodings at once, bit for bit.

    Row i holds the values ``v`` and counts ``c`` of its r_i runs in lanes
    t < r_i, and zeros after, with at least one zero lane.  With S_t the rows
    above run t, lane t < r_i holds the corner x_t = alpha v_t - S_t and the
    removable box y_t = alpha v_t - S_t - c_t, and the zeros supply the bottom
    corner x_r = alpha 0 - S_r.  The products run in ``_corner_law``'s order,
    with a factor 1.0 on missing lanes.  Returns the contents x and the
    weights, which are 0 past each bottom corner, where nothing is divided.
    """
    b, m = v.shape
    S = np.cumsum(c, axis=1) - c
    x = alpha * v - S
    ys = alpha * v - (S + c)
    num = np.ones((b, m))
    for i in range(m - 1):
        f = x - ys[:, i, None]
        f[i >= r] = 1.0
        num *= f
    den = np.ones((b, m))
    for j in range(m):
        f = x - x[:, j, None]
        f[j > r] = 1.0
        f[:, j] = 1.0
        den *= f
    corner = np.arange(m) <= r[:, None]
    return x, np.divide(num, den, out=np.zeros((b, m)), where=corner)


def _sweep(n: int, alpha: float, u: np.ndarray):
    """``_grow`` for len(u) chains at once, one box per numpy step.

    Chain i draws step s with ``u[i, s]``.  Each chain is the run-length
    encoding of ``_grow_runs`` padded with zero runs: values V, counts C and
    the run count r.  ``_batch_corner_law`` gives the weights of ``_float_law``
    bit for bit, so every pick and content equals the scalar one.  Returns
    the content sums and the first rows at time n-1.
    """
    b = len(u)
    width = math.isqrt(2 * n) + 3  # a partition of n has at most sqrt(2n) runs
    V = np.zeros((b, width), dtype=np.int64)
    C = np.zeros((b, width), dtype=np.int64)
    V[:, 0] = C[:, 0] = 1
    r = np.ones(b, dtype=np.int64)
    chains = np.arange(b)
    lanes = np.arange(width)
    y = np.zeros(b)
    for s in range(n - 1):
        m = int(r.max()) + 1  # lanes in use: every run and the bottom corner
        x, weights = _batch_corner_law(V[:, :m], C[:, :m], r, alpha)
        cum = np.cumsum(weights, axis=1)
        total = cum[:, -1]
        _check_total(total[np.abs(total - 1.0).argmax()])
        hit = (u[:, s] * total)[:, None] < cum
        hit[chains, r] = True  # no hit before it: the bottom corner, as in _pick
        t = hit.argmax(axis=1)
        y += x[chains, t]

        # _grow_runs, case by case, as masked updates
        vt, ct = V[chains, t], C[chains, t]
        up = (t > 0) & (V[chains, t - 1] == vt + 1)  # merge into the run above
        C[chains, t - 1] += up
        V[chains, t] += ~up  # bump in place, or the new run (v+1, 1)
        C[chains, t] = np.where(up, np.maximum(ct - 1, 0), 1)
        insert = ~up & (ct > 1)  # the rest of run t moves one lane down
        delete = up & (ct == 1)  # run t has emptied
        r += ~up & (ct != 1)  # an inserted run, or a new bottom run
        r -= delete
        shifted = np.flatnonzero(insert | delete)
        if shifted.size:
            head = lanes[: m + 1]  # lane m is padding before and after the shift
            ins = insert[shifted, None]
            moved = head >= t[shifted, None] + ins
            src = np.minimum(np.where(moved, head + np.where(ins, -1, 1), head), m)
            V[shifted, : m + 1] = V[shifted[:, None], src]
            C[shifted, : m + 1] = C[shifted[:, None], src]
            grown = shifted[insert[shifted]]  # old run t, one row shorter, below the new run
            V[grown, t[grown] + 1] = vt[grown]
            C[grown, t[grown] + 1] = ct[grown] - 1
    return y, V[:, 0] - (t == 0)  # first row before the last box


def sample_jack_batch(n: int, alpha, rng: np.random.Generator, size: int) -> dict:
    """Monte Carlo sweep: standardized contents and the pre-final first row.

    Returns arrays ``w`` (standardized content of the partition of n) and
    ``lambda1_prev`` (first-row length at time n-1, the truncation-event
    statistic).  ``_sweep`` grows _BATCH_ROWS chains at a time on zero-padded
    run-length arrays, with the uniforms ``rng.random((rows, n - 1))``: read
    row-major, these are the doubles ``_grow`` draws chain after chain, and
    with bit-equal weights and the same running-sum total every draw equals
    ``_grow``'s.
    """
    if n < 2:
        raise ValueError("standardized sampling needs n >= 2")
    af = float(Fraction(alpha))
    scale = content_scale(n, alpha)
    w = np.empty(size)
    lam1_prev = np.empty(size, dtype=np.int64)
    for done in range(0, size, _BATCH_ROWS):
        b = min(_BATCH_ROWS, size - done)
        y, lam1_prev[done : done + b] = _sweep(n, af, rng.random((b, n - 1)))
        w[done : done + b] = y / scale
    return {"w": w, "lambda1_prev": lam1_prev}


# ---------------------------------------------------------------------------
# Conditional content moments and the zero-bias construction
# ---------------------------------------------------------------------------


def conditional_t_moments(parts: Sequence[int], alpha, n: int) -> tuple[Fraction, Fraction]:
    """Exact conditional moments of the standardized added content.

    For a partition of n-1, returns (sum_i p_i c_i, sum_i p_i c_i^2 divided
    by alpha C(n,2)); the first is the first moment up to the positive scale
    sqrt(alpha C(n,2)) and vanishes iff the true first moment does, the
    second is exactly E[T^2 | partition] and should equal 2/n.
    """
    parts = _validate_partition(parts)
    if sum(parts) != n - 1:
        raise ValueError("partition must have size n - 1")
    alpha = Fraction(alpha)
    dist = kerov_transition_probs(parts, alpha)
    m1 = sum(p * c for p, c in zip(dist.probs, dist.contents))
    m2 = sum(p * c * c for p, c in zip(dist.probs, dist.contents))
    return m1, m2 / (alpha * binomial(n, 2))


@dataclass(frozen=True)
class ZeroBiasPair:
    """Joint weight table of the reweighted pair of candidate contents."""

    contents: tuple  # exact contents c_i of the addable corners
    corner_probs: tuple  # exact one-step probabilities p_i
    weights: dict  # (i, j) -> exact weight proportional to p_i p_j (t_i - t_j)^2
    normalizer: Fraction  # exact E (T' - T'')^2, equal to 4/n


def _pair_weights(contents, probs) -> dict:
    """(i, j) -> p_i p_j (x_i - x_j)^2 for i != j, row-major, in the inputs'
    number type; all positive, as distinct corners have distinct contents."""
    return {
        (i, j): probs[i] * probs[j] * (contents[i] - contents[j]) ** 2
        for i, j in itertools.permutations(range(len(contents)), 2)
    }


def zero_bias_pair_distribution(parts: Sequence[int], alpha) -> ZeroBiasPair:
    """Exact pair table with weights p_i p_j (t_i - t_j)^2 / (4/n), for the exact check."""
    parts = _validate_partition(parts)
    n = sum(parts) + 1
    alpha = Fraction(alpha)
    dist = kerov_transition_probs(parts, alpha)
    raw = _pair_weights(dist.contents, dist.probs)
    total = sum(raw.values())
    weights = {ij: wt / total for ij, wt in raw.items()}
    return ZeroBiasPair(dist.contents, dist.probs, weights, total / (alpha * binomial(n, 2)))


def zero_bias_sample(n: int, alpha, rng: np.random.Generator) -> dict:
    """One coupled draw (W, W*, D) from the zero-bias construction.

    Grows the chain to n-1, then draws the actual next-step content T and,
    conditionally independently, the reweighted pair (T-dagger, T-ddagger)
    with an independent uniform mixer, so that W = V/scale + T has the
    content law at n and W* = V/scale + U T-dagger + (1-U) T-ddagger its
    zero-bias transform; D = W* - W = T* - T.  All of it runs on the float
    growth law; ``lambda1_prev`` is the first row at time n-1.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    af = float(Fraction(alpha))
    runs, _, v = _grow(n - 1, af, rng)
    scale = content_scale(n, alpha)
    contents, probs, _ = _float_law(runs, af)

    t = contents[_pick(probs, rng.random())] / scale

    pairs = _pair_weights(contents, probs)
    weights = list(pairs.values())
    i, j = list(pairs)[_pick(weights, rng.random() * math.fsum(weights))]
    t_dag = contents[i] / scale
    t_ddag = contents[j] / scale
    u = rng.random()
    t_star = u * t_dag + (1 - u) * t_ddag
    w = v / scale + t
    w_star = v / scale + t_star
    return {"w": w, "w_star": w_star, "d": w_star - w, "lambda1_prev": runs[0][0]}


def _jack_measure(n: int, alpha: Fraction) -> list[tuple[tuple, Fraction]]:
    """Every partition of n with its exact Jack probability."""
    return [(parts, jack_probability(parts, alpha)) for parts in enumerate_partitions(n)]


def _u_integral(v: Fraction, ci: Fraction, cj: Fraction, power: int) -> Fraction:
    """int_0^1 (v + u ci + (1-u) cj)^power du, exact."""
    if power == 0:
        return Fraction(1)
    hi, lo = v + ci, v + cj
    if ci == cj:
        return hi**power
    return (hi ** (power + 1) - lo ** (power + 1)) / ((power + 1) * (hi - lo))


def check_zero_bias_identity(n: int, alpha, coeffs: Sequence) -> dict:
    """Exact two-sided verification of E[W f(W)] = E[f'(W*)].

    ``coeffs`` are polynomial coefficients of f, lowest degree first, with
    degree at most 5.  The left side enumerates partitions of n under the
    exact measure; the right side enumerates the growth chain to n-1, the
    pair table, and integrates the interpolation parameter in closed form.
    Powers of the irrational scale are cleared monomial by monomial, so the
    comparison is exact rational equality.
    """
    if n > 8:
        raise ValueError("exhaustive check kept feasible only for n <= 8")
    if len(coeffs) > 6:
        raise ValueError("polynomial degree must be at most 5")
    alpha = Fraction(alpha)
    coeffs = [Fraction(c) for c in coeffs]
    scale2 = alpha * binomial(n, 2)
    scale = float(scale2) ** 0.5

    measure = _jack_measure(n, alpha)
    y_moment = lambda j: sum(p * content_sum(parts, alpha) ** j for parts, p in measure)

    prev_law = chain_law(n - 1, alpha)
    pair_tables = [
        (prob, content_sum(parts, alpha), zero_bias_pair_distribution(parts, alpha))
        for parts, prob in prev_law.items()
    ]

    lhs_total = 0.0
    rhs_total = 0.0
    exact_all = True
    per_monomial = {}
    for k, coef in enumerate(coeffs):
        if coef == 0:
            continue
        lhs_k = y_moment(k + 1)  # times scale^-(k+1)
        if k == 0:
            rhs_k = Fraction(0)
        else:
            rhs_k = k * sum(
                prob * sum(
                    wt * _u_integral(v, pair.contents[i], pair.contents[j], k - 1)
                    for (i, j), wt in pair.weights.items()
                )
                for prob, v, pair in pair_tables
            )  # times scale^-(k-1)
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


def check_jack_moments(n: int, alpha) -> dict:
    """Exact E Y = 0 and E Y^2 = alpha C(n,2) by enumeration, n <= 12."""
    if n > 12:
        raise ValueError("full-measure moment check kept feasible only for n <= 12")
    alpha = Fraction(alpha)
    measure = _jack_measure(n, alpha)
    ey = sum(p * content_sum(parts, alpha) for parts, p in measure)
    ey2 = sum(p * content_sum(parts, alpha) ** 2 for parts, p in measure)
    return {"ey": ey, "ey2": ey2, "holds": ey == 0 and ey2 == alpha * binomial(n, 2)}


def exact_w_law(n: int, alpha) -> DiscreteLaw:
    """Law of the standardized content as float atoms with exact weights."""
    alpha = Fraction(alpha)
    scale = content_scale(n, alpha)
    return law_from_pairs(
        (float(content_sum(parts, alpha)) / scale, p) for parts, p in _jack_measure(n, alpha)
    )


# ---------------------------------------------------------------------------
# Degeneracy, parameter region, distance reports
# ---------------------------------------------------------------------------


def single_column_prob(n: int, alpha) -> dict:
    """Exact P[first column = n] with its exponential lower bound."""
    alpha = Fraction(alpha)
    prob = Fraction(1)
    for l in range(n):
        prob *= alpha / (alpha + l)
    lower = math.exp(-(n * n) / float(alpha))
    return {"prob": prob, "lower_bound": lower, "holds": float(prob) >= lower - 1e-12}


def rate_and_region(n: int, alpha, epsilon: float) -> dict:
    """Rate n/sqrt(alpha) and the strict large-alpha window membership."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    af = float(Fraction(alpha))
    r = n / math.sqrt(af)
    in_region = n ** (1.0 + epsilon) < af < n**2 / 2 ** (1.0 - epsilon)
    return {"r": r, "in_region": in_region}


def d_bar(n: int, alpha, epsilon: float) -> float:
    """Coupling-difference majorant 10 sqrt(alpha)/(n epsilon)."""
    return 10.0 * math.sqrt(float(Fraction(alpha))) / (n * epsilon)


def first_row_bound(n: int, alpha) -> float:
    """Bound 4 e alpha / n^2 on the heavy-first-row event at time n-1."""
    return 4.0 * math.e * float(Fraction(alpha)) / n**2


def check_wasserstein_bound(n: int, alpha, rng: np.random.Generator, samples: int) -> dict:
    """Order-statistics d1 estimate against the explicit root-n bound.

    The Monte Carlo slack 6/sqrt(samples) is a generous budget for the
    sampling error of the order-statistics coupling estimate.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    alpha = Fraction(alpha)
    af = float(alpha)
    batch = sample_jack_batch(n, alpha, rng, samples)
    d1_hat = wasserstein_estimate(batch["w"])
    bound = math.sqrt(2.0 / n) * (2.0 + math.sqrt(2.0 + max(af, 1.0 / af) / (n - 1)))
    slack = 6.0 / math.sqrt(samples)
    return {"d1_hat": d1_hat, "bound": bound, "holds_within_mc": d1_hat <= bound + slack}


def kolmogorov_estimate(
    n: int,
    alpha,
    rng: np.random.Generator,
    samples: int,
    confidence: float = 0.05,
) -> dict:
    """Empirical Kolmogorov distance of standardized contents to the normal,
    with its product with the rate n/sqrt(alpha)."""
    if n < 2:
        raise ValueError("n must be >= 2")
    alpha = Fraction(alpha)
    batch = sample_jack_batch(n, alpha, rng, samples)
    report = empirical_kolmogorov(batch["w"], confidence=confidence)
    report["delta_times_rate"] = report["delta_hat"] * n / math.sqrt(float(alpha))
    report["lambda1_prev"] = batch["lambda1_prev"]
    return report
