"""Jack measure on integer partitions: exact probabilities, the one-box
growth process, content statistics and the zero-bias construction.

Partitions are tuples of non-increasing positive parts.  The growth chain
adds one box per step.  Its transition law is Kerov's interlacing formula:
with x_k the alpha-contents of the addable corners and y_i the contents of
the removable boxes plus alpha - 1,

    p_k = prod_i (x_k - y_i) / prod_{j != k} (x_k - x_j).

``_corner_law`` evaluates it over a run-length encoding of the partition.  Its
exact path runs in integers scaled by b, for alpha = a/b in lowest terms:
b times every content is an integer, and each probability is one Fraction of
two integer products.  Contents and content sums stay scaled integers until an
exact value is returned.  With a float alpha and b = 1 it serves the one-chain
samplers.  The batch sampler's ``_sweep`` is its vectorized twin: it grows a
whole batch of chains one box per numpy step, on the same run-length
encoding held in (lanes x chains) int64 arrays, so that each step runs along
contiguous rows over all chains, and multiplies the same factors in the same
order, so its draws equal the one-chain loop's.  Both pick a corner by
inverse CDF against the plain running sum of the float weights.  The
zero-bias pair law is one ``_pair_weights``: the sampler draws from it in
floats, the exact identity check reads it on scaled contents.  The irrational
scale sqrt(alpha C(n,2)) enters only at the final standardization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
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
        object.__setattr__(self, "alpha", Fraction(*_alpha_ratio(self.alpha)))
        try:  # the samplers grow partitions with float(alpha)
            as_float = float(self.alpha)
        except OverflowError:
            as_float = math.inf
        if not 0 < as_float < math.inf:
            raise ValueError("alpha must be a nonzero finite float")


def _alpha_ratio(alpha) -> tuple[int, int]:
    """(a, b) with alpha = a/b in lowest terms and b > 0; ValueError unless
    alpha > 0.  An int or Fraction is read without building a new Fraction."""
    ratio = alpha if isinstance(alpha, (int, Fraction)) else Fraction(alpha)
    a, b = int(ratio.numerator), int(ratio.denominator)
    if a <= 0:
        raise ValueError("alpha must be positive")
    return a, b


def _alpha_float(alpha) -> float:
    """float(alpha) after the check of ``_alpha_ratio``."""
    a, b = _alpha_ratio(alpha)
    return a / b


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
    a, b = _alpha_ratio(alpha)
    conj = conjugate(parts)
    n = sum(parts)
    hooks = 1
    for r, lam in enumerate(parts):
        for c in range(lam):
            arm, leg = lam - c - 1, conj[c] - r - 1
            hooks *= (a * arm + b * (leg + 1)) * (a * arm + b * leg + a)
    return Fraction((a * b) ** n * math.factorial(n), hooks)


def _scaled_content(parts: tuple, a: int, b: int) -> int:
    """b Y = a sum_i C(lam_i, 2) - b sum_i (i-1) lam_i at alpha = a/b."""
    return sum(a * (lam * (lam - 1) // 2) - b * i * lam for i, lam in enumerate(parts))


def content_sum(parts: Sequence[int], alpha) -> Fraction:
    """Y = sum over boxes of alpha (col-1) - (row-1), exact."""
    a, b = _alpha_ratio(alpha)
    return Fraction(_scaled_content(_validate_partition(parts), a, b), b)


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


def _corner_law(runs, a, b=1):
    """(b times the contents, probabilities) of the addable corners, top row first.

    Kerov's interlacing formula over the run-length encoding at alpha = a/b:
    with S_t the rows above run t, the addable corner of run t has scaled
    content X_t = a v_t - b S_t, the new bottom row X_r = -b S_r, and the
    removable box closing run t gives Y_t = a v_t - b S_{t+1}.  Both products
    have r factors, so b cancels.  Integers a, b give one exact Fraction per
    probability; a float a with b = 1 gives floats.
    """
    x = []
    y = []
    rows = 0  # b times the rows above the current run
    for v, count in runs:
        av = a * v
        x.append(av - rows)
        rows += b * count
        y.append(av - rows)
    x.append(a * 0 - rows)  # new bottom row; a * 0 keeps a's number type
    exact = isinstance(a, int)
    probs = []
    for k, xk in enumerate(x):
        num = den = 1
        for yi in y:
            num *= xk - yi
        for j, xj in enumerate(x):
            if j != k:
                den *= xk - xj
        probs.append(Fraction(num, den) if exact else num / den)
    return x, probs


def kerov_transition_probs(parts: Sequence[int], alpha) -> CornerDistribution:
    """Exact one-step growth law from a partition."""
    parts = _validate_partition(parts)
    a, b = _alpha_ratio(alpha)
    xs, probs = _corner_law(_parts_to_runs(parts), a, b)
    contents = tuple(Fraction(x, b) for x in xs)
    return CornerDistribution(tuple(addable_corners(parts)), contents, tuple(probs))


def chain_law(n: int, alpha) -> dict:
    """Exact law of the growth chain at time n, by forward recursion on
    run-length keys; partitions in the order first reached, top corner first."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = _alpha_ratio(alpha)
    law = {((1, 1),): Fraction(1)}
    for _ in range(n - 1):
        nxt: dict = {}
        for runs, p in law.items():
            _, probs = _corner_law(runs, a, b)
            for t, tp in enumerate(probs):
                grown = [list(run) for run in runs]
                _grow_runs(grown, t)
                key = tuple(map(tuple, grown))
                nxt[key] = nxt.get(key, 0) + p * tp
        law = nxt
    return {_runs_to_parts(runs): p for runs, p in law.items()}


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
    a, b = _alpha_ratio(alpha)
    runs, boxes, _ = _grow(n, a / b, rng)
    return _runs_to_parts(runs), [Fraction(a * col - b * row, b) for row, col in boxes]


def _batch_corner_law(v: np.ndarray, c: np.ndarray, r: np.ndarray, alpha: float):
    """Float ``_corner_law`` of many run-length encodings at once, bit for bit.

    The arrays are (lanes x chains): column i holds the values ``v`` and
    counts ``c`` of chain i's r_i runs in lanes t < r_i, and zeros after, with
    at least one zero lane.  With S_t the rows above run t, lane t < r_i holds
    the corner x_t = alpha v_t - S_t and the removable box
    y_t = alpha v_t - (S_t + c_t), and the zeros supply the bottom corner
    x_r = alpha 0 - S_r.  S is an exact integer running sum, one whole-row
    addition per lane: numpy runs an axis-0 ``cumsum`` one column at a time,
    which costs 20-35 us on 2-6 lanes of 1100 chains.  The products run in
    ``_corner_law``'s order, with a factor 1.0 on missing lanes.  Returns the
    contents x and the weights, also (lanes x chains), 0 past each bottom
    corner, where nothing is divided.
    """
    m, b = v.shape
    S = np.zeros_like(c)  # exclusive running sum of the counts, lane by lane
    for above, counts, rows in zip(S, c, S[1:]):
        np.add(above, counts, out=rows)
    av = alpha * v
    x = av - S
    ys = av - (S + c)
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


def _batch_pick(cum: np.ndarray, level: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``_pick``'s first-hit rule per chain over (lanes x chains) running sums:
    the number of leading lanes whose running sum is <= ``level``, at most r
    (the bottom corner).  The leading run is a running ``and`` over the lanes,
    so a lane below ``level`` after a lane above it is not counted, whether or
    not the running sums increase."""
    below = cum <= level
    for prev, lane in zip(below, below[1:]):
        np.logical_and(prev, lane, out=lane)
    return np.minimum(below.sum(axis=0), r)


def _sweep(n: int, alpha: float, u: np.ndarray):
    """``_grow`` for len(u) chains at once, one box per numpy step.

    Chain i draws step s with ``u[i, s]``.  Each chain is the run-length
    encoding of ``_grow_runs`` padded with zero runs, held lane-major: values
    V and counts C of shape (lanes x chains), so that every numpy step runs
    along contiguous rows over all chains, and the run count r.
    ``_batch_corner_law`` gives the weights of ``_float_law`` bit for bit.
    Their running sum is taken in place, one whole-row addition per lane,
    which adds the same doubles in the same order as ``np.cumsum`` and
    ``_pick``, so the total is the scalar one.  ``_batch_pick`` is
    ``_pick``'s first-hit rule: the first lane whose running sum exceeds u
    times the total, else the bottom corner, so every pick and content
    equals the scalar one.  Returns the content sums and the first rows at
    time n-1.
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
        x, cum = _batch_corner_law(V[:m], C[:m], r, alpha)  # the weights, summed below
        for prev, lane in zip(cum, cum[1:]):  # in place, in np.cumsum's order
            np.add(prev, lane, out=lane)
        total = cum[-1]
        _check_total(total[np.abs(total - 1.0).argmax()])
        t = _batch_pick(cum, u[:, s] * total, r)
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


def sample_jack_batch(n: int, alpha, rng: np.random.Generator, size: int) -> dict:
    """Monte Carlo sweep: standardized contents and the pre-final first row.

    Returns arrays ``w`` (standardized content of the partition of n) and
    ``lambda1_prev`` (first-row length at time n-1, the truncation-event
    statistic).  ``_sweep`` grows _BATCH_ROWS chains at a time on (lanes x
    chains) run-length arrays, with the uniforms ``rng.random((rows, n - 1))``,
    which it reads in place: read row-major, these are the doubles ``_grow``
    draws chain after chain, and with bit-equal weights and the same
    running-sum total every draw equals ``_grow``'s.
    """
    if n < 2:
        raise ValueError("standardized sampling needs n >= 2")
    af = _alpha_float(alpha)
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
    a, b = _alpha_ratio(alpha)
    xs, probs = _corner_law(_parts_to_runs(parts), a, b)  # xs are b times the contents
    m1 = sum(p * x for p, x in zip(probs, xs)) / b
    m2 = sum(p * x * x for p, x in zip(probs, xs))
    return m1, m2 / (a * b * binomial(n, 2))


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
    a, b = _alpha_ratio(alpha)
    xs, probs = _corner_law(_parts_to_runs(parts), a, b)
    raw = _pair_weights(xs, probs)  # b^2 times the weights, which cancels below
    total = sum(raw.values())
    weights = {ij: wt / total for ij, wt in raw.items()}
    contents = tuple(Fraction(x, b) for x in xs)
    return ZeroBiasPair(contents, tuple(probs), weights, total / (a * b * binomial(n, 2)))


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
    af = _alpha_float(alpha)
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


def _jack_measure(n: int, a: int, b: int) -> list[tuple[Fraction, int]]:
    """(exact Jack probability, b Y) for every partition of n at alpha = a/b."""
    alpha = Fraction(a, b)
    return [
        (jack_probability(parts, alpha), _scaled_content(parts, a, b))
        for parts in enumerate_partitions(n)
    ]


@lru_cache(maxsize=None)
def _zero_bias_tables(n: int, a: int, b: int) -> tuple:
    """The tables of ``check_zero_bias_identity`` at alpha = a/b, built once
    per (n, a, b) for its per-monomial calls: the Jack measure at n, and per
    partition of n-1 its chain probability over its pair-weight total, b Y
    and its pairs (x_i, x_j, scaled weight), all in tuples."""
    measure = tuple(_jack_measure(n, a, b))
    tables = []
    for parts, prob in chain_law(n - 1, Fraction(a, b)).items():
        xs, probs = _corner_law(_parts_to_runs(parts), a, b)
        raw = _pair_weights(xs, probs)
        pairs = tuple((xs[i], xs[j], wt) for (i, j), wt in raw.items())
        tables.append((prob / sum(raw.values()), _scaled_content(parts, a, b), pairs))
    return measure, tuple(tables)


def check_zero_bias_identity(n: int, alpha, coeffs: Sequence) -> dict:
    """Exact two-sided verification of E[W f(W)] = E[f'(W*)].

    ``coeffs`` are polynomial coefficients of f, lowest degree first, with
    degree at most 5.  The left side enumerates partitions of n under the
    exact measure; the right side enumerates the growth chain to n-1, the
    pair table, and integrates the interpolation parameter in closed form.
    Powers of the irrational scale are cleared monomial by monomial, so the
    comparison is exact rational equality.  Contents are b-scaled integers at
    alpha = a/b: k times the u-integral of (v + u c_i + (1-u) c_j)^(k-1) is
    sum_t H^t L^(k-1-t) / b^(k-1) with H = b(v + c_i) and L = b(v + c_j), and
    the b^2 of the scaled pair weights cancels in their normalization.
    """
    if not 2 <= n <= 8:
        raise ValueError("n must lie in [2, 8]; the exhaustive check is kept feasible")
    if len(coeffs) > 6:
        raise ValueError("polynomial degree must be at most 5")
    a, b = _alpha_ratio(alpha)
    alpha = Fraction(a, b)
    coeffs = [Fraction(c) for c in coeffs]
    scale2 = alpha * binomial(n, 2)
    scale = float(scale2) ** 0.5

    measure, pair_tables = _zero_bias_tables(n, a, b)
    lhs_total = 0.0
    rhs_total = 0.0
    exact_all = True
    per_monomial = {}
    for k, coef in enumerate(coeffs):
        if coef == 0:
            continue
        lhs_k = sum(p * y ** (k + 1) for p, y in measure) / b ** (k + 1)  # times scale^-(k+1)
        if k == 0:
            rhs_k = Fraction(0)
        else:
            rhs_k = sum(
                weight * sum(
                    wt * sum((v + xi) ** t * (v + xj) ** (k - 1 - t) for t in range(k))
                    for xi, xj, wt in pairs
                )
                for weight, v, pairs in pair_tables
            ) / b ** (k - 1)  # times scale^-(k-1)
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
    a, b = _alpha_ratio(alpha)
    measure = _jack_measure(n, a, b)
    ey = sum(p * y for p, y in measure) / b
    ey2 = sum(p * y * y for p, y in measure) / (b * b)
    return {"ey": ey, "ey2": ey2, "holds": ey == 0 and ey2 == Fraction(a, b) * binomial(n, 2)}


def exact_w_law(n: int, alpha) -> DiscreteLaw:
    """Law of the standardized content as float atoms with exact weights."""
    if n < 2:
        raise ValueError("n must be >= 2")
    a, b = _alpha_ratio(alpha)
    scale = content_scale(n, alpha)
    return law_from_pairs((y / b / scale, p) for p, y in _jack_measure(n, a, b))


# ---------------------------------------------------------------------------
# Degeneracy, parameter region, distance reports
# ---------------------------------------------------------------------------


def single_column_prob(n: int, alpha) -> dict:
    """Exact P[first column = n] = prod_l a / (a + l b) at alpha = a/b, with
    its exponential lower bound."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = _alpha_ratio(alpha)
    prob = Fraction(a**n, math.prod(a + l * b for l in range(n)))
    lower = math.exp(-(n * n) / (a / b))
    return {"prob": prob, "lower_bound": lower, "holds": float(prob) >= lower - 1e-12}


def rate_and_region(n: int, alpha, epsilon: float) -> dict:
    """Rate n/sqrt(alpha) and the strict large-alpha window membership."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    af = _alpha_float(alpha)
    r = n / math.sqrt(af)
    in_region = n ** (1.0 + epsilon) < af < n**2 / 2 ** (1.0 - epsilon)
    return {"r": r, "in_region": in_region}


def d_bar(n: int, alpha, epsilon: float) -> float:
    """Coupling-difference majorant 10 sqrt(alpha)/(n epsilon)."""
    return 10.0 * math.sqrt(_alpha_float(alpha)) / (n * epsilon)


def first_row_bound(n: int, alpha) -> float:
    """Bound 4 e alpha / n^2 on the heavy-first-row event at time n-1."""
    return 4.0 * math.e * _alpha_float(alpha) / n**2


def _wasserstein_report(n: int, alpha, w: np.ndarray) -> dict:
    """Order-statistics d1 estimate from the standardized contents ``w``
    against the explicit root-n bound.

    The Monte Carlo slack 6/sqrt(len(w)) is a generous budget for the
    sampling error of the order-statistics coupling estimate.
    """
    af = _alpha_float(alpha)
    d1_hat = wasserstein_estimate(w)
    bound = math.sqrt(2.0 / n) * (2.0 + math.sqrt(2.0 + max(af, 1.0 / af) / (n - 1)))
    slack = 6.0 / math.sqrt(w.size)
    return {"d1_hat": d1_hat, "bound": bound, "holds_within_mc": d1_hat <= bound + slack}


def _kolmogorov_report(n: int, alpha, w: np.ndarray, confidence: float) -> dict:
    """Empirical Kolmogorov distance of the standardized contents ``w`` to the
    normal, with its product with the rate n/sqrt(alpha)."""
    report = empirical_kolmogorov(w, confidence=confidence)
    report["delta_times_rate"] = report["delta_hat"] * n / math.sqrt(_alpha_float(alpha))
    return report


def check_wasserstein_bound(n: int, alpha, rng: np.random.Generator, samples: int) -> dict:
    """``_wasserstein_report`` on ``samples`` fresh chains."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return _wasserstein_report(n, alpha, sample_jack_batch(n, alpha, rng, samples)["w"])


def kolmogorov_estimate(
    n: int,
    alpha,
    rng: np.random.Generator,
    samples: int,
    confidence: float = 0.05,
) -> dict:
    """``_kolmogorov_report`` on ``samples`` fresh chains, with their
    pre-final first rows as ``lambda1_prev``."""
    if n < 2:
        raise ValueError("n must be >= 2")
    batch = sample_jack_batch(n, alpha, rng, samples)
    report = _kolmogorov_report(n, alpha, batch["w"], confidence)
    report["lambda1_prev"] = batch["lambda1_prev"]
    return report
