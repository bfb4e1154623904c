"""Exact integer/rational combinatorics and the hypergeometric distribution.

Everything here is computed in arbitrary precision (``int`` /
``fractions.Fraction``); floats only appear at the boundary, when an exact
quantity is compared against an analytic bound.  Bound checkers return plain
dicts with the exact left side, the float right side and a ``holds`` flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# Float slack absorbing the exact->float conversion in bound checkers.
FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class HypergeometricParams:
    """Population size, number of draws, number of special balls."""

    population: int
    draws: int
    special: int

    def __post_init__(self):
        if self.population < 0:
            raise ValueError("population must be nonnegative")
        if not 0 <= self.draws <= self.population:
            raise ValueError("draws must lie in [0, population]")
        if not 0 <= self.special <= self.population:
            raise ValueError("special must lie in [0, population]")

    @property
    def mean(self) -> Fraction:
        """Exact mean draws*special/population (0 for an empty population)."""
        if self.population == 0:
            return Fraction(0)
        return Fraction(self.draws * self.special, self.population)

    def support(self) -> range:
        lo = max(0, self.draws - (self.population - self.special))
        hi = min(self.draws, self.special)
        return range(lo, hi + 1)


def binomial(n: int, k: int) -> int:
    """C(n, k); zero when k > n, matching the combinatorial convention."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires nonnegative arguments")
    return math.comb(n, k)


def falling_factorial(n: int, k: int) -> int:
    """(n)_k = n(n-1)...(n-k+1); zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError("falling_factorial requires nonnegative arguments")
    return math.perm(n, k)


def hyp_pmf(params: HypergeometricParams, k: int) -> Fraction:
    """Exact P[H = k] for H ~ Hyp(population, draws, special)."""
    N, m, n = params.population, params.draws, params.special
    if k < 0 or k > m:
        return Fraction(0)
    num = binomial(n, k) * binomial(N - n, m - k)
    if num == 0:
        return Fraction(0)
    return Fraction(num, binomial(N, m))


def hyp_pmf_vector(params: HypergeometricParams) -> dict[int, Fraction]:
    """The full pmf over the support, as {k: probability}.

    The numerators C(n,k) C(N-n, m-k) follow each other by the pmf ratio
    (n-k)(m-k) / ((k+1)(N-n-m+k+1)), an exact integer division at each step.
    """
    N, m, n = params.population, params.draws, params.special
    support = params.support()
    total = binomial(N, m)
    num = binomial(n, support.start) * binomial(N - n, m - support.start)
    out = {}
    for k in support:
        out[k] = Fraction(num, total)
        num = num * (n - k) * (m - k) // ((k + 1) * (N - n - m + k + 1))
    return out


def hyp_moment(params: HypergeometricParams, j: int) -> Fraction:
    """Exact j-th raw moment E H^j via pmf summation."""
    if j < 1:
        raise ValueError("moment order must be positive")
    return sum((Fraction(k) ** j) * p for k, p in hyp_pmf_vector(params).items()) or Fraction(0)


def hyp_zero_prob(params: HypergeometricParams) -> Fraction:
    """P[H = 0] in product form, prod_{i<m} (1 - n/(N-i)).

    Evaluated as the falling-factorial ratio (N-n)_m / (N)_m, whose factors
    are exactly the product terms.  When the support excludes zero a factor
    vanishes before any can turn negative, so this agrees with the pmf
    everywhere.
    """
    N, m, n = params.population, params.draws, params.special
    return Fraction(falling_factorial(N - n, m), falling_factorial(N, m))


def check_tail_bound(params: HypergeometricParams, t: float) -> dict:
    """Exponential tail bound P[H >= gamma + t] <= exp(-t^2/(2 gamma + t))."""
    if not 0 < t < math.inf:
        raise ValueError("t must lie in (0, inf)")
    gamma = params.mean
    threshold = gamma + Fraction(t)
    lhs = float(sum(p for k, p in hyp_pmf_vector(params).items() if k >= threshold))
    rhs = math.exp(-t * t / (2 * float(gamma) + t))
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + FLOAT_SLACK}


def check_moment_bound(params: HypergeometricParams, k: int) -> dict:
    """E H^k against the explicit envelope 3^(k-1)(k!(gamma+1)^k + gamma^k + 1)."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    gamma = float(params.mean)
    lhs = float(hyp_moment(params, k))
    rhs = 3.0 ** (k - 1) * (math.factorial(k) * (gamma + 1) ** k + gamma**k + 1)
    return {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs + FLOAT_SLACK}


def check_zero_prob_sandwich(params: HypergeometricParams) -> dict:
    """Two-sided exponential sandwiches for P[H = 0] and P[H > 0].

    The exponential lower bound on P[H = 0] is asserted only when
    draws + special - 1 < population; outside that region only the upper
    bound and the P[H > 0] sandwich are checked.
    """
    N, m, n = params.population, params.draws, params.special
    # int / int is correctly rounded, so this is float(hyp_zero_prob(params))
    p0 = falling_factorial(N - n, m) / falling_factorial(N, m)
    x = m * n / N if N > 0 else 0.0
    upper = math.exp(-x)
    lower_applicable = m + n - 1 < N
    lower = math.exp(-m * n / (N - m - n + 1)) if lower_applicable else None

    holds = p0 <= upper + FLOAT_SLACK
    if lower_applicable:
        holds = holds and lower <= p0 + FLOAT_SLACK

    p_pos = 1.0 - p0
    quad = x - x * x / 2
    holds = holds and quad <= (1 - upper) + FLOAT_SLACK
    holds = holds and (1 - upper) <= p_pos + FLOAT_SLACK
    holds = holds and p_pos <= x + FLOAT_SLACK

    return {"p0": p0, "lower": lower, "upper": upper, "holds": holds}


def check_exp_remainder_envelope(x: float) -> dict:
    """min(x^2,1)/4 <= 1 - e^-x (1+x) <= min(x^2,2)/2 for x >= 0."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    mid = one_minus_exp_poly(x)
    lo = min(x * x, 1.0) / 4
    hi = min(x * x, 2.0) / 2
    return {
        "lower": lo,
        "mid": mid,
        "upper": hi,
        "holds": lo <= mid + FLOAT_SLACK and mid <= hi + FLOAT_SLACK,
    }


# Below this point the direct evaluation of 1 - e^-x (1+x) loses ~8 digits to
# cancellation; both branches agree to ~1e-13 at the switch.
_SERIES_CUTOFF = 1e-4


def one_minus_exp_poly(x: float) -> float:
    """1 - e^-x (1+x), stable near zero via the integral series of t e^-t."""
    if x < _SERIES_CUTOFF:
        # int_0^x t e^-t dt = x^2/2 - x^3/3 + x^4/8 - x^5/30 + O(x^6)
        return x * x * (0.5 + x * (-1.0 / 3.0 + x * (0.125 - x / 30.0)))
    return 1.0 - math.exp(-x) * (1.0 + x)


def phi(x: float) -> float:
    """The variance profile e^-x (1 - e^-x (1+x))."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    return math.exp(-x) * one_minus_exp_poly(x)
