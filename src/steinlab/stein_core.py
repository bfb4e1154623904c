"""Model-agnostic discrete laws, distance estimators, the recursion device and
the exhaustive Efron-Stein check.

Discrete laws carry exact rational probabilities.  The empirical Kolmogorov
estimator and the normal-distance helpers are float-valued, with the normal
CDF evaluated through the complementary error function ``math.erfc`` (absolute
error below 1e-15) and its inverse through the standard library's
``statistics.NormalDist.inv_cdf`` (Wichura's algorithm AS241).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import Callable, Iterable, Mapping

import numpy as np

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
KERNEL_TOL = 1e-12  # the kernel's mean-one weight check and its fixed-point iteration


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / SQRT2)


def normal_pdf(z: float) -> float:
    return INV_SQRT_2PI * math.exp(-0.5 * z * z)


_inv_cdf = np.frompyfunc(NormalDist().inv_cdf, 1, 1)


def normal_ppf(p) -> np.ndarray | np.float64:
    """Standard normal quantile of each p, in p's shape.

    Every p must lie in the open interval (0, 1); p = 0 or 1 raises
    ``statistics.StatisticsError`` (a ``ValueError``).
    """
    # [()] turns a 0-d result into a scalar and leaves arrays as they are
    return np.asarray(_inv_cdf(p), dtype=float)[()]


@dataclass(frozen=True)
class DiscreteLaw:
    """Finite support law with exact probabilities summing to one."""

    atoms: tuple

    def __post_init__(self):
        probs = [p for _, p in self.atoms]
        if any(p <= 0 for p in probs):
            raise ValueError("probabilities must be positive")
        if sum(probs) != 1:
            raise ValueError("probabilities must sum to 1 exactly")

    def values(self):
        return [v for v, _ in self.atoms]

    def expect(self, f: Callable) -> Fraction:
        return sum(p * f(v) for v, p in self.atoms)

    def moment(self, j: int):
        return self.expect(lambda v: v**j)

    def sorted_atoms(self):
        return sorted(self.atoms, key=lambda vp: vp[0])


def law_from_pairs(pairs: Iterable[tuple]) -> DiscreteLaw:
    """Collapse duplicate values and drop zero-probability atoms."""
    acc: dict = {}
    for v, p in pairs:
        if p == 0:
            continue
        acc[v] = acc.get(v, Fraction(0)) + p
    return DiscreteLaw(tuple(sorted(acc.items(), key=lambda vp: vp[0])))


# ---------------------------------------------------------------------------
# Kolmogorov / Wasserstein distances
# ---------------------------------------------------------------------------


def empirical_kolmogorov(samples, confidence: float = 0.05) -> dict:
    """sup_z |F_hat(z) - Phi(z)| for an empirical CDF, with its DKW band.

    The supremum of a step function against a continuous CDF is attained at
    a jump point, approached from the left or evaluated at the jump, so the
    scan over sorted unique sample values with their left limits is exact.
    """
    x = np.asarray(samples, dtype=float)
    k = x.size
    if k < 100:
        raise ValueError("need at least 100 samples")
    vals, counts = np.unique(x, return_counts=True)
    cum = np.cumsum(counts) / k
    cdf_at = np.array([normal_cdf(v) for v in vals.tolist()])
    left = np.concatenate(([0.0], cum[:-1]))
    delta_hat = float(np.max(np.maximum(np.abs(cum - cdf_at), np.abs(left - cdf_at))))
    band = math.sqrt(math.log(2.0 / confidence) / (2.0 * k))
    return {"delta_hat": delta_hat, "dkw_band": band, "samples": k}


def kolmogorov_discrete_vs_normal(law: DiscreteLaw) -> float:
    """Exact sup_z |F(z) - Phi(z)| for a finite discrete law."""
    best = 0.0
    cum = Fraction(0)
    for v, p in law.sorted_atoms():
        c = normal_cdf(float(v))
        best = max(best, abs(float(cum) - c), abs(float(cum + p) - c))
        cum += p
    return best


def _int_normal_cdf(a: float, b: float) -> float:
    """int_a^b Phi(z) dz via the antiderivative z Phi(z) + pdf(z)."""
    return (b * normal_cdf(b) + normal_pdf(b)) - (a * normal_cdf(a) + normal_pdf(a))


def wasserstein_discrete_vs_normal(law: DiscreteLaw) -> float:
    """Exact d1 = int |F(z) - Phi(z)| dz for a finite discrete law."""

    def seg(a: float, b: float, level: float) -> float:
        # integral of |level - Phi| over [a, b]; split where Phi crosses level
        if 0.0 < level < 1.0:
            z = float(normal_ppf(level))
            if a < z < b:
                return seg(a, z, level) + seg(z, b, level)
        mid = _int_normal_cdf(a, b)
        return abs(level * (b - a) - mid)

    atoms = law.sorted_atoms()
    vs = [float(v) for v, _ in atoms]
    total = 0.0
    # left tail: F = 0 on (-inf, v_1];  int_-inf^v Phi = v Phi(v) + pdf(v)
    total += vs[0] * normal_cdf(vs[0]) + normal_pdf(vs[0])
    cum = Fraction(0)
    for i in range(len(atoms) - 1):
        cum += atoms[i][1]
        total += seg(vs[i], vs[i + 1], float(cum))
    # right tail: int_v^inf (1 - Phi) = pdf(v) - v (1 - Phi(v))
    total += normal_pdf(vs[-1]) - vs[-1] * (1.0 - normal_cdf(vs[-1]))
    return total


def wasserstein_estimate(samples) -> float:
    """Order-statistics estimate of d1 to the standard normal."""
    x = np.sort(np.asarray(samples, dtype=float))
    k = x.size
    q = normal_ppf((np.arange(1, k + 1) - 0.5) / k)
    return float(np.mean(np.abs(x - q)))


# ---------------------------------------------------------------------------
# The scalar recursion and its finite-kernel generalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecursionSpec:
    q: float
    c: float

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise ValueError("q must lie in (0, 1)")
        if not 0 < self.c < math.inf:
            raise ValueError("c must lie in (0, inf)")
        if not self.c / (1.0 - self.q) < math.inf:
            raise ValueError("c/(1-q) must be finite")


def recursion_closed_form(spec: RecursionSpec, n: int) -> float:
    """Solution q^(n-1) + c (1 - q^(n-1))/(1 - q) of a_n = q a_(n-1) + c, a_1 = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    qp = spec.q ** (n - 1)
    return qp + spec.c * (1.0 - qp) / (1.0 - spec.q)


@dataclass(frozen=True)
class FiniteKernel:
    """Finite-state weighted transition structure for the recursion bound.

    ``transitions[state]`` lists (successor, x_weight, probability) triples;
    ``rate`` is the growth control used by the fourth condition.  On the
    nice set the x-weights must average to one, off it they must vanish.
    """

    states: tuple
    active_states: frozenset
    transitions: Mapping
    rate: Mapping


class KernelConditionError(ValueError):
    pass


def _validate_kernel(kernel: FiniteKernel) -> None:
    for s in kernel.states:
        rows = kernel.transitions.get(s, ())
        mean_x = float(sum(Fraction(p) * Fraction(x) for _, x, p in rows))
        if s in kernel.active_states:
            if abs(mean_x - 1.0) > KERNEL_TOL:
                raise KernelConditionError(f"E[X] != 1 at nice state {s!r}: {mean_x}")
        else:
            if any(x != 0 for _, x, _ in rows):
                raise KernelConditionError(f"X not identically 0 off the nice set at {s!r}")


def recursion_bound_solve(kernel: FiniteKernel, spec: RecursionSpec) -> dict:
    """Maximal fixed point of a = q E[X a(Psi)] + c over a finite kernel.

    Raises KernelConditionError when the mean-one / vanishing-weight
    conditions fail, or when the solved map violates the growth control
    a <= r, max_{X>0} r(Psi) <= r/(2q).
    """
    _validate_kernel(kernel)
    start = spec.c / (1.0 - spec.q) + 1.0
    a = {s: start for s in kernel.states}
    for _ in range(100_000):
        worst = 0.0
        new = {}
        for s in kernel.states:
            val = spec.q * sum(p * x * a[t] for t, x, p in kernel.transitions.get(s, ())) + spec.c
            worst = max(worst, abs(val - a[s]))
            new[s] = val
        a = new
        if worst <= KERNEL_TOL:
            break
    else:
        raise RuntimeError("fixed-point iteration did not converge")

    violations = []
    for s in kernel.active_states:
        r_s = float(kernel.rate[s])
        if a[s] > r_s + 1e-9:
            violations.append(f"a({s!r})={a[s]:.6g} exceeds r({s!r})={r_s:.6g}")
        support_rates = [float(kernel.rate[t]) for t, x, _ in kernel.transitions.get(s, ()) if x != 0]
        if support_rates and max(support_rates) > r_s / (2.0 * spec.q) + 1e-9:
            violations.append(
                f"rate growth at {s!r}: max r(Psi)={max(support_rates):.6g} "
                f"> r/(2q)={r_s / (2.0 * spec.q):.6g}"
            )
    if violations:
        raise KernelConditionError("; ".join(violations))

    sup_ok = max(a.values()) <= spec.c / (1.0 - spec.q) + 1e-9
    return {"a": a, "sup_ok": sup_ok}


# ---------------------------------------------------------------------------
# Exhaustive Efron-Stein-type variance bound
# ---------------------------------------------------------------------------


def check_efron_stein(h: Callable, N: int, n_sigma: int) -> dict:
    """Exhaustive check of the single-coordinate/transposition variance bound.

    ``h(pi, sigmas)`` takes a permutation of [N] and a tuple of ``n_sigma``
    permutations, and may return int, Fraction or float.  The variance and the
    right-hand side are computed exactly over the full product space, with
    each transposition tau_j averaged over its uniform target in {j..N}.
    h is called once per state and held, times the lcm s of its denominators,
    as an integer table H over (pi, sigma_1, ...).
    """
    if N > 4 or n_sigma > 2:
        raise ValueError("exhaustive enumeration kept feasible only for N <= 4, n_sigma <= 2")
    perms = list(itertools.permutations(range(1, N + 1)))
    P = len(perms)
    sigmas = list(itertools.product(perms, repeat=n_sigma))
    values = [Fraction(h(pi, sig)) for pi in perms for sig in sigmas]
    s = math.lcm(*(v.denominator for v in values))
    H = np.array([v.numerator * (s // v.denominator) for v in values], dtype=object)
    H = H.reshape((P,) * (1 + n_sigma))
    S = H.size
    sum_sq = (H * H).sum()
    var = Fraction(S * sum_sq - H.sum() ** 2, (S * s) ** 2)

    # sigma_i replaced by a copy: sum_{a,b} (x_a - x_b)^2 = 2P sum x^2 - 2 (sum x)^2 along
    # axis i; a Fraction even with no sigma, where an int 0 would make the bound a float
    first = Fraction(0)
    for i in range(1, 1 + n_sigma):
        first += Fraction(2 * P * sum_sq - 2 * (H.sum(axis=i) ** 2).sum(), S * P * s * s)

    # pi tau_j is pi with positions j and target exchanged: one reindexing of axis 0
    index = {pi: k for k, pi in enumerate(perms)}
    second = Fraction(0)
    for j in range(1, N):
        for target in range(j, N + 1):
            order = list(range(N))
            order[j - 1], order[target - 1] = target - 1, j - 1
            D = H - H[[index[tuple(pi[o] for o in order)] for pi in perms]]
            second += Fraction((D * D).sum(), (N - j + 1) * S * s * s)

    bound = first / 2 + second / 2
    return {"var": var, "bound": bound, "holds": var <= bound}
