"""Exact and Monte Carlo verification toolkit for Stein and zero-bias
couplings on the fixed-edge-count random graph and Jack-measure partitions."""

from .exactnum import (
    HypergeometricParams,
    binomial,
    falling_factorial,
    hyp_moment,
    hyp_pmf,
    hyp_zero_prob,
    phi,
)
from .er_model import ErParams, exact_moments, rate, sample_graph
from .jack_model import JackParams, content_sum, jack_probability, kerov_sample
from .stein_core import DiscreteLaw, RecursionSpec, empirical_kolmogorov

__all__ = [
    "HypergeometricParams",
    "binomial",
    "falling_factorial",
    "hyp_moment",
    "hyp_pmf",
    "hyp_zero_prob",
    "phi",
    "ErParams",
    "exact_moments",
    "rate",
    "sample_graph",
    "JackParams",
    "content_sum",
    "jack_probability",
    "kerov_sample",
    "DiscreteLaw",
    "RecursionSpec",
    "empirical_kolmogorov",
]
