"""Regenerates ``reference.json``, the stored centres and edges of the Monte Carlo bands.

    python3 perfbench/make_reference.py

- ``delta_hat``: the Kolmogorov distance of each report row, estimated from
  ``POOL`` draws.  ``run.py`` adds this estimate's own DKW radius to the band,
  so the band holds for any report sample count.
- ``d1``: ``d1_hat`` is biased at small sample counts and its law is skewed
  to the right, so a mean-and-sd band would be wrong in the tail.  Its band
  is taken per sample count k from ``BOOTSTRAP`` resamples of size k from the
  same pool: each edge is the extreme resample, pushed out again by its
  distance from the 1e-4 quantile -- an exponential-tail extrapolation from
  about 1e-6 to about 1e-8 per side.

Seeds here are fixed and distinct from the benchmark's unit seeds.  Rerun after
changing a report grid or sample count in ``run.py``.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from run import FULL, SMOKE  # noqa: E402
from steinlab import er_model, jack_model, stein_core  # noqa: E402

POOL = 200_000
BOOTSTRAP = 1_000_000
CHUNK = 20_000
ENTROPY = 20_041_017


def rng_for(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(ENTROPY, spawn_key=key))


def d1_band(pool: np.ndarray, k: int, rng: np.random.Generator) -> dict:
    """Bootstrap law of ``wasserstein_estimate`` on k draws, reduced to a band."""
    q = stein_core.normal_ppf((np.arange(1, k + 1) - 0.5) / k)
    vals = np.empty(BOOTSTRAP)
    for lo in range(0, BOOTSTRAP, CHUNK):
        x = np.sort(rng.choice(pool, size=(CHUNK, k)), axis=1)
        vals[lo:lo + CHUNK] = np.abs(x - q).mean(axis=1)
    q_lo, q_hi = np.quantile(vals, [1e-4, 1 - 1e-4])
    v_min, v_max = vals.min(), vals.max()
    return {
        "low": float(v_min - (q_lo - v_min)),
        "high": float(v_max + (v_max - q_hi)),
        "median": float(np.median(vals)),
        "bootstrap": BOOTSTRAP,
    }


def main() -> None:
    out = {"pool": POOL, "er-report": {"rows": []}, "jack-report": {"rows": []}}
    for i, pt in enumerate(FULL["er-report"]["grid"].split(";")):
        n, m = (int(x) for x in pt.split(","))
        rep = er_model.kolmogorov_estimate(er_model.ErParams(n, m), rng_for(1, i), POOL)
        out["er-report"]["rows"].append({"point": pt, "delta_hat": rep["delta_hat"]})
        print(pt, rep["delta_hat"], flush=True)

    d1_counts = sorted({max(s["jack-report"]["samples"] // 10, 100) for s in (FULL, SMOKE)})
    for i, pt in enumerate(FULL["jack-report"]["grid"].split(";")):
        n_text, alpha_text = pt.split(",")
        pool = jack_model.sample_jack_batch(int(n_text), Fraction(alpha_text), rng_for(2, i), POOL)["w"]
        row = {
            "point": pt,
            "delta_hat": stein_core.empirical_kolmogorov(pool)["delta_hat"],
            "d1": {str(k): d1_band(pool, k, rng_for(3, i, k)) for k in d1_counts},
        }
        out["jack-report"]["rows"].append(row)
        print(pt, row, flush=True)

    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
