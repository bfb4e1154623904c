"""Runs one workload unit of the steinlab benchmark in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<json spec>'`` from the checkout root.
``run.py`` starts one worker per unit, so every unit pays the lazy caches a
command-line user pays on every invocation.  The worker prints one JSON line:

- ``ready``: ``time.monotonic()`` once steinlab, numpy and scipy are imported
  (the parent subtracts its own spawn time to get ``setup_s``);
- ``wall_s``: the unit's wall time, import excluded;
- ``rss_mb``: the process's peak resident set size;
- ``output``: what the unit produced, for the parent to check;
- ``trace`` and ``spans``: per-function totals and the number of spans written
  to ``spec["spans_path"]``, when the spec asks for tracing.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from steinlab import cli, er_model, exactnum, jack_model, stein_core  # noqa: E402

READY = time.monotonic()

from tracer import Tracer  # noqa: E402

LAYERS = {
    "cli": cli,
    "exactnum": exactnum,
    "er_model": er_model,
    "jack_model": jack_model,
    "stein_core": stein_core,
}
DRAW_COUNTERS = {
    "er_model.sample_isolated_counts": len,
    "jack_model.sample_jack_batch": lambda out: len(out["w"]),
}


def run_cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return {"exit": code, "stdout": buf.getvalue()}


def report_unit(spec: dict) -> dict:
    argv = [
        spec["workload"], "--grid", spec["grid"], "--samples", str(spec["samples"]),
        "--seed", str(spec["seed"]), "--workers", str(spec.get("workers", 1)),
    ]
    return run_cli(argv)


def exact_verify_unit(spec: dict) -> dict:
    """``steinlab verify`` plus the exact families of acceptance criteria 2, 4, 5, 8.

    Every family evaluates all of its points, also after a failure, so the
    work per unit is fixed.
    """
    g = spec["grids"]
    alphas = [Fraction(a) for a in g["alphas"]]
    families = {}

    def family(name, cases, check):
        ok, points = True, 0
        for case in cases:
            ok = bool(check(*case)) and ok
            points += 1
        families[name] = {"holds": ok, "points": points}

    def chain_law_matches(n, alpha):
        law = jack_model.chain_law(n, alpha)
        parts = jack_model.enumerate_partitions(n)
        exact = [law.get(p) == jack_model.jack_probability(p, alpha) for p in parts]
        return len(law) == len(parts) and all(exact)

    def hyp_pmf_exact(N, m, n):
        params = exactnum.HypergeometricParams(N, m, n)
        pmf = exactnum.hyp_pmf_vector(params)
        return sum(pmf.values()) == 1 and sum(k * p for k, p in pmf.items()) == params.mean

    def negative_correlation(n, m):
        rep = er_model.check_negative_correlation(er_model.ErParams(n, m))
        return rep["holds"] and rep["variance_caps"]

    def moment_sandwich(n, m):
        rep = er_model.check_moment_sandwich(er_model.ErParams(n, m))
        return rep["holds_mu"] and rep["holds_sigma"]

    def sandwich_cases():
        for n in range(6, g["sandwich_n"] + 1):
            m_max = int(n * n / 4 - 1.5 * n)
            for m in sorted({1, n // 2, n, 2 * n, int(n**1.5), n * n // 8, m_max}):
                if 0 < m <= m_max and m < n * (n - 1) // 2:
                    yield n, m

    verify = run_cli(["verify"])
    family("chain_law", [(n, a) for a in alphas for n in range(2, g["chain_n"] + 1)],
           chain_law_matches)
    family("jack_moments", [(n, a) for n in range(2, g["moments_n"] + 1) for a in alphas],
           lambda n, a: jack_model.check_jack_moments(n, a)["holds"])
    family("zero_bias_identity",
           [(n, a, k) for n in range(2, g["zero_bias_n"] + 1) for a in alphas for k in range(6)],
           lambda n, a, k: jack_model.check_zero_bias_identity(n, a, [0] * k + [1])["exact_equal"])
    family("hyp_pmf_grid",
           [(N, m, n) for N in range(10, g["hyp_N"] + 1)
            for m in range(1, N // 2 + 1) for n in range(1, N // 2 + 1)],
           hyp_pmf_exact)
    family("zero_prob_sandwich_grid",
           [(N, m, n) for N in range(1, g["zero_prob_N"] + 1)
            for m in range(N + 1) for n in range(N + 1)],
           lambda N, m, n: exactnum.check_zero_prob_sandwich(
               exactnum.HypergeometricParams(N, m, n))["holds"])
    family("exp_remainder_grid", [(10.0 ** (e / 8.0),) for e in range(-48, 25)],
           lambda x: exactnum.check_exp_remainder_envelope(x)["holds"])
    family("negative_correlation_grid",
           [(n, m) for n in range(3, g["neg_corr_n"] + 1) for m in range(1, n * (n - 1) // 2)],
           negative_correlation)
    family("moment_sandwich_grid", sandwich_cases(), moment_sandwich)
    return {"verify": verify, "families": families}


def jack_coupling_unit(spec: dict) -> dict:
    """Coupled (W, W*, D) draws, then a batch sweep on a many-corner shape."""
    rng = np.random.default_rng(np.random.SeedSequence(spec["seed"]))
    out = {"zero_bias": [], "batch": []}
    for n, alpha, draws in spec["zero_bias"]:
        rows = [jack_model.zero_bias_sample(n, Fraction(alpha), rng) for _ in range(draws)]
        out["zero_bias"].append({
            "n": n, "alpha": alpha,
            "w": [r["w"] for r in rows],
            "w_star": [r["w_star"] for r in rows],
            "d": [r["d"] for r in rows],
        })
    for n, alpha, draws in spec["batch"]:
        batch = jack_model.sample_jack_batch(n, Fraction(alpha), rng, draws)
        out["batch"].append({"n": n, "alpha": alpha, "w": batch["w"].tolist()})
    return out


UNITS = {
    "er-report": report_unit,
    "jack-report": report_unit,
    "exact-verify": exact_verify_unit,
    "jack-coupling": jack_coupling_unit,
}


def main() -> None:
    spec = json.loads(sys.argv[1])
    unit = UNITS[spec["workload"]]
    result = {"ready": READY}
    if spec.get("trace"):
        with Tracer(LAYERS, draw_counters=DRAW_COUNTERS) as tracer:
            t0 = time.perf_counter()
            result["output"] = unit(spec)
            result["wall_s"] = time.perf_counter() - t0
        result["trace"] = tracer.totals()
        result["spans"] = tracer.write_spans(spec["spans_path"])
    else:
        t0 = time.perf_counter()
        result["output"] = unit(spec)
        result["wall_s"] = time.perf_counter() - t0
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["steinlab_file"] = cli.__file__
    result["versions"] = {
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": scipy.__version__,
    }
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
