"""The steinlab benchmark: one workload per invocation, closed loop, one process.

    python3 perfbench/run.py --workload er-report --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; steinlab is imported from ``src/``.  Each
unit of work runs in a fresh ``worker.py`` process, one at a time, with
``--workers 1``; the loop starts units until the next would end after
``--seconds`` (at least one).  The unit seeds come from ``--seed``.

``--trace 0`` reports the end-to-end metrics, each a median over the run's
units.  On a shared host the same unit's time swings by up to 2x within
seconds, so every time is scaled to a reference host speed: the run pins
itself and its workers to one core, times a fixed pure-Python kernel
(``host_probe``) just before each worker starts, and multiplies the worker's
times by ``PROBE_REF_S`` over that probe time.  ``setup_s`` is the time from
spawn to "steinlab imported", over every worker the run starts.  ``--trace 1``
alternates untraced and traced units and reports the per-layer metrics,
averaged over the traced units.

Every run also re-runs the workload at contract size (``SMOKE``) outside the
timed loop: twice with one seed, and once with ``--workers 2`` for the two
reports, requiring identical output.  Each output is checked (see
``check_output``).  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` (correctness checks) and ``metrics``; the exit code
is 0 only when every check held.  ``--workload all`` runs every workload in
turn.  Results with provenance also go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DEADLINE_S = 170.0  # per workload, leaving margin under 180 s

ER_GRID = "100,100;200,200;400,400"
JACK_GRID = "16,64;32,181.019336;64,512"
# The families of acceptance criteria 2, 4, 5 and 8 on grids cut from the tier-1
# sizes (chain_n 8, moments_n 12, zero_bias_n 8, hyp_N 60, zero_prob_N 100,
# neg_corr_n 60, sandwich_n 200; about 20 s) to under 2 s, so that one run holds
# about ten units and their median is steady.
EXACT_GRIDS = {
    "alphas": ["1/2", "1", "2", "5"],
    "chain_n": 6, "moments_n": 9, "zero_bias_n": 6,
    "hyp_N": 30, "zero_prob_N": 45, "neg_corr_n": 30, "sandwich_n": 90,
}
FULL = {
    "er-report": {"grid": ER_GRID, "samples": 5_000},
    "jack-report": {"grid": JACK_GRID, "samples": 1_000},
    "exact-verify": {"grids": EXACT_GRIDS},
    "jack-coupling": {"zero_bias": [[50, "1", 50], [16, "64", 100]], "batch": [[100, "1", 100]]},
}
SMOKE = {
    "er-report": {"grid": ER_GRID, "samples": 500},
    "jack-report": {"grid": JACK_GRID, "samples": 200},
    "exact-verify": {"grids": {
        "alphas": ["1/2", "1", "2", "5"],
        "chain_n": 5, "moments_n": 6, "zero_bias_n": 4,
        "hyp_N": 14, "zero_prob_N": 16, "neg_corr_n": 12, "sandwich_n": 30,
    }},
    "jack-coupling": {"zero_bias": [[50, "1", 30], [16, "64", 30]], "batch": [[100, "1", 30]]},
}
WORKLOADS = list(FULL)
REPORTS = ("er-report", "jack-report")

LAYERS = ("cli", "exactnum", "er_model", "jack_model", "stein_core")
SELF_S = (
    "er_model.exact_moments", "er_model.check_negative_correlation",
    "er_model.check_moment_sandwich", "exactnum.hyp_pmf_vector",
    "exactnum.check_zero_prob_sandwich", "jack_model.kerov_transition_probs",
    "jack_model.jack_probability", "jack_model.zero_bias_pair_distribution",
    "jack_model.kerov_sample", "stein_core.empirical_kolmogorov",
    "stein_core.wasserstein_estimate",
)
CALLS = (
    "er_model.exact_moments", "exactnum.binomial", "exactnum.hyp_pmf_vector",
    "jack_model.kerov_transition_probs", "jack_model.jack_probability",
)
PER_1E4 = ("er_model.sample_isolated_counts", "jack_model.sample_jack_batch")

# About the fastest host_probe() seen on the two-core host the bounds were set
# on; time metrics are reported at this host speed.
PROBE_REF_S = 0.013

# A correct sampler leaves a Monte Carlo band with probability below this, per row.
BAND_MISS = 1e-6
MOMENT_SE = 6.0


class CheckCounter:
    """Counts correctness checks; prints each failure to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------


class WorkerError(RuntimeError):
    pass


def host_probe() -> float:
    """Fastest of five timings of a fixed pure-Python kernel: the host's current speed."""
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 600):
            acc += Fraction(i, i + 1)
        total = 0
        for i in range(160_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def spawn(spec: dict, deadline: float) -> dict:
    """Run one unit in a fresh interpreter.

    Adds ``setup_s`` and ``speed`` to the worker's result: ``speed`` is
    ``PROBE_REF_S`` over a host probe taken just before the spawn, on the same
    core, and a time times ``speed`` is that time at the reference host speed.
    """
    speed = PROBE_REF_S / host_probe()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=max(deadline - t0, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{spec['workload']} unit passed the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    result["speed"] = speed
    return result


def unit_draws(workload: str, spec: dict, output) -> int:
    """Monte Carlo draws of one unit; exact parameter points for exact-verify."""
    if workload == "er-report":
        return spec["samples"] * len(spec["grid"].split(";"))
    if workload == "jack-report":
        per_row = spec["samples"] + max(spec["samples"] // 10, 100)
        return per_row * len(spec["grid"].split(";"))
    if workload == "jack-coupling":
        return sum(d for _, _, d in spec["zero_bias"] + spec["batch"])
    return 1 + sum(f["points"] for f in output["families"].values())


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def dkw_radius(samples: int) -> float:
    """sup |F_hat - F| exceeds this with probability at most BAND_MISS (DKW-Massart)."""
    return math.sqrt(math.log(2.0 / BAND_MISS) / (2.0 * samples))


def parse_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != "# schema=1":
        return []
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def er_closed_forms(n: int, m: int) -> tuple[float, float]:
    """Mean and variance of the isolated-vertex count as a sum of n indicators."""
    N = math.comb(n, 2)
    p1 = Fraction(math.comb(N - (n - 1), m), math.comb(N, m))
    p2 = Fraction(math.comb(N - (2 * n - 3), m), math.comb(N, m))
    return float(n * p1), float(n * p1 * (1 - p1) + n * (n - 1) * (p2 - p1 * p1))


def single_column_closed_form(n: int, alpha: Fraction) -> float:
    out = Fraction(1)
    for l in range(n):
        out *= alpha / (alpha + l)
    return float(out)


def check_report(workload: str, spec: dict, output: dict, ref: dict, cc: CheckCounter) -> None:
    cc.check(output["exit"] == 0, f"{workload} exit code {output['exit']}")
    rows = parse_csv(output["stdout"])
    grid = [pt.split(",") for pt in spec["grid"].split(";")]
    if not cc.check(len(rows) == len(grid), f"{workload}: {len(rows)} rows for {len(grid)} grid points"):
        return
    k = spec["samples"]
    for row, (a, b), row_ref in zip(rows, grid, ref[workload]["rows"]):
        where = f"{workload} row ({a},{b})"
        if workload == "er-report":
            mu, s2 = er_closed_forms(int(a), int(b))
            cc.check(float(row["mu"]) == mu, f"{where}: mu {row['mu']} != {mu!r}")
            cc.check(float(row["sigma2"]) == s2, f"{where}: sigma2 {row['sigma2']} != {s2!r}")
        else:
            col = single_column_closed_form(int(a), Fraction(b))
            cc.check(float(row["single_column_prob"]) == col,
                     f"{where}: single_column_prob {row['single_column_prob']} != {col!r}")
            d1 = row_ref["d1"][str(max(k // 10, 100))]
            cc.check(d1["low"] <= float(row["d1_hat"]) <= d1["high"],
                     f"{where}: d1_hat {row['d1_hat']} outside [{d1['low']}, {d1['high']}]")
        band = dkw_radius(k) + dkw_radius(ref["pool"])
        cc.check(abs(float(row["delta_hat"]) - row_ref["delta_hat"]) <= band,
                 f"{where}: delta_hat {row['delta_hat']} outside {row_ref['delta_hat']} +- {band}")


def check_moments(w: list[float], where: str, cc: CheckCounter) -> None:
    """Sample mean and second moment of W within MOMENT_SE standard errors of (0, 1)."""
    k = len(w)
    mean = sum(w) / k
    sq = [x * x for x in w]
    m2 = sum(sq) / k
    se2 = statistics.stdev(sq) / math.sqrt(k)
    cc.check(abs(mean) <= MOMENT_SE / math.sqrt(k), f"{where}: mean of W {mean} over {k} draws")
    cc.check(abs(m2 - 1.0) <= MOMENT_SE * se2, f"{where}: E W^2 {m2} (se {se2}) over {k} draws")


def check_output(workload: str, spec: dict, output, ref: dict, cc: CheckCounter) -> None:
    if workload in REPORTS:
        check_report(workload, spec, output, ref, cc)
    elif workload == "exact-verify":
        verify = output["verify"]
        failed = json.loads(verify["stdout"]).get("failed") if verify["exit"] == 0 else None
        cc.check(failed == [], f"verify exit {verify['exit']}, failed {failed}")
        for name, fam in output["families"].items():
            cc.check(fam["holds"], f"exact-verify family {name} ({fam['points']} points)")
    else:
        for series in output["zero_bias"]:
            where = f"zero_bias_sample({series['n']}, {series['alpha']})"
            cc.check(all(d == ws - w for d, ws, w in zip(series["d"], series["w_star"], series["w"])),
                     f"{where}: d != w_star - w")
            check_moments(series["w"], where, cc)
        for series in output["batch"]:
            check_moments(series["w"], f"sample_jack_batch({series['n']}, {series['alpha']})", cc)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def check_contract(workload: str, seed: int, ref: dict, cc: CheckCounter,
                   deadline: float) -> list[dict]:
    """Same seed twice gives identical output; so does ``--workers 2`` for reports.

    Returns the worker results, whose set-up times count into ``setup_s``.
    """
    spec = dict(SMOKE[workload], workload=workload, seed=seed)
    first = spawn(spec, deadline)
    check_output(workload, spec, first["output"], ref, cc)
    runs = [("rerun with the same seed", spec)]
    if workload in REPORTS:
        runs.append(("--workers 2", dict(spec, workers=2)))
    results = [first]
    for what, other_spec in runs:
        results.append(spawn(other_spec, deadline))
        cc.check(results[-1]["output"] == first["output"], f"{workload}: {what} changed the output")
    return results


def scaled_wall(unit: dict) -> float:
    return unit["wall_s"] * unit["speed"]


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer metrics, averaged over the traced units; times at reference speed."""
    k = len(traced)
    totals: dict[str, dict] = {}
    share: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    for u in traced:
        for name, t in u["trace"].items():
            acc = totals.setdefault(name, dict.fromkeys(t, 0.0))
            for key, value in t.items():
                acc[key] += value * (u["speed"] if key.endswith("_s") else 1) / k
            layer = name.split(".")[0]
            share[layer] += t["self_s"] / u["wall_s"] / k
    zero = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "draws": 0}
    get = lambda name: totals.get(name, zero)  # noqa: E731

    metrics = {}
    for layer in LAYERS:
        mine = [t for name, t in totals.items() if name.split(".")[0] == layer]
        metrics[f"{layer}.self_s"] = (sum(t["self_s"] for t in mine), "s")
        metrics[f"{layer}.calls"] = (sum(t["calls"] for t in mine), "count")
        metrics[f"{layer}.share"] = (share[layer], "fraction")
    for name in PER_1E4:
        t = get(name)
        metrics[f"{name}.s_per_1e4"] = (t["incl_s"] / t["draws"] * 1e4 if t["draws"] else 0.0, "s")
    for name in CALLS:
        metrics[f"{name}.calls"] = (get(name)["calls"], "count")
    for name in SELF_S:
        metrics[f"{name}.self_s"] = (get(name)["self_s"], "s")
    t = get("jack_model.zero_bias_sample")
    metrics["jack_model.zero_bias_sample.ms_per_draw"] = (
        t["incl_s"] / t["calls"] * 1e3 if t["calls"] else 0.0, "ms")
    metrics["trace.overhead_frac"] = (
        statistics.median(map(scaled_wall, traced)) / statistics.median(map(scaled_wall, untraced))
        - 1.0, "fraction")
    return metrics


def run_workload(workload: str, sizes: dict, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    ref = load_reference()
    cc = CheckCounter()
    rnd = random.Random(f"{workload}:{seed}")
    spawned: list[dict] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    spec_base = dict(sizes, workload=workload)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}.npz")

    t_start = time.monotonic()
    rounds = 0
    while True:
        unit_seed = rnd.randrange(2**32)
        for traced_unit in ((False, True) if trace else (False,)):
            spec = dict(spec_base, seed=unit_seed, trace=traced_unit, spans_path=spans_path)
            result = spawn(spec, deadline)
            spawned.append(result)
            cc.check(os.path.dirname(result["steinlab_file"]) == os.path.join(ROOT, "src", "steinlab"),
                     f"steinlab imported from {result['steinlab_file']}, not this checkout")
            check_output(workload, spec, result["output"], ref, cc)
            result["draws"] = unit_draws(workload, spec, result["output"])
            (traced if traced_unit else untraced).append(result)
        rounds += 1
        elapsed = time.monotonic() - t_start
        if elapsed + elapsed / rounds > seconds:
            break
    spawned += check_contract(workload, rnd.randrange(2**32), ref, cc, deadline)

    if trace:
        metrics = layer_metrics(traced, untraced)
    else:
        metrics = {
            "wall_s": (statistics.median(scaled_wall(u) for u in untraced), "s"),
            "draws_per_s": (statistics.median(u["draws"] / scaled_wall(u) for u in untraced), "1/s"),
            "setup_s": (statistics.median(u["setup_s"] * u["speed"] for u in spawned), "s"),
            "peak_rss_mb": (statistics.median(u["rss_mb"] for u in untraced), "MB"),
        }
    return {
        "workload": workload,
        "checks": {"attempted": cc.attempted, "failed": cc.failed},
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "provenance": provenance(workload, sizes, seed, seconds, trace, untraced[0]["versions"]),
        "samples": {
            "units": len(untraced),
            "traced_units": len(traced),
            "wall_s": [u["wall_s"] for u in untraced],
            "wall_speed": [u["speed"] for u in untraced],
            "traced_wall_s": [u["wall_s"] for u in traced],
            "setup_s": [u["setup_s"] for u in spawned],
            "speed": [u["speed"] for u in spawned],
            "rss_mb": [u["rss_mb"] for u in untraced],
        },
    }


def provenance(workload: str, sizes: dict, seed: int, seconds: float, trace: bool,
               versions: dict) -> dict:
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "steinlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **versions,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes,
        "contract_sizes": SMOKE[workload],
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="time the contract-size units instead of the full ones")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "steinlab", "__init__.py")):
        print(f"no steinlab source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    # The probe and every worker share one core, so the probe sees the speed the units see.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    names = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        sizes = (SMOKE if args.smoke else FULL)[name]
        try:
            res = run_workload(name, sizes, args.seed, args.seconds, bool(args.trace),
                               time.monotonic() + DEADLINE_S)
        except WorkerError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        checks = res["checks"]
        attempted += checks["attempted"]
        failed += checks["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, m in res["metrics"].items():
            metrics[prefix + metric] = m
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name} fail_rate = {checks['failed']}/{checks['attempted']}"
              f" = {checks['failed'] / checks['attempted']:.6g}")
        out = os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(out, "w") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)
        print(f"{name} provenance {json.dumps(res['provenance'], sort_keys=True)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
