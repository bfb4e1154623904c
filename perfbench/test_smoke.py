"""Smoke test of the benchmark at contract sizes (a few seconds per workload).

    python3 -m pytest perfbench/test_smoke.py -q

It lives outside the tier-1 ``testpaths`` on purpose.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from run import WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", "er-report", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_wraps_from_imports_and_subtracts_children():
    from steinlab import er_model, exactnum

    params = er_model.ErParams(30, 40)
    with Tracer({"exactnum": exactnum, "er_model": er_model}) as tracer:
        assert er_model.binomial is exactnum.binomial
        assert hasattr(er_model.binomial, "__wrapped__")
        er_model.exact_moments(params)
    assert er_model.binomial is exactnum.binomial and not hasattr(er_model.binomial, "__wrapped__")
    totals = tracer.totals()
    moments, binom = totals["er_model.exact_moments"], totals["exactnum.binomial"]
    assert moments["calls"] == 1 and binom["calls"] >= 3
    assert moments["self_s"] <= moments["incl_s"] - binom["incl_s"] + 1e-9
