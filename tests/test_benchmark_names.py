"""The per-layer benchmark metrics name real functions of the package.

A ``module.function.metric`` name in BENCHMARK.json is reported by the tracer
for ``steinlab.module.function``; deleting or renaming that function would
silently empty the metric, so the name must keep resolving.
"""

import importlib
import json
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
FUNCTION_METRICS = [m["name"] for m in BENCHMARK["per_layer"] if m["name"].count(".") == 2]


def test_function_metrics_resolve_to_callables():
    assert FUNCTION_METRICS, "no module.function.metric names in BENCHMARK.json"
    missing = []
    for name in FUNCTION_METRICS:
        module, function, _ = name.split(".")
        target = getattr(importlib.import_module(f"steinlab.{module}"), function, None)
        if not callable(target):
            missing.append(name)
    assert missing == []
