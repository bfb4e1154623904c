"""Every public function of the package has a caller.

A public top-level function of ``src/steinlab/*.py`` must be named somewhere
outside its own body: in another function or at module level of the package
(the package ``__init__`` included), in ``tests/test_acceptance.py``, in
``perfbench/*.py``, or as a ``module.function.metric`` name under
``per_layer`` in ``BENCHMARK.json``.  A slow construction that exists only to
cross-check a fast one belongs in ``tests/oracles.py`` instead.  The few
functions kept for an open ROADMAP item are listed in ``KEPT`` with that item.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "steinlab"

KEPT = {
    "check_moment_drop_ratios": "ROADMAP item 6: the induction step",
    "truncation_exceeded": "ROADMAP item 6: the induction step",
    "asymptotic_accuracy": "ROADMAP item 6: a report column or verify family",
    "d_bar": "ROADMAP item 4: the zero-bias coupling quantities",
}


def _names(node: ast.AST) -> set[str]:
    """Every identifier ``node`` reads, attributes and imported names included."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def orphans() -> set[str]:
    public = set()
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                # a function's own body does not count as its caller
                referenced |= _names(node) - {node.name}
                if not node.name.startswith("_"):
                    public.add(node.name)
            else:
                referenced |= _names(node)
    for path in [ROOT / "tests" / "test_acceptance.py", *(ROOT / "perfbench").glob("*.py")]:
        referenced |= _names(ast.parse(path.read_text()))
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    referenced |= {m["name"].split(".")[1] for m in benchmark["per_layer"] if m["name"].count(".") == 2}
    return public - referenced


def test_every_public_function_has_a_caller():
    assert orphans() == set(KEPT)
