"""Outside-in tracer for the steinlab layers.

The tracer never edits the package: it replaces every binding of each public
module-level function with a timing wrapper.  "Every binding" matters because
the modules import each other's functions by name (``from .exactnum import
binomial`` in ``er_model``), so patching only ``exactnum.binomial`` would miss
every call made from ``er_model``.

Per function it keeps the call count, inclusive time and self time (inclusive
time minus the time of wrapped children).  It also keeps one span per call --
(span id, parent span id, function, start, end) -- but only for the first
``span_limit`` calls of each function: ``binomial`` alone runs millions of
times on the exact grids, and a span per call would not fit in memory.  Past
the limit a function keeps only its counts and summed times, and a child of an
unstored span names a parent id that is absent from the span table.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

SPAN_LIMIT = 100_000


def public_functions(module):
    """Public functions (plain or functools-cached) defined in ``module``."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or inspect.isfunction(getattr(obj, "__wrapped__", None)):
            out[name] = obj
    return out


class Tracer:
    """Wraps the public functions of ``layers`` (short name -> module).

    ``draw_counters`` maps a qualified name such as
    ``"er_model.sample_isolated_counts"`` to a function of the call's result
    that returns how many draws it made.
    """

    def __init__(self, layers: dict, draw_counters: dict | None = None,
                 span_limit: int = SPAN_LIMIT):
        self.layers = layers
        self.span_limit = span_limit
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_time: list[float] = []
        self.draws: list[int] = []
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_func = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._draw_counters = draw_counters or {}
        self._next_id = 1
        self._child_time: list[float] = []
        self._id_stack: list[int] = [0]
        self._patched: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for layer, module in self.layers.items():
            for name, fn in public_functions(module).items():
                originals[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}"))
        prefix = next(iter(self.layers.values())).__name__.split(".")[0]
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == prefix or modname.startswith(prefix + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, fn, qualname: str):
        idx = len(self.names)
        self.names.append(qualname)
        self.calls.append(0)
        self.incl.append(0.0)
        self.self_time.append(0.0)
        self.draws.append(0)
        count_draws = self._draw_counters.get(qualname)
        clock = time.perf_counter
        child_time = self._child_time
        id_stack = self._id_stack
        calls, incl, self_time, draws = self.calls, self.incl, self.self_time, self.draws
        limit = self.span_limit
        sid_arr, par_arr, fun_arr = self.span_id, self.span_parent, self.span_func
        start_arr, end_arr = self.span_start, self.span_end
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = id_stack[-1]
            id_stack.append(sid)
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dur = t1 - t0
                inner = child_time.pop()
                id_stack.pop()
                if child_time:
                    child_time[-1] += dur
                calls[idx] += 1
                incl[idx] += dur
                self_time[idx] += dur - inner
                if calls[idx] <= limit:
                    sid_arr.append(sid)
                    par_arr.append(parent)
                    fun_arr.append(idx)
                    start_arr.append(t0)
                    end_arr.append(t1)
            if count_draws is not None:
                draws[idx] += count_draws(result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """qualified name -> {calls, incl_s, self_s, draws}."""
        return {
            name: {
                "calls": self.calls[i],
                "incl_s": self.incl[i],
                "self_s": self.self_time[i],
                "draws": self.draws[i],
            }
            for i, name in enumerate(self.names)
        }

    def write_spans(self, path: str) -> int:
        """Write the stored spans as a compressed ``.npz`` table; returns the count."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            func=np.frombuffer(self.span_func, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
        return len(self.span_id)
