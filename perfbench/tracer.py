"""Span tracer that wraps troplab's public functions from outside `src/`.

Modules import each other's functions by name (`certify` does
`from .simplex import solve_lp`), so patching the defining module's
attribute alone would miss those calls.  `Tracer.install` therefore
replaces every binding of the original function object in every loaded
`troplab` module, and records which bindings it replaced.

Each call becomes a span: id, name, operation id, parent span, start,
end and self time (its duration minus the time its child spans cover).
Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import time
from collections import Counter

# Layers whose named public functions are traced, with calls and self time.
TRACED = {
    "cli": ("main",),
    "certify": ("certify_max", "certify_min", "exact_factor", "semantic_degree",
                "boolean_bound_check", "lp_feasible"),
    "simplex": ("solve_lp",),
    "circuits": ("produced_set", "strip_constants", "evaluate"),
    "families": ("is_antichain", "optimum"),
    "greedy": ("greedy_run",),
    "sumsets": ("residues", "audit_circuit_rectangles"),
}
# Set-up layers: every public module-level function is traced and their
# self times are reported per module.  Methods (GF element arithmetic,
# for one) are not wrapped and count toward their caller's self time.
SETUP_LAYERS = ("generators", "builders", "gf")


def _targets():
    """(span name, function) for every traced function."""
    for layer, names in TRACED.items():
        module = sys.modules[f"troplab.{layer}"]
        for name in names:
            yield f"{layer}.{name}", getattr(module, name)
    for layer in SETUP_LAYERS:
        module = sys.modules[f"troplab.{layer}"]
        for name, fn in vars(module).items():
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and not name.startswith("_")):
                yield f"{layer}.{name}", fn


class Tracer:
    def __init__(self):
        self.spans = []       # [id, parent, op, name, start, end, self_s, extra]
        self.op = "setup"     # operation id stamped on new spans
        self._stack = []      # [span id, time covered by children]
        self._ids = itertools.count()
        self._patched = []    # (module, attribute, original) per replaced binding

    def install(self):
        originals = {id(fn): (name, fn) for name, fn in _targets()}
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "troplab" or key.startswith("troplab.")]
        wrappers = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) not in originals:
                    continue
                name, fn = originals[id(value)]
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                setattr(module, attr, wrappers[id(fn)])
                self._patched.append((module, attr, fn))

    def remove(self):
        for module, attr, fn in self._patched:
            setattr(module, attr, fn)

    def _wrap(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append([span_id, parent, self.op, name, start, end,
                              end - start - frame[1], None])
            if name == "simplex.solve_lp":
                objective, constraints = args[0], args[1]
                spans[-1][7] = {"cells": len(constraints) * len(objective),
                                "optimal": result.status == "optimal"}
            elif name == "circuits.produced_set":
                spans[-1][7] = {"vectors": len(result)}
            return result

        return traced

    def metrics(self) -> dict:
        """Per-layer counts and self times over all recorded spans."""
        calls, self_s = Counter(), Counter()
        cells = infeasible = vectors = 0
        name_of = {}
        lp_parents = set()
        for span_id, parent, _, name, _, _, own, extra in self.spans:
            name_of[span_id] = name
            calls[name] += 1
            self_s[name] += own
            layer = name.split(".")[0]
            if layer in SETUP_LAYERS:
                self_s[layer] += own
            if name == "simplex.solve_lp":
                cells += extra["cells"]
                infeasible += not extra["optimal"]
                lp_parents.add(parent)
            elif name == "circuits.produced_set":
                vectors += extra["vectors"]
        lp_calls = calls["certify.lp_feasible"]
        slow = sum(1 for p in lp_parents if name_of.get(p) == "certify.lp_feasible")
        out = {}
        for layer, names in TRACED.items():
            for name in names:
                out[f"{layer}.{name}.calls"] = (calls[f"{layer}.{name}"], "count")
                out[f"{layer}.{name}.self_s"] = (self_s[f"{layer}.{name}"], "s")
        for layer in SETUP_LAYERS:
            out[f"{layer}.self_s"] = (self_s[layer], "s")
        out["certify.lp_feasible.fastpath_hits"] = (lp_calls - slow, "count")
        out["certify.lp_feasible.fastpath_ratio"] = (
            (lp_calls - slow) / lp_calls if lp_calls else 0.0, "ratio")
        out["simplex.solve_lp.cells"] = (cells, "count")
        out["simplex.solve_lp.infeasible"] = (infeasible, "count")
        out["circuits.produced_set.vectors"] = (vectors, "count")
        return out

    def write(self, path, **header):
        fields = ["id", "parent", "op", "name", "start", "end", "self_s", "extra"]
        bindings = [f"{module.__name__}.{attr}" for module, attr, _ in self._patched]
        with open(path, "w") as fh:
            json.dump({**header, "bindings": bindings, "span_fields": fields,
                       "spans": self.spans}, fh)
