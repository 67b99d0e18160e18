"""Spans and counters around moondec's public entry points.

Used only by traced runs.  Each listed function is wrapped from the
benchmark's side, so no library file changes: the wrapper replaces the
function at every module that holds it (``decompose.factor``,
``graph.decompose_one_level``, ``cli.find_all_relations``, both
``polynomials.mul_fraction_seqs`` and ``series.mul_fraction_seqs``, ...),
and methods are replaced on their class.  Spans stay in memory until the
run ends.  Self time is a span's duration minus the time of its child
spans.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import defaultdict


def _bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


def _poly_mul(t, args, result):
    a, b = args[0], args[1]
    t.add("kernels.poly_mul.coeff_products", len(a) * len(b))
    t.peak("kernels.poly_mul.max_bits", max(_bits(a), _bits(b)))


def _row_echelon(t, args, result):
    rows = args[0]
    t.add("kernels.row_echelon.cells", len(rows) * (len(rows[0]) if rows else 0))
    t.peak("kernels.row_echelon.max_bits",
           max((_bits(r) for r in rows), default=0))


def _factor(t, args, result):
    t.peak("factorization.factor.max_degree", args[0].degree)


def _candidates(t, args, result):
    t.add("decompose.candidate_components.candidates", len(result))


def _left_component(t, args, result):
    t.add("decompose.left_component.hits", result is not None)


def _laurent_div(t, args, result):
    t.peak("series.laurent_div.max_len", len(result.coeffs))


def _inner_solve(t, args, result):
    t.add("series.inner_series_solve.coeffs_solved", len(result.coeffs))


def _solve_linear(t, args, result):
    t.add("relations.solve_linear.consistent", result is not None)
    t.peak("relations.solve_linear.max_rows", len(args[0].matrix))


def _find_relation(t, args, result):
    t.add("relations.returned", result is not None)


def _find_all_relations(t, args, result):
    t.add("relations.returned", len(result))


# (metric prefix, module, attribute or Class.method, counter hook)
TARGETS = [
    ("kernels.poly_mul", "moondec._kernels", "poly_mul", _poly_mul),
    ("kernels.row_echelon", "moondec._kernels", "row_echelon", _row_echelon),
    ("polynomials.mul_fraction_seqs", "moondec.polynomials",
     "mul_fraction_seqs", None),
    ("polynomials.poly_gcd", "moondec.polynomials", "poly_gcd", None),
    ("linalg.solve_unique", "moondec.linalg", "solve_unique", None),
    ("linalg.nullspace", "moondec.linalg", "nullspace", None),
    ("factorization.factor", "moondec.factorization", "factor", _factor),
    ("ratfun.compose", "moondec.ratfun", "compose", None),
    ("ratfun.to_normal_form", "moondec.ratfun", "to_normal_form", None),
    ("parsing.parse_ratfun", "moondec.parsing", "parse_ratfun", None),
    ("decompose.decompose_one_level", "moondec.decompose",
     "decompose_one_level", None),
    ("decompose.candidate_components", "moondec.decompose",
     "candidate_components", _candidates),
    ("decompose.left_component", "moondec.decompose", "left_component",
     _left_component),
    ("decompose.unit_linking", "moondec.decompose", "unit_linking", None),
    ("series.laurent_mul", "moondec.series", "GeneralLaurent.__mul__", None),
    ("series.laurent_div", "moondec.series", "GeneralLaurent.__truediv__",
     _laurent_div),
    ("series.eval_ratfun_at_series", "moondec.series",
     "eval_ratfun_at_series", None),
    ("series.inner_series_solve", "moondec.series", "inner_series_solve",
     _inner_solve),
    ("relations.find_relation", "moondec.relations", "find_relation",
     _find_relation),
    ("relations.find_all_relations", "moondec.relations",
     "find_all_relations", _find_all_relations),
    ("relations.solve_linear", "moondec.relations", "solve_linear",
     _solve_linear),
    ("graph.build_graph", "moondec.graph", "build_graph", None),
    ("graph.refine_graph", "moondec.graph", "refine_graph", None),
    ("graph.maximal_chains", "moondec.graph", "maximal_chains", None),
    ("graph.modular_polynomial", "moondec.graph", "modular_polynomial", None),
    ("graph.eval_modular_polynomial", "moondec.graph",
     "eval_modular_polynomial", None),
    ("graph.load_catalog", "moondec.graph", "load_catalog", None),
    ("graph.load_graph", "moondec.graph", "load_graph", None),
    ("graph.export_graph", "moondec.graph", "export_graph", None),
    ("bivariate.PolyOverPoly.content_reduced", "moondec.bivariate",
     "PolyOverPoly.content_reduced", None),
    ("cli.main", "moondec.cli", "main", None),
]

# Counters beyond calls and self_s, with their units.
COUNTERS = {
    "kernels.poly_mul.coeff_products": "count",
    "kernels.poly_mul.max_bits": "bits",
    "kernels.row_echelon.cells": "count",
    "kernels.row_echelon.max_bits": "bits",
    "factorization.factor.max_degree": "degree",
    "decompose.candidate_components.candidates": "count",
    "decompose.left_component.hits": "count",
    "series.laurent_div.max_len": "count",
    "series.inner_series_solve.coeffs_solved": "count",
    "relations.solve_linear.consistent": "count",
    "relations.solve_linear.max_rows": "count",
}
RATIOS = {
    # name: (numerator counter, denominator calls)
    "decompose.left_component.hit_ratio": ("decompose.left_component.hits",
                                           "decompose.left_component"),
    "relations.solve_linear.hit_ratio": ("relations.returned",
                                         "relations.solve_linear"),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for prefix, _, _, _ in TARGETS:
        units[prefix + ".calls"] = "count"
        units[prefix + ".self_s"] = "s"
    units.update(COUNTERS)
    units.update(dict.fromkeys(RATIOS, "ratio"))
    units["cli.main.total_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.op = None           # identifier shared by the spans of one op
        self.started = 0         # spans opened so far; the next span's id
        self.stack = []          # open spans: [span id, child seconds]
        self.spans = []          # (op, span id, parent id, name, start, end)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)

    def add(self, name, amount):
        self.counters[name] += amount

    def peak(self, name, value):
        self.counters[name] = max(self.counters[name], value)

    def wrap(self, name, fn, hook):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer.stack
            span_id = tracer.started
            tracer.started += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.calls[name] += 1
                tracer.total[name] += end - start
                tracer.self_s[name] += end - start - frame[1]
                tracer.spans.append((tracer.op, span_id, parent, name,
                                     start, end))
            if hook is not None:
                hook_start = clock()
                hook(tracer, args, result)
                if stack:  # the hook's time is not the parent's work either
                    stack[-1][1] += clock() - hook_start
            return result

        return traced

    def install(self) -> set[str]:
        """Wrap every target at every moondec module that holds it; returns
        the names wrapped.  A target the library no longer has is skipped
        and reads 0."""
        owners = [importlib.import_module(t[1]) for t in TARGETS]
        modules = [m for n, m in sys.modules.items()
                   if n == "moondec" or n.startswith("moondec.")]
        wrapped = set()
        for (name, _, attr, hook), owner in zip(TARGETS, owners):
            holder, _, leaf = attr.rpartition(".")
            holder = getattr(owner, holder, None) if holder else owner
            original = getattr(holder, leaf, None)
            if original is None:
                print(f"trace: {name} not found, not wrapped", file=sys.stderr)
                continue
            traced = self.wrap(name, original, hook)
            wrapped.add(name)
            if holder is not owner:  # a method: replace it on its class
                setattr(holder, leaf, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        return wrapped

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        values = {}
        for prefix, _, _, _ in TARGETS:
            values[prefix + ".calls"] = self.calls[prefix]
            values[prefix + ".self_s"] = self.self_s[prefix]
        for name in COUNTERS:
            values[name] = self.counters[name]
        for name, (num, den) in RATIOS.items():
            calls = self.calls[den]
            values[name] = self.counters[num] / calls if calls else 0.0
        values["cli.main.total_s"] = self.total["cli.main"]
        values["trace.overhead_ratio"] = overhead_ratio
        return values

    def write_spans(self, path):
        """Gzipped JSON lines ``[op, id, parent, name, start_s, end_s]``."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for span in self.spans:
                out.write(json.dumps(span, separators=(",", ":")) + "\n")
