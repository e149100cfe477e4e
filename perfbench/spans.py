"""Per-layer tracing from outside the program.

`Tracer.install` replaces each layer's public functions with a wrapper at the
place where the caller looks the function up (for example
`dompack.cli.exact_domination` and `dompack.lp.exact_domination`).  Every call
through a wrapper appends one span (name, start, end, parent, phase, count) to
an in-memory list; the run writes the list out when it ends.  Counts come
from the values the functions return.
"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

# (module, attribute, span name, count taken from the return value)
def _nodes(result):
    return result.nodes_explored


def _attempts(result):
    return result[1]


PATCHES = [
    ("dompack.cli", "exact_domination", "solvers.domination", _nodes),
    ("dompack.lp", "exact_domination", "solvers.domination", _nodes),
    ("dompack.cli", "exact_packing", "solvers.packing", _nodes),
    ("dompack.lp", "exact_packing", "solvers.packing", _nodes),
    ("dompack.lp", "fractional_domination", "lp.fractional", None),
    ("dompack.cli", "verify_sandwich", "lp.sandwich", None),
    ("dompack.cli", "generate", "generators.generate", None),
    ("dompack.cli", "gen_chordal_bipartite_with_stats", "generators.cb", _attempts),
    ("dompack.generators", "all_graphs", "generators.enumerate", None),
    ("dompack.generators", "all_trees", "generators.enumerate", None),
    ("dompack.cli", "find_simple_elimination_ordering", "recognition.simple_elimination", None),
    ("dompack.generators", "find_simple_elimination_ordering", "recognition.simple_elimination", None),
    ("dompack.constructions", "find_simple_elimination_ordering", "recognition.simple_elimination", None),
    ("dompack.cli", "is_chordal_bipartite", "recognition.chordal_bipartite", None),
    ("dompack.generators", "is_chordal_bipartite", "recognition.chordal_bipartite", None),
    ("dompack.constructions", "is_chordal_bipartite", "recognition.chordal_bipartite", None),
    ("dompack.cli", "find_homogeneous_ordering", "recognition.homogeneous_ordering", None),
    ("dompack.generators", "find_homogeneous_ordering", "recognition.homogeneous_ordering", None),
    ("dompack.cli", "tree_dompack", "constructions", None),
    ("dompack.cli", "strongly_chordal_dompack", "constructions", None),
    ("dompack.cli", "chordal_bipartite_dompack", "constructions", None),
    ("dompack.cli", "homogeneously_orderable_dompack", "constructions", None),
    ("dompack.cli", "embed_maximal_planar", "planar.embed", None),
    ("dompack.cli", "random_planar_embedding", "planar.embed", None),
    ("dompack.planar", "random_planar", "planar.embed", None),
    ("dompack.cli", "random_min_degree4_planar", "planar.min_degree4", None),
    ("dompack.cli", "triangulate_preserving_independent", "planar.triangulate", None),
    ("dompack.cli", "charge_audit", "planar.charge_audit", None),
    ("dompack.cli", "find_low_degree_edge", "planar.low_degree_edge", None),
    ("dompack.codec", "parse_graph", "codec.parse", None),
    ("dompack.codec", "emit_graph6", "codec.emit", None),
]

# (metric, unit) in the order the report prints them: BENCHMARK.json's per-layer list.
LAYER_METRICS = [
    (m["name"], m["unit"])
    for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]
]

NAME, START, END, PARENT, PHASE, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self._open: list[int] = []

    def install(self) -> None:
        for module, attr, name, count in PATCHES:
            mod = importlib.import_module(module)
            setattr(mod, attr, self._wrap(name, getattr(mod, attr), count))

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.phase, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count:
                span[COUNT] = count(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self, rounds: int, records: int, timed_wall_s: float) -> dict:
        """Per-layer metrics of the timed phase, per round; enumeration time
        is taken from the (single) set-up."""
        timed = [(i, s) for i, s in enumerate(self.spans) if s[PHASE] == "timed"]
        child_time = {}
        for _, s in timed:
            if s[PARENT] >= 0:
                child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]
        calls, total, own, counts, count_max = {}, {}, {}, {}, {}
        top = 0.0
        for i, s in timed:
            name, dur = s[NAME], s[END] - s[START]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + dur
            own[name] = own.get(name, 0.0) + dur - child_time.get(i, 0.0)
            counts[name] = counts.get(name, 0) + s[COUNT]
            count_max[name] = max(count_max.get(name, 0), s[COUNT])
            if s[PARENT] < 0:
                top += dur
        enumerate_s = sum(
            s[END] - s[START] for s in self.spans
            if s[PHASE] == "setup" and s[NAME] == "generators.enumerate"
        )

        def per_round(table, name):
            return table.get(name, 0) / rounds

        cb_calls = calls.get("generators.cb", 0)
        cb_attempts = counts.get("generators.cb", 0)
        solves = calls.get("solvers.domination", 0) + calls.get("solvers.packing", 0)
        values = {
            "solvers.domination.calls": per_round(calls, "solvers.domination"),
            "solvers.domination.s": per_round(total, "solvers.domination"),
            "solvers.domination.nodes": per_round(counts, "solvers.domination"),
            "solvers.domination.nodes_max": count_max.get("solvers.domination", 0),
            "solvers.packing.calls": per_round(calls, "solvers.packing"),
            "solvers.packing.s": per_round(total, "solvers.packing"),
            "solvers.packing.nodes": per_round(counts, "solvers.packing"),
            "lp.fractional.calls": per_round(calls, "lp.fractional"),
            "lp.fractional.s": per_round(total, "lp.fractional"),
            "lp.sandwich.self_s": per_round(own, "lp.sandwich"),
            "generators.generate.calls": (calls.get("generators.generate", 0) + cb_calls) / rounds,
            "generators.generate.self_s": (
                own.get("generators.generate", 0.0) + own.get("generators.cb", 0.0)
            ) / rounds,
            "generators.cb.attempts": cb_attempts / rounds,
            "generators.cb.acceptance": cb_calls / cb_attempts if cb_attempts else 0.0,
            "generators.enumerate.s": enumerate_s,
            "cli.self_s": (timed_wall_s - top) / rounds,
            "cli.solves_per_instance": solves / records,
        }
        for layer in (
            "recognition.simple_elimination",
            "recognition.chordal_bipartite",
            "recognition.homogeneous_ordering",
            "constructions",
            "planar.min_degree4",
            "codec.parse",
        ):
            values[f"{layer}.calls"] = per_round(calls, layer)
            values[f"{layer}.s"] = per_round(total, layer)
        for layer in (
            "planar.embed",
            "planar.triangulate",
            "planar.charge_audit",
            "planar.low_degree_edge",
            "codec.emit",
        ):
            values[f"{layer}.s"] = per_round(total, layer)
        return {
            name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS
        }
