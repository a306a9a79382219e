"""Spans around the public functions of each crystalgraphs module.

The tracer wraps functions from outside the program: it replaces each traced
name in its defining module (or class) and in every module that imported it
by name, so that no call escapes the trace.  Each call records one span (name,
parent span, start, end, and an optional integer outcome) in flat arrays kept
in memory; the arrays are written out once, when the traced run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from array import array


def _is_none(result) -> int:
    return int(result is None)


def _is_true(result) -> int:
    return int(bool(result))


def _length(result) -> int:
    return len(result)


# (span name, defining module, attribute path, outcome recorded per call)
SPANS = (
    ("weyl.generate", "crystalgraphs.weyl", "WeylGroup.generate", None),
    ("weyl.bruhat_graph", "crystalgraphs.weyl", "WeylGroup.bruhat_graph", None),
    ("weyl.multiply", "crystalgraphs.weyl", "WeylGroup.multiply", None),
    ("crystal.tensor", "crystalgraphs.crystal", "tensor", None),
    ("crystal.tensor_component", "crystalgraphs.crystal", "tensor_component", _length),
    ("crystal.cartan_of", "crystalgraphs.crystal", "CrystalContext.cartan_of", None),
    ("crystal.canonical_isomorphism", "crystalgraphs.crystal",
     "canonical_isomorphism", None),
    ("crystal.cartan_braiding", "crystalgraphs.crystal", "cartan_braiding", None),
    ("crystal.hw_element", "crystalgraphs.crystal", "Crystal.hw_element", None),
    ("crystal.extremal_element", "crystalgraphs.crystal", "extremal_element", None),
    ("rightends.apply_chain", "crystalgraphs.rightends", "apply_chain", _is_none),
    ("rightends.right_end_chain", "crystalgraphs.rightends", "right_end_chain", None),
    ("rightends.in_cartan_component", "crystalgraphs.rightends",
     "in_cartan_component", None),
    ("rightends.right_end_tuple", "crystalgraphs.rightends", "right_end_tuple", None),
    ("kgraph.init", "crystalgraphs.kgraph", "KGraph.__init__", None),
    ("kgraph.weyl_vertex", "crystalgraphs.kgraph", "KGraph.weyl_vertex", None),
    ("kgraph.is_path", "crystalgraphs.kgraph", "KGraph.is_path", _is_true),
    ("kgraph.source", "crystalgraphs.kgraph", "KGraph.source", None),
    ("kgraph.compose", "crystalgraphs.kgraph", "KGraph.compose", None),
    ("kgraph.paths_of_degree", "crystalgraphs.kgraph", "KGraph.paths_of_degree", None),
    ("kgraph.skeleton", "crystalgraphs.kgraph", "KGraph.skeleton", None),
    ("kgraph.factorization_check", "crystalgraphs.kgraph",
     "KGraph.factorization_check", None),
    ("embeddings.enumerate_compatible_colorings", "crystalgraphs.embeddings",
     "enumerate_compatible_colorings", _length),
    ("embeddings.embed_bruhat", "crystalgraphs.embeddings", "embed_bruhat", None),
    ("tableaux.braid_columns", "crystalgraphs.tableaux", "braid_columns", None),
    ("tableaux.left_key", "crystalgraphs.tableaux", "left_key", None),
    ("tableaux.right_ends_via_slides", "crystalgraphs.tableaux",
     "right_ends_via_slides", None),
    ("graphs.to_json", "crystalgraphs.graphs", "ColoredDigraph.to_json", None),
    ("verify.suite", "crystalgraphs.verify", "run_suite", None),
    ("cli", "crystalgraphs.cli", "main", None),
)

SPAN_NAMES = tuple(name for name, _, _, _ in SPANS)


class Tracer:
    """Span storage: one row per call, parents as row indices (-1 for none)."""

    def __init__(self, names=SPAN_NAMES):
        self.names = tuple(names)
        self.name_ids = array("H")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.values = array("q")
        self.cost = (0.0, 0.0)  # seconds per span (inside, outside), see calibrate
        self._stack = [-1]

    def wrap(self, fn, name: str, outcome=None):
        """A drop-in replacement for fn that records one span per call."""
        sid = self.names.index(name)
        name_ids, parents, starts = self.name_ids, self.parents, self.starts
        ends, values, stack = self.ends, self.values, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            # The bookkeeping sits inside the span's own interval, so that
            # what a parent's self time gains per child call is only the
            # call into this wrapper; `calibrate` measures both shares.
            start = clock()
            row = len(name_ids)
            name_ids.append(sid)
            parents.append(stack[-1])
            starts.append(start)
            ends.append(0.0)
            values.append(0)
            stack.append(row)
            try:
                result = fn(*args, **kwargs)
                if outcome is not None:
                    values[row] = outcome(result)
                return result
            finally:
                stack.pop()
                ends[row] = clock()

        return functools.wraps(fn)(traced)

    def install(self, extra_modules=()) -> None:
        """Wrap every name in SPANS wherever it is looked up."""
        for name, module_name, attr, outcome in SPANS:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[leaf]
                if isinstance(raw, (classmethod, staticmethod)):
                    setattr(owner, leaf, type(raw)(self.wrap(raw.__func__, name, outcome)))
                else:
                    setattr(owner, leaf, self.wrap(raw, name, outcome))
                continue
            original = getattr(module, leaf)
            traced = self.wrap(original, name, outcome)
            for mod in _loaded_modules(extra_modules):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def __len__(self):
        return len(self.name_ids)

    def dump(self, path: str) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {"names": list(self.names), "count": len(self),
                  "byteorder": sys.byteorder, "cost": list(self.cost)}
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_ids, self.parents, self.starts, self.ends,
                        self.values):
                arr.tofile(fh)


def _loaded_modules(extra_modules):
    mods = [m for key, m in list(sys.modules.items())
            if key == "crystalgraphs" or key.startswith("crystalgraphs.")]
    return mods + list(extra_modules)


def load(path: str) -> Tracer:
    """Read spans written by Tracer.dump."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        if header["byteorder"] != sys.byteorder:
            raise ValueError(f"{path}: spans were written with another byte order")
        tr = Tracer(header["names"])
        tr.cost = tuple(header["cost"])
        n = header["count"]
        for arr in (tr.name_ids, tr.parents, tr.starts, tr.ends, tr.values):
            arr.fromfile(fh, n)
    return tr


def _empty():
    return None


def calibrate(calls: int = 5000, batches: int = 5) -> tuple[float, float]:
    """The tracer's own cost per traced call, in seconds: (inside, outside).

    `inside` is the time a traced call with an empty body spends within its
    span, by which the span's self time overstates the program's.  `outside`
    is what one traced child call adds to its parent's self time beyond a
    plain call.  Each is the median over `batches` batches of `calls` calls.
    """
    clock = time.perf_counter
    insides, outsides = [], []

    def batch(call):
        for _ in range(calls):
            call()

    for _ in range(batches):
        start = clock()
        batch(_empty)
        plain = (clock() - start) / calls
        tr = Tracer(("outer", "inner"))
        tr.wrap(batch, "outer")(tr.wrap(_empty, "inner"))
        raw = summarize(tr)
        insides.append(raw["inner"]["total_s"] / calls)
        outsides.append(raw["outer"]["self_s"] / calls - plain)
    return statistics.median(insides), statistics.median(outsides)


def summarize(tr: Tracer) -> dict:
    """Per span name: calls, total and self time, outcome sum and maximum,
    and leaf calls.

    Self time is a span's duration minus the durations of its direct child
    spans, less the tracer's own cost `tr.cost`: `inside` once per call and
    `outside` once per direct child call.  Everything runs on one thread, so
    children are nested inside their parent and do not overlap one another.
    A leaf call is one with no child span at all, which for a memoized
    function marks a cache hit.
    """
    n = len(tr)
    inside, outside = tr.cost
    child_time = [0.0] * n
    child_calls = [0] * n
    starts, ends, parents = tr.starts, tr.ends, tr.parents
    for row in range(n):
        p = parents[row]
        if p >= 0:
            child_time[p] += ends[row] - starts[row]
            child_calls[p] += 1
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "value": 0,
                  "max_value": 0, "leaves": 0}
           for name in tr.names}
    for row in range(n):
        rec = out[tr.names[tr.name_ids[row]]]
        dur = ends[row] - starts[row]
        rec["calls"] += 1
        rec["total_s"] += dur
        rec["self_s"] += dur - child_time[row] - inside - outside * child_calls[row]
        rec["value"] += tr.values[row]
        rec["max_value"] = max(rec["max_value"], tr.values[row])
        rec["leaves"] += not child_calls[row]
    return out


# (metric, span, field): `value` sums the recorded outcomes, a `*_ratio` of
# `leaves` is the share of calls with no child span (a cache hit for the
# memoized `cartan_of` and `source`), a `*_ratio` of `value` the share of
# calls whose outcome was 1 (a chain that ended in 0, an accepted path).
LAYER_METRICS = (
    ("weyl.generate.self_s", "weyl.generate", "self_s"),
    ("weyl.bruhat_graph.calls", "weyl.bruhat_graph", "calls"),
    ("weyl.bruhat_graph.self_s", "weyl.bruhat_graph", "self_s"),
    ("weyl.multiply.calls", "weyl.multiply", "calls"),
    ("weyl.multiply.self_s", "weyl.multiply", "self_s"),
    ("crystal.tensor_component.calls", "crystal.tensor_component", "calls"),
    ("crystal.tensor_component.self_s", "crystal.tensor_component", "self_s"),
    ("crystal.tensor_component.elements", "crystal.tensor_component", "value"),
    ("crystal.cartan_of.calls", "crystal.cartan_of", "calls"),
    ("crystal.cartan_of.hit_ratio", "crystal.cartan_of", "leaves"),
    ("crystal.canonical_isomorphism.calls", "crystal.canonical_isomorphism", "calls"),
    ("crystal.canonical_isomorphism.self_s", "crystal.canonical_isomorphism", "self_s"),
    ("crystal.cartan_braiding.calls", "crystal.cartan_braiding", "calls"),
    ("crystal.cartan_braiding.self_s", "crystal.cartan_braiding", "self_s"),
    ("crystal.tensor.self_s", "crystal.tensor", "self_s"),
    ("crystal.hw_element.calls", "crystal.hw_element", "calls"),
    ("crystal.hw_element.self_s", "crystal.hw_element", "self_s"),
    ("crystal.extremal_element.calls", "crystal.extremal_element", "calls"),
    ("crystal.extremal_element.self_s", "crystal.extremal_element", "self_s"),
    ("rightends.apply_chain.calls", "rightends.apply_chain", "calls"),
    ("rightends.apply_chain.self_s", "rightends.apply_chain", "self_s"),
    ("rightends.apply_chain.zero_ratio", "rightends.apply_chain", "value"),
    ("rightends.in_cartan_component.self_s", "rightends.in_cartan_component", "self_s"),
    ("rightends.right_end_tuple.self_s", "rightends.right_end_tuple", "self_s"),
    ("rightends.right_end_chain.self_s", "rightends.right_end_chain", "self_s"),
    ("kgraph.compose.calls", "kgraph.compose", "calls"),
    ("kgraph.compose.self_s", "kgraph.compose", "self_s"),
    ("kgraph.source.calls", "kgraph.source", "calls"),
    ("kgraph.source.hit_ratio", "kgraph.source", "leaves"),
    ("kgraph.factorization_check.self_s", "kgraph.factorization_check", "self_s"),
    ("kgraph.init.self_s", "kgraph.init", "self_s"),
    ("kgraph.is_path.calls", "kgraph.is_path", "calls"),
    ("kgraph.is_path.self_s", "kgraph.is_path", "self_s"),
    ("kgraph.is_path.accept_ratio", "kgraph.is_path", "value"),
    ("kgraph.paths_of_degree.self_s", "kgraph.paths_of_degree", "self_s"),
    ("kgraph.skeleton.self_s", "kgraph.skeleton", "self_s"),
    ("kgraph.weyl_vertex.self_s", "kgraph.weyl_vertex", "self_s"),
    ("embeddings.colorings", "embeddings.enumerate_compatible_colorings", "value"),
    ("embeddings.enumerate_compatible_colorings.self_s",
     "embeddings.enumerate_compatible_colorings", "self_s"),
    ("embeddings.embed_bruhat.calls", "embeddings.embed_bruhat", "calls"),
    ("embeddings.embed_bruhat.self_s", "embeddings.embed_bruhat", "self_s"),
    ("tableaux.right_ends_via_slides.self_s", "tableaux.right_ends_via_slides", "self_s"),
    ("tableaux.left_key.self_s", "tableaux.left_key", "self_s"),
    ("tableaux.braid_columns.calls", "tableaux.braid_columns", "calls"),
    ("tableaux.braid_columns.self_s", "tableaux.braid_columns", "self_s"),
    ("graphs.to_json.self_s", "graphs.to_json", "self_s"),
    ("cli.self_s", "cli", "self_s"),
    ("verify.suite.self_s", "verify.suite", "self_s"),
)


def layer_metrics(summaries: list[dict]) -> dict:
    """Per-layer metrics from the summaries of repeated traced runs: counts
    from the first run (they repeat exactly), times as the median."""
    out = {}
    for metric, span, fld in LAYER_METRICS:
        first = summaries[0][span]
        if fld == "self_s":
            value, unit = statistics.median(s[span]["self_s"] for s in summaries), "s"
        elif metric.endswith("_ratio"):
            value, unit = first[fld] / first["calls"] if first["calls"] else 0.0, "ratio"
        else:
            value, unit = first[fld], "count"
        out[metric] = {"value": value, "unit": unit}
    return out
