"""The benchmark's workloads and the correctness gate on their outputs.

Each workload is one exhaustive enumeration with no random input.  A child
run passes the gate only when it exits 0 and its structural answers equal the
expected values below; `instances_checked` is reported, never gated on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb


@dataclass(frozen=True)
class Workload:
    name: str
    algebra: str          # the algebra whose set-up `setup_s` times
    module: str           # entry point with a main(argv)
    args: tuple[str, ...]
    limit_s: float        # wall-time limit of one child run, traced or not
    expected: dict = field(default_factory=dict)
    spans: frozenset = frozenset()      # spans a traced run must call
    largest_crystal: int | None = None  # size of the largest component built

    def command(self, bench_dir) -> list[str]:
        """Interpreter arguments of an untraced run of this workload."""
        if self.module.startswith("crystalgraphs."):
            return ["-m", self.module, *self.args]
        return [str(bench_dir / f"{self.module}.py"), *self.args]


WORKLOADS = {w.name: w for w in (
    Workload(
        "axioms-a2", "A2", "crystalgraphs.cli",
        ("verify", "--suite", "kgraph-axioms", "--algebra", "A2",
         "--degree-bound", "2,2"),
        limit_s=60,
        expected={"exit": 0, "failures": 0, "paths": 225},
        spans=frozenset({
            "crystal.tensor_component", "crystal.cartan_of",
            "crystal.canonical_isomorphism", "rightends.right_end_chain",
            "kgraph.compose", "kgraph.source", "kgraph.factorization_check",
            "verify.suite", "cli"})),
    Workload(
        "skeleton-a5", "A5", "crystalgraphs.cli",
        ("skeleton", "--algebra", "A5", "--output", "json"),
        limit_s=60,
        expected={"exit": 0, "vertices": 720, "edges": 17820, "loops": 0},
        spans=frozenset({
            "crystal.tensor_component", "crystal.cartan_braiding",
            "crystal.tensor", "rightends.apply_chain",
            "rightends.in_cartan_component", "rightends.right_end_tuple",
            "kgraph.init", "kgraph.is_path", "kgraph.paths_of_degree",
            "kgraph.skeleton", "graphs.to_json", "cli"}),
        largest_crystal=32768),
    Workload(
        "embeddings-a2", "A2", "crystalgraphs.cli",
        ("verify", "--suite", "embeddings", "--algebra", "A2",
         "--degree-bound", "1,2"),
        limit_s=75,
        expected={"exit": 0, "failures": 0, "compatible_colorings": 13824,
                  "right_weak_edges": 6, "left_weak_embeddings": 0},
        spans=frozenset({
            "weyl.generate", "weyl.bruhat_graph", "weyl.multiply",
            "crystal.hw_element", "crystal.extremal_element", "kgraph.init",
            "kgraph.is_path", "kgraph.paths_of_degree", "kgraph.skeleton",
            "kgraph.weyl_vertex", "embeddings.enumerate_compatible_colorings",
            "embeddings.embed_bruhat", "verify.suite", "cli"})),
    Workload(
        "keys-a4", "A4", "keys_census", ("A4",),
        limit_s=20,
        expected={"exit": 0, "vertices": 120, "elements": 1024,
                  "distinct_left_keys": 120, "agree": 1024},
        spans=frozenset({
            "tableaux.right_ends_via_slides", "tableaux.left_key",
            "tableaux.braid_columns", "rightends.right_end_tuple",
            "kgraph.init"}),
        largest_crystal=1024),
)}


def json_answers(exit_code: int, stdout: str) -> dict:
    """The JSON object a run printed, plus its exit code."""
    try:
        data = json.loads(stdout)
    except ValueError:
        data = None
    return {"exit": exit_code, **(data if isinstance(data, dict) else {})}


def answers(workload: Workload, exit_code: int, stdout: str) -> dict:
    """The structural answers a run printed, plus its exit code."""
    data = json_answers(exit_code, stdout)
    if workload.module == "keys_census" or len(data) == 1:
        return data
    out = {"exit": exit_code}
    if workload.args[0] == "skeleton":
        edges = data["edges"]
        out["vertices"] = len(data["vertices"])
        out["edges"] = len(edges)
        out["loops"] = sum(e["src"] == e["dst"] for e in edges)
    else:
        out.update(data["details"])
        out["failures"] = len(data["failures"])
        out["instances_checked"] = data["instances_checked"]
    return out


def gate(expected: dict, got: dict) -> list[str]:
    """One message per expected answer that the run got wrong or omitted."""
    return [f"{key} is {got.get(key)!r}, expected {want!r}"
            for key, want in expected.items() if got.get(key) != want]


def setup_expected(algebra: str) -> dict:
    """What a set-up probe of type A_r builds: r fundamental crystals of
    sizes C(r+1, k) and r*r braiding tables, one entry per element pair."""
    rank = int(algebra[1:])
    sizes = [comb(rank + 1, k) for k in range(1, rank + 1)]
    return {"exit": 0, "fundamental_sizes": sizes, "braiding_tables": rank * rank,
            "braiding_entries": sum(sizes) ** 2}
