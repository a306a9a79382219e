"""Colored directed multigraphs with DOT and JSON export."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable


@dataclass(frozen=True)
class Edge:
    src: Any
    dst: Any
    color: Any
    key: Any = None


class ColoredDigraph:
    """A directed graph with colored edges.

    Parallel edges are allowed when they carry distinct `key` values;
    duplicate (src, dst, color, key) quadruples are rejected.
    """

    def __init__(self, vertices, edges, name: str = "G"):
        self.name = name
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertices")
        seen = set()
        for e in self.edges:
            if e.src not in vset or e.dst not in vset:
                raise ValueError(f"edge {e} has an unknown endpoint")
            quad = (e.src, e.dst, e.color, e.key)
            if quad in seen:
                raise ValueError(f"duplicate edge {quad}")
            seen.add(quad)

    def __repr__(self):
        return f"ColoredDigraph({self.name}: {len(self.vertices)} vertices, {len(self.edges)} edges)"

    def edge_multiset(self) -> dict[tuple, int]:
        out: dict[tuple, int] = {}
        for e in self.edges:
            trip = (e.src, e.dst, e.color)
            out[trip] = out.get(trip, 0) + 1
        return out

    # -- export ------------------------------------------------------------

    def to_json(self, vertex_str: Callable[[Hashable], str] = str,
                color_str: Callable[[Any], str] = str,
                show_loops: bool = True,
                key_str: Callable[[Any], str] = str) -> dict:
        vnames = {v: vertex_str(v) for v in self.vertices}
        edges = []
        for e in self.edges:
            if not show_loops and e.src == e.dst:
                continue
            rec = {"src": vnames[e.src], "dst": vnames[e.dst], "color": color_str(e.color)}
            if e.key is not None:
                rec["element"] = key_str(e.key)
            edges.append(rec)
        edges.sort(key=lambda r: (r["src"], r["dst"], r["color"], r.get("element", "")))
        return {"vertices": sorted(vnames.values()), "edges": edges}

    def to_dot(self, vertex_str: Callable[[Hashable], str] = str,
               color_str: Callable[[Any], str] = str,
               show_loops: bool = True,
               key_str: Callable[[Any], str] = str) -> str:
        data = self.to_json(vertex_str, color_str, show_loops, key_str)
        lines = [f"digraph {self.name} {{"]
        for v in data["vertices"]:
            lines.append(f'  "{v}";')
        for e in data["edges"]:
            attrs = [f'color="{e["color"]}"']
            if "element" in e:
                attrs.append(f'element="{e["element"]}"')
            lines.append(f'  "{e["src"]}" -> "{e["dst"]}" [{", ".join(attrs)}];')
        lines.append("}")
        return "\n".join(lines) + "\n"
