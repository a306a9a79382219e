"""Colored directed multigraphs with DOT and JSON export."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Hashable, NamedTuple


class Edge(NamedTuple):
    src: Any
    dst: Any
    color: Any
    key: Any = None


# one edge of `ColoredDigraph.to_json`: its keys sorted, at indent 2
_JSON_EDGE = ('{\n      "color": %s,\n      "dst": %s,\n'
              '      "element": %s,\n      "src": %s\n    }')
_JSON_KEYLESS_EDGE = '{\n      "color": %s,\n      "dst": %s,\n      "src": %s\n    }'


def _json_array(items: list[str]) -> list[str]:
    """The pieces of a JSON array of encoded items, laid out at indent 2."""
    if not items:
        return ["[]"]
    pieces = ["[\n    "]
    for item in items:
        pieces += (item, ",\n    ")
    pieces[-1] = "\n  ]"
    return pieces


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
        for e in self.edges:
            if e.src not in vset or e.dst not in vset:
                raise ValueError(f"edge {e} has an unknown endpoint")
        if len(set(self.edges)) != len(self.edges):
            seen = set()
            for quad in self.edges:
                if quad in seen:
                    raise ValueError(f"duplicate edge {tuple(quad)}")
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

    def _records(self, vertex_str, color_str, show_loops, key_str):
        """The sorted vertex names and the sorted (src, dst, color, element)
        name tuples of the shown edges; element is None for a keyless edge.

        Each distinct vertex, color and key is rendered once.
        """
        vnames = {v: vertex_str(v) for v in self.vertices}
        edges = [e for e in self.edges if show_loops or e.src != e.dst]
        cnames = {c: color_str(c) for c in {e.color for e in edges}}
        knames = {k: None if k is None else key_str(k) for k in {e.key for e in edges}}
        records = [(vnames[s], vnames[d], cnames[c], knames[k]) for s, d, c, k in edges]
        # a keyless edge sorts as if its element were ""
        records.sort(key=lambda r: r if r[3] is not None else r[:3] + ("",))
        return sorted(vnames.values()), records

    def to_json(self, vertex_str: Callable[[Hashable], str] = str,
                color_str: Callable[[Any], str] = str,
                show_loops: bool = True,
                key_str: Callable[[Any], str] = str) -> str:
        """The graph as indented JSON text with sorted keys, newline ended:
        {"edges": [{"color", "dst", "element" (keyed edges only), "src"}],
        "vertices": [...]}, both lists sorted by name."""
        vertices, records = self._records(vertex_str, color_str, show_loops, key_str)
        edges = [_JSON_KEYLESS_EDGE % (_quote(c), _quote(d), _quote(s)) if k is None
                 else _JSON_EDGE % (_quote(c), _quote(d), _quote(k), _quote(s))
                 for s, d, c, k in records]
        # one join over every piece, so the text is copied once
        return "".join(['{\n  "edges": ', *_json_array(edges), ',\n  "vertices": ',
                        *_json_array([_quote(v) for v in vertices]), "\n}\n"])

    def to_dot(self, vertex_str: Callable[[Hashable], str] = str,
               color_str: Callable[[Any], str] = str,
               show_loops: bool = True,
               key_str: Callable[[Any], str] = str) -> str:
        vertices, records = self._records(vertex_str, color_str, show_loops, key_str)
        lines = [f"digraph {self.name} {{"]
        for v in vertices:
            lines.append(f'  "{v}";')
        for s, d, c, k in records:
            attrs = f'color="{c}"' if k is None else f'color="{c}", element="{k}"'
            lines.append(f'  "{s}" -> "{d}" [{attrs}];')
        lines.append("}")
        return "\n".join(lines) + "\n"
