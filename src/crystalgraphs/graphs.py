"""Colored directed multigraphs with DOT and JSON export."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable, Hashable, NamedTuple, TextIO


class Edge(NamedTuple):
    src: Any
    dst: Any
    color: Any
    key: Any = None


# one edge of `ColoredDigraph.to_json`: its keys sorted, at indent 2
_JSON_EDGE = ('{\n      "color": %s,\n      "dst": %s,\n'
              '      "element": %s,\n      "src": %s\n    }')
_JSON_KEYLESS_EDGE = '{\n      "color": %s,\n      "dst": %s,\n      "src": %s\n    }'


# the records joined into one write of `to_json` or `to_dot`: at A5 (17,820
# edges, 2-vCPU Xeon VM, Python 3.11) the JSON writes take 13 ms in pieces of
# 256 records, 23 ms at one write per record and 15 ms in one piece
WRITE_BATCH = 256


def _json_edge(record) -> str:
    s, d, c, k = record
    if k is None:
        return _JSON_KEYLESS_EDGE % (_quote(c), _quote(d), _quote(s))
    return _JSON_EDGE % (_quote(c), _quote(d), _quote(k), _quote(s))


def _dot_edge(record) -> str:
    s, d, c, k = record
    if k is None:
        return f'  "{s}" -> "{d}" [color="{c}"];\n'
    return f'  "{s}" -> "{d}" [color="{c}", element="{k}"];\n'


def _write_joined(write, items: list, render: Callable[[Any], str],
                  sep: str = "") -> None:
    """Write sep.join(map(render, items)) in pieces of `WRITE_BATCH` items."""
    for start in range(0, len(items), WRITE_BATCH):
        if start:
            write(sep)
        write(sep.join(map(render, items[start:start + WRITE_BATCH])))


def _write_json_array(write, items: list, render: Callable[[Any], str]) -> None:
    """Write the rendered items as a JSON array laid out at indent 2, as the
    value of a top-level key."""
    if not items:
        write("[]")
        return
    write("[\n    ")
    _write_joined(write, items, render, ",\n    ")
    write("\n  ]")


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

    def to_json(self, out: TextIO, vertex_str: Callable[[Hashable], str] = str,
                color_str: Callable[[Any], str] = str,
                show_loops: bool = True,
                key_str: Callable[[Any], str] = str) -> None:
        """Write the graph to the text stream `out` as indented JSON with
        sorted keys, newline ended: {"edges": [{"color", "dst", "element"
        (keyed edges only), "src"}], "vertices": [...]}, both lists sorted by
        name.  Every name is rendered before the first write."""
        vertices, records = self._records(vertex_str, color_str, show_loops, key_str)
        write = out.write
        write('{\n  "edges": ')
        _write_json_array(write, records, _json_edge)
        write(',\n  "vertices": ')
        _write_json_array(write, vertices, _quote)
        write("\n}\n")

    def to_dot(self, out: TextIO, vertex_str: Callable[[Hashable], str] = str,
               color_str: Callable[[Any], str] = str,
               show_loops: bool = True,
               key_str: Callable[[Any], str] = str) -> None:
        """Write the graph to the text stream `out` in DOT, one line per
        vertex and per edge, in the order of `to_json`."""
        vertices, records = self._records(vertex_str, color_str, show_loops, key_str)
        write = out.write
        write(f"digraph {self.name} {{\n")
        _write_joined(write, vertices, '  "{}";\n'.format)
        _write_joined(write, records, _dot_edge)
        write("}\n")
