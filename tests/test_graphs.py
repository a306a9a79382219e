"""The JSON writer of colored digraphs against the standard library's encoder
of the reference tree, the pieces both writers write, and the graph's own
checks."""

import json
from functools import cache

import pytest

from crystalgraphs import (ColoredDigraph, Convention, CrystalContext, Edge, KGraph,
                           WeylGroup, builtin_datum, graphs)
from crystalgraphs.cli import element_str, vertex_str

from conftest import ref_graph_json, written


def oracle(graph, **kwargs) -> str:
    return json.dumps(ref_graph_json(graph, **kwargs), indent=2, sort_keys=True) + "\n"


@cache
def skeleton(algebra, convention):
    return KGraph(CrystalContext(builtin_datum(algebra), convention)).skeleton()


@pytest.mark.parametrize("show_loops", [False, True])
@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("algebra", ["A2", "C2", "A3"])
def test_skeleton_json_matches_reference(algebra, convention, show_loops):
    skel = skeleton(algebra, convention)
    color_str = "w{}".format
    names = dict(vertex_str=vertex_str, color_str=color_str, key_str=element_str)
    assert written(skel.to_json, show_loops=show_loops, **names) == oracle(
        skel, show_loops=show_loops, **names)
    # the default renderers are str
    assert written(skel.to_json, show_loops=show_loops) == oracle(
        skel, show_loops=show_loops)


@pytest.mark.parametrize("kind", ["right", "bruhat"])
def test_keyless_weyl_graph_json_matches_reference(kind):
    group = WeylGroup.generate(builtin_datum("A3"))
    graph = group.bruhat_graph() if kind == "bruhat" else group.weak_graph(kind)
    assert all(e.key is None for e in graph.edges)
    assert written(graph.to_json, vertex_str=repr) == oracle(graph, vertex_str=repr)


ODD_NAMES = ['say "hi"', "back\\slash", "two\nlines", "Grüße", "雪", "tab\there", ""]


@pytest.mark.parametrize("vertices, edges", [
    pytest.param(("a", "b"), (), id="no-edges"),
    pytest.param((), (), id="no-vertices"),
    pytest.param(tuple(ODD_NAMES),
                 tuple(Edge(u, v, c, key=k)
                       for u, v in zip(ODD_NAMES, ODD_NAMES[1:] + ODD_NAMES[:1])
                       for c, k in (("é\"", "k\\1"), ("x\ny", None))),
                 id="odd-names"),
    pytest.param(("a", "b"), (Edge("a", "b", 1), Edge("a", "b", 1, key=""),
                              Edge("a", "b", 1, key="z"), Edge("b", "b", 2)),
                 id="keyless-and-keyed"),
])
def test_hand_made_json_matches_reference(vertices, edges):
    graph = ColoredDigraph(vertices, edges)
    for show_loops in (False, True):
        text = written(graph.to_json, show_loops=show_loops)
        assert text == oracle(graph, show_loops=show_loops)
        assert json.loads(text) == ref_graph_json(graph, show_loops=show_loops)


def test_dot_lists_the_json_records():
    graph = ColoredDigraph(("a", "b"), (Edge("b", "a", 2, key="y"), Edge("a", "b", 1),
                                        Edge("a", "a", 1)), name="g")
    assert written(graph.to_dot, show_loops=False) == (
        'digraph g {\n  "a";\n  "b";\n  "a" -> "b" [color="1"];\n'
        '  "b" -> "a" [color="2", element="y"];\n}\n')
    assert written(graph.to_dot).count("->") == 3


class Pieces:
    """A text stream that keeps each write apart."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)


@pytest.mark.parametrize("batch", [1, 2, 5, 10_000])
@pytest.mark.parametrize("convention", list(Convention))
def test_writes_are_batches_of_records(monkeypatch, convention, batch):
    # at any batch size the pieces join to the text of the default size, and
    # no piece holds more than a batch of edges or of DOT vertex lines
    skel = skeleton("A3", convention)
    names = dict(show_loops=True, vertex_str=vertex_str, color_str="w{}".format,
                 key_str=element_str)
    whole = {"to_json": oracle(skel, **names), "to_dot": written(skel.to_dot, **names)}
    monkeypatch.setattr(graphs, "WRITE_BATCH", batch)
    for export, marks in (("to_json", {'"src"': len(skel.edges)}),
                          ("to_dot", {"->": len(skel.edges),
                                      '";\n': len(skel.vertices)})):
        out = Pieces()
        getattr(skel, export)(out, **names)
        assert "".join(out.pieces) == whole[export]
        for mark, count in marks.items():
            assert max(piece.count(mark) for piece in out.pieces) == min(batch, count)


@pytest.mark.parametrize("batch", [1, 2, 3])
def test_small_batches_of_odd_names(monkeypatch, batch):
    monkeypatch.setattr(graphs, "WRITE_BATCH", batch)
    graph = ColoredDigraph(tuple(ODD_NAMES), tuple(
        Edge(u, v, "c", key=k) for u, v in zip(ODD_NAMES, ODD_NAMES[1:])
        for k in (None, "k")))
    for show_loops in (False, True):
        assert written(graph.to_json, show_loops=show_loops) == oracle(
            graph, show_loops=show_loops)


@pytest.mark.parametrize("renderer", ["vertex_str", "color_str", "key_str"])
@pytest.mark.parametrize("export", ["to_json", "to_dot"])
def test_renderer_error_writes_nothing(export, renderer):
    graph = ColoredDigraph(("a", "b"), (Edge("a", "b", 1, key="k"), Edge("b", "a", 2)))

    def fails(x):
        raise KeyError(x)

    out = Pieces()
    with pytest.raises(KeyError):
        getattr(graph, export)(out, **{renderer: fails})
    assert out.pieces == []


def test_duplicate_edge_is_named():
    edges = (Edge("a", "b", 1, key="k"), Edge("a", "b", 1), Edge("a", "b", 1, key="k"))
    with pytest.raises(ValueError, match=r"duplicate edge \('a', 'b', 1, 'k'\)"):
        ColoredDigraph(("a", "b"), edges)
    with pytest.raises(ValueError, match="unknown endpoint"):
        ColoredDigraph(("a",), (Edge("a", "b", 1),))
    with pytest.raises(ValueError, match="duplicate vertices"):
        ColoredDigraph(("a", "a"), ())
