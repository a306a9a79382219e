"""The JSON writer of colored digraphs against the standard library's encoder
of the reference tree, and the graph's own checks."""

import json
from functools import cache

import pytest

from crystalgraphs import (ColoredDigraph, Convention, CrystalContext, Edge, KGraph,
                           WeylGroup, builtin_datum)
from crystalgraphs.cli import element_str, vertex_str

from conftest import ref_graph_json


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
    assert skel.to_json(show_loops=show_loops, **names) == oracle(
        skel, show_loops=show_loops, **names)
    # the default renderers are str
    assert skel.to_json(show_loops=show_loops) == oracle(skel, show_loops=show_loops)


@pytest.mark.parametrize("kind", ["right", "bruhat"])
def test_keyless_weyl_graph_json_matches_reference(kind):
    group = WeylGroup.generate(builtin_datum("A3"))
    graph = group.bruhat_graph() if kind == "bruhat" else group.weak_graph(kind)
    assert all(e.key is None for e in graph.edges)
    assert graph.to_json(vertex_str=repr) == oracle(graph, vertex_str=repr)


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
        text = graph.to_json(show_loops=show_loops)
        assert text == oracle(graph, show_loops=show_loops)
        assert json.loads(text) == ref_graph_json(graph, show_loops=show_loops)


def test_dot_lists_the_json_records():
    graph = ColoredDigraph(("a", "b"), (Edge("b", "a", 2, key="y"), Edge("a", "b", 1),
                                        Edge("a", "a", 1)), name="g")
    assert graph.to_dot(show_loops=False) == (
        'digraph g {\n  "a";\n  "b";\n  "a" -> "b" [color="1"];\n'
        '  "b" -> "a" [color="2", element="y"];\n}\n')
    assert graph.to_dot().count("->") == 3


def test_duplicate_edge_is_named():
    edges = (Edge("a", "b", 1, key="k"), Edge("a", "b", 1), Edge("a", "b", 1, key="k"))
    with pytest.raises(ValueError, match=r"duplicate edge \('a', 'b', 1, 'k'\)"):
        ColoredDigraph(("a", "b"), edges)
    with pytest.raises(ValueError, match="unknown endpoint"):
        ColoredDigraph(("a",), (Edge("a", "b", 1),))
    with pytest.raises(ValueError, match="duplicate vertices"):
        ColoredDigraph(("a", "a"), ())
