import json
from itertools import product

import pytest
from hypothesis import given, strategies as st

from crystalgraphs import builtin_datum, weyl
from crystalgraphs.weyl import WeylGroup

from conftest import longest, written

A2 = WeylGroup.generate(builtin_datum("A2"))
C2 = WeylGroup.generate(builtin_datum("C2"))
A1 = WeylGroup.generate(builtin_datum("A1"))
A3 = WeylGroup.generate(builtin_datum("A3"))


def inverse(group, w):
    """w^{-1}, read off the reversed reduced word."""
    return group.element_from_word(w.word[::-1])


def el(group, *word):
    return group.element_from_word(word)


def triples(graph):
    return set(graph.edge_multiset())


# -- oracles: the Weyl action by weight and root reflections, letter by letter


def act_on_weight(group, word, lam):
    """s_{a_1} ... s_{a_k} lam, rightmost letter first."""
    for i in reversed(tuple(word)):
        lam = group.datum.reflect_weight(i, lam)
    return lam


def act_on_root(group, w, gamma):
    for i in reversed(w.word):
        gamma = group.datum.reflect_root(i, gamma)
    return gamma


def positive_root_of(group, t):
    return group.reflection_roots()[t]


def inversion_length(group, w):
    """Count positive roots sent to negative ones; equals length(w)."""
    return sum(all(c <= 0 for c in act_on_root(group, w, gamma).coords)
               for gamma in group.datum.positive_roots())


def left_bruhat_triples(group):
    """Edges u -> tu with l(tu) > l(u), colored by the right reflection u^{-1}tu."""
    out = set()
    for u in group:
        for t in group.reflections():
            w = group.multiply(t, u)
            if w.length > u.length:
                right = group.multiply(inverse(group, u), w)
                out.add((u, w, positive_root_of(group, right)))
    return out


def by_fingerprint(group, lam):
    return next(w for w in group if w.fingerprint == lam)


# -- the tests


def test_elements_are_values_of_their_fingerprint():
    w = el(A2, 1, 2)
    same = weyl.WeylElement(fingerprint=w.fingerprint, word=(2, 1, 2, 1))
    assert same == w and hash(same) == hash(w) == hash((w.fingerprint,))
    assert same.word == (2, 1, 2, 1) and same.length == 4
    assert w != w.fingerprint and w != el(A2, 2, 1)
    assert el(A2, 1, 2) in A2.elements and len({w, same}) == 1
    assert repr(w) == "s1*s2" and repr(el(A2)) == "e"
    with pytest.raises(AttributeError, match="cannot assign to field 'word'"):
        w.word = (1,)
    assert w.word == (1, 2)


def test_group_orders():
    assert len(A2) == 6
    assert len(C2) == 8
    assert len(A1) == 2


def test_identity_and_longest():
    assert A2.identity.length == 0
    assert longest(A2) == el(A2, 1, 2, 1) == el(A2, 2, 1, 2)
    assert longest(C2) == el(C2, 1, 2, 1, 2)
    assert longest(C2).length == 4


def test_lengths_and_multiplication():
    assert el(A2, 1, 2, 1).length == 3
    s1 = A2.simple(1)
    assert A2.multiply(s1, s1) == A2.identity
    assert A2.multiply(el(A2, 1, 2), inverse(A2, el(A2, 1, 2))) == A2.identity


@pytest.mark.parametrize("name", ["A3", "A4", "C2"])
def test_table_matches_fingerprint_route(name):
    # every product, inverse and word evaluation agrees with reflecting rho
    # letter by letter; A4 has 14,400 pairs
    group = WeylGroup.generate(builtin_datum(name))
    rho = group.datum.rho()
    for w in group:
        assert w.fingerprint == act_on_weight(group, w.word, rho)
        inv = inverse(group, w)
        assert inv in group
        assert inv.fingerprint == act_on_weight(group, w.word[::-1], rho)
        assert group.multiply(w, inv) is group.multiply(inv, w) is group.identity
    for u, w in product(group, group):
        want = act_on_weight(group, u.word, w.fingerprint)
        uw = group.multiply(u, w)
        assert uw in group and uw.fingerprint == want
        assert group.element_from_word(u.word + w.word) is uw


@pytest.mark.parametrize("word", [(0,), (3,), (1, 0), (2, 3, 1), (-1,)])
def test_letter_outside_rank_raises(word):
    # a table index i - 1 = -1 would wrap around to s_r
    with pytest.raises(IndexError):
        A2.element_from_word(word)
    bad = next(i for i in word if not 1 <= i <= 2)
    with pytest.raises(IndexError):
        A2.simple(bad)


def test_length_equals_inversion_count():
    for group in (A2, C2, A3):
        for w in group:
            assert inversion_length(group, w) == w.length


def test_descent_criterion():
    # l(s_i w) > l(w) iff w^{-1} a_i is positive
    for group in (A2, C2, A3):
        datum = group.datum
        for w in group:
            winv = inverse(group, w)
            for i in datum.indices:
                image = act_on_root(group, winv, datum.simple_root(i))
                longer = group.multiply(group.simple(i), w).length > w.length
                assert longer == all(c >= 0 for c in image.coords)


def test_reflections():
    refl = A2.reflections()
    assert len(refl) == 3
    assert el(A2, 1, 2, 1) in refl
    assert len(C2.reflections()) == 4
    for group in (A2, C2):
        for t in group.reflections():
            assert group.multiply(t, t) == group.identity
            gamma = positive_root_of(group, t)
            lam = group.datum.rho()
            assert (act_on_weight(group, t.word, lam)
                    == group.datum.reflect_by_root(gamma, lam))


def test_bruhat_graph_a2():
    graph = A2.bruhat_graph()
    assert len(graph.edges) == 9
    long_root = positive_root_of(A2, el(A2, 1, 2, 1))
    assert (A2.identity, el(A2, 1, 2, 1), long_root) in triples(graph)
    # s_1^{-1} (s_1 s_2 s_1) = s_2 s_1 is not a reflection
    assert not any(e.src == el(A2, 1) and e.dst == el(A2, 1, 2, 1)
                   for e in graph.edges)


def test_bruhat_graph_built_once():
    group = WeylGroup.generate(builtin_datum("A2"))
    assert group.bruhat_graph() is group.bruhat_graph()


def test_bruhat_graph_left_right_agree():
    for group in (A2, C2, A3):
        assert triples(group.bruhat_graph()) == left_bruhat_triples(group)


def test_weak_graphs():
    right = A2.weak_graph("right")
    left = A2.weak_graph("left")
    assert (el(A2, 2), el(A2, 2, 1), 1) in triples(right)
    # w = s_2 s_1 s_2 arises from s_1 s_2 by left multiplication with s_2
    assert (el(A2, 1, 2), el(A2, 2, 1, 2), 2) in triples(left)
    bruhat_pairs = {(e.src, e.dst) for e in A2.bruhat_graph().edges}
    for graph in (right, left):
        assert {(e.src, e.dst) for e in graph.edges} <= bruhat_pairs
        assert sum(e.src == A2.identity for e in graph.edges) == 2
        tails = {e.src for e in graph.edges}
        heads = {e.dst for e in graph.edges}
        sinks = [v for v in graph.vertices if v not in tails]
        sources = [v for v in graph.vertices if v not in heads]
        assert sinks == [longest(A2)] and sources == [A2.identity]


def test_rank_one_weak_graphs_coincide():
    assert triples(A1.weak_graph("right")) == triples(A1.weak_graph("left"))


def test_bruhat_leq():
    for u in A2:
        assert A2.bruhat_leq(u, u)
    assert A2.bruhat_leq(el(A2, 2), el(A2, 1, 2))
    assert not A2.bruhat_leq(el(A2, 1), el(A2, 2))


@given(st.lists(st.sampled_from([1, 2]), max_size=8))
def test_word_evaluation_consistent(word):
    w = C2.element_from_word(word)
    assert w.length <= len(word)
    assert C2.element_from_word(w.word) == w
    assert w is by_fingerprint(C2, act_on_weight(C2, word, C2.datum.rho()))


def test_mixed_group_rejected():
    with pytest.raises(ValueError):
        A2.multiply(A2.identity, C2.identity)


def test_generation_cap(monkeypatch):
    monkeypatch.setattr(weyl, "MAX_GROUP_SIZE", 10)
    with pytest.raises(ValueError, match="exceeds cap 10"):
        WeylGroup.generate(builtin_datum("A3"))


def test_graph_export_shapes():
    graph = A2.weak_graph("right")
    data = json.loads(written(graph.to_json, vertex_str=repr))
    assert set(data) == {"vertices", "edges"}
    assert all(set(e) == {"src", "dst", "color"} for e in data["edges"])
    dot = written(graph.to_dot, vertex_str=repr)
    assert dot.startswith("digraph") and 'color="1"' in dot


@pytest.mark.parametrize("side", ["Right", "up", "", None])
def test_weak_graph_refuses_unknown_sides(side):
    with pytest.raises(ValueError):
        A2.weak_graph(side)
    assert A2.weak_graph("right") is A2.weak_graph("right")
