import pytest
from hypothesis import given, strategies as st

from crystalgraphs import builtin_datum
from crystalgraphs.weyl import WeylGroup

A2 = WeylGroup.generate(builtin_datum("A2"))
C2 = WeylGroup.generate(builtin_datum("C2"))
A1 = WeylGroup.generate(builtin_datum("A1"))


def el(group, *word):
    return group.element_from_word(word)


def test_group_orders():
    assert len(A2) == 6
    assert len(C2) == 8
    assert len(A1) == 2


def test_identity_and_longest():
    assert A2.identity.length == 0
    assert A2.longest == el(A2, 1, 2, 1) == el(A2, 2, 1, 2)
    assert C2.longest == el(C2, 1, 2, 1, 2)
    assert C2.longest.length == 4


def test_lengths_and_multiplication():
    assert el(A2, 1, 2, 1).length == 3
    s1 = A2.simple(1)
    assert A2.multiply(s1, s1) == A2.identity
    assert A2.multiply(el(A2, 1, 2), A2.inverse(el(A2, 1, 2))) == A2.identity


def test_length_equals_inversion_count():
    for group in (A2, C2, WeylGroup.generate(builtin_datum("A3"))):
        for w in group:
            assert group.inversion_length(w) == w.length


def test_descent_criterion():
    # l(s_i w) > l(w) iff w^{-1} a_i is positive
    for group in (A2, C2, WeylGroup.generate(builtin_datum("A3"))):
        datum = group.datum
        for w in group:
            winv = group.inverse(w)
            for i in datum.indices:
                image = group.act_on_root(winv, datum.simple_root(i))
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
            gamma = group.positive_root_of(t)
            lam = group.datum.rho()
            assert group.act_on_weight(t, lam) == group.datum.reflect_by_root(gamma, lam)


def test_bruhat_graph_a2():
    graph = A2.bruhat_graph()
    assert len(graph.edges) == 9
    long_root = A2.positive_root_of(el(A2, 1, 2, 1))
    assert (A2.identity, el(A2, 1, 2, 1), long_root) in graph.edge_triples()
    # s_1^{-1} (s_1 s_2 s_1) = s_2 s_1 is not a reflection
    assert not any(e.src == el(A2, 1) and e.dst == el(A2, 1, 2, 1)
                   for e in graph.edges)


def test_bruhat_graph_left_right_agree():
    for group in (A2, C2):
        assert (group.bruhat_graph().edge_triples()
                == group.bruhat_graph(left=True).edge_triples())


def test_weak_graphs():
    right = A2.right_weak_graph()
    left = A2.left_weak_graph()
    assert (el(A2, 2), el(A2, 2, 1), 1) in right.edge_triples()
    # w = s_2 s_1 s_2 arises from s_1 s_2 by left multiplication with s_2
    assert (el(A2, 1, 2), el(A2, 2, 1, 2), 2) in left.edge_triples()
    bruhat_pairs = {(e.src, e.dst) for e in A2.bruhat_graph().edges}
    for graph in (right, left):
        assert {(e.src, e.dst) for e in graph.edges} <= bruhat_pairs
        assert sum(e.src == A2.identity for e in graph.edges) == 2
        tails = {e.src for e in graph.edges}
        heads = {e.dst for e in graph.edges}
        sinks = [v for v in graph.vertices if v not in tails]
        sources = [v for v in graph.vertices if v not in heads]
        assert sinks == [A2.longest] and sources == [A2.identity]


def test_rank_one_weak_graphs_coincide():
    assert (A1.right_weak_graph().edge_triples()
            == A1.left_weak_graph().edge_triples())


def test_bruhat_leq():
    for u in A2:
        assert A2.bruhat_leq(u, u)
    assert A2.bruhat_leq(el(A2, 2), el(A2, 1, 2))
    assert not A2.bruhat_leq(el(A2, 1), el(A2, 2))


def test_removal_sequence_examples():
    w0 = el(A2, 1, 2, 1)
    assert A2.removal_sequence(w0, w0) == ()
    assert A2.removal_sequence(w0, el(A2, 1, 2)) == (3,)
    seq = A2.removal_sequence(w0, A2.identity)
    assert len(seq) == 3 and seq[0] > seq[1] > seq[2]
    with pytest.raises(ValueError):
        A2.removal_sequence(el(A2, 1), el(A2, 2))


def test_removal_sequence_validity_everywhere():
    for group in (A2, C2):
        for w in group:
            for w2 in group:
                if w == w2 or not group.bruhat_leq(w2, w):
                    continue
                seq = group.removal_sequence(w, w2)
                assert len(seq) == w.length - w2.length
                assert all(a > b for a, b in zip(seq, seq[1:]))
                removed = set()
                for pos in seq:
                    # positions refer to the original word; every stage is reduced
                    removed.add(pos)
                    word = [l for n, l in enumerate(w.word, start=1)
                            if n not in removed]
                    assert group.element_from_word(word).length == len(word)
                assert group.element_from_word(word) == w2


@given(st.lists(st.sampled_from([1, 2]), max_size=8))
def test_word_evaluation_consistent(word):
    w = C2.element_from_word(word)
    assert w.length <= len(word)
    assert C2.element_from_word(w.word) == w


def test_mixed_group_rejected():
    with pytest.raises(ValueError):
        A2.multiply(A2.identity, C2.identity)


def test_generation_cap():
    with pytest.raises(ValueError):
        WeylGroup.generate(builtin_datum("A3"), cap=10)


def test_graph_export_shapes():
    graph = A2.right_weak_graph()
    data = graph.to_json(vertex_str=repr)
    assert set(data) == {"vertices", "edges"}
    assert all(set(e) == {"src", "dst", "color"} for e in data["edges"])
    dot = graph.to_dot(vertex_str=repr)
    assert dot.startswith("digraph") and 'color="1"' in dot
