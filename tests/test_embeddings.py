import math
from itertools import product as iterproduct

import pytest

from crystalgraphs import (Convention, CrystalContext, KGraph, Report, Weight,
                           builtin_datum, count_weak_embeddings, embed_bruhat,
                           embed_right_weak, enumerate_compatible_colorings,
                           run_suite)
from crystalgraphs import embeddings
from crystalgraphs.embeddings import check_bruhat_colorings, edge_candidates

from conftest import A1_


def minimal_coloring(kg: KGraph) -> dict:
    """c(e) = sum of the fundamental weights over the edge root's support."""
    datum = kg.ctx.datum
    coloring = {}
    for e in kg.weyl_group.bruhat_graph().edges:
        lam = datum.zero_weight()
        for i in datum.supp_root(e.color):
            lam = lam + datum.fundamental_weight(i)
        coloring[e] = lam
    return coloring


def test_right_weak_embedding_a2(a2_kg):
    emb = embed_right_weak(a2_kg)
    W = a2_kg.weyl_group
    edge = next(e for e in W.weak_graph("right").edges
                if e.src == W.identity and e.color == 1)
    p = emb.edge_map[edge]
    assert p.vertex == a2_kg.weyl_vertex(W.element_from_word((1,)))
    assert p.element == (A1_,)
    # six weak edges land on six distinct skeleton edges
    assert len(set(emb.edge_map.values())) == 6


def test_embedding_counts(a2_kg, c2_kg):
    assert count_weak_embeddings(a2_kg, "right") == 1
    assert count_weak_embeddings(a2_kg, "left") == 0
    assert count_weak_embeddings(c2_kg, "right") == 1
    a1_kg = KGraph(CrystalContext(builtin_datum("A1")))
    assert count_weak_embeddings(a1_kg, "right") == 1
    assert count_weak_embeddings(a1_kg, "left") == 1
    # any other side is refused, not read as "left"
    with pytest.raises(ValueError):
        count_weak_embeddings(a2_kg, "Right")


def test_edge_candidates(a2_kg):
    W = a2_kg.weyl_group
    graph = W.bruhat_graph()
    simple_edge = next(e for e in graph.edges
                       if e.src == W.identity and e.color.coords == (1, 0))
    cands = {w.coords for w in edge_candidates(a2_kg, simple_edge.color, (1, 1))}
    assert cands == {(1, 0), (1, 1)}
    long_edge = next(e for e in graph.edges if e.color.coords == (1, 1))
    cands = {w.coords for w in edge_candidates(a2_kg, long_edge.color, (1, 1))}
    assert cands == {(1, 1)}


def test_coloring_counts(a2_kg, c2_kg):
    assert len(enumerate_compatible_colorings(a2_kg, (1, 1))) == 64
    assert len(enumerate_compatible_colorings(c2_kg, (1, 1))) == 256


def _per_edge_pools(kg, bound) -> tuple:
    """Each Bruhat edge's pool built from its own root: the dominant weights
    up to `bound` whose support contains the root's."""
    datum = kg.ctx.datum
    pools = []
    for e in kg.weyl_group.bruhat_graph().edges:
        support = datum.supp_root(e.color)
        ranges = [range(1 if i in support else 0, bound[i - 1] + 1)
                  for i in datum.indices]
        pools.append(tuple(Weight(c) for c in iterproduct(*ranges)))
    return tuple(pools)


@pytest.mark.parametrize("name, bound, count, edge_colors", [
    ("A3", (1, 1, 1), 2 ** 96, 204),
    ("C2", (1, 1), 256, 24),
])
def test_one_pool_per_positive_root(name, bound, count, edge_colors):
    kg = KGraph(CrystalContext(builtin_datum(name)))
    colorings = enumerate_compatible_colorings(kg, bound)
    roots = kg.ctx.datum.positive_roots()
    assert len({id(pool) for pool in colorings.pools}) == len(roots)
    shared = {}
    for e, pool in zip(colorings.edges, colorings.pools):
        assert shared.setdefault(e.color, pool) is pool
    assert set(shared) == set(roots)
    per_edge = _per_edge_pools(kg, bound)
    assert colorings.pools == per_edge
    assert colorings.count == math.prod(map(len, per_edge)) == count
    rep = run_suite("embeddings", algebra=name, degree_bound=bound)
    assert rep.details["bruhat_edge_colors"] == sum(map(len, per_edge)) == edge_colors


def test_minimal_coloring_compatible_and_embeds(a2_kg):
    coloring = minimal_coloring(a2_kg)
    datum = a2_kg.ctx.datum
    for e, lam in coloring.items():
        assert datum.supp_root(e.color) == datum.supp_weight(lam)
    emb = embed_bruhat(a2_kg, coloring)
    assert len(emb.edge_map) == 9


def test_incompatible_coloring_rejected(a2_kg):
    coloring = minimal_coloring(a2_kg)
    bad = dict(coloring)
    long_edge = next(e for e in bad if e.color.coords == (1, 1))
    bad[long_edge] = Weight((1, 0))
    with pytest.raises(ValueError):
        embed_bruhat(a2_kg, bad)


def test_all_bounded_colorings_embed_c2(c2_kg):
    for coloring in enumerate_compatible_colorings(c2_kg, (1, 1)):
        embed_bruhat(c2_kg, coloring)


def _every_coloring_embeds(kg, colorings) -> bool:
    try:
        for coloring in colorings:
            embed_bruhat(kg, coloring)
    except ValueError:
        return False
    return True


def _pair_check(kg, colorings) -> Report:
    rep = Report("pairs")
    check_bruhat_colorings(kg, colorings, rep.check)
    return rep


@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("name, count", [("A2", 64), ("C2", 256)])
def test_pair_check_matches_full_enumeration(name, count, convention):
    kg = KGraph(CrystalContext(builtin_datum(name), convention))
    colorings = enumerate_compatible_colorings(kg, (1, 1))
    assert colorings.count == count == sum(1 for _ in colorings)
    verdict = _pair_check(kg, colorings).ok
    assert verdict == _every_coloring_embeds(kg, colorings)
    assert verdict == (convention is Convention.HONG_KANG)


def test_same_target_collision_is_reported(a2_kg, monkeypatch):
    kg = a2_kg
    W = kg.weyl_group
    s1, s2 = W.simple(1), W.simple(2)
    target = W.multiply(s1, s2)
    # s1 -> s1 s2 (root a2) and s2 -> s1 s2 (root a1 + a2) share color (1, 1);
    # sending s2 to the extremal element of s1 makes their paths coincide
    e1, e2 = (next(e for e in W.bruhat_graph().edges
                   if e.src == u and e.dst == target) for u in (s1, s2))
    real = embeddings.extremal_element
    monkeypatch.setattr(embeddings, "extremal_element",
                        lambda crystal, w: real(crystal, s1 if w == s2 else w))
    colorings = enumerate_compatible_colorings(kg, (1, 1))
    failures = _pair_check(kg, colorings).failures
    assert any("not injective" in f and repr(e1) in f and repr(e2) in f
               for f in failures)
    # the borrowed path still starts at the vertex of s1, not of s2
    assert any("wrong source" in f and repr(e2) in f for f in failures)
    assert not _every_coloring_embeds(kg, colorings)
    coloring = next(iter(colorings))
    coloring[e1] = coloring[e2] = Weight((1, 1))
    with pytest.raises(ValueError, match="edge map is not injective"):
        embed_bruhat(kg, coloring)


@pytest.mark.parametrize("name, bound, count", [
    ("A3", (1, 1, 1), 79_228_162_514_264_337_593_543_950_336),  # 2**96
    ("C2", (2, 2), 110_075_314_176),
])
def test_embeddings_suite_beyond_enumeration(name, bound, count):
    rep = run_suite("embeddings", algebra=name, degree_bound=bound)
    assert rep.failures == []
    assert rep.details["compatible_colorings"] == count


def test_coloring_count_past_len(a3):
    colorings = enumerate_compatible_colorings(KGraph(a3), (1, 1, 1))
    assert colorings.count == 2 ** 96
    with pytest.raises(OverflowError):
        len(colorings)


def test_empty_product_checks_nothing(a2_kg):
    # a bound of 0 on index 1 leaves the edges whose root involves a1 no color
    colorings = enumerate_compatible_colorings(a2_kg, (0, 1))
    assert colorings.count == 0 and list(colorings) == []
    assert _pair_check(a2_kg, colorings).instances_checked == 0
