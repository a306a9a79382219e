import json
import re
from itertools import product

import pytest

from crystalgraphs import (Convention, CrystalContext, KGraph, KPath,
                           builtin_datum, canonical_isomorphism)

from conftest import A1_, A2_, A3_, B1_, B3_, longest, ref_product, written


def wv(kg, *word):
    return kg.weyl_vertex(kg.weyl_group.element_from_word(word))


def test_vertex_counts(a2_kg):
    assert len(a2_kg.vertices()) == 6
    a1_kg = KGraph(CrystalContext(builtin_datum("A1")))
    assert len(a1_kg.vertices()) == 2


def test_weyl_vertex_injective(a2_kg):
    seen = {a2_kg.weyl_vertex(w) for w in a2_kg.weyl_group}
    assert len(seen) == 6
    assert wv(a2_kg) == (A1_, B1_)
    assert wv(a2_kg, 1, 2, 1) == (A3_, B3_)


def test_vertex_order_extremes(a2_kg, c2_kg):
    for kg in (a2_kg, c2_kg):
        top = kg.weyl_vertex(kg.weyl_group.identity)
        bottom = kg.weyl_vertex(longest(kg.weyl_group))
        for v in kg.vertices():
            assert kg.vertex_leq(v, top)
            assert kg.vertex_leq(bottom, v)


def test_is_path_examples(a2_kg):
    omega1 = (1, 0)
    for v in a2_kg.vertices():
        assert a2_kg.is_path(v, (), (0, 0))
        hw = a2_kg.ctx.weight_crystal(omega1).hw_element()
        assert a2_kg.is_path(v, hw, omega1)
    assert a2_kg.is_path(wv(a2_kg, 1), (A1_,), omega1)
    assert not a2_kg.is_path(wv(a2_kg), (A3_,), omega1)
    with pytest.raises(ValueError):
        a2_kg.path(wv(a2_kg), (A3_,), omega1)


def test_source_examples(a2_kg):
    omega1 = (1, 0)
    p = a2_kg.path(wv(a2_kg, 1), (A1_,), omega1)
    assert a2_kg.source(p) == wv(a2_kg)
    p = a2_kg.path(wv(a2_kg, 1, 2, 1), (A2_,), omega1)
    assert a2_kg.source(p) == wv(a2_kg, 1, 2)
    # a degree-zero path is a loop
    for v in a2_kg.vertices():
        assert a2_kg.source(a2_kg.path(v, (), (0, 0))) == v


def test_path_repr_names_its_fields():
    # failure messages print paths with %s, so this text is part of a report
    p = KPath(((1,), (1, 2)), ((2,),), (1, 0))
    assert str(p) == "KPath(vertex=((1,), (1, 2)), element=((2,),), degree=(1, 0))"


def test_compose_identity_and_degree(a2_kg):
    omega1, omega2 = (1, 0), (0, 1)
    p = a2_kg.path(wv(a2_kg, 1), (A1_,), omega1)
    idl = a2_kg.path(a2_kg.range(p), (), (0, 0))
    idr = a2_kg.path(a2_kg.source(p), (), (0, 0))
    assert a2_kg.compose(idl, p) == p
    assert a2_kg.compose(p, idr) == p
    for q in a2_kg.paths_of_degree(omega2):
        if a2_kg.range(q) == a2_kg.source(p):
            pq = a2_kg.compose(p, q)
            assert pq.degree == (1, 1)
            assert a2_kg.range(pq) == a2_kg.range(p)
            assert a2_kg.source(pq) == a2_kg.source(q)
    with pytest.raises(ValueError):
        bad = a2_kg.path(wv(a2_kg, 2), (), (0, 0))
        a2_kg.compose(p, bad)
    with pytest.raises(ValueError, match="not an element"):
        a2_kg.compose(p, KPath(a2_kg.source(p), (A1_, A1_), omega1))


def test_path_counts_frozen(a2_kg, c2_opp_kg):
    assert len(a2_kg.paths_of_degree((0, 0))) == 6
    assert len(a2_kg.paths_of_degree((1, 0))) == 12
    assert len(a2_kg.paths_of_degree((0, 1))) == 12
    assert len(a2_kg.paths_of_degree((1, 1))) == 23
    assert len(a2_kg.enumerate_paths((1, 1))) == 53
    # opposite-convention C2 counts, frozen after the first run
    assert len(c2_opp_kg.paths_of_degree((0, 0))) == 10
    assert len(c2_opp_kg.enumerate_paths((1, 1))) == 124


def test_skeleton_spot_checks(a2_kg):
    skel = a2_kg.skeleton()
    assert len(skel.edges) == 24  # 12 per color
    mult = skel.edge_multiset()

    def count(src, dst, color):
        return mult.get((src, dst, color), 0)

    # parallel edges in both colors from s_2 to s_1 s_2
    assert count(wv(a2_kg, 2), wv(a2_kg, 1, 2), 1) == 1
    assert count(wv(a2_kg, 2), wv(a2_kg, 1, 2), 2) == 1
    # no color-w2 edge from s_1 s_2 to the longest element
    assert count(wv(a2_kg, 1, 2), wv(a2_kg, 1, 2, 1), 2) == 0
    assert count(wv(a2_kg, 1, 2), wv(a2_kg, 1, 2, 1), 1) == 1
    # one loop of each color at every vertex
    for v in a2_kg.vertices():
        assert count(v, v, 1) == 1 and count(v, v, 2) == 1


def test_factorization_examples(a2_kg):
    p = a2_kg.paths_of_degree((1, 1))[0]
    g, h = a2_kg.factorization_check(p, (0, 0), (1, 1))
    assert g == a2_kg.path(a2_kg.range(p), (), (0, 0)) and h == p
    g, h = a2_kg.factorization_check(p, (1, 0), (0, 1))
    assert a2_kg.compose(g, h) == p
    with pytest.raises(ValueError):
        a2_kg.factorization_check(p, (1, 0), (1, 0))


def test_representative_independence(a2_kg):
    a2 = a2_kg.ctx
    from crystalgraphs import in_cartan_component
    lam = (1, 0)
    funds = (1, 2) + a2.fundamental_indices(lam)
    for v in a2_kg.vertices():
        fiber = a2_kg.fiber(v)
        for b in a2.weight_crystal(lam).elements:
            results = {in_cartan_component(a2, funds, c + b) for c in fiber}
            assert len(results) == 1


# the representative route: (v, b) is a path when c (x) b is a Cartan element
# for a c in the fiber of v, and its source is the first r chain ends
PATH_ORACLE_BOUNDS = {"A2": (2, 2), "C2": (2, 2), "A3": (1, 1, 1)}


@pytest.mark.parametrize("name,conv", [(name, conv) for name in PATH_ORACLE_BOUNDS
                                       for conv in Convention])
def test_path_tests_match_representative_route(name, conv):
    from crystalgraphs.rightends import chain_ends
    ctx = CrystalContext(builtin_datum(name), conv)
    kg = KGraph(ctx)
    rank = ctx.datum.rank
    rho_funds = tuple(ctx.datum.indices)
    paths = 0
    for lam in kg.degrees_up_to(PATH_ORACLE_BOUNDS[name]):
        funds = rho_funds + ctx.fundamental_indices(lam)
        for v in kg.vertices():
            for b in ctx.weight_crystal(lam).elements:
                is_path = kg.is_path(v, b, lam)
                for c in kg.fiber(v):
                    ends = chain_ends(ctx, funds, c + b)
                    assert is_path == (ends is not None), (v, c, b)
                    if is_path:
                        assert kg.source(KPath(v, b, lam)) == ends[:rank]
                paths += is_path
    assert paths == len(kg.enumerate_paths(PATH_ORACLE_BOUNDS[name]))
    assert paths > 0


@pytest.mark.parametrize("name,conv", [(name, conv) for name in PATH_ORACLE_BOUNDS
                                       for conv in Convention])
def test_enumeration_records_every_source(name, conv):
    """The sources `paths_of_degree` stores are those a fresh k-graph, which
    never enumerated, computes per path, and those of a representative."""
    from crystalgraphs.rightends import chain_ends
    ctx = CrystalContext(builtin_datum(name), conv)
    kg, fresh = KGraph(ctx), KGraph(ctx)
    paths = kg.enumerate_paths(PATH_ORACLE_BOUNDS[name])
    assert set(kg._sources) == set(paths)
    rho_funds = tuple(ctx.datum.indices)
    for p in paths:
        ends = chain_ends(ctx, rho_funds + ctx.fundamental_indices(p.degree),
                          kg.fiber(p.vertex)[0] + p.element)
        assert kg._sources[p] == fresh.source(p) == ends[:len(rho_funds)], p
    assert not fresh._paths
    assert set(kg.skeleton().edges) == {
        (fresh.source(p), p.vertex, i, p.element) for i in ctx.datum.indices
        for p in kg.paths_of_degree(ctx.datum.fundamental_weight(i))}


@pytest.mark.parametrize("name,conv", [(name, conv) for name in PATH_ORACLE_BOUNDS
                                       for conv in Convention])
def test_paths_and_edges_share_the_vertex_objects(name, conv):
    # a source equal to a vertex is that vertex, not a copy of it
    kg = KGraph(CrystalContext(builtin_datum(name), conv))
    vertex_ids = {id(v) for v in kg.vertices()}
    paths = kg.enumerate_paths(PATH_ORACLE_BOUNDS[name])
    assert all(id(kg.source(p)) in vertex_ids for p in paths)
    assert all(id(p.vertex) in vertex_ids for p in paths)
    edges = kg.skeleton().edges
    assert all(id(e.src) in vertex_ids and id(e.dst) in vertex_ids for e in edges)
    # a source computed outside the enumeration, for a path built from copies
    fresh = KGraph(kg.ctx)
    p = paths[-1]
    source = fresh.source(KPath(tuple(list(p.vertex)), p.element, p.degree))
    assert source == kg.source(p)
    assert any(source is v for v in fresh.vertices())
    if conv is Convention.HONG_KANG:
        assert all(id(v) in vertex_ids for v in kg.weyl_vertices.values())


def _factorizations(kg, p, m, n):
    """Every (g, h) of degrees (m, n) with r(g) = r(p), s(g) = r(h) and
    compose(g, h) = p, found by scanning all paths of both degrees."""
    return [(g, h) for g in kg.paths_of_degree(m) if g.vertex == p.vertex
            for h in kg.paths_of_degree(n)
            if h.vertex == kg.source(g) and kg.compose(g, h) == p]


@pytest.mark.parametrize("name,conv,bound", [
    (name, conv, bound) for name, bound in (("A2", (2, 1)), ("C2", (1, 1)))
    for conv in Convention])
def test_factorization_matches_scan_of_all_paths(name, conv, bound):
    kg = KGraph(CrystalContext(builtin_datum(name), conv))
    checks = 0
    for p in kg.enumerate_paths(bound):
        for m in kg.degrees_up_to(p.degree):
            n = tuple(a - b for a, b in zip(p.degree, m))
            (want,) = _factorizations(kg, p, m, n)
            assert kg.factorization_check(p, m, n) == want
            checks += 1
    assert checks > 100


def test_factorization_counts_every_candidate(monkeypatch, a2):
    # with every product made equal to p, each candidate pair matches: the
    # search is exhaustive and refuses 2 or more matches, and it refuses 0
    kg = KGraph(a2)
    p = kg.paths_of_degree((1, 1))[5]
    m, n = (1, 0), (0, 1)
    gs = [g for g in kg.paths_of_degree(m) if g.vertex == p.vertex]
    candidates = sum(h.vertex == kg.source(g) for g in gs
                     for h in kg.paths_of_degree(n))
    assert candidates > len(gs) > 1
    want = a2.weight_crystal((1, 1)).position(p.element)
    monkeypatch.setattr(kg, "_product", lambda entry, i1, i2: want)
    with pytest.raises(ValueError, match=f"has {candidates} factorizations"):
        kg.factorization_check(p, m, n)
    monkeypatch.setattr(kg, "_product", lambda entry, i1, i2: -3)
    with pytest.raises(ValueError, match="has 0 factorizations"):
        kg.factorization_check(p, m, n)


def test_factorization_looks_up_one_position(monkeypatch, c2):
    # once the paths of both degrees are indexed, a check looks up only the
    # position of p's own element
    from crystalgraphs.crystal import Crystal
    kg = KGraph(c2)
    p = kg.paths_of_degree((1, 1))[7]
    kg.factorization_check(p, (1, 0), (0, 1))
    calls = []
    position = Crystal.position
    monkeypatch.setattr(Crystal, "position",
                        lambda self, b: calls.append(b) or position(self, b))
    kg.factorization_check(p, (1, 0), (0, 1))
    assert calls == [p.element]


def test_order_compatibility(a2_kg):
    for p in a2_kg.enumerate_paths((1, 1)):
        assert a2_kg.vertex_leq(a2_kg.range(p), a2_kg.source(p))


def _component_image(kg, p, q):
    """compose(p, q) through the Cartan component of the factor ordering;
    None when the product has no image there."""
    ctx = kg.ctx
    funds = (ctx.fundamental_indices(p.degree)
             + ctx.fundamental_indices(q.degree))
    degree = tuple(a + b for a, b in zip(p.degree, q.degree))
    iso = canonical_isomorphism(ctx.cartan_of(funds), ctx.weight_crystal(degree))
    image = iso.get(p.element + q.element)
    return None if image is None else KPath(p.vertex, image, degree)


# degree bound and (pairs, pairs off the Cartan component), the same under
# both conventions
ORACLE_BOUNDS = {"A2": ((1, 1), (795, 330)), "C2": ((1, 1), (3224, 1816)),
                 "A3": ((1, 0, 1), (7008, 3514))}
ORACLE_CASES = [(name, conv) for name in ORACLE_BOUNDS for conv in Convention]


@pytest.mark.parametrize("name,conv", ORACLE_CASES)
def test_compose_matches_component_route(name, conv):
    # q runs over every element of B(d) at the source of p, path or not: that
    # covers every composable pair of enumerated paths, and products that
    # leave the Cartan component although no braiding of the sort gives 0
    kg = KGraph(CrystalContext(builtin_datum(name), conv))
    bound, counts = ORACLE_BOUNDS[name]
    pairs = off = 0
    for p in kg.enumerate_paths(bound):
        for d in kg.degrees_up_to(bound):
            for b in kg.ctx.weight_crystal(d).elements:
                q = KPath(kg.source(p), b, d)
                want = _component_image(kg, p, q)
                pairs += 1
                if want is None:
                    off += 1
                    with pytest.raises(RuntimeError):
                        kg.compose(p, q)
                else:
                    assert kg.compose(p, q) == want
    assert (pairs, off) == counts


def _compare_product_tables(name, conv, bound) -> tuple[int, int]:
    """Every slot of every degree pair up to the bound against `ref_product`;
    each table is complete when it is made, and a read changes no slot.
    Returns the numbers of slots and of OFF slots."""
    from crystalgraphs.kgraph import OFF
    ctx = CrystalContext(builtin_datum(name), conv)
    kg = KGraph(ctx)
    degrees = kg.degrees_up_to(bound)
    slots = off = 0
    for d1 in degrees:
        for d2 in degrees:
            entry = kg._product_table(d1, d2)
            assert kg._product_table(d1, d2) is entry
            assert entry.target is ctx.weight_crystal(entry.degree)
            assert entry.slots.typecode == "h"
            assert len(entry.slots) == len(entry.left) * len(entry.right)
            made = entry.slots.tolist()
            assert made.count(OFF) == len(entry.slots) - len(entry.target)
            for i1, b1 in enumerate(entry.left.elements):
                for i2, b2 in enumerate(entry.right.elements):
                    want = ref_product(ctx, d1, d2, b1, b2)
                    slots += 1
                    off += want is None
                    if want is None:
                        with pytest.raises(RuntimeError):
                            kg._product(entry, i1, i2)
                    else:
                        t = kg._product(entry, i1, i2)
                        assert entry.target.elements[t] == want
            assert entry.slots.tolist() == made
    return slots, off


# every slot of every degree pair up to these bounds, under both conventions
PRODUCT_BOUNDS = {"A2": (1, 1), "C2": (1, 1), "A3": (1, 0, 1)}


@pytest.mark.parametrize("name,conv", [(name, conv) for name in PRODUCT_BOUNDS
                                       for conv in Convention])
def test_product_tables_match_tuple_route(name, conv):
    slots, off = _compare_product_tables(name, conv, PRODUCT_BOUNDS[name])
    assert 0 < off < slots


def test_product_table_refuses_a_search_of_the_wrong_size(monkeypatch):
    # a search that met fewer pairs than |B(deg1 + deg2)| cannot number the
    # target, so no table is made from it
    import crystalgraphs.kgraph
    search = crystalgraphs.kgraph._lowering_search

    def short(left, right, conv):
        lpos, rpos, maps = search(left, right, conv)
        return lpos[:-1], rpos[:-1], maps

    monkeypatch.setattr(crystalgraphs.kgraph, "_lowering_search", short)
    kg = KGraph(CrystalContext(builtin_datum("A2")))
    with pytest.raises(RuntimeError, match=r"B\(1, 0\) \(x\) B\(0, 1\) has 7 "
                                           r"elements, but B\(1, 1\) has 8"):
        kg._product_table((1, 0), (0, 1))
    assert kg._products == {}


# the acceptance bounds of the axioms suite: 137,346 slots over both conventions
PRODUCT_BOUNDS_SLOW = {"A2": (2, 2), "C2": (2, 2), "A3": (1, 1, 1), "A4": (1, 0, 0, 1)}


@pytest.mark.slow
def test_product_tables_match_tuple_route_at_axioms_bounds():
    slots = 0
    for name, bound in PRODUCT_BOUNDS_SLOW.items():
        for conv in Convention:
            slots += _compare_product_tables(name, conv, bound)[0]
    assert slots == 137_346


def test_axioms_build_only_sorted_components(monkeypatch):
    from crystalgraphs.verify import run_suite
    asked = []
    cartan_of = CrystalContext.cartan_of

    def spy(self, funds):
        asked.append(tuple(funds))
        return cartan_of(self, funds)

    monkeypatch.setattr(CrystalContext, "cartan_of", spy)
    assert run_suite("kgraph-axioms", algebra="A2", degree_bound=(1, 1)).ok
    assert asked
    assert all(funds == tuple(sorted(funds)) for funds in asked)


@pytest.mark.slow
def test_axioms_at_default_bound():
    from crystalgraphs.verify import run_suite
    for name in ("A2", "C2"):
        report = run_suite("kgraph-axioms", algebra=name, degree_bound=(2, 2))
        assert report.ok, report.failures[:3]


@pytest.mark.slow
def test_a4_vertices_and_keys():
    from crystalgraphs import from_crystal, left_key, right_end_tuple
    ctx = CrystalContext(builtin_datum("A4"))
    kg = KGraph(ctx)
    assert len(kg.vertices()) == 120
    for b in ctx.rho_crystal():
        ends = right_end_tuple(ctx, b)
        assert left_key(from_crystal(b)).columns == tuple(reversed(ends))


@pytest.mark.slow
def test_a5_left_keys_are_right_ends():
    from crystalgraphs import from_crystal, left_key, right_end_tuple
    ctx = CrystalContext(builtin_datum("A5"))
    keys = set()
    count = 0
    for b in ctx.rho_crystal():
        key = left_key(from_crystal(b))
        assert key.columns == tuple(reversed(right_end_tuple(ctx, b)))
        keys.add(key)
        count += 1
    assert count == 32768
    assert len(keys) == 720


def test_skeleton_json_and_dot(a2_kg):
    skel = a2_kg.skeleton()
    data = json.loads(written(skel.to_json, show_loops=False))
    assert len(data["edges"]) == 12
    assert all(set(e) == {"src", "dst", "color", "element"} for e in data["edges"])
    dot = written(skel.to_dot, show_loops=True)
    assert dot.count("->") == 24


# -- end rows: one per (degree, element), filled on first use -----------------

def count_cartan_tests(monkeypatch):
    """Count the membership tests the k-graph makes; returns the counter."""
    import crystalgraphs.kgraph
    calls = [0]
    test = crystalgraphs.kgraph.in_cartan_component

    def counted(*args):
        calls[0] += 1
        return test(*args)

    monkeypatch.setattr(crystalgraphs.kgraph, "in_cartan_component", counted)
    return calls


def test_one_is_path_fills_one_row(monkeypatch, a3):
    # a row costs one membership test per x in B(w_1), ..., B(w_r): 4+6+4 at
    # A3; the whole degree rho would cost that for each of its 64 elements
    kg = KGraph(a3)
    calls = count_cartan_tests(monkeypatch)
    rho = a3.rho_crystal()
    v = kg.vertices()[3]
    kg.is_path(v, rho.elements[5], (1, 1, 1))
    bound = sum(len(a3.fundamental(i)) for i in a3.datum.indices)
    assert bound == 14
    assert 0 < calls[0] <= bound
    # a second query on the same element reads the row
    before = calls[0]
    kg.is_path(kg.vertices()[0], rho.elements[5], (1, 1, 1))
    assert calls[0] == before


@pytest.mark.parametrize("name", ["A2", "C2"])
def test_sparse_queries_then_whole_degrees(name):
    # rows filled by scattered queries must give the same paths and sources
    # as rows filled by whole-degree scans
    ctx = CrystalContext(builtin_datum(name))
    fresh, sparse = KGraph(ctx), KGraph(ctx)
    bound = (2, 1)
    degrees = sparse.degrees_up_to(bound)
    vertices = sparse.vertices()
    for k, lam in enumerate(degrees):
        elements = ctx.weight_crystal(lam).elements
        for j in range(0, len(elements), 3):
            v = vertices[(j + k) % len(vertices)]
            b = elements[j]
            if sparse.is_path(v, b, lam):
                sparse.source(KPath(v, b, lam))
    for lam in degrees:
        got = sparse.paths_of_degree(lam)
        want = fresh.paths_of_degree(lam)
        assert got == want
        assert [sparse.source(p) for p in got] == [fresh.source(p) for p in want]


def test_non_elements_are_not_paths(a2_kg):
    omega1 = (1, 0)
    v = wv(a2_kg, 1)
    assert a2_kg.is_path(v, (A1_,), omega1)
    for b in [(A1_, A1_), (), ((9,),), ("a1",)]:
        assert not a2_kg.is_path(v, b, omega1), b
        with pytest.raises(ValueError):
            a2_kg.source(KPath(v, b, omega1))
        with pytest.raises(ValueError):
            a2_kg.path(v, b, omega1)
    # a non-element leaves no row behind, and the valid path still works
    assert a2_kg.source(a2_kg.path(v, (A1_,), omega1)) == wv(a2_kg)


@pytest.mark.parametrize("v, b", [(None, [[1]]), (None, ([1],)), (None, ({1},)),
                                  ([[1]], None), (([1],), None)],
                         ids=["list", "list-factor", "set-factor", "list-vertex",
                              "list-in-vertex"])
def test_unhashable_parts_are_not_paths(a2_kg, v, b):
    # a list or set is no element and no vertex: is_path says False, and
    # path, source, compose and fiber raise ValueError, as for any other
    # non-path or non-vertex
    omega1 = (1, 0)
    p = a2_kg.path(wv(a2_kg, 1), (A1_,), omega1)
    if v is None:
        # a q at the source of p, so that compose reaches its element
        with pytest.raises(ValueError, match=r"is not an element of B\(1, 0\)"):
            a2_kg.compose(p, KPath(a2_kg.source(p), b, omega1))
    else:
        with pytest.raises(ValueError, match="is not a vertex"):
            a2_kg.fiber(v)
        with pytest.raises(ValueError, match="not composable"):
            a2_kg.compose(p, KPath(v, (A1_,), omega1))
    v = wv(a2_kg, 1) if v is None else v
    b = (A1_,) if b is None else b
    assert not a2_kg.is_path(v, b, omega1)
    with pytest.raises(ValueError, match="is not a path of degree"):
        a2_kg.path(v, b, omega1)
    with pytest.raises(ValueError, match="is not a valid path"):
        a2_kg.source(KPath(v, b, omega1))
    assert a2_kg.is_path(wv(a2_kg, 1), (A1_,), omega1)


def test_compose_reads_degrees_and_fiber_names_non_vertices(a2_kg):
    # a degree given as a list is read through ctx.weight, as `path` reads
    # it; a degree of the wrong length and a tuple that is no vertex are
    # refused with a ValueError that names them
    omega1 = (1, 0)
    p = a2_kg.path(wv(a2_kg, 1), (A1_,), omega1)
    q = KPath(a2_kg.source(p), (A1_,), omega1)
    assert a2_kg.compose(p, q._replace(degree=[1, 0])) == a2_kg.compose(p, q)
    with pytest.raises(ValueError, match="rank 2 weights have 2 coordinates"):
        a2_kg.compose(p, q._replace(degree=[1, 0, 0]))
    not_vertex = ((9,), (9,))
    with pytest.raises(ValueError, match=re.escape(f"{not_vertex!r} is not a vertex")):
        a2_kg.fiber(not_vertex)


# the tuples of fundamental elements that are not vertices, times every
# element of every degree up to (1, ..., 1)
SOURCE_SWEEP = {"A2": (Convention.HONG_KANG, 45), "C2": (Convention.OPPOSITE, 260),
                "A3": (Convention.HONG_KANG, 9648)}


@pytest.mark.parametrize("name", SOURCE_SWEEP)
def test_source_refuses_every_non_vertex(name):
    # the end row of b can hold every v_i of a tuple that is not a vertex, so
    # only the vertex check of `is_path` refuses such a tuple
    conv, cases = SOURCE_SWEEP[name]
    ctx = CrystalContext(builtin_datum(name), conv)
    kg = KGraph(ctx)
    vertices = set(kg.vertices())
    swept = 0
    for v in product(*(ctx.fundamental(i).elements for i in ctx.datum.indices)):
        if v in vertices:
            continue
        for d in kg.degrees_up_to((1,) * ctx.datum.rank):
            for b in ctx.weight_crystal(d).elements:
                with pytest.raises(ValueError, match="is not a valid path"):
                    kg.source(KPath(v, b, d))
                swept += 1
    assert swept == cases
    assert not kg._sources


@pytest.mark.parametrize("degree", [(1, 0, 5), (1,)], ids=str)
def test_paths_refuse_degrees_of_the_wrong_rank(a2_kg, degree):
    v = wv(a2_kg, 1)
    assert a2_kg.is_path(v, (A1_,), (1, 0))
    for call in (a2_kg.is_path, a2_kg.path):
        with pytest.raises(ValueError, match="rank 2 weights have 2 coordinates"):
            call(v, (A1_,), degree)
    with pytest.raises(ValueError, match="rank 2 weights have 2 coordinates"):
        a2_kg.source(KPath(v, (A1_,), degree))
    with pytest.raises(ValueError, match="rank 2 weights have 2 coordinates"):
        a2_kg.paths_of_degree(degree)


# ROADMAP item 2: `_row` tests x (x) b for membership before it reads chain 1.
# Chains 2..n of x (x) b are the chains of b, which never give 0 for b in
# B(lam), so chain 1 alone decides; the entries are the same under both
# conventions, and so is the number of them in the Cartan component
ROW_ORACLE_BOUNDS = {"A2": ((2, 2), (504, 300)), "C2": ((2, 2), (1854, 865)),
                     "A3": ((1, 1, 1), (1876, 1093)), "A4": ((1, 0, 0, 1), (1050, 768))}


@pytest.mark.parametrize("name,conv", [(name, conv) for name in ROW_ORACLE_BOUNDS
                                       for conv in Convention])
def test_row_membership_is_decided_by_chain_one(name, conv):
    from crystalgraphs import in_cartan_component, right_end_chain
    ctx = CrystalContext(builtin_datum(name), conv)
    bound, counts = ROW_ORACLE_BOUNDS[name]
    checked = members = 0
    for lam in product(*(range(k + 1) for k in bound)):
        lam_funds = ctx.fundamental_indices(lam)
        for b in ctx.weight_crystal(lam).elements:
            for i in ctx.datum.indices:
                funds = (i,) + lam_funds
                for x in ctx.fundamental(i).elements:
                    elem = (x,) + b
                    member = in_cartan_component(ctx, funds, elem)
                    assert member == (right_end_chain(ctx, funds, elem, 1)
                                      is not None), (lam, i, x, b)
                    checked += 1
                    members += member
    assert (checked, members) == counts


def test_weyl_vertex_map_is_built_once(a2):
    from crystalgraphs import embed_right_weak
    kg = KGraph(a2)
    vertices = kg.weyl_vertices
    assert kg.weyl_vertices is vertices
    assert vertices == {w: kg.weyl_vertex(w) for w in kg.weyl_group}
    for w, v in vertices.items():
        assert kg.weyl_label(v) == w
    # an embedding holds its own copy: changing it leaves the cache alone
    emb = embed_right_weak(kg)
    emb.vertex_map.clear()
    assert kg.weyl_vertices == {w: kg.weyl_vertex(w) for w in kg.weyl_group}
    assert kg.skeleton() is kg.skeleton()


# -- what a k-graph keeps ---------------------------------------------------------

def _fibers_by_right_ends(ctx):
    """The independent route: B(rho) grouped by `right_end_tuple`, per vertex
    in element order."""
    from crystalgraphs import right_end_tuple
    groups = {}
    for c in ctx.rho_crystal().elements:
        groups.setdefault(right_end_tuple(ctx, c), []).append(c)
    return {v: tuple(cs) for v, cs in groups.items()}


@pytest.mark.parametrize("name,conv", [(name, conv) for name in ("A2", "A3", "A4", "A5", "C2")
                                       for conv in Convention])
def test_fibers_match_grouping_by_right_ends(name, conv):
    ctx = CrystalContext(builtin_datum(name), conv)
    kg = KGraph(ctx)
    expected = _fibers_by_right_ends(ctx)
    assert kg.vertices() == tuple(sorted(expected, key=str))
    assert {v: kg.fiber(v) for v in kg.vertices()} == expected


@pytest.mark.parametrize("name", ["A2", "C2"])
def test_kgraph_keeps_no_rho(monkeypatch, name):
    import gc
    import weakref
    from crystalgraphs import kgraph
    from crystalgraphs.crystal import tensor_component
    built = []

    def recording(*args, **kwargs):
        crystal = tensor_component(*args, **kwargs)
        built.append(weakref.ref(crystal))
        return crystal

    monkeypatch.setattr(kgraph, "tensor_component", recording)
    ctx = CrystalContext(builtin_datum(name))
    rho_funds = ctx.fundamental_indices(ctx.rho)
    gc.disable()  # the crystal must be freed by reference counting alone
    try:
        kg = KGraph(ctx)
    finally:
        gc.enable()
    assert len(built) == 1 and built[0]() is None
    assert rho_funds not in ctx._components
    kg.skeleton()
    for i in ctx.datum.indices:
        kg.paths_of_degree(ctx.datum.fundamental_weight(i))
    assert rho_funds not in ctx._components
    # the fibers read B(rho) through the context, which keeps it
    kg.fiber(kg.vertices()[0])
    assert rho_funds in ctx._components and len(built) == 1


def test_right_ends_run_once_per_element(monkeypatch):
    from crystalgraphs import kgraph, rightends
    seen = []

    def counting(ctx, elem):
        seen.append(elem)
        return rightends.right_end_tuple(ctx, elem)

    monkeypatch.setattr(kgraph, "right_end_tuple", counting)
    ctx = CrystalContext(builtin_datum("A3"))
    kg = KGraph(ctx)
    for v in kg.vertices():
        kg.fiber(v)
    elements = ctx.rho_crystal().elements
    assert sorted(seen) == sorted(elements) and len(seen) == len(elements)


def test_fiber_refuses_a_crystal_of_another_size(monkeypatch):
    ctx = CrystalContext(builtin_datum("A2"))
    kg = KGraph(ctx)
    monkeypatch.setattr(ctx, "rho_crystal", lambda: ctx.weight_crystal((1, 0)))
    with pytest.raises(RuntimeError, match="3 elements, but 8"):
        kg.fiber(kg.vertices()[0])


@pytest.mark.parametrize("name,conv,bound", [("A2", Convention.HONG_KANG, (2, 2)),
                                             ("C2", Convention.OPPOSITE, (2, 2)),
                                             ("A3", Convention.HONG_KANG, (1, 1, 1))])
def test_range_index_lists_the_paths_in_enumeration_order(name, conv, bound):
    # the composition pass of `kgraph-axioms` reads the paths this way
    kg = KGraph(CrystalContext(builtin_datum(name), conv))
    paths = kg.enumerate_paths(bound)
    indexed = [entry for d in kg.degrees_up_to(bound)
               for run in kg._paths_by_range(d).values() for entry in run]
    assert [p for p, _, _ in indexed] == list(paths)
    for p, ip, sp in indexed:
        assert kg.ctx.weight_crystal(p.degree).elements[ip] == p.element
        assert sp == kg.source(p)
