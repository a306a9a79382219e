"""Acceptance criteria, one test per criterion, each printing a status line.

Everything here is exact: the objects are finite and small, so every check
is an equality or an exhaustive enumeration with zero tolerance.
"""

import time

from crystalgraphs import (CrystalContext, KGraph, braid_columns, braiding_at,
                           builtin_datum, count_weak_embeddings, embed_bruhat,
                           enumerate_compatible_colorings, fixtures,
                           from_crystal, left_key, right_end_tuple,
                           right_ends_via_slides, right_key, Tableau,
                           enumerate_ssyt, is_key)
from crystalgraphs.verify import run_suite


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{status}] {description}")
    assert ok, f"criterion {num} failed: {description} {detail}"


def test_criterion_01_a2_vertices(a2_kg):
    labels = [a2_kg.weyl_label(v) for v in a2_kg.vertices()]
    ok = (len(a2_kg.vertices()) == 6
          and all(w is not None for w in labels)
          and len(set(labels)) == 6)
    _report(1, "A2 vertex set has 6 elements, in bijection with S3", ok)


def test_criterion_02_a2_skeleton(a2_kg):
    W = a2_kg.weyl_group
    fx = fixtures.load("a2_skeleton.json")
    expected = {}
    for row in fx["edges"]:
        key = (a2_kg.weyl_vertex(W.element_from_word(row["src"])),
               a2_kg.weyl_vertex(W.element_from_word(row["dst"])), row["color"])
        expected[key] = expected.get(key, 0) + 1
    for v in a2_kg.vertices():
        for i in (1, 2):
            expected[(v, v, i)] = expected.get((v, v, i), 0) + 1
    got = a2_kg.skeleton().edge_multiset()
    _report(2, "A2 skeleton equals the reference edges plus one loop per color",
            got == expected)


def test_criterion_03_a2_braiding(a2):
    table = a2.braiding(1, 2)
    w1, w2 = a2.fundamental(1), a2.fundamental(2)
    fx = fixtures.load("a2_braiding.json")
    ok = len(table) == 9
    for row in fx["pairs"]:
        pair = fixtures.as_pair(row["in"])
        expected = None if row["out"] is None else fixtures.as_pair(row["out"])
        ok = ok and braiding_at(w1, w2, table, pair) == expected
        ok = ok and braid_columns(*pair) == expected
    _report(3, "A2 braiding table reproduced by the crystal and slide routes", ok)


def test_criterion_04_a2_right_ends(a2):
    fx = fixtures.load("a2_right_ends.json")
    ok = len(a2.rho_crystal()) == 8
    for row in fx["rows"]:
        elem = fixtures.as_pair(row["element"])
        ends = fixtures.as_pair(row["ends"])
        ok = ok and right_end_tuple(a2, elem) == ends
        tab = from_crystal(elem)
        ok = ok and right_ends_via_slides(tab) == tuple(reversed(ends))
        ok = ok and left_key(tab).columns == tuple(reversed(ends))
    _report(4, "A2 right ends by braiding chain, slides, and left-key columns", ok)


def test_criterion_05_a2_red_edges(a2_kg):
    W = a2_kg.weyl_group
    fx = fixtures.load("a2_red_edges.json")
    omega1 = (1, 0)
    ok = len(fx["rows"]) == 12
    listed = set()
    for row in fx["rows"]:
        v = a2_kg.weyl_vertex(W.element_from_word(row["range"]))
        p = a2_kg.path(v, (fixtures.as_column(row["element"]),), omega1)
        listed.add((p.vertex, p.element))
        src = a2_kg.weyl_vertex(W.element_from_word(row["source"]))
        ok = ok and a2_kg.source(p) == src
    actual = {(p.vertex, p.element) for p in a2_kg.paths_of_degree(omega1)}
    ok = ok and listed == actual
    _report(5, "A2: the 12 degree-w1 sources match and exhaust the red edges", ok)


def test_criterion_06_weak_embedding_counts(a2_kg, c2_kg):
    counts = (count_weak_embeddings(a2_kg, "right"),
              count_weak_embeddings(c2_kg, "right"),
              count_weak_embeddings(a2_kg, "left"))
    _report(6, "right weak embeddings: A2 = 1, C2 = 1; left weak A2 = 0",
            counts == (1, 1, 0), detail=str(counts))


def test_criterion_07_bruhat_embeddings(a2_kg, c2_kg):
    ok = True
    detail = []
    for kg in (a2_kg, c2_kg):
        colorings = enumerate_compatible_colorings(kg, (1, 1))
        detail.append(len(colorings))
        for coloring in colorings:
            try:
                embed_bruhat(kg, coloring)
            except ValueError as exc:
                ok = False
                detail.append(str(exc))
                break
    _report(7, "every (1,1)-bounded compatible coloring embeds the Bruhat graph",
            ok, detail=str(detail))


def test_criterion_08_kgraph_axioms():
    reports = [run_suite("kgraph-axioms", algebra=name, degree_bound=(1, 1))
               for name in ("A2", "C2")]
    ok = all(r.ok for r in reports)
    _report(8, "unique factorization and associativity at degree (1,1), A2 and C2",
            ok, detail=str([r.failures[:3] for r in reports]))


def test_criterion_09_order_compatibility(a2_kg, c2_kg):
    ok = True
    for kg in (a2_kg, c2_kg):
        for p in kg.enumerate_paths((1, 1)):
            ok = ok and kg.vertex_leq(kg.range(p), kg.source(p))
    _report(9, "r(e) <= s(e) for every enumerated path in A2 and C2", ok)


def test_criterion_10_c2_fixtures():
    report = run_suite("c2-fixtures")
    ok = report.ok
    _report(10, "C2 opposite-convention tables: crystal graph, braiding, "
                "right ends, starred vertices, key agreement",
            ok, detail=str(report.failures[:5]))


def test_criterion_11_keys_example():
    fx = fixtures.load("example_keys.json")
    tab = Tableau(fx["tableau"])
    ok = (left_key(tab) == Tableau(fx["left_key"])
          and right_key(tab) == Tableau(fx["right_key"]))
    census = enumerate_ssyt((2, 1), 4)
    for t in census:
        kl, kr = left_key(t), right_key(t)
        ok = ok and left_key(kl) == kl and right_key(kr) == kr
        ok = ok and is_key(kl) and is_key(kr)
    _report(11, "worked key example and key fixed points on the (2,1) census", ok)


def test_criterion_12_lemma_suite():
    report = run_suite("lemmas")
    _report(12, "lemma suite over A2 and C2 with fundamental and rho colors",
            report.ok, detail=str(report.failures[:5]))


def test_criterion_13_a3_scaling():
    start = time.time()
    ctx = CrystalContext(builtin_datum("A3"))
    kg = KGraph(ctx)
    ok = len(kg.vertices()) == 24
    labels = [kg.weyl_label(v) for v in kg.vertices()]
    ok = ok and all(w is not None for w in labels) and len(set(labels)) == 24
    for b in ctx.rho_crystal().elements:
        ends = right_end_tuple(ctx, b)
        ok = ok and left_key(from_crystal(b)).columns == tuple(reversed(ends))
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    _report(13, "A3: key/right-end equivalence and 24 = |S4| vertices "
                f"({elapsed:.1f}s)", ok)
