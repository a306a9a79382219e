"""Named verification suites: exhaustive desk-scale checks with JSON reports.

Every suite returns a report with an instance count and a list of failure
messages; an empty failure list is the pass condition.  The suites back the
`verify` CLI command and the acceptance tests.
"""

from __future__ import annotations

import math
import sys
from itertools import product as iterproduct

from . import fixtures
from .crystal import (Convention, CrystalContext, as_convention, braiding_at,
                      cartan_braiding, check_crystal_size, extremal_element,
                      tensor, weyl_action)
from .embeddings import (check_bruhat_colorings, count_weak_embeddings,
                         embed_bruhat, embed_right_weak,
                         enumerate_compatible_colorings)
from .kgraph import KGraph, KPath
from .rightends import (apply_plan, braid_plan, chain_ends,
                        in_cartan_component, right_end_chain, right_end_tuple)
from .rootdata import builtin_datum, resolve_datum, type_a_cartan
from .tableaux import (SkewTableau, Tableau, braid_columns, enumerate_ssyt,
                       from_crystal, is_key, left_key, right_ends_via_slides,
                       right_key)


class Report:
    def __init__(self, suite: str, instances_checked: int = 0,
                 failures: list[str] | None = None, details: dict | None = None):
        self.suite = suite
        self.instances_checked = instances_checked
        self.failures = [] if failures is None else failures
        self.details = {} if details is None else details

    def _fields(self) -> tuple:
        return self.suite, self.instances_checked, self.failures, self.details

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self) -> str:
        return ("Report(suite=%r, instances_checked=%r, failures=%r, details=%r)"
                % self._fields())

    def check(self, ok: bool, fmt: str, *args) -> None:
        """Count one check; on failure record `fmt % args` (`fmt` if no args).

        The message is formatted only when the check fails, as in `logging`,
        so passing checks never build the reprs of their arguments.
        """
        self.instances_checked += 1
        if not ok:
            self.failures.append(fmt % args if args else fmt)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "instances_checked": self.instances_checked,
            "failures": list(self.failures),
            "details": dict(self.details),
        }


def json_count(n: int):
    """A nonnegative count as JSON: the integer itself while its decimal form
    fits the interpreter's int-to-str limit, else its exact hexadecimal form
    (exempt from the limit; ``int(value["hex"], 16)`` gives n back) and its
    log10."""
    # the limit exists from Python 3.10.7 on; 0 means no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or n < 10 ** limit:
        return n
    return {"hex": hex(n), "log10": math.log10(n)}


def _lambdas(ctx) -> list:
    out = [ctx.datum.fundamental_weight(i) for i in ctx.datum.indices]
    out.append(ctx.datum.rho())
    return out


# -- fixture suites -----------------------------------------------------------


def _check_right_ends(rep: Report, ctx: CrystalContext, rows) -> None:
    """One check per fixture row: the right-end tuple of its element."""
    for row in rows:
        elem = fixtures.as_pair(row["element"])
        ends = fixtures.as_pair(row["ends"])
        got = right_end_tuple(ctx, elem)
        rep.check(got == ends,
                  "right ends of %s = %s, expected %s", elem, got, ends)


def suite_a2_fixtures() -> Report:
    rep = Report("a2-fixtures")
    ctx = CrystalContext(builtin_datum("A2"))
    kg = KGraph(ctx)
    W = kg.weyl_group

    # braiding table on B(w1) (x) B(w2)
    table = ctx.braiding(1, 2)
    w1, w2 = ctx.fundamental(1), ctx.fundamental(2)
    fx = fixtures.load("a2_braiding.json")
    for row in fx["pairs"]:
        pair = fixtures.as_pair(row["in"])
        expected = None if row["out"] is None else fixtures.as_pair(row["out"])
        got = braiding_at(w1, w2, table, pair)
        rep.check(got == expected,
                  "braiding(%s) = %s, expected %s", pair, got, expected)
    rep.check(len(table) == len(fx["pairs"]),
              "braiding table size differs from the nine listed pairs")

    # the same table through two-column slides
    jdt = fixtures.load("a2_jdt.json")
    for row in jdt["slides"]:
        straight = SkewTableau.from_rows(row["in"])
        moved = straight.reverse_slide((1, 1))
        rep.check(moved.rows_with_holes() == row["out"],
                  "slide of %s gave %s", row['in'], moved.rows_with_holes())
        cols = straight.columns()
        pair = (cols[1], cols[0])
        left, right = moved.columns()
        rep.check(braid_columns(*pair) == (right, left)
                  == braiding_at(w1, w2, table, pair),
                  "column braiding disagrees at %s", pair)
    rep.check(braid_columns((1,), (2, 3)) is None
              and braiding_at(w1, w2, table, ((1,), (2, 3))) is None,
              "the zero value of the braiding is missing")

    # right ends of B(rho)
    fx = fixtures.load("a2_right_ends.json")
    _check_right_ends(rep, ctx, fx["rows"])
    rep.check(len(ctx.rho_crystal()) == len(fx["rows"]),
              "B(rho) has a different size than the eight listed elements")

    # vertices and the Weyl bijection
    rep.check(len(kg.vertices()) == 6,
              "vertex count %s != 6", len(kg.vertices()))
    labels = [kg.weyl_label(v) for v in kg.vertices()]
    rep.check(all(w is not None for w in labels) and len(set(labels)) == 6,
              "vertices are not in bijection with the Weyl group")

    # skeleton edge multiset: the drawn edges plus one loop per color and vertex
    fx = fixtures.load("a2_skeleton.json")
    expected: dict = {}
    for row in fx["edges"]:
        key = (kg.weyl_vertex(W.element_from_word(row["src"])),
               kg.weyl_vertex(W.element_from_word(row["dst"])), row["color"])
        expected[key] = expected.get(key, 0) + 1
    for v in kg.vertices():
        for i in ctx.datum.indices:
            expected[(v, v, i)] = expected.get((v, v, i), 0) + 1
    got = kg.skeleton().edge_multiset()
    rep.check(got == expected, "skeleton edge multiset differs from the fixture")

    # the twelve degree-w1 paths and their sources
    fx = fixtures.load("a2_red_edges.json")
    omega1 = ctx.datum.fundamental_weight(1)
    listed = set()
    for row in fx["rows"]:
        v = kg.weyl_vertex(W.element_from_word(row["range"]))
        elem = (fixtures.as_column(row["element"]),)
        p = kg.path(v, elem, omega1)
        listed.add((p.vertex, p.element))
        src = kg.weyl_vertex(W.element_from_word(row["source"]))
        rep.check(kg.source(p) == src,
                  "source of (%s, %s) is not %s",
                  row['range'], row['element'], row['source'])
    actual = {(p.vertex, p.element) for p in kg.paths_of_degree(omega1)}
    rep.check(listed == actual and len(fx["rows"]) == 12,
              "the twelve listed paths do not exhaust the degree-w1 paths")
    return rep


def suite_c2_fixtures() -> Report:
    rep = Report("c2-fixtures")
    ctx = CrystalContext(builtin_datum("C2"), Convention.OPPOSITE)
    kg = KGraph(ctx)
    W = kg.weyl_group
    rho = ctx.rho_crystal()

    # the 16-node crystal graph of B(rho)
    fx = fixtures.load("c2_crystal.json")
    nodes = [fixtures.as_pair(e) for row in fx["rows"] for e in row]
    rep.check(set(rho.elements) == set(nodes) and len(rho) == 16,
              "B(rho) elements differ from the sixteen listed nodes")
    edge_count = 0
    for i in ctx.datum.indices:
        edge_count += sum(1 for b in rho.elements if rho.f(i, b) is not None)
    for row in fx["edges"]:
        src = fixtures.as_pair(row["src"])
        dst = fixtures.as_pair(row["dst"])
        got = rho.f(row["color"], src)
        rep.check(got == dst,
                  "lowering %s at %s gave %s, not %s",
                  row['color'], src, got, dst)
    rep.check(edge_count == len(fx["edges"]),
              "B(rho) has %s lowering edges, expected %s",
              edge_count, len(fx['edges']))

    # braiding table, including the implicit zeros
    table = ctx.braiding(1, 2)
    fx = fixtures.load("c2_braiding.json")
    nonzero = {}
    for row in fx["pairs"]:
        nonzero[fixtures.as_pair(row["in"])] = fixtures.as_pair(row["out"])
    w1, w2 = ctx.fundamental(1), ctx.fundamental(2)
    for pair in iterproduct(w1.elements, w2.elements):
        value = braiding_at(w1, w2, table, pair)
        expected = nonzero.get(pair)
        rep.check(value == expected,
                  "braiding(%s) = %s, expected %s", pair, value, expected)

    # right ends display
    _check_right_ends(rep, ctx, fixtures.load("c2_right_ends.json")["rows"])

    # ten vertices, eight of them Weyl, two starred
    fx = fixtures.load("c2_weyl_vertices.json")
    rep.check(len(kg.vertices()) == 10,
              "vertex count %s != 10", len(kg.vertices()))
    starred = 0
    for row in fx["rows"]:
        v = fixtures.as_pair(row["vertex"])
        label = kg.weyl_label(v)
        if row["label"] is None:
            starred += 1
            rep.check(label is None,
                      "vertex %s should be outside the Weyl image", v)
        else:
            rep.check(label == W.element_from_word(row["label"]),
                      "vertex %s has label %s, expected %s",
                      v, label, row['label'])
    rep.check(starred == 2 and len(fx["rows"]) == 10,
              "expected exactly two starred vertices among ten")

    # wherever the right end is extremal it matches the printed right key
    fx = fixtures.load("c2_right_keys.json")
    agreements = 0
    for row in fx["rows"]:
        elem = fixtures.as_pair(row["element"])
        label = kg.weyl_label(right_end_tuple(ctx, elem))
        if label is not None:
            agreements += 1
            rep.check(label == W.element_from_word(row["key"]),
                      "right end of %s is %s, key says %s",
                      elem, label, row['key'])
    rep.details["extremal_key_agreements"] = agreements
    return rep


# -- structural suites -----------------------------------------------------------


def _context(algebra: str, convention) -> CrystalContext:
    return CrystalContext(resolve_datum(algebra), convention)


def _degree_bound(ctx: CrystalContext, degree_bound,
                  composed: int = 1) -> tuple[int, ...]:
    """The componentwise degree bound, all 1s by default; checked against the rank.

    A suite that composes up to `composed` paths builds B(composed * bound)
    at most, so that size is checked before anything is built; B(rho) is
    checked when the k-graph asks for it.
    """
    bound = ctx.weight(degree_bound or (1,) * ctx.datum.rank).coords
    if any(b < 0 for b in bound):
        raise ValueError(f"degree bound {bound} has a negative entry")
    check_crystal_size(ctx.datum, ctx.weight([composed * b for b in bound]))
    return bound


def suite_kgraph_axioms(algebra: str = "A2", convention="hong-kang",
                        degree_bound=None) -> Report:
    rep = Report("kgraph-axioms")
    ctx = _context(algebra, convention)
    bound = _degree_bound(ctx, degree_bound, composed=3)  # associativity
    kg = KGraph(ctx)
    paths = kg.enumerate_paths(bound)
    rep.details["paths"] = len(paths)

    # paths run down the crystal order, r(p) <= s(p), under hong-kang; the
    # opposite convention mirrors the tensor rule and they run up instead
    if ctx.convention is Convention.HONG_KANG:
        for p in paths:
            rep.check(kg.vertex_leq(kg.range(p), kg.source(p)),
                      "range of %s is not below its source", p)
    else:
        for p in paths:
            rep.check(kg.vertex_leq(kg.source(p), kg.range(p)),
                      "source of %s is not below its range", p)

    # representative independence of the path test and the source
    lam_list = kg.degrees_up_to(bound)
    rho_funds = ctx.rho_indices
    for v in kg.vertices():
        for c in kg.fiber(v):
            for d in lam_list:
                lam = ctx.weight(d)
                funds = rho_funds + ctx.fundamental_indices(lam)
                for b in ctx.weight_crystal(lam).elements:
                    ends = chain_ends(ctx, funds, c + b)
                    member = ends is not None
                    is_path = kg.is_path(v, b, lam)
                    rep.check(member == is_path,
                              "path test at %s depends on the representative "
                              "%s", v, c)
                    if member and is_path:
                        p = KPath(v, b, lam.coords)
                        rep.check(ends[:len(rho_funds)] == kg.source(p),
                                  "source of %s depends on the representative "
                                  "%s", p, c)

    # unique factorization for every split of every enumerated path
    for p in paths:
        degree = p.degree
        splits = iterproduct(*[range(x + 1) for x in degree])
        for m in splits:
            n = tuple(a - b for a, b in zip(degree, m))
            try:
                kg.factorization_check(p, m, n)
                rep.check(True, "")
            except ValueError as exc:
                rep.check(False, "factorization %s+%s of %s: %s", m, n, p, exc)

    # composition in one pass: additivity and endpoints of every composable
    # pair, associativity of every composable triple as equal positions in
    # B(deg p + deg q + deg r), read from the product tables; the paths come
    # degree by degree, with the positions and sources that the k-graph's
    # index by range vertex holds
    product, table = kg._product, kg._product_table
    by_range = [kg._paths_by_range(d) for d in lam_list]
    indexed = [entry for index in by_range for run in index.values() for entry in run]
    by_source: dict = {}  # source -> degree -> [(p, position)], in path order
    for p, ip, sp in indexed:
        by_source.setdefault(sp, {}).setdefault(p.degree, []).append((p, ip))
    for q, iq, sq in indexed:
        # the r after q, in runs of one degree: a run shares the tables of
        # (pq) r and of p (qr)
        runs = []
        for index in by_range:
            rs = index.get(sq)
            if rs:
                r_degree = rs[0][0].degree
                qr = table(q.degree, r_degree)
                runs.append((r_degree, qr.degree,
                             [(r, ir, product(qr, iq, ir)) for r, ir, _ in rs]))
        # the p before q, in runs of one degree: a run shares the table of
        # p q and, per run of r, the tables of (pq) r and of p (qr)
        for p_degree, run_p in by_source.get(q.vertex, {}).items():
            pq_table = table(p_degree, q.degree)
            triples = [(table(pq_table.degree, r_degree), table(p_degree, qr_degree), run)
                       for r_degree, qr_degree, run in runs]
            for p, ip in run_p:
                pq = kg.compose(p, q)
                rep.check(pq.degree == tuple(a + b for a, b in zip(p.degree, q.degree)),
                          "degree of %s * %s is not additive", p, q)
                spq = kg.source(pq)
                rep.check(pq.vertex == p.vertex and spq == sq,
                          "endpoints of %s * %s are wrong", p, q)
                if runs and spq != sq:
                    raise ValueError("paths are not composable: source(p) != range(q)")
                ipq = product(pq_table, ip, iq)
                for left, right, run in triples:
                    lslots, lrow = left.slots, ipq * left.width
                    rslots, rrow = right.slots, ip * right.width
                    for r, ir, iqr in run:
                        t = lslots[lrow + ir]
                        u = rslots[rrow + iqr]
                        if t < 0 or u < 0:   # OFF: `product` raises on it
                            product(left, ipq, ir)
                            product(right, ip, iqr)
                        rep.check(t == u, "associativity fails on %s, %s, %s",
                                  p, q, r)
    return rep


def suite_embeddings(algebra: str = "A2", convention="hong-kang",
                     degree_bound=None) -> Report:
    if as_convention(convention) is not Convention.HONG_KANG:
        raise ValueError("the embeddings suite needs the hong-kang "
                         "convention: its extremal paths and its weak "
                         "embedding follow that convention's direction")
    rep = Report("embeddings")
    ctx = _context(algebra, convention)
    bound = _degree_bound(ctx, degree_bound)
    kg = KGraph(ctx)

    try:
        emb = embed_right_weak(kg)
        rep.check(True, "")
        rep.details["right_weak_edges"] = len(emb.edge_map)
    except ValueError as exc:
        rep.check(False, "right weak embedding failed validation: %s", exc)

    right_count = count_weak_embeddings(kg, side="right")
    rep.check(right_count == 1,
              "found %s right weak embeddings, expected exactly 1",
              right_count)
    left_count = count_weak_embeddings(kg, side="left")
    rep.details["left_weak_embeddings"] = left_count
    if ctx.datum.rank == 1:
        rep.check(left_count == 1,
                  "rank one should give 1, found %s", left_count)
    elif ctx.datum.cartan == type_a_cartan(2):
        rep.check(left_count == 0,
                  "found %s left weak embeddings for A2, expected 0",
                  left_count)

    # every compatible coloring embeds: one pass over the (edge, color)
    # pairs, with the first coloring embedded whole as a witness
    colorings = enumerate_compatible_colorings(kg, bound)
    rep.details["compatible_colorings"] = json_count(colorings.count)
    rep.details["bruhat_edge_colors"] = sum(map(len, colorings.pools))
    if colorings.count:
        try:
            embed_bruhat(kg, next(iter(colorings)))
            rep.check(True, "")
        except ValueError as exc:
            rep.check(False, "Bruhat embedding failed: %s", exc)
    check_bruhat_colorings(kg, colorings, rep.check)

    # skeleton edges defined by extremal elements of comparable pairs:
    # guaranteed to exhaust the skeleton only when the fundamental crystals
    # are minuscule (A2), so elsewhere the fraction is recorded, not asserted
    W = kg.weyl_group
    extremal_edges = 0
    total_edges = 0
    for i in ctx.datum.indices:
        fund = kg.ctx.fundamental(i)
        extremal: dict = {}
        for w in W:
            extremal.setdefault(extremal_element(fund, w), []).append(w)
        omega = ctx.datum.fundamental_weight(i)
        for p in kg.paths_of_degree(omega):
            total_edges += 1
            w = kg.weyl_label(p.vertex)
            reps = extremal.get(p.element[0], ())
            if w is not None and any(W.bruhat_leq(w2, w) for w2 in reps):
                extremal_edges += 1
    rep.details["extremal_skeleton_edges"] = [extremal_edges, total_edges]
    if ctx.datum.cartan == type_a_cartan(2):
        rep.check(extremal_edges == total_edges,
                  "an A2 skeleton edge is not an extremal comparable pair")
    return rep


def suite_keys() -> Report:
    rep = Report("keys")

    # the worked three-column example, stage by stage
    fx = fixtures.load("example_keys.json")
    tab = Tableau(fx["tableau"])
    rep.check(left_key(tab) == Tableau(fx["left_key"]),
              "left key of %s is %s", tab, left_key(tab))
    rep.check(right_key(tab) == Tableau(fx["right_key"]),
              "right key of %s is %s", tab, right_key(tab))
    for swaps, stages in ((fx["upper_swaps"], fx["stages"]["upper"]),
                          (fx["lower_swaps"], fx["stages"]["lower"])):
        cols = list(tab.columns)
        for (a, _b), rows in zip(swaps, stages):
            pos = a - 1
            x, y = cols[pos + 1], cols[pos]
            out = braid_columns(x, y)
            rep.check(out is not None, "swap at %s unexpectedly hit zero", a)
            cols[pos], cols[pos + 1] = out[1], out[0]
            skew = SkewTableau.from_columns(cols)
            rep.check(skew.rows_with_holes() == rows,
                      "stage after swap at %s is %s",
                      a, skew.rows_with_holes())
            rect = skew.rectify()
            rep.check(sorted(rect.column_lengths()) == sorted(len(c) for c in cols),
                      "stage after swap at %s is not frank", a)
            rep.check(rect == tab,
                      "stage after swap at %s rectifies to %s", a, rect)

    # keys are the fixed points of the key maps (A3 entries, shape (2, 1))
    census = enumerate_ssyt((2, 1), 4)
    rep.details["census_size"] = len(census)
    for t in census:
        kl, kr = left_key(t), right_key(t)
        rep.check(is_key(kl) and left_key(kl) == kl,
                  "left key of %s is not a key fixed point", t)
        rep.check(is_key(kr) and right_key(kr) == kr,
                  "right key of %s is not a key fixed point", t)
        rep.check((kl == t) == is_key(t) and (kr == t) == is_key(t),
                  "%s disagrees with the key characterization", t)

    # right ends equal left-key columns on B(rho), and count the Weyl group
    for name in ("A2", "A3"):
        ctx = CrystalContext(builtin_datum(name))
        r = ctx.datum.rank
        keys_seen = set()
        for b in ctx.rho_crystal().elements:
            tab = from_crystal(b)
            kl = left_key(tab)
            keys_seen.add(kl)
            ends = right_end_tuple(ctx, b)
            slid = right_ends_via_slides(tab)
            rep.check(slid == kl.columns,
                      "%s: slide ends of %s differ from the left key",
                      name, tab)
            rep.check(tuple(reversed(ends)) == slid,
                      "%s: right ends of %s differ from the left-key columns",
                      name, b)
        order = math.factorial(r + 1)
        rep.check(len(keys_seen) == order,
                  "%s: %s distinct keys, expected %s",
                  name, len(keys_seen), order)
        rep.details[f"{name}_distinct_keys"] = len(keys_seen)
    return rep


def suite_lemmas() -> Report:
    rep = Report("lemmas")
    for name in ("A2", "C2"):
        ctx = CrystalContext(builtin_datum(name))
        datum = ctx.datum
        kg = KGraph(ctx)
        W = kg.weyl_group
        lambdas = _lambdas(ctx)
        crystals = {lam: ctx.weight_crystal(lam) for lam in lambdas}
        ext = {lam: {w: extremal_element(crystals[lam], w) for w in W}
               for lam in lambdas}

        def longer(i, w):
            return W.multiply(W.simple(i), w).length > w.length

        # string lengths at extremal elements
        for lam in lambdas:
            B = crystals[lam]
            for w in W:
                b = ext[lam][w]
                for i in datum.indices:
                    if longer(i, w):
                        rep.check(B.epsilon(i, b) == 0,
                                  "%s: epsilon_%s at %s, %s is nonzero",
                                  name, i, w, lam)
                    else:
                        rep.check(B.phi(i, b) == 0,
                                  "%s: phi_%s at %s, %s is nonzero",
                                  name, i, w, lam)

        # lowering powers on pairs of extremal elements
        pair_product = {}
        for lam in lambdas:
            for lam2 in lambdas:
                pair_product[(lam, lam2)] = tensor(
                    (crystals[lam], crystals[lam2]), ctx.convention)
        for lam, lam2 in iterproduct(lambdas, lambdas):
            P = pair_product[(lam, lam2)]
            B1, B2 = crystals[lam], crystals[lam2]
            for w, w2 in iterproduct(W, W):
                for i in datum.indices:
                    if not (longer(i, w) and longer(i, w2)):
                        continue
                    b, b2 = ext[lam][w], ext[lam2][w2]
                    n = datum.pairing(B1.wt(b), i)
                    n2 = datum.pairing(B2.wt(b2), i)
                    cur = (b, b2)
                    fb = b
                    for k in range(1, n + 1):
                        cur = P.f(i, cur)
                        fb = B1.f(i, fb)
                        rep.check(cur == (fb, b2),
                                  "%s: power %s of lowering %s strays from "
                                  "the first factor at %s, %s",
                                  name, k, i, w, w2)
                    rep.check(cur == (weyl_action(B1, i, b), b2),
                              "%s: reflection power mismatch at %s, %s, %s",
                              name, w, w2, i)
                    fb2 = b2
                    for k in range(n + 1, n + n2 + 1):
                        cur = P.f(i, cur)
                        fb2 = B2.f(i, fb2)
                        rep.check(cur == (fb, fb2),
                                  "%s: power %s of lowering %s strays from "
                                  "the second factor at %s, %s",
                                  name, k, i, w, w2)
                    rep.check(weyl_action(P, i, (b, b2))
                              == (weyl_action(B1, i, b), weyl_action(B2, i, b2)),
                              "%s: reflection is not diagonal at %s, %s, %s",
                              name, w, w2, i)

        # Bruhat-comparable pairs land in the Cartan component
        for lam, lam2 in iterproduct(lambdas, lambdas):
            funds = ctx.fundamental_indices(lam) + ctx.fundamental_indices(lam2)
            for w, w2 in iterproduct(W, W):
                if W.bruhat_leq(w2, w):
                    elem = ext[lam][w] + ext[lam2][w2]
                    rep.check(in_cartan_component(ctx, funds, elem),
                              "%s: %s >= %s pair left the Cartan component",
                              name, w, w2)

        # and hence (vertex of w, extremal of w') is a path for every color
        for lam in lambdas:
            for w, w2 in iterproduct(W, W):
                if W.bruhat_leq(w2, w):
                    rep.check(kg.is_path(kg.weyl_vertex(w), ext[lam][w2], lam),
                              "%s: (%s, %s) is not a path of color %s",
                              name, w, w2, lam)

        # right ends across a reflection edge
        refl = W.reflection_roots()
        for w in W:
            for t, gamma in refl.items():
                wt_ = W.multiply(w, t)
                if wt_.length <= w.length:
                    continue
                for lam in lambdas:
                    lam_funds = ctx.fundamental_indices(lam)
                    b = ext[lam][w]
                    for i in datum.indices:
                        if (i not in datum.supp_root(gamma)
                                or i in datum.supp_weight(lam)):
                            top = extremal_element(ctx.fundamental(i), wt_)
                            want = extremal_element(ctx.fundamental(i), w)
                            got = right_end_chain(ctx, (i,) + lam_funds,
                                                  (top,) + b, 1)
                            rep.check(got == want,
                                      "%s: right end across %s -> %s at color "
                                      "%s, index %s is %s",
                                      name, w, wt_, lam, i, got)
                # full sources when the supports nest
                for lam in lambdas:
                    if datum.supp_root(gamma) <= datum.supp_weight(lam):
                        p = kg.path(kg.weyl_vertex(wt_), ext[lam][w], lam)
                        rep.check(kg.source(p) == kg.weyl_vertex(w),
                                  "%s: source of the %s -> %s path of color "
                                  "%s is wrong", name, w, wt_, lam)

        # braid relation for the braiding on a three-factor Cartan component;
        # both words end on the factor list (2, 1, 1)
        funds = (1, 1, 2)
        comp = ctx.cartan_of(funds)
        word_l = braid_plan(ctx, funds, (0, 1, 0))
        word_r = braid_plan(ctx, funds, (1, 0, 1))
        for elem in comp.elements:
            state_l = apply_plan(word_l, elem)
            state_r = apply_plan(word_r, elem)
            rep.check(state_l is not None and state_l == state_r,
                      "%s: braid relation fails at %s", name, elem)

        # the braiding flips pairs of extremal elements
        for lam, lam2 in iterproduct(lambdas, lambdas):
            table = cartan_braiding(crystals[lam], crystals[lam2],
                                    ctx.convention)
            for w in W:
                got = braiding_at(crystals[lam], crystals[lam2], table,
                                  (ext[lam][w], ext[lam2][w]))
                rep.check(got == (ext[lam2][w], ext[lam][w]),
                          "%s: braiding does not flip the extremal pair at %s",
                          name, w)
    return rep


SUITES = {
    "a2-fixtures": suite_a2_fixtures,
    "c2-fixtures": suite_c2_fixtures,
    "kgraph-axioms": suite_kgraph_axioms,
    "embeddings": suite_embeddings,
    "keys": suite_keys,
    "lemmas": suite_lemmas,
}


def run_suite(name: str, **config) -> Report:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    code = SUITES[name].__code__
    unread = set(config) - set(code.co_varnames[:code.co_argcount
                                                + code.co_kwonlyargcount])
    if unread:
        raise ValueError(f"the {name} suite does not read {', '.join(sorted(unread))}")
    return SUITES[name](**config)
