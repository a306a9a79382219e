import io
import math
from array import array
from fractions import Fraction
from itertools import product

import pytest

from crystalgraphs import (Convention, Crystal, CrystalContext, KGraph, Weight,
                           WeylGroup, builtin_datum, canonical_isomorphism,
                           tensor_component)
from crystalgraphs.rightends import apply_plan, braid_plan


@pytest.fixture(scope="session")
def a2():
    return CrystalContext(builtin_datum("A2"))


@pytest.fixture(scope="session")
def a3():
    return CrystalContext(builtin_datum("A3"))


@pytest.fixture(scope="session")
def c2():
    return CrystalContext(builtin_datum("C2"))


@pytest.fixture(scope="session")
def c2_opp():
    return CrystalContext(builtin_datum("C2"), Convention.OPPOSITE)


@pytest.fixture(scope="session")
def a2_kg(a2):
    return KGraph(a2)


@pytest.fixture(scope="session")
def c2_kg(c2):
    return KGraph(c2)


@pytest.fixture(scope="session")
def c2_opp_kg(c2_opp):
    return KGraph(c2_opp)


@pytest.fixture(scope="session")
def a2_weyl(a2):
    return WeylGroup.generate(a2.datum)


def longest(group):
    """The longest element of a Weyl group: the unique one of maximal length."""
    top = max(w.length for w in group)
    (w0,) = [w for w in group if w.length == top]
    return w0


# the fundamental elements of A2 in chain order: a1 -> a2 -> a3, b1 -> b2 -> b3
A1_, A2_, A3_ = (1,), (2,), (3,)
B1_, B2_, B3_ = (1, 2), (1, 3), (2, 3)


# -- string and tensor references: walks, independent of the string tables --

def walk_phi(crystal, i, b) -> int:
    """phi_i(b) by walking the i-string down from b."""
    k = 0
    while (b := crystal.f(i, b)) is not None:
        k += 1
    return k


def walk_epsilon(crystal, i, b) -> int:
    """epsilon_i(b) by walking the i-string up from b."""
    k = 0
    while (b := crystal.e(i, b)) is not None:
        k += 1
    return k


def ref_phi_eps(factors, conv, elem, i):
    """String lengths of a tensor element, folded left to right."""
    phi = walk_phi(factors[0], i, elem[0])
    eps = walk_epsilon(factors[0], i, elem[0])
    for c, b in zip(factors[1:], elem[1:]):
        p2, e2 = walk_phi(c, i, b), walk_epsilon(c, i, b)
        if conv is Convention.HONG_KANG:
            phi, eps = p2 + max(0, phi - e2), eps + max(0, e2 - phi)
        else:
            phi, eps = phi + max(0, p2 - eps), e2 + max(0, eps - p2)
    return phi, eps


def _tensor_rule(factors, conv, i) -> tuple:
    """The scan of the signature rule for f_i on a tensor product: the
    (place, epsilon_i array, phi_i array) of each factor, in reading order.

    Hong-kang reads the factors left to right, opposite reads them right to
    left.  `_acting_factor` runs the rule on the positions of one element.
    """
    places = range(len(factors))
    if conv is not Convention.HONG_KANG:
        places = reversed(places)
    return tuple((k, *factors[k]._string_arrays(i)) for k in places)


def _acting_factor(scan, pos) -> int:
    """The place of the factor that f_i lowers, or -1 when f_i gives 0.

    This is the signature rule (Bump-Schilling, *Crystal Bases*, 2017): the
    factor at position p contributes epsilon_i(p) signs - followed by phi_i(p)
    signs +, and each - cancels the nearest uncancelled + before it in
    reading order.  Lowering acts on the factor of the first uncancelled +.
    One pass keeps `acc`, the number of uncancelled signs + so far, and `at`,
    the place the operator would act on.  `pos` holds one position per factor.
    """
    acc = 0
    at = -1
    for k, eps, phi in scan:
        p = pos[k]
        e = eps[p]
        if e >= acc:
            acc = phi[p]
            at = k if acc else -1
        else:
            acc += phi[p] - e
    return at


def ref_tensor(factors, conv) -> Crystal:
    """The full tensor product of any number r >= 1 of factors by the
    r-factor scan (`_acting_factor`), element ids in the order of
    `itertools.product`: the oracle for `tensor`, which runs the two-factor
    rule of `_lowering_search` and takes exactly two factors."""
    factors = tuple(factors)
    datum = factors[0].datum
    size = math.prod(map(len, factors))
    # the position of an element is its mixed-radix number over the factors
    strides = [math.prod(len(c) for c in factors[k + 1:])
               for k in range(len(factors))]
    lowering = {}
    for i in datum.indices:
        scan = _tensor_rule(factors, conv, i)
        maps = [c._f[i] for c in factors]
        fmap = lowering[i] = array("i", [-1]) * size
        for code, pos in enumerate(product(*(range(len(c)) for c in factors))):
            at = _acting_factor(scan, pos)
            if at >= 0:
                fmap[code] = code + (maps[at][pos[at]] - pos[at]) * strides[at]
    name = "ref(" + " x ".join(c.name for c in factors) + ")"
    return Crystal(datum, product(*(c.elements for c in factors)), None,
                   lowering, name=name, factors=factors)


def rule_lower(factors, conv, elem, i):
    """f_i on a tensor element by the r-factor scan on positions, the one
    that `ref_tensor` runs; None encodes 0.  `tensor`, `tensor_component` and
    the product tables run the two-factor rule of `_lowering_search` and
    share no code with it, so the tests compare two independent routes."""
    pos = tuple(c.index[b] for c, b in zip(factors, elem))
    at = _acting_factor(_tensor_rule(factors, conv, i), pos)
    if at < 0:
        return None
    return elem[:at] + (factors[at].f(i, elem[at]),) + elem[at + 1:]


def ref_apply(factors, conv, elem, i, lower):
    """A Kashiwara operator on (prefix) (x) (last factor), recursively: the
    two-factor rule folded left-associatively."""
    if len(elem) == 1:
        b2 = factors[0].f(i, elem[0]) if lower else factors[0].e(i, elem[0])
        return None if b2 is None else (b2,)
    phi_p, eps_p = ref_phi_eps(factors[:-1], conv, elem[:-1], i)
    last_c, last_b = factors[-1], elem[-1]
    if conv is Convention.HONG_KANG:
        eps_last = walk_epsilon(last_c, i, last_b)
        act_left = phi_p > eps_last if lower else phi_p >= eps_last
    else:
        phi_last = walk_phi(last_c, i, last_b)
        act_left = not (phi_last > eps_p if lower else phi_last >= eps_p)
    if act_left:
        res = ref_apply(factors[:-1], conv, elem[:-1], i, lower)
        return None if res is None else res + (last_b,)
    b2 = last_c.f(i, last_b) if lower else last_c.e(i, last_b)
    return None if b2 is None else elem[:-1] + (b2,)


# -- component and right-end references: the breadth-first component of the --
# -- full product or over whole factor lists, and right ends through the -----
# -- inclusion ---------------------------------------------------------------

def ref_component(product) -> tuple:
    """The Cartan component of a full tensor product, breadth first over all
    operators from the product of highest weight elements."""
    return product.component_elements(
        tuple(c.hw_element() for c in product.factors))


def ref_tensor_component(factors, conv) -> Crystal:
    """The Cartan component breadth first over whole r-factor elements, each
    f_i by the signature rule over all r factors (`rule_lower`), from the
    product of highest weight elements: the search that `tensor_component`
    replaces by one over the components of its two halves."""
    factors = tuple(factors)
    datum = factors[0].datum
    seed = tuple(c.hw_element() for c in factors)
    seen = {seed}
    order = [seed]
    lowering = {i: {} for i in datum.indices}
    for elem in order:   # `order` grows while the loop walks it
        for i in datum.indices:
            down = rule_lower(factors, conv, elem, i)
            if down is None:
                continue
            if down not in seen:
                seen.add(down)
                order.append(down)
            lowering[i][elem] = down
    return Crystal(datum, order, None, lowering, name="ref", factors=factors)


def ref_right_end_inclusion(ctx, crystal, b, mu):
    """R_mu(b) through the inclusion B(lam) -> B(lam - mu) (x) B(mu).

    `crystal` is either a connected crystal or a tensor product with recorded
    factors, built under the context's convention; elements outside the
    Cartan component map to None (the value 0).
    """
    mu = ctx.weight(mu)
    if not crystal.is_connected():
        comp = tensor_component(crystal.factors, ctx.convention)
        if b not in comp:
            return None
        sorted_real = ctx.weight_crystal(comp.highest_weight)
        b = canonical_isomorphism(comp, sorted_real)[b]
        crystal = sorted_real
    lam = crystal.highest_weight
    if not (ctx.datum.is_dominant(mu) and ctx.datum.is_dominant(lam - mu)):
        raise ValueError(f"weights do not satisfy the right-end precondition: "
                         f"{lam} vs {mu}")
    pair = tensor_component((ctx.weight_crystal(lam - mu), ctx.weight_crystal(mu)),
                            ctx.convention)
    return canonical_isomorphism(crystal, pair)[b][1]


# -- the product reference: the tuple route that product tables replace -------

def sorting_word(funds) -> tuple[int, ...]:
    """Positions (0-based) of the stable adjacent-swap sort of funds.

    Applied in order, the swaps put the factor list in increasing order and
    never exchange two equal indices.
    """
    funds = list(funds)
    word = []
    for k in range(1, len(funds)):
        pos = k
        while pos > 0 and funds[pos - 1] > funds[pos]:
            funds[pos - 1], funds[pos] = funds[pos], funds[pos - 1]
            pos -= 1
            word.append(pos)
    return tuple(word)


def ref_product(ctx, deg1, deg2, b1, b2):
    """The product of b1 in B(deg1) and b2 in B(deg2) in B(deg1 + deg2): the
    braid plan that sorts the two factor lists, applied to b1 + b2, then
    membership in the target; None when the product left the Cartan
    component."""
    funds = ctx.fundamental_indices(deg1) + ctx.fundamental_indices(deg2)
    elem = apply_plan(braid_plan(ctx, funds, sorting_word(funds)), b1 + b2)
    target = ctx.weight_crystal([a + b for a, b in zip(deg1, deg2)])
    return elem if elem is not None and elem in target else None


# -- the graph-export reference: the JSON tree that `to_json` writes as text -

def written(export, **kwargs) -> str:
    """The text that an exporter such as `ColoredDigraph.to_json` writes to
    a stream; the exporter itself returns nothing."""
    out = io.StringIO()
    assert export(out, **kwargs) is None
    return out.getvalue()


def ref_graph_json(graph, vertex_str=str, color_str=str, show_loops=True,
                   key_str=str) -> dict:
    """{"vertices": sorted names, "edges": sorted records}; a record has
    "src", "dst", "color", and "element" when its edge has a key."""
    vnames = {v: vertex_str(v) for v in graph.vertices}
    edges = []
    for e in graph.edges:
        if not show_loops and e.src == e.dst:
            continue
        rec = {"src": vnames[e.src], "dst": vnames[e.dst], "color": color_str(e.color)}
        if e.key is not None:
            rec["element"] = key_str(e.key)
        edges.append(rec)
    edges.sort(key=lambda r: (r["src"], r["dst"], r["color"], r.get("element", "")))
    return {"vertices": sorted(vnames.values()), "edges": edges}


# -- root-data references: coroots by the norm through the symmetrizer, ------
# -- roots by the closure under every simple reflection ----------------------

def ref_positive_roots(datum):
    """The simple roots closed under all simple reflections, both signs kept
    while closing; the positive ones, by height."""
    roots = {datum.simple_root(i) for i in datum.indices}
    frontier = list(roots)
    while frontier:
        gamma = frontier.pop()
        for i in datum.indices:
            delta = datum.reflect_root(i, gamma)
            if delta not in roots:
                roots.add(delta)
                frontier.append(delta)
    positive = [g for g in roots if all(c >= 0 for c in g.coords)]
    return sorted(positive, key=lambda g: (g.height(), g.coords))


def ref_coroot(datum, gamma) -> tuple[int, ...]:
    """gamma^v = 2 gamma / (gamma, gamma) in the simple-coroot basis, where
    (alpha_i, alpha_j) = d_i a_ij and alpha_j = d_j alpha_j^v."""
    c, d, a = gamma.coords, datum.symmetrizer, datum.cartan
    norm = sum(Fraction(c[i] * c[j] * d[i] * a[i][j])
               for i in range(datum.rank) for j in range(datum.rank))
    coroot = [2 * c[j] * d[j] / norm for j in range(datum.rank)]
    assert all(x.denominator == 1 for x in coroot), gamma
    return tuple(int(x) for x in coroot)


def ref_reflect_by_root(datum, gamma, lam) -> Weight:
    """lam - (lam, gamma^v) gamma, with gamma^v from `ref_coroot`."""
    k = sum(x * y for x, y in zip(ref_coroot(datum, gamma), lam.coords))
    return lam - k * datum.weight_of_root(gamma)


def ref_dimension(datum, lam) -> int:
    """The Weyl dimension formula over `ref_positive_roots` and `ref_coroot`."""
    num = den = Fraction(1)
    for gamma in ref_positive_roots(datum):
        cv = ref_coroot(datum, gamma)
        num *= sum(c * (x + 1) for c, x in zip(cv, lam.coords))
        den *= sum(cv)
    quotient = num / den
    assert quotient.denominator == 1
    return int(quotient)
