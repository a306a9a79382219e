"""Finite crystals: Kashiwara operators, tensor products, Weyl action,
Cartan components and the Cartan braiding.

A crystal stores its elements and, over their positions, its lowering maps as
arrays; zero is -1 there and None at the label API, never a sentinel element.
Raising maps and string lengths are built per index on first use.  Only a
crystal given weights (fundamentals, data files) stores them; a tensor product
or component sums its factors' weights.  Tensor products support both
bracketing conventions behind a single flag: the lowering operators of a
full product follow the signature rule over all its factors, one primitive on
positions (`_acting_factor`).  A Cartan component is built from its two
halves by the two-factor rule, applied inline in its search, and a braiding
table is one flat array over the positions of its two factors.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from enum import Enum
from itertools import product as iterproduct

from .rootdata import C2_CARTAN, RootDatum, Weight, int_rows, type_a_cartan


class Convention(Enum):
    """Tensor-product convention for the Kashiwara operators."""

    HONG_KANG = "hong-kang"
    OPPOSITE = "opposite"


def as_convention(value) -> Convention:
    if isinstance(value, Convention):
        return value
    return Convention(str(value).lower().replace("_", "-"))


class Crystal:
    """A finite crystal: element ids and partial lowering operators.

    Elements are numbered by their place in `elements`.  Lowering map i is an
    array over those positions that holds the position of f_i(b), or -1 for
    the value 0; the raising maps and the i-string lengths are arrays of the
    same shape, built on first use.  ``lowering[i]`` is handed over either as
    such an array, which is kept, or as a dict ``b -> b'`` over element ids.
    Given ``weights``, the crystal stores and validates them; given None, the
    weight of a tuple element is the sum of its ``factors``' weights.
    """

    def __init__(self, datum: RootDatum, elements, weights, lowering,
                 name: str = "B", factors=None):
        self.datum = datum
        self.name = name
        self.elements = tuple(elements)
        self.factors = tuple(factors) if factors is not None else None
        self._wt = weights
        self._index: dict | None = None
        self._f = {i: self._lowering_array(i, lowering.get(i, {}))
                   for i in datum.indices}
        self._e: dict[int, array] = {}
        self._desc: dict = {}
        self._strings: dict[int, tuple[array, array]] = {}
        self._hw = None
        self._extremal: dict[tuple, object] = {}
        if weights is not None:
            self.validate()

    def _lowering_array(self, i: int, fmap) -> array:
        """A lowering map as an array over positions; a dict over element ids
        is converted, which needs (and so builds) the index."""
        if isinstance(fmap, array):
            return fmap
        index = self.index
        out = array("i", [-1]) * len(self.elements)
        for b, b2 in fmap.items():
            p, q = index.get(b), index.get(b2)
            if p is None or q is None:
                raise ValueError(
                    f"{self.name}: operator {i} touches unknown elements")
            out[p] = q
        return out

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, b):
        return b in (self._index or self.index)

    @property
    def index(self) -> dict:
        """Each element id to its position in `elements`, built on first use;
        read-only."""
        if self._index is None:
            index = {b: k for k, b in enumerate(self.elements)}
            if len(index) != len(self.elements):
                raise ValueError(f"{self.name}: duplicate element ids")
            self._index = index
        return self._index

    def position(self, b) -> int | None:
        """The position of b in `elements`; None when b is not an element."""
        return (self._index or self.index).get(b)

    def __repr__(self):
        return f"Crystal({self.name}, {len(self.elements)} elements)"

    def wt(self, b) -> Weight:
        if self._wt is not None:
            return self._wt[b]
        w = self.datum.zero_weight()
        for c, x in zip(self.factors, b, strict=True):
            w = w + c.wt(x)
        return w

    def _apply(self, fmap: array, b):
        p = self.index.get(b)
        if p is None:
            return None
        q = fmap[p]
        return None if q < 0 else self.elements[q]

    def f(self, i: int, b):
        """Lowering operator; None encodes 0."""
        return self._apply(self._f[i], b)

    def e(self, i: int, b):
        """Raising operator; None encodes 0."""
        return self._apply(self._raising(i), b)

    def _raising(self, i: int) -> array:
        """The inverse of lowering map i, built on first use; raises if that
        map is not injective."""
        emap = self._e.get(i)
        if emap is None:
            emap = array("i", [-1]) * len(self.elements)
            for p, q in enumerate(self._f[i]):
                if q >= 0:
                    if emap[q] >= 0:
                        raise ValueError(
                            f"{self.name}: lowering operator {i} is not injective")
                    emap[q] = p
            self._e[i] = emap
        return emap

    def phi(self, i: int, b) -> int:
        return self._string_arrays(i)[1][self.index[b]]

    def epsilon(self, i: int, b) -> int:
        return self._string_arrays(i)[0][self.index[b]]

    def _string_arrays(self, i: int) -> tuple[array, array]:
        """(epsilon_i, phi_i) as two arrays over positions, built on first use.

        Each i-string is walked once from its top, so the arrays cost one
        pass over the crystal.  `phi`, `epsilon`, `validate` and the tensor
        rule all read them.
        """
        arrays = self._strings.get(i)
        if arrays is None:
            n = len(self.elements)
            eps, phi = array("i", [0]) * n, array("i", [0]) * n
            fmap, emap = self._f[i], self._raising(i)
            for head in range(n):
                if emap[head] >= 0:
                    continue
                string = [head]
                while (p := fmap[string[-1]]) >= 0:
                    string.append(p)
                last = len(string) - 1
                for k, p in enumerate(string):
                    eps[p], phi[p] = k, last - k
            arrays = self._strings[i] = (eps, phi)
        return arrays

    def validate(self) -> None:
        r = self.datum.rank
        weights = [self.wt(b) for b in self.elements]
        for b, w in zip(self.elements, weights):
            if len(w.coords) != r:
                raise ValueError(f"{self.name}: weight of {b!r} has wrong rank")
        for i, alpha in zip(self.datum.indices, self.datum.simple_root_weights):
            for p, q in enumerate(self._f[i]):
                if q >= 0 and weights[q] != weights[p] - alpha:
                    raise ValueError(
                        f"{self.name}: lowering {i} does not shift the weight by -alpha_{i}")
        # every i-string has a top: a cycle of lowering i would need
        # wt(b) = wt(b) - k alpha_i, which the weight check above refuses
        for i in self.datum.indices:
            eps_i, phi_i = self._string_arrays(i)
            for b, w, eps, phi in zip(self.elements, weights, eps_i, phi_i):
                if phi - eps != self.datum.pairing(w, i):
                    raise ValueError(
                        f"{self.name}: phi - epsilon mismatch at {b!r}, index {i}")

    # -- structure ----------------------------------------------------------

    def highest_weight_elements(self) -> tuple:
        """The elements no raising operator reaches: epsilon_i(b) = 0 for all
        i means that b is the image of no lowering operator."""
        raised = [self._raising(i) for i in self.datum.indices]
        return tuple(b for p, b in enumerate(self.elements)
                     if all(emap[p] < 0 for emap in raised))

    def hw_element(self):
        """The unique highest weight element, found once; raises if there
        is none or more than one."""
        if self._hw is None:
            hws = self.highest_weight_elements()
            if len(hws) != 1:
                raise ValueError(f"{self.name} has {len(hws)} highest weight elements")
            self._hw = hws[0]
        return self._hw

    @property
    def highest_weight(self) -> Weight:
        return self.wt(self.hw_element())

    def _reach(self, b, maps) -> list:
        """b and everything reachable from it along `maps`, breadth first,
        each element's images taken in the order of `maps`."""
        start = self.index[b]
        seen = {start}
        order = [start]
        for x in order:   # `order` grows while the loop walks it
            for step in maps:
                y = step[x]
                if y >= 0 and y not in seen:
                    seen.add(y)
                    order.append(y)
        return [self.elements[x] for x in order]

    def component_elements(self, b) -> tuple:
        """Elements reachable from b under all operators, in BFS order."""
        return tuple(self._reach(b, [m for i in self.datum.indices
                                     for m in (self._f[i], self._raising(i))]))

    def is_connected(self) -> bool:
        return len(self.component_elements(self.elements[0])) == len(self.elements)

    def descendants(self, b) -> frozenset:
        """b together with everything reachable by lowering operators."""
        if b not in self._desc:
            self._desc[b] = frozenset(self._reach(b, self._f.values()))
        return self._desc[b]

    def leq(self, b1, b2) -> bool:
        """b1 <= b2 when b1 is reachable from b2 by lowering operators."""
        return b1 in self.descendants(b2)


def trivial_crystal(datum: RootDatum) -> Crystal:
    """B(0): a single element of weight zero, with empty factor list."""
    return Crystal(datum, [()], None, {}, name="B(0)", factors=())


# -- tensor products --------------------------------------------------------

def _tensor_rule(factors, conv: Convention, i: int) -> tuple:
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


def _check_factors(factors):
    factors = tuple(factors)
    if not factors:
        raise ValueError("tensor products need at least one factor")
    datum = factors[0].datum
    if any(c.datum != datum for c in factors):
        raise ValueError("tensor factors live over different Cartan data")
    return factors, datum


def tensor(factors, convention=Convention.HONG_KANG) -> Crystal:
    """The full tensor product crystal; element ids are tuples of factor ids,
    in the order of `itertools.product`.

    Refuses, before building anything, a product over MAX_CRYSTAL_SIZE.
    """
    factors, datum = _check_factors(factors)
    conv = as_convention(convention)
    name = "(" + " x ".join(c.name for c in factors) + ")"
    size = _refuse_over_limit(math.prod(map(len, factors)), f"the product {name}")
    # the position of an element is its mixed-radix number over the factors
    strides = [math.prod(len(c) for c in factors[k + 1:])
               for k in range(len(factors))]
    lowering = {}
    for i in datum.indices:
        scan = _tensor_rule(factors, conv, i)
        maps = [c._f[i] for c in factors]
        fmap = lowering[i] = array("i", [-1]) * size
        for code, pos in enumerate(iterproduct(*(range(len(c)) for c in factors))):
            at = _acting_factor(scan, pos)
            if at >= 0:
                fmap[code] = code + (maps[at][pos[at]] - pos[at]) * strides[at]
    elements = iterproduct(*[c.elements for c in factors])
    return Crystal(datum, elements, None, lowering, name=name, factors=factors)


def _single(c: Crystal) -> tuple[Crystal, tuple]:
    """A single factor as a half: it stands for its component, which it
    contains, and labels its elements by one-tuples."""
    return c, tuple((b,) for b in c.elements)


def _half(factors, conv: Convention, datum: RootDatum) -> tuple[Crystal, tuple]:
    """The Cartan component of a product of factors, as a crystal and the
    label tuple of each of its elements.  A single factor stands for its
    component (`_single`); an empty product is B(0)."""
    if len(factors) == 1:
        return _single(factors[0])
    comp = tensor_component(factors, conv) if factors else trivial_crystal(datum)
    return comp, comp.elements


def tensor_component(factors, convention=Convention.HONG_KANG,
                     halves=None) -> Crystal:
    """The Cartan component of a tensor product, built lazily from its halves.

    The tensor product is associative, so the component of F_1 ... F_r lies
    inside C(F_1 ... F_m) (x) C(F_m+1 ... F_r) with m = r // 2, and there it
    is the component of the product of the two highest weight elements.  The
    lowering operators alone reach all of it from that element, breadth
    first, by the signature rule on two factors, applied inline: f_i acts on
    the factor read first (the left one under hong-kang, the right one under
    opposite) when its phi_i exceeds the other factor's epsilon_i, else on
    the other factor when that one's phi_i is positive, else it gives 0.
    The halves are `halves` when given, as (crystal, labels) pairs (the
    components of the two factor lists, or a single factor itself, as
    `CrystalContext.cartan_of` hands them over), and are built the same way
    otherwise (`_half`; for r = 1 the halves are B(0) and the factor).  The
    search never reads how a half numbers its elements, so the element order
    does not depend on it.  An element's label is the concatenation of its
    two half labels, built once, after the search.  Only the components are
    ever materialized, so large ambient products cost nothing.
    """
    factors, datum = _check_factors(factors)
    conv = as_convention(convention)
    if halves is None:
        m = len(factors) // 2
        halves = (_half(factors[:m], conv, datum), _half(factors[m:], conv, datum))
    (left, lparts), (right, rparts) = halves
    in_order = conv is Convention.HONG_KANG   # the left half is read first
    first, second = (left, right) if in_order else (right, left)
    # per index: phi_i of the factor read first, epsilon_i and phi_i of the
    # other, the two lowering maps, and the component's lowering map, which
    # grows by one slot per element searched
    maps = {i: array("i") for i in datum.indices}
    rules = [(first._string_arrays(i)[1], *second._string_arrays(i),
              first._f[i], second._f[i], maps[i].append)
             for i in datum.indices]
    width = len(second)
    # the component's elements as position pairs (apos[k], bpos[k]) in the
    # factors read first and second, in breadth-first order; `seen` maps a
    # pair's code a * width + b to the element's position, so it grows with
    # the component, not the product
    apos = array("i", [first.index[first.hw_element()]])
    bpos = array("i", [second.index[second.hw_element()]])
    seen = {apos[0] * width + bpos[0]: 0}
    n = 1
    for a, b in zip(apos, bpos):   # the zip walks both arrays while they grow
        for phi1, eps2, phi2, f1, f2, put in rules:
            if phi1[a] > eps2[b]:
                a2, b2 = f1[a], b
            elif phi2[b]:
                a2, b2 = a, f2[b]
            else:
                put(-1)
                continue
            t = seen.setdefault(a2 * width + b2, n)
            if t == n:
                n += 1
                apos.append(a2)
                bpos.append(b2)
            put(t)
    del seen   # freed before the labels are built
    lpos, rpos = (apos, bpos) if in_order else (bpos, apos)
    elements = [lparts[p] + rparts[q] for p, q in zip(lpos, rpos)]
    name = "cartan(" + " x ".join(c.name for c in factors) + ")"
    comp = Crystal(datum, elements, None, maps, name=name, factors=factors)
    comp._hw = comp.elements[0]   # the search started from it
    return comp


# -- Weyl group action -------------------------------------------------------

def weyl_action(crystal: Crystal, i: int, b):
    """The reflection action on crystal elements; never 0."""
    k = crystal.datum.pairing(crystal.wt(b), i)
    for _ in range(abs(k)):
        b = crystal.f(i, b) if k > 0 else crystal.e(i, b)
        if b is None:
            raise RuntimeError(
                f"{crystal.name}: reflection action ran past the string end; "
                "the crystal is malformed")
    return b


def extremal_element(crystal: Crystal, w):
    """The unique element of extremal weight w(lambda) in a connected crystal.

    w is a Weyl group element or a word.  The element of s_i w is s_i applied
    to that of w; results are memoized in the crystal by word.
    """
    word = tuple(getattr(w, "word", w))
    b = crystal._extremal.get(word)
    if b is None:
        b = crystal._extremal[word] = (
            weyl_action(crystal, word[0], extremal_element(crystal, word[1:]))
            if word else crystal.hw_element())
    return b


# -- canonical isomorphisms and the Cartan braiding ---------------------------

def canonical_isomorphism(c1: Crystal, c2: Crystal) -> dict:
    """The unique crystal isomorphism between connected crystals.

    Propagates from highest weight elements along lowering edges, on
    positions; raises if the crystals are not isomorphic.
    """
    h1, h2 = c1.hw_element(), c2.hw_element()
    if c1.wt(h1) != c2.wt(h2):
        raise ValueError(f"highest weights differ: {c1.name} vs {c2.name}")
    if len(c1) != len(c2):
        raise ValueError(f"sizes differ: {c1.name} vs {c2.name}")
    maps = [(c1._f[i], c2._f[i]) for i in c1.datum.indices]
    image = array("i", [-1]) * len(c1)
    start = c1.index[h1]
    image[start] = c2.index[h2]
    order = [start]
    for x in order:   # `order` grows while the loop walks it
        y = image[x]
        for f1, f2 in maps:
            x2, y2 = f1[x], f2[y]
            if (x2 < 0) != (y2 < 0):
                raise ValueError(f"{c1.name} and {c2.name} are not isomorphic")
            if x2 < 0:
                continue
            if image[x2] < 0:
                image[x2] = y2
                order.append(x2)
            elif image[x2] != y2:
                raise ValueError(f"{c1.name} and {c2.name} are not isomorphic")
    if len(order) != len(c1):
        raise ValueError(f"{c1.name} is not connected")
    e1, e2 = c1.elements, c2.elements
    return {e1[x]: e2[image[x]] for x in order}


def cartan_braiding(c1: Crystal, c2: Crystal,
                    convention=Convention.HONG_KANG) -> array:
    """The braiding c1 (x) c2 -> c2 (x) c1 as one flat table on positions.

    It is the canonical isomorphism between the Cartan components of the two
    products and zero on every other element.  With n1 = |c1| and n2 = |c2|,
    slot x * n2 + y (x (x) y at positions x in c1 and y in c2, the position
    of the pair in the full product) holds y' * n1 + x' for the image
    y' (x) x', or -1 for 0.  `braiding_at` reads it at a pair of labels.
    """
    conv = as_convention(convention)
    p12 = tensor((c1, c2), conv)  # its positions number the table's slots
    comp12 = tensor_component((c1, c2), conv)
    comp21 = tensor_component((c2, c1), conv)
    n1 = len(c1)
    table = array("i", [-1]) * len(p12)
    for pair, (y, x) in canonical_isomorphism(comp12, comp21).items():
        table[p12.index[pair]] = c2.index[y] * n1 + c1.index[x]
    return table


def braiding_at(c1: Crystal, c2: Crystal, table, pair):
    """A table of `cartan_braiding(c1, c2)` read at the labels (x, y) of an
    element of c1 (x) c2: the pair (y', x') of c2 (x) c1, or None for 0."""
    x, y = pair
    t = table[c1.index[x] * len(c2) + c2.index[y]]
    if t < 0:
        return None
    y2, x2 = divmod(t, len(c1))
    return c2.elements[y2], c1.elements[x2]


# -- fundamental crystals ------------------------------------------------------

def _box_weight(datum: RootDatum, v: int) -> Weight:
    coords = [0] * datum.rank
    if v <= datum.rank:
        coords[v - 1] += 1
    if v - 1 >= 1:
        coords[v - 2] -= 1
    return Weight(tuple(coords))


def _type_a_fundamental(datum: RootDatum, k: int) -> Crystal:
    """Columns: strictly increasing k-subsets of {1..rank+1}.

    The lowering operator i turns an entry i into i+1 when i is present and
    i+1 is not; this is the column rule induced by the reading embedding into
    a tensor power of the vector crystal.
    """
    from itertools import combinations

    fundamental_size(datum, k)   # refuses a count over the limit
    elements = list(combinations(range(1, datum.rank + 2), k))
    weights = {}
    for col in elements:
        w = datum.zero_weight()
        for v in col:
            w = w + _box_weight(datum, v)
        weights[col] = w
    lowering = {i: {} for i in datum.indices}
    for i in datum.indices:
        for col in elements:
            if i in col and i + 1 not in col:
                out = tuple(sorted(set(col) - {i} | {i + 1}))
                lowering[i][col] = out
    return Crystal(datum, elements, weights, lowering, name=f"B(w{k})")


def _c2_fundamental(datum: RootDatum, k: int) -> Crystal:
    if k == 1:
        elements = ["a1", "a2", "a3", "a4"]
        lowering = {1: {"a1": "a2", "a3": "a4"}, 2: {"a2": "a3"}}
    else:
        elements = ["b1", "b2", "b3", "b4", "b5"]
        lowering = {1: {"b2": "b3", "b3": "b4"}, 2: {"b1": "b2", "b4": "b5"}}
    weights = {elements[0]: datum.fundamental_weight(k)}
    alpha = datum.simple_root_weights
    changed = True
    while changed:
        changed = False
        for i, fmap in lowering.items():
            for b, b2 in fmap.items():
                if b in weights and b2 not in weights:
                    weights[b2] = weights[b] - alpha[i - 1]
                    changed = True
    return Crystal(datum, elements, weights, lowering, name=f"B(w{k})")


def fundamental_size(datum: RootDatum, k: int) -> int | None:
    """|B(omega_k)| of the built-in realization, known before it is built:
    C(rank + 1, k) columns in type A_r; None for other Cartan data.

    Refuses a type A count over MAX_CRYSTAL_SIZE.
    """
    if datum.cartan != type_a_cartan(datum.rank):
        return None
    return _refuse_over_limit(math.comb(datum.rank + 1, k),
                              f"B(w{k}) of {datum.name or 'this algebra'}")


def build_fundamental(datum: RootDatum, i: int) -> Crystal:
    """The fundamental crystal B(omega_i) for supported Cartan data."""
    datum._check_index(i)
    if datum.cartan == type_a_cartan(datum.rank):
        return _type_a_fundamental(datum, i)
    if datum.cartan == C2_CARTAN:
        return _c2_fundamental(datum, i)
    raise ValueError(
        f"no built-in fundamental crystals for datum {datum.name or datum.cartan}: "
        "they are built in for types A_r and C2 only; for other Cartan data, "
        "register each B(omega_i) through CrystalContext.register_fundamental "
        "in the Python API")


def _is_listed(listed: set, b) -> bool:
    try:
        return b in listed
    except TypeError:   # unhashable, so not a listed element
        return False


def crystal_from_dict(datum: RootDatum, data: dict, name: str = "") -> Crystal:
    """Load a crystal from {"weight", "elements", "wt", "f"} and validate it.

    Weights are arrays of JSON integers, operator indices are the strings
    "1" to "rank", and each operator maps listed elements to listed elements;
    any other shape is a ValueError.
    """
    if not (isinstance(data, dict) and isinstance(data.get("elements"), list)
            and isinstance(data.get("wt"), dict) and isinstance(data.get("f"), dict)
            and all(isinstance(fmap, dict) for fmap in data["f"].values())):
        raise ValueError('crystal data must be an object with an array "elements" '
                         'and objects "wt" and "f", each entry of "f" an object')
    elements = data["elements"]
    try:
        rows = [data["wt"][b] for b in elements]
    except (KeyError, TypeError):
        raise ValueError('every element needs an entry in "wt"') from None
    rows = int_rows(rows, 'every "wt" entry must be an array of integers')
    weights = {b: Weight(row) for b, row in zip(elements, rows)}
    declared = Weight(int_rows([data.get("weight")],
                               '"weight" must be an array of integers')[0])
    listed = set(elements)
    lowering = {}
    for i, fmap in data["f"].items():
        if not (isinstance(i, str) and re.fullmatch(r"[1-9][0-9]*", i)
                and int(i) <= datum.rank):
            raise ValueError(f'operator index {i!r} of "f" is not one of '
                             f'"1", ..., "{datum.rank}"')
        if not all(_is_listed(listed, b) and _is_listed(listed, b2)
                   for b, b2 in fmap.items()):
            raise ValueError(f'operator {i} of "f" maps an element that is '
                             'not listed in "elements"')
        lowering[int(i)] = dict(fmap)
    crystal = Crystal(datum, elements, weights, lowering, name=name or "B(file)")
    if not crystal.is_connected():
        raise ValueError("crystal data file is not connected")
    if crystal.highest_weight != declared:
        raise ValueError("declared weight does not match the highest weight")
    return crystal


def crystal_from_file(datum: RootDatum, path: str, name: str = "") -> Crystal:
    with open(path) as fh:
        return crystal_from_dict(datum, json.load(fh), name=name or path)


# -- the context: one algebra, one convention, shared caches -------------------

# The largest crystal built: B(rho) of A5, with 32,768 elements, is well under
# it, and B(rho) of A6, with 2,097,152, over.  Contexts hold highest weight
# crystals to it, `tensor` full products and `_type_a_fundamental` columns.
MAX_CRYSTAL_SIZE = 200_000


def _refuse_over_limit(size: int, what: str) -> int:
    """size, or a ValueError naming `what` when it is over MAX_CRYSTAL_SIZE."""
    if size > MAX_CRYSTAL_SIZE:
        raise ValueError(f"{what} has {size:,} elements, over the limit of "
                         f"{MAX_CRYSTAL_SIZE:,}")
    return size


def check_crystal_size(datum: RootDatum, lam: Weight) -> int:
    """|B(lam)| by the Weyl dimension formula; ValueError above the limit."""
    return _refuse_over_limit(datum.dimension(lam),
                              f"B{lam.coords} of {datum.name or 'this algebra'}")


class CrystalContext:
    """Builds and caches the crystals of one Cartan datum under one convention.

    All caches are filled on first use and shared read-only afterwards:
    fundamental crystals, connected realizations of highest weight crystals
    (as components of products of fundamentals, indices sorted increasingly),
    the fundamental indices of each weight, the pairwise braiding tables
    between fundamental crystals, the chains of each factor list that
    `rightends.apply_chain` and `rightends.chain_ends` run, one
    `rightends.Chains` per factor list, and the move list that
    `rightends.chain_ends` reads for each braiding table.
    """

    def __init__(self, datum: RootDatum, convention=Convention.HONG_KANG):
        self.datum = datum
        self.convention = as_convention(convention)
        self._fund: dict[int, Crystal] = {}
        self._components: dict[tuple, Crystal] = {}
        self._fund_indices: dict[tuple, tuple[int, ...]] = {}
        self._braidings: dict[tuple, array] = {}
        self._chains: dict[tuple, object] = {}
        self._moves: dict[tuple, list] = {}
        # the factor list of B(rho), one fundamental per index
        self.rho_indices = tuple(datum.indices)

    def fundamental(self, i: int) -> Crystal:
        if i not in self._fund:
            self._fund[i] = build_fundamental(self.datum, i)
        return self._fund[i]

    def register_fundamental(self, i: int, crystal: Crystal) -> None:
        self.datum._check_index(i)
        if crystal.highest_weight != self.datum.fundamental_weight(i):
            raise ValueError(f"crystal is not a realization of B(omega_{i})")
        self._fund[i] = crystal

    def weight(self, coords) -> Weight:
        """coords as a Weight; ValueError unless it has one int coordinate per
        index (bool, float and string are refused, not coerced)."""
        if not isinstance(coords, Weight):
            coords = tuple(coords)
            if not all(type(c) is int for c in coords):
                raise ValueError(f"weight coordinates must be integers, got {coords!r}")
            coords = Weight(coords)
        if len(coords.coords) != (rank := self.datum.rank):
            raise ValueError(f"rank {rank} weights have {rank} coordinates, "
                             f"got {coords.coords!r}")
        return coords

    @property
    def rho(self) -> Weight:
        return self.datum.rho()

    def fundamental_indices(self, lam) -> tuple[int, ...]:
        """The sorted multiset of fundamental indices summing to lam."""
        lam = self.weight(lam)
        funds = self._fund_indices.get(lam.coords)
        if funds is None:
            if not self.datum.is_dominant(lam):
                raise ValueError(f"{lam} is not dominant")
            funds = tuple(i for i in self.datum.indices
                          for _ in range(lam.coords[i - 1]))
            self._fund_indices[lam.coords] = funds
        return funds

    def cartan_of(self, funds: tuple[int, ...]) -> Crystal:
        """The Cartan component of a product of fundamentals, built lazily
        from the two halves of `funds`: a half of two or more factors is a
        component it holds too, a single factor the fundamental itself."""
        funds = tuple(funds)
        comp = self._components.get(funds)
        if comp is None:
            factors = [self.fundamental(i) for i in funds]
            if not funds:
                comp = trivial_crystal(self.datum)
            elif len(funds) == 1:
                comp = tensor_component(factors, self.convention)
            else:
                m = len(funds) // 2
                comp = tensor_component(factors, self.convention, (
                    self._half(funds[:m]), self._half(funds[m:])))
            self._components[funds] = comp
        return comp

    def _half(self, funds: tuple[int, ...]) -> tuple[Crystal, tuple]:
        """A nonempty half of a factor list as a (crystal, labels) pair; the
        halves of a sorted list are sorted lists, held in the context."""
        if len(funds) == 1:
            return _single(self.fundamental(funds[0]))
        comp = self.cartan_of(funds)
        return comp, comp.elements

    def weight_crystal(self, lam) -> Crystal:
        """B(lam), realized inside the sorted product of fundamentals.

        Refuses, before building anything, a crystal over MAX_CRYSTAL_SIZE.
        """
        lam = self.weight(lam)
        funds = self.fundamental_indices(lam)
        crystal = self._components.get(funds)
        if crystal is None:
            check_crystal_size(self.datum, lam)
            crystal = self.cartan_of(funds)
        return crystal

    def rho_crystal(self) -> Crystal:
        return self.weight_crystal(self.rho)

    def braiding(self, i: int, j: int) -> array:
        """The flat braiding table of `cartan_braiding` between fundamental
        crystals i and j: |B(w_i)| * |B(w_j)| slots on positions.

        Refuses, before building either fundamental, a product whose size is
        known to be over MAX_CRYSTAL_SIZE.
        """
        if (i, j) not in self._braidings:
            sizes = [fundamental_size(self.datum, k) for k in (i, j)]
            if None not in sizes:
                _refuse_over_limit(sizes[0] * sizes[1],
                                   f"the product (B(w{i}) x B(w{j}))")
            self._braidings[(i, j)] = cartan_braiding(
                self.fundamental(i), self.fundamental(j), self.convention)
        return self._braidings[(i, j)]
