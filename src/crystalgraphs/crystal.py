"""Finite crystals: Kashiwara operators, tensor products, Weyl action,
Cartan components and the Cartan braiding.

A crystal stores its elements, the position of each and its lowering maps; zero
is an absent value, never a sentinel element.  Raising maps are inverted per
index on first use.  Only a crystal given weights (fundamentals, data files)
stores them; a tensor product or component sums its factors' weights.  Tensor
products support both bracketing conventions behind a single flag: their
lowering operators follow the signature rule over the whole factor list.
"""

from __future__ import annotations

import json
import math
import re
from collections import deque
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

    ``lowering[i][b] = b'`` encodes that the i-th lowering operator sends b to
    b'; absence encodes the value 0.  The maps are kept, not copied.  Given
    ``weights``, the crystal stores and validates them; given None, the
    weight of a tuple element is the sum of its ``factors``' weights.
    """

    def __init__(self, datum: RootDatum, elements, weights, lowering,
                 name: str = "B", factors=None):
        self.datum = datum
        self.name = name
        self.elements = tuple(elements)
        self.factors = tuple(factors) if factors is not None else None
        self._wt = weights
        self._index = {b: k for k, b in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError(f"{name}: duplicate element ids")
        self._f = {i: lowering.get(i, {}) for i in datum.indices}
        self._e: dict[int, dict] = {}
        self._desc: dict = {}
        self._strings: dict[int, dict] = {}
        self._hw = None
        self._extremal: dict[tuple, object] = {}
        if weights is not None:
            self.validate()

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, b):
        return b in self._index

    def position(self, b) -> int | None:
        """The position of b in `elements`; None when b is not an element."""
        return self._index.get(b)

    def __repr__(self):
        return f"Crystal({self.name}, {len(self.elements)} elements)"

    def wt(self, b) -> Weight:
        if self._wt is not None:
            return self._wt[b]
        w = self.datum.zero_weight()
        for c, x in zip(self.factors, b, strict=True):
            w = w + c.wt(x)
        return w

    def f(self, i: int, b):
        """Lowering operator; None encodes 0."""
        return self._f[i].get(b)

    def e(self, i: int, b):
        """Raising operator; None encodes 0."""
        return self._raising(i).get(b)

    def _raising(self, i: int) -> dict:
        """The inverse of lowering map i, built on first use; raises if that
        map is not injective."""
        emap = self._e.get(i)
        if emap is None:
            fmap = self._f[i]
            emap = {b2: b for b, b2 in fmap.items()}
            if len(emap) != len(fmap):
                raise ValueError(f"{self.name}: lowering operator {i} is not injective")
            self._e[i] = emap
        return emap

    def phi(self, i: int, b) -> int:
        return self.string_lengths(i)[b][1]

    def epsilon(self, i: int, b) -> int:
        return self.string_lengths(i)[b][0]

    def string_lengths(self, i: int) -> dict:
        """(epsilon_i(b), phi_i(b)) for every element b, built on first use.

        Each i-string is walked once from its top, so the table costs one
        pass over the crystal.  `phi`, `epsilon`, `validate` and the tensor
        rule all read it.
        """
        table = self._strings.get(i)
        if table is None:
            table = {}
            fmap, emap = self._f[i], self._raising(i)
            for head in self.elements:
                if head in emap:
                    continue
                string = [head]
                while (b := fmap.get(string[-1])) is not None:
                    string.append(b)
                last = len(string) - 1
                for k, b in enumerate(string):
                    table[b] = (k, last - k)
            self._strings[i] = table
        return table

    def validate(self) -> None:
        r = self.datum.rank
        for b in self.elements:
            if len(self.wt(b).coords) != r:
                raise ValueError(f"{self.name}: weight of {b!r} has wrong rank")
        for i, alpha in zip(self.datum.indices, self.datum.simple_root_weights):
            for b, b2 in self._f[i].items():
                if b not in self or b2 not in self:
                    raise ValueError(f"{self.name}: operator {i} touches unknown elements")
                if self.wt(b2) != self.wt(b) - alpha:
                    raise ValueError(
                        f"{self.name}: lowering {i} does not shift the weight by -alpha_{i}")
        # every i-string has a top: a cycle of lowering i would need
        # wt(b) = wt(b) - k alpha_i, which the weight check above refuses
        for i in self.datum.indices:
            strings = self.string_lengths(i)
            for b in self.elements:
                eps, phi = strings[b]
                if phi - eps != self.datum.pairing(self.wt(b), i):
                    raise ValueError(
                        f"{self.name}: phi - epsilon mismatch at {b!r}, index {i}")

    # -- structure ----------------------------------------------------------

    def highest_weight_elements(self) -> tuple:
        """The elements no raising operator reaches: epsilon_i(b) = 0 for all
        i means that b is the image of no lowering operator."""
        raised = [self._raising(i) for i in self.datum.indices]
        return tuple(b for b in self.elements
                     if not any(b in emap for emap in raised))

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
        seen = {b}
        order = [b]
        for x in order:   # `order` grows while the loop walks it
            for step in maps:
                y = step.get(x)
                if y is not None and y not in seen:
                    seen.add(y)
                    order.append(y)
        return order

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
    """The lowering operator f_i of a tensor product, prepared for
    `_tensor_apply`.

    This is the signature rule (Bump-Schilling, *Crystal Bases*, 2017): the
    factor b contributes epsilon_i(b) signs - followed by phi_i(b) signs +,
    and each - cancels the nearest uncancelled + to its left.  Lowering acts
    on the factor of the first uncancelled +.  Hong-kang reads the factors
    left to right, opposite reads them right to left.  The rule is (scan,
    lowering): the (position, string lengths) of the factors in reading
    order, and the lowering map f_i of each factor.  No raising rule is
    needed: a product raises through its inverted lowering maps, like every
    other `Crystal`.
    """
    positions = range(len(factors))
    if conv is not Convention.HONG_KANG:
        positions = reversed(positions)
    scan = tuple((k, factors[k].string_lengths(i)) for k in positions)
    return scan, tuple(c._f[i] for c in factors)


def _tensor_apply(rule, elem):
    """Lower a tensor element by a rule of `_tensor_rule`; None encodes 0.

    One pass in reading order keeps `acc`, the number of uncancelled signs
    + so far, and `at`, the position the operator would act on.
    """
    scan, lowering = rule
    acc = 0
    at = -1
    for k, strings in scan:
        eps, phi = strings[elem[k]]
        if eps >= acc:
            acc = phi
            at = k if phi else -1
        else:
            acc += phi - eps
    if at < 0:
        return None
    return elem[:at] + (lowering[at][elem[at]],) + elem[at + 1:]


def _check_factors(factors):
    factors = tuple(factors)
    if not factors:
        raise ValueError("tensor products need at least one factor")
    datum = factors[0].datum
    if any(c.datum != datum for c in factors):
        raise ValueError("tensor factors live over different Cartan data")
    return factors, datum


def tensor(factors, convention=Convention.HONG_KANG) -> Crystal:
    """The full tensor product crystal; element ids are tuples of factor ids.

    Refuses, before building anything, a product over MAX_CRYSTAL_SIZE.
    """
    factors, datum = _check_factors(factors)
    conv = as_convention(convention)
    name = "(" + " x ".join(c.name for c in factors) + ")"
    _refuse_over_limit(math.prod(map(len, factors)), f"the product {name}")
    elements = list(iterproduct(*[c.elements for c in factors]))
    lowering = {i: {} for i in datum.indices}
    for i in datum.indices:
        rule = _tensor_rule(factors, conv, i)
        for elem in elements:
            res = _tensor_apply(rule, elem)
            if res is not None:
                lowering[i][elem] = res
    return Crystal(datum, elements, None, lowering, name=name, factors=factors)


def tensor_component(factors, convention=Convention.HONG_KANG) -> Crystal:
    """The Cartan component of a tensor product, built lazily.

    The component of the product of highest weight elements is a highest
    weight crystal, so the lowering operators alone reach all of it from that
    element, breadth first.  The component stores its elements and lowering
    maps; weights are sums over the factors and raising maps are inverted on
    first use, as for every crystal with a factor list.  Only the component is
    ever materialized, so large ambient products cost nothing.
    """
    factors, datum = _check_factors(factors)
    conv = as_convention(convention)
    rules = [(i, _tensor_rule(factors, conv, i)) for i in datum.indices]
    seed = tuple(c.hw_element() for c in factors)
    # `seen` maps each element to the one tuple that `order` and the maps
    # share; `order` grows while the loop walks it, which makes it a queue
    seen = {seed: seed}
    order = [seed]
    lowering = {i: {} for i in datum.indices}
    for elem in order:
        for i, rule in rules:
            down = _tensor_apply(rule, elem)
            if down is None:
                continue
            kept = seen.setdefault(down, down)
            if kept is down:
                order.append(down)
            lowering[i][elem] = kept
    del seen  # not needed by the crystal, which builds its own index
    name = "cartan(" + " x ".join(c.name for c in factors) + ")"
    return Crystal(datum, order, None, lowering, name=name, factors=factors)


def cartan_component(crystal: Crystal) -> Crystal:
    """The component of the product of highest weight elements, found by
    breadth-first search over all operators."""
    if crystal.factors is None:
        raise ValueError(f"{crystal.name} has no recorded factor list")
    if not crystal.factors:
        return crystal
    elems = crystal.component_elements(
        tuple(c.hw_element() for c in crystal.factors))
    keep = set(elems)
    lowering = {i: {x: y for x, y in fmap.items() if x in keep}
                for i, fmap in crystal._f.items()}
    return Crystal(crystal.datum, elems, None, lowering,
                   name=f"{crystal.name}.comp", factors=crystal.factors)


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

    Propagates from highest weight elements along lowering edges; raises if
    the crystals are not isomorphic.
    """
    h1, h2 = c1.hw_element(), c2.hw_element()
    if c1.wt(h1) != c2.wt(h2):
        raise ValueError(f"highest weights differ: {c1.name} vs {c2.name}")
    if len(c1) != len(c2):
        raise ValueError(f"sizes differ: {c1.name} vs {c2.name}")
    mapping = {h1: h2}
    queue = deque([h1])
    while queue:
        x = queue.popleft()
        y = mapping[x]
        for i in c1.datum.indices:
            x2, y2 = c1.f(i, x), c2.f(i, y)
            if (x2 is None) != (y2 is None):
                raise ValueError(f"{c1.name} and {c2.name} are not isomorphic")
            if x2 is None:
                continue
            if x2 in mapping:
                if mapping[x2] != y2:
                    raise ValueError(f"{c1.name} and {c2.name} are not isomorphic")
            else:
                mapping[x2] = y2
                queue.append(x2)
    if len(mapping) != len(c1):
        raise ValueError(f"{c1.name} is not connected")
    return mapping


def cartan_braiding(c1: Crystal, c2: Crystal,
                    convention=Convention.HONG_KANG) -> dict:
    """The braiding c1 (x) c2 -> c2 (x) c1 as a pair table; None encodes 0.

    It is the canonical isomorphism between the Cartan components of the two
    products and zero on every other element.
    """
    conv = as_convention(convention)
    p12 = tensor((c1, c2), conv)
    comp12 = cartan_component(p12)
    comp21 = tensor_component((c2, c1), conv)
    iso = canonical_isomorphism(comp12, comp21)
    return {pair: iso.get(pair) for pair in p12.elements}


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
    between fundamental crystals, and the chain plans of each factor list
    that `rightends.chain_ends` runs, one tuple per factor list.
    """

    def __init__(self, datum: RootDatum, convention=Convention.HONG_KANG):
        self.datum = datum
        self.convention = as_convention(convention)
        self._fund: dict[int, Crystal] = {}
        self._components: dict[tuple, Crystal] = {}
        self._fund_indices: dict[tuple, tuple[int, ...]] = {}
        self._braidings: dict[tuple, dict] = {}
        self._chains: dict[tuple, tuple] = {}

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
        if isinstance(coords, Weight):
            return coords
        return Weight(tuple(int(c) for c in coords))

    @property
    def rho(self) -> Weight:
        return self.datum.rho()

    def fundamental_indices(self, lam) -> tuple[int, ...]:
        """The sorted multiset of fundamental indices summing to lam."""
        key = lam.coords if isinstance(lam, Weight) else tuple(lam)
        funds = self._fund_indices.get(key)
        if funds is None:
            lam = self.weight(lam)
            if not self.datum.is_dominant(lam):
                raise ValueError(f"{lam} is not dominant")
            funds = tuple(i for i in self.datum.indices
                          for _ in range(lam.coords[i - 1]))
            self._fund_indices[key] = funds
        return funds

    def cartan_of(self, funds: tuple[int, ...]) -> Crystal:
        """The Cartan component of a product of fundamentals, built lazily."""
        funds = tuple(funds)
        if funds not in self._components:
            if not funds:
                self._components[funds] = trivial_crystal(self.datum)
            else:
                self._components[funds] = tensor_component(
                    [self.fundamental(i) for i in funds], self.convention)
        return self._components[funds]

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

    def braiding(self, i: int, j: int) -> dict:
        """Braiding table between fundamental crystals i and j.

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
