"""The higher-rank graph of a crystal context.

Vertices are the right-end tuples of B(rho); a path is a pair (vertex,
element) whose degree is the highest weight of the element's crystal,
identified with a vector of nonnegative integers.  Sources, composition,
the skeleton, exhaustive enumeration and the factorization axiom live here.
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import product as iterproduct
from operator import contains, getitem
from typing import NamedTuple

from .crystal import (Crystal, CrystalContext, check_crystal_size,
                      extremal_element, tensor_component)
from .graphs import ColoredDigraph, Edge
from .rightends import (apply_plan, braid_plan, in_cartan_component,
                        right_end_chain, right_end_tuple, sorting_word)
from .weyl import WeylElement, WeylGroup


class KPath(NamedTuple):
    """A path (v, b): range vertex v, element b of B(degree), flat-tuple form."""

    vertex: tuple
    element: tuple
    degree: tuple[int, ...]


# the codes of a product-table slot that holds no target position
UNSET, OFF = -1, -2


class ProductTable(NamedTuple):
    """The products of B(deg1) with B(deg2): the braid plan that sorts their
    factor lists, the three realizations, the summed degree, and one slot per
    element pair, in rows by the left element: UNSET until computed, OFF
    when the product left the Cartan component, else its position in
    `target`."""

    plan: tuple
    left: Crystal
    right: Crystal
    target: Crystal
    degree: tuple[int, ...]
    width: int      # |right|, the length of a row of slots
    slots: array


class KGraph:
    def __init__(self, ctx: CrystalContext):
        """Builds B(rho) once, outside the context's cache, reads each
        element's right-end tuple, and keeps only the vertices and each
        element's vertex label; the crystal is dropped before any path is
        built, and `fiber` rebuilds it through the context on first use."""
        self.ctx = ctx
        self.datum = ctx.datum
        check_crystal_size(ctx.datum, ctx.rho)
        rho = tensor_component([ctx.fundamental(i) for i in ctx.datum.indices],
                               ctx.convention)
        # labels[k]: the vertex of element k, as its place in order of first sight
        first_seen: dict[tuple, int] = {}
        labels = array("i", [0]) * len(rho)
        for k, c in enumerate(rho.elements):
            labels[k] = first_seen.setdefault(right_end_tuple(ctx, c),
                                              len(first_seen))
        del rho
        self._labels = labels
        self._first_seen = tuple(first_seen)
        self._vertices = tuple(sorted(first_seen, key=str))
        # each vertex to itself, so that a tuple equal to a vertex can be
        # swapped for the one object every path and edge shares
        self._vertex = {v: v for v in self._vertices}
        self._fibers: dict[tuple, tuple] | None = None
        self._rows: dict[tuple, tuple[dict, ...]] = {}
        self._sources: dict[KPath, tuple] = {}
        self._paths: dict[tuple, tuple[KPath, ...]] = {}
        self._ranges: dict[tuple, dict[tuple, list]] = {}
        self._products: dict[tuple, ProductTable] = {}
        self._skeleton: ColoredDigraph | None = None

    # -- vertices -----------------------------------------------------------

    def vertices(self) -> tuple[tuple, ...]:
        return self._vertices

    def fiber(self, v: tuple) -> tuple:
        """All elements of B(rho) whose right-end tuple is v, in the order of
        `ctx.rho_crystal().elements`; the fibers are grouped on first use by
        the labels read at construction, so no right end is computed twice."""
        if self._fibers is None:
            elements = self.ctx.rho_crystal().elements
            if len(elements) != len(self._labels):
                raise RuntimeError(
                    f"B(rho) has {len(elements)} elements, but "
                    f"{len(self._labels)} were labelled at construction")
            groups: list[list] = [[] for _ in self._first_seen]
            for c, label in zip(elements, self._labels):
                groups[label].append(c)
            self._fibers = dict(zip(self._first_seen, map(tuple, groups)))
        return self._fibers[v]

    @cached_property
    def weyl_group(self) -> WeylGroup:
        return WeylGroup.generate(self.datum)

    def weyl_vertex(self, w: WeylElement) -> tuple:
        """The vertex of a Weyl group element: its tuple of extremal factors."""
        v = tuple(extremal_element(self.ctx.fundamental(i), w)
                  for i in self.datum.indices)
        vertex = self._vertex.get(v)
        if vertex is None:
            raise RuntimeError(f"extremal tuple {v!r} is not a vertex")
        return vertex

    @cached_property
    def weyl_vertices(self) -> dict[WeylElement, tuple]:
        """The map w -> vertex of w over the whole Weyl group; read-only."""
        return {w: self.weyl_vertex(w) for w in self.weyl_group}

    @cached_property
    def _weyl_labels(self) -> dict[tuple, WeylElement]:
        labels = {v: w for w, v in self.weyl_vertices.items()}
        if len(labels) != len(self.weyl_vertices):
            raise RuntimeError("Weyl vertex map is not injective")
        return labels

    def weyl_label(self, v: tuple) -> WeylElement | None:
        """The Weyl group element mapping to v, when there is one."""
        return self._weyl_labels.get(v)

    def vertex_leq(self, v: tuple, u: tuple) -> bool:
        """Componentwise crystal order: each v_i reachable from u_i by lowering."""
        return all(self.ctx.fundamental(i).leq(v[i - 1], u[i - 1])
                   for i in self.datum.indices)

    # -- paths ---------------------------------------------------------------

    def _row(self, lam, b) -> tuple[dict, ...] | None:
        """Per index i, x -> R(x (x) b) over the x in B(w_i) with x (x) b in
        the Cartan component; None, and not stored, when b is not in B(lam),
        unhashable parts included.

        For c in the fiber of v, chain i on c (x) b is chain i on c, which
        ends in v_i, followed by chain 1 on v_i (x) b.  So (v, b) is a path
        exactly when every v_i (x) b is a Cartan element, and its source is
        (R(v_1 (x) b), ..., R(v_r (x) b)).
        """
        key = (lam.coords, b)
        try:
            row = self._rows.get(key)
        except TypeError:  # an unhashable entry is no element of B(lam)
            return None
        if row is None:
            ctx = self.ctx
            if b not in ctx.weight_crystal(lam):
                return None
            lam_funds = ctx.fundamental_indices(lam)
            row = []
            for i in self.datum.indices:
                funds = (i,) + lam_funds
                ends = {}
                for x in ctx.fundamental(i).elements:
                    elem = (x,) + b
                    if in_cartan_component(ctx, funds, elem):
                        ends[x] = right_end_chain(ctx, funds, elem, 1)
                row.append(ends)
            row = self._rows[key] = tuple(row)
        return row

    def is_path(self, v: tuple, element: tuple, degree) -> bool:
        lam = self.ctx.weight(degree)
        try:
            if v not in self._vertex:
                return False
        except TypeError:  # an unhashable v is no vertex
            return False
        row = self._row(lam, tuple(element))
        return row is not None and all(map(contains, row, v))

    def path(self, v: tuple, element: tuple, degree) -> KPath:
        lam = self.ctx.weight(degree)
        if not self.is_path(v, element, lam):
            raise ValueError(f"({v!r}, {element!r}) is not a path of degree {lam.coords}")
        return KPath(v, tuple(element), lam.coords)

    def range(self, p: KPath) -> tuple:
        return p.vertex

    def source(self, p: KPath) -> tuple:
        """Componentwise right ends of v_i (x) b; memoized, and recorded for
        every path that `paths_of_degree` finds; ValueError if `is_path` refuses p."""
        try:
            known = p in self._sources
        except TypeError:  # an unhashable part: is_path refuses p below
            known = False
        if not known:
            if not self.is_path(*p):
                raise ValueError(f"{p} is not a valid path")
            self._record_source(p, self._row(self.ctx.weight(p.degree), p.element))
        return self._sources[p]

    def _record_source(self, p: KPath, row: tuple[dict, ...]) -> None:
        """Store the source of the path p, read off its element's end row, as
        the vertex object the k-graph holds."""
        v = tuple(map(getitem, row, p.vertex))
        vertex = self._vertex.get(v)
        if vertex is None:
            raise RuntimeError(f"source {v!r} of {p} is not a vertex")
        self._sources[p] = vertex

    # -- composition ----------------------------------------------------------

    def _product_table(self, deg1: tuple, deg2: tuple) -> ProductTable:
        """The products of B(deg1) with B(deg2), one slot per element pair.

        The plan sorts funds(deg1) + funds(deg2) by adjacent braidings.  Each
        braiding is the canonical isomorphism between Cartan components, so
        the plan maps the Cartan component of the product onto the sorted
        realization of B(deg1 + deg2) and takes every other element to 0 or
        outside that realization.  Slots are filled by `_product`.
        """
        key = (deg1, deg2)
        entry = self._products.get(key)
        if entry is None:
            ctx = self.ctx
            funds = ctx.fundamental_indices(deg1) + ctx.fundamental_indices(deg2)
            degree = tuple(a + b for a, b in zip(deg1, deg2))
            left, right = ctx.weight_crystal(deg1), ctx.weight_crystal(deg2)
            target = ctx.weight_crystal(degree)
            code = "h" if len(target) < 32767 else "i"
            entry = self._products[key] = ProductTable(
                braid_plan(ctx, funds, sorting_word(funds)), left, right,
                target, degree, len(right),
                array(code, [UNSET]) * (len(left) * len(right)))
        return entry

    def _product(self, entry: ProductTable, i1: int, i2: int) -> int:
        """The position in entry.target of the product of elements i1 of
        entry.left and i2 of entry.right; raises if it left the Cartan
        component.  Each slot runs the plan at most once."""
        k = i1 * entry.width + i2
        t = entry.slots[k]
        if t < 0:
            if t == UNSET:
                elem = apply_plan(entry.plan, entry.left.elements[i1]
                                  + entry.right.elements[i2])
                pos = None if elem is None else entry.target.position(elem)
                t = entry.slots[k] = OFF if pos is None else pos
            if t == OFF:
                raise RuntimeError(
                    f"{entry.left.elements[i1]!r} (x) {entry.right.elements[i2]!r} "
                    f"left the Cartan component of B{entry.degree}")
        return t

    def compose(self, p: KPath, q: KPath) -> KPath:
        """(p, q) -> (range p, projection of b_p (x) b_q); needs s(p) = r(q),
        and q need only be an element of B(deg q) at s(p), a path or not."""
        if self.source(p) != q.vertex:
            raise ValueError("paths are not composable: source(p) != range(q)")
        entry = self._product_table(p.degree, q.degree)
        i2 = entry.right.position(q.element)
        if i2 is None:
            raise ValueError(f"{q.element!r} is not an element of B{q.degree}")
        t = self._product(entry, entry.left.position(p.element), i2)
        return KPath(p.vertex, entry.target.elements[t], entry.degree)

    # -- enumeration ------------------------------------------------------------

    def paths_of_degree(self, degree) -> tuple[KPath, ...]:
        """All paths of the degree, vertex by vertex; each path's source is
        recorded from the end row that accepted it."""
        lam = self.ctx.weight(degree)
        if lam.coords not in self._paths:
            crystal = self.ctx.weight_crystal(lam)
            found = []
            for v in self._vertices:
                for b in crystal.elements:
                    if self.is_path(v, b, lam):
                        p = KPath(v, b, lam.coords)
                        self._record_source(p, self._rows[(lam.coords, b)])
                        found.append(p)
            self._paths[lam.coords] = tuple(found)
        return self._paths[lam.coords]

    def _paths_by_range(self, degree) -> dict[tuple, list]:
        """The paths of the degree grouped by range vertex, in enumeration
        order, each as (path, position of its element in B(degree), source);
        built once per degree."""
        lam = self.ctx.weight(degree)
        index = self._ranges.get(lam.coords)
        if index is None:
            position = self.ctx.weight_crystal(lam).position
            index = self._ranges[lam.coords] = {}
            for p in self.paths_of_degree(lam):
                index.setdefault(p.vertex, []).append(
                    (p, position(p.element), self._sources[p]))
        return index

    def degrees_up_to(self, bound) -> tuple[tuple[int, ...], ...]:
        bound = tuple(bound)
        ranges = [range(b + 1) for b in bound]
        return tuple(sorted(iterproduct(*ranges), key=lambda d: (sum(d), d)))

    def enumerate_paths(self, bound) -> tuple[KPath, ...]:
        """All paths of degree componentwise at most `bound`."""
        out: list[KPath] = []
        for d in self.degrees_up_to(bound):
            out.extend(self.paths_of_degree(d))
        return tuple(out)

    # -- skeleton -----------------------------------------------------------------

    def skeleton(self) -> ColoredDigraph:
        """Vertices plus the degree-omega_i paths as i-colored edges.

        Parallel edges are kept distinct by their defining element; built once.
        """
        if self._skeleton is None:
            edges = []
            for i in self.datum.indices:
                for p in self.paths_of_degree(self.datum.fundamental_weight(i)):
                    edges.append(Edge(self._sources[p], p.vertex, i, p.element))
            self._skeleton = ColoredDigraph(self._vertices, edges, name="skeleton")
        return self._skeleton

    # -- the factorization axiom ------------------------------------------------

    def factorization_check(self, p: KPath, m, n) -> tuple[KPath, KPath]:
        """The unique (g, h) with degrees (m, n) and compose(g, h) = p.

        Searches exhaustively; raises if the pair is missing or ambiguous,
        either of which would falsify the factorization axiom.
        """
        m, n = tuple(m), tuple(n)
        if tuple(a + b for a, b in zip(m, n)) != p.degree:
            raise ValueError(f"split {m} + {n} does not add up to {p.degree}")
        entry = self._product_table(m, n)
        want = entry.target.position(p.element)
        hs = self._paths_by_range(n)
        matches = []
        for g, ig, sg in self._paths_by_range(m).get(p.vertex, ()):
            for h, ih, _ in hs.get(sg, ()):
                if self._product(entry, ig, ih) == want:
                    matches.append((g, h))
        if len(matches) != 1:
            raise ValueError(
                f"{p} has {len(matches)} factorizations of type {m}+{n}; expected 1")
        return matches[0]
