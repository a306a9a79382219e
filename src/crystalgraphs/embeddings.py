"""Embeddings of Bruhat-type graphs into the higher-rank graph.

The right weak graph embeds into the skeleton (uniquely, which a brute-force
search over color- and incidence-preserving injections confirms); the strong
Bruhat graph embeds into the whole k-graph for every compatible coloring.

The compatible colorings are a product of independent per-edge pools of
weights, so "every coloring embeds" is checked once per (edge, color) pair:
every condition of an embedding is local to one pair except edge injectivity,
and two edges reach the same path only if they share a target and a color.
`check_bruhat_colorings` makes that pass; `embed_bruhat` embeds one coloring.
"""

from __future__ import annotations

import math
from itertools import product as iterproduct
from typing import Callable, Iterator

from .crystal import extremal_element
from .graphs import Edge
from .kgraph import KGraph, KPath
from .rootdata import RootVector, Weight


class GraphEmbedding:
    """An injective colored-graph map: Weyl vertices and edges to the k-graph."""

    def __init__(self, vertex_map: dict, edge_map: dict):
        self.vertex_map = vertex_map
        self.edge_map = edge_map

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.vertex_map, self.edge_map) == (other.vertex_map, other.edge_map)
        return NotImplemented

    def __repr__(self) -> str:
        return f"GraphEmbedding(vertex_map={self.vertex_map!r}, edge_map={self.edge_map!r})"


def _check_embedding(kg: KGraph, emb: GraphEmbedding, degree_of) -> None:
    """Validate injectivity, incidence, and degrees; raise on any failure."""
    images = list(emb.vertex_map.values())
    if len(set(images)) != len(images):
        raise ValueError("vertex map is not injective")
    paths = list(emb.edge_map.values())
    if len(set(paths)) != len(paths):
        raise ValueError("edge map is not injective")
    for edge, p in emb.edge_map.items():
        _check_edge(kg, edge, p, degree_of(edge), emb.vertex_map)


def _check_edge(kg: KGraph, edge: Edge, p: KPath, degree: Weight,
                vertex_map: dict) -> None:
    """Validate the degree, range and source of one edge's path."""
    if p.degree != degree.coords:
        raise ValueError(f"edge {edge} maps to a path of the wrong degree")
    if kg.range(p) != vertex_map[edge.dst]:
        raise ValueError(f"edge {edge} maps to a path with the wrong range")
    if kg.source(p) != vertex_map[edge.src]:
        raise ValueError(f"edge {edge} maps to a path with the wrong source")


def embed_right_weak(kg: KGraph) -> GraphEmbedding:
    """w -> vertex of w; edge w -> w s_i to the path (vertex(w s_i), b_{w omega_i})."""
    edge_map = {}
    for edge in kg.weyl_group.weak_graph("right").edges:
        i = edge.color
        elem = (kg.weyl_vertices[edge.src][i - 1],)
        omega = kg.ctx.datum.fundamental_weight(i)
        edge_map[edge] = kg.path(kg.weyl_vertices[edge.dst], elem, omega)
    emb = GraphEmbedding(dict(kg.weyl_vertices), edge_map)
    _check_embedding(kg, emb, lambda e: kg.ctx.datum.fundamental_weight(e.color))
    return emb


def count_weak_embeddings(kg: KGraph, side: str = "right") -> int:
    """Count the colored-graph embeddings of a weak Bruhat graph into the
    skeleton, over the canonical vertex identification w -> vertex of w.

    Weak graph and skeleton share their vertex set through that injection,
    so an embedding is an assignment of a matching skeleton edge (same
    endpoints, same color) to every weak edge; the count is the number of
    such assignments.  Without pinning the vertices the count degenerates:
    relabelings of same-length vertices create extra abstract injections
    that correspond to nothing in the group.  `side` is "right" or "left".
    """
    graph = kg.weyl_group.weak_graph(side)
    multiplicity = kg.skeleton().edge_multiset()
    vertex_map = kg.weyl_vertices
    total = 1
    for e in graph.edges:
        total *= multiplicity.get(
            (vertex_map[e.src], vertex_map[e.dst], e.color), 0)
        if total == 0:
            break
    return total


# -- the strong Bruhat graph ----------------------------------------------------

def edge_candidates(kg: KGraph, root: RootVector, bound) -> tuple[Weight, ...]:
    """Dominant weights up to `bound` whose support contains the root's."""
    datum = kg.ctx.datum
    support = datum.supp_root(root)
    ranges = []
    for i in datum.indices:
        low = 1 if i in support else 0
        ranges.append(range(low, bound[i - 1] + 1))
    return tuple(Weight(coords) for coords in iterproduct(*ranges))


class CompatibleColorings:
    """The compatible colorings of the Bruhat graph, as a lazy product.

    A coloring picks one weight from each edge's pool; iterating yields the
    colorings one at a time and nothing is materialized.  Edges of one root
    share one pool object.  `count` is exact at any size; `len` works while
    it fits an index (A3 at bound (1,1,1) has 2**96 colorings).
    """

    def __init__(self, edges: tuple[Edge, ...],
                 pools: tuple[tuple[Weight, ...], ...]):
        self.edges = edges
        self.pools = pools

    @property
    def count(self) -> int:
        return math.prod(len(pool) for pool in self.pools)

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[dict]:
        for combo in iterproduct(*self.pools):
            yield dict(zip(self.edges, combo))


def enumerate_compatible_colorings(kg: KGraph, bound) -> CompatibleColorings:
    """All per-edge weight assignments satisfying the support condition.

    A pool depends only on the edge's root, so it is built once per positive
    root (every Bruhat edge is colored by one) and shared by its edges.
    """
    pools = {root: edge_candidates(kg, root, bound)
             for root in kg.ctx.datum.positive_roots()}
    edges = kg.weyl_group.bruhat_graph().edges
    return CompatibleColorings(edges, tuple(pools[e.color] for e in edges))


def _bruhat_path(kg: KGraph, vertex_map: dict, edge: Edge,
                 lam: Weight) -> KPath:
    """The path of color lam for the edge w -> wt: (vertex(wt), b_{w lam})."""
    datum = kg.ctx.datum
    if not datum.supp_root(edge.color) <= datum.supp_weight(lam):
        raise ValueError(f"coloring is not compatible at edge {edge}")
    elem = extremal_element(kg.ctx.weight_crystal(lam), edge.src)
    return kg.path(vertex_map[edge.dst], elem, lam)


def embed_bruhat(kg: KGraph, coloring: dict) -> GraphEmbedding:
    """Edge w -> wt goes to the path (vertex(wt), b_{w c(e)}); validated."""
    edge_map = {e: _bruhat_path(kg, kg.weyl_vertices, e, coloring[e])
                for e in kg.weyl_group.bruhat_graph().edges}
    emb = GraphEmbedding(dict(kg.weyl_vertices), edge_map)
    _check_embedding(kg, emb, lambda e: coloring[e])
    return emb


def check_bruhat_colorings(kg: KGraph, colorings: CompatibleColorings,
                           check: Callable[..., None]) -> None:
    """Check that every coloring in `colorings` passes `embed_bruhat`.

    `check(ok, fmt, *args)` is called as `Report.check` is: once for the
    injectivity of the vertex map, once per (edge, color) pair for its path
    (support condition, existence, degree, range, source), and once per path
    reached, which fails when two distinct edges reach it.  The pools are
    independent, so a condition fails here exactly when some coloring of a
    nonempty product fails it; an empty product has nothing to check.
    """
    if not colorings.count:
        return
    vertex_map = kg.weyl_vertices
    check(len(set(vertex_map.values())) == len(vertex_map),
          "vertex map is not injective")
    reached: dict[KPath, list[Edge]] = {}
    for edge, pool in zip(colorings.edges, colorings.pools):
        for lam in pool:
            try:
                p = _bruhat_path(kg, vertex_map, edge, lam)
                reached.setdefault(p, []).append(edge)
                _check_edge(kg, edge, p, lam, vertex_map)
                check(True, "")
            except ValueError as exc:
                check(False, "Bruhat edge %s, color %s: %s",
                      edge, lam.coords, exc)
    for p, edges in reached.items():
        check(len(edges) == 1,
              "edge map is not injective: %s all map to %s", edges, p)
