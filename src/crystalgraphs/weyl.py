"""Weyl groups: generation, lengths, reflections, Bruhat and weak graphs.

Group elements are identified by their fingerprint w(rho).  Since rho is a
regular weight this action is faithful, so no word rewriting is needed; each
element stores one reduced word found during breadth-first generation.

Generation also records the neighbour table w -> (s_1 w, ..., s_r w).  All
later arithmetic walks that table, one letter at a time; no weight is
touched once the group is built.
"""

from __future__ import annotations

from .graphs import ColoredDigraph, Edge
from .rootdata import RootDatum, RootVector, Value, Weight


# Generation refuses a group past this size, which any datum of infinite type
# reaches.
MAX_GROUP_SIZE = 200_000


class WeylElement(Value):
    """A group element: its fingerprint w(rho), which alone decides equality,
    and one reduced word."""

    def __init__(self, fingerprint: Weight, word: tuple[int, ...]):
        object.__setattr__(self, "fingerprint", fingerprint)
        object.__setattr__(self, "word", word)

    def _key(self) -> tuple:
        return (self.fingerprint,)

    @property
    def length(self) -> int:
        return len(self.word)

    def __repr__(self):
        return "e" if not self.word else "*".join(f"s{i}" for i in self.word)


class WeylGroup:
    def __init__(self, datum: RootDatum, elements, by_fp, left, reflection_roots):
        self.datum = datum
        self.elements = elements
        self._by_fp = by_fp
        self._left = left
        self._reflection_roots = reflection_roots
        self._bruhat: ColoredDigraph | None = None
        self._weak: dict[str, ColoredDigraph] = {}
        self._reach: dict[WeylElement, frozenset] | None = None

    @classmethod
    def generate(cls, datum: RootDatum) -> "WeylGroup":
        """Breadth-first closure over fingerprints, starting from the identity.

        Words grow by left multiplication, so every stored word is reduced.
        Each element's row of left neighbours s_i w is kept as it is found.
        """
        rho = datum.rho()
        identity = WeylElement(rho, ())
        by_fp = {rho: identity}
        left: dict[WeylElement, tuple[WeylElement, ...]] = {}
        frontier = [identity]
        while frontier:
            nxt = []
            for w in frontier:
                row = []
                for i in datum.indices:
                    fp = datum.reflect_weight(i, w.fingerprint)
                    el = by_fp.get(fp)
                    if el is None:
                        el = by_fp[fp] = WeylElement(fp, (i,) + w.word)
                        nxt.append(el)
                    row.append(el)
                left[w] = tuple(row)
            if len(by_fp) > MAX_GROUP_SIZE:
                raise ValueError(f"group size exceeds cap {MAX_GROUP_SIZE}; "
                                 "is the datum finite type?")
            frontier = nxt
        elements = tuple(sorted(by_fp.values(), key=lambda w: (w.length, w.word)))
        # the reflection t_gamma, keyed to its positive root gamma
        reflection_roots = {by_fp[datum.reflect_by_root(gamma, rho)]: gamma
                            for gamma in datum.positive_roots()}
        return cls(datum, elements, by_fp, left, reflection_roots)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, w):
        # only the canonical instances created during generation belong;
        # this also rejects elements of other same-rank groups
        return (isinstance(w, WeylElement)
                and self._by_fp.get(w.fingerprint) is w)

    def _check(self, w: WeylElement) -> None:
        if w not in self:
            raise ValueError(f"{w!r} is not an element of this group")

    @property
    def identity(self) -> WeylElement:
        return self.elements[0]

    def simple(self, i: int) -> WeylElement:
        return self.element_from_word((i,))

    # -- arithmetic on the neighbour table --------------------------------------

    def _walk(self, word, w: WeylElement) -> WeylElement:
        """s_{a_1} ... s_{a_k} w for word = (a_1, ..., a_k), rightmost letter first."""
        left = self._left
        for i in reversed(word):
            w = left[w][i - 1]
        return w

    def element_from_word(self, word) -> WeylElement:
        word = tuple(word)
        rank = self.datum.rank
        for i in word:
            if not 1 <= i <= rank:
                raise IndexError(f"index {i} outside 1..{rank}")
        return self._walk(word, self.identity)

    def multiply(self, u: WeylElement, w: WeylElement) -> WeylElement:
        self._check(u)
        self._check(w)
        return self._walk(u.word, w)

    # -- reflections ---------------------------------------------------------

    def reflection_roots(self) -> dict[WeylElement, RootVector]:
        """The reflections t_gamma, keyed to their positive roots."""
        return self._reflection_roots

    def reflections(self) -> tuple[WeylElement, ...]:
        table = self._reflection_roots
        return tuple(sorted(table, key=lambda t: table[t].coords))

    # -- Bruhat and weak graphs -----------------------------------------------

    def bruhat_graph(self) -> ColoredDigraph:
        """Edges u -> ut for t a reflection with l(ut) > l(u), colored by the
        root of t; built on first use."""
        if self._bruhat is None:
            edges = []
            refl = self._reflection_roots
            reflections = self.reflections()
            for u in self.elements:
                for t in reflections:
                    w = self.multiply(u, t)
                    if w.length > u.length:
                        edges.append(Edge(u, w, refl[t]))
            self._bruhat = ColoredDigraph(self.elements, edges, name="bruhat")
        return self._bruhat

    def weak_graph(self, side: str) -> ColoredDigraph:
        """Edges u -> u s_i (side "right") or u -> s_i u (side "left") with
        l(w) > l(u), colored by i; built on first use."""
        if side not in ("right", "left"):
            raise ValueError(f'side must be "right" or "left", not {side!r}')
        if side not in self._weak:
            edges = []
            for u in self.elements:
                for i in self.datum.indices:
                    s = self.simple(i)
                    w = self.multiply(u, s) if side == "right" else self.multiply(s, u)
                    if w.length > u.length:
                        edges.append(Edge(u, w, i))
            self._weak[side] = ColoredDigraph(self.elements, edges,
                                              name=f"{side}_weak")
        return self._weak[side]

    def bruhat_leq(self, u: WeylElement, w: WeylElement) -> bool:
        """u <= w in the Bruhat order, via reachability in the Bruhat graph."""
        self._check(u)
        self._check(w)
        if self._reach is None:
            succ: dict[WeylElement, list[WeylElement]] = {x: [] for x in self.elements}
            for e in self.bruhat_graph().edges:
                succ[e.src].append(e.dst)
            reach: dict[WeylElement, frozenset] = {}
            for x in reversed(self.elements):
                acc = {x}
                for y in succ[x]:
                    acc.update(reach[y])
                reach[x] = frozenset(acc)
            self._reach = reach
        return w in self._reach[u]
