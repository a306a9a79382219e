"""Right ends of crystal elements, computed by chains of adjacent braidings.

Elements of highest weight crystals are flat tuples in a product of
fundamental crystals, so every computation below reduces to the cached
pairwise braiding tables between fundamentals: flat arrays over the
positions of the two factors (`CrystalContext.braiding`).  A positional braid
word is built once per factor list as a plan (`braid_plan`) and applied to
elements by `apply_plan`, which reads each table at the positions of the two
labels it braids.  The n chains of a factor list are such plans too, cached
in the context per factor list; a chain moves one factor rightwards, so
`chain_ends` walks only that factor across the tables, for every chain in
one pass, on one move list per table that holds the moving factor's new
position alone (`_moves`).  Both runners refuse an element whose length is
not that of its factor list, or with a label outside its factor, so every
caller shares their checks.  The chains are the only
route here; the tests keep the inclusion B(lam) -> B(lam - mu) (x) B(mu) as
an independent second route to the same right ends.
"""

from __future__ import annotations

from operator import getitem
from typing import NamedTuple

from .crystal import CrystalContext, _is_listed


class Chains(NamedTuple):
    """The chains k = 1..n of a factor list, built once per context.

    Chain k moves factor k (1-based) rightmost; chain n has no step.
    `plans` holds the braid plan of each chain, for `apply_chain`.  For
    `chain_ends`, `index` holds the label -> position map of each factor and
    `walks` per chain the crossings (slot, moves, n_j) of the moving factor
    B(w_i) past the factor B(w_j) in that slot, with `moves` the move list
    of (i, j) (`_moves`), and the moving factor's elements.
    """

    plans: tuple
    index: tuple
    walks: tuple


def _moves(ctx: CrystalContext, i: int, j: int) -> list:
    """The move list of the braiding table (i, j), cached in the context:
    slot x * n_j + y holds the position x' of B(w_i)'s factor in the image
    y' (x) x' of x (x) y, or -1 for 0."""
    moves = ctx._moves.get((i, j))
    if moves is None:
        ni = len(ctx.fundamental(i))
        moves = ctx._moves[(i, j)] = [t % ni if t >= 0 else -1
                                      for t in ctx.braiding(i, j)]
    return moves


def _chains(ctx: CrystalContext, funds: tuple) -> Chains:
    """The chains of a factor list, cached in the context per factor list."""
    chains = ctx._chains.get(funds)
    if chains is None:
        n = len(funds)
        plans = tuple(braid_plan(ctx, funds, range(k - 1, n - 1))
                      for k in range(1, n + 1))
        walks = tuple(
            (tuple((q, _moves(ctx, i, j), len(ctx.fundamental(j)))
                   for q, j in enumerate(funds[k + 1:], k + 1)),
             ctx.fundamental(i).elements)
            for k, i in enumerate(funds))
        chains = ctx._chains[funds] = Chains(
            plans, tuple(ctx.fundamental(i).index for i in funds), walks)
    return chains


def _length_error(funds: tuple, elem) -> ValueError:
    return ValueError(f"expected a {len(funds)}-factor element, got {elem!r}")


def _positions(ctx: CrystalContext, funds: tuple, elem) -> tuple[Chains, list]:
    """The chains of funds and the position of each label of elem in its
    factor.  Refuses an element whose length is not that of funds, and one
    with a label outside its factor, naming the label and B(w_i)."""
    if len(elem) != len(funds):
        raise _length_error(funds, elem)
    chains = _chains(ctx, funds)
    try:
        return chains, list(map(getitem, chains.index, elem))
    except (KeyError, TypeError):   # a missing or an unhashable label
        for i, label, index in zip(funds, elem, chains.index):
            if not _is_listed(index, label):
                raise ValueError(f"{label!r} is not an element of B(w{i}), "
                                 f"in {elem!r}") from None
        raise


def apply_chain(ctx: CrystalContext, funds: tuple, elem, k: int):
    """Apply the adjacent braidings at positions k, k+1, ..., n-1 (1-based).

    Returns the moved element, or None as soon as a braiding gives 0.
    Every label is checked, also in a factor that the chain does not read.
    """
    if len(elem) != len(funds):
        raise _length_error(funds, elem)
    plans = _chains(ctx, funds).plans
    if not 1 <= k <= len(plans):
        raise IndexError(f"chain start {k} outside 1..{len(plans)}")
    try:
        moved = apply_plan(plans[k - 1], elem)
    except (KeyError, TypeError):   # a foreign label, named below
        moved = None
    # only chain 1 of two or more factors, run to its end, reads every label
    if moved is None or k > 1 or len(plans) == 1:
        _positions(ctx, funds, elem)
    return moved


def chain_ends(ctx: CrystalContext, funds: tuple, elem):
    """The right ends of the chains k = 1..n on elem, in order of k.

    None at the first chain that gives 0, which happens exactly when elem lies
    outside the Cartan component of the product of the factors `funds`.
    Chain k moves factor k past the original factors k+1..n, so only the
    moving factor's position is carried from move list to move list.
    """
    chains, pos = _positions(ctx, funds, elem)
    ends = []
    for x, (crossings, labels) in zip(pos, chains.walks):
        for q, moves, nj in crossings:
            x = moves[x * nj + pos[q]]
            if x < 0:
                return None
        ends.append(labels[x])
    return tuple(ends)


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


def braid_plan(ctx: CrystalContext, funds, positions) -> tuple:
    """The steps of a positional braid word on a factor list.

    The letter pos (0-based) braids the factors at pos and pos + 1 with the
    fundamental table of the indices standing there when the letter is read.
    Its step (pos, table, n_j, n_i, index_i, index_j, labels_j, labels_i)
    holds the flat table of (i, j), the sizes of B(w_j) and B(w_i), their
    label -> position maps and their elements.
    A plan depends on the factor list only, so it can be built once and
    applied to every element by `apply_plan`.
    """
    funds = list(funds)
    crystals = [ctx.fundamental(i) for i in funds]
    steps = []
    for pos in positions:
        i, j = funds[pos], funds[pos + 1]
        ci, cj = crystals[pos], crystals[pos + 1]
        steps.append((pos, ctx.braiding(i, j), len(cj), len(ci), ci.index,
                      cj.index, cj.elements, ci.elements))
        funds[pos], funds[pos + 1] = j, i
        crystals[pos], crystals[pos + 1] = crystals[pos + 1], crystals[pos]
    return tuple(steps)


def apply_plan(plan, elem):
    """Apply the steps of a braid plan to an element; None as soon as one gives 0.

    Each step reads its table at the positions of the two labels it braids,
    so a plan of few steps on a long element converts few labels.
    """
    elem = list(elem)
    for p, table, nj, ni, index_i, index_j, labels_j, labels_i in plan:
        t = table[index_i[elem[p]] * nj + index_j[elem[p + 1]]]
        if t < 0:
            return None
        elem[p] = labels_j[t // ni]
        elem[p + 1] = labels_i[t % ni]
    return tuple(elem)


def right_end_chain(ctx: CrystalContext, funds: tuple, elem, k: int):
    """The rightmost factor after the chain starting at position k; None for 0."""
    moved = apply_chain(ctx, funds, elem, k)
    return None if moved is None else moved[-1]


def in_cartan_component(ctx: CrystalContext, funds: tuple, elem) -> bool:
    """Cartan membership test: every chain k = 1..n-1 must stay nonzero."""
    return chain_ends(ctx, funds, elem) is not None


def right_end_tuple(ctx: CrystalContext, elem) -> tuple:
    """(R_1(b), ..., R_r(b)) for b a Cartan element of B(w1) (x) ... (x) B(wr).

    The chains that give the ends also decide membership (`chain_ends`).
    """
    ends = chain_ends(ctx, ctx.rho_indices, elem)
    if ends is None:
        raise ValueError(f"{elem!r} is outside the Cartan component")
    return ends
