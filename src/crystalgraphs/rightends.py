"""Right ends of crystal elements, computed by chains of adjacent braidings.

Elements of highest weight crystals are flat tuples in a product of
fundamental crystals, so every computation below reduces to the cached
pairwise braiding tables between fundamentals.  A positional braid word is
built once per factor list as a plan (`braid_plan`) and applied to elements
by `apply_plan`; the n chains of a factor list are such plans too, cached
in the context per factor list, and `chain_ends` runs them all in one pass.
The chains are the only route here; the tests keep the inclusion
B(lam) -> B(lam - mu) (x) B(mu) as an independent second route to the same
right ends.
"""

from __future__ import annotations

from .crystal import CrystalContext


def _chain_plans(ctx: CrystalContext, funds: tuple) -> tuple:
    """The plans of the chains k = 1..n on a factor list, built once per
    context; chain k moves factor k (1-based) rightmost, chain n has no step."""
    plans = ctx._chains.get(funds)
    if plans is None:
        n = len(funds)
        plans = ctx._chains[funds] = tuple(
            braid_plan(ctx, funds, range(k - 1, n - 1)) for k in range(1, n + 1))
    return plans


def apply_chain(ctx: CrystalContext, funds: tuple, elem, k: int):
    """Apply the adjacent braidings at positions k, k+1, ..., n-1 (1-based).

    Returns the moved element, or None as soon as a braiding gives 0.
    """
    plans = _chain_plans(ctx, funds)
    if not 1 <= k <= len(plans):
        raise IndexError(f"chain start {k} outside 1..{len(plans)}")
    return apply_plan(plans[k - 1], elem)


def chain_ends(ctx: CrystalContext, funds: tuple, elem):
    """The right ends of the chains k = 1..n on elem, in order of k.

    None at the first chain that gives 0, which happens exactly when elem lies
    outside the Cartan component of the product of the factors `funds`.
    """
    ends = []
    for plan in _chain_plans(ctx, funds):
        moved = apply_plan(plan, elem)
        if moved is None:
            return None
        ends.append(moved[-1])
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
    """The steps (pos, table) of a positional braid word on a factor list.

    The letter pos (0-based) braids the factors at pos and pos + 1 with the
    fundamental table of the indices standing there when the letter is read.
    A plan depends on the factor list only, so it can be built once and
    applied to every element by `apply_plan`.
    """
    funds = list(funds)
    steps = []
    for pos in positions:
        i, j = funds[pos], funds[pos + 1]
        steps.append((pos, ctx.braiding(i, j)))
        funds[pos], funds[pos + 1] = j, i
    return tuple(steps)


def apply_plan(plan, elem):
    """Apply the steps of a braid plan to an element; None as soon as one gives 0."""
    elem = list(elem)
    for pos, table in plan:
        out = table[(elem[pos], elem[pos + 1])]
        if out is None:
            return None
        elem[pos], elem[pos + 1] = out
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
    funds = tuple(ctx.datum.indices)
    if len(elem) != len(funds):
        raise ValueError(f"expected a {len(funds)}-factor element, got {elem!r}")
    ends = chain_ends(ctx, funds, elem)
    if ends is None:
        raise ValueError(f"{elem!r} is outside the Cartan component")
    return ends
