import pytest

from crystalgraphs import (Convention, CrystalContext, apply_chain,
                           builtin_datum, extremal_element, in_cartan_component,
                           right_end_chain, right_end_tuple, tensor)
from crystalgraphs.rightends import chain_ends

from conftest import (A1_, A2_, A3_, B1_, B2_, B3_, ref_component,
                      ref_right_end_inclusion)


def test_single_factor_chain(a2):
    assert right_end_chain(a2, (1,), (A2_,), 1) == A2_


def test_chain_on_known_pair(a2):
    # sigma(a_2 (x) b_2) = b_3 (x) a_1, so the chain from position 1 ends at a_1
    assert right_end_chain(a2, (1, 2), (A2_, B2_), 1) == A1_
    assert right_end_chain(a2, (1, 2), (A2_, B2_), 2) == B2_
    assert apply_chain(a2, (1, 2), (A1_, B3_), 1) is None


def _chain_step_by_step(ctx, funds, elem, k):
    """apply_chain one braiding at a time, each table fetched when read."""
    funds, elem = list(funds), list(elem)
    for pos in range(k - 1, len(elem) - 1):
        out = ctx.braiding(funds[pos], funds[pos + 1])[(elem[pos], elem[pos + 1])]
        if out is None:
            return None
        elem[pos], elem[pos + 1] = out
        funds[pos], funds[pos + 1] = funds[pos + 1], funds[pos]
    return tuple(elem)


def test_cached_chains_match_step_by_step():
    # the cached plans of every start, and the ends of all of them in one
    # pass, on every element of a product whose factor list repeats and is
    # out of order
    for name, convention in (("A2", Convention.HONG_KANG),
                             ("C2", Convention.OPPOSITE)):
        ctx = CrystalContext(builtin_datum(name), convention)
        funds = (2, 1, 2)
        P = tensor([ctx.fundamental(i) for i in funds], convention)
        for elem in P.elements:
            moved = [_chain_step_by_step(ctx, funds, elem, k) for k in (1, 2, 3)]
            for k in (1, 2, 3):
                assert apply_chain(ctx, funds, elem, k) == moved[k - 1], (name, elem, k)
            if None in moved:
                assert chain_ends(ctx, funds, elem) is None, (name, elem)
            else:
                assert (chain_ends(ctx, funds, elem)
                        == tuple(m[-1] for m in moved)), (name, elem)
        assert len(ctx._chains) == 1  # one entry per factor list
        for k in (0, 4):
            with pytest.raises(IndexError):
                apply_chain(ctx, funds, P.elements[0], k)


def test_right_end_tuple_examples(a2):
    assert right_end_tuple(a2, (A3_, B1_)) == (A2_, B1_)
    assert right_end_tuple(a2, (A1_, B1_)) == (A1_, B1_)
    with pytest.raises(ValueError):
        right_end_tuple(a2, (A1_, B3_))


def test_right_end_inclusion_examples(a2):
    rho = a2.rho_crystal()
    omega1 = a2.datum.fundamental_weight(1)
    omega2 = a2.datum.fundamental_weight(2)
    hw = rho.hw_element()
    # highest weight goes to highest weight
    assert ref_right_end_inclusion(a2, rho, hw, omega2) == (B1_,)
    # R_1(a_3 (x) b_1) = a_2
    P = tensor((a2.fundamental(1), a2.fundamental(2)), a2.convention)
    assert ref_right_end_inclusion(a2, P, (A3_, B1_), omega1) == (A2_,)
    # outside the Cartan component the value is 0
    assert ref_right_end_inclusion(a2, P, (A1_, B3_), omega1) is None
    with pytest.raises(ValueError):
        ref_right_end_inclusion(a2, rho, hw, a2.weight((2, 0)))


def test_chain_route_equals_inclusion_route(a2, c2_opp):
    # the two computation routes agree on every element of B(rho)
    for ctx in (a2, c2_opp):
        rho = ctx.rho_crystal()
        for b in rho.elements:
            ends = right_end_tuple(ctx, b)
            for i in ctx.datum.indices:
                via_inclusion = ref_right_end_inclusion(
                    ctx, rho, b, ctx.datum.fundamental_weight(i))
                assert via_inclusion == (ends[i - 1],)


def test_membership_chain_equals_component():
    for name in ("A2", "A3", "C2"):
        for convention in Convention:
            ctx = CrystalContext(builtin_datum(name), convention)
            rho_funds = tuple(ctx.datum.indices)
            for funds in ((1, 2), (2, 1), (1, 1, 2), rho_funds):
                P = tensor([ctx.fundamental(i) for i in funds], convention)
                comp = set(ref_component(P))
                for elem in P.elements:
                    assert (in_cartan_component(ctx, funds, elem)
                            == (elem in comp)), (name, convention, elem)
            # right_end_tuple takes membership from the chains of its ends
            P = tensor([ctx.fundamental(i) for i in rho_funds], convention)
            for elem in P.elements:
                if not in_cartan_component(ctx, rho_funds, elem):
                    with pytest.raises(ValueError,
                                       match="outside the Cartan component"):
                        right_end_tuple(ctx, elem)
                else:
                    assert right_end_tuple(ctx, elem) == tuple(
                        right_end_chain(ctx, rho_funds, elem, k)
                        for k in rho_funds)


def test_extremal_tuples(a2, c2, a2_weyl):
    from crystalgraphs.weyl import WeylGroup
    for ctx in (a2, c2):
        W = WeylGroup.generate(ctx.datum)
        rho = ctx.rho_crystal()
        for w in W:
            b = extremal_element(rho, w)
            expected = tuple(extremal_element(ctx.fundamental(i), w)
                             for i in ctx.datum.indices)
            assert right_end_tuple(ctx, b) == expected == b


def test_right_ends_stable_on_fundamental_factors(a2):
    # a right-end tuple is componentwise a fixed point
    rho = a2.rho_crystal()
    for b in rho.elements:
        ends = right_end_tuple(a2, b)
        for i in a2.datum.indices:
            assert right_end_chain(a2, (i,), (ends[i - 1],), 1) == ends[i - 1]


def test_right_end_of_composite_weight(a2, a2_weyl):
    # R with respect to rho on B(2 rho) sends extremal to extremal
    two_rho = a2.weight((2, 2))
    big = a2.weight_crystal(two_rho)
    rho = a2.rho_crystal()
    for w in a2_weyl:
        b = extremal_element(big, w)
        end = ref_right_end_inclusion(a2, big, b, a2.datum.rho())
        assert end == extremal_element(rho, w)
