import json
from itertools import product

import pytest
from hypothesis import given, strategies as st

from crystalgraphs import (Convention, Crystal, CrystalContext, Weight, WeylGroup,
                           braiding_at, build_fundamental, builtin_datum,
                           canonical_isomorphism,
                           cartan_braiding,
                           crystal_from_dict, crystal_from_file,
                           extremal_element, from_crystal, load_datum, tensor,
                           tensor_component, trivial_crystal, weyl_action)

from conftest import (A1_, A2_, A3_, B1_, B2_, B3_, ref_apply, ref_component,
                      ref_phi_eps, ref_tensor_component, rule_lower,
                      walk_epsilon, walk_phi)


ORACLE_CONTEXTS = {(name, conv): CrystalContext(builtin_datum(name), conv)
                   for name in ("A2", "A3", "C2") for conv in Convention}


def test_type_a_fundamentals(a2):
    b_w1 = a2.fundamental(1)
    assert list(b_w1.elements) == [A1_, A2_, A3_]
    assert b_w1.f(1, A1_) == A2_ and b_w1.f(2, A2_) == A3_
    b_w2 = a2.fundamental(2)
    assert b_w2.f(2, B1_) == B2_ and b_w2.f(1, B2_) == B3_
    assert b_w2.f(1, B1_) is None


def test_rank_one_and_higher_columns():
    a1 = builtin_datum("A1")
    chain = __import__("crystalgraphs").build_fundamental(a1, 1)
    assert len(chain) == 2
    a3 = builtin_datum("A3")
    b_w2 = __import__("crystalgraphs").build_fundamental(a3, 2)
    assert len(b_w2) == 6  # 4 choose 2


def test_string_lengths(a2, c2):
    b_w1 = a2.fundamental(1)
    assert b_w1.phi(1, A1_) == 1 and b_w1.epsilon(1, A1_) == 0
    c_w1 = c2.fundamental(1)
    assert c_w1.epsilon(1, "a4") == 1
    hw = a2.rho_crystal().hw_element()
    assert all(a2.rho_crystal().epsilon(i, hw) == 0 for i in (1, 2))


@pytest.mark.parametrize("name", ["A2", "A3", "C2"])
@pytest.mark.parametrize("convention", list(Convention), ids=lambda c: c.value)
def test_string_lengths_match_walks(name, convention):
    # the one table behind phi and epsilon, against walking each string
    ctx = CrystalContext(builtin_datum(name), convention)
    funds = [ctx.fundamental(i) for i in ctx.datum.indices]
    crystals = [*funds, ctx.rho_crystal(),
                *(tensor(pair, convention) for pair in product(funds, repeat=2))]
    for crystal in crystals:
        for i in ctx.datum.indices:
            for b in crystal.elements:
                walked = (walk_epsilon(crystal, i, b), walk_phi(crystal, i, b))
                assert (crystal.epsilon(i, b), crystal.phi(i, b)) == walked, (
                    crystal, i, b)


def test_hw_element_found_once(a2, monkeypatch):
    B = a2.weight_crystal((1, 1))
    hw = B.hw_element()
    assert B.highest_weight_elements() == (hw,)

    def scan():
        raise AssertionError("scanned the crystal again")

    monkeypatch.setattr(B, "highest_weight_elements", scan)
    assert B.hw_element() is hw


def _hw_by_epsilon(crystal) -> tuple:
    """The elements with epsilon_i = 0 for every i, by walking each string."""
    return tuple(b for b in crystal.elements
                 if all(walk_epsilon(crystal, i, b) == 0
                        for i in crystal.datum.indices))


@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("name", ["A3", "C2"])
def test_highest_weight_elements_match_epsilon_walk(name, convention):
    ctx = CrystalContext(builtin_datum(name), convention)
    funds = [ctx.fundamental(i) for i in ctx.datum.indices]
    crystals = [*funds, ctx.rho_crystal()]
    for n in (2, 3):
        crystals += [tensor(fs, convention) for fs in product(funds, repeat=n)]
    for crystal in crystals:
        assert crystal.highest_weight_elements() == _hw_by_epsilon(crystal)


@pytest.mark.parametrize("name", ["A2", "C2"])
def test_data_file_gets_builtin_fundamentals(name, tmp_path):
    builtin = builtin_datum(name)
    path = tmp_path / "cartan.json"
    path.write_text(json.dumps({
        "rank": builtin.rank, "cartan": [list(row) for row in builtin.cartan],
        "symmetrizer": [int(d) for d in builtin.symmetrizer]}))
    datum = load_datum(str(path))
    for i in datum.indices:
        assert (build_fundamental(datum, i).elements
                == build_fundamental(builtin, i).elements)


def test_hw_element_raises_on_every_call(a2):
    full = tensor((a2.fundamental(1), a2.fundamental(2)), a2.convention)
    empty = Crystal(a2.datum, [], {}, {}, name="empty")
    for crystal, count in ((full, 2), (empty, 0)):
        for _ in range(2):
            with pytest.raises(ValueError, match=f"has {count} highest"):
                crystal.hw_element()


def test_c2_fundamental_chains(c2):
    c_w1 = c2.fundamental(1)
    assert [c_w1.f(i, b) for i, b in ((1, "a1"), (2, "a2"), (1, "a3"))] == \
        ["a2", "a3", "a4"]
    c_w2 = c2.fundamental(2)
    chain = [(2, "b1"), (1, "b2"), (1, "b3"), (2, "b4")]
    assert [c_w2.f(i, b) for i, b in chain] == ["b2", "b3", "b4", "b5"]
    assert c_w2.f(1, "b1") is None and c_w2.f(2, "b2") is None


def test_opposite_is_reversed_hong_kang(a2, c2):
    # applying the opposite rule equals reversing, applying hong-kang, reversing
    for ctx in (a2, c2):
        f1, f2 = ctx.fundamental(1), ctx.fundamental(2)
        fwd = tensor((f1, f2), Convention.OPPOSITE)
        rev = tensor((f2, f1), Convention.HONG_KANG)
        for (x, y) in fwd.elements:
            for i in ctx.datum.indices:
                for lower in (True, False):
                    a = fwd.f(i, (x, y)) if lower else fwd.e(i, (x, y))
                    b = rev.f(i, (y, x)) if lower else rev.e(i, (y, x))
                    assert a == (None if b is None else (b[1], b[0]))


def test_c2_fundamental_weights(c2):
    c_w1 = c2.fundamental(1)
    assert c_w1.wt("a1") == Weight((1, 0))
    assert c_w1.wt("a4") == Weight((-1, 0))
    c_w2 = c2.fundamental(2)
    assert c_w2.wt("b3") == Weight((0, 0))
    assert c_w2.wt("b5") == Weight((0, -1))


def test_crystal_validation_catches_bad_weights():
    datum = builtin_datum("A1")
    with pytest.raises(ValueError):
        Crystal(datum, ["x", "y"], {"x": Weight((1,)), "y": Weight((1,))},
                {1: {"x": "y"}})


def test_tensor_rule_opposite_c2(c2_opp):
    P = tensor((c2_opp.fundamental(1), c2_opp.fundamental(2)),
               Convention.OPPOSITE)
    assert P.f(1, ("a1", "b1")) == ("a2", "b1")
    assert P.f(2, ("a1", "b1")) == ("a1", "b2")
    assert P.f(1, ("a1", "b2")) == ("a1", "b3")


def test_tensor_rule_hong_kang_a2(a2):
    P = tensor((a2.fundamental(1), a2.fundamental(2)), Convention.HONG_KANG)
    assert P.f(1, (A1_, B2_)) == (A2_, B2_)
    # the highest weight of the Cartan component kills every raising operator
    hw = (A1_, B1_)
    assert P.e(1, hw) is None and P.e(2, hw) is None


def test_lowering_stays_nonzero_up_to_phi(a2):
    B = a2.rho_crystal()
    hw = B.hw_element()
    k = B.phi(1, hw)
    cur = hw
    for _ in range(k):
        cur = B.f(1, cur)
        assert cur is not None
    assert B.f(1, cur) is None


def test_tensor_phi_eps_closed_form_matches_walk(a2, c2_opp):
    for ctx, funds in ((a2, (1, 2)), (c2_opp, (1, 2)), (c2_opp, (2, 1))):
        factors = tuple(ctx.fundamental(i) for i in funds)
        P = tensor(factors, ctx.convention)
        for elem in P.elements:
            for i in ctx.datum.indices:
                phi, eps = ref_phi_eps(factors, ctx.convention, elem, i)
                assert phi == P.phi(i, elem)
                assert eps == P.epsilon(i, elem)


def test_signature_rule_matches_reference_fold():
    # every element and index of every product of at most 3 fundamentals,
    # against the recursive two-factor fold: lowering through the rule,
    # raising through the product's inverted lowering maps
    for (name, conv), ctx in ORACLE_CONTEXTS.items():
        for length in (1, 2, 3):
            for funds in product(ctx.datum.indices, repeat=length):
                factors = tuple(ctx.fundamental(i) for i in funds)
                P = tensor(factors, conv)
                for i in ctx.datum.indices:
                    for elem in product(*(c.elements for c in factors)):
                        assert (rule_lower(factors, conv, elem, i)
                                == ref_apply(factors, conv, elem, i, True)), \
                            (name, conv.value, funds, elem, i, "lower")
                        assert (P.e(i, elem)
                                == ref_apply(factors, conv, elem, i, False)), \
                            (name, conv.value, funds, elem, i, "raise")


@given(st.data())
def test_signature_rule_matches_reference_fold_random(data):
    # random elements of larger products, 4 to 7 fundamental factors
    ctx = data.draw(st.sampled_from(list(ORACLE_CONTEXTS.values())))
    indices = ctx.datum.indices
    funds = data.draw(st.lists(st.sampled_from(indices), min_size=4, max_size=7))
    factors = tuple(ctx.fundamental(i) for i in funds)
    elem = tuple(data.draw(st.sampled_from(c.elements)) for c in factors)
    i = data.draw(st.sampled_from(indices))
    assert (rule_lower(factors, ctx.convention, elem, i)
            == ref_apply(factors, ctx.convention, elem, i, True))
    # raising: the rule lowers the reference's e_i b back to b
    up = ref_apply(factors, ctx.convention, elem, i, False)
    if up is not None:
        assert rule_lower(factors, ctx.convention, up, i) == elem


def test_weyl_action_examples(a2):
    b_w1 = a2.fundamental(1)
    assert weyl_action(b_w1, 1, A1_) == A2_
    # zero pairing leaves the element fixed
    assert weyl_action(a2.fundamental(2), 1, B1_) == B1_


def test_weyl_action_involution_on_rho(a2):
    B = a2.rho_crystal()
    for b in B.elements:
        for i in (1, 2):
            assert weyl_action(B, i, weyl_action(B, i, b)) == b
            # wt(s_i b) = s_i wt(b)
            assert B.wt(weyl_action(B, i, b)) == a2.datum.reflect_weight(i, B.wt(b))


def test_extremal_elements(a2, a2_weyl):
    b_w1 = a2.fundamental(1)
    assert extremal_element(b_w1, a2_weyl.identity) == A1_
    assert extremal_element(b_w1, a2_weyl.element_from_word((1,))) == A2_
    assert extremal_element(b_w1, a2_weyl.element_from_word((2, 1))) == A3_
    # independent of the reduced word chosen for the longest element
    B = a2.rho_crystal()
    assert (replay_word(B, (1, 2, 1), B.hw_element())
            == replay_word(B, (2, 1, 2), B.hw_element()))
    assert extremal_element(B, (1, 2, 1)) == extremal_element(B, (2, 1, 2))
    for w in a2_weyl:
        b = extremal_element(B, w)
        assert B.wt(b) == w.fingerprint   # w(rho)


def replay_word(crystal, word, b):
    """The oracle: the reflections of a word, rightmost letter first."""
    for i in reversed(word):
        b = weyl_action(crystal, i, b)
    return b


@pytest.mark.parametrize("name", ["A3", "C2"])
@pytest.mark.parametrize("convention", list(Convention), ids=lambda c: c.value)
@pytest.mark.parametrize("long_first", [True, False],
                         ids=["long-first", "short-first"])
def test_extremal_memo_matches_word_replay(name, convention, long_first):
    # the memo builds each word on its suffix, so filling it from the long
    # words down or from the short words up must give the same elements
    ctx = CrystalContext(builtin_datum(name), convention)
    elements = WeylGroup.generate(ctx.datum).elements
    order = elements[::-1] if long_first else elements
    crystals = [ctx.fundamental(i) for i in ctx.datum.indices]
    crystals.append(ctx.rho_crystal())
    for B in crystals:
        for w in order:
            b = extremal_element(B, w)
            assert b == replay_word(B, w.word, B.hw_element()), (B, w)
            lam = B.highest_weight
            for i in reversed(w.word):
                lam = ctx.datum.reflect_weight(i, lam)
            assert B.wt(b) == lam   # w(highest weight)
        # a second pass reads the memo and agrees with the first
        assert [extremal_element(B, w) for w in elements] == [
            replay_word(B, w.word, B.hw_element()) for w in elements]


def test_cartan_component_sizes(a2, c2_opp):
    factors = (a2.fundamental(1), a2.fundamental(2))
    assert len(tensor_component(factors, a2.convention)) == 8
    assert len(ref_component(tensor(factors, a2.convention))) == 8
    assert len(c2_opp.rho_crystal()) == 16
    B = a2.fundamental(1)
    assert ref_component(tensor((B,), a2.convention)) == tuple(
        (b,) for b in B.elements)
    assert set(tensor_component((B,), a2.convention).elements) == {
        (b,) for b in B.elements}


def test_tensor_component_matches_full_product_component():
    # lowering alone from the highest weight seed against BFS over both
    # operators in the full product, for every list of at most 3 factors
    for name, convention in product(("A2", "A3", "C2"), Convention):
        ctx = CrystalContext(builtin_datum(name), convention)
        indices = ctx.datum.indices
        for length in (1, 2, 3):
            for funds in product(indices, repeat=length):
                case = (name, convention.value, funds)
                factors = [ctx.fundamental(i) for i in funds]
                lazy = tensor_component(factors, convention)
                full = tensor(factors, convention)
                comp = ref_component(full)
                assert set(lazy.elements) == set(comp), case
                for i in indices:
                    assert all(lazy.f(i, b) == full.f(i, b)
                               for b in comp), (case, i)
                lazy.validate()
        # both sides above sum factor weights, so weights are checked here
        # against B(lam) itself: lowering shifts them by -alpha_i, pairings
        # match the string lengths, and the top has weight lam
        bound = (1, 1, 1) if name == "A3" else (2, 2)
        for lam in product(*(range(k + 1) for k in bound)):
            crystal = ctx.weight_crystal(lam)
            crystal.validate()
            assert crystal.highest_weight == Weight(lam), (name, convention, lam)
    # and against the tableau: entry i adds eps_i - eps_{i+1}, so coordinate
    # i of the weight is the number of entries i minus that of entries i+1
    for name, lam in (("A2", (2, 2)), ("A3", (1, 1, 1))):
        crystal = ORACLE_CONTEXTS[(name, Convention.HONG_KANG)].weight_crystal(lam)
        for b in crystal:
            entries = [v for row in from_crystal(b).rows for v in row]
            content = tuple(entries.count(i) - entries.count(i + 1)
                            for i in crystal.datum.indices)
            assert crystal.wt(b) == Weight(content), (name, b)


def _assert_same_component(built, ref, case):
    """Same elements in the same order, and the same lowering maps."""
    assert len(built) == len(ref), case
    assert built.elements == ref.elements, case
    for i in built.datum.indices:
        assert built._f[i] == ref._f[i], (case, i)


@pytest.mark.parametrize("convention", list(Convention), ids=lambda c: c.value)
def test_halves_builder_matches_r_factor_search(convention):
    # every B(lam) up to the acceptance bounds, B(rho) of A4, and a product of
    # two non-fundamental components like the ones the lemmas suite braids
    for name, bound in (("A2", (2, 2)), ("C2", (2, 2)), ("A3", (1, 1, 1))):
        ctx = CrystalContext(builtin_datum(name), convention)
        for lam in product(*(range(k + 1) for k in bound)):
            funds = ctx.fundamental_indices(lam)
            if funds:
                factors = [ctx.fundamental(i) for i in funds]
                ref = ref_tensor_component(factors, convention)
                _assert_same_component(tensor_component(factors, convention),
                                       ref, (name, lam))
                # the context's route, on the halves it holds
                _assert_same_component(ctx.weight_crystal(lam), ref, (name, lam))
        pair = (ctx.weight_crystal((1,) * ctx.datum.rank),
                ctx.weight_crystal((0,) * (ctx.datum.rank - 1) + (1,)))
        _assert_same_component(tensor_component(pair, convention),
                               ref_tensor_component(pair, convention),
                               (name, "B(rho) x B(w_r)"))
    ctx = CrystalContext(builtin_datum("A4"), convention)
    factors = [ctx.fundamental(i) for i in ctx.datum.indices]
    _assert_same_component(tensor_component(factors, convention),
                           ref_tensor_component(factors, convention), "A4 rho")


@pytest.mark.slow
@pytest.mark.parametrize("convention", list(Convention), ids=lambda c: c.value)
def test_halves_builder_matches_r_factor_search_a5(convention):
    ctx = CrystalContext(builtin_datum("A5"), convention)
    factors = [ctx.fundamental(i) for i in ctx.datum.indices]
    _assert_same_component(tensor_component(factors, convention),
                           ref_tensor_component(factors, convention), "A5 rho")


def test_cartan_of_builds_each_component_once(monkeypatch):
    # every component of 2 or more factors takes its halves from the context
    import crystalgraphs.crystal
    built = []
    real = crystalgraphs.crystal.tensor_component

    def counted(factors, *args, **kwargs):
        built.append(tuple(c.name for c in factors))
        return real(factors, *args, **kwargs)

    monkeypatch.setattr(crystalgraphs.crystal, "tensor_component", counted)
    ctx = CrystalContext(builtin_datum("A2"))
    for lam in product(range(3), range(3)):
        ctx.weight_crystal(lam)
    ctx.rho_crystal()
    assert len(built) == len(set(built)) == len(ctx._components) - 1  # not B(0)
    assert ("B(w1)", "B(w1)") in built and ("B(w2)", "B(w2)") in built


def test_long_single_index_weight_needs_memory_of_its_size():
    # B(160 w1) of A2 has 13,041 elements and its halves B(80 w1) 3,321 each:
    # a search table over the pairs of the halves would hold 11 million slots
    import tracemalloc
    ctx = CrystalContext(builtin_datum("A2"))
    tracemalloc.start()
    try:
        crystal = ctx.weight_crystal((160, 0))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(crystal) == 13041 == ctx.datum.dimension(Weight((160, 0)))
    assert crystal.hw_element() == ((1,),) * 160
    assert peak < 1.5 * held, (held, peak)


def test_weyl_dimension_matches_built_sizes():
    for name, bound in (("A2", (2, 2)), ("C2", (2, 2)), ("A3", (1, 1, 1))):
        ctx = CrystalContext(builtin_datum(name))
        for lam in product(*(range(b + 1) for b in bound)):
            assert ctx.datum.dimension(Weight(lam)) == len(ctx.weight_crystal(lam))
    assert builtin_datum("A5").dimension(Weight((1,) * 5)) == 32768
    assert builtin_datum("A3").dimension(Weight((2, 2, 2))) == 729


def test_weight_crystal_refuses_oversized_crystals(monkeypatch):
    ctx = CrystalContext(builtin_datum("A6"))
    monkeypatch.setattr(CrystalContext, "cartan_of", None)  # nothing is built
    with pytest.raises(ValueError, match="2,097,152 elements"):
        ctx.rho_crystal()


NON_INTEGER_WEIGHTS = [(0.9, 0), (1.0, 0), ("1", 0), (True, 0), (float("inf"), 0)]


@pytest.mark.parametrize("coords", NON_INTEGER_WEIGHTS,
                         ids=["0.9", "1.0", "string", "bool", "inf"])
def test_weights_refuse_non_integers(a2, a2_kg, coords):
    # int() would read 0.9 as 0 and "1" and True as 1, and overflow on inf
    with pytest.raises(ValueError, match="weight coordinates must be integers"):
        a2.weight(coords)
    a2.fundamental_indices((1, 0))  # a cached key equal to (1.0, 0) and (True, 0)
    with pytest.raises(ValueError, match="weight coordinates must be integers"):
        a2.fundamental_indices(coords)
    with pytest.raises(ValueError, match="weight coordinates must be integers"):
        a2_kg.is_path(a2_kg.vertices()[0], ((1,),), coords)
    assert a2.weight([1, 0]) == Weight((1, 0))


@pytest.mark.parametrize("coords", [(1, 0, 5), (1,), (0, 0, 1), Weight((1, 0, 5))],
                         ids=str)
def test_weights_refuse_the_wrong_rank(coords):
    # cold, then with B(w1) and B(0) cached: reading only the first two
    # coordinates would find B(w1) for (1, 0, 5) and B(0) for (0, 0, 1)
    ctx = CrystalContext(builtin_datum("A2"))
    for _ in ("cold", "warm"):
        for read in (ctx.weight, ctx.fundamental_indices, ctx.weight_crystal):
            with pytest.raises(ValueError, match="rank 2 weights have 2 coordinates"):
                read(coords)
        ctx.weight_crystal((1, 0))
        ctx.weight_crystal((0, 0))
    assert ctx.weight(Weight((1, 0))) == ctx.weight((1, 0))


# (algebra, factors, size named in the refusal): a product over the limit, and
# a fundamental over it by itself (A30 15,15 has C(31, 15) columns)
BRAIDINGS_REFUSED = [("A10", (5, 5), "213,444"), ("A1000", (1, 1), "1,002,001"),
                     ("A30", (15, 15), "300,540,195")]


@pytest.mark.parametrize("algebra, factors, size", BRAIDINGS_REFUSED)
def test_braiding_refusal_builds_no_fundamental(monkeypatch, algebra, factors, size):
    import crystalgraphs.crystal
    built = []
    monkeypatch.setattr(crystalgraphs.crystal, "build_fundamental",
                        lambda datum, i: built.append(i))
    ctx = CrystalContext(builtin_datum(algebra))
    with pytest.raises(ValueError, match=f"has {size} elements, over the limit"):
        ctx.braiding(*factors)
    assert built == []


def test_canonical_isomorphism(a2):
    B = a2.rho_crystal()
    iso = canonical_isomorphism(B, B)
    assert all(iso[b] == b for b in B.elements)
    other = tensor_component((a2.fundamental(2), a2.fundamental(1)),
                             a2.convention)
    iso = canonical_isomorphism(B, other)
    assert len(iso) == 8
    for b, image in iso.items():
        assert B.wt(b) == other.wt(image)
    with pytest.raises(ValueError):
        canonical_isomorphism(a2.fundamental(1), a2.fundamental(2))


def test_braiding_values(a2, c2_opp):
    w1, w2 = a2.fundamental(1), a2.fundamental(2)
    t = a2.braiding(1, 2)
    assert braiding_at(w1, w2, t, (A2_, B2_)) == (B3_, A1_)
    assert braiding_at(w1, w2, t, (A1_, B3_)) is None
    # the flat slots: x * n2 + y holds y' * n1 + x', -1 for 0
    assert t[1 * 3 + 1] == 2 * 3 + 0 and t[0 * 3 + 2] == -1
    t2 = c2_opp.braiding(1, 2)
    assert braiding_at(c2_opp.fundamental(1), c2_opp.fundamental(2), t2,
                       ("a2", "b3")) == ("b1", "a4")


def test_braiding_general_equals_fundamental_table(a2):
    table = cartan_braiding(a2.fundamental(1), a2.fundamental(2), a2.convention)
    assert table == a2.braiding(1, 2)


def test_trivial_crystal(a2):
    B = trivial_crystal(a2.datum)
    assert B.elements == ((),)
    assert B.wt(()) == a2.datum.zero_weight()
    assert a2.weight_crystal((0, 0)) is a2.cartan_of(())


def test_weight_crystal_keeps_shared_names():
    ctx = CrystalContext(builtin_datum("A2"))
    comp = ctx.cartan_of((1, 2))
    name = comp.name
    assert ctx.rho_crystal() is comp
    assert ctx.cartan_of((1, 2)).name == name


def test_crystal_file_roundtrip(tmp_path, c2):
    B = c2.fundamental(1)
    data = {
        "weight": [1, 0],
        "elements": list(B.elements),
        "wt": {b: list(B.wt(b).coords) for b in B.elements},
        "f": {str(i): {b: B.f(i, b) for b in B.elements if B.f(i, b)}
              for i in (1, 2)},
    }
    path = tmp_path / "fund.json"
    path.write_text(json.dumps(data))
    loaded = crystal_from_file(c2.datum, str(path))
    assert list(loaded.elements) == list(B.elements)
    assert loaded.f(1, "a1") == "a2"

    ctx2 = type(c2)(c2.datum, c2.convention)
    ctx2.register_fundamental(1, loaded)
    assert ctx2.fundamental(1) is loaded

    bad = dict(data, weight=[0, 1])
    with pytest.raises(ValueError):
        crystal_from_dict(c2.datum, bad)
    broken = dict(data, f={"1": {"a1": "a2"}, "2": {}})
    with pytest.raises(ValueError):
        crystal_from_dict(c2.datum, broken)


@pytest.mark.parametrize("bad", [
    pytest.param({"weight": [1.9, 0]}, id="float-weight"),
    pytest.param({"weight": ["1", 0]}, id="string-weight"),
    pytest.param({"weight": [True, 0]}, id="bool-weight"),
    pytest.param({"weight": 5}, id="scalar-weight"),
    pytest.param({"weight": None}, id="missing-weight"),
    pytest.param({"wt": {"a1": [1.9, 0]}}, id="float-wt"),
    pytest.param({"wt": {"a1": ["1", 0]}}, id="string-wt"),
    pytest.param({"wt": {"a1": [True, 0]}}, id="bool-wt"),
    pytest.param({"wt": {"a1": 5}}, id="scalar-wt"),
    pytest.param({"wt": {}}, id="element-without-wt"),
    pytest.param({"wt": [1, 0]}, id="wt-not-object"),
    pytest.param({"elements": "a1"}, id="elements-not-array"),
    pytest.param({"elements": [["a1"]]}, id="unhashable-element"),
    pytest.param({"f": {"1": ["a2"]}}, id="operator-not-object"),
    pytest.param({"f": {"1": {"a1": ["a2"]}}}, id="unhashable-operator-value"),
    pytest.param({"f": {"1": {"a1": "a9"}}}, id="unlisted-operator-value"),
    pytest.param({"f": {"1": {"a9": "a2"}}}, id="unlisted-operator-key"),
    pytest.param({"f": {"1": {"a1": None}}}, id="null-operator-value"),
    pytest.param({"f": {"1.0": {"a1": "a2"}}}, id="float-operator-index"),
    pytest.param({"f": {" 1": {"a1": "a2"}}}, id="padded-operator-index"),
    pytest.param({"f": {"+1": {"a1": "a2"}}}, id="signed-operator-index"),
    pytest.param({"f": {"01": {"a1": "a2"}}}, id="zero-padded-operator-index"),
    pytest.param({"f": {"one": {"a1": "a2"}}}, id="word-operator-index"),
    pytest.param({"f": {"0": {}}}, id="operator-index-zero"),
    pytest.param({"f": {"3": {}}}, id="operator-index-past-rank"),
    pytest.param({"f": {"-1": {}}}, id="negative-operator-index"),
])
def test_crystal_from_dict_refuses_malformed_data(c2, bad):
    # only JSON integers count as weight entries: 1.9, "1" and true are not 1
    B = c2.fundamental(1)
    data = {
        "weight": [1, 0],
        "elements": list(B.elements),
        "wt": {b: list(B.wt(b).coords) for b in B.elements},
        "f": {str(i): {b: B.f(i, b) for b in B.elements if B.f(i, b)}
              for i in (1, 2)},
    }
    for key, value in bad.items():
        if key == "wt" and isinstance(value, dict) and value:
            value = dict(data["wt"], **value)
        data[key] = value
    with pytest.raises(ValueError):
        crystal_from_dict(c2.datum, data)


def test_crystal_from_dict_refuses_non_injective_lowering():
    # x and y both lower to z, with weights that pass the weight checks
    data = {"weight": [1], "elements": ["x", "y", "z"],
            "wt": {"x": [1], "y": [1], "z": [-1]}, "f": {"1": {"x": "z", "y": "z"}}}
    with pytest.raises(ValueError, match="lowering operator 1 is not injective"):
        crystal_from_dict(builtin_datum("A1"), data)


@pytest.mark.parametrize("data", [5, "crystal", [], None, {}],
                         ids=["int", "string", "array", "null", "empty"])
def test_crystal_from_dict_refuses_non_objects(c2, data):
    with pytest.raises(ValueError):
        crystal_from_dict(c2.datum, data)


def test_crystal_order(a2):
    B = a2.fundamental(1)
    assert B.leq(A3_, A1_) and not B.leq(A1_, A3_)
    assert B.leq(A2_, A2_)
