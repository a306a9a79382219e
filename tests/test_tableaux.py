import pytest

from crystalgraphs import (CrystalContext, SkewTableau, Tableau, braid_columns,
                           braiding_at, builtin_datum, enumerate_ssyt,
                           from_crystal, is_key, left_key,
                           right_ends_via_slides, right_key)

from conftest import (A1_, A2_, A3_, B1_, B2_, B3_, ref_apply, ref_tensor,
                      rule_lower)


def to_crystal(tab):
    """The reversed column list, i.e. the tensor factors of the tableau."""
    return tuple(reversed(tab.columns))


def rectify_last_corner(skew):
    """Rectification sliding into the last inner corner each time."""
    while skew.inner:
        skew = skew.slide(skew.inner_corners()[-1])
    return Tableau(skew.rows_with_holes())


def column_reading(skew):
    """Single-box factors of the column word, last column first."""
    out = []
    for col in reversed(skew.columns()):
        out.extend((v,) for v in col)
    return tuple(out)


def test_tableau_validation():
    Tableau([[1, 1], [2]])
    with pytest.raises(ValueError):
        Tableau([[2, 1]])
    with pytest.raises(ValueError):
        Tableau([[1, 1], [1]])
    with pytest.raises(ValueError):
        Tableau([[1], [2, 3]])


def test_columns_and_rows():
    t = Tableau([[1, 2, 3], [2, 5], [4]])
    assert t.columns == ((1, 2, 4), (2, 5), (3,))
    assert Tableau.from_columns(t.columns) == t


def _rebuilt_columns(tab):
    """The columns read off the rows, without the cache."""
    return tuple(tuple(row[c] for row in tab.rows if len(row) > c)
                 for c in range(len(tab.rows[0]) if tab.rows else 0))


def test_cached_columns_match_the_rows(a2):
    tabs = [Tableau(rows) for rows in ([[1, 2, 3], [2, 5], [4]], [[1]], [])]
    tabs += enumerate_ssyt((3, 2, 1), 4)
    tabs += [from_crystal(b) for b in a2.rho_crystal().elements]
    tabs += [Tableau.from_columns(cols) for cols in ([(1, 3), [2]], (), [(2,)])]
    for tab in tabs:
        assert tab.columns == _rebuilt_columns(tab)
        assert tab.columns is tab.columns
        assert Tableau(tab.rows).columns == tab.columns
        assert Tableau.from_columns(tab.columns) == tab
    assert all(type(c) is tuple for c in Tableau.from_columns([[1, 2], [3]]).columns)


@pytest.mark.parametrize("columns", [[(1,), (2, 3)], [(1, 2), ()], [()]])
def test_from_columns_refuses_lengths_of_no_shape(columns):
    # the rows of these would spell other columns
    with pytest.raises(ValueError, match="column lengths"):
        Tableau.from_columns(columns)


def test_from_crystal_examples():
    assert from_crystal((A1_, B1_)) == Tableau([[1, 1], [2]])
    assert from_crystal((B2_,)) == Tableau([[1], [3]])
    for elem in ((A1_, B1_), (A3_, B2_), (A2_, B3_)):
        assert to_crystal(from_crystal(elem)) == elem
    # a non-Cartan pair does not assemble into a tableau
    with pytest.raises(ValueError):
        from_crystal((A1_, B3_))


def test_roundtrip_over_rho(a2):
    for b in a2.rho_crystal().elements:
        assert to_crystal(from_crystal(b)) == b


def test_column_reading_matches_column_crystal(a2, a3):
    # crystal operators computed through the reading embedding agree with
    # the direct column rule
    for ctx in (a2, a3):
        r = ctx.datum.rank
        box = ctx.fundamental(1)
        for k in ctx.datum.indices:
            column_crystal = ctx.fundamental(k)
            factors = (box,) * k
            P = ref_tensor(factors, ctx.convention)
            for col in column_crystal.elements:
                word = column_reading(SkewTableau.from_columns([col]))
                flat = tuple(w[0] for w in word)
                assert flat == col  # reading a single column is the column
                for i in ctx.datum.indices:
                    direct = column_crystal.f(i, col)
                    through = P.f(i, tuple((v,) for v in col))
                    if direct is None:
                        assert through is None
                    else:
                        assert through == tuple((v,) for v in direct)


def test_slide_example():
    t = SkewTableau.from_rows([[1, 2], [3]])
    moved = t.reverse_slide((1, 1))
    assert moved.rows_with_holes() == [[None, 2], [1, 3]]
    back = moved.slide((0, 0))
    assert back.rows_with_holes() == [[1, 2], [3]]


def test_skew_refuses_an_inner_shape_that_leaves_the_outer_shape():
    # inner rows below the last outer row must reach the containment check,
    # not be cut off first, which would accept another shape
    for outer, inner, cells in (((2, 2), (1, 1, 1), {(0, 1): 1, (1, 1): 2}),
                                ((2, 0), (1, 1), {(0, 1): 1})):
        with pytest.raises(ValueError, match="inner shape exceeds outer shape"):
            SkewTableau(outer, inner, cells)
    # trailing zeros on either shape are still just padding
    for outer, inner in (((2, 0), (1, 0)), ((2,), (1, 0, 0)), ((2, 0), (1,))):
        t = SkewTableau(outer, inner, {(0, 1): 1})
        assert (t.outer, t.inner) == ((2,), (1,))


def test_skew_refuses_non_integer_shapes_and_entries():
    # int() would read the shape (2.7,)/(0.5,) as (2) and the entries 1.9 and
    # True as 1
    with pytest.raises(ValueError, match="skew shape parts must be integers"):
        SkewTableau((2.7,), (0.5,), {(0, 0): 1, (0, 1): 2})
    for rows in ([[1.9, 2]], [[True, 2]]):
        with pytest.raises(ValueError, match="tableau entries must be integers"):
            SkewTableau.from_rows(rows)
    assert SkewTableau.from_rows([[None, 1], [2]]).cells == {(0, 1): 1, (1, 0): 2}


@pytest.mark.parametrize("entry", [1.5, True, "1"], ids=["float", "bool", "str"])
def test_skew_constructor_refuses_non_integer_entries(entry):
    # the constructor makes the check of from_rows, with its message
    with pytest.raises(ValueError, match="tableau entries must be integers"):
        SkewTableau((2,), (), {(0, 0): entry, (0, 1): 2})
    with pytest.raises(ValueError, match="tableau entries must be integers"):
        SkewTableau((1, 1), (1,), {(1, 0): entry})
    assert SkewTableau((2,), (), {(0, 0): 1, (0, 1): 2}).rows_with_holes() == [[1, 2]]


def test_rectify_straight_is_identity():
    t = SkewTableau.from_rows([[1, 2], [2]])
    assert t.rectify() == Tableau([[1, 2], [2]])


def test_rectification_order_independent():
    skew = SkewTableau.from_rows([[None, None, 1], [None, 2, 3], [2, 4, 5]])
    first = skew.rectify()
    last = rectify_last_corner(skew)
    assert first == last
    # all of the worked stages rectify to the same tableau
    for rows in ([[None, 1, 3], [2, 2], [4, 5]],
                 [[None, None, 3], [1, 2, 5], [2], [4]],
                 [[None, 1, 3], [None, 2, 5], [2, 4]]):
        assert SkewTableau.from_rows(rows).rectify() == Tableau(
            [[1, 2, 3], [2, 5], [4]])


def test_braid_columns_equals_crystal_braiding(a2, a3):
    from itertools import product
    a4 = CrystalContext(builtin_datum("A4"))
    for ctx in (a2, a3, a4):
        for i in ctx.datum.indices:
            for j in ctx.datum.indices:
                table = ctx.braiding(i, j)
                ci, cj = ctx.fundamental(i), ctx.fundamental(j)
                for x, y in product(ci.elements, cj.elements):
                    want = braiding_at(ci, cj, table, (x, y))
                    assert braid_columns(x, y) == want, (i, j, x, y)


def test_braid_columns_shares_tuples(a3):
    # pairs are computed once; list and tuple inputs reach the same entry
    from itertools import product
    for i in a3.datum.indices:
        for j in a3.datum.indices:
            ci, cj = a3.fundamental(i), a3.fundamental(j)
            for x, y in product(ci.elements, cj.elements):
                out = braid_columns(x, y)
                assert braid_columns(list(x), list(y)) == out
                if out is not None:
                    assert all(type(c) is tuple for c in (out, *out))


def test_keys_worked_example():
    t = Tableau([[1, 2, 3], [2, 5], [4]])
    assert left_key(t) == Tableau([[1, 2, 2], [2, 4], [4]])
    assert right_key(t) == Tableau([[1, 3, 3], [3, 5], [5]])


def test_single_column_keys():
    t = Tableau([[2], [4]])
    assert left_key(t) == t and right_key(t) == t and is_key(t)


def test_key_idempotence_census():
    census = enumerate_ssyt((2, 1), 4)
    assert len(census) == 20
    for t in census:
        kl = left_key(t)
        assert left_key(kl) == kl
        assert is_key(kl)


def test_is_key():
    assert is_key(Tableau([[1, 1], [2]]))
    assert is_key(Tableau([[1, 2], [2]]))
    # column sets {1,3} and {2} are not nested
    assert not is_key(Tableau([[1, 2], [3]]))


def test_right_ends_via_slides_example(a2):
    # ends of the tableau with rows (1 3 / 2): the columns of (1 2 / 2)
    t = from_crystal((A3_, B1_))
    assert right_ends_via_slides(t) == Tableau([[1, 2], [2]]).columns


def _key_stages(tab, k, left):
    """Column lists seen while column k (1-based) moves to the left (or
    right) edge, one two-column braiding at a time."""
    cols = list(tab.columns)
    stages = [list(cols)]
    positions = range(k - 2, -1, -1) if left else range(k - 1, len(cols) - 1)
    for pos in positions:
        u, v = braid_columns(cols[pos + 1], cols[pos])
        cols[pos], cols[pos + 1] = v, u
        stages.append(list(cols))
    return stages


def test_frankness_of_key_stages():
    t = Tableau([[1, 2, 3], [2, 5], [4]])
    target = sorted(len(c) for c in t.columns)
    for k in range(1, 4):
        for left in (True, False):
            for cols in _key_stages(t, k, left):
                skew = SkewTableau.from_columns(cols)
                assert sorted(len(c) for c in skew.columns()) == target
                assert skew.rectify() == t


def test_keys_equal_last_stages():
    # the keys read one column slide each; the oracle keeps every stage
    census = enumerate_ssyt((3, 2, 1), 4)
    assert len(census) == 64
    for t in census:
        width = len(t.columns)
        ends = [_key_stages(t, k, True)[-1][0] for k in range(1, width + 1)]
        assert right_ends_via_slides(t) == tuple(ends)
        assert left_key(t) == Tableau.from_columns(ends)
        assert right_key(t) == Tableau.from_columns(
            _key_stages(t, k, False)[-1][-1] for k in range(1, width + 1))


def test_ssyt_counts():
    assert len(enumerate_ssyt((2, 1), 3)) == 8
    assert len(enumerate_ssyt((3, 2, 1), 4)) == 64


def _two_column_skews(max_entry):
    """Every valid vertical-strip pair arrangement plus every straight pair."""
    from itertools import combinations
    out = []
    for p in range(1, max_entry + 1):
        for q in range(1, p + 1):
            for left in combinations(range(1, max_entry + 1), q):
                for right in combinations(range(1, max_entry + 1), p):
                    try:
                        out.append(SkewTableau.from_columns([left, right], [p - q, 0]))
                    except ValueError:
                        pass
                    try:
                        out.append(SkewTableau.from_columns([right, left], [0, 0]))
                    except ValueError:
                        pass
    return out


def _apply_reading_op(ctx, skew, i, lower):
    """A crystal operator through the column reading, back onto the shape:
    lowering by the signature rule, raising by the reference fold."""
    word = column_reading(skew)
    factors = (ctx.fundamental(1),) * len(word)
    if lower:
        res = rule_lower(factors, ctx.convention, word, i)
    else:
        res = ref_apply(factors, ctx.convention, word, i, False)
    if res is None:
        return None
    values = [v[0] for v in res]
    cells = {}
    pos = 0
    width = skew.outer[0]
    for c in reversed(range(width)):
        rows = [r for r in range(len(skew.outer)) if (r, c) in skew.cells]
        for r in rows:
            cells[(r, c)] = values[pos]
            pos += 1
    return SkewTableau(skew.outer, skew.inner, cells)


def test_slides_commute_with_reading_operators(a2, a3):
    # slides are transparent to the operators computed through the reading
    for ctx in (a2, a3):
        n = ctx.datum.rank + 1
        for skew in _two_column_skews(n):
            for corner in skew.inner_corners():
                slid = skew.slide(corner)
                for i in ctx.datum.indices:
                    for lower in (True, False):
                        before = _apply_reading_op(ctx, skew, i, lower)
                        after = _apply_reading_op(ctx, slid, i, lower)
                        if before is None:
                            assert after is None
                        else:
                            assert after == before.slide(corner)


def test_rectification_order_independent_on_pairs(a3):
    for skew in _two_column_skews(4):
        first = skew.rectify()
        last = rectify_last_corner(skew)
        assert first == last
