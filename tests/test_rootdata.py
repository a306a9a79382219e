import copy
import json
import pickle

import pytest
from hypothesis import given, strategies as st

from crystalgraphs import (NonFiniteTypeError, RootDatum, RootVector, Weight,
                           builtin_datum, datum_from_dict, load_datum,
                           resolve_datum)
from crystalgraphs.weyl import WeylGroup

from conftest import ref_dimension, ref_positive_roots, ref_reflect_by_root

A2 = builtin_datum("A2")
C2 = builtin_datum("C2")


def w(*coords):
    return Weight(tuple(coords))


def r(*coords):
    return RootVector(tuple(coords))


def test_pairing_delta():
    assert A2.pairing(A2.fundamental_weight(1), 1) == 1
    assert A2.pairing(A2.fundamental_weight(1), 2) == 0


def test_pairing_of_simple_root():
    assert A2.pairing(A2.simple_root(1), 2) == -1
    assert C2.pairing(C2.simple_root(2), 1) == -2


def test_pairing_index_range():
    with pytest.raises(IndexError):
        A2.pairing(A2.rho(), 3)


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=2),
       st.lists(st.integers(-20, 20), min_size=2, max_size=2),
       st.sampled_from([1, 2]))
def test_pairing_linear(a, b, i):
    lam, mu = w(*a), w(*b)
    assert A2.pairing(lam + mu, i) == A2.pairing(lam, i) + A2.pairing(mu, i)


def test_reflect_weight_examples():
    assert A2.reflect_weight(1, w(0, 1)) == w(0, 1)
    # s_1 w_1 = w_1 - alpha_1
    assert A2.reflect_weight(1, w(1, 0)) == w(-1, 1)


@given(st.lists(st.integers(-10, 10), min_size=2, max_size=2),
       st.sampled_from([1, 2]))
def test_reflect_weight_involution(coords, i):
    lam = w(*coords)
    assert C2.reflect_weight(i, C2.reflect_weight(i, lam)) == lam


def test_reflect_by_root_long_root_a2():
    # oracle: t_{a1+a2} = s_1 s_2 s_1
    gamma = r(1, 1)
    lam = w(1, 0)
    composed = lam
    for i in (1, 2, 1):
        composed = A2.reflect_weight(i, composed)
    assert A2.reflect_by_root(gamma, lam) == composed == w(0, -1)


def test_reflect_by_root_simple_case():
    for i in (1, 2):
        for lam in (w(1, 0), w(2, -3), w(1, 1)):
            assert A2.reflect_by_root(A2.simple_root(i), lam) == A2.reflect_weight(i, lam)


def test_reflect_by_root_fixed_point():
    # (w_2, a_1^vee) = 0
    assert A2.reflect_by_root(A2.simple_root(1), w(0, 1)) == w(0, 1)


def test_reflect_by_root_rejects_non_roots():
    with pytest.raises(ValueError):
        A2.reflect_by_root(r(2, 0), w(1, 0))


def test_supports():
    assert A2.supp_root(r(1, 1)) == {1, 2}
    assert A2.supp_weight(w(0, 1)) == {2}
    assert A2.supp_weight(w(0, 0)) == frozenset()
    for datum in (A2, C2):
        for gamma in datum.positive_roots():
            support = datum.supp_root(gamma)
            assert support and support <= set(datum.indices)


def test_dominance():
    assert A2.is_dominant(A2.rho())
    assert A2.is_dominant(A2.rho() - w(1, 0))
    assert not A2.is_dominant(w(1, 0) - w(0, 1))


def test_positive_roots_counts():
    a2_roots = A2.positive_roots()
    assert set(a2_roots) == {r(1, 0), r(0, 1), r(1, 1)}
    assert len(C2.positive_roots()) == 4
    assert builtin_datum("A1").positive_roots() == (RootVector((1,)),)


def test_positive_roots_match_reflections():
    for datum in (A2, C2, builtin_datum("A3")):
        group = WeylGroup.generate(datum)
        assert len(group.reflections()) == len(datum.positive_roots())


def test_non_finite_type_caught():
    # affine A1: the closure never stops growing
    data = {"rank": 2, "cartan": [[2, -2], [-2, 2]], "symmetrizer": [1, 1]}
    datum = datum_from_dict(data)
    with pytest.raises(NonFiniteTypeError):
        datum.positive_roots()


def test_datum_validation():
    with pytest.raises(ValueError):
        datum_from_dict({"rank": 2, "cartan": [[2, 1], [-1, 2]], "symmetrizer": [1, 1]})
    with pytest.raises(ValueError):
        datum_from_dict({"rank": 2, "cartan": [[2, -1], [0, 2]], "symmetrizer": [1, 1]})
    with pytest.raises(ValueError):
        datum_from_dict({"rank": 2, "cartan": [[2, -2], [-1, 2]], "symmetrizer": [1, 1]})


@pytest.mark.parametrize("args, message", [
    ((0, (), ()), "rank must be positive"),
    ((2, ((2, -1),), (1, 1)), "Cartan matrix must be rank x rank"),
    ((2, ((1, -1), (-1, 2)), (1, 1)), "needs 2 on the diagonal"),
    ((2, ((2, 1), (-1, 2)), (1, 1)), "off-diagonal Cartan entries must be <= 0"),
    ((2, ((2, -1), (0, 2)), (1, 1)), "zero pattern must be symmetric"),
    ((2, ((2, -1), (-1, 2)), (1,)), "symmetrizer needs rank positive entries"),
    ((2, ((2, -1), (-1, 2)), (1, 0)), "symmetrizer needs rank positive entries"),
    ((2, ((2, -2), (-1, 2)), (1, 1)), "does not symmetrize the Cartan matrix"),
], ids=str)
def test_datum_validation_messages(args, message):
    with pytest.raises(ValueError, match=message):
        RootDatum(*args)


@pytest.mark.parametrize("cls", [Weight, RootVector])
def test_coordinate_vectors_are_values(cls):
    a, b = cls((1, 2)), cls(coords=(1, 2))
    assert a == b and not a != b and a is not b
    assert a != cls((2, 1))
    assert hash(a) == hash(((1, 2),))
    assert repr(a) == f"{cls.__name__}(1, 2)"
    other = RootVector if cls is Weight else Weight
    assert a != other((1, 2)) and a != (1, 2)
    assert len({a, b, other((1, 2))}) == 2
    with pytest.raises(AttributeError, match="cannot assign to field 'coords'"):
        a.coords = (0, 0)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError, match="cannot delete field 'coords'"):
        del a.coords
    assert a.coords == (1, 2)
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_datum_is_a_value():
    datum = RootDatum(rank=2, cartan=((2, -1), (-1, 2)), symmetrizer=(1, 1))
    assert datum.name == ""
    assert datum == RootDatum(2, ((2, -1), (-1, 2)), (1, 1), "")
    assert datum != A2  # the names differ
    assert RootDatum(2, A2.cartan, (1, 1), name="A2") == A2
    assert hash(A2) == hash((2, ((2, -1), (-1, 2)), (1, 1), "A2"))
    assert repr(C2) == ("RootDatum(rank=2, cartan=((2, -2), (-1, 2)), "
                        "symmetrizer=(1, 2), name='C2')")
    with pytest.raises(AttributeError, match="cannot assign to field 'rank'"):
        datum.rank = 3
    # the cached properties live in the instance dict, out of eq and hash
    before = hash(datum)
    assert datum.simple_root_weights == (w(2, -1), w(-1, 2))
    assert "simple_root_weights" in vars(datum) and hash(datum) == before
    assert pickle.loads(pickle.dumps(C2)) == C2


def test_datum_file_roundtrip(tmp_path):
    path = tmp_path / "c2.json"
    path.write_text(json.dumps({
        "rank": 2, "cartan": [[2, -2], [-1, 2]], "symmetrizer": [1, 2],
    }))
    datum = load_datum(str(path))
    assert datum.cartan == C2.cartan
    assert resolve_datum(str(path)).rank == 2
    assert resolve_datum("C2").name == "C2"
    with pytest.raises(ValueError, match="unknown algebra name 'Z9', and no "
                       "file 'Z9' exists"):
        resolve_datum("Z9")


# Cartan data files of the other types, in this package's convention
# (row i of the matrix is alpha_i^v paired with each simple root)
DATA_FILES = {
    "G2": {"rank": 2, "cartan": [[2, -1], [-3, 2]], "symmetrizer": [3, 1]},
    "B3": {"rank": 3, "cartan": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
           "symmetrizer": [2, 2, 1]},
    "C3": {"rank": 3, "cartan": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
           "symmetrizer": [1, 1, 2]},
    # node 2 central
    "D4": {"rank": 4, "cartan": [[2, -1, 0, 0], [-1, 2, -1, -1],
                                 [0, -1, 2, 0], [0, -1, 0, 2]],
           "symmetrizer": [1, 1, 1, 1]},
    "F4": {"rank": 4, "cartan": [[2, -1, 0, 0], [-1, 2, -2, 0],
                                 [0, -1, 2, -1], [0, 0, -1, 2]],
           "symmetrizer": [1, 1, 2, 2]},
}
FILE_DATA = {name: datum_from_dict(data, name=f"{name}-data")
             for name, data in DATA_FILES.items()}
DATA = [*(builtin_datum(f"A{r}") for r in range(1, 7)), C2, *FILE_DATA.values()]

# |Phi^+|, the dimensions of the fundamental modules, and |B(rho)| = 2**|Phi^+|
KNOWN_SIZES = {"G2": (6, [14, 7], 64), "B3": (9, [7, 21, 8], 512),
               "C3": (9, [6, 14, 14], 512), "D4": (12, [8, 28, 8, 8], 4096),
               "F4": (24, [26, 273, 1274, 52], 16_777_216)}


@pytest.mark.parametrize("datum", DATA, ids=lambda d: d.name)
def test_simple_root_weights(datum):
    assert len(datum.simple_root_weights) == datum.rank
    for i in datum.indices:
        assert (datum.simple_root_weights[i - 1]
                == datum.weight_of_root(datum.simple_root(i)))


@pytest.mark.parametrize("datum", DATA, ids=lambda d: d.name)
def test_root_pairing_reads_one_cartan_row(datum):
    # the pairing of a root against the whole weight of that root
    for gamma in datum.positive_roots():
        for i in datum.indices:
            assert (datum.pairing(gamma, i)
                    == datum.weight_of_root(gamma).coords[i - 1])
            assert datum.pairing(-gamma, i) == -datum.pairing(gamma, i)


@pytest.mark.parametrize("datum", DATA, ids=lambda d: d.name)
def test_positive_roots_match_reference(datum):
    assert list(datum.positive_roots()) == ref_positive_roots(datum)


@pytest.mark.parametrize("datum", DATA, ids=lambda d: d.name)
def test_reflect_by_root_matches_reference(datum):
    weights = [datum.rho(), *(datum.fundamental_weight(i) for i in datum.indices),
               Weight(tuple(range(-1, datum.rank - 1)))]
    for gamma in datum.positive_roots():
        for lam in weights:
            image = datum.reflect_by_root(gamma, lam)
            assert image == ref_reflect_by_root(datum, gamma, lam), (gamma, lam)
            # t_{-gamma} = t_gamma
            assert datum.reflect_by_root(-gamma, lam) == image, (gamma, lam)
            assert datum.reflect_by_root(gamma, image) == lam


@pytest.mark.parametrize("datum", DATA, ids=lambda d: d.name)
def test_dimension_matches_reference(datum):
    for lam in (datum.rho(), *(datum.fundamental_weight(i) for i in datum.indices)):
        assert datum.dimension(lam) == ref_dimension(datum, lam), lam


@pytest.mark.parametrize("name", KNOWN_SIZES)
def test_known_sizes_of_data_files(name):
    datum = FILE_DATA[name]
    roots, fundamentals, rho = KNOWN_SIZES[name]
    assert len(datum.positive_roots()) == roots
    assert [datum.dimension(datum.fundamental_weight(i))
            for i in datum.indices] == fundamentals
    assert datum.dimension(datum.rho()) == rho == 2 ** roots
