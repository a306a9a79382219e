import pytest

from crystalgraphs import Convention, CrystalContext, KGraph, WeylGroup, builtin_datum


@pytest.fixture(scope="session")
def a2():
    return CrystalContext(builtin_datum("A2"))


@pytest.fixture(scope="session")
def a3():
    return CrystalContext(builtin_datum("A3"))


@pytest.fixture(scope="session")
def c2():
    return CrystalContext(builtin_datum("C2"))


@pytest.fixture(scope="session")
def c2_opp():
    return CrystalContext(builtin_datum("C2"), Convention.OPPOSITE)


@pytest.fixture(scope="session")
def a2_kg(a2):
    return KGraph(a2)


@pytest.fixture(scope="session")
def c2_kg(c2):
    return KGraph(c2)


@pytest.fixture(scope="session")
def c2_opp_kg(c2_opp):
    return KGraph(c2_opp)


@pytest.fixture(scope="session")
def a2_weyl(a2):
    return WeylGroup.generate(a2.datum)


def longest(group):
    """The longest element of a Weyl group: the unique one of maximal length."""
    top = max(w.length for w in group)
    (w0,) = [w for w in group if w.length == top]
    return w0


# the fundamental elements of A2 in chain order: a1 -> a2 -> a3, b1 -> b2 -> b3
A1_, A2_, A3_ = (1,), (2,), (3,)
B1_, B2_, B3_ = (1, 2), (1, 3), (2, 3)
