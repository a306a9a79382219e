"""Cartan data: weights, roots, coroot pairings, supports and dominance.

Weights are integer vectors in the fundamental-weight basis; root-lattice
vectors are integer vectors in the simple-root basis; coroots are integer
vectors in the simple-coroot basis.  Every root fact is read off the Cartan
matrix in integer arithmetic.  The symmetrizer is validated and read nowhere
else.
"""

from __future__ import annotations

import json
from functools import cache, cached_property


class NonFiniteTypeError(ValueError):
    """Closure generation exceeded its cap: the datum is not of finite type."""


class Value:
    """Base of the immutable value classes, which each define `_key()`, the
    tuple of their compared fields.  Assignment raises AttributeError; two
    values are equal when they are of one class and their keys are equal,
    and a value hashes as its key, as a frozen dataclass over the key's
    fields does, so sets and dicts of values keep their order."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())


class Weight(Value):
    """Integral weight, coordinates in the fundamental-weight basis."""

    def __init__(self, coords: tuple[int, ...]):
        object.__setattr__(self, "coords", coords)

    def _key(self) -> tuple:
        return (self.coords,)

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __rmul__(self, k: int) -> "Weight":
        return Weight(tuple(k * a for a in self.coords))

    def __repr__(self) -> str:
        return f"Weight{self.coords}"


class RootVector(Value):
    """Root-lattice vector, coordinates in the simple-root basis."""

    def __init__(self, coords: tuple[int, ...]):
        object.__setattr__(self, "coords", coords)

    def _key(self) -> tuple:
        return (self.coords,)

    def __neg__(self) -> "RootVector":
        return RootVector(tuple(-a for a in self.coords))

    def height(self) -> int:
        return sum(self.coords)

    def __repr__(self) -> str:
        return f"RootVector{self.coords}"


class RootDatum(Value):
    """A Cartan matrix with a symmetrizer and the index set I = {1, ..., rank}.

    Its cached properties live in the instance `__dict__`.
    """

    def __init__(self, rank: int, cartan: tuple[tuple[int, ...], ...],
                 symmetrizer: tuple[int, ...], name: str = ""):
        r = rank
        if r < 1:
            raise ValueError("rank must be positive")
        a = cartan
        if len(a) != r or any(len(row) != r for row in a):
            raise ValueError("Cartan matrix must be rank x rank")
        for i in range(r):
            if a[i][i] != 2:
                raise ValueError("Cartan matrix needs 2 on the diagonal")
            for j in range(r):
                if i != j:
                    if a[i][j] > 0:
                        raise ValueError("off-diagonal Cartan entries must be <= 0")
                    if (a[i][j] == 0) != (a[j][i] == 0):
                        raise ValueError("Cartan matrix zero pattern must be symmetric")
        d = symmetrizer
        if len(d) != r or any(x <= 0 for x in d):
            raise ValueError("symmetrizer needs rank positive entries")
        for i in range(r):
            for j in range(r):
                if d[i] * a[i][j] != d[j] * a[j][i]:
                    raise ValueError("symmetrizer does not symmetrize the Cartan matrix")
        for field, value in (("rank", rank), ("cartan", cartan),
                             ("symmetrizer", symmetrizer), ("name", name)):
            object.__setattr__(self, field, value)

    def _key(self) -> tuple:
        return (self.rank, self.cartan, self.symmetrizer, self.name)

    def __repr__(self) -> str:
        return (f"RootDatum(rank={self.rank!r}, cartan={self.cartan!r}, "
                f"symmetrizer={self.symmetrizer!r}, name={self.name!r})")

    # -- basic vectors ----------------------------------------------------

    @property
    def indices(self) -> range:
        return range(1, self.rank + 1)

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.rank:
            raise IndexError(f"index {i} outside 1..{self.rank}")

    def zero_weight(self) -> Weight:
        return Weight((0,) * self.rank)

    def fundamental_weight(self, i: int) -> Weight:
        self._check_index(i)
        return Weight(tuple(1 if j == i - 1 else 0 for j in range(self.rank)))

    def rho(self) -> Weight:
        return Weight((1,) * self.rank)

    def simple_root(self, i: int) -> RootVector:
        self._check_index(i)
        return RootVector(tuple(1 if j == i - 1 else 0 for j in range(self.rank)))

    def weight_of_root(self, gamma: RootVector) -> Weight:
        """Express a root-lattice vector in fundamental-weight coordinates."""
        return Weight(tuple(
            sum(self.cartan[i][j] * gamma.coords[j] for j in range(self.rank))
            for i in range(self.rank)
        ))

    @cached_property
    def simple_root_weights(self) -> tuple[Weight, ...]:
        """alpha_1, ..., alpha_r in fundamental-weight coordinates: the
        columns of the Cartan matrix."""
        return tuple(Weight(col) for col in zip(*self.cartan))

    # -- pairings and reflections ----------------------------------------

    def pairing(self, lam: Weight | RootVector, i: int) -> int:
        """The coroot pairing (lam, alpha_i^vee); on a root, row i of the
        Cartan matrix against its simple-root coordinates."""
        self._check_index(i)
        if isinstance(lam, RootVector):
            return sum(a * c for a, c in zip(self.cartan[i - 1], lam.coords, strict=True))
        return lam.coords[i - 1]

    def reflect_weight(self, i: int, lam: Weight) -> Weight:
        """Simple reflection s_i on a weight."""
        k = self.pairing(lam, i)
        return lam - k * self.simple_root_weights[i - 1]

    def reflect_root(self, i: int, gamma: RootVector) -> RootVector:
        """Simple reflection s_i in simple-root coordinates."""
        k = self.pairing(gamma, i)
        coords = list(gamma.coords)
        coords[i - 1] -= k
        return RootVector(tuple(coords))

    def reflect_by_root(self, gamma: RootVector, lam: Weight) -> Weight:
        """Reflection of lam in the hyperplane orthogonal to the root gamma."""
        positive = gamma if gamma in self._coroots else -gamma  # t_{-g} = t_g
        if positive not in self._coroots:
            raise ValueError(f"{gamma} is not a root of this datum")
        k = sum(c * x for c, x in zip(self._coroots[positive], lam.coords,
                                       strict=True))
        return lam - k * self.weight_of_root(positive)

    def dimension(self, lam: Weight) -> int:
        """|B(lam)| for dominant lam, by the Weyl dimension formula: the
        product over positive roots a of (lam + rho, a^v) / (rho, a^v).

        Both pair a weight with a coroot of `_coroots`; rho is (1, ..., 1)
        in these coordinates.
        """
        num = den = 1
        for cv in self._coroots.values():
            num *= sum(c * (x + 1) for c, x in zip(cv, lam.coords, strict=True))
            den *= sum(cv)
        return num // den

    # -- supports and dominance -------------------------------------------

    def supp_root(self, gamma: RootVector) -> frozenset[int]:
        return frozenset(j + 1 for j, c in enumerate(gamma.coords) if c)

    def supp_weight(self, lam: Weight) -> frozenset[int]:
        return frozenset(j + 1 for j, c in enumerate(lam.coords) if c)

    def is_dominant(self, lam: Weight) -> bool:
        return all(c >= 0 for c in lam.coords)

    # -- positive roots -----------------------------------------------------

    @cached_property
    def _coroots(self) -> dict[RootVector, tuple[int, ...]]:
        """Each positive root, by height, with its coroot in the simple-coroot
        basis.

        Closes the simple roots under the simple reflections that raise them.
        That finds every positive root: a non-simple one, gamma, has an i with
        (gamma, alpha_i^v) > 0 (its norm is positive), and s_i gamma is then a
        positive root of smaller height.  When s_i sends gamma to delta, it
        sends gamma^v to delta^v, lowering entry i by (alpha_i, gamma^v), and
        the weight of delta is that of gamma minus k alpha_i, where
        k = (gamma, alpha_i^v): each step is O(rank).
        Raises NonFiniteTypeError past 10 * rank**2 positive roots, which
        signals a non-finite-type datum.
        """
        cap = 10 * self.rank * self.rank
        coroots = {alpha: alpha.coords for alpha in map(self.simple_root, self.indices)}
        weights = dict(zip(coroots, self.simple_root_weights))
        frontier = list(coroots)
        while frontier:
            gamma = frontier.pop()
            cv, wt = coroots[gamma], weights[gamma]
            for i, k in zip(self.indices, wt.coords):
                if k >= 0:
                    continue
                delta = self.reflect_root(i, gamma)
                if delta in coroots:
                    continue
                dv = list(cv)
                dv[i - 1] -= sum(c * row[i - 1] for c, row in zip(cv, self.cartan))
                coroots[delta] = tuple(dv)
                weights[delta] = wt - k * self.simple_root_weights[i - 1]
                frontier.append(delta)
            if len(coroots) > cap:
                raise NonFiniteTypeError(
                    f"more than {cap} positive roots; datum looks non-finite")
        return dict(sorted(coroots.items(),
                           key=lambda item: (item[0].height(), item[0].coords)))

    def positive_roots(self) -> tuple[RootVector, ...]:
        """All positive roots, by height; see `_coroots`."""
        return tuple(self._coroots)


# -- construction ---------------------------------------------------------

@cache
def type_a_cartan(r: int) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix of A_r; built once per rank, so the rows of a
    built-in datum compare to it by identity."""
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r))
        for i in range(r)
    )


C2_CARTAN = ((2, -2), (-1, 2))


def builtin_datum(name: str) -> RootDatum:
    """Built-in Cartan data: "A<r>" for every rank r >= 1, and "C2"."""
    name = name.strip()
    if name.upper() == "C2":
        return RootDatum(2, C2_CARTAN, (1, 2), name="C2")
    if name and name[0].upper() == "A" and name[1:].isdigit():
        r = int(name[1:])
        if r < 1:
            raise ValueError(f"bad rank in algebra name {name!r}")
        return RootDatum(r, type_a_cartan(r), (1,) * r, name=f"A{r}")
    raise ValueError(f"unknown algebra name {name!r}")


def int_rows(rows, error: str) -> tuple[tuple[int, ...], ...]:
    """rows as a tuple of tuples; ValueError(error) unless it is an array of
    arrays of JSON integers (bool, float, string and null are not)."""
    if not (isinstance(rows, (list, tuple))
            and all(isinstance(row, (list, tuple)) for row in rows)
            and all(type(x) is int for row in rows for x in row)):
        raise ValueError(error)
    return tuple(map(tuple, rows))


def datum_from_dict(data: dict, name: str = "") -> RootDatum:
    if not isinstance(data, dict):
        raise ValueError("Cartan data must be an object")
    missing = [key for key in ("rank", "cartan", "symmetrizer") if key not in data]
    if missing:
        raise ValueError(f"Cartan data lacks {', '.join(map(repr, missing))}; "
                         'expected {"rank": r, "cartan": [[...]], '
                         '"symmetrizer": [...]}')
    rank, symmetrizer = data["rank"], data["symmetrizer"]
    int_rows([[rank], symmetrizer], "the rank and the symmetrizer entries "
             "must be integers")
    cartan = int_rows(data["cartan"], "the Cartan matrix must be an array of "
                      "arrays of integers")
    return RootDatum(rank, cartan, tuple(symmetrizer),
                     name=name or data.get("name", ""))


def load_datum(path: str) -> RootDatum:
    """Read a Cartan data file: {"rank": r, "cartan": [[...]], "symmetrizer": [...]}."""
    with open(path) as fh:
        data = json.load(fh)
    name = data.get("name", path) if isinstance(data, dict) else path
    return datum_from_dict(data, name=name)


def resolve_datum(name_or_path: str) -> RootDatum:
    """Accept a built-in name or a path to a Cartan data file.

    A name that is neither raises the built-in parser's ValueError, which
    also says that no such file exists.
    """
    try:
        return builtin_datum(name_or_path)
    except ValueError as exc:
        not_builtin = exc
    try:
        return load_datum(name_or_path)
    except FileNotFoundError:
        raise ValueError(f"{not_builtin}, and no file {name_or_path!r} "
                         "exists") from None
