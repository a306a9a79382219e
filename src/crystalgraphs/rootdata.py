"""Cartan data: weights, roots, coroot pairings, supports and dominance.

Weights are integer vectors in the fundamental-weight basis; root-lattice
vectors are integer vectors in the simple-root basis.  With these bases every
coroot pairing is exact integer arithmetic.  The symmetrizer is rational and
enters only through coroots of non-simple roots and through validation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property


class NonFiniteTypeError(ValueError):
    """Closure generation exceeded its cap: the datum is not of finite type."""


@dataclass(frozen=True)
class Weight:
    """Integral weight, coordinates in the fundamental-weight basis."""

    coords: tuple[int, ...]

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords, strict=True)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords, strict=True)))

    def __rmul__(self, k: int) -> "Weight":
        return Weight(tuple(k * a for a in self.coords))

    def __repr__(self) -> str:
        return f"Weight{self.coords}"


@dataclass(frozen=True)
class RootVector:
    """Root-lattice vector, coordinates in the simple-root basis."""

    coords: tuple[int, ...]

    def __neg__(self) -> "RootVector":
        return RootVector(tuple(-a for a in self.coords))

    def height(self) -> int:
        return sum(self.coords)

    def __repr__(self) -> str:
        return f"RootVector{self.coords}"


@dataclass(frozen=True)
class RootDatum:
    """A Cartan matrix with a symmetrizer and the index set I = {1, ..., rank}."""

    rank: int
    cartan: tuple[tuple[int, ...], ...]
    symmetrizer: tuple[Fraction, ...]
    name: str = ""

    def __post_init__(self):
        r = self.rank
        if r < 1:
            raise ValueError("rank must be positive")
        a = self.cartan
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
        d = self.symmetrizer
        if len(d) != r or any(x <= 0 for x in d):
            raise ValueError("symmetrizer needs rank positive entries")
        for i in range(r):
            for j in range(r):
                if d[i] * a[i][j] != d[j] * a[j][i]:
                    raise ValueError("symmetrizer does not symmetrize the Cartan matrix")

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
        """alpha_1, ..., alpha_r in fundamental-weight coordinates."""
        return tuple(self.weight_of_root(self.simple_root(i)) for i in self.indices)

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

    def _root_norm(self, gamma: RootVector) -> Fraction:
        """(gamma, gamma) computed through the symmetrizer."""
        c = gamma.coords
        total = Fraction(0)
        for i in range(self.rank):
            if c[i] == 0:
                continue
            for j in range(self.rank):
                if c[j]:
                    total += c[i] * c[j] * self.symmetrizer[i] * self.cartan[i][j]
        return total

    def coroot_coords(self, gamma: RootVector) -> tuple[int, ...]:
        """Coordinates of gamma^vee in the simple-coroot basis."""
        half_norm = self._root_norm(gamma) / 2
        if half_norm <= 0:
            raise ValueError(f"{gamma} has nonpositive norm")
        out = []
        for j in range(self.rank):
            x = Fraction(gamma.coords[j]) * self.symmetrizer[j] / half_norm
            if x.denominator != 1:
                raise ValueError(f"{gamma} does not have an integral coroot")
            out.append(int(x))
        return tuple(out)

    def coroot_pairing(self, lam: Weight, gamma: RootVector) -> int:
        """(lam, gamma^vee) for an arbitrary root-lattice vector gamma."""
        cv = self.coroot_coords(gamma)
        return sum(cv[j] * lam.coords[j] for j in range(self.rank))

    def reflect_by_root(self, gamma: RootVector, lam: Weight) -> Weight:
        """Reflection of lam in the hyperplane orthogonal to the root gamma."""
        if not self.is_root(gamma):
            raise ValueError(f"{gamma} is not a root of this datum")
        k = self.coroot_pairing(lam, gamma)
        return lam - k * self.weight_of_root(gamma)

    @cached_property
    def _positive_coroots(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.coroot_coords(g) for g in self._positive_roots)

    def dimension(self, lam: Weight) -> int:
        """|B(lam)| for dominant lam, by the Weyl dimension formula: the
        product over positive roots a of (lam + rho, a^v) / (rho, a^v).

        Both are `coroot_pairing`s, taken from coroot coordinates computed
        once per datum; rho is (1, ..., 1) in these coordinates.
        """
        num = den = 1
        for cv in self._positive_coroots:
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
    def _positive_roots(self) -> tuple[RootVector, ...]:
        """The simple roots closed under reflections, positive ones kept.

        Raises NonFiniteTypeError past 10 * rank**2 positive roots, which
        signals a non-finite-type datum.
        """
        cap = 10 * self.rank * self.rank
        roots = {self.simple_root(i) for i in self.indices}
        frontier = list(roots)
        while frontier:
            gamma = frontier.pop()
            for i in self.indices:
                delta = self.reflect_root(i, gamma)
                if delta not in roots:
                    roots.add(delta)
                    frontier.append(delta)
            if len(roots) > 2 * cap:
                raise NonFiniteTypeError(
                    f"more than {cap} positive roots; datum looks non-finite")
        positive = [g for g in roots if all(c >= 0 for c in g.coords)]
        for g in roots:
            if any(c > 0 for c in g.coords) and any(c < 0 for c in g.coords):
                raise ValueError("root closure produced a mixed-sign vector")
        if len(positive) > cap:
            raise NonFiniteTypeError(
                f"more than {cap} positive roots; datum looks non-finite")
        positive.sort(key=lambda g: (g.height(), g.coords))
        return tuple(positive)

    def positive_roots(self) -> tuple[RootVector, ...]:
        """All positive roots, by height; see `_positive_roots`."""
        return self._positive_roots

    def is_root(self, gamma: RootVector) -> bool:
        return gamma in self._positive_roots or -gamma in self._positive_roots


# -- construction ---------------------------------------------------------

def type_a_cartan(r: int) -> tuple[tuple[int, ...], ...]:
    """The Cartan matrix of A_r."""
    return tuple(
        tuple(2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(r))
        for i in range(r)
    )


C2_CARTAN = ((2, -2), (-1, 2))


def builtin_datum(name: str) -> RootDatum:
    """Built-in Cartan data: "A1".."A9" (any "A<r>" accepted) and "C2"."""
    name = name.strip()
    if name.upper() == "C2":
        return RootDatum(2, C2_CARTAN, (Fraction(1), Fraction(2)), name="C2")
    if name and name[0].upper() == "A" and name[1:].isdigit():
        r = int(name[1:])
        if r < 1:
            raise ValueError(f"bad rank in algebra name {name!r}")
        return RootDatum(r, type_a_cartan(r), (Fraction(1),) * r, name=f"A{r}")
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
    rank, symmetrizer = data["rank"], data["symmetrizer"]
    int_rows([[rank], symmetrizer], "the rank and the symmetrizer entries "
             "must be integers")
    cartan = int_rows(data["cartan"], "the Cartan matrix must be an array of "
                      "arrays of integers")
    return RootDatum(rank, cartan, tuple(map(Fraction, symmetrizer)),
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
