"""Type-A semistandard tableaux: jeu de taquin, two-column braidings, keys.

Columns double as crystal elements of the fundamental column crystals, so a
tableau is the reversed factor list of a tensor element.  Two-column slides
realize the braiding between fundamental crystals; one slide moves a column
to either edge, which computes right ends and the left/right keys.
"""

from __future__ import annotations

from functools import cache

from .rootdata import int_rows

Column = tuple[int, ...]


def _is_column(col) -> bool:
    return all(a < b for a, b in zip(col, col[1:]))


class Tableau:
    """A straight-shape semistandard tableau, stored by rows of integers;
    its columns are kept once known."""

    def __init__(self, rows):
        self.rows = int_rows(rows, "a tableau must be an array of rows, "
                             "each an array of integers")
        shape = tuple(len(row) for row in self.rows)
        if any(a < b for a, b in zip(shape, shape[1:])) or (shape and shape[-1] == 0):
            raise ValueError(f"{shape} is not a partition shape")
        self.shape = shape
        for row in self.rows:
            if any(a > b for a, b in zip(row, row[1:])):
                raise ValueError("rows must weakly increase")
        for up, down in zip(self.rows, self.rows[1:]):
            if any(a >= b for a, b in zip(up, down)):
                raise ValueError("columns must strictly increase")
        self._columns: tuple[Column, ...] | None = None

    @classmethod
    def from_columns(cls, columns) -> "Tableau":
        """The tableau with these columns, left to right; their lengths must
        weakly decrease and be positive, so that the rows give them back."""
        columns = tuple(map(tuple, columns))
        lengths = tuple(map(len, columns))
        if any(a < b for a, b in zip(lengths, lengths[1:])) or 0 in lengths:
            raise ValueError(f"column lengths {lengths} are not a partition shape")
        rows = [[c[r] for c in columns if len(c) > r]
                for r in range(lengths[0] if lengths else 0)]
        tab = cls(rows)
        tab._columns = columns
        return tab

    @property
    def columns(self) -> tuple[Column, ...]:
        if self._columns is None:
            self._columns = tuple(
                tuple(row[c] for row in self.rows if len(row) > c)
                for c in range(len(self.rows[0]) if self.rows else 0))
        return self._columns

    def column_lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.columns)

    def __eq__(self, other):
        return isinstance(other, Tableau) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Tableau(" + " / ".join(" ".join(map(str, r)) for r in self.rows) + ")"


class SkewTableau:
    """A semistandard filling of a skew shape outer/inner."""

    def __init__(self, outer, inner, cells):
        outer = tuple(int(x) for x in outer)
        inner = tuple(int(x) for x in inner)
        while outer and outer[-1] == 0:
            outer = outer[:-1]
        if any(inner[len(outer):]):
            raise ValueError("inner shape exceeds outer shape")
        inner = inner[:len(outer)]
        while inner and inner[-1] == 0:
            inner = inner[:-1]
        self.outer = outer
        self.inner = inner
        self.cells = dict(cells)
        self.validate()

    def _inner(self, r: int) -> int:
        return self.inner[r] if r < len(self.inner) else 0

    def validate(self) -> None:
        if any(a < b for a, b in zip(self.outer, self.outer[1:])):
            raise ValueError(f"outer shape {self.outer} is not a partition")
        if any(a < b for a, b in zip(self.inner, self.inner[1:])):
            raise ValueError(f"inner shape {self.inner} is not a partition")
        expected = {(r, c)
                    for r, width in enumerate(self.outer)
                    for c in range(self._inner(r), width)}
        if expected != set(self.cells):
            raise ValueError("filling does not match the skew shape")
        if any(self._inner(r) > self.outer[r] for r in range(len(self.outer))):
            raise ValueError("inner shape exceeds outer shape")
        for (r, c), v in self.cells.items():
            right = self.cells.get((r, c + 1))
            if right is not None and right < v:
                raise ValueError(f"row {r} decreases at column {c}")
            below = self.cells.get((r + 1, c))
            if below is not None and below <= v:
                raise ValueError(f"column {c} fails to increase at row {r}")

    @classmethod
    def from_columns(cls, columns, offsets=None) -> "SkewTableau":
        """Build from a column list; offsets default to the canonical tight ones."""
        columns = [tuple(c) for c in columns]
        if any(not _is_column(c) for c in columns):
            raise ValueError("column entries must strictly increase")
        n = len(columns)
        if offsets is None:
            offsets = [0] * n
            for k in range(n - 2, -1, -1):
                offsets[k] = offsets[k + 1] + max(len(columns[k + 1]) - len(columns[k]), 0)
        cells = {}
        for k, col in enumerate(columns):
            for t, v in enumerate(col):
                cells[(offsets[k] + t, k)] = v
        height = max((offsets[k] + len(columns[k]) for k in range(n)), default=0)
        outer = []
        inner = []
        for r in range(height):
            present = [k for k in range(n)
                       if offsets[k] <= r < offsets[k] + len(columns[k])]
            if not present:
                raise ValueError(f"row {r} is empty; offsets leave a gap")
            if present != list(range(present[0], present[-1] + 1)):
                raise ValueError(f"row {r} is not contiguous")
            inner.append(present[0])
            outer.append(present[-1] + 1)
        return cls(outer, inner, cells)

    @classmethod
    def from_rows(cls, rows) -> "SkewTableau":
        """Rows top first; None marks inner-shape holes at the start of a row."""
        outer, inner, cells = [], [], {}
        for r, row in enumerate(rows):
            holes = 0
            while holes < len(row) and row[holes] is None:
                holes += 1
            if any(v is None for v in row[holes:]):
                raise ValueError("holes must be leading")
            outer.append(len(row))
            inner.append(holes)
            for c in range(holes, len(row)):
                cells[(r, c)] = int(row[c])
        return cls(outer, inner, cells)

    def rows_with_holes(self) -> list[list]:
        out = []
        for r, width in enumerate(self.outer):
            row: list = [None] * self._inner(r)
            row += [self.cells[(r, c)] for c in range(self._inner(r), width)]
            out.append(row)
        return out

    def columns(self) -> tuple[Column, ...]:
        width = self.outer[0] if self.outer else 0
        return tuple(
            tuple(self.cells[(r, c)] for r in range(len(self.outer))
                  if (r, c) in self.cells)
            for c in range(width)
        )

    def __eq__(self, other):
        return (isinstance(other, SkewTableau)
                and self.outer == other.outer and self.inner == other.inner
                and self.cells == other.cells)

    def __repr__(self):
        rows = []
        for row in self.rows_with_holes():
            rows.append(" ".join("." if v is None else str(v) for v in row))
        return "SkewTableau(" + " / ".join(rows) + ")"

    # -- slides -------------------------------------------------------------

    def inner_corners(self) -> tuple[tuple[int, int], ...]:
        """Removable cells of the inner shape, in row order."""
        out = []
        for r in range(len(self.inner)):
            c = self.inner[r] - 1
            if c >= 0 and self._inner(r + 1) <= c:
                out.append((r, c))
        return tuple(out)

    def addable_cells(self) -> tuple[tuple[int, int], ...]:
        """Cells that may be appended to the outer shape."""
        out = []
        for r in range(len(self.outer) + 1):
            c = self.outer[r] if r < len(self.outer) else 0
            if r == 0 or self.outer[r - 1] >= c + 1:
                out.append((r, c))
        return tuple(out)

    def slide(self, corner: tuple[int, int]) -> "SkewTableau":
        """One forward slide into an inner corner; the smaller neighbor moves,
        ties go to the one below."""
        if corner not in self.inner_corners():
            raise ValueError(f"{corner} is not an inner corner")
        cells = dict(self.cells)
        outer = list(self.outer)
        inner = list(self.inner) + [0] * (len(outer) - len(self.inner))
        hole = corner
        inner[corner[0]] -= 1
        while True:
            right = (hole[0], hole[1] + 1)
            below = (hole[0] + 1, hole[1])
            has_r, has_b = right in cells, below in cells
            if not has_r and not has_b:
                break
            if has_r and has_b:
                pick = below if cells[below] <= cells[right] else right
            else:
                pick = right if has_r else below
            cells[hole] = cells.pop(pick)
            hole = pick
        outer[hole[0]] -= 1
        return SkewTableau(outer, inner, cells)

    def reverse_slide(self, cell: tuple[int, int]) -> "SkewTableau":
        """One reverse slide from an addable cell; the larger neighbor moves,
        ties go to the one above."""
        if cell not in self.addable_cells():
            raise ValueError(f"{cell} is not addable")
        cells = dict(self.cells)
        outer = list(self.outer)
        if cell[0] == len(outer):
            outer.append(0)
        inner = list(self.inner) + [0] * (len(outer) - len(self.inner))
        outer[cell[0]] += 1
        hole = cell
        while True:
            above = (hole[0] - 1, hole[1])
            left = (hole[0], hole[1] - 1)
            has_a, has_l = above in cells, left in cells
            if not has_a and not has_l:
                break
            if has_a and has_l:
                pick = above if cells[above] >= cells[left] else left
            else:
                pick = above if has_a else left
            cells[hole] = cells.pop(pick)
            hole = pick
        inner[hole[0]] += 1
        return SkewTableau(outer, inner, cells)

    def rectify(self) -> Tableau:
        """Slide into the first inner corner, in row order, until the inner
        shape is gone; the result does not depend on the order of the
        corners, which the test suite checks rather than assumes."""
        cur = self
        while cur.inner:
            cur = cur.slide(cur.inner_corners()[0])
        return Tableau(cur.rows_with_holes())


# -- two-column braiding ------------------------------------------------------

def braid_columns(x: Column, y: Column):
    """The braiding B(w_i) (x) B(w_j) -> B(w_j) (x) B(w_i) on a column pair.

    Returns the image pair (u, v) with len(u) = j and len(v) = i, or None
    when (x, y) lies outside the Cartan component.  Inputs with i >= j are
    rectified from their skew arrangement; inputs with i < j are expanded by
    reverse slides.  Equal lengths give the identity on the Cartan part.
    Each pair is computed once; the results are tuples, so they are shared.
    """
    return _braid_columns(tuple(x), tuple(y))


@cache
def _braid_columns(x: Column, y: Column):
    i, j = len(x), len(y)
    if i == j:
        if all(b <= a for a, b in zip(x, y)):
            return x, y
        return None
    if i > j:
        # left column y starts i - j rows below the top of x
        if any(y[t] > x[t + i - j] for t in range(j)):
            return None
        skew = SkewTableau.from_columns([y, x], offsets=[i - j, 0])
        straight = skew.rectify()
        left, right = straight.columns
        return right, left
    # i < j: straight pair (y, x), expanded by j - i reverse slides
    if any(y[t] > x[t] for t in range(i)):
        return None
    cur = SkewTableau.from_columns([y, x], offsets=[0, 0])
    for step in range(j - i):
        cur = cur.reverse_slide((i + step, 1))
    left, right = cur.columns()
    return right, left


# -- tableau <-> crystal dictionary -------------------------------------------

def from_crystal(elem) -> Tableau:
    """A tensor element (shortest factor first) as a tableau; the factor list
    reverses into the column list."""
    return Tableau.from_columns(tuple(reversed(tuple(elem))))


# -- keys and right ends via slides --------------------------------------------

def _slide_column(cols: tuple[Column, ...], k: int, left: bool) -> Column:
    """Column k (1-based) of a tableau's columns once two-column braidings
    have moved it to the left edge (or the right edge); the other columns are
    not kept."""
    col = cols[k - 1]
    for other in (reversed(cols[:k - 1]) if left else cols[k:]):
        out = braid_columns(col, other) if left else braid_columns(other, col)
        if out is None:
            raise ValueError("column pair left the Cartan component during a slide")
        col = out[1] if left else out[0]
    return col


def left_key(tab: Tableau) -> Tableau:
    """The key whose k-th column is column k of the tableau slid to the left
    edge."""
    return Tableau.from_columns(right_ends_via_slides(tab))


def right_key(tab: Tableau) -> Tableau:
    """Same as left_key with the columns slid to the right edge."""
    cols = tab.columns
    return Tableau.from_columns(_slide_column(cols, k, left=False)
                                for k in range(1, len(cols) + 1))


def right_ends_via_slides(tab: Tableau) -> tuple[Column, ...]:
    """Per-column right ends: column k once slid to the left edge.  These are
    the columns of the left key."""
    cols = tab.columns
    return tuple(_slide_column(cols, k, left=True)
                 for k in range(1, len(cols) + 1))


def is_key(tab: Tableau) -> bool:
    """Key tableaux have nested column sets."""
    cols = tab.columns
    return all(set(cols[k + 1]) <= set(cols[k]) for k in range(len(cols) - 1))


def enumerate_ssyt(shape, max_entry: int) -> tuple[Tableau, ...]:
    """All semistandard tableaux of a straight shape with entries <= max_entry."""
    from itertools import combinations

    shape = tuple(shape)
    if any(a < b for a, b in zip(shape, shape[1:])):
        raise ValueError(f"{shape} is not a partition shape")
    width = shape[0] if shape else 0
    col_lens = [sum(1 for row in shape if row > c) for c in range(width)]

    out: list[Tableau] = []

    def extend(k: int, cols: list[Column]) -> None:
        if k == width:
            out.append(Tableau.from_columns(cols))
            return
        prev = cols[-1] if cols else None
        for col in combinations(range(1, max_entry + 1), col_lens[k]):
            if prev is None or all(prev[t] <= col[t] for t in range(len(col))):
                extend(k + 1, cols + [col])

    extend(0, [])
    return tuple(out)
