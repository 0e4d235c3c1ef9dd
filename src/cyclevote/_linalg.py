"""Exact linear algebra over the rationals.

Matrices are lists/tuples of equal-length rows of ints or Fractions.  All row
reduction is one fraction-free Gauss–Jordan routine, `_eliminate`, on rows
cleared of denominators.  Its forward pass is Bareiss's: below each pivot, a
row is combined with the pivot row by integer cross-multiplication and
divided exactly by the previous pivot, on the row tail from the pivot column,
with no gcd per combined row.  Each row is then divided by the gcd of its
entries once, and a back pass clears above each pivot, last pivot first.  A
matrix of full column rank skips both: its reduced form is the identity, so
its pivot rows are written as unit rows.  Either way each pivot row ends zero
in every other pivot column, so dividing it by its pivot entry gives the
reduced row echelon form.  Pivot rows are nonzero multiples of that form's
rows of either sign; the form itself is unique, so `rank`, `rref` and the
canonical `nullspace` basis all read off the same integer rows, which an
`Echelon` keeps for a matrix that is read more than once.  `SpanSolver`
eliminates [A | I] once, always with the back pass (pivots are sought in A's
columns only, never the whole row), and keeps the integer transform, so every
later solve against the same columns is one integer mat-vec.  Everything here
is exact; no floats ever appear.
"""
from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def vec(entries) -> Vector:
    return tuple(Fraction(e) for e in entries)


def zeros(n: int) -> Vector:
    return (Fraction(0),) * n


def _q(x) -> Fraction:
    """x as a Fraction; a Fraction is passed through, not rebuilt."""
    return x if isinstance(x, Fraction) else Fraction(x)


def sub(u: Sequence, v: Sequence) -> Vector:
    return tuple(_q(a) - _q(b) for a, b in zip(u, v, strict=True))


def _scaled_ints(v: Sequence) -> tuple[list[int], int]:
    """Write v as (integer vector) / denominator, exactly."""
    ratios = [x.as_integer_ratio() for x in v]
    den = lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


class ScaledMatrix:
    """A rational matrix held as (integer row, denominator) pairs.

    mat_vec accepts one in place of the matrix, so a matrix multiplied many
    times clears the denominators of its rows only once.
    """

    __slots__ = ("rows",)

    def __init__(self, m: Sequence[Sequence]):
        self.rows = [_scaled_ints(row) for row in m]


def mat_vec(m: Sequence[Sequence] | ScaledMatrix, v: Sequence) -> Vector:
    rows = m.rows if isinstance(m, ScaledMatrix) else ScaledMatrix(m).rows
    nv, dv = _scaled_ints(v)
    return tuple(Fraction(sum(map(mul, nr, nv)), dr * dv) for nr, dr in rows)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    scaled_b = ScaledMatrix(zip(*b)).rows
    return tuple(
        tuple(Fraction(sum(map(mul, nr, nc)), dr * dc) for nc, dc in scaled_b)
        for nr, dr in ScaledMatrix(a).rows
    )


def _eliminate(m: list[list[int]], pivot_cols: int) -> list[int]:
    """Fraction-free Gauss–Jordan on integer rows, in place; returns the pivot columns.

    Pivots are sought in the first pivot_cols columns only, left to right.
    The forward pass is Bareiss's: with pivot p in column c and the previous
    pivot prev (1 at the start), every row below becomes (p·row − row[c]·pivot
    row) // prev, the rows without an entry in column c included.  Each entry
    is then a minor of the input, so the division is exact and needs no gcd;
    every entry left of the pivot column is already zero in those rows, so
    only the row tail from the pivot column is combined.  Every nonzero row
    is then divided once by the gcd of its entries, and the back pass clears
    the rows above each pivot, last pivot first, dividing each combined row
    by its gcd.  Afterwards row i (i < number of pivots) is the i-th pivot
    row: every other pivot column holds 0 in it.  The rows after the pivot
    rows are zero in the first pivot_cols columns.

    When every one of the pivot_cols columns is a pivot and they make up the
    whole row (full column rank), the reduced form is the identity, so pivot
    row i is written as the unit row e_i and the gcd pass and the back pass
    are skipped.  Otherwise a pivot row is a nonzero integer multiple, of
    either sign, of its reduced row echelon row; rank, nullspace, rref and
    project_onto_span do not depend on that sign.  A row is only ever
    replaced by a nonzero multiple of itself plus a multiple of a pivot row,
    so the row space is unchanged.
    """
    pivots: list[int] = []
    nrows = len(m)
    prev = 1
    r = 0
    for c in range(pivot_cols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        p, tail = prow[c], prow[c:]
        for i in range(r + 1, nrows):
            k = m[i][c]
            if k:
                m[i] = [0] * c + [(p * x - k * y) // prev for x, y in zip(m[i][c:], tail)]
            elif p != prev:
                m[i] = [0] * c + [p * x // prev for x in m[i][c:]]
        prev = p
        pivots.append(c)
        r += 1
    if nrows and r == pivot_cols == len(m[0]):
        for i in range(r):
            m[i] = [int(i == j) for j in range(r)]
        return pivots
    for i, row in enumerate(m):
        g = gcd(*row)
        if g > 1:
            m[i] = [x // g for x in row]
    for j in range(r - 1, 0, -1):
        c, prow = pivots[j], m[j]
        p = prow[c]
        for i in range(j):
            k = m[i][c]
            if k:
                g = gcd(p, k)
                a, b = p // g, k // g
                row = [a * x - b * y for x, y in zip(m[i], prow)]
                g = gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
    return pivots


class Echelon:
    """The pivot rows of a matrix's integer Gauss–Jordan form, and its pivot columns.

    rank, nullspace, rref and project_onto_span accept one in place of the
    matrix, so a matrix that several of them read is eliminated only once.  A
    ScaledMatrix is accepted in place of the matrix, so rows whose
    denominators are already cleared are not cleared again.  The pivot-row
    property of _eliminate is checked on construction: pivot row i is nonzero
    in pivot column i and zero in every other pivot column.
    """

    __slots__ = ("rows", "pivots", "ncols")

    def __init__(self, m: Sequence[Sequence] | ScaledMatrix):
        if isinstance(m, ScaledMatrix):
            rows = [list(row) for row, _ in m.rows]
        else:
            rows = [_scaled_ints(row)[0] for row in m]
        self.ncols = len(rows[0]) if rows else 0
        self.pivots = _eliminate(rows, self.ncols)
        self.rows = rows[:len(self.pivots)]
        for i, row in enumerate(self.rows):
            if any((row[p] != 0) != (i == j) for j, p in enumerate(self.pivots)):
                raise ArithmeticError(f"elimination left pivot row {i} uncleared")


def _echelon(m: Sequence[Sequence] | Echelon) -> Echelon:
    return m if isinstance(m, Echelon) else Echelon(m)


def rank(rows: Sequence[Sequence] | Echelon) -> int:
    return len(_echelon(rows).pivots)


def nullspace(rows: Sequence[Sequence] | Echelon) -> list[Vector]:
    """Basis of {x : rows @ x = 0}, one vector per free column.

    The basis is canonical: vector k has entry 1 at the k-th free column and
    zeros at the other free columns.
    """
    ech = _echelon(rows)
    taken = set(ech.pivots)
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for f in range(ech.ncols):
        if f in taken:
            continue
        x = [zero] * ech.ncols
        x[f] = one
        for row, p in zip(ech.rows, ech.pivots):
            if row[f]:
                x[p] = Fraction(-row[f], row[p])
        basis.append(tuple(x))
    return basis


def rref(rows: Sequence[Sequence] | Echelon) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot cols)."""
    ech = _echelon(rows)
    zero = Fraction(0)
    return ([tuple(Fraction(x, row[p]) if x else zero for x in row)
             for row, p in zip(ech.rows, ech.pivots)],
            list(ech.pivots))


def project_onto_span(rows: Sequence[Sequence] | Echelon, v: Sequence) -> Vector:
    """Orthogonal projection of v onto the span of rows, by the exact normal equations."""
    basis = _echelon(rows).rows
    if not basis:
        return zeros(len(v))
    nv, dv = _scaled_ints(v)
    gram = [[sum(map(mul, a, b)) for b in basis] for a in basis]  # symmetric
    coeffs = solve_in_span(gram, [Fraction(sum(map(mul, a, nv)), dv) for a in basis])
    if coeffs is None:
        raise ArithmeticError("Gram matrix of independent rows is singular")
    return mat_vec(list(zip(*basis)), coeffs)


class SpanSolver:
    """Coordinates over a fixed list of columns, factored once.

    The columns are taken in order: a column linearly dependent on the earlier
    ones never acquires weight (coefficient 0), which makes the answer unique
    even for a dependent spanning set.  The constructor eliminates [A | I] on
    the columns of A and keeps, for each pivot, the integer transform row t
    and pivot entry d with t·A = d·(row of the reduced form); the remaining
    transform rows annihilate A.  Both facts are checked before the solver is
    used, so a wrong factorisation raises ValueError instead of answering.
    """

    def __init__(self, columns: Sequence[Sequence], dim: int):
        k = len(columns)
        if any(len(col) != dim for col in columns):
            raise ValueError(f"every column must have length {dim}")
        m = [
            _scaled_ints([col[i] for col in columns] + [int(i == j) for j in range(dim)])[0]
            for i in range(dim)
        ]
        self.dim = dim
        self._ncols = k
        self.pivots = _eliminate(m, k)
        self._pivot_rows = [(row[k:], row[p]) for row, p in zip(m, self.pivots)]
        self._null_rows = [row[k:] for row in m[len(self.pivots):]]
        self._check([_scaled_ints(col) for col in columns])

    def _check(self, scaled_columns: list[tuple[list[int], int]]) -> None:
        for i, (t, d) in enumerate(self._pivot_rows):
            for j, p in enumerate(self.pivots):
                col, den = scaled_columns[p]
                if sum(map(mul, t, col)) != (d * den if i == j else 0):
                    raise ValueError(
                        f"transform row {i} does not map pivot column {p} to its unit vector"
                    )
        for t in self._null_rows:
            if any(sum(map(mul, t, col)) for col, _ in scaled_columns):
                raise ValueError("a left-null transform row does not annihilate the columns")

    def solve(self, target: Sequence) -> list[Fraction] | None:
        """Coefficients c with sum(c[j] * column j) == target, or None outside the span."""
        return self.solve_ints(*_scaled_ints(target))

    def solve_ints(self, nb: Sequence[int], db: int = 1) -> list[Fraction] | None:
        """solve() for the target nb / db, given as integers and one denominator."""
        if len(nb) != self.dim:
            raise ValueError(f"target length {len(nb)} != {self.dim}")
        if any(sum(map(mul, t, nb)) for t in self._null_rows):
            return None
        zero = Fraction(0)
        coeffs = [zero] * self._ncols
        for (t, d), p in zip(self._pivot_rows, self.pivots):
            s = sum(map(mul, t, nb))
            if s:
                coeffs[p] = Fraction(s, d * db)
        return coeffs


def solve_in_span(columns: Sequence[Sequence], target: Sequence) -> list[Fraction] | None:
    """Express target as a combination of the given column vectors (see SpanSolver)."""
    return SpanSolver(columns, len(target)).solve(target)
