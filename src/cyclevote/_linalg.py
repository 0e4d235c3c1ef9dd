"""Exact linear algebra over the rationals.

Matrices are lists/tuples of equal-length rows of ints or Fractions.
Everything here is exact; no floats ever appear.

Products.  Every matrix-vector product runs through `Packed`, which holds an
integer matrix with column j packed into one Python int, Σᵢ M[i][j]·2^(64i):
entry i sits in the 64-bit lane i, of either sign, borrowing from the lane
above.  M u is then Σⱼ u[j]·column j, one big-integer sum in C whose lanes
are the entries of M u (Kronecker substitution).  Adding 2⁶³ to every lane
makes each lane nonnegative with no borrow, and flipping each lane's top bit
turns it into the lane's two's complement, so one `struct` unpack reads the
entries back.  That is exact while every entry of M u lies in [−2⁶³, 2⁶³),
which max|M[i][j]|·Σ|u[j]| < 2⁶³ guarantees; past that bound `Packed` takes
one dot product per row, the only matrix-vector loop in the library.  A
rational matrix is one `Packed` over a denominator: `Packed.of` clears it
over the lcm of all its denominators, and a product builds one Fraction per
distinct value.

Elimination.  All row reduction is one fraction-free Gauss–Jordan routine,
`_eliminate`, on rows cleared of denominators.  When pivots are sought in
every column, it first computes the rank modulo the prime p = 32749, on rows
of residues packed into 64-bit lanes.  p is the largest prime below 2¹⁵, so
a product of two residues stays below 2³⁰, one CPython digit.  Reduction
modulo p is a ring map, so a square submatrix whose determinant is nonzero
modulo p has a nonzero determinant over the integers: full column rank
modulo p implies full column rank over ℚ.  Such a matrix has the identity as
its reduced form, so its pivot rows are written as unit rows with no integer
elimination at all.  Otherwise (the matrix is rank-deficient, or p divides
every maximal minor) the forward pass is Bareiss's: below each pivot, a row
is combined with the pivot row by integer cross-multiplication and divided
exactly by the previous pivot, on the row tail from the pivot column, with
no gcd per combined row.  A full-column-rank result is again written as unit
rows; any other has each row divided by the gcd of its entries once, and a
back pass clears above each pivot, last pivot first.  Either way each pivot
row ends zero in every other pivot column, so dividing it by its pivot entry
gives the reduced row echelon form.  Pivot rows are nonzero multiples of
that form's rows of either sign; the form itself is unique, so `rank`,
`rref` and the canonical `nullspace` basis all read off the same integer
rows, which an `Echelon` keeps for a matrix that is read more than once.

Solving.  `solve_in_span` eliminates [A | b] once, seeking pivots in A's
columns only, reads each pivot column's coefficient off its pivot row, and
checks A c = b in integers before answering; masking solves the normal
equations of a rule's Gram matrix with it (`analysis._kernel_part`).
`SpanSolver` eliminates [A | I] once for a fixed A and keeps the integer
transform rows packed, so every later solve against the same columns is one
packed product.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from struct import Struct

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

_LANE_LIMIT = 1 << 63  # every lane of a packed product lies in [-_LANE_LIMIT, _LANE_LIMIT)
_PRIME = 32749  # the largest prime below 2**15: residue products stay below 2**30


def vec(entries) -> Vector:
    return tuple(Fraction(e) for e in entries)


def zeros(n: int) -> Vector:
    return (Fraction(0),) * n


def _scaled_ints(v: Sequence) -> tuple[list[int], int]:
    """Write v as (integer vector) / denominator, exactly."""
    ratios = [x.as_integer_ratio() for x in v]
    den = lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def _fractions(ints: Sequence[int], den: int) -> Vector:
    """ints / den as Fractions, one Fraction built per distinct value."""
    made = {x: Fraction(x, den) for x in set(ints)}
    return tuple(map(made.__getitem__, ints))


class Packed:
    """An integer matrix over a denominator, each column packed into 64-bit lanes of one int.

    The matrix stands for rows / den.  apply(u) returns rows · u as a tuple of
    ints: one sum of packed columns times the entries of u, read back by one
    unpack, when max|entry|·Σ|u| < 2⁶³, and one dot product per row
    otherwise.  rows keeps the integer matrix as given.
    """

    __slots__ = ("rows", "den", "bound", "_columns", "_bias", "_nbytes", "_unpack")

    def __init__(self, rows: Sequence[Sequence[int]], den: int = 1):
        self.rows = rows
        self.den = den
        self.bound = max(map(abs, chain.from_iterable(rows)), default=0)
        lanes = Struct(f"<{len(rows)}q")
        self._unpack = lanes.unpack
        self._nbytes = lanes.size
        # 2**63 in every lane: adding it leaves every lane in [0, 2**64), and
        # xor with it flips each lane's top bit, between biased and two's complement
        self._bias = bias = int.from_bytes((bytes(7) + b"\x80") * len(rows), "little")
        self._columns = None
        if self.bound < _LANE_LIMIT:
            self._columns = [(int.from_bytes(lanes.pack(*col), "little") ^ bias) - bias
                             for col in zip(*rows)]

    @classmethod
    def of(cls, m: Iterable[Sequence]) -> Packed:
        """The rational matrix m, cleared over the lcm of all its denominators."""
        ratios = [[x.as_integer_ratio() for x in row] for row in m]
        den = lcm(*[d for row in ratios for _, d in row])
        return cls([[n * (den // d) for n, d in row] for row in ratios], den)

    def apply(self, u: Sequence[int]) -> tuple[int, ...]:
        if self._columns is None or self.bound * sum(map(abs, u)) >= _LANE_LIMIT:
            return tuple(sum(map(mul, row, u)) for row in self.rows)
        bias = self._bias
        return self._unpack(
            (sum(map(mul, self._columns, u), bias) ^ bias).to_bytes(self._nbytes, "little"))


def mat_vec(m: Sequence[Sequence] | Packed, v: Sequence) -> Vector:
    packed = m if isinstance(m, Packed) else Packed.of(m)
    nv, dv = _scaled_ints(v)
    return _fractions(packed.apply(nv), packed.den * dv)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    columns = Packed.of(zip(*b))  # row i of a·b is bᵀ applied to row i of a
    return tuple(mat_vec(columns, row) for row in a)


def _full_rank_mod_p(m: list[list[int]], ncols: int) -> bool:
    """Whether the integer rows have rank ncols modulo _PRIME.

    True implies rank ncols over ℚ (a minor nonzero modulo p is nonzero);
    False decides nothing, as p may divide every maximal minor.  Each row is
    one int of 64-bit lanes holding residues, and a row below a pivot gains
    c·(pivot row) with c < p, one big-integer operation.  The pivot row's
    lanes are reduced below p first, so a lane gains less than p² per pivot
    and stays below p·(1 + ncols·p) < 2⁶⁴ (for ncols < 2³³): no lane carries.
    """
    lanes = Struct(f"<{ncols}Q")
    nbytes, mask = lanes.size, (1 << 64) - 1
    rows = [int.from_bytes(lanes.pack(*[x % _PRIME for x in row]), "little") for row in m]
    for c in range(ncols):
        shift = 64 * c
        heads = [(row >> shift & mask) % _PRIME for row in rows]
        pr = next((i for i, k in enumerate(heads) if k), None)
        if pr is None:
            return False
        prow, inv = rows.pop(pr), pow(heads.pop(pr), -1, _PRIME)
        prow = int.from_bytes(lanes.pack(*[
            x % _PRIME for x in lanes.unpack(prow.to_bytes(nbytes, "little"))]), "little")
        rows = [row + (-k * inv % _PRIME) * prow if k else row for row, k in zip(rows, heads)]
    return True


def _unit_rows(m: list[list[int]], ncols: int) -> None:
    """Overwrite m with the unit rows e_0 … e_(ncols−1), then zero rows."""
    for i in range(len(m)):
        m[i] = row = [0] * ncols
        if i < ncols:
            row[i] = 1


def _eliminate(m: list[list[int]], pivot_cols: int) -> list[int]:
    """Fraction-free Gauss–Jordan on integer rows, in place; returns the pivot columns.

    Pivots are sought in the first pivot_cols columns only, left to right.
    Afterwards row i (i < number of pivots) is the i-th pivot row: every
    other pivot column holds 0 in it.  The rows after the pivot rows are
    zero in the first pivot_cols columns.

    When the pivot_cols columns make up the whole row and _full_rank_mod_p
    certifies full column rank, the reduced form is the identity: row i
    becomes the unit row e_i, the rows after them zero, with no integer
    elimination.  Otherwise the forward pass is Bareiss's: with pivot p in
    column c and the previous pivot prev (1 at the start), every row below
    becomes (p·row − row[c]·pivot row) // prev, the rows without an entry in
    column c included.  Each entry is then a minor of the input, so the
    division is exact and needs no gcd; every entry left of the pivot column
    is already zero in those rows, so only the row tail from the pivot
    column is combined.  A full column rank found this way (the prime divided
    every maximal minor) again gives unit rows.  Otherwise every nonzero row is
    divided once by the gcd of its entries, and the back pass clears the
    rows above each pivot, last pivot first, dividing each combined row by
    its gcd.  A pivot row is then a nonzero integer multiple, of either
    sign, of its reduced row echelon row; rank, nullspace, rref and
    solve_in_span do not depend on that sign.  A row is only ever
    replaced by a nonzero multiple of itself plus a multiple of a pivot row,
    so the row space is unchanged.
    """
    nrows = len(m)
    whole_row = nrows and pivot_cols == len(m[0])
    if whole_row and nrows >= pivot_cols and _full_rank_mod_p(m, pivot_cols):
        _unit_rows(m, pivot_cols)
        return list(range(pivot_cols))
    pivots: list[int] = []
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
    if whole_row and r == pivot_cols:
        _unit_rows(m, r)
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

    rank, nullspace and rref accept one in place of the matrix, so a matrix
    that several of them read is eliminated only once.  A Packed is accepted
    in place of the matrix, so rows whose denominators are already cleared
    are not cleared again.  The pivot-row property of _eliminate is checked
    on construction: pivot row i is nonzero in pivot column i and zero in
    every other pivot column.
    """

    __slots__ = ("rows", "pivots", "ncols")

    def __init__(self, m: Sequence[Sequence] | Packed):
        if isinstance(m, Packed):
            rows = [list(row) for row in m.rows]
        else:
            rows = [_scaled_ints(row)[0] for row in m]
        self.ncols = len(rows[0]) if rows else 0
        self.pivots = _eliminate(rows, self.ncols)
        self.rows = rows[:len(self.pivots)]
        for i, row in enumerate(self.rows):
            heads = [row[p] for p in self.pivots]
            if not heads[i] or heads.count(0) != len(heads) - 1:
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


def _augmented(columns: Sequence[Sequence], extra: Sequence[Sequence]) -> list[list[int]]:
    """The integer rows of [A | X], each row cleared of its denominators.

    A has the given columns; extra holds the rows of X, one per row of A.
    """
    return [_scaled_ints([col[i] for col in columns] + list(x))[0] for i, x in enumerate(extra)]


def _check_lengths(columns: Sequence[Sequence], dim: int) -> None:
    if any(len(col) != dim for col in columns):
        raise ValueError(f"every column must have length {dim}")


class SpanSolver:
    """Coordinates over a fixed list of columns, factored once.

    The columns are taken in order: a column linearly dependent on the earlier
    ones never acquires weight (coefficient 0), which makes the answer unique
    even for a dependent spanning set.  The constructor eliminates [A | I] on
    the columns of A and keeps, for each pivot, the integer transform row t
    and pivot entry d with t·A = d·(row of the reduced form); the remaining
    transform rows annihilate A.  The transform rows are packed together, so
    a solve is one packed product.  Both facts are checked before the solver
    is used, so a wrong factorisation raises ValueError instead of answering.
    """

    def __init__(self, columns: Sequence[Sequence], dim: int):
        _check_lengths(columns, dim)
        k = len(columns)
        m = _augmented(columns, [[int(i == j) for j in range(dim)] for i in range(dim)])
        self.dim = dim
        self._ncols = k
        self.pivots = _eliminate(m, k)
        self._dens = [row[p] for row, p in zip(m, self.pivots)]
        self._transform = Packed([row[k:] for row in m])  # pivot rows, then left-null rows
        self._check([_scaled_ints(col) for col in columns])

    def _check(self, scaled_columns: list[tuple[list[int], int]]) -> None:
        r = len(self.pivots)
        at = dict(zip(self.pivots, range(r)))
        for c, (col, den) in enumerate(scaled_columns):
            image = self._transform.apply(col)
            if any(image[r:]):
                raise ValueError("a left-null transform row does not annihilate the columns")
            i = at.get(c)
            if i is not None and image[:r] != tuple(
                    self._dens[i] * den if j == i else 0 for j in range(r)):
                raise ValueError(
                    f"transform row {i} does not map pivot column {c} to its unit vector"
                )

    def solve(self, target: Sequence) -> list[Fraction] | None:
        """Coefficients c with sum(c[j] * column j) == target, or None outside the span."""
        return self.solve_ints(*_scaled_ints(target))

    def solve_ints(self, nb: Sequence[int], db: int = 1) -> list[Fraction] | None:
        """solve() for the target nb / db, given as integers and one denominator."""
        if len(nb) != self.dim:
            raise ValueError(f"target length {len(nb)} != {self.dim}")
        image = self._transform.apply(nb)
        r = len(self.pivots)
        if any(image[r:]):
            return None
        zero = Fraction(0)
        coeffs = [zero] * self._ncols
        for s, d, p in zip(image, self._dens, self.pivots):
            if s:
                coeffs[p] = Fraction(s, d * db)
        return coeffs


def solve_in_span(columns: Sequence[Sequence], target: Sequence) -> list[Fraction] | None:
    """Express target as a combination of the given column vectors, or None outside their span.

    Columns are taken in order, as by SpanSolver: a column dependent on the
    earlier ones gets coefficient 0.  One elimination of [A | b] with pivots
    in A's columns leaves each pivot row zero in the other pivot columns, so
    pivot row i reads c[p_i] = row[k] / row[p_i] with every free coefficient
    0; a nonzero entry of b's column below the pivot rows puts b outside the
    span.  The coefficients are checked, A c = b over one denominator in
    integers, so a wrong elimination raises ArithmeticError instead of
    answering.
    """
    k, dim = len(columns), len(target)
    _check_lengths(columns, dim)
    m = _augmented(columns, [[x] for x in target])
    a = Packed([row[:k] for row in m])
    b = [row[k] for row in m]
    pivots = _eliminate(m, k)
    r = len(pivots)
    if any(row[k] for row in m[r:]):
        return None
    den = lcm(*[row[p] for row, p in zip(m, pivots)])
    nc = [0] * k
    for row, p in zip(m, pivots):
        nc[p] = row[k] * (den // row[p])
    if list(a.apply(nc)) != [x * den for x in b]:
        raise ArithmeticError("elimination of [A | b] gave coefficients that miss b")
    return list(_fractions(nc, den))
