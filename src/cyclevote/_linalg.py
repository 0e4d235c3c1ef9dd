"""Exact linear algebra over the rationals.

Matrices are lists/tuples of equal-length rows of ints or Fractions.
Row reduction comes in two flavours: fraction-free (Bareiss) elimination on
integer-cleared rows, used for ranks and null spaces, and ordinary reduced
row echelon form over Fraction, used for solving and canonical bases.
Everything here is exact; no floats ever appear.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]


def vec(entries) -> Vector:
    return tuple(Fraction(e) for e in entries)


def mat(rows) -> Matrix:
    return tuple(vec(r) for r in rows)


def zeros(n: int) -> Vector:
    return (Fraction(0),) * n


def add(u: Sequence, v: Sequence) -> Vector:
    return tuple(Fraction(a) + Fraction(b) for a, b in zip(u, v, strict=True))


def sub(u: Sequence, v: Sequence) -> Vector:
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v, strict=True))


def scale(k, v: Sequence) -> Vector:
    k = Fraction(k)
    return tuple(k * Fraction(a) for a in v)


def dot(u: Sequence, v: Sequence) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v, strict=True)), Fraction(0))


def _scaled_ints(v: Sequence) -> tuple[list[int], int]:
    """Write v as (integer vector) / denominator, exactly."""
    den = 1
    for x in v:
        d = x.denominator if isinstance(x, Fraction) else 1
        den = den * d // gcd(den, d)
    nums = [
        x.numerator * (den // x.denominator) if isinstance(x, Fraction) else x * den
        for x in v
    ]
    return nums, den


def mat_vec(m: Sequence[Sequence], v: Sequence) -> Vector:
    # scale to integers once, multiply in int arithmetic, normalise per entry
    nv, dv = _scaled_ints(v)
    scaled_rows = [_scaled_ints(row) for row in m]
    return tuple(
        Fraction(sum(a * b for a, b in zip(nr, nv)), dr * dv) for nr, dr in scaled_rows
    )


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    scaled_a = [_scaled_ints(row) for row in a]
    scaled_b = [_scaled_ints(col) for col in zip(*b)]
    return tuple(
        tuple(
            Fraction(sum(x * y for x, y in zip(nr, nc)), dr * dc)
            for nc, dc in scaled_b
        )
        for nr, dr in scaled_a
    )


def transpose(m: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in col) for col in zip(*m))


def identity_matrix(n: int) -> Matrix:
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def is_zero(v: Sequence) -> bool:
    return all(x == 0 for x in v)


def _integer_rows(rows: Sequence[Sequence]) -> list[list[int]]:
    """Scale each row by the lcm of its denominators (row space unchanged)."""
    out = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        mult = 1
        for x in fr:
            mult = mult * x.denominator // gcd(mult, x.denominator)
        out.append([int(x * mult) for x in fr])
    return out


def _bareiss(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free echelon form of an integer matrix.

    Returns the echelon rows (trailing zero rows dropped) and the pivot
    columns.  All intermediate divisions are exact by the Bareiss identity.
    """
    m = [r[:] for r in _integer_rows(rows)]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(r + 1, len(m)):
            for j in range(ncols):
                if j == c:
                    continue
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(_bareiss(rows)[1])


def nullspace(rows: Sequence[Sequence]) -> list[Vector]:
    """Basis of {x : rows @ x = 0}, one vector per free column.

    The basis is canonical: vector k has entry 1 at the k-th free column and
    zeros at the other free columns.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    ech, pivots = _bareiss(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i in reversed(range(len(pivots))):
            p = pivots[i]
            s = sum((Fraction(ech[i][j]) * x[j] for j in range(p + 1, ncols)), Fraction(0))
            x[p] = -s / ech[i][p]
        basis.append(tuple(x))
    return basis


def rref(rows: Sequence[Sequence]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form over Fraction; returns (nonzero rows, pivot cols)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                k = m[i][c]
                m[i] = [a - k * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def row_space_basis(rows: Sequence[Sequence]) -> list[Vector]:
    return rref(rows)[0]


def solve_in_span(columns: Sequence[Sequence], target: Sequence) -> list[Fraction] | None:
    """Express target as a combination of the given column vectors.

    Columns are taken in order: a column linearly dependent on the earlier
    ones never acquires weight (coefficient 0), which makes the answer unique
    even for a dependent spanning set.  Returns None when target is outside
    the span.
    """
    cols = [vec(c) for c in columns]
    b = vec(target)
    aug = [tuple(col[i] for col in cols) + (b[i],) for i in range(len(b))]
    reduced, pivots = rref(aug)
    k = len(cols)
    if k in pivots:
        return None
    coeffs = [Fraction(0)] * k
    for row, p in zip(reduced, pivots):
        coeffs[p] = row[k]
    return coeffs
