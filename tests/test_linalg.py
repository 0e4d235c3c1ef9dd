import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

import cyclevote._linalg as la
from cyclevote.analysis import subspace_catalog

small_matrix = st.lists(
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    min_size=2,
    max_size=5,
)


# -- matrix helpers the library does not need --------------------------------

def identity_matrix(n):
    one, zero = Fraction(1), Fraction(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def transpose(m):
    return tuple(tuple(Fraction(x) for x in col) for col in zip(*m))


def dot(u, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v, strict=True)), Fraction(0))


def mat(rows):
    return tuple(la.vec(r) for r in rows)


def add(u, v):
    return tuple(Fraction(a) + Fraction(b) for a, b in zip(u, v, strict=True))


def sub(u, v):
    return tuple(Fraction(a) - Fraction(b) for a, b in zip(u, v, strict=True))


def scale(k, v):
    return tuple(Fraction(k) * Fraction(a) for a in v)


def is_zero(v):
    return all(x == 0 for x in v)


# -- oracles ---------------------------------------------------------------------
#
# _fraction_rref is the independent oracle: Fraction row operations, with no
# integer elimination at all.  _bareiss runs the library's own forward pass
# (exact division by the previous pivot), so beside it the tests check the
# back pass and the reading of the rows, not the forward algorithm.
# _gcd_eliminate is the library's earlier integer routine, which divided every
# combined row by the gcd of its entries instead.  _dot_mat_vec and
# _span_solver_solve are the products and the solve that Packed and the
# one-shot solve_in_span replaced.

def _fraction_rref(rows):
    """Reduced row echelon form by Fraction row operations."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
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


def _bareiss(rows):
    """Fraction-free (Bareiss) echelon form: nonzero rows and pivot columns.

    Its forward pass is the library's, so _fraction_rref is the independent check.
    """
    m = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        mult = 1
        for x in fr:
            mult = mult * x.denominator // gcd(mult, x.denominator)
        m.append([int(x * mult) for x in fr])
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
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


def _bareiss_nullspace(rows):
    """Canonical null-space basis by back-substitution on the Bareiss form."""
    if not rows:
        return []
    ncols = len(rows[0])
    ech, pivots = _bareiss(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i in reversed(range(len(pivots))):
            p = pivots[i]
            s = sum((Fraction(ech[i][j]) * x[j] for j in range(p + 1, ncols)), Fraction(0))
            x[p] = -s / ech[i][p]
        basis.append(tuple(x))
    return basis


def _fraction_nullspace(rows):
    """Canonical null-space basis read off _fraction_rref."""
    if not rows:
        return []
    reduced, pivots = _fraction_rref(rows)
    basis = []
    for f in (c for c in range(len(rows[0])) if c not in pivots):
        x = [Fraction(0)] * len(rows[0])
        x[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            x[p] = -row[f]
        basis.append(tuple(x))
    return basis


def _gcd_eliminate(m, pivot_cols):
    """The library's earlier _eliminate: every combined row divided by its gcd."""
    pivots = []
    nrows = len(m)
    r = 0
    for c in range(pivot_cols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        g = gcd(*m[r])
        prow = m[r] = [x // g for x in m[r]]
        p, tail = prow[c], prow[c:]
        for i in range(r + 1, nrows):
            k = m[i][c]
            if k:
                g = gcd(p, k)
                a, b = p // g, k // g
                row = [a * x - b * y for x, y in zip(m[i][c:], tail)]
                g = gcd(*row)
                m[i] = [0] * c + ([x // g for x in row] if g > 1 else row)
        pivots.append(c)
        r += 1
    if nrows and r == pivot_cols == len(m[0]):
        for i in range(r):
            m[i] = [int(i == j) for j in range(r)]
        return pivots
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


def _augmented(columns, dim):
    """The integer rows of [A | I], A the given columns: what SpanSolver eliminates."""
    return [la._scaled_ints([col[i] for col in columns] + [int(i == j) for j in range(dim)])[0]
            for i in range(dim)]


def _dot_mat_vec(rows, u):
    """rows · u, one dot product per row: the loop Packed.apply replaced."""
    return [sum(map(mul, row, u)) for row in rows]


def _span_solver_solve(columns, target):
    """The library's earlier solve_in_span: a SpanSolver factor of [A | I] per call."""
    return la.SpanSolver(columns, len(target)).solve(target)


def _gcd_solve(columns, target):
    """SpanSolver's recipe on _gcd_eliminate's elimination of [A | I]."""
    k = len(columns)
    m = _augmented(columns, len(target))
    pivots = _gcd_eliminate(m, k)
    nb, db = la._scaled_ints(target)
    if any(sum(map(mul, row[k:], nb)) for row in m[len(pivots):]):
        return None
    coeffs = [Fraction(0)] * k
    for row, p in zip(m, pivots):
        coeffs[p] = Fraction(sum(map(mul, row[k:], nb)), row[p] * db)
    return coeffs


def _oracle_solve(columns, target):
    """One Fraction RREF of [A | b] per call; earlier columns win, None outside the span."""
    aug = [tuple(Fraction(col[i]) for col in columns) + (Fraction(target[i]),)
           for i in range(len(target))]
    reduced, pivots = _fraction_rref(aug)
    k = len(columns)
    if k in pivots:
        return None
    coeffs = [Fraction(0)] * k
    for row, p in zip(reduced, pivots):
        coeffs[p] = row[k]
    return coeffs


_entry = st.one_of(
    st.just(0), st.integers(-5, 5), st.fractions(-4, 4, max_denominator=6)
)


@st.composite
def rational_matrix(draw):
    """Wide, tall and empty shapes; zero rows and all-zero matrices included."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    if draw(st.integers(0, 9)) == 0:
        return [[0] * ncols for _ in range(nrows)]
    rows = []
    for _ in range(nrows):
        if draw(st.integers(0, 5)) == 0:
            rows.append([0] * ncols)
        else:
            rows.append(draw(st.lists(_entry, min_size=ncols, max_size=ncols)))
    return rows


_large_entry = st.one_of(
    st.integers(-10**15, 10**15), st.fractions(-10**6, 10**6, max_denominator=10**6)
)


@st.composite
def elimination_matrix(draw):
    """Rank-deficient rows over skipped columns, duplicate rows, large entries.

    Every row is a small combination of at most rank base rows, a copy of an
    earlier row, or zero; the drawn zero columns are zero in every row, so
    the elimination skips them.
    """
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    entry = draw(st.sampled_from([_entry, _large_entry]))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    base = [[0 if j in zero_cols else draw(entry) for j in range(ncols)]
            for _ in range(draw(st.integers(0, min(nrows, ncols))))]
    rows = []
    for _ in range(nrows):
        kind = draw(st.integers(0, 5))
        if kind == 0 and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == 1 or not base:
            rows.append([0] * ncols)
        else:
            ks = [draw(st.integers(-3, 3)) for _ in base]
            rows.append([sum((k * Fraction(b[j]) for k, b in zip(ks, base)), Fraction(0))
                         for j in range(ncols)])
    return draw(st.permutations(rows))


@given(elimination_matrix())
@settings(max_examples=300)
def test_eliminate_matches_the_gcd_oracle(rows):
    ncols = len(rows[0])
    new, old = ([la._scaled_ints(row)[0] for row in rows] for _ in range(2))
    pivots = la._eliminate(new, ncols)
    assert pivots == _gcd_eliminate(old, ncols)
    r = len(pivots)
    # both leave primitive pivot rows, so they agree up to sign, and zero rows after them
    for a, b in zip(new[:r], old[:r]):
        assert a in (b, [-x for x in b])
    assert not any(map(any, new[r:])) and not any(map(any, old[r:]))
    assert la.rank(rows) == r == len(_fraction_rref(rows)[1])
    assert la.rref(rows) == _fraction_rref(rows)
    assert la.nullspace(rows) == _fraction_nullspace(rows) == _bareiss_nullspace(rows)


@given(elimination_matrix(), st.lists(_entry, min_size=7, max_size=7), st.booleans())
@settings(max_examples=300)
def test_span_solver_matches_the_gcd_oracle(rows, coeffs, inside):
    # the rows serve as the columns of A; pivots are sought in A's columns of
    # [A | I] only, below the width of the rows
    k, dim = len(rows), len(rows[0])
    new, old = _augmented(rows, dim), _augmented(rows, dim)
    pivots = la._eliminate(new, k)
    assert pivots == _gcd_eliminate(old, k)
    assert pivots == _fraction_rref([row[:k] for row in _augmented(rows, dim)])[1]
    # a pivot row's A part, over its pivot entry, is the unique reduced row of A
    for a, b, p in zip(new, old, pivots):
        assert [Fraction(x, a[p]) for x in a[:k]] == [Fraction(x, b[p]) for x in b[:k]]
    assert not any(any(row[:k]) for row in new[len(pivots):])
    if inside:
        target = la.zeros(dim)
        for c, col in zip(coeffs, rows):
            target = add(target, scale(c, col))
    else:
        target = coeffs[:dim]
    solver = la.SpanSolver(rows, dim)
    assert solver.pivots == pivots
    assert solver.solve(target) == _gcd_solve(rows, target) == _oracle_solve(rows, target)


def test_vector_arithmetic_gives_fractions_for_any_rational_input():
    half = Fraction(1, 2)
    got = la.vec((0.5, True, half))
    assert type(got) is tuple and all(type(x) is Fraction for x in got), got
    assert got == (half, 1, half)


@given(rational_matrix())
@settings(max_examples=200)
def test_rref_matches_fraction_oracle(rows):
    assert la.rref(rows) == _fraction_rref(rows)


@given(rational_matrix())
@settings(max_examples=200)
def test_rank_and_nullspace_match_bareiss_oracle(rows):
    assert la.rank(rows) == len(_bareiss(rows)[1])
    assert la.nullspace(rows) == _bareiss_nullspace(rows)


@given(rational_matrix(), st.lists(_entry, min_size=7, max_size=7), st.integers(0, 2))
@settings(max_examples=150)
def test_span_solver_matches_oracle_solve(rows, coeffs, mode):
    # the rows of the drawn matrix serve as columns; targets inside the span
    # (a combination) and arbitrary targets, which often fall outside it
    if not rows:
        return
    dim = len(rows[0])
    if mode == 0:
        target = list(coeffs[:dim])
    else:
        target = la.zeros(dim)
        for c, col in zip(coeffs, rows):
            target = add(target, scale(c, col))
    solver = la.SpanSolver(rows, dim)
    assert solver.solve(target) == _oracle_solve(rows, target)
    assert la.solve_in_span(rows, target) == _oracle_solve(rows, target)


@given(rational_matrix(), st.lists(_entry, min_size=7, max_size=7))
def test_project_onto_span_is_orthogonal(rows, entries):
    if not rows:
        return
    v = entries[:len(rows[0])]
    proj = _project_onto_span(rows, v)
    assert la.solve_in_span(rows, proj) is not None
    residual = sub(v, proj)
    assert all(dot(residual, row) == 0 for row in rows)


@given(rational_matrix())
@settings(max_examples=150)
def test_echelon_stands_in_for_its_matrix(rows):
    ech = la.Echelon(rows)
    assert la.rank(ech) == len(_bareiss(rows)[1])
    assert la.nullspace(ech) == _bareiss_nullspace(rows)
    assert la.rref(ech) == la.rref(ech) == _fraction_rref(rows)


@st.composite
def full_column_rank_matrix(draw):
    """An invertible upper triangle plus free rows, mixed by row operations.

    Adding multiples of earlier rows and permuting rows keeps the column
    rank, so every drawn matrix has rank equal to its column count.
    """
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(ncols, 8))
    nonzero = _entry.filter(lambda x: x != 0)
    rows = [[draw(nonzero) if j == i else draw(_entry) if j > i else 0 for j in range(ncols)]
            for i in range(ncols)]
    rows += [draw(st.lists(_entry, min_size=ncols, max_size=ncols))
             for _ in range(nrows - ncols)]
    for i in range(1, nrows):
        for j in range(i):
            k = draw(st.integers(-2, 2))
            rows[i] = [Fraction(a) + k * Fraction(b) for a, b in zip(rows[i], rows[j])]
    return draw(st.permutations(rows))


_P = 32749  # the certificate's prime


def _certified(rows):
    """Whether the rank certificate modulo _P accepts rows."""
    return la._full_rank_mod_p([la._scaled_ints(row)[0] for row in rows], len(rows[0]))


def _assert_unit_rows(rows):
    """_eliminate leaves unit rows over zero rows, and the oracles agree."""
    ncols = len(rows[0])
    assert _bareiss(rows)[1] == list(range(ncols))  # full column rank, by the oracle
    m = [la._scaled_ints(row)[0] for row in rows]
    assert la._eliminate(m, ncols) == list(range(ncols))
    unit = [[int(i == j) for j in range(ncols)] for i in range(len(rows))]
    assert m == unit
    assert la.Echelon(rows).rows == unit[:ncols]
    assert la.rref(rows) == _fraction_rref(rows)
    assert la.rank(rows) == ncols
    assert la.nullspace(rows) == _bareiss_nullspace(rows) == []


@pytest.mark.parametrize("rows", [
    [[2, 1], [1, 3]],
    [[Fraction(1, 2), 3, -1], [4, 0, 2], [1, 1, Fraction(-2, 3)]],
    [[1, 2], [3, 4], [5, 6], [0, 0]],
    [[0, 2, 1], [3, 0, 0], [1, 1, 1]],  # the first pivot needs a row swap
    [[0, 0], [0, 5], [7, 0]],
], ids=["square", "square-fractional", "tall", "row-swap", "tall-row-swaps"])
def test_full_column_rank_gives_unit_rows(rows):
    _assert_unit_rows(rows)


@given(full_column_rank_matrix(), st.lists(_entry, min_size=8, max_size=8))
@settings(max_examples=150)
def test_full_column_rank_matches_oracles(rows, target):
    _assert_unit_rows(rows)
    # the drawn entries are small, so p divides no maximal minor: certified
    assert _certified(rows)
    # the columns of rows as a spanning set: SpanSolver always runs the back pass
    columns = [list(col) for col in zip(*rows)]
    target = target[:len(rows)]
    assert la.SpanSolver(columns, len(rows)).solve(target) == _oracle_solve(columns, target)


@pytest.mark.parametrize("rows", [
    [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 1]],
    [[0, 0, 3, 1, 2], [0, 0, 6, 2, 4], [1, 0, 0, 0, 1]],
    [[0, 1, 2], [0, 2, 4]],
], ids=["wide", "wide-zero-columns", "wide-leading-zero-column"])
def test_rank_deficient_matches_oracles(rows):
    ech = la.Echelon(rows)
    assert ech.pivots == _bareiss(rows)[1] and len(ech.pivots) < len(rows[0])
    assert la.rref(ech) == _fraction_rref(rows)
    assert la.nullspace(ech) == _bareiss_nullspace(rows)
    # pivot rows are zero in the other pivot columns, whatever their sign
    for i, row in enumerate(ech.rows):
        assert [row[p] != 0 for p in ech.pivots] == [i == j for j in range(len(ech.pivots))]


@given(rational_matrix())
def test_echelon_of_a_scaled_matrix(rows):
    packed = la.Packed.of(rows)
    cleared = [list(row) for row in packed.rows]
    a, b = la.Echelon(packed), la.Echelon(rows)
    assert (a.rows, a.pivots, a.ncols) == (b.rows, b.pivots, b.ncols)
    assert packed.rows == cleared  # elimination leaves the packed rows as they were


def test_echelon_checks_its_pivot_rows(monkeypatch):
    real = la._eliminate

    def uncleared(m, pivot_cols):
        pivots = real(m, pivot_cols)
        m[0][pivots[1]] = 1  # pivot row 0 no longer zero in pivot column 1
        return pivots

    monkeypatch.setattr(la, "_eliminate", uncleared)
    with pytest.raises(ArithmeticError, match="pivot row 0"):
        la.Echelon([[1, 2], [3, 4]])


def _catalog_columns(label):
    """Columns of a whole catalog, or of a sub-list that leaves targets outside."""
    space_id, _, part = label.partition("-")
    catalog = subspace_catalog(space_id)
    if part == "without-T":
        return catalog.all_vectors()[1:]
    if part:
        return [v for name in part.split("+") for v in catalog.entry(name).vectors]
    return catalog.all_vectors()


@pytest.mark.parametrize("label", [
    "co4", "rolo4", "co5", "co4-without-T", "rolo4-without-T", "co5-without-T",
    "co4-nonadj", "co4-nonadj+rev",
])
def test_catalog_solver_matches_oracle(label):
    columns = _catalog_columns(label)
    rng = random.Random(f"catalog-solver-{label}")
    dim = len(columns[0])
    solver = la.SpanSolver(columns, dim)
    outside = 0
    for trial in range(12):
        if trial % 2:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in columns]
            target = la.zeros(dim)
            for c, col in zip(coeffs, columns):
                target = add(target, scale(c, col))
        else:
            target = la.vec(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(dim))
        got = solver.solve(target)
        assert got == _oracle_solve(columns, target)
        outside += got is None
    # full catalogs span their space; the sub-lists do not
    assert (outside == 0) == (label in ("co4", "rolo4", "co5"))


def test_catalog_solver_is_built_once():
    catalog = subspace_catalog("co5")
    assert subspace_catalog("co5") is catalog
    assert catalog.solver is catalog.solver
    assert catalog.solver.pivots == list(range(24))
    # the dependent nonadj triple of co4: the third vector never gets weight
    co4 = subspace_catalog("co4")
    assert co4.solver.pivots == [0, 1, 2, 4, 5, 6]


@pytest.mark.parametrize("row", [0, -1], ids=["pivot-row", "null-row"])
def test_corrupted_factorisation_raises(monkeypatch, row):
    real = la._eliminate
    columns = subspace_catalog("co4").entry("rev").vectors  # rank 3 in 6 dimensions

    def corrupted(m, pivot_cols):
        pivots = real(m, pivot_cols)
        m[row][pivot_cols] += 1  # first transform entry: rev vector 1 reads 1 there
        return pivots

    la.SpanSolver(columns, 6)
    monkeypatch.setattr(la, "_eliminate", corrupted)
    with pytest.raises(ValueError):
        la.SpanSolver(columns, 6)


def test_empty_and_mismatched_inputs():
    assert la.rank([]) == 0 and la.nullspace([]) == [] and la.rref([]) == ([], [])
    assert la.solve_in_span([], (0, 0)) == []
    assert la.solve_in_span([], (0, 1)) is None
    with pytest.raises(ValueError):
        la.SpanSolver([(1, 0), (0, 1, 0)], 2)
    with pytest.raises(ValueError):
        la.SpanSolver([(1, 0)], 2).solve((1, 0, 0))


def test_rank_and_nullspace_basics():
    m = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert la.rank(m) == 2
    ns = la.nullspace(m)
    assert len(ns) == 1
    assert la.mat_vec(m, ns[0]) == la.zeros(3)


def test_rref_identity():
    m = [[2, 0], [0, 3]]
    rows, pivots = la.rref(m)
    assert rows == [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    assert pivots == [0, 1]


def test_solve_in_span_prefers_earlier_columns():
    # the third column is the negated sum of the first two: it gets weight 0
    cols = [(1, 0), (0, 1), (-1, -1)]
    coeffs = la.solve_in_span(cols, (3, 4))
    assert coeffs == [Fraction(3), Fraction(4), Fraction(0)]


def test_solve_in_span_outside():
    assert la.solve_in_span([(1, 0, 0)], (0, 1, 0)) is None


def test_fractional_rows():
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(2)]]
    assert la.rank(m) == 2
    assert la.nullspace(m) == []
    singular = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1)]]
    assert la.rank(singular) == 1
    (kernel_vector,) = la.nullspace(singular)
    assert la.mat_vec(singular, kernel_vector) == la.zeros(2)


@given(small_matrix)
def test_nullspace_annihilated_and_dimension(rows):
    ns = la.nullspace(rows)
    assert la.rank(rows) + len(ns) == 4
    for v in ns:
        assert la.mat_vec(rows, v) == la.zeros(len(rows))


@given(small_matrix)
def test_rref_rank_agrees_with_bareiss(rows):
    reduced, pivots = la.rref(rows)
    assert len(pivots) == la.rank(rows)
    # reducing again changes nothing
    assert la.rref(reduced)[0] == reduced


@given(st.lists(st.integers(-9, 9), min_size=3, max_size=3))
def test_solve_recovers_combination(coeffs):
    cols = [(1, 0, 2), (0, 1, 1), (1, 1, 0)]
    target = la.zeros(3)
    for c, col in zip(coeffs, cols):
        target = add(target, scale(c, col))
    got = la.solve_in_span(cols, target)
    assert got is not None
    rebuilt = la.zeros(3)
    for c, col in zip(got, cols):
        rebuilt = add(rebuilt, scale(c, col))
    assert rebuilt == target


def test_mat_mul_and_transpose():
    a = ((1, 2), (3, 4))
    assert la.mat_mul(a, identity_matrix(2)) == mat(a)
    assert transpose(transpose(a)) == mat(a)
    assert dot((1, 2, 3), (4, 5, 6)) == 32


# -- packed lanes ------------------------------------------------------------------

_LIMIT = 2**63

_lane_entry = st.one_of(
    st.integers(-9, 9),
    st.integers(-2**62, 2**62),
    st.sampled_from([0, 2**62, -2**62, 2**62 - 1, 1 - 2**62]),
)


@st.composite
def packed_case(draw):
    """A matrix with drawn zero columns and a vector: small, near ±2⁶², or past the lane bound."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = draw(st.sampled_from([st.integers(-9, 9), _lane_entry]))
    zero_cols = draw(st.sets(st.integers(0, max(ncols - 1, 0)), max_size=ncols))
    rows = [[0 if j in zero_cols else draw(entry) for j in range(ncols)] for _ in range(nrows)]
    u = draw(st.one_of(st.just([0] * ncols),
                       st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
                       st.lists(_lane_entry, min_size=ncols, max_size=ncols)))
    return rows, u


@given(packed_case())
@settings(max_examples=400)
def test_packed_apply_matches_dot_products(case):
    rows, u = case
    got = la.Packed(rows).apply(u)
    assert type(got) is tuple and list(got) == _dot_mat_vec(rows, u)


@pytest.mark.parametrize("rows,u", [
    ([], []),  # empty matrix
    ([[1, -2, 3], [0, 0, 0]], [0, 0, 0]),  # zero vector
    ([[0, 5, 0], [0, -7, 0]], [4, -1, 9]),  # zero columns
    ([[2**62, -2**62], [1 - 2**62, 2**62 - 1]], [1, 0]),  # lanes at ±2⁶², inside the bound
    ([[2**62 - 1, 2**62 - 1], [-(2**62 - 1), 3]], [1, -1]),  # bound·Σ|u| = 2⁶³ − 2
    ([[2**62, 2**62], [-2**62, -2**62]], [1, 1]),  # ±2⁶³: one past the bound
    ([[2**62], [-2**62]], [5]),  # lanes would wrap: the dot branch must run
    ([[2**64, -3], [1, 2**70]], [2, 1]),  # entries no lane can hold
    ([[2**64, -3], [1, 2**70]], [0, 0]),
], ids=["empty", "zero-vector", "zero-columns", "lane-extremes", "just-inside",
        "just-past", "wrapping", "unpackable", "unpackable-zero"])
def test_packed_apply_edge_cases(rows, u):
    packed = la.Packed(rows)
    assert list(packed.apply(u)) == _dot_mat_vec(rows, u)
    inside = packed.bound * sum(map(abs, u)) < _LIMIT
    # inside the bound every lane of the product fits a signed 64-bit lane
    assert not inside or all(-_LIMIT <= x < _LIMIT for x in _dot_mat_vec(rows, u))


@st.composite
def packed_of_case(draw):
    """A rational matrix, empty and zero-width shapes included, and an integer vector."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = draw(st.sampled_from([_entry, _large_entry]))
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    return rows, draw(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols))


@given(packed_of_case())
@settings(max_examples=300)
def test_packed_of_clears_over_the_lcm_of_the_denominators(case):
    rows, u = case
    packed = la.Packed.of(rows)
    assert packed.den == lcm(*[Fraction(x).denominator for row in rows for x in row])
    assert [len(row) for row in packed.rows] == [len(row) for row in rows]
    assert all(type(x) is int for row in packed.rows for x in row)
    assert all(x == Fraction(y) * packed.den for row, want in zip(packed.rows, rows)
               for x, y in zip(row, want, strict=True))
    got = packed.apply(u)
    assert [Fraction(x, packed.den) for x in got] == [dot(row, u) for row in rows]
    assert la.Packed.of(iter(rows)).rows == packed.rows  # one pass over an iterator


@pytest.mark.parametrize("rows,den", [
    ([], 1),
    ([[], []], 1),
    ([[0, 0]], 1),
    ([[Fraction(1, 2), 3], [Fraction(-2, 3), 0]], 6),
    ([[0.5, True]], 2),
], ids=["empty", "zero-width", "zero", "mixed", "float-and-bool"])
def test_packed_of_edge_cases(rows, den):
    packed = la.Packed.of(rows)
    assert packed.den == den and len(packed.rows) == len(rows)
    assert packed.apply([1] * (len(rows[0]) if rows else 0)) == tuple(
        int(sum(Fraction(x) for x in row) * den) for row in rows)


@given(rational_matrix(), st.lists(_entry, min_size=7, max_size=7))
def test_mat_vec_matches_fraction_dot_products(rows, entries):
    v = entries[:len(rows[0]) if rows else 3]
    want = tuple(dot(row, v) for row in rows)
    assert la.mat_vec(rows, v) == want
    packed = la.Packed.of(rows)
    assert la.mat_vec(packed, v) == la.mat_vec(packed, v) == want


@given(rational_matrix())
def test_mat_mul_matches_fraction_dot_products(rows):
    cols = transpose(rows)
    assert la.mat_mul(rows, cols) == tuple(tuple(dot(a, b) for b in rows) for a in rows)
    assert la.mat_mul(cols, rows) == tuple(tuple(dot(a, b) for b in cols) for a in cols)


def _project_onto_span(rows, v):
    """Orthogonal projection of v onto the span of rows, by the exact normal equations.

    Any spanning set serves: with B the rows over one common denominator,
    every solution c of (B Bᵀ) c = B v gives the same Bᵀ c, the projection,
    and solve_in_span finds one even when the rows are dependent.  This is
    the recipe of analysis._kernel_part, on rational rows and vectors.
    """
    packed = la.Packed.of(rows)
    nv, dv = la._scaled_ints(v)
    gram = [packed.apply(b) for b in packed.rows]  # column j is B · b_j; symmetric
    coeffs = la.solve_in_span(gram, la._fractions(packed.apply(nv), dv))
    assert coeffs is not None
    nc, dc = la._scaled_ints(coeffs)
    return la._fractions(la.Packed(list(zip(*packed.rows))).apply(nc), dc)


def _fraction_projection(rows, v):
    """Projection onto the span of rows by Fraction normal equations on their RREF rows."""
    basis, _ = _fraction_rref(rows)
    coeffs = _oracle_solve([[dot(a, b) for b in basis] for a in basis], [dot(a, v) for a in basis])
    projection = la.zeros(len(v))
    for c, b in zip(coeffs, basis):
        projection = add(projection, scale(c, b))
    return projection


@given(elimination_matrix(), st.lists(_entry, min_size=7, max_size=7))
@settings(max_examples=150)
def test_project_onto_any_spanning_set(rows, entries):
    # dependent, duplicate and zero rows: the normal equations are singular
    # then, and still give the one projection
    v = entries[:len(rows[0])]
    assert _project_onto_span(rows, v) == _fraction_projection(rows, v)


# -- the rank certificate modulo p ----------------------------------------------------

def test_the_certificate_prime():
    # trial division by 2..181 decides primality below 182² > 2¹⁵
    def is_prime(q):
        return all(q % f for f in range(2, 182))

    assert _P == la._PRIME and (_P - 1) ** 2 < 2**30
    assert is_prime(_P) and not any(map(is_prime, range(_P + 1, 2**15)))


@given(elimination_matrix())
@settings(max_examples=300)
def test_certificate_implies_full_rank(rows):
    ncols = len(rows[0])
    full = len(_fraction_rref(rows)[1]) == ncols
    if _certified(rows):
        assert full
    m = [la._scaled_ints(row)[0] for row in rows]
    assert (la._eliminate(m, ncols) == list(range(ncols))) == full


@pytest.mark.parametrize("rows", [
    [[1, 2, 3], [2, 4, 6], [0, 1, 1]],
    [[1, 2], [2, 4]],
    [[0, 0, 0], [1, 2, 3], [4, 5, 6]],
    [[Fraction(1, 2), 1, 0], [1, 2, 0], [0, 0, 1], [1, 2, 1]],
], ids=["square-rank-2", "square-rank-1", "zero-row", "tall-rank-2"])
def test_certificate_refuses_rank_deficient_matrices(rows):
    assert not _certified(rows)
    assert la.rank(rows) == len(_fraction_rref(rows)[1]) < len(rows[0])
    assert la.nullspace(rows) == _fraction_nullspace(rows) != []


@pytest.mark.parametrize("rows", [
    [[_P if i == j == 0 else int(i == j) for j in range(4)] for i in range(4)],
    [[_P, 1], [2 * _P, 3]],  # determinant p
    [[_P], [2 * _P]],  # tall, every entry divisible by p
    [[1, 2, 0], [3, 6 + _P, 0], [0, 0, 5]],  # determinant 5p, no entry a multiple of p
], ids=["diag-p-1-1-1", "det-p", "tall-multiples-of-p", "det-5p"])
def test_bareiss_decides_when_p_divides_every_maximal_minor(rows):
    assert not _certified(rows)
    _assert_unit_rows(rows)  # full column rank all the same


@given(full_column_rank_matrix())
@settings(max_examples=50)
def test_certified_and_bareiss_paths_agree(rows):
    ncols = len(rows[0])
    certified = [la._scaled_ints(row)[0] for row in rows]
    assert la._eliminate(certified, ncols) == list(range(ncols))
    real = la._full_rank_mod_p
    try:
        la._full_rank_mod_p = lambda m, ncols: False
        fallback = [la._scaled_ints(row)[0] for row in rows]
        assert la._eliminate(fallback, ncols) == list(range(ncols))
    finally:
        la._full_rank_mod_p = real
    assert certified == fallback


# -- the one-shot solve ----------------------------------------------------------------

@given(rational_matrix(), st.lists(_entry, min_size=7, max_size=7), st.integers(0, 2))
@settings(max_examples=200)
def test_solve_in_span_matches_the_span_solver(rows, coeffs, mode):
    # the rows serve as columns: dependent ones (weight 0), zero ones, and
    # targets inside the span (mode > 0) or mostly outside it (mode 0)
    dim = len(rows[0]) if rows else len(coeffs) % 4
    if mode == 0:
        target = list(coeffs[:dim])
    else:
        target = la.zeros(dim)
        for c, col in zip(coeffs, rows):
            target = add(target, scale(c, col))
    got = la.solve_in_span(rows, target)
    assert got == _span_solver_solve(rows, target) == _oracle_solve(rows, target)
    assert got is None or type(got) is list


@pytest.mark.parametrize("columns,target,want", [
    ([], (), []),  # k = 0, dim = 0
    ([], (0, 0), []),  # k = 0
    ([], (0, 1), None),
    ([(), ()], (), [0, 0]),  # dim = 0
    ([(1, 2), (2, 4), (0, 1)], (3, 7), [3, 0, 1]),  # the dependent column gets weight 0
    ([(1, 2), (2, 4)], (1, 3), None),  # outside the span
    ([(0, 0), (1, 1)], (2, 2), [0, 2]),  # a zero column gets weight 0
    ([(Fraction(1, 2), 0), (0, Fraction(1, 3))], (1, 1), [2, 3]),
], ids=["empty", "no-columns", "no-columns-outside", "dim-0", "dependent", "outside",
        "zero-column", "fractional"])
def test_solve_in_span_edge_cases(columns, target, want):
    got = la.solve_in_span(columns, target)
    assert got == want == _span_solver_solve(columns, target)
    with pytest.raises(ValueError):
        la.solve_in_span(list(columns) + [(1,) * (len(target) + 1)], target)


def test_solve_in_span_checks_its_answer(monkeypatch):
    real = la._eliminate

    def corrupted(m, pivot_cols):
        pivots = real(m, pivot_cols)
        m[0][pivot_cols] += 1  # b's entry in pivot row 0
        return pivots

    monkeypatch.setattr(la, "_eliminate", corrupted)
    with pytest.raises(ArithmeticError, match="miss b"):
        la.solve_in_span([(1, 0), (0, 1)], (3, 4))
