"""Decomposition of permutation actions of S_n into irreducible pieces.

An ActionSpace is any finite basis with an S_n action by index permutation;
every ballots.BallotSpace is one, acting on the indices of its own
enumeration, so the functions here take a ballot space as it is.  Its
character counts fixed basis elements per conjugacy class; inner products
with the irreducible characters give multiplicities, and group averaging with
irreducible character weights gives the exact rational projector onto each
isotypic component.

The action is read from ``act`` once per generator and once per class
representative.  The projector P commutes with the action, so
P[rho(g)[i]][rho(g)[j]] = P[i][j]: row i is the base row of i's orbit
permuted by rho(g_i), for a transversal element g_i carrying the base to i.
Two checked breadth-first searches per orbit (_orbits), one over all n!
elements of S_n and one over the orbit, give the transversal, stored by
column, and the per-class counts from which each base row is summed in
integers.  A projection gathers the vector through each transversal column
and sums the gathered columns per distinct value of the base row, not an
n!-term sum; the search over S_n caps projections at small degrees
(GROUP_SUM_LIMIT).
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import factorial
from operator import add, itemgetter, mul

from . import _linalg as la
from ._record import Record
from .symmetric_group import (
    ClassFunction,
    Partition,
    Permutation,
    class_function,
    class_representative,
    cycle_type,
    enumerate_classes,
    generators,
    irreducible_character,
    one_partition,
    partitions,
    specht_dimension,
)

#: Degrees above this make a search over all n! elements of S_n unreasonable.
GROUP_SUM_LIMIT = 7


class Orbits(Record, fields=("indices", "columns", "counts")):
    """The orbits of an action, found by _orbits.

    indices[b] lists the indices of the orbit whose least index is b, in
    search order, b first.  With g_i a transversal element, rho(g_i)[b] ==
    i, columns[b][p][q] is rho(g_i)[k] for i = indices[b][q] and k =
    indices[b][p].  counts[b][mu, k] is the number of sigma of cycle type mu
    with rho(sigma)[b] == k.
    """

    def __init__(self, indices: dict[int, tuple[int, ...]],
                 columns: dict[int, tuple[tuple[int, ...], ...]], counts: dict[int, Counter]):
        self.__dict__.update(indices=indices, columns=columns, counts=counts)


class ActionSpace:
    """A basis 0..dim-1 with an S_n action: act(sigma, i) is an index.

    The integer views of the action are computed on first use and cached on
    the instance.  Spaces compare and hash by identity, so two spaces with
    equal dim, n and name but different actions are unequal, and no cache is
    shared between them.  A subclass such as ballots.BallotSpace sets the
    fields through this constructor; nothing assigns to them afterwards.
    """

    def __init__(self, dim: int, n: int, act: Callable[[Permutation, int], int], name: str = ""):
        self.dim, self.n, self.act, self.name = dim, n, act, name
        # per partition, the integer projector row of each orbit base (filled by _base_rows)
        self.base_rows: dict[Partition, dict[int, list[int]]] = {}

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(dim={self.dim!r}, n={self.n!r}, "
                f"act={self.act!r}, name={self.name!r})")

    def moves(self, sigma: Permutation) -> tuple[int, ...]:
        """act(sigma, i) for every index i, checked to permute 0..dim-1."""
        move = tuple(self.act(sigma, i) for i in range(self.dim))
        if sorted(move) != list(range(self.dim)):
            raise ValueError(
                f"action {self.name!r}: {sigma} does not permute the indices 0..{self.dim - 1}"
            )
        return move

    @cached_property
    def generator_moves(self) -> tuple[tuple[int, ...], ...]:
        """The index permutation of each element of generators(n)."""
        return tuple(self.moves(g) for g in generators(self.n))

    @cached_property
    def class_moves(self) -> dict[Partition, tuple[int, ...]]:
        """The index permutation of each cycle type's class_representative."""
        return {mu: self.moves(class_representative(mu)) for mu in partitions(self.n)}

    @cached_property
    def orbits(self) -> Orbits:
        """Orbit indices, transversal columns and column counts; see _orbits."""
        return _orbits(self)


def _cayley_graph(n: int) -> tuple[list, dict, list]:
    """S_n in breadth-first order from the identity, stepping sigma -> g o sigma.

    Returns the elements' images, their positions, and per generator g the
    position of g o sigma at each position of sigma.  Raises unless the
    generators reach all n! elements.
    """
    gens = [g.images for g in generators(n)]
    elements = [tuple(range(n))]
    position = {elements[0]: 0}
    steps: list[list[int]] = [[] for _ in gens]
    for sigma in elements:  # elements grows while it is read: a queue
        for g, step in zip(gens, steps):
            tau = tuple(map(g.__getitem__, sigma))
            if tau not in position:
                position[tau] = len(elements)
                elements.append(tau)
            step.append(position[tau])
    if len(elements) != factorial(n):
        raise ValueError(
            f"the generators reached {len(elements)} of the {factorial(n)} permutations of S_{n}"
        )
    return elements, position, steps


def _orbits(space: ActionSpace) -> Orbits:
    """The orbits in index order, each by two breadth-first searches from its least index b.

    The column search walks _cayley_graph and keeps only f(sigma) =
    rho(sigma)[b], using f(g o sigma) = rho(g)[f(sigma)].  Every edge is
    checked, so f is a function on S_n with f(w) = rho(w)[b] for every word w
    in the generators.  Two words equal in S_n therefore move each index
    rho(w_i)[b] of the orbit alike: the generator moves define a
    homomorphism.  The orbit search walks the indices from b, one
    transversal element g_i per index.  Each class representative r is then
    checked against act at every index i as rho(r)[i] = f(r o g_i).  Last,
    rho(g_i) restricted to the orbit is composed along the search, and these
    rows are turned into the orbit's columns.
    """
    n, dim, moves = space.n, space.dim, space.generator_moves
    elements, position, steps = _cayley_graph(n)
    classes = [cycle_type(Permutation(sigma)) for sigma in elements]
    reps = [(mu, class_representative(mu).images, move) for mu, move in space.class_moves.items()]
    seen, indices, columns, counts = [False] * dim, {}, {}, {}
    for b in range(dim):
        if seen[b]:
            continue
        column = [b] + [-1] * (len(elements) - 1)
        for p, x in enumerate(column):  # column[p] was set from an earlier position
            for step, move in zip(steps, moves):
                q, y = step[p], move[x]
                if column[q] < 0:
                    column[q] = y
                elif column[q] != y:
                    raise ValueError(f"action {space.name!r} is not a homomorphism of S_{n}")
        counts[b] = Counter(zip(classes, column))
        seen[b] = True
        orbit, where, parent = [b], {b: 0}, {}  # where[i]: the position of g_i
        for i in orbit:
            for step, move in zip(steps, moves):
                j = move[i]
                if not seen[j]:
                    seen[j], parent[j] = True, (i, move)
                    where[j] = step[where[i]]
                    orbit.append(j)
        for i in orbit:
            for mu, r, move in reps:
                if column[position[tuple(map(r.__getitem__, elements[where[i]]))]] != move[i]:
                    raise ValueError(f"action {space.name!r}: the generated action "
                                     f"disagrees with act on class {mu}")
        rows = {b: tuple(orbit)}  # rho(g_i) on the orbit, in orbit order: parents first
        for j in orbit[1:]:  # j != b, so the orbit has two indices and itemgetter gives a tuple
            i, move = parent[j]
            rows[j] = itemgetter(*rows[i])(move)
        indices[b], columns[b] = tuple(orbit), tuple(zip(*rows.values()))
    _check_transversal(space, indices, columns)
    return Orbits(indices, columns, counts)


def _check_transversal(space: ActionSpace, indices: dict[int, Sequence[int]],
                       columns: dict[int, Sequence[Sequence[int]]]) -> None:
    """Raise ValueError unless the orbits partition the indices and each g_i sends i's base to i.

    An orbit lists its base b first and has one column per index, each with
    one entry per index; the column of b lists rho(g_i)[b] for the indices
    i, which must be the indices themselves.
    """
    dim = space.dim
    if sorted(i for orbit in indices.values() for i in orbit) != list(range(dim)):
        raise ValueError(f"action {space.name!r}: the transversal's orbits do not "
                         f"partition the indices 0..{dim - 1}")
    for b, orbit in indices.items():
        cols, m = columns.get(b, ()), len(orbit)
        if not (m and orbit[0] == b and len(cols) == m and all(len(col) == m for col in cols)
                and tuple(cols[0]) == tuple(orbit)):
            raise ValueError(
                f"action {space.name!r}: the transversal columns of the orbit of {b} "
                f"do not send its base to each of its indices"
            )


def character_inner_product(c1: ClassFunction, c2: ClassFunction) -> Fraction:
    """(1/n!) sum over classes of class_size * c1 * c2 (no conjugation needed)."""
    if c1.n != c2.n:
        raise ValueError(f"degree mismatch: {c1.n} vs {c2.n}")
    total = sum(
        (Fraction(size) * c1(mu) * c2(mu) for mu, size in enumerate_classes(c1.n)),
        Fraction(0),
    )
    return total / factorial(c1.n)


def space_character(space: ActionSpace) -> ClassFunction:
    """Fixed-point counts of the action, one value per conjugacy class."""

    moves = space.class_moves
    return class_function(space.n, lambda mu: sum(1 for i, j in enumerate(moves[mu]) if i == j))


class DecompositionReport(Record, fields=("n", "multiplicities", "dims")):
    """Multiplicities of each irreducible in a permutation module."""

    def __init__(self, n: int, multiplicities: dict[Partition, int], dims: dict[Partition, int]):
        self.__dict__.update(n=n, multiplicities=multiplicities, dims=dims)

    @property
    def total_dim(self) -> int:
        return sum(m * self.dims[mu] for mu, m in self.multiplicities.items())

    def to_tsv(self) -> str:
        lines = []
        for mu in partitions(self.n):
            m, d = self.multiplicities[mu], self.dims[mu]
            lines.append(f"{mu}\t{m}\t{d}\t{m * d}")
        lines.append(f"# dimension sum: {self.total_dim} == {self.total_dim}")
        return "\n".join(lines)


def decompose_character(chi: ClassFunction) -> DecompositionReport:
    """Multiplicity of each irreducible via character inner products.

    Raises if any multiplicity comes out non-integral or negative, which
    signals that chi is not the character of a genuine module.
    """
    mults: dict[Partition, int] = {}
    dims: dict[Partition, int] = {}
    for lam in partitions(chi.n):
        lam_chi = class_function(chi.n, lambda mu: irreducible_character(lam, mu))
        m = character_inner_product(lam_chi, chi)
        if m.denominator != 1 or m < 0:
            raise ValueError(f"invalid character: multiplicity of {lam} is {m}")
        mults[lam] = int(m)
        dims[lam] = specht_dimension(lam)
    report = DecompositionReport(chi.n, mults, dims)
    if report.total_dim != chi(one_partition(chi.n)):
        raise ValueError(
            f"invalid character: multiplicities account for dimension "
            f"{report.total_dim}, character of the identity is {chi(one_partition(chi.n))}"
        )
    return report


def _base_rows(space: ActionSpace, lam: Partition) -> dict[int, list[int]]:
    """n!/dim lam times the projector row of each orbit base b, in integers.

    Row b of the sum over sigma of chi_lam(sigma) * rho(sigma) has at column
    k the sum of chi_lam over the sigma with rho(sigma)[b] == k (chi(sigma) =
    chi(sigma^-1)): a sum of the per-class counts over column b, weighted by
    chi_lam.  The rows are cached on the space per partition.
    """
    if lam.n != space.n:
        raise ValueError(f"degree mismatch: {lam.n} vs {space.n}")
    if space.n > GROUP_SUM_LIMIT:
        raise ValueError(f"degree {space.n} exceeds the group-sum cap {GROUP_SUM_LIMIT}")
    rows = space.base_rows.get(lam)
    if rows is None:
        weight = {mu: irreducible_character(lam, mu) for mu in partitions(space.n)}
        rows = {}
        for b, counts in space.orbits.counts.items():
            row = rows[b] = [0] * space.dim
            for (mu, k), count in counts.items():
                row[k] += weight[mu] * count
        space.base_rows[lam] = rows
    return rows


def isotypic_projector(space: ActionSpace, lam: Partition) -> la.Matrix:
    """Exact projector onto the lam-isotypic component, by group averaging.

    P = (dim lam / n!) * sum over sigma of chi_lam(sigma) * rho(sigma).  P
    commutes with the action, so with g the transversal element carrying the
    base b of i's orbit to i, P[i][rho(g)[k]] = P[b][k]: row i is the base
    row permuted by rho(g), read off the transversal columns.
    """
    rows = _base_rows(space, lam)
    orbits, dim = space.orbits, space.dim
    factor = Fraction(specht_dimension(lam), factorial(space.n))
    out = [[0] * dim for _ in range(dim)]
    for b, orbit in orbits.indices.items():
        targets = [out[i] for i in orbit]
        for k, column in zip(orbit, orbits.columns[b]):
            x = rows[b][k]
            for row, j in zip(targets, column):
                row[j] = x
    return tuple(tuple(factor * x for x in row) for row in out)


def _gathered(w: Sequence[int], columns: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """w at the indices of each column, one tuple per column.

    itemgetter of a single index returns the item, not a 1-tuple, so the
    columns of a one-index orbit are read directly.
    """
    if len(columns[0]) == 1:
        return [(w[col[0]],) for col in columns]
    return [itemgetter(*col)(w) for col in columns]


def project_vector(v: Sequence, space: ActionSpace, lam: Partition) -> la.Vector:
    """Component of v in the lam-isotypic part; components over all lam sum to v.

    With w = D*v in integers (D the lcm of v's denominators) and g, b as in
    isotypic_projector, entry i is (dim lam / (n! * D)) * sum over k of
    base_row[k] * w[rho(g)[k]]: P v exactly.  For each orbit, w is gathered
    through the transversal column of every k with base_row[k] != 0, the
    gathered columns are summed per distinct value c of the base row, and
    the few sums are combined with their c.  The dense P is never built.
    """
    if len(v) != space.dim:
        raise ValueError(f"length mismatch: {len(v)} vs {space.dim}")
    rows = _base_rows(space, lam)
    orbits = space.orbits
    nums, den = la._scaled_ints(v)
    scale, den = specht_dimension(lam), factorial(space.n) * den
    out = [0] * space.dim
    for b, orbit in orbits.indices.items():
        row, by_value = rows[b], {}
        for k, column in zip(orbit, orbits.columns[b]):
            if row[k]:
                by_value.setdefault(row[k], []).append(column)
        total = [0] * len(orbit)
        for c, columns in by_value.items():
            sums = map(sum, zip(*_gathered(nums, columns)))
            total = list(map(add, total, map(mul, repeat(c), sums)))
        for i, x in zip(orbit, total):
            out[i] = Fraction(scale * x, den)
    return tuple(out)


def is_equivariant_matrix(space: ActionSpace, matrix: Sequence[Sequence],
                          columns: ActionSpace | None = None) -> bool:
    """True when matrix[rho(i)][tau(j)] == matrix[i][j] for each generator g.

    rho(g) is the move of g on space, which indexes the rows, and tau(g) its
    move on columns (space when None), which index the columns.  Checking the
    generators suffices, since they generate S_n.
    """
    pairs = zip(space.generator_moves, (columns or space).generator_moves)
    return all(
        matrix[rho[i]][tau[j]] == x
        for rho, tau in pairs for i, row in enumerate(matrix) for j, x in enumerate(row)
    )
