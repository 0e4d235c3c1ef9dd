"""Decomposition of permutation actions of S_n into irreducible pieces.

An ActionSpace is any finite basis with an S_n action by index permutation.
Its character counts fixed basis elements per conjugacy class; inner products
with the irreducible characters give multiplicities, and group averaging with
irreducible character weights gives the exact rational projector onto each
isotypic component.

The action is read from ``act`` once per generator and once per class
representative.  A group table holds the index permutation of every element
of S_n: it is built on first use by breadth-first search from the generator
moves, checked against ``act``, grouped by cycle type and kept on the space
as one compact integer array.  The projector P commutes with the action, so
P[rho(g)[i]][rho(g)[j]] = P[i][j]: it is fixed by one row per orbit.  Each
base row is one integer count over one column of the table, and every other
row is a base row permuted by a table row (a transversal, also cached on the
space).  A projection is therefore dim**2 integer products, not an n!-term
sum.  The table has n! rows, so projections are capped at small degrees
(GROUP_SUM_LIMIT).
"""
from __future__ import annotations

from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial
from operator import itemgetter, mul
from typing import Callable, Sequence

from . import _linalg as la
from .symmetric_group import (
    ClassFunction,
    Partition,
    Permutation,
    all_permutations,
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

#: Degrees above this make the n!-row group table unreasonable.
GROUP_SUM_LIMIT = 7

#: (cycle type, start, stop): the slice of the flat table that one class fills.
ClassSlice = tuple[Partition, int, int]

#: (bases, offsets): for each index i, the least index b of i's orbit and the
#: table offset of the row of some sigma with rho(sigma)[b] == i.
Transversal = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class ActionSpace:
    """A basis 0..dim-1 with an S_n action: act(sigma, i) is an index.

    The integer views of the action are computed on first use and cached on
    the instance (``act`` does not take part in equality, so no cache is
    shared between spaces).
    """

    dim: int
    n: int
    act: Callable[[Permutation, int], int] = field(compare=False)
    name: str = ""

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
    def group_table(self) -> tuple[array, tuple[ClassSlice, ...]]:
        """The index permutation of every element of S_n; see _group_table."""
        return _group_table(self)

    @cached_property
    def transversal(self) -> Transversal:
        """One table row per index carrying its orbit's base to it; see _transversal."""
        return _transversal(self)

    @cached_property
    def base_rows(self) -> dict[Partition, dict[int, list[int]]]:
        """Per partition, the integer projector row of each orbit base (filled by _base_rows)."""
        return {}


def _group_table(space: ActionSpace) -> tuple[array, tuple[ClassSlice, ...]]:
    """Index permutations of all of S_n, row after row in one flat array.

    Rows are ordered by cycle type, and each class's slice [start, stop) is
    returned with the table, so table[start + i:stop:dim] lists rho(sigma)[i]
    over the sigma of that class.  The rows are filled by breadth-first search
    from the identity, stepping from sigma to sigma o g for each generator g
    and composing rho(sigma o g)[i] = rho(sigma)[rho(g)[i]].  Every edge of the
    search is checked, so the table is a homomorphism of S_n; each class
    representative's row is then checked against act.
    """
    n, dim = space.n, space.dim
    by_class: dict[Partition, list[tuple[int, ...]]] = {mu: [] for mu in partitions(n)}
    for sigma in all_permutations(n):
        by_class[cycle_type(sigma)].append(sigma.images)
    position: dict[tuple[int, ...], int] = {}
    slices = []
    for mu, members in by_class.items():
        start = len(position) * dim
        for sigma in members:
            position[sigma] = len(position)
        slices.append((mu, start, len(position) * dim))
    typecode = "H" if dim <= 1 << 16 else "L"
    table = array(typecode, [0]) * (len(position) * dim)
    seen = bytearray(len(position))

    def row(sigma: tuple[int, ...]) -> slice:
        k = position[sigma] * dim
        return slice(k, k + dim)

    # itemgetter(*move)(rho) is rho o move; with dim <= 1 the only move is the identity
    steps = [(g.images, itemgetter(*move) if dim > 1 else tuple)
             for g, move in zip(generators(n), space.generator_moves)]
    identity = tuple(range(n))
    table[row(identity)] = array(typecode, range(dim))
    seen[position[identity]] = 1
    queue = deque([identity])
    while queue:
        sigma = queue.popleft()
        rho = table[row(sigma)]
        for g, after in steps:
            tau = tuple(sigma[x] for x in g)
            image = array(typecode, after(rho))
            if not seen[position[tau]]:
                seen[position[tau]] = 1
                table[row(tau)] = image
                queue.append(tau)
            elif table[row(tau)] != image:
                raise ValueError(f"action {space.name!r} is not a homomorphism of S_{n}")
    if sum(seen) != len(seen):
        raise ValueError(
            f"the generators reached {sum(seen)} of the {len(seen)} permutations of S_{n}"
        )
    for mu, move in space.class_moves.items():
        if tuple(table[row(class_representative(mu).images)]) != move:
            raise ValueError(
                f"action {space.name!r}: the group table disagrees with act on class {mu}"
            )
    return table, tuple(slices)


def _transversal(space: ActionSpace) -> Transversal:
    """A transversal of every orbit of the action, read off the group table.

    The orbits are taken in index order, each based at its least index b.
    Column b of the table lists rho(sigma)[b] over all sigma, so one pass over
    it maps each index of b's orbit to the offset of a row that carries b
    there.  The result is checked by _check_transversal.
    """
    table, dim = space.group_table[0], space.dim
    base = [-1] * dim
    offset = [0] * dim
    for b in range(dim):
        if base[b] >= 0:
            continue
        for i, row in dict(zip(table[b::dim], range(0, len(table), dim))).items():
            base[i], offset[i] = b, row
    transversal = (tuple(base), tuple(offset))
    _check_transversal(space, transversal)
    return transversal


def _check_transversal(space: ActionSpace, transversal: Transversal) -> None:
    """Raise ValueError unless the row of each index i sends i's base to i."""
    table, dim = space.group_table[0], space.dim
    bases, offsets = transversal
    if len(bases) != dim or len(offsets) != dim:
        raise ValueError(f"action {space.name!r}: a transversal needs {dim} bases and rows")
    for i, (b, row) in enumerate(zip(bases, offsets)):
        if not (0 <= b < dim and row % dim == 0 and 0 <= row < len(table)
                and table[row + b] == i):
            raise ValueError(
                f"action {space.name!r}: the transversal row for index {i} "
                f"does not send its base {b} to it"
            )


def _check_degree(n: int, limit: int | None = None) -> None:
    cap = GROUP_SUM_LIMIT if limit is None else limit
    if n > cap:
        raise ValueError(f"degree {n} exceeds the group-sum cap {cap}")


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


@dataclass(frozen=True)
class DecompositionReport:
    """Multiplicities of each irreducible in a permutation module."""

    n: int
    multiplicities: dict[Partition, int]
    dims: dict[Partition, int]

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


def _base_rows(space: ActionSpace, lam: Partition, limit: int | None) -> dict[int, list[int]]:
    """n!/dim lam times the projector row of each orbit base b, in integers.

    Row b of the sum over sigma of chi_lam(sigma) * rho(sigma) has at column
    k the sum of chi_lam over the sigma with rho(sigma)[b] == k (chi(sigma) =
    chi(sigma^-1)): one count per class over column b of the table.  The rows
    are cached on the space per partition, O(orbits * dim) integers each.
    """
    if lam.n != space.n:
        raise ValueError(f"degree mismatch: {lam.n} vs {space.n}")
    _check_degree(space.n, limit)
    rows = space.base_rows.get(lam)
    if rows is None:
        (table, slices), dim = space.group_table, space.dim
        weighted = [(irreducible_character(lam, mu), start, stop) for mu, start, stop in slices]
        rows = {}
        for b in sorted(set(space.transversal[0])):
            row = rows[b] = [0] * dim
            for weight, start, stop in weighted:
                if weight:
                    for k, count in Counter(table[start + b:stop:dim]).items():
                        row[k] += weight * count
        space.base_rows[lam] = rows
    return rows


def isotypic_projector(space: ActionSpace, lam: Partition, limit: int | None = None) -> la.Matrix:
    """Exact projector onto the lam-isotypic component, by group averaging.

    P = (dim lam / n!) * sum over sigma of chi_lam(sigma) * rho(sigma).  P
    commutes with the action, so with g the transversal element carrying the
    base b of i's orbit to i, P[i][rho(g)[k]] = P[b][k]: row i is the base
    row permuted by rho(g).
    """
    rows = _base_rows(space, lam, limit)
    table, dim = space.group_table[0], space.dim
    factor = Fraction(specht_dimension(lam), factorial(space.n))
    out = []
    for b, offset in zip(*space.transversal):
        row = [0] * dim
        for j, x in zip(table[offset:offset + dim], rows[b]):
            row[j] = x
        out.append(tuple(factor * x for x in row))
    return tuple(out)


def project_vector(v: Sequence, space: ActionSpace, lam: Partition,
                   limit: int | None = None) -> la.Vector:
    """Component of v in the lam-isotypic part; components over all lam sum to v.

    With w = D*v in integers (D the lcm of v's denominators) and g, b as in
    isotypic_projector, entry i is (dim lam / (n! * D)) * sum over k of
    base_row[k] * w[rho(g)[k]]: P v exactly, in dim**2 integer products.
    The dense P is never built.
    """
    if len(v) != space.dim:
        raise ValueError(f"length mismatch: {len(v)} vs {space.dim}")
    rows = _base_rows(space, lam, limit)
    table, dim = space.group_table[0], space.dim
    nums, den = la._scaled_ints(v)
    pick = nums.__getitem__
    scale, den = specht_dimension(lam), factorial(space.n) * den
    return tuple(
        Fraction(scale * sum(map(mul, rows[b], map(pick, table[offset:offset + dim]))), den)
        for b, offset in zip(*space.transversal)
    )


def is_equivariant_matrix(space: ActionSpace, matrix: Sequence[Sequence]) -> bool:
    """True when matrix[rho(i)][rho(j)] == matrix[i][j] for each generator move rho."""
    indices = range(space.dim)
    return all(
        matrix[move[i]][move[j]] == matrix[i][j]
        for move in space.generator_moves for i in indices for j in indices
    )
