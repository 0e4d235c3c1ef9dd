"""Decomposition of permutation actions of S_n into irreducible pieces.

An ActionSpace is any finite basis with an S_n action by index permutation;
every ballots.BallotSpace is one, acting on the indices of its own
enumeration, so the functions here take a ballot space as it is.  Its
character counts fixed basis elements per conjugacy class; inner products
with the irreducible characters give multiplicities.

The action is read from ``act`` once per generator and once per class
representative and checked by the Coxeter relations; no element of S_n is
enumerated (_transposition_moves).  The component on the trivial partition
(n) is the vector's average over each orbit of the indices, read off the
orbit table (_orbit_ids).  The central sums p1 = sum of X_k and p2 = sum of
X_k^2 of the Jucys-Murphy elements X_k = sum over i < k of (i k) act on each
isotypic component by a scalar, so a product of them projects onto one.
For any other partition project_vector applies that product, less the factor
that only (n) needs, to the vector itself, each X_k by gathering the vector
through the moves of its transpositions, and then removes what the product
leaves of the trivial component.
"""
from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cache, cached_property, reduce
from itertools import accumulate, combinations_with_replacement
from math import factorial, lcm, prod
from operator import itemgetter

from . import _linalg as la
from ._record import Record
from .symmetric_group import (
    ClassFunction,
    Partition,
    Permutation,
    class_function,
    class_representative,
    enumerate_classes,
    generators,
    irreducible_character,
    one_partition,
    partitions,
    specht_dimension,
    transposition,
)
from .symmetric_group import cycle_type  # noqa: F401  unused; bench/ wraps it (ROADMAP B1, B2)

#: Reads a vector through an index permutation: entry i of the result is entry move[i].
Gather = Callable[[Sequence[int]], Sequence[int]]


class ActionSpace:
    """A basis 0..dim-1 with an S_n action: act(sigma, i) is an index.

    The integer views of the action (the moves of the generators and class
    representatives, the checked transposition gathers, the orbits, the
    multiplicities) are computed on first use and cached on the instance.
    None depends on a partition: a projection onto any lam applies its
    central product through them.  Spaces compare and hash by identity, so
    two spaces with equal dim, n and name but different actions are unequal,
    and no cache is shared between them.  A subclass such as
    ballots.BallotSpace sets the fields through this constructor; nothing
    assigns to them afterwards.
    """

    def __init__(self, dim: int, n: int, act: Callable[[Permutation, int], int], name: str = ""):
        self.dim, self.n, self.act, self.name = dim, n, act, name

    def __repr__(self) -> str:
        return (f"{self.__class__.__qualname__}(dim={self.dim!r}, n={self.n!r}, "
                f"act={self.act!r}, name={self.name!r})")

    def moves(self, sigma: Permutation) -> tuple[int, ...]:
        """act(sigma, i) for every index i, checked to permute 0..dim-1."""
        move = tuple(self.act(sigma, i) for i in range(self.dim))
        if sorted(move) != list(range(self.dim)):
            raise ValueError(f"action {self.name!r}: {sigma} does not permute the indices "
                             f"0..{self.dim - 1}")
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
    def multiplicities(self) -> dict[Partition, int]:
        """The multiplicity of each irreducible in the action; see decompose_character."""
        return decompose_character(space_character(self)).multiplicities

    @cached_property
    def transposition_moves(self) -> tuple[tuple[Gather, ...], ...]:
        """Per k = 1..n-1, gathers through the moves of (i k), i < k; see _transposition_moves."""
        return _transposition_moves(self)

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The orbit id of each index and the indices of each orbit, ids in scan order.

        The orbits are those of the generator moves, read once the action
        they generate has passed the checks of transposition_moves.
        """
        self.transposition_moves  # the checks of the action come first
        ids, count = _orbit_ids(self.dim, self.generator_moves)
        members: list[list[int]] = [[] for _ in range(count)]
        for i, orbit in enumerate(ids):
            members[orbit].append(i)
        return ids, tuple(map(tuple, members))


def _orbit_ids(size: int, moves: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], int]:
    """The orbit id of each index 0..size-1 under the index moves, and the orbit count.

    Each index not yet reached starts a first-come search of its orbit, so ids
    are numbered in the order the scan meets the orbits.
    """
    ids = [-1] * size
    count = 0
    for start in range(size):
        if ids[start] >= 0:
            continue
        ids[start] = count
        queue = [start]
        for i in queue:  # queue grows while it is read: FIFO order
            for move in moves:
                j = move[i]
                if ids[j] < 0:
                    ids[j] = count
                    queue.append(j)
        count += 1
    return tuple(ids), count


def _after(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """p after q on index tuples: the result maps i to p[q[i]]."""
    return tuple(map(p.__getitem__, q))


def _transposition_moves(space: ActionSpace) -> tuple[tuple[Gather, ...], ...]:
    """Per k = 1..n-1, gathers through the moves of the transpositions (i k), i < k.

    An element is one tuple: its images on the labels, then n + its move.  With
    generators(n) = (t, c), s_i = c^i t c^-i must be (i i+1).  The s_i meet the
    Coxeter relations (s_i s_j)^m = 1, m = 1, 3 or 2 as |i-j| is 0, 1 or more,
    at every index, so the moves define an action of S_n; t, c and each class
    representative, as words in the s_i, must match their moves.  Conjugating,
    (i k) = s_{k-1} (i k-1) s_{k-1} gives the rest, in O(n^2 dim) work.  Each
    move is returned as its itemgetter; a move of at most one index is the
    identity, read by tuple, since itemgetter of one index returns the item.
    """
    n, name = space.n, space.name
    t, c = (g.images + tuple(n + j for j in move)
            for g, move in zip(generators(n), space.generator_moves))
    one, inverse = tuple(range(len(c))), tuple(sorted(range(len(c)), key=c.__getitem__))
    s = [t][:n - 1]  # s_0 = t for n >= 2
    while len(s) < n - 1:
        s.append(_after(c, _after(s[-1], inverse)))
    if [si[:n] for si in s] != [transposition(n, i, i + 1).images for i in range(n - 1)]:
        raise ValueError(f"generators({n}) do not conjugate to the adjacent transpositions")
    hom = f"action {name!r} is not a homomorphism of S_{n}"
    checks = [([i, j] * (1 if i == j else 3 if j == i + 1 else 2), one, hom)
              for i, j in combinations_with_replacement(range(n - 1), 2)]
    checks += [([0][:n - 1], t, hom), (range(n - 1), c, hom)]
    # class_representative(mu) fills its cycles with runs of labels: s_a for a, a+1 in one cycle
    checks += [([a for a in range(n - 1) if a + 1 not in accumulate(mu.parts)],
                class_representative(mu).images + tuple(n + j for j in move),
                f"action {name!r}: the generated action disagrees with act on class {mu}")
               for mu, move in space.class_moves.items()]
    for word, sigma, message in checks:
        if reduce(_after, [s[a] for a in word], one) != sigma:
            raise ValueError(message)
    out: list[tuple[tuple[int, ...], ...]] = []
    for sk in (tuple(j - n for j in si[n:]) for si in s):  # s_{k-1}; out[-1]: the (i k-1)
        out.append(tuple(_after(sk, _after(m, sk)) for m in (out[-1] if out else ())) + (sk,))
    return tuple(tuple(itemgetter(*m) if len(m) > 1 else tuple for m in ms) for ms in out)


def character_inner_product(c1: ClassFunction, c2: ClassFunction) -> Fraction:
    """(1/n!) sum over classes of class_size * c1 * c2 (no conjugation needed)."""
    if c1.n != c2.n:
        raise ValueError(f"degree mismatch: {c1.n} vs {c2.n}")
    return Fraction(sum(size * c1(mu) * c2(mu) for mu, size in enumerate_classes(c1.n)),
                    factorial(c1.n))


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
        rows = ((mu, self.multiplicities[mu], self.dims[mu]) for mu in partitions(self.n))
        lines = [f"{mu}\t{m}\t{d}\t{m * d}" for mu, m, d in rows]
        lines.append(f"# dimension sum: {self.total_dim} == {self.total_dim}")
        return "\n".join(lines)


def decompose_character(chi: ClassFunction) -> DecompositionReport:
    """Multiplicity of each irreducible via character inner products.

    Raises if any multiplicity comes out non-integral or negative, which
    signals that chi is not the character of a genuine module.
    """
    mults, dims = {}, {}
    for lam in partitions(chi.n):
        lam_chi = class_function(chi.n, lambda mu: irreducible_character(lam, mu))
        m = character_inner_product(lam_chi, chi)
        if m.denominator != 1 or m < 0:
            raise ValueError(f"invalid character: multiplicity of {lam} is {m}")
        mults[lam], dims[lam] = int(m), specht_dimension(lam)
    report = DecompositionReport(chi.n, mults, dims)
    if report.total_dim != chi(one_partition(chi.n)):
        raise ValueError(
            f"invalid character: multiplicities account for dimension "
            f"{report.total_dim}, character of the identity is {chi(one_partition(chi.n))}"
        )
    return report


@cache
def _content_sums(lam: Partition) -> tuple[int, int]:
    """The sums of lam's contents col - row and of their squares: p1's and p2's scalars on V_lam."""
    contents = [col - row for row, part in enumerate(lam.parts) for col in range(part)]
    return sum(contents), sum(x * x for x in contents)


def isotypic_projector(space: ActionSpace, lam: Partition) -> la.Matrix:
    """Exact projector onto the lam-isotypic component, as a dense matrix.

    P is symmetric, since each irreducible character of S_n is real, so row j
    is P e_j, one project_vector per index.
    """
    return tuple(project_vector([int(i == j) for i in range(space.dim)], space, lam)
                 for j in range(space.dim))


def project_vector(v: Sequence, space: ActionSpace, lam: Partition) -> la.Vector:
    """Component of v in the lam-isotypic part; components over all lam sum to v.

    The (n) component is v's average over each orbit.  For any other lam,
    P v = (Q v - k m)/den, m the (n) component: Q is the product over the
    partitions mu present other than lam and (n) of (C - c_mu), C being
    p1 = sum of X_k, or p2 = sum of X_k^2 where p1's scalars agree, with
    X_k = sum over i < k of (i k), and c_mu C's scalar on V_mu; den and k are
    Q's scalars on V_lam and V_(n), and Q is 0 on every other component.  Q
    runs in integers on w = D*v, D the lcm of v's denominators, each X_k
    gathering the vector through the moves of its transpositions, and m
    enters as s*m, s the lcm of the orbit sizes; the dense P is never built.
    An absent lam gives 0.
    """
    if len(v) != space.dim:
        raise ValueError(f"length mismatch: {len(v)} vs {space.dim}")
    if lam.n != space.n:
        raise ValueError(f"degree mismatch: {lam.n} vs {space.n}")
    n, moves, present = space.n, space.transposition_moves, space.multiplicities
    if not present[lam]:
        return la.zeros(space.dim)
    x, d = la._scaled_ints(v)
    ids, orbits = space.orbits
    s = lcm(*map(len, orbits))
    sums = [s // len(orbit) * sum(map(x.__getitem__, orbit)) for orbit in orbits]
    mean = list(map(sums.__getitem__, ids))  # s times the (n) component of x
    if len(lam.parts) <= 1:  # lam = (n), or () at n = 0
        return la._fractions(mean, s * d)
    target, trivial = _content_sums(lam), _content_sums(Partition((n,)))
    scale = factorial(n) // specht_dimension(lam)
    others = [_content_sums(mu) for mu in partitions(n)
              if mu != lam and len(mu.parts) > 1 and present[mu]]
    factors = {(1, c[0]) if c[0] != target[0] else (2, c[1]) for c in others}  # (power, c_mu)
    den = prod(target[power - 1] - c for power, c in factors)
    k = prod(trivial[power - 1] - c for power, c in factors)
    if not den:  # p1 and p2 together separate the partitions of n <= 14 only
        raise ValueError(f"p1 and p2 do not separate {lam} from the other partitions present")
    for power, c in factors:  # x <- (sum over k of X_k^power - c) x
        ys = [x] * len(moves)  # X_k^(power-1) x; a transposition's move is an involution
        for _ in range(power - 1):
            ys = [list(map(sum, zip(*(g(y) for g in xk)))) for y, xk in zip(ys, moves)]
        cx = map(sum, zip(*(g(y) for y, xk in zip(ys, moves) for g in xk)))
        x = [a - c * z for a, z in zip(cx, x)]
    # the trivial part goes last, so the loop's integers stay as small as w's
    x = [s * y - k * z for y, z in zip(x, mean)]
    # (n!/dim lam) P is the integer matrix sum over g of chi_lam(g) rho(g): a remainder
    # means the product is no projector
    if any(scale * y % (den * s) for y in x):
        raise ValueError(f"action {space.name!r}: the central product for {lam} is not integral")
    return la._fractions(x, den * s * d)


def is_equivariant_matrix(space: ActionSpace, matrix: Sequence[Sequence],
                          columns: ActionSpace | None = None) -> bool:
    """True when matrix[rho(i)][tau(j)] == matrix[i][j] for each generator g.

    rho(g) is the move of g on space, which indexes the rows, and tau(g) its
    move on columns (space when None), which index the columns.  Checking the
    generators suffices, since they generate S_n.
    """
    pairs = zip(space.generator_moves, (columns or space).generator_moves)
    return all(matrix[rho[i]][tau[j]] == x for rho, tau in pairs
               for i, row in enumerate(matrix) for j, x in enumerate(row))
