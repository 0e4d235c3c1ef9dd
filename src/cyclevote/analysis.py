"""Tallying and linear analysis of neutral rules.

Profiles are exact rational weight vectors over a ballot space (negative
weights model profile differentials).  Beyond tallying, this module exposes
the kernel and effective space of a rule, fixed catalogs of invariant
subspaces for the three 24-or-6 dimensional spaces of interest, expansion of
profiles over a catalog, reports of how a rule scales each catalog subspace,
and a deterministic recipe for "masking" profiles whose raw ballot counts
point away from the order they actually elect.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress
from math import lcm

from . import _linalg as la
from ._record import Record
from .ballots import BallotSpace, build_ballot_space, default_ordering, favorite_order
from .cyclic_orders import CyclicOrder, reverse_order
from .scoring import ScoringMatrix, format_rational
from .symmetric_group import Partition, Permutation


class MaskingInfeasibleError(ValueError):
    """The rule's kernel offers no usable direction for the requested masking."""


class Profile(Record, fields=("space", "weights")):
    """Rational weights over a ballot space; entries may be negative."""

    def __init__(self, space: BallotSpace, weights: tuple[Fraction, ...]):
        self.__dict__.update(space=space, weights=weights)
        if len(weights) != len(space):
            raise ValueError(
                f"profile length {len(weights)} != space size {len(space)}"
            )

    def __getitem__(self, ballot) -> Fraction:
        return self.weights[self.space.index_of(ballot)]

    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))


def profile(space: BallotSpace, weights: Iterable) -> Profile:
    return Profile(space, la.vec(weights))


def act_on_profile(sigma: Permutation, p: Profile) -> Profile:
    """Relabelled profile: the weight of index i moves to index sigma(i)."""
    move = p.space.moves(sigma)
    # move is a permutation, so sorting by it never compares two weights
    return Profile(p.space, tuple(w for _, w in sorted(zip(move, p.weights))))


def parse_profile(text: str, space: BallotSpace) -> Profile:
    """Parse profile lines "<ballot><TAB><rational>"; '#' comments, omitted = 0."""
    weights = [Fraction(0)] * len(space)
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split("\t") if "\t" in line else line.split()
        if len(fields) != 2:
            raise ValueError(f"profile line {lineno}: expected 2 fields")
        try:
            index = space.index_of(space.parse(fields[0]))
        except ValueError as exc:
            raise ValueError(f"profile line {lineno}: {exc}") from None
        try:
            weights[index] += Fraction(fields[1])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"profile line {lineno}: bad rational {fields[1]!r}") from None
    return Profile(space, tuple(weights))


def format_profile(p: Profile) -> str:
    return "\n".join(
        f"{p.space.label(b)}\t{format_rational(w)}"
        for b, w in zip(p.space.ballots, p.weights)
    )


class TallyResult(Record, fields=("scores", "winners")):
    def __init__(self, scores: tuple[Fraction, ...], winners: frozenset[CyclicOrder]):
        self.__dict__.update(scores=scores, winners=winners)


def tally(m: ScoringMatrix, p: Profile) -> TallyResult:
    """Scores = M p; winners are the full argmax set, ties never broken.

    The argmax runs on the integer lanes of one packed product: every score
    written over one common denominator.
    """
    if p.space is not m.ballot_space:
        what = "is another object than" if repr(p.space) == repr(m.ballot_space) else "!="
        raise ValueError(f"profile space {p.space!r} {what} rule ballot space {m.ballot_space!r}")
    nv, dv = la._scaled_ints(p.weights)
    keys = m.packed.apply(nv)
    top = max(keys)
    winners = frozenset(compress(m.outcome_space.ballots, [k == top for k in keys]))
    return TallyResult(la._fractions(keys, m.packed.den * dv), winners)


def kernel_basis(m: ScoringMatrix) -> list[la.Vector]:
    """Exact basis of the profiles M sends to the all-zero score vector."""
    return la.nullspace(m.echelon)


def effective_basis(m: ScoringMatrix) -> list[la.Vector]:
    """Basis of the orthogonal complement of the kernel (the row space of M)."""
    return la.rref(m.echelon)[0]


# -- invariant-subspace catalogs ---------------------------------------------

class CatalogEntry(Record, fields=("label", "partition", "vectors")):
    def __init__(self, label: str, partition: Partition, vectors: tuple[la.Vector, ...]):
        self.__dict__.update(label=label, partition=partition, vectors=vectors)

    @cached_property
    def packed(self) -> la.Packed:
        """The vectors as integer rows over one denominator, cleared once."""
        return la.Packed.of(self.vectors)

    @cached_property
    def columns(self) -> la.Packed:
        """The vectors as matrix columns, cleared once, for expanding coefficients."""
        return la.Packed.of(zip(*self.vectors))


class SubspaceCatalog(Record, fields=("space_id", "n", "dim", "entries")):
    def __init__(self, space_id: str, n: int, dim: int, entries: tuple[CatalogEntry, ...]):
        self.__dict__.update(space_id=space_id, n=n, dim=dim, entries=entries)

    def entry(self, label: str) -> CatalogEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    def all_vectors(self) -> list[la.Vector]:
        return [v for e in self.entries for v in e.vectors]

    @cached_property
    def solver(self) -> la.SpanSolver:
        """Coordinates over all_vectors(), factored on first use."""
        return la.SpanSolver(self.all_vectors(), self.dim)


def _entries(table) -> tuple[CatalogEntry, ...]:
    """The entries of one catalog table of (label, partition parts, integer rows)."""
    return tuple(CatalogEntry(label, Partition(parts), tuple(la.vec(r) for r in rows))
                 for label, parts, rows in table)


# The tables hold integer rows; their Fractions are made on the first
# subspace_catalog call, not at import.
#
# 6-dimensional space of 4-item cyclic orders, reference enumeration.
# "nonadj" spans the plane of contrasts between the three choices of the item
# opposite A; its three listed spanning vectors sum to zero.  "rev" spans the
# contrasts between each order and its reversal.
_CO4 = (
    ("T", (4,), [[1] * 6]),
    ("nonadj", (2, 2), [
        [2, 2, -1, -1, -1, -1],
        [-1, -1, 2, 2, -1, -1],
        [-1, -1, -1, -1, 2, 2],
    ]),
    ("rev", (2, 1, 1), [
        [1, -1, 0, 0, 0, 0],
        [0, 0, 1, -1, 0, 0],
        [0, 0, 0, 0, 1, -1],
    ]),
)

# 24-dimensional regular ballot space (ROLO/TRAD enumeration).  The v-span is
# the double copy of the two-dimensional irreducible; each w/u triplet spans
# one copy of its three-dimensional irreducible and the triplets are mutually
# orthogonal.
_ROLO4 = (
    ("T", (4,), [[1] * 24]),
    ("v", (2, 2), [
        [2, 2, 2, 2, 2, 2, 2, 2, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1],
        [-1, -1, -1, -1, -1, -1, -1, -1, 2, 2, 2, 2, 2, 2, 2, 2, -1, -1, -1, -1, -1, -1, -1, -1],
        [2, 2, -2, -2, 2, 2, -2, -2, 1, 1, -1, -1, 1, 1, -1, -1, -1, -1, 1, 1, -1, -1, 1, 1],
        [1, 1, -1, -1, 1, 1, -1, -1, 2, 2, -2, -2, 2, 2, -2, -2, 1, 1, -1, -1, 1, 1, -1, -1],
    ]),
    ("w1", (2, 1, 1), [
        [1, 1, 1, 1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, -1, -1, -1, -1],
    ]),
    ("w2", (2, 1, 1), [
        [0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 1, -1, 0, 0, 1, -1, 0, 0, 1, -1, 0, 0],
        [1, -1, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, 1, -1],
        [0, 0, 1, -1, 0, 0, 1, -1, 0, 0, 1, -1, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0],
    ]),
    ("w3", (2, 1, 1), [
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 1, -1, 0, 0, 1, -1, 0, 0, -1, 1],
        [0, 0, 1, -1, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 1, -1, 0, 0],
        [-1, 1, 0, 0, 1, -1, 0, 0, 1, -1, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ]),
    ("sign", (1, 1, 1, 1), [
        [1, 1, -1, -1, 1, 1, -1, -1, -1, -1, 1, 1, -1, -1, 1, 1, 1, 1, -1, -1, 1, 1, -1, -1],
    ]),
    ("u1", (3, 1), [
        [1, 1, -1, -1, -1, -1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, -1, -1, 1, 1, 1, 1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, -1, -1, -1, -1, 1, 1],
    ]),
    ("u2", (3, 1), [
        [0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, -1, 1, 0, 0, 1, -1, 0, 0, 1, -1, 0, 0],
        [1, -1, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, -1, 1],
        [0, 0, -1, 1, 0, 0, -1, 1, 0, 0, 1, -1, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0],
    ]),
    ("u3", (3, 1), [
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, -1, 0, 0, -1, 1, 0, 0, 1, -1, 0, 0, -1, 1],
        [1, -1, 0, 0, -1, 1, 0, 0, 1, -1, 0, 0, -1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, -1, 1, 0, 0, 1, -1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1, 0, 0, 1, -1, 0, 0],
    ]),
)

# 24-dimensional space of 5-item cyclic orders, reference enumeration
# (reversal pairs adjacent).  The twelve reversal pairs fall into six
# "step couples" {1,9}, {2,8}, {3,12}, {4,11}, {5,7}, {6,10} (1-based pair
# indices), each pair coupled with the pair of its every-second-seat reading.
# Each y is flat on a step couple against the rest; each z separates the two
# pairs of one couple.  The pair-difference vectors e(2k) - e(2k+1) span the
# 12-dimensional double copy of the six-dimensional irreducible.
_CO5_Y = (
    [5, 5, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 5, 5, -1, -1, -1, -1, -1, -1],
    [-1, -1, 5, 5, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 5, 5, -1, -1, -1, -1, -1, -1, -1, -1],
    [-1, -1, -1, -1, 5, 5, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 5, 5],
    [-1, -1, -1, -1, -1, -1, 5, 5, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 5, 5, -1, -1],
    [-1, -1, -1, -1, -1, -1, -1, -1, 5, 5, -1, -1, 5, 5, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1],
)
_CO5_Z = (
    [5, 5, 1, 1, 1, 1, -1, -1, -1, -1, 1, 1, 1, 1, -1, -1, -5, -5, -1, -1, 1, 1, -1, -1],
    [1, 1, 5, 5, -1, -1, 1, 1, 1, 1, -1, -1, -1, -1, -5, -5, -1, -1, 1, 1, -1, -1, 1, 1],
    [1, 1, -1, -1, 5, 5, 1, 1, 1, 1, -1, -1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, -5, -5],
    [-1, -1, 1, 1, 1, 1, -1, -1, 5, 5, 1, 1, -5, -5, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1],
    [1, 1, -1, -1, -1, -1, 1, 1, 1, 1, 5, 5, -1, -1, 1, 1, -1, -1, -5, -5, -1, -1, 1, 1],
)
_CO5 = (
    ("T", (5,), [[1] * 24]),
    ("sign", (1, 1, 1, 1, 1), [
        [1, 1, -1, -1, -1, -1, 1, 1, 1, 1, -1, -1, -1, -1, 1, 1, -1, -1, 1, 1, -1, -1, 1, 1],
    ]),
    ("y", (2, 2, 1), _CO5_Y),
    ("z", (3, 2), _CO5_Z),
    ("pairdiff", (3, 1, 1), [
        [0] * (2 * k) + [1, -1] + [0] * (22 - 2 * k) for k in range(12)
    ]),
)


@lru_cache(maxsize=None)
def subspace_catalog(space_id: str) -> SubspaceCatalog:
    """Fixed invariant-subspace tables: "co4", "rolo4", "trad4", or "co5".

    The TRAD enumeration acts index-by-index exactly like the ROLO reference
    enumeration, so the two share one table.  Each id maps to one instance,
    so its solver is factored once per process.
    """
    if space_id == "co4":
        return SubspaceCatalog("co4", 4, 6, _entries(_CO4))
    if space_id == "rolo4":
        return SubspaceCatalog("rolo4", 4, 24, _entries(_ROLO4))
    if space_id == "trad4":
        return SubspaceCatalog("trad4", 4, 24, subspace_catalog("rolo4").entries)
    if space_id == "co5":
        return SubspaceCatalog("co5", 5, 24, _entries(_CO5))
    raise ValueError(f"no subspace catalog for {space_id!r}")


def catalog_for_space(space: BallotSpace) -> SubspaceCatalog:
    """The catalog of space, which must be in its default ordering.

    Each catalog is written in the default ordering of its space, so the
    vectors mean nothing in any other enumeration.
    """
    space_id = f"{space.kind.replace('cyclic', 'co')}{space.n}"
    _check_default_space(space_id, space)
    return subspace_catalog(space_id)


def _check_default_space(space_id: str, space: BallotSpace) -> None:
    """Raise unless space is build_ballot_space(space.kind, space.n), whose
    enumeration the catalogs are written in; a space built by hand never is."""
    if space is not build_ballot_space(space.kind, space.n):
        expected = default_ordering(space.kind, space.n)
        shown = repr(space.ordering) if space.ordering != expected else f"a hand-built {space!r}"
        raise ValueError(f"the {space_id} catalog is written in the {expected!r} ordering, "
                         f"not {shown}")


def _check_catalog(catalog: SubspaceCatalog, space: BallotSpace) -> None:
    if (catalog.n, catalog.dim) != (space.n, len(space)):
        raise ValueError(f"catalog {catalog.space_id} (n={catalog.n}, dim {catalog.dim}) "
                         f"does not fit {space!r}")
    _check_default_space(catalog.space_id, space)


class DecomposedComponent(Record, fields=("label", "partition", "coefficients", "component")):
    def __init__(self, label: str, partition: Partition, coefficients: tuple[Fraction, ...],
                 component: la.Vector):
        self.__dict__.update(label=label, partition=partition, coefficients=coefficients,
                             component=component)


def decompose_profile(p: Profile, catalog: SubspaceCatalog) -> list[DecomposedComponent]:
    """Expand p over the catalog vectors; the components sum back to p.

    Within an entry whose listed vectors are linearly dependent (the co4
    "nonadj" spanning set), later dependent vectors get coefficient zero, so
    the expansion is unique.
    """
    _check_catalog(catalog, p.space)
    coeffs = catalog.solver.solve(p.weights)
    if coeffs is None:
        raise ValueError(f"catalog {catalog.space_id} does not span the profile")
    out = []
    pos = 0
    for entry in catalog.entries:
        k = len(entry.vectors)
        cs = tuple(coeffs[pos:pos + k])
        component = la.mat_vec(entry.columns, cs)
        out.append(DecomposedComponent(entry.label, entry.partition, cs, component))
        pos += k
    return out


# -- scaling reports ----------------------------------------------------------

class EntryScaling(Record, fields=("label", "partition", "kind", "scalar", "images",
                                  "image_coords")):
    """How a rule treats one catalog subspace.

    kind "scalar": every basis vector maps to scalar * itself ("zero" when the
    scalar is 0).  kind "mapped": the images are recorded verbatim, along with
    their expansion over the outcome catalog when one exists.
    """

    def __init__(self, label: str, partition: Partition, kind: str, scalar: Fraction | None,
                 images: tuple[la.Vector, ...],
                 image_coords: tuple[tuple[Fraction, ...], ...] | None):
        self.__dict__.update(label=label, partition=partition, kind=kind, scalar=scalar,
                             images=images, image_coords=image_coords)


class ScalingReport(Record, fields=("rule_name", "entries", "quadratic")):
    """quadratic holds the exact eigenvalue of M M^T on each outcome-catalog
    subspace, or None when the subspace is not an eigenspace."""

    def __init__(self, rule_name: str, entries: tuple[EntryScaling, ...],
                 quadratic: dict[str, Fraction | None]):
        self.__dict__.update(rule_name=rule_name, entries=entries, quadratic=quadratic)

    def scalar(self, label: str) -> Fraction:
        for e in self.entries:
            if e.label == label:
                if e.scalar is None:
                    raise ValueError(f"entry {label!r} does not act by a scalar")
                return e.scalar
        raise KeyError(label)


def scaling_report(m: ScoringMatrix, catalog: SubspaceCatalog, *,
                   expand_images: bool = True) -> ScalingReport:
    """Apply the rule to every catalog basis vector and classify the action.

    An entry is "scalar" ("zero" for the scalar 0) when the rule maps every
    one of its vectors to the same multiple of itself, which needs the
    outcome space to be the ballot space; otherwise it is "mapped", or "zero"
    when every image vanishes.  The outcome catalog is catalog itself when
    the rule scores its own ballot space, else the catalog of
    outcome_space(n).  With expand_images the image of every "mapped" basis
    vector is also expressed in outcome-catalog coordinates; skipping that
    keeps bulk parameter sweeps cheap.  The quadratic field holds the
    eigenvalue of M Mᵀ on each outcome-catalog entry.

    The work runs in integers.  M is written as N / d with one common
    denominator d, packed once per rule (ScoringMatrix.packed), and the
    vectors of a catalog entry as u / e with one denominator e per entry
    (CatalogEntry.packed), so that M v = N u / (d e) and
    M Mᵀ v = (N Nᵀ) u / (d² e), each one packed product, with N Nᵀ built and
    packed once per report.  Whether an integer image w is a multiple of u is
    the cross-multiplication test w[i] u[p] == w[p] u[i], and the multiple
    w[p] / (d u[p]) does not depend on e.  Fractions are built only for the
    fields of the report.
    """
    _check_catalog(catalog, m.ballot_space)
    same_space = m.outcome_space is m.ballot_space
    out_catalog = catalog if same_space else catalog_for_space(m.outcome_space)
    packed, d = m.packed, m.packed.den

    zero = Fraction(0)
    entries = []
    for entry in catalog.entries:
        vectors, e = entry.packed.rows, entry.packed.den
        products = [packed.apply(u) for u in vectors]
        images = tuple(la._fractions(w, d * e) for w in products)
        scalar = _common_scalar(vectors, products, d) if same_space else None
        if scalar is not None:
            kind = "zero" if scalar == 0 else "scalar"
            entries.append(EntryScaling(entry.label, entry.partition, kind, scalar, images, None))
            continue
        if not any(map(any, products)):
            entries.append(EntryScaling(entry.label, entry.partition, "zero", zero, images, None))
            continue
        coords = None
        if expand_images:
            solve = out_catalog.solver.solve_ints
            coords = tuple(tuple(solve(w, d * e) or ()) for w in products)
        entries.append(EntryScaling(entry.label, entry.partition, "mapped", None, images, coords))

    # N Nᵀ is symmetric, and its column i is N applied to row i of N
    gram = la.Packed([packed.apply(row) for row in packed.rows])
    quadratic = {}
    for entry in out_catalog.entries:
        us = entry.packed.rows
        # lazily: _common_scalar stops at the first vector that is no eigenvector
        quadratic[entry.label] = _common_scalar(us, map(gram.apply, us), d * d)
    return ScalingReport(m.rule_name, tuple(entries), quadratic)


def _common_scalar(
    vectors: list[list[int]], images: Iterable[Sequence[int]], den: int
) -> Fraction | None:
    """The single k with image == den * k * vector for every pair, if one exists.

    All entries are integers, and each image is a linear image of its
    vector, so a zero vector has a zero image and fixes no k; with no nonzero
    vector at all, k is 0.
    """
    k = None  # (numerator, denominator) of the first vector's multiple
    for u, w in zip(vectors, images, strict=True):
        p = next((i for i, x in enumerate(u) if x), None)
        if p is None:
            continue
        up, wp = u[p], w[p]
        if any(x * up != wp * a for x, a in zip(w, u, strict=True)):
            return None
        if k is None:
            k = (wp, den * up)
        elif wp * k[1] != k[0] * den * up:
            return None
    return Fraction(0) if k is None else Fraction(*k)


def generic4_scalars_to_params(t: Fraction, u: Fraction, v: Fraction) -> tuple[Fraction, Fraction, Fraction]:
    """Invert the three subspace scalars of the 4-item generic family.

    The family (a, b, c) scales the subspaces by t = a+b+4c, u = a+b-2c and
    v = a-b; solving gives a = t/6 + u/3 + v/2, b = t/6 + u/3 - v/2 and
    c = t/6 - u/6.
    """
    t, u, v = Fraction(t), Fraction(u), Fraction(v)
    a = t / 6 + u / 3 + v / 2
    b = t / 6 + u / 3 - v / 2
    c = t / 6 - u / 6
    return a, b, c


# -- masking profiles ---------------------------------------------------------

@lru_cache(maxsize=None)
def _favorite_indices(space: BallotSpace, outcomes: BallotSpace) -> tuple[int, ...]:
    """The index in outcomes of each ballot's favorite_order, read once per pair of spaces."""
    return tuple(outcomes.index_of(favorite_order(b, space.n)) for b in space.ballots)


def masking_profile(
    m: ScoringMatrix,
    target: CyclicOrder,
    decoys: frozenset[CyclicOrder] | set[CyclicOrder],
    magnitude: Fraction = Fraction(1),
) -> Profile:
    """A nonnegative profile electing target while its raw weight points elsewhere.

    Recipe: start from the effective-space differential contrasting target
    with its reversal (scaled by magnitude), the profile the rule itself maps
    to a target-first score vector.  Then add the kernel direction that
    raises the decoys' raw ballot counts fastest: the orthogonal projection
    of the decoy-ballot indicator onto the kernel, the canonical maximizer.
    When that projection vanishes (kernel moves cannot change total decoy
    weight at all), subtract the kernel component of the target's own ballot
    indicator instead, draining raw support from the winner's ballots.  The
    kernel summand is doubled until ballots favouring other orders hold a
    strict weight majority; finally the smallest uniform shift makes every
    weight nonnegative.  Kernel and uniform summands never change the winner;
    the result is verified to elect exactly the target.
    """
    magnitude = Fraction(magnitude)
    if magnitude <= 0:
        raise ValueError("magnitude must be positive")
    if target in decoys:
        raise ValueError("target cannot be one of its own decoys")
    n = m.outcome_space.n
    for order in (target, *sorted(decoys)):
        if order.n != n:
            raise ValueError(f"{order} has n={order.n}, but the rule's outcomes have n={n}")
    space = m.ballot_space

    # M^T (e_target - e_reversal) as diff / ddiff, from the rule's integer rows
    rows, ddiff = m.packed.rows, m.packed.den
    index = m.outcome_space.index_of
    aim, away = index(target), set(map(index, decoys))
    diff = [x - y for x, y in zip(rows[aim], rows[index(reverse_order(target))])]

    favorites = _favorite_indices(space, m.outcome_space)
    boost, dboost = _kernel_part(m, [int(fav in away) for fav in favorites])
    if not any(boost):
        drain, dboost = _kernel_part(m, [int(fav == aim) for fav in favorites])
        boost = [-x for x in drain]
    if not any(boost):
        raise MaskingInfeasibleError(
            "the kernel holds no usable direction for this target/decoy set"
        )

    # candidate = magnitude * (diff / ddiff + 2**doublings * boost / dboost)
    # = magnitude / den * (a + 2**doublings * b); the positive factor
    # magnitude / den changes neither the argmin nor the majority test
    den = lcm(ddiff, dboost)
    a = [x * (den // ddiff) for x in diff]
    b = [x * (den // dboost) for x in boost]
    masked_flags = [fav != aim for fav in favorites]
    for doublings in range(24):
        candidate = [x + (y << doublings) for x, y in zip(a, b)]
        low = min(candidate)
        if low < 0:
            candidate = [x - low for x in candidate]
        if 2 * sum(compress(candidate, masked_flags)) > sum(candidate):
            break
    else:
        raise MaskingInfeasibleError(
            f"no strict weight majority away from {target} after 24 doublings"
        )

    num, dnm = magnitude.numerator, magnitude.denominator * den
    shifted = tuple(Fraction(num * x, dnm) for x in candidate)
    result = Profile(space, shifted)
    outcome = tally(m, result)
    if outcome.winners != frozenset({target}):
        raise MaskingInfeasibleError(
            f"recipe failed to elect {target} uniquely under {m.rule_name}"
        )
    return result


def _kernel_part(m: ScoringMatrix, flags: list[int]) -> tuple[list[int], int]:
    """The component of flags orthogonal to the row space of m, as (integers, denominator)."""
    proj, den = la._scaled_ints(la.project_onto_span(m.packed, flags))
    return [f * den - x for f, x in zip(flags, proj)], den
