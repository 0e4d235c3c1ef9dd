"""Score matrices for neutral points-based rules on cyclic-order outcomes.

A rule is a matrix M with rows indexed by outcomes, columns by ballots, and
entry[h][g] the points outcome h earns per vote for ballot g.  Neutrality
(invariance under joint relabelling) makes entries constant on the diagonal
orbits of ballot x outcome pairs.  Every orbit meets the row of outcome 0,
so the orbit ids are found on that row and gathered into the others; a
matrix reads one seeded value per orbit through them, zero where unseeded.

Named families cover the parametric rules analysed in this library: the
3-parameter family on 4-item cyclic ballots, the 6-parameter family on any
regular 24-ballot space (ROLO/TRAD), the 8-parameter family on 5-item cyclic
ballots, and the distance-weighted rules derived from transposition distance.
"""
from __future__ import annotations

import csv
import io
import warnings
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property, lru_cache

from . import _linalg as la
from ._record import Record
from .ballots import (
    Ballot,
    BallotSpace,
    build_ballot_space,
    outcome_space,
)
from .cyclic_orders import (
    _PAIR_NAMES_4,
    _PAIR_NAMES_5,
    CyclicOrder,
    classify_pair,
    parse_order,
    transposition_distance,
)
from .representation import _after, _orbit_ids, is_equivariant_matrix
from .symmetric_group import Permutation


class SeedConflictError(ValueError):
    """Two seeds land in one orbit with different values."""


class ScoringMatrix(Record, fields=("rule_name", "outcome_space", "ballot_space", "entries")):
    """Exact-rational score matrix: entries[h][g] = s(ballot g, outcome h)."""

    def __init__(self, rule_name: str, outcome_space: BallotSpace, ballot_space: BallotSpace,
                 entries: tuple[tuple[Fraction, ...], ...]):
        self.__dict__.update(rule_name=rule_name, outcome_space=outcome_space,
                             ballot_space=ballot_space, entries=entries)

    @cached_property
    def packed(self) -> la.Packed:
        """The entries over one common denominator, cleared and packed once."""
        return la.Packed.of(self.entries)

    @cached_property
    def echelon(self) -> la.Echelon:
        """The entries eliminated once, for the kernel, effective space and masking."""
        return la.Echelon(self.packed)

    def score(self, ballot: Ballot, outcome: CyclicOrder) -> Fraction:
        return self.entries[self.outcome_space.index_of(outcome)][self.ballot_space.index_of(ballot)]

    def row(self, outcome: CyclicOrder) -> tuple[Fraction, ...]:
        return self.entries[self.outcome_space.index_of(outcome)]

    def column(self, ballot: Ballot) -> tuple[Fraction, ...]:
        g = self.ballot_space.index_of(ballot)
        return tuple(row[g] for row in self.entries)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([""] + self.ballot_space.labels())
        for h, row in zip(self.outcome_space.ballots, self.entries):
            writer.writerow([self.outcome_space.label(h)] + [format_rational(x) for x in row])
        return buf.getvalue()

    def is_neutral(self) -> bool:
        """Check entry[sh][sg] == entry[h][g] for a generating set, all cells."""
        return is_equivariant_matrix(self.outcome_space, self.entries, self.ballot_space)


def format_rational(x: Fraction) -> str:
    """p/q with the denominator omitted when 1.

    >>> format_rational(Fraction(-3, 6))
    '-1/2'
    """
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@lru_cache(maxsize=None)
def _pair_orbits(ballot_space: BallotSpace) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Orbit ids of the (outcome, ballot) cells under the diagonal action:
    one row per outcome of outcome_space(n), indexed by ballot, and the count.

    S_n is transitive on outcomes, so every orbit meets row 0, as an orbit of
    outcome 0's stabiliser, its rotations; row 0 numbers these by least index.
    A generator taking outcome k to a filled row h gives row k: row h read
    through the generator's ballot move.
    """
    outcomes = outcome_space(ballot_space.n)
    seats = outcomes[0].seq  # the rotation takes each seat's label to the next seat's
    rotation = Permutation(tuple(b for _, b in sorted(zip(seats, seats[1:] + seats[:1]))))
    base, count = _orbit_ids(len(ballot_space), [ballot_space.moves(rotation)])
    rows, queue = [base] + [None] * (len(outcomes) - 1), [0]
    steps = [(sorted(range(len(om)), key=om.__getitem__), bm)  # takes outcome inverse[h] to h
             for om, bm in zip(outcomes.generator_moves, ballot_space.generator_moves)]
    for h in queue:  # queue grows while it is read
        for inverse, bm in steps:
            k = inverse[h]
            if rows[k] is None:
                rows[k] = _after(rows[h], bm)
                queue.append(k)
    return tuple(rows), count


def orbit_count(ballot_space: BallotSpace) -> int:
    """Number of free parameters of a neutral rule on this ballot space,
    scored against outcome_space(n)."""
    return _pair_orbits(ballot_space)[1]


def build_neutral_matrix(
    ballot_space: BallotSpace,
    seeds: Sequence[tuple[Ballot, CyclicOrder, Fraction]],
    rule_name: str = "seeded",
) -> ScoringMatrix:
    """Propagate seed values over their orbits; unseeded orbits stay zero.

    The rows are the outcomes of outcome_space(n), the columns the ballots of
    ballot_space; the orbits are those of that space object's own action.
    Two seeds in one orbit conflict unless they agree (agreement warns).
    """
    outcomes = outcome_space(ballot_space.n)
    rows, count = _pair_orbits(ballot_space)
    values: list[Fraction | None] = [None] * count
    for ballot, order, value in seeds:
        value = Fraction(value)
        oid = rows[outcomes.index_of(order)][ballot_space.index_of(ballot)]
        cell = f"({ballot_space.label(ballot)}, {outcomes.label(order)})"
        if values[oid] is None:
            values[oid] = value
        elif values[oid] != value:
            raise SeedConflictError(
                f"seed {cell} = {value} conflicts with {values[oid]} in the same orbit")
        else:
            warnings.warn(f"duplicate seed for one orbit: {cell}", stacklevel=2)
    filled = [Fraction(0) if v is None else v for v in values]
    entries = tuple(tuple(map(filled.__getitem__, row)) for row in rows)
    return ScoringMatrix(rule_name, outcomes, ballot_space, entries)


#: family -> (arity, builder); each builder takes the parameters and the rule name.
_FAMILIES = {
    "generic4": (3, lambda p, name: _cyclic_generic(4, lambda k, g, h: p[k], name)),
    "rolo_generic": (6, lambda p, name: _regular24("rolo", p, name)),
    "rolo_x1": (1, lambda p, name: _regular24("rolo", (p[0], 0, 1, 0, 0, 1), name)),
    "rolo21": (0, lambda p, name: _regular24("rolo", (2, 0, 1, 0, 0, 1), name)),
    "trad21": (0, lambda p, name: _regular24("trad", (2, 1, 1, 0, 0, 0), name)),
    "generic5": (8, lambda p, name: _cyclic_generic(5, lambda k, g, h: p[k], name)),
    "distance5": (5, lambda p, name: _cyclic_generic(
        5, lambda k, g, h: p[transposition_distance(g, h)], name)),
    "adjusted_distance5": (0, lambda p, name: _cyclic_generic(
        5, lambda k, g, h: _adjusted_distance5(g, h), name)),
}

FAMILY_ARITY = {family: arity for family, (arity, _) in _FAMILIES.items()}


def named_rule(family: str, params: Sequence) -> ScoringMatrix:
    """Instantiate a named rule family, every space in its default ordering."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown rule family: {family!r}")
    arity, build = _FAMILIES[family]
    if len(params) != arity:
        raise ValueError(f"{family} takes {arity} parameters, got {len(params)}")
    params = tuple(Fraction(p) for p in params)
    name = family if not params else f"{family}({','.join(map(str, params))})"
    return build(params, name)


def rule(family: str, *params) -> ScoringMatrix:
    """Shorthand: rule("generic4", 2, 1, 0)."""
    return named_rule(family, params)


def _cyclic_generic(n: int, score, name: str) -> ScoringMatrix:
    """The rule on n-item cyclic orders (n = 4 or 5) with one value per pair class.

    The anchors of _PAIR_NAMES_4 or _PAIR_NAMES_5 list one ballot per class,
    the "Same" class first.  Anchor k scores score(k, g, base) for the "Same"
    ballot base as outcome, g the anchor's ballot, one call per anchor, and
    neutrality fills every other cell of its class.
    """
    space = outcome_space(n)
    anchors = [space.parse(text) for _, text in (_PAIR_NAMES_4 if n == 4 else _PAIR_NAMES_5)]
    base = anchors[0]
    seeds = [(g, base, score(k, g, base)) for k, g in enumerate(anchors)]
    return build_neutral_matrix(space, seeds, name)


def _regular24(kind: str, params: tuple[Fraction, ...], name: str) -> ScoringMatrix:
    """The space's first ballot scores the six parameters for the outcomes of outcome_space(4)."""
    space = build_ballot_space(kind, 4)
    seeds = [(space[0], h, value) for h, value in zip(outcome_space(4), params)]
    return build_neutral_matrix(space, seeds, name)


def _adjusted_distance5(g: CyclicOrder, h: CyclicOrder) -> Fraction:
    """The sum-zero distance weights 2, 1, 0, −1, −2, with both step-relation orbits zeroed out."""
    if classify_pair(h, g).tag in ("Step", "StepReversal"):
        return Fraction(0)
    return Fraction(2 - transposition_distance(g, h))


def parse_params(text: str) -> tuple[Fraction, ...]:
    """Parse a comma-separated rational parameter list like "2,1,0" or "1/2,-1"."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(Fraction(t.strip()) for t in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad parameter list: {text!r}") from None


def parse_seed_file(text: str, ballot_space: BallotSpace) -> list[tuple[Ballot, CyclicOrder, Fraction]]:
    """Parse seed lines "<ballot> <order> <rational>"; '#' starts a comment."""
    seeds = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 3:
            raise ValueError(f"seed line {lineno}: expected 3 fields, got {len(fields)}")
        try:
            ballot = ballot_space.parse(fields[0])
            order = parse_order(fields[1])
        except ValueError as exc:
            raise ValueError(f"seed line {lineno}: {exc}") from None
        if order.n != ballot_space.n:
            raise ValueError(
                f"seed line {lineno}: order {order} has n={order.n}, "
                f"ballots have n={ballot_space.n}"
            )
        try:
            value = Fraction(fields[2])
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"seed line {lineno}: bad rational {fields[2]!r}") from None
        seeds.append((ballot, order, value))
    return seeds
