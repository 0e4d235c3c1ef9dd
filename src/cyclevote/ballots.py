"""Ballot spaces: single cyclic orders, ROLO ballots, and TRAD ballots.

A ROLO ballot names a centre item plus the items wanted immediately to its
right and left; n(n-1)(n-2) exist.  A TRAD ballot (n=4 only) names a pair
wanted diagonally opposite plus one compatible directed adjacency "Z right of
W"; there are 24, because naming one opposite pair also fixes the other, so
AB-DA and CD-DA denote the same ballot.  Both kinds carry the relabelling
action componentwise and, for n=4, determine a unique favourite cyclic order.

A BallotSpace fixes the enumeration order of one ballot kind; it is the one
indexed enumeration of the package, and default_ordering names each space's
default.  The "paper" ROLO order for n=4 lists, for each cyclic order of the
reference enumeration, its four ballots together.  The TRAD enumeration is
derived from it: the i-th TRAD ballot is sigma_i applied to AB-DA, where
sigma_i maps A|D,C to the i-th ROLO ballot, so the two spaces act identically
index-by-index.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations as _words

from .cyclic_orders import (
    CyclicOrder,
    act_on_order,
    enumerate_orders,
    format_order,
    parse_order,
)
from .representation import ActionSpace
from .symmetric_group import LETTERS, Permutation

#: Reference ROLO enumeration for n=4 (four ballots per favourite order).
PAPER_ROLO_4 = (
    "A|D,C", "B|C,D", "D|B,A", "C|A,B",
    "C|B,A", "D|A,B", "A|C,D", "B|D,C",
    "A|D,B", "C|B,D", "B|A,C", "D|C,A",
    "B|C,A", "D|A,C", "C|D,B", "A|B,D",
    "D|B,C", "A|C,B", "B|A,D", "C|D,A",
    "C|A,D", "B|D,A", "D|C,B", "A|B,C",
)


@dataclass(frozen=True, order=True)
class RoloBallot:
    """Centre item with the desired right and left neighbours."""

    center: int
    right: int
    left: int

    def __post_init__(self):
        if len({self.center, self.right, self.left}) != 3:
            raise ValueError(f"labels must be distinct: {self!r}")

    def __str__(self) -> str:
        return f"{LETTERS[self.center]}|{LETTERS[self.right]},{LETTERS[self.left]}"


@dataclass(frozen=True, order=True)
class TradBallot:
    """An opposite pair plus a directed adjacency (z sits right of w), n=4.

    The stored opposite pair is the one containing label 0; the complementary
    pair denotes the same ballot and is normalised away by trad_ballot().
    """

    opposite: tuple[int, int]
    adjacency: tuple[int, int]

    def __post_init__(self):
        if len(set(self.opposite) | set(self.adjacency)) > 4:
            raise ValueError("TRAD ballots are defined for n=4 only")
        if 0 not in self.opposite or self.opposite[0] > self.opposite[1]:
            raise ValueError(f"opposite pair not in canonical form: {self!r}")
        z, w = self.adjacency
        if z == w or (z in self.opposite) == (w in self.opposite):
            raise ValueError(f"adjacency must join the two opposite pairs: {self!r}")

    def __str__(self) -> str:
        x, y = self.opposite
        z, w = self.adjacency
        return f"{LETTERS[x]}{LETTERS[y]}-{LETTERS[z]}{LETTERS[w]}"


def trad_ballot(pair, adjacency) -> TradBallot:
    """Normalise to the opposite pair containing label 0 and validate."""
    pair = frozenset(pair)
    if len(pair) != 2 or not pair <= {0, 1, 2, 3}:
        raise ValueError(f"bad opposite pair: {set(pair)!r}")
    if 0 not in pair:
        pair = frozenset({0, 1, 2, 3}) - pair
    return TradBallot(tuple(sorted(pair)), (adjacency[0], adjacency[1]))


Ballot = CyclicOrder | RoloBallot | TradBallot


def act_on_ballot(sigma: Permutation, b: Ballot):
    """Relabel every label field of b by sigma."""
    if isinstance(b, CyclicOrder):
        return act_on_order(sigma, b)
    if isinstance(b, RoloBallot):
        if sigma.n <= max(b.center, b.right, b.left):
            raise ValueError(f"degree mismatch: {sigma.n} too small for {b}")
        return RoloBallot(sigma(b.center), sigma(b.right), sigma(b.left))
    if isinstance(b, TradBallot):
        if sigma.n != 4:
            raise ValueError(f"degree mismatch: TRAD ballots need n=4, got {sigma.n}")
        return trad_ballot(
            (sigma(b.opposite[0]), sigma(b.opposite[1])),
            (sigma(b.adjacency[0]), sigma(b.adjacency[1])),
        )
    raise TypeError(f"not a ballot: {b!r}")


def favorite_order(b: Ballot, n: int = 4) -> CyclicOrder:
    """The unique cyclic order consistent with all of b's constraints.

    Cyclic ballots are their own favourite.  For ROLO and TRAD the completion
    is unique only for n=4.

    >>> str(favorite_order(parse_ballot("A|D,C", "rolo")))
    '(ACBD)'
    >>> str(favorite_order(parse_ballot("AB-DA", "trad")))
    '(ACBD)'
    """
    if isinstance(b, CyclicOrder):
        return b
    if n != 4:
        raise ValueError(f"favourite order is unique only for n=4, got n={n}")
    return _completion(b)


@lru_cache(maxsize=None)
def _completion(b: Ballot) -> CyclicOrder:
    """The one 4-item order consistent with b, found once per ballot."""
    matches = [x for x in enumerate_orders(4) if _consistent(b, x)]
    if len(matches) != 1:
        raise ValueError(f"no unique completion for {b}")  # unreachable for valid ballots
    return matches[0]


def _successors(x: CyclicOrder) -> set[tuple[int, int]]:
    return {(x.seq[i], x.seq[(i + 1) % x.n]) for i in range(x.n)}


def _consistent(b: Ballot, x: CyclicOrder) -> bool:
    succ = _successors(x)
    if isinstance(b, RoloBallot):
        # right of the centre means immediately before it in the cycle
        return (b.right, b.center) in succ and (b.center, b.left) in succ
    if isinstance(b, TradBallot):
        opposite = {(x.seq[i], x.seq[(i + 2) % 4]) for i in range(4)}
        return tuple(b.opposite) in opposite and b.adjacency in succ
    raise TypeError(f"not a partial ballot: {b!r}")


class BallotSpace:
    """An indexed enumeration of one ballot kind with its relabelling action."""

    def __init__(self, kind: str, n: int, ordering: str, ballots: tuple):
        self.kind = kind
        self.n = n
        self.ordering = ordering
        self.ballots = ballots
        self._index = {b: i for i, b in enumerate(ballots)}

    def __repr__(self) -> str:
        return f"BallotSpace({self.kind!r}, n={self.n}, ordering={self.ordering!r}, size={len(self)})"

    def __len__(self) -> int:
        return len(self.ballots)

    def __iter__(self):
        return iter(self.ballots)

    def __getitem__(self, i: int):
        return self.ballots[i]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BallotSpace)
            and (self.kind, self.n, self.ordering) == (other.kind, other.n, other.ordering)
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.n, self.ordering))

    def index_of(self, b: Ballot) -> int:
        try:
            return self._index[b]
        except KeyError:
            raise ValueError(f"{b} is not a ballot of {self!r}") from None

    def act_index(self, sigma: Permutation, i: int) -> int:
        return self._index[act_on_ballot(sigma, self.ballots[i])]

    @cached_property
    def action(self) -> ActionSpace:
        """The index action, built once per space so its integer tables are shared."""
        return ActionSpace(
            dim=len(self),
            n=self.n,
            act=self.act_index,
            name=f"{self.kind}{self.n}",
        )

    def label(self, b: Ballot) -> str:
        return format_order(b) if isinstance(b, CyclicOrder) else str(b)

    def labels(self) -> list[str]:
        return [self.label(b) for b in self.ballots]

    def parse(self, text: str) -> Ballot:
        b = parse_ballot(text, self.kind)
        self.index_of(b)
        return b


def parse_ballot(text: str, kind: str) -> Ballot:
    """Parse one ballot literal: "(ACBD)", "A|D,C", or "AB-DA"."""
    text = text.strip()
    if kind == "cyclic":
        return parse_order(text)
    if kind == "rolo":
        m = re.fullmatch(r"([A-Z])\s*\|\s*([A-Z])\s*,\s*([A-Z])", text)
        if not m:
            raise ValueError(f"bad ROLO ballot literal: {text!r}")
        c, r, l = (LETTERS.index(ch) for ch in m.groups())
        return RoloBallot(c, r, l)
    if kind == "trad":
        m = re.fullmatch(r"([A-Z])([A-Z])\s*-\s*([A-Z])([A-Z])", text)
        if not m:
            raise ValueError(f"bad TRAD ballot literal: {text!r}")
        x, y, z, w = (LETTERS.index(ch) for ch in m.groups())
        return trad_ballot((x, y), (z, w))
    raise ValueError(f"unknown ballot kind: {kind!r}")


def _mapping_permutation(src: RoloBallot, dst: RoloBallot) -> Permutation:
    """The unique element of S_4 carrying one ROLO ballot to another."""
    images = [None] * 4
    for a, b in ((src.center, dst.center), (src.right, dst.right), (src.left, dst.left)):
        images[a] = b
    rest_src = ({0, 1, 2, 3} - {src.center, src.right, src.left}).pop()
    rest_dst = ({0, 1, 2, 3} - {dst.center, dst.right, dst.left}).pop()
    images[rest_src] = rest_dst
    return Permutation(tuple(images))


@lru_cache(maxsize=None)
def build_ballot_space(kind: str, n: int, ordering: str = "canonical") -> BallotSpace:
    """Construct an indexed ballot space.

    kinds: "cyclic" (any n), "rolo" (n >= 4), "trad" (n=4 only).  The "paper"
    ordering kind exists for (cyclic, 4), (cyclic, 5) and (rolo, 4).
    """
    if kind == "cyclic":
        return BallotSpace(kind, n, ordering, enumerate_orders(n, ordering))
    if kind == "rolo":
        if n < 4:
            raise ValueError("ROLO ballots need n >= 4")
        if ordering == "paper":
            if n != 4:
                raise ValueError(f"no paper ordering for (rolo, {n})")
            ballots = tuple(parse_ballot(t, "rolo") for t in PAPER_ROLO_4)
        elif ordering == "canonical":
            # itertools yields (center, right, left) triples in lexicographic order
            ballots = tuple(RoloBallot(c, r, l) for c, r, l in _words(range(n), 3))
        else:
            raise ValueError(f"unknown ordering kind: {ordering!r}")
        return BallotSpace(kind, n, ordering, ballots)
    if kind == "trad":
        if n != 4:
            raise ValueError("TRAD ballots are defined for n=4 only")
        if ordering != "canonical":
            raise ValueError(f"no {ordering!r} ordering for (trad, 4)")
        rolo = build_ballot_space("rolo", 4, "paper")
        base = trad_ballot((0, 1), (3, 0))  # AB-DA, favourite (ACBD)
        ballots = tuple(
            act_on_ballot(_mapping_permutation(rolo[0], b), base) for b in rolo
        )
        return BallotSpace(kind, n, ordering, ballots)
    raise ValueError(f"unknown ballot kind: {kind!r}")


def default_ordering(kind: str, n: int) -> str:
    """The ordering a space takes unless one is named: "paper" where the
    reference enumeration exists (cyclic n in {4, 5}, ROLO n=4), else "canonical".

    The invariant-subspace catalogs and the named rule families are written
    in these orderings.
    """
    paper = (kind == "cyclic" and n in (4, 5)) or (kind == "rolo" and n == 4)
    return "paper" if paper else "canonical"


def outcome_space(n: int) -> BallotSpace:
    """The cyclic-order outcome space in its default enumeration."""
    return build_ballot_space("cyclic", n, default_ordering("cyclic", n))


def action_space(space: BallotSpace) -> ActionSpace:
    """Adapter to the representation layer: the index action of the space."""
    return space.action
