"""Ballot spaces: single cyclic orders, ROLO ballots, and TRAD ballots.

A ROLO ballot names a centre item plus the items wanted immediately to its
right and left; n(n-1)(n-2) exist.  A TRAD ballot (n=4 only) names a pair
wanted diagonally opposite plus one compatible directed adjacency "Z right of
W"; there are 24, because naming one opposite pair also fixes the other, so
AB-DA and CD-DA denote the same ballot.  Both kinds carry the relabelling
action componentwise and, for n=4, determine a unique favourite cyclic order.

A BallotSpace fixes the enumeration order of one ballot kind; it is the one
indexed enumeration of the package, and its own ActionSpace: the relabelling
action on its indices.  Every space has a "canonical" ordering (cyclic and
ROLO: lexicographic); the reference "paper" orderings are the one table
_PAPER, and default_ordering takes "paper" exactly where it has an entry.  The "paper"
ROLO order for n=4 lists, for each cyclic order of the n=4 reference
enumeration, its four ballots together.  The TRAD enumeration is derived
from it: the i-th TRAD ballot is trad_ballot((C, X), (R, C)) for the i-th
ROLO ballot C|R,L, with X = 6-C-R-L the fourth label.  That map commutes
with relabelling, so the two spaces act identically index-by-index and each
TRAD ballot shares its ROLO ballot's favourite order.
"""
from __future__ import annotations

import re
from functools import lru_cache
from itertools import permutations as _words

from ._record import OrderedRecord
from .cyclic_orders import (
    CyclicOrder,
    act_on_order,
    canonicalize,
    enumerate_orders,
    parse_order,
)
from .representation import ActionSpace
from .symmetric_group import LETTERS, Permutation

#: The reference ("paper") enumerations as ballot literals, keyed by (kind, n);
#: the cyclic ones list reversal pairs together.
_PAPER = {
    ("cyclic", 4): ("ACBD", "ADBC", "ABCD", "ADCB", "ABDC", "ACDB"),
    ("cyclic", 5): (
        "ABCDE", "AEDCB", "ABCED", "ADECB", "ABDCE", "AECDB",
        "ABDEC", "ACEDB", "ABECD", "ADCEB", "ABEDC", "ACDEB",
        "ACBDE", "AEDBC", "ACDBE", "AEBDC", "ACEBD", "ADBEC",
        "ADBCE", "AECBD", "AEBCD", "ADCBE", "ACBED", "ADEBC",
    ),
    ("rolo", 4): (
        "A|D,C", "B|C,D", "D|B,A", "C|A,B",
        "C|B,A", "D|A,B", "A|C,D", "B|D,C",
        "A|D,B", "C|B,D", "B|A,C", "D|C,A",
        "B|C,A", "D|A,C", "C|D,B", "A|B,D",
        "D|B,C", "A|C,B", "B|A,D", "C|D,A",
        "C|A,D", "B|D,A", "D|C,B", "A|B,C",
    ),
}


class RoloBallot(OrderedRecord, fields=("center", "right", "left")):
    """Centre item with the desired right and left neighbours."""

    def __init__(self, center: int, right: int, left: int):
        self.__dict__.update(center=center, right=right, left=left)
        if len({center, right, left}) != 3:
            raise ValueError(f"labels must be distinct: {self!r}")

    def __str__(self) -> str:
        return f"{LETTERS[self.center]}|{LETTERS[self.right]},{LETTERS[self.left]}"


class TradBallot(OrderedRecord, fields=("opposite", "adjacency")):
    """An opposite pair plus a directed adjacency (z sits right of w), n=4.

    The stored opposite pair is the one containing label 0; the complementary
    pair denotes the same ballot and is normalised away by trad_ballot().
    """

    def __init__(self, opposite: tuple[int, int], adjacency: tuple[int, int]):
        self.__dict__.update(opposite=opposite, adjacency=adjacency)
        if len(set(opposite) | set(adjacency)) > 4:
            raise ValueError("TRAD ballots are defined for n=4 only")
        if 0 not in opposite or opposite[0] > opposite[1]:
            raise ValueError(f"opposite pair not in canonical form: {self!r}")
        z, w = adjacency
        if z == w or (z in opposite) == (w in opposite):
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
    is unique only for n=4: the seats of _label_tuple(b), followed by the
    labels of 0..3 they lack, read as a cyclic order.  Labels that do not fit
    n=4 raise ValueError.

    >>> str(favorite_order(parse_ballot("A|D,C", "rolo")))
    '(ACBD)'
    >>> str(favorite_order(parse_ballot("AB-DA", "trad")))
    '(ACBD)'
    """
    if isinstance(b, CyclicOrder):
        return b
    if n != 4:
        raise ValueError(f"favourite order is unique only for n=4, got n={n}")
    seats = _label_tuple(b)
    seats += tuple(x for x in range(4) if x not in seats)
    if sorted(seats) != [0, 1, 2, 3]:
        raise ValueError(f"{b} does not fit n=4")
    return canonicalize(seats)


def _label_tuple(b: Ballot) -> tuple[int, ...]:
    """Labels that determine b, each moved on its own by a relabelling.

    A cyclic order gives its seats (to be read up to rotation), a ROLO ballot
    C|R,L gives the seats (R, C, L), R just before C and L just after, and a
    TRAD ballot XY-ZW gives the seats (Z W Z' W') of its favourite order, Z'
    and W' the opposite partners of Z and W.  Relabelling b by sigma maps its
    tuple entrywise through sigma.
    """
    if isinstance(b, CyclicOrder):
        return b.seq
    if isinstance(b, RoloBallot):
        return (b.right, b.center, b.left)
    if isinstance(b, TradBallot):
        # the two opposite pairs split 0+1+2+3 = 6: a partner is its pair's sum minus it
        pair = sum(b.opposite)
        z, w = b.adjacency
        if z in b.opposite:
            return (z, w, pair - z, 6 - pair - w)
        return (z, w, 6 - pair - z, pair - w)
    raise TypeError(f"not a ballot: {b!r}")


class BallotSpace(ActionSpace):
    """An indexed enumeration of one ballot kind; as an ActionSpace, its
    relabelling action on the indices, act_index.

    A space compares and hashes by identity: the object owns its enumeration,
    so two spaces with one (kind, n, ordering) label but different ballot
    sequences never stand in for each other, and the integer tables of the
    action are cached on it once.  build_ballot_space returns the one object
    of each space.
    """

    def __init__(self, kind: str, n: int, ordering: str, ballots: tuple):
        # act is read off the class here, so a wrapper put on act_index before is used
        super().__init__(dim=len(ballots), n=n, act=self.act_index, name=f"{kind}{n}")
        self.kind = kind
        self.ordering = ordering
        self.ballots = ballots
        self._index = {b: i for i, b in enumerate(ballots)}
        self._label_tuples = tuple(map(_label_tuple, ballots))
        self._label_index = {t: i for i, t in enumerate(self._label_tuples)}

    def __repr__(self) -> str:
        return f"BallotSpace({self.kind!r}, n={self.n}, ordering={self.ordering!r}, size={len(self)})"

    def __len__(self) -> int:
        return len(self.ballots)

    def __iter__(self):
        return iter(self.ballots)

    def __getitem__(self, i: int):
        return self.ballots[i]

    def index_of(self, b: Ballot) -> int:
        try:
            return self._index[b]
        except KeyError:
            raise ValueError(f"{b} is not a ballot of {self!r}") from None

    def act_index(self, sigma: Permutation, i: int) -> int:
        """The index of ballot i relabelled by sigma, read on its label tuple
        (act_on_ballot gives the same ballot, building it)."""
        images = sigma.images
        if len(images) != self.n:
            raise ValueError(f"degree mismatch: {sigma.n} vs {self.n}")
        labels = tuple([images[x] for x in self._label_tuples[i]])
        if self.kind == "cyclic":  # the seats of a cyclic order start at label 0
            k = labels.index(0)
            labels = labels[k:] + labels[:k]
        return self._label_index[labels]

    def label(self, b: Ballot) -> str:
        return str(b)

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


def build_ballot_space(kind: str, n: int, ordering: str | None = None) -> BallotSpace:
    """The indexed ballot space, in default_ordering(kind, n) unless one is named.

    kinds: "cyclic" (any n), "rolo" (n >= 4), "trad" (n=4 only).  The
    "canonical" ordering exists for each, the "paper" ordering for the
    (kind, n) pairs of _PAPER.  Spaces are cached on the resolved ordering,
    so every spelling of one space returns one object.
    """
    if ordering is None:
        ordering = default_ordering(kind, n)
    return _build_space(kind, n, ordering)


@lru_cache(maxsize=None)
def _build_space(kind: str, n: int, ordering: str) -> BallotSpace:
    if ordering == "paper":
        if (kind, n) not in _PAPER:
            raise ValueError(f"no 'paper' ordering for ({kind}, {n})")
        ballots = tuple(parse_ballot(text, kind) for text in _PAPER[kind, n])
    elif ordering != "canonical":
        raise ValueError(f"unknown ordering kind: {ordering!r}")
    elif kind == "cyclic":
        ballots = enumerate_orders(n)
    elif kind == "rolo":
        if n < 4:
            raise ValueError("ROLO ballots need n >= 4")
        # itertools yields (center, right, left) triples in lexicographic order
        ballots = tuple(RoloBallot(c, r, l) for c, r, l in _words(range(n), 3))
    elif kind == "trad":
        if n != 4:
            raise ValueError("TRAD ballots are defined for n=4 only")
        ballots = tuple(
            trad_ballot((b.center, 6 - b.center - b.right - b.left), (b.right, b.center))
            for b in build_ballot_space("rolo", 4, "paper")
        )
    else:
        raise ValueError(f"unknown ballot kind: {kind!r}")
    return BallotSpace(kind, n, ordering, ballots)


def default_ordering(kind: str, n: int) -> str:
    """The ordering a space takes unless one is named: "paper" where the
    reference enumeration exists, else "canonical".

    The invariant-subspace catalogs and the named rule families are written
    in these orderings.
    """
    return "paper" if (kind, n) in _PAPER else "canonical"


def outcome_space(n: int) -> BallotSpace:
    """The cyclic-order outcome space in its default enumeration."""
    return build_ballot_space("cyclic", n)


def action_space(space: BallotSpace) -> ActionSpace:
    """The index action of the space: the space itself (bench/ calls and wraps this)."""
    return space
