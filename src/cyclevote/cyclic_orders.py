"""Cyclic orders: seatings of n labelled items around a table.

A cyclic order is an arrangement up to rotation; it is stored canonically as
the unique rotation whose sequence starts with label 0, so there are (n-1)!
distinct values for each n.  Relabelling by a permutation is a left action.
The module also provides the lexicographic sequence of all orders for one n
(the reference "paper" enumerations are in the table of ballots), the
fixed-order counting character of the relabelling action both in closed
form and by brute force, transposition distance on the set of cyclic orders,
and orbit classification of ordered pairs under simultaneous relabelling.
"""
from __future__ import annotations

import re
from functools import lru_cache
from itertools import permutations as _words
from math import factorial, gcd

from ._record import OrderedRecord, Record
from .symmetric_group import (
    LETTERS,
    ClassFunction,
    Partition,
    Permutation,
    class_function,
)


class CyclicOrder(OrderedRecord, fields=("seq",)):
    """A cyclic order in canonical rotation: seq is a permutation starting at 0."""

    def __init__(self, seq: tuple[int, ...]):
        self.__dict__["seq"] = seq
        n = len(seq)
        if sorted(seq) != list(range(n)):
            raise ValueError(f"labels must be 0..{n - 1} exactly once: {seq!r}")
        if seq[0] != 0:
            raise ValueError(f"not in canonical rotation (must start at 0): {seq!r}")

    @property
    def n(self) -> int:
        return len(self.seq)

    def __str__(self) -> str:
        return format_order(self)


def canonicalize(raw) -> CyclicOrder:
    """The unique rotation of raw that starts with label 0.

    >>> str(canonicalize((2, 1, 3, 0)))
    '(ACBD)'
    """
    raw = tuple(raw)
    if 0 not in raw:
        raise ValueError(f"no label 0 in {raw!r}")
    k = raw.index(0)
    return CyclicOrder(raw[k:] + raw[:k])


def format_order(x: CyclicOrder) -> str:
    if x.n > len(LETTERS):
        return "(" + ",".join(str(i) for i in x.seq) + ")"
    return "(" + "".join(LETTERS[i] for i in x.seq) + ")"


def parse_order(text: str) -> CyclicOrder:
    """Parse "(ACBD)", "ACBD", or "(0,2,1,3)"; any rotation is accepted."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1].strip()
    if re.fullmatch(r"[A-Z]+", body):
        labels = [LETTERS.index(ch) for ch in body]
    else:
        try:
            labels = [int(t) for t in re.split(r"[\s,]+", body) if t]
        except ValueError:
            raise ValueError(f"bad cyclic-order literal: {text!r}") from None
    if len(set(labels)) != len(labels) or sorted(labels) != list(range(len(labels))):
        raise ValueError(f"bad cyclic-order literal: {text!r}")
    return canonicalize(labels)


def act_on_order(sigma: Permutation, x: CyclicOrder) -> CyclicOrder:
    """Relabel every item of x by sigma (a left action).

    >>> from .symmetric_group import parse_permutation
    >>> str(act_on_order(parse_permutation("(0 1)", 4), parse_order("(ABCD)")))
    '(ACDB)'
    """
    if sigma.n != x.n:
        raise ValueError(f"degree mismatch: {sigma.n} vs {x.n}")
    return canonicalize(sigma.images[i] for i in x.seq)


def reverse_order(x: CyclicOrder) -> CyclicOrder:
    """The cyclic order read backwards; an involution.

    >>> str(reverse_order(parse_order("(ABCDE)")))
    '(AEDCB)'
    """
    return canonicalize(tuple(reversed(x.seq)))


@lru_cache(maxsize=None)
def enumerate_orders(n: int) -> tuple[CyclicOrder, ...]:
    """All (n-1)! cyclic orders, in lexicographic order of their seats."""
    if n < 1:
        raise ValueError("n must be positive")
    return tuple(CyclicOrder((0, *rest)) for rest in _words(range(1, n)))


def count_fixed_orders(sigma: Permutation) -> int:
    """Brute-force count of cyclic orders left unchanged by sigma."""
    return sum(1 for x in enumerate_orders(sigma.n) if act_on_order(sigma, x) == x)


def co_character(n: int) -> ClassFunction:
    """Fixed-order counts of the relabelling action, in closed form.

    Only cycle types with all parts equal to some divisor d of n fix any
    cyclic order; such a class with e = n/d parts has e! * d**e * phi(d) / n
    fixed orders.  Everything else contributes zero.
    """
    if n < 3:
        raise ValueError("cyclic orders need n >= 3")

    def value(mu: Partition) -> int:
        d = mu.parts[0]
        if any(p != d for p in mu.parts):
            return 0
        e = n // d
        return factorial(e) * d**e * sum(gcd(k, d) == 1 for k in range(d)) // n

    return class_function(n, value)


# -- transposition distance -------------------------------------------------

def _relabel_to_base(x: CyclicOrder, y: CyclicOrder) -> tuple[int, ...]:
    """The seats of tau*y, where tau relabels x to the base order (A B ... N).

    tau(x.seq[i]) = i.  Both sequences start at label 0 and tau fixes 0, so the
    result is already in canonical rotation.
    """
    if x.n != y.n:
        raise ValueError(f"degree mismatch: {x.n} vs {y.n}")
    tau = [0] * x.n
    for i, label in enumerate(x.seq):
        tau[label] = i
    return tuple(tau[label] for label in y.seq)


# bench/worker.py wraps this function by the name _distance_matrix.
@lru_cache(maxsize=None)
def _distance_matrix(n: int) -> dict[tuple[int, ...], int]:
    """Transposition distance from the base order to every order, by one BFS
    on seat tuples: swap two adjacent seats, then rotate label 0 to the front."""
    queue = [tuple(range(n))]
    dist = {queue[0]: 0}
    for seq in queue:  # the list grows while it is read: a FIFO queue
        for i in range(n):
            word = list(seq)
            word[i - 1], word[i] = word[i], word[i - 1]
            k = word.index(0)
            y = tuple(word[k:] + word[:k])
            if y not in dist:
                dist[y] = dist[seq] + 1
                queue.append(y)
    return dist


def transposition_distance(x: CyclicOrder, y: CyclicOrder) -> int:
    """Fewest simple transpositions (adjacent-seat swaps) turning x into y.

    Swapping the labels at two adjacent seats is the relabelling by the
    transposition of those two labels, so this is a graph distance on the set
    of cyclic orders and is invariant under joint relabelling: d(x, y) equals
    d(base, tau*y) for the tau that relabels x to the base order.
    """
    return _distance_matrix(x.n)[_relabel_to_base(x, y)]


# -- orbit classification of pairs ------------------------------------------

class PairClass(Record, fields=("tag", "representative")):
    """The orbit of an ordered pair of cyclic orders under joint relabelling."""

    def __init__(self, tag: str, representative: tuple[CyclicOrder, CyclicOrder]):
        self.__dict__.update(tag=tag, representative=representative)

    def __str__(self) -> str:
        return self.tag


#: Orbit names for n=5, each anchored at a pair whose first entry is the
#: "Same" anchor (ABCDE); _PAIR_NAMES_4 is anchored at (ACBD) alike.
_PAIR_NAMES_5 = (
    ("Same", "ABCDE"),
    ("Reversal", "AEDCB"),
    ("Transposition", "ABCED"),
    ("TranspositionReversal", "ADECB"),
    ("ThreeCycle", "ABDEC"),
    ("DoubleTransposition", "ACEDB"),
    ("Step", "ACEBD"),
    ("StepReversal", "ADBEC"),
)

_PAIR_NAMES_4 = (
    ("Same", "ACBD"),
    ("Reversal", "ADBC"),
    ("Other", "ABCD"),
)


def _pair_representative(x: CyclicOrder, y: CyclicOrder) -> tuple[CyclicOrder, CyclicOrder]:
    """The least pair in the diagonal orbit of (x, y).

    Relabelling acts transitively on cyclic orders, so the least first entry
    in the orbit is the base order, and the pairs starting with it are
    (base, rho_k tau*y) for the base order's stabiliser: the n rotations
    rho_k: i -> i+k mod n.
    """
    word = _relabel_to_base(x, y)
    n = x.n
    return CyclicOrder(tuple(range(n))), min(
        canonicalize([(label + k) % n for label in word]) for k in range(n)
    )


@lru_cache(maxsize=None)
def _named_representatives(n: int) -> dict[tuple[CyclicOrder, CyclicOrder], str]:
    names = {4: _PAIR_NAMES_4, 5: _PAIR_NAMES_5}.get(n, ())
    base = parse_order(names[0][1]) if names else None
    return {_pair_representative(base, parse_order(second)): tag for tag, second in names}


def classify_pair(x: CyclicOrder, y: CyclicOrder) -> PairClass:
    """The orbit of (x, y) under the diagonal relabelling action.

    For n in {4, 5} the orbits carry fixed names (for n=5: Same, Reversal,
    Transposition, TranspositionReversal, ThreeCycle, DoubleTransposition,
    Step, StepReversal); elsewhere the tag is the canonical representative.
    """
    rep = _pair_representative(x, y)
    tag = _named_representatives(x.n).get(rep)
    if tag is None:
        tag = f"{rep[0]}~{rep[1]}"
    return PairClass(tag, rep)
