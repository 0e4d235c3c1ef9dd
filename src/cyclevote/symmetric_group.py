"""Exact arithmetic for the symmetric group S_n.

Permutations are immutable values in one-line notation over 0-based labels:
``Permutation((1, 0, 2))`` swaps labels 0 and 1.  Composition is fixed as
"right acts first": ``compose(p, q)[i] == p[q[i]]``.  Cycle-notation strings
such as ``(0 1 2)(3 4)`` and letter words such as ``ACB`` (A -> 0, B -> 1, ...)
are a parse/print concern only.

Partitions index both the conjugacy classes of S_n (as cycle types) and its
irreducible characters, which are evaluated with the memoized
Murnaghan-Nakayama recursion.  All values are exact integers or rationals.
"""
from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterator, Mapping
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _words
from math import factorial, prod

from ._record import OrderedRecord, Record

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


class Permutation(OrderedRecord, fields=("images",)):
    """An element of S_n in one-line notation: position i maps to images[i]."""

    def __init__(self, images: tuple[int, ...]):
        self.__dict__["images"] = images
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __str__(self) -> str:
        return cycle_string(self)


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(n)))


def transposition(n: int, i: int, j: int) -> Permutation:
    images = list(range(n))
    images[i], images[j] = images[j], images[i]
    return Permutation(tuple(images))


def full_cycle(n: int) -> Permutation:
    """The n-cycle 0 -> 1 -> ... -> n-1 -> 0."""
    return Permutation(tuple((i + 1) % n for i in range(n)))


def generators(n: int) -> tuple[Permutation, Permutation]:
    """A standard generating pair of S_n: a transposition and the full cycle."""
    if n < 2:
        return (identity(n), identity(n))
    return (transposition(n, 0, 1), full_cycle(n))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: the result maps i to p[q[i]].

    >>> compose(full_cycle(4), full_cycle(4)).images
    (2, 3, 0, 1)
    """
    if p.n != q.n:
        raise ValueError(f"degree mismatch: {p.n} vs {q.n}")
    return Permutation(tuple(p.images[q.images[i]] for i in range(p.n)))


def all_permutations(n: int) -> Iterator[Permutation]:
    for word in _words(range(n)):
        yield Permutation(word)


def disjoint_cycles(p: Permutation) -> list[tuple[int, ...]]:
    """Cycles of p (fixed points included), each starting at its least label."""
    seen = [False] * p.n
    cycles = []
    for start in range(p.n):
        if seen[start]:
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = p.images[i]
        cycles.append(tuple(cycle))
    return cycles


def sign(p: Permutation) -> int:
    """Parity of p: +1 for even permutations, -1 for odd."""
    return -1 if (p.n - len(disjoint_cycles(p))) % 2 else 1


class Partition(OrderedRecord, fields=("parts",)):
    """A partition of n as a weakly decreasing tuple of positive parts."""

    def __init__(self, parts: tuple[int, ...]):
        self.__dict__["parts"] = parts
        if any(x < 1 for x in parts):
            raise ValueError(f"parts must be positive: {parts!r}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValueError(f"parts must be weakly decreasing: {parts!r}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __str__(self) -> str:
        return format_partition(self)


def cycle_type(p: Permutation) -> Partition:
    """Cycle lengths of p, fixed points included, sorted decreasing.

    >>> str(cycle_type(parse_permutation("(0 1)(2 3)", 4)))
    '2+2'
    """
    lengths = sorted((len(c) for c in disjoint_cycles(p)), reverse=True)
    return Partition(tuple(lengths))


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n in descending lexicographic order."""

    def gen(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first, *rest)

    return tuple(Partition(parts) for parts in gen(n, n))


def one_partition(n: int) -> Partition:
    return Partition((1,) * n) if n else Partition(())


def class_size(mu: Partition) -> int:
    """Size of the conjugacy class of cycle type mu: n! / prod(k^m_k * m_k!).

    >>> class_size(Partition((5,)))
    24
    """
    return factorial(mu.n) // prod(k**m * factorial(m) for k, m in Counter(mu.parts).items())


def enumerate_classes(n: int) -> list[tuple[Partition, int]]:
    """(cycle type, class size) for every conjugacy class of S_n."""
    if n < 1:
        raise ValueError("n must be positive")
    return [(mu, class_size(mu)) for mu in partitions(n)]


def class_representative(mu: Partition) -> Permutation:
    """A permutation of cycle type mu, with cycles filled consecutively."""
    images = list(range(mu.n))
    start = 0
    for part in mu.parts:
        for k in range(part):
            images[start + k] = start + (k + 1) % part
        start += part
    return Permutation(tuple(images))


def _strip_removals(parts: tuple[int, ...], k: int) -> list[tuple[tuple[int, ...], int]]:
    """All ways to remove a border strip of size k, with the strip's height.

    Works on the first-column hook coordinates beta_i = parts[i] + (m-1-i):
    removing a border strip of size k is subtracting k from one beta value
    while keeping all values distinct and nonnegative, and the strip height is
    the number of beta values jumped over.
    """
    m = len(parts)
    beta = [parts[i] + (m - 1 - i) for i in range(m)]
    taken = set(beta)
    out = []
    for i, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in taken:
            continue
        height = sum(1 for x in beta if nb < x < b)
        nbeta = sorted((x for x in beta if x != b), reverse=True)
        nbeta.append(nb)
        nbeta.sort(reverse=True)
        nparts = tuple(nbeta[j] - (m - 1 - j) for j in range(m))
        out.append((tuple(x for x in nparts if x), height))
    return out


@lru_cache(maxsize=None)
def _mn(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    if not mu:
        return 1 if not lam else 0
    k, rest = mu[0], mu[1:]
    return sum((-1) ** h * _mn(nu, rest) for nu, h in _strip_removals(lam, k))


def irreducible_character(lam: Partition, mu: Partition) -> int:
    """The irreducible character indexed by lam, evaluated on the class mu."""
    if lam.n != mu.n:
        raise ValueError(f"mismatched n: {lam} vs {mu}")
    return _mn(lam.parts, mu.parts)


def specht_dimension(lam: Partition) -> int:
    """Dimension of the irreducible indexed by lam (character at the identity)."""
    return irreducible_character(lam, one_partition(lam.n))


class ClassFunction(Record, fields=("n", "values")):
    """Rational values on the conjugacy classes of S_n, indexed by cycle type."""

    def __init__(self, n: int, values: Mapping[Partition, Fraction]):
        self.__dict__.update(n=n, values=values)
        missing = [mu for mu in partitions(n) if mu not in values]
        if missing:
            raise ValueError(f"class function undefined on {missing}")

    def __call__(self, mu: Partition) -> Fraction:
        return self.values[mu]


def class_function(n: int, value_of) -> ClassFunction:
    """Build a ClassFunction by evaluating value_of on every cycle type."""
    return ClassFunction(n, {mu: Fraction(value_of(mu)) for mu in partitions(n)})


# -- parsing and printing ---------------------------------------------------

def format_partition(mu: Partition) -> str:
    return "+".join(str(p) for p in mu.parts)


def parse_partition(text: str) -> Partition:
    """Parse "5" or "3+1+1"."""
    try:
        parts = tuple(int(t) for t in text.strip().split("+"))
    except ValueError:
        raise ValueError(f"bad partition literal: {text!r}") from None
    return Partition(tuple(sorted(parts, reverse=True)))


def cycle_string(p: Permutation) -> str:
    cycles = [c for c in disjoint_cycles(p) if len(c) > 1]
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cycles)


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse a cycle string "(0 1 2)(3 4)" or a letter word "ACB" (A -> 0)."""
    text = text.strip()
    if re.fullmatch(r"[A-Z]+", text):
        if len(text) != n:
            raise ValueError(f"word length {len(text)} != degree {n}")
        return Permutation(tuple(LETTERS.index(ch) for ch in text))
    if text == "()" or text == "e":
        return identity(n)
    if not re.fullmatch(r"(\(\s*\d+(?:[\s,]+\d+)*\s*\))+", text):
        raise ValueError(f"bad permutation literal: {text!r}")
    images = list(range(n))
    used: set[int] = set()
    for body in re.findall(r"\(([^()]*)\)", text):
        labels = [int(t) for t in re.split(r"[\s,]+", body.strip()) if t]
        if len(set(labels)) != len(labels) or any(not 0 <= x < n for x in labels):
            raise ValueError(f"bad cycle {body!r} for degree {n}")
        if used & set(labels):
            raise ValueError(f"cycles are not disjoint in {text!r}")
        used.update(labels)
        for a, b in zip(labels, labels[1:] + labels[:1]):
            images[a] = b
    return Permutation(tuple(images))
