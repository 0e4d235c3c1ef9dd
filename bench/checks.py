"""Output checks against facts computed independently of the library.

Every check returns a list of error strings; an empty list means the output
passed.  The helpers here re-derive what they compare against (partitions,
class sizes, the closed-form fixed-order character, ranks, distances,
favourite orders, tallies) with plain Fraction arithmetic, and take from the
library at most the rule matrix under test and the labels of its spaces.
"""
from __future__ import annotations

import csv
import io
from collections import deque
from fractions import Fraction
from math import factorial, gcd

from inputs import LETTERS, ORDERS_4, order_words

#: Transposition-distance class sizes of 5-item cyclic orders.
DISTANCE5_CLASS_SIZES = (1, 5, 10, 7, 1)

PAIR_TAGS_5 = {
    "Same", "Reversal", "Transposition", "TranspositionReversal",
    "ThreeCycle", "DoubleTransposition", "Step", "StepReversal",
}


# -- independent arithmetic ------------------------------------------------------

def partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    cap = n if cap is None else cap
    if n == 0:
        return [()]
    return [(k, *rest) for k in range(min(n, cap), 0, -1) for rest in partitions(n - k, k)]


def class_size(parts: tuple[int, ...]) -> int:
    n = sum(parts)
    centralizer = 1
    for k in set(parts):
        m = parts.count(k)
        centralizer *= k**m * factorial(m)
    return factorial(n) // centralizer


def co_character(parts: tuple[int, ...]) -> int:
    """Cyclic orders fixed by a permutation of this cycle type (closed form)."""
    n, d = sum(parts), parts[0]
    if any(p != d for p in parts):
        return 0
    e = n // d
    phi = sum(1 for k in range(1, d + 1) if gcd(k, d) == 1)
    return factorial(e) * d**e * phi // n


def mat_vec(rows, v) -> list[Fraction]:
    return [sum((Fraction(a) * Fraction(b) for a, b in zip(row, v)), Fraction(0)) for row in rows]


def rank(rows) -> int:
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c]:
                k = m[i][c] / m[r][c]
                m[i] = [a - k * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def argmax_set(scores) -> set[int]:
    top = max(scores)
    return {i for i, s in enumerate(scores) if s == top}


def canonical_word(seq) -> str:
    k = seq.index(0)
    seq = list(seq[k:]) + list(seq[:k])
    return "".join(LETTERS[i] for i in seq)


def transposition_distance(x: str, y: str) -> int:
    """BFS over cyclic orders, one adjacent-seat swap per step."""
    start = tuple(LETTERS.index(ch) for ch in x)
    goal = canonical_word([LETTERS.index(ch) for ch in y])
    n = len(start)
    seen = {canonical_word(start): 0}
    queue = deque([canonical_word(start)])
    while queue:
        w = queue.popleft()
        if w == goal:
            return seen[w]
        seq = [LETTERS.index(ch) for ch in w]
        for i in range(n):
            s = seq[:]
            s[i], s[(i + 1) % n] = s[(i + 1) % n], s[i]
            nxt = canonical_word(s)
            if nxt not in seen:
                seen[nxt] = seen[w] + 1
                queue.append(nxt)
    raise AssertionError("cyclic orders are connected by adjacent swaps")


def favourite_word(label: str) -> str:
    """Favourite 4-item cyclic order of a ballot label, as a word from A."""
    if label.startswith("("):
        return label.strip("()")
    center, rest = label.split("|")
    right, left = rest.split(",")
    # the right neighbour sits immediately before the centre, the left after it
    fourth = ({"A", "B", "C", "D"} - {center, right, left}).pop()
    seq = [LETTERS.index(ch) for ch in (right, center, left, fourth)]
    return canonical_word(seq)


def parse_rationals(line: str) -> list[Fraction]:
    return [Fraction(t) for t in line.split()]


# -- checks shared by the CLI and the in-process workloads -----------------------

def check_kernel(name: str, entries, kernel, effective=None) -> list[str]:
    errors = []
    ncols = len(entries[0])
    for k, v in enumerate(kernel):
        if len(v) != ncols or any(mat_vec(entries, v)):
            errors.append(f"{name}: kernel vector {k} does not map to zero")
    r = rank(entries) if effective is None else len(effective)
    if len(kernel) + r != ncols:
        errors.append(f"{name}: kernel dim {len(kernel)} + rank {r} != {ncols}")
    for k, e in enumerate(effective or ()):
        if any(sum(Fraction(a) * b for a, b in zip(e, v)) for v in kernel):
            errors.append(f"{name}: effective vector {k} is not orthogonal to the kernel")
    return errors


def check_masking(name: str, entries, ballot_labels, outcome_labels, weights, target) -> list[str]:
    """Nonnegative, elects exactly target, raw weight mostly on other favourites."""
    errors = []
    if any(w < 0 for w in weights):
        errors.append(f"{name}: masking profile has a negative weight")
    winners = argmax_set(mat_vec(entries, weights))
    if winners != {outcome_labels.index(f"({target})")}:
        errors.append(f"{name}: masking profile elects {sorted(winners)}, not {target}")
    elsewhere = sum(
        (w for w, b in zip(weights, ballot_labels) if favourite_word(b) != target), Fraction(0)
    )
    if not 2 * elsewhere > sum(weights, Fraction(0)):
        errors.append(f"{name}: no raw-weight majority away from {target}")
    return errors


def check_sum_back(name: str, components, profile) -> list[str]:
    total = [Fraction(0)] * len(profile)
    for comp in components:
        total = [a + Fraction(b) for a, b in zip(total, comp)]
    if total != [Fraction(x) for x in profile]:
        return [f"{name}: components do not sum back to the profile"]
    return []


def check_generic4_scalars(name: str, params, scalars: dict) -> list[str]:
    a, b, c = params
    want = {"T": a + b + 4 * c, "nonadj": a + b - 2 * c, "rev": a - b}
    if scalars != want:
        return [f"{name}: scaling scalars {scalars} != t,u,v {want}"]
    return []


# -- CLI output checks ----------------------------------------------------------

def _matrix_rows(text: str) -> list[list[Fraction]]:
    rows = list(csv.reader(io.StringIO(text)))
    return [[Fraction(x) for x in row[1:]] for row in rows[1:]]


def check_cli_outputs(outputs: dict[str, str], commands: dict[str, list[str]], lib) -> list[str]:
    """Check one pass of cli_cold outputs; lib supplies rule matrices and labels."""
    errors: list[str] = []

    def fail(cid: str, msg: str) -> None:
        errors.append(f"{cid}: {msg}")

    out = outputs
    if sorted(out["orders4"].split()) != sorted(f"({w})" for w in ORDERS_4):
        fail("orders4", "not the six 4-item cyclic orders")

    rows = _matrix_rows(out["matrix_distance5"])
    for r, row in enumerate(rows):
        sizes = tuple(row.count(Fraction(d)) for d in range(5))
        if sizes != DISTANCE5_CLASS_SIZES:
            fail("matrix_distance5", f"row {r} distance class sizes {sizes}")
    rows = _matrix_rows(out["matrix_adjusted_distance5"])
    if len(rows) != 24 or any(sorted(row) != sorted(rows[0]) for row in rows):
        fail("matrix_adjusted_distance5", "rows are not relabellings of one another")

    chars = {}
    for line in out["characters_co7"].splitlines():
        mu, size, chi = line.split("\t")
        chars[tuple(int(p) for p in mu.split("+"))] = (int(size), Fraction(chi))
    want = {mu: (class_size(mu), co_character(mu)) for mu in partitions(7)}
    if chars != want:
        fail("characters_co7", "differs from the closed-form co_character(7)")

    total = 0
    for line in out["decompose_rolo5"].splitlines():
        if line.startswith("#"):
            continue
        _, m, d, md = line.split("\t")
        if int(m) * int(d) != int(md):
            fail("decompose_rolo5", f"m*d mismatch in {line!r}")
        total += int(md)
    if total != 5 * 4 * 3:
        fail("decompose_rolo5", f"dimensions sum to {total}, not 60")

    vectors = [parse_rationals(line.split("\t")[2]) for line in out["catalog_co5"].splitlines()]
    if len(vectors) != 24 or rank(vectors) != 24:
        fail("catalog_co5", "catalog vectors do not span the 24-dimensional space")

    rolo21 = lib.rule("rolo21").entries
    kernel = [parse_rationals(line) for line in out["kernel_rolo21"].splitlines()]
    for msg in check_kernel("rolo21", rolo21, kernel):
        fail("kernel_rolo21", msg)
    trad21 = lib.rule("trad21").entries
    effective = [parse_rationals(line) for line in out["effective_trad21"].splitlines()]
    r = rank(trad21)
    if len(effective) != r or rank(list(trad21) + effective) != r:
        fail("effective_trad21", "not a basis of the row space")

    argv = commands["distance7"]
    want_d = transposition_distance(argv[2].strip("()"), argv[4].strip("()"))
    if out["distance7"].strip() != str(want_d):
        fail("distance7", f"printed {out['distance7'].strip()!r}, BFS gives {want_d}")

    if out["classify5"].split("\t")[0] not in PAIR_TAGS_5:
        fail("classify5", f"unknown pair class {out['classify5'].strip()!r}")

    argv = commands["mask_rolo21"]
    m = lib.rule("rolo21")
    pairs = [line.split("\t") for line in out["mask_rolo21"].splitlines()]
    labels = m.ballot_space.labels()
    if [p[0] for p in pairs] != labels:
        fail("mask_rolo21", "profile does not list the ballot space in order")
    else:
        weights = [Fraction(p[1]) for p in pairs]
        target = argv[argv.index("--target") + 1].strip("()")
        for msg in check_masking("rolo21", m.entries, labels,
                                 m.outcome_space.labels(), weights, target):
            fail("mask_rolo21", msg)

    lines = out["project_cyclic6"].splitlines()
    if sorted(line.split("\t")[0] for line in lines) != sorted(f"({w})" for w in order_words(6)):
        fail("project_cyclic6", "projection does not cover the 120 cyclic orders")

    argv = commands["tally_generic5"]
    m = lib.rule("generic5", *argv[argv.index("--params") + 1].split(","))
    with open(argv[argv.index("--profile") + 1]) as fh:
        given = dict(line.split("\t") for line in fh.read().splitlines())
    weights = [Fraction(given[label]) for label in m.ballot_space.labels()]
    scores = mat_vec(m.entries, weights)
    winners = argmax_set(scores)
    printed = [line.split("\t") for line in out["tally_generic5"].splitlines()]
    if [Fraction(p[1]) for p in printed] != scores or \
            {i for i, p in enumerate(printed) if p[2] == "*"} != winners:
        fail("tally_generic5", "scores or winners differ from M p")
    return errors
