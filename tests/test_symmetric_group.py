from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from cyclevote.symmetric_group import (
    ClassFunction,
    Partition,
    Permutation,
    all_permutations,
    class_representative,
    class_size,
    compose,
    cycle_string,
    cycle_type,
    enumerate_classes,
    format_partition,
    full_cycle,
    identity,
    irreducible_character,
    one_partition,
    parse_partition,
    parse_permutation,
    partitions,
    sign,
    specht_dimension,
    transposition,
)
from _goldens import S4_CHARACTER_TABLE, S4_CLASSES, S5_CHARACTER_TABLE, S5_CLASSES

perms5 = st.permutations(range(5)).map(lambda w: Permutation(tuple(w)))


def inverse(p):
    """The inverse permutation; the library composes but never inverts."""
    images = [0] * p.n
    for i, j in enumerate(p.images):
        images[j] = i
    return Permutation(tuple(images))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))


def test_compose_identity_and_involution():
    q = Permutation((1, 0))
    assert compose(identity(2), q) == q
    assert compose(q, q) == identity(2)


def test_compose_four_cycle_squared():
    # squaring the 4-cycle gives the double swap (02)(13)
    c = full_cycle(4)
    assert compose(c, c) == parse_permutation("(0 2)(1 3)", 4)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_compose_applies_right_first():
    p = parse_permutation("(0 1)", 3)
    q = parse_permutation("(1 2)", 3)
    assert compose(p, q).images == tuple(p(q(i)) for i in range(3))


@given(perms5, perms5)
def test_inverse_and_sign_multiplicative(p, q):
    assert compose(p, inverse(p)) == identity(5)
    assert sign(compose(p, q)) == sign(p) * sign(q)


@given(perms5, perms5)
def test_cycle_type_is_conjugation_invariant(p, q):
    assert cycle_type(compose(compose(q, p), inverse(q))) == cycle_type(p)


def test_cycle_type_examples():
    assert cycle_type(identity(4)) == Partition((1, 1, 1, 1))
    assert cycle_type(parse_permutation("(0 1)(2 3)", 4)) == Partition((2, 2))
    assert cycle_type(full_cycle(5)) == Partition((5,))


def test_sign_examples():
    assert sign(identity(4)) == 1
    assert sign(transposition(6, 2, 5)) == -1
    assert sign(full_cycle(5)) == 1


def test_partitions_order_and_count():
    ps = partitions(5)
    assert [p.parts for p in ps] == [
        (5,), (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)
    ]
    assert len(partitions(7)) == 15


def test_class_sizes():
    sizes = dict(enumerate_classes(5))
    assert sizes[Partition((5,))] == 24
    assert sizes[Partition((1, 1, 1, 1, 1))] == 1


def test_class_size_against_enumeration():
    # brute force count of each cycle type over all of S4
    from collections import Counter

    counts = Counter(cycle_type(p) for p in all_permutations(4))
    assert counts[Partition((2, 2))] == 3
    for mu, size in enumerate_classes(4):
        assert counts[mu] == size


@pytest.mark.parametrize("n", range(1, 8))
def test_class_sizes_sum_to_group_order(n):
    assert sum(size for _, size in enumerate_classes(n)) == factorial(n)


def test_class_representative_roundtrip():
    for n in (3, 5, 6):
        for mu in partitions(n):
            assert cycle_type(class_representative(mu)) == mu


def test_trivial_character_is_one():
    for n in range(1, 7):
        lam = Partition((n,))
        for mu in partitions(n):
            assert irreducible_character(lam, mu) == 1


def test_character_values_311():
    lam = Partition((3, 1, 1))
    assert irreducible_character(lam, Partition((1, 1, 1, 1, 1))) == 6
    assert irreducible_character(lam, Partition((5,))) == 1


@pytest.mark.parametrize("table,classes", [
    (S4_CHARACTER_TABLE, S4_CLASSES),
    (S5_CHARACTER_TABLE, S5_CLASSES),
])
def test_full_character_tables(table, classes):
    for lam_parts, values in table.items():
        lam = Partition(lam_parts)
        got = tuple(irreducible_character(lam, Partition(mu)) for mu in classes)
        assert got == values


def test_character_degree_mismatch():
    with pytest.raises(ValueError):
        irreducible_character(Partition((3,)), Partition((2, 2)))


def _hook_length_dimension(lam: Partition) -> int:
    # number of standard Young tableaux, by the hook length formula
    parts = lam.parts
    cols = [sum(1 for p in parts if p > j) for j in range(parts[0])]
    product = 1
    for i, row_len in enumerate(parts):
        for j in range(row_len):
            product *= (row_len - j) + (cols[j] - i) - 1
    return factorial(lam.n) // product


@pytest.mark.parametrize("n", range(1, 7))
def test_dimension_matches_hook_length_formula(n):
    for lam in partitions(n):
        assert specht_dimension(lam) == _hook_length_dimension(lam)


@pytest.mark.parametrize("n", range(2, 7))
def test_character_orthogonality(n):
    rows = {
        lam: [irreducible_character(lam, mu) for mu, _ in enumerate_classes(n)]
        for lam in partitions(n)
    }
    sizes = [size for _, size in enumerate_classes(n)]
    for lam, row1 in rows.items():
        for lam2, row2 in rows.items():
            inner = sum(s * a * b for s, a, b in zip(sizes, row1, row2))
            assert inner == (factorial(n) if lam == lam2 else 0)


def test_class_function_requires_all_classes():
    with pytest.raises(ValueError):
        ClassFunction(3, {Partition((3,)): Fraction(1)})


def test_partition_parsing():
    assert parse_partition("3+1+1") == Partition((3, 1, 1))
    assert parse_partition("5") == Partition((5,))
    assert parse_partition("1+3+1") == Partition((3, 1, 1))
    assert format_partition(Partition((2, 2))) == "2+2"
    with pytest.raises(ValueError):
        parse_partition("3+x")


def test_permutation_parsing():
    assert parse_permutation("(0 1 2)(3 4)", 5).images == (1, 2, 0, 4, 3)
    assert parse_permutation("ACB", 3).images == (0, 2, 1)
    assert parse_permutation("()", 4) == identity(4)
    assert parse_permutation("(1, 3)", 4) == transposition(4, 1, 3)
    with pytest.raises(ValueError):
        parse_permutation("(0 9)", 4)
    with pytest.raises(ValueError):
        parse_permutation("ACB", 4)


def test_cycle_string_roundtrip():
    p = parse_permutation("(0 2 4)(1 3)", 5)
    assert cycle_string(p) == "(0 2 4)(1 3)"
    assert cycle_string(identity(3)) == "()"


def test_one_partition():
    assert one_partition(4) == Partition((1, 1, 1, 1))
