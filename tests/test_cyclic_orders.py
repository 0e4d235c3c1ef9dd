import random
from collections import Counter, deque
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from cyclevote.ballots import build_ballot_space
from cyclevote.cyclic_orders import (
    _PAIR_NAMES_4,
    _PAIR_NAMES_5,
    _distance_matrix,
    _pair_representative,
    CyclicOrder,
    act_on_order,
    canonicalize,
    classify_pair,
    co_character,
    count_fixed_orders,
    enumerate_orders,
    format_order,
    parse_order,
    reverse_order,
    transposition_distance,
)
from cyclevote.symmetric_group import (
    Partition,
    Permutation,
    class_representative,
    compose,
    cycle_type,
    generators,
    identity,
    parse_permutation,
    partitions,
)
from cyclevote.scoring import orbit_count

perms5 = st.permutations(range(5)).map(lambda w: Permutation(tuple(w)))
orders5 = st.permutations(range(1, 5)).map(lambda w: CyclicOrder((0, *w)))


def test_canonicalize_rotations():
    assert canonicalize((1, 2, 0)).seq == (0, 1, 2)
    assert canonicalize((2, 0, 3, 1)).seq == (0, 3, 1, 2)
    assert parse_order("(ACBD)") == parse_order("(CBDA)")


def test_canonicalize_rejects_bad_labels():
    with pytest.raises(ValueError):
        canonicalize((1, 2, 3))
    with pytest.raises(ValueError):
        CyclicOrder((1, 0, 2))


def test_parse_and_format():
    x = parse_order("(ACBD)")
    assert x.seq == (0, 2, 1, 3)
    assert format_order(x) == "(ACBD)"
    assert parse_order("(0,2,1,3)") == x
    assert parse_order("0 2 1 3") == x
    with pytest.raises(ValueError):
        parse_order("(AA)")


def test_enumeration_counts_and_tables():
    assert [format_order(x) for x in enumerate_orders(3)] == ["(ABC)", "(ACB)"]
    for n in (3, 4, 5, 6):
        assert len(enumerate_orders(n)) == factorial(n - 1)


def test_enumerate_orders_is_the_canonical_cyclic_space():
    # the reference orderings live in ballots only
    for n in range(1, 8):
        assert enumerate_orders(n) == build_ballot_space("cyclic", n, "canonical").ballots
        assert list(enumerate_orders(n)) == sorted(enumerate_orders(n))
    with pytest.raises(TypeError):
        enumerate_orders(4, "paper")


def test_paper_tables_pair_reversals():
    for table in (build_ballot_space("cyclic", n, "paper").ballots for n in (4, 5)):
        for k in range(len(table) // 2):
            assert reverse_order(table[2 * k]) == table[2 * k + 1]


def test_action_examples():
    # relabelling the 4-seat cycle by the swap of the 1st and 3rd items
    assert act_on_order(parse_permutation("(0 2)", 4), parse_order("(ABCD)")) == parse_order("(ADCB)")
    assert act_on_order(parse_permutation("(0 1)", 4), parse_order("(ABCD)")) == parse_order("(ACDB)")
    x = parse_order("(ACBD)")
    assert act_on_order(identity(4), x) == x
    with pytest.raises(ValueError):
        act_on_order(identity(5), x)


def test_action_is_left_action_exhaustive_n4():
    from cyclevote.symmetric_group import all_permutations

    table = enumerate_orders(4)
    for p in all_permutations(4):
        for q in all_permutations(4):
            pq = compose(p, q)
            for x in table:
                assert act_on_order(pq, x) == act_on_order(p, act_on_order(q, x))


@given(perms5, perms5, orders5)
def test_action_is_left_action_random_n5(p, q, x):
    assert act_on_order(compose(p, q), x) == act_on_order(p, act_on_order(q, x))


def test_action_is_left_action_sampled_n6():
    import random

    rnd = random.Random(6)
    for _ in range(200):
        p = Permutation(tuple(rnd.sample(range(6), 6)))
        q = Permutation(tuple(rnd.sample(range(6), 6)))
        x = canonicalize([0] + rnd.sample(range(1, 6), 5))
        assert act_on_order(compose(p, q), x) == act_on_order(p, act_on_order(q, x))


def test_reverse_examples():
    assert reverse_order(parse_order("(ABCDE)")) == parse_order("(AEDCB)")
    assert reverse_order(parse_order("(ACBD)")) == parse_order("(ADBC)")
    assert reverse_order(parse_order("(ABC)")) == parse_order("(ACB)")


@given(orders5)
def test_reverse_is_involution(x):
    assert reverse_order(reverse_order(x)) == x


def test_reverse_commutes_with_action_exhaustive():
    from cyclevote.symmetric_group import all_permutations

    for n in (3, 4, 5):
        for p in all_permutations(n):
            for x in enumerate_orders(n):
                assert reverse_order(act_on_order(p, x)) == act_on_order(p, reverse_order(x))


def test_count_fixed_orders_examples():
    assert count_fixed_orders(identity(4)) == 6
    assert count_fixed_orders(parse_permutation("(0 1)(2 3)", 4)) == 2
    assert count_fixed_orders(parse_permutation("(0 1)", 5)) == 0


def test_co_character_closed_form_values():
    chi5 = co_character(5)
    assert chi5(Partition((1, 1, 1, 1, 1))) == 24
    assert chi5(Partition((5,))) == 4
    assert chi5(Partition((3, 2))) == 0
    chi4 = co_character(4)
    assert chi4(Partition((1, 1, 1, 1))) == 6
    assert chi4(Partition((2, 2))) == 2
    assert chi4(Partition((4,))) == 2
    assert chi4(Partition((2, 1, 1))) == 0
    assert co_character(6)(Partition((2, 2, 2))) == 8
    with pytest.raises(ValueError):
        co_character(2)


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_co_character_matches_brute_force(n):
    chi = co_character(n)
    for mu in partitions(n):
        assert chi(mu) == count_fixed_orders(class_representative(mu))


def test_distance_examples():
    x = parse_order("(ABCDE)")
    assert transposition_distance(x, x) == 0
    assert transposition_distance(x, parse_order("(AEDCB)")) == 4
    assert transposition_distance(x, parse_order("(ABECD)")) == 2
    assert transposition_distance(x, parse_order("(ABDCE)")) == 1
    with pytest.raises(ValueError):
        transposition_distance(x, parse_order("(ABC)"))


def test_distance_class_sizes_n5():
    table = enumerate_orders(5)
    for x in table:
        counts = Counter(transposition_distance(x, y) for y in table)
        assert [counts[d] for d in range(5)] == [1, 5, 10, 7, 1]


@given(orders5, orders5, orders5)
@settings(max_examples=50)
def test_distance_is_a_metric(x, y, z):
    assert transposition_distance(x, y) == transposition_distance(y, x)
    assert (transposition_distance(x, y) == 0) == (x == y)
    assert transposition_distance(x, z) <= (
        transposition_distance(x, y) + transposition_distance(y, z)
    )


@given(perms5, orders5, orders5)
@settings(max_examples=50)
def test_distance_is_relabelling_invariant(p, x, y):
    assert transposition_distance(act_on_order(p, x), act_on_order(p, y)) == (
        transposition_distance(x, y)
    )


def test_classify_examples():
    x = parse_order("(ABCDE)")
    assert classify_pair(x, parse_order("(ACEBD)")).tag == "Step"
    assert classify_pair(x, parse_order("(AEDCB)")).tag == "Reversal"
    assert classify_pair(x, x).tag == "Same"
    assert [pair_orbit_count(n) for n in (3, 4, 5, 6, 7)] == [2, 3, 8, 24, 108]
    with pytest.raises(ValueError):
        classify_pair(x, parse_order("(ABC)"))


def test_classify_tags_partition_n5():
    x = parse_order("(ABCDE)")
    table = enumerate_orders(5)
    counts = Counter(classify_pair(x, y).tag for y in table)
    assert counts == {
        "Same": 1,
        "Reversal": 1,
        "Transposition": 5,
        "TranspositionReversal": 5,
        "ThreeCycle": 5,
        "DoubleTransposition": 5,
        "Step": 1,
        "StepReversal": 1,
    }


def test_distance_splits_by_orbit_n5():
    x = parse_order("(ABCDE)")
    by_distance = {
        0: {"Same"},
        1: {"Transposition"},
        2: {"ThreeCycle", "DoubleTransposition"},
        3: {"TranspositionReversal", "Step", "StepReversal"},
        4: {"Reversal"},
    }
    for y in enumerate_orders(5):
        tag = classify_pair(x, y).tag
        assert tag in by_distance[transposition_distance(x, y)]


@given(perms5, orders5, orders5)
@settings(max_examples=30)
def test_classify_is_diagonal_invariant(p, x, y):
    assert classify_pair(act_on_order(p, x), act_on_order(p, y)).tag == classify_pair(x, y).tag


def test_classify_tags_n4():
    x = parse_order("(ACBD)")
    assert classify_pair(x, x).tag == "Same"
    assert classify_pair(x, parse_order("(ADBC)")).tag == "Reversal"
    assert classify_pair(x, parse_order("(ABCD)")).tag == "Other"


def test_classify_unnamed_degree_uses_representative():
    x = parse_order("(ABCDEF)")
    tag = classify_pair(x, x).tag
    assert tag.startswith("(") and "~" in tag


# -- brute-force oracles: the all-pairs BFS and the orbit BFS over joint relabellings

def _swap_neighbours(x):
    """Relabel x by the transposition of the labels at each pair of adjacent seats."""
    out = []
    for i in range(x.n):
        a, b = x.seq[i], x.seq[(i + 1) % x.n]
        images = list(range(x.n))
        images[a], images[b] = b, a
        out.append(act_on_order(Permutation(tuple(images)), x))
    return out


def _brute_distance_matrix(n):
    """All-pairs transposition distance on the canonical table, one BFS per source."""
    table = enumerate_orders(n)
    index = {x: i for i, x in enumerate(table)}
    neighbours = [[index[y] for y in _swap_neighbours(x)] for x in table]
    rows = []
    for src in range(len(table)):
        dist = [-1] * len(table)
        dist[src] = 0
        queue = deque([src])
        while queue:
            i = queue.popleft()
            for j in neighbours[i]:
                if dist[j] < 0:
                    dist[j] = dist[i] + 1
                    queue.append(j)
        rows.append(tuple(dist))
    return tuple(rows)


def pair_orbit_count(n):
    """Diagonal orbits on ordered pairs of cyclic orders, by least rotation.

    Each orbit meets the pairs starting with the base order, and two of those
    share an orbit exactly when a rotation of the labels carries one second
    entry to the other (see cyclic_orders._pair_representative).
    """
    table = enumerate_orders(n)
    return len({_pair_representative(table[0], y) for y in table})


def _brute_orbit(x, y):
    """Every pair in the orbit of (x, y) under joint relabelling, by BFS over generators."""
    gens = generators(x.n)
    seen = {(x, y)}
    queue = deque([(x, y)])
    while queue:
        a, b = queue.popleft()
        for g in gens:
            nxt = (act_on_order(g, a), act_on_order(g, b))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _seeded_pairs(n, count, seed):
    rnd = random.Random(seed)
    table = enumerate_orders(n)
    return [(rnd.choice(table), rnd.choice(table)) for _ in range(count)]


@pytest.mark.parametrize("n", (3, 4, 5))
def test_distance_matches_all_pairs_bfs(n):
    table = enumerate_orders(n)
    matrix = _brute_distance_matrix(n)
    for i, x in enumerate(table):
        assert tuple(transposition_distance(x, y) for y in table) == matrix[i]


@pytest.mark.parametrize("n", (6, 7))
def test_distance_matches_all_pairs_bfs_sampled(n):
    index = {x: i for i, x in enumerate(enumerate_orders(n))}
    matrix = _brute_distance_matrix(n)
    for x, y in _seeded_pairs(n, 300, n):
        assert transposition_distance(x, y) == matrix[index[x]][index[y]]


@pytest.mark.parametrize("n", (6, 7))
def test_distance_table_matches_all_pairs_bfs(n):
    # every entry of the table, where the pair test above samples; the base
    # order (A B ... N) is the first canonical order
    base_row = _brute_distance_matrix(n)[0]
    assert _distance_matrix(n) == {x.seq: d for x, d in zip(enumerate_orders(n), base_row)}


def _assert_matches_orbit_bfs(x, y):
    orbit = _brute_orbit(x, y)
    cls = classify_pair(x, y)
    assert cls.representative == min(orbit)
    if x.n in (4, 5):
        # a named orbit is the one holding its anchor pair
        base, anchors = (("ABCDE", _PAIR_NAMES_5) if x.n == 5 else ("ACBD", _PAIR_NAMES_4))
        named = [tag for tag, second in anchors
                 if (parse_order(base), parse_order(second)) in orbit]
        assert [cls.tag] == named
    else:
        assert cls.tag == f"{cls.representative[0]}~{cls.representative[1]}"


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_classify_matches_orbit_bfs(n):
    table = enumerate_orders(n)
    for x in table:
        for y in table:
            _assert_matches_orbit_bfs(x, y)


def test_classify_matches_orbit_bfs_sampled_n6():
    for x, y in _seeded_pairs(6, 40, 6):
        _assert_matches_orbit_bfs(x, y)


@pytest.mark.parametrize("n", (3, 4, 5))
def test_pair_orbit_count_matches_orbit_bfs(n):
    table = enumerate_orders(n)
    seen, count = set(), 0
    for x in table:
        for y in table:
            if (x, y) not in seen:
                seen |= _brute_orbit(x, y)
                count += 1
    assert pair_orbit_count(n) == count


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_pair_orbit_count_matches_scoring_orbits(n):
    space = build_ballot_space("cyclic", n, "canonical")
    assert pair_orbit_count(n) == orbit_count(space)

