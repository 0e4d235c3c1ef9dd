import random

import pytest

from cyclevote.ballots import (
    BallotSpace,
    RoloBallot,
    TradBallot,
    act_on_ballot,
    action_space,
    build_ballot_space,
    default_ordering,
    favorite_order,
    outcome_space,
    parse_ballot,
    trad_ballot,
)
from cyclevote.cyclic_orders import act_on_order, enumerate_orders, parse_order
from cyclevote.representation import ActionSpace
from cyclevote.scoring import rule
from cyclevote.symmetric_group import (
    Permutation,
    all_permutations,
    class_representative,
    generators,
    identity,
    parse_permutation,
    partitions,
)
from _goldens import CO4_ORDER, CO5_ORDER, ROLO4_ORDER, TRAD4_FIRST


# -- oracles: the searches the favourite-order and TRAD formulas replaced ------

def _brute_force_favorite(b):
    """The one 4-item order meeting every constraint of b, by search."""
    def consistent(x):
        seats = x.seq
        succ = {(seats[i], seats[(i + 1) % 4]) for i in range(4)}
        if isinstance(b, RoloBallot):
            # right of the centre means immediately before it in the cycle
            return (b.right, b.center) in succ and (b.center, b.left) in succ
        opposite = {(seats[i], seats[(i + 2) % 4]) for i in range(4)}
        return tuple(b.opposite) in opposite and b.adjacency in succ

    matches = [x for x in enumerate_orders(4) if consistent(x)]
    assert len(matches) == 1
    return matches[0]


def _mapping_permutation(src, dst):
    """The unique element of S_4 carrying one ROLO ballot to another."""
    images = [None] * 4
    for a, b in ((src.center, dst.center), (src.right, dst.right), (src.left, dst.left)):
        images[a] = b
    rest_src = ({0, 1, 2, 3} - {src.center, src.right, src.left}).pop()
    rest_dst = ({0, 1, 2, 3} - {dst.center, dst.right, dst.left}).pop()
    images[rest_src] = rest_dst
    return Permutation(tuple(images))


def _all_trad_ballots():
    return {
        trad_ballot(pair, (z, w))
        for pair in ((0, 1), (0, 2), (0, 3))
        for z in range(4) for w in range(4)
        if (z in pair) != (w in pair)
    }


def test_rolo_paper_table():
    space = build_ballot_space("rolo", 4, "paper")
    assert [str(b) for b in space.ballots] == list(ROLO4_ORDER)
    assert len(set(space.ballots)) == 24


def test_rolo_counts():
    assert len(build_ballot_space("rolo", 5)) == 60
    assert len(build_ballot_space("rolo", 4)) == 24
    with pytest.raises(ValueError):
        build_ballot_space("rolo", 3)
    with pytest.raises(ValueError):
        build_ballot_space("rolo", 5, "paper")


def test_trad_space():
    space = build_ballot_space("trad", 4)
    assert len(space) == 24
    assert [str(b) for b in space.ballots[:4]] == list(TRAD4_FIRST)
    with pytest.raises(ValueError):
        build_ballot_space("trad", 5)
    with pytest.raises(ValueError):
        build_ballot_space("trad", 4, "paper")


def test_trad_opposite_pair_normalisation():
    assert trad_ballot((0, 1), (3, 0)) == trad_ballot((2, 3), (3, 0))
    assert parse_ballot("AB-DA", "trad") == parse_ballot("CD-DA", "trad")
    with pytest.raises(ValueError):
        trad_ballot((0, 1), (0, 1))  # adjacency inside the opposite pair
    with pytest.raises(ValueError):
        trad_ballot((0, 0), (2, 3))


def test_ballot_parsing_roundtrip():
    rolo = parse_ballot("A|D,C", "rolo")
    assert rolo == RoloBallot(0, 3, 2)
    assert str(rolo) == "A|D,C"
    trad = parse_ballot("AB-DA", "trad")
    assert isinstance(trad, TradBallot)
    assert str(trad) == "AB-DA"
    assert parse_ballot("(ACBD)", "cyclic") == parse_order("(ACBD)")
    with pytest.raises(ValueError):
        parse_ballot("A|D", "rolo")
    with pytest.raises(ValueError):
        parse_ballot("ABDA", "trad")


def test_act_on_ballot_examples():
    b = parse_ballot("A|D,C", "rolo")
    assert act_on_ballot(identity(4), b) == b
    assert act_on_ballot(parse_permutation("(0 1)", 4), b) == parse_ballot("B|D,C", "rolo")
    t = parse_ballot("AB-DA", "trad")
    # relabelling by A<->C: pair {C,B} ~ {A,D}, adjacency D right of C
    assert act_on_ballot(parse_permutation("(0 2)", 4), t) == parse_ballot("AD-DC", "trad")


def test_rolo_action_is_free_and_transitive():
    space = build_ballot_space("rolo", 4, "paper")
    base = space[0]
    for b in space.ballots:
        movers = [p for p in all_permutations(4) if act_on_ballot(p, base) == b]
        assert len(movers) == 1  # simply transitive: exactly one mover per ballot
    stabiliser = [p for p in all_permutations(4) if act_on_ballot(p, base) == base]
    assert stabiliser == [identity(4)]


def _act_index_cases():
    for n in range(3, 8):
        yield "cyclic", n, "canonical"
    yield "cyclic", 4, "paper"
    yield "cyclic", 5, "paper"
    for n in range(4, 7):
        yield "rolo", n, "canonical"
    yield "rolo", 4, "paper"
    yield "trad", 4, "canonical"


@pytest.mark.parametrize("kind, n, ordering", list(_act_index_cases()))
def test_act_index_matches_act_on_ballot(kind, n, ordering):
    # the label-tuple path against the ballot-building oracle: every
    # generator and class representative, then all of S_n up to n=5 and 300
    # seeded permutations above
    space = build_ballot_space(kind, n, ordering)
    sigmas = list(generators(n)) + [class_representative(mu) for mu in partitions(n)]
    if n <= 5:
        sigmas += all_permutations(n)
    else:
        rnd = random.Random(f"act_index {kind} {n}")
        sigmas += [Permutation(tuple(rnd.sample(range(n), n))) for _ in range(300)]
    for sigma in sigmas:
        for i, b in enumerate(space.ballots):
            assert space.act_index(sigma, i) == space.index_of(act_on_ballot(sigma, b))
    for wrong in (n - 1, n + 1):
        with pytest.raises(ValueError, match="degree mismatch"):
            space.act_index(identity(wrong), 0)


def test_trad_action_matches_rolo_indexwise():
    rolo = build_ballot_space("rolo", 4, "paper")
    trad = build_ballot_space("trad", 4)
    for sigma in all_permutations(4):
        for i in range(24):
            assert rolo.act_index(sigma, i) == trad.act_index(sigma, i)


def test_favorite_order_examples():
    assert favorite_order(parse_ballot("A|D,C", "rolo")) == parse_order("(ACBD)")
    assert favorite_order(parse_ballot("AB-DA", "trad")) == parse_order("(ACBD)")
    x = parse_order("(ABCD)")
    assert favorite_order(x) is x
    with pytest.raises(ValueError):
        favorite_order(RoloBallot(0, 3, 2), n=5)


def test_favorite_order_formula_matches_the_search():
    rolo = build_ballot_space("rolo", 4, "canonical")
    assert set(rolo) == set(build_ballot_space("rolo", 4, "paper"))
    trad = _all_trad_ballots()
    assert len(rolo) == len(trad) == 24
    for b in (*rolo, *sorted(trad)):
        assert favorite_order(b) == _brute_force_favorite(b)


def test_trad_enumeration_matches_the_mapping_oracle():
    rolo = build_ballot_space("rolo", 4, "paper")
    base = trad_ballot((0, 1), (3, 0))  # AB-DA
    expected = tuple(act_on_ballot(_mapping_permutation(rolo[0], b), base) for b in rolo)
    assert build_ballot_space("trad", 4).ballots == expected
    assert set(expected) == _all_trad_ballots()


@pytest.mark.parametrize("ballot", [RoloBallot(4, 0, 1), RoloBallot(0, 1, 5), RoloBallot(0, 1, 4)])
def test_favorite_order_rejects_labels_outside_n4(ballot):
    with pytest.raises(ValueError, match="does not fit n=4"):
        favorite_order(ballot)


def test_trad_first_block_favors_first_order():
    space = build_ballot_space("trad", 4)
    for text in TRAD4_FIRST:
        assert favorite_order(space.parse(text)) == parse_order("(ACBD)")


def test_favorite_order_intertwines_action():
    space = build_ballot_space("rolo", 4, "paper")
    for sigma in all_permutations(4):
        for b in space.ballots:
            assert favorite_order(act_on_ballot(sigma, b)) == act_on_order(
                sigma, favorite_order(b)
            )


def test_rolo_blocks_follow_reference_orders():
    space = build_ballot_space("rolo", 4, "paper")
    for k, word in enumerate(CO4_ORDER):
        expected = parse_order(f"({word})")
        for b in space.ballots[4 * k: 4 * k + 4]:
            assert favorite_order(b) == expected


def test_ballot_space_identity_and_parse():
    space = build_ballot_space("rolo", 4, "paper")
    assert build_ballot_space("rolo", 4, "paper") is space  # cached
    assert space != BallotSpace("rolo", 4, "paper", space.ballots)  # identity, not the label
    assert space.index_of(space[5]) == 5
    with pytest.raises(ValueError):
        space.parse("A|E,C")
    cyclic = build_ballot_space("cyclic", 4, "paper")
    assert [cyclic.label(b)[1:-1] for b in cyclic.ballots] == list(CO4_ORDER)


def test_each_space_is_one_object():
    spellings = [
        (build_ballot_space("cyclic", 6), build_ballot_space("cyclic", 6, "canonical")),
        (build_ballot_space("cyclic", 5), build_ballot_space("cyclic", 5, "paper")),
        (build_ballot_space("rolo", 4, "paper"),
         build_ballot_space(kind="rolo", n=4, ordering="paper")),
    ]
    for space, other in spellings:
        assert space is other


def test_ballot_space_is_its_own_action():
    for kind, n in (("cyclic", 4), ("cyclic", 6), ("rolo", 4), ("rolo", 5), ("trad", 4)):
        space = build_ballot_space(kind, n)
        assert isinstance(space, ActionSpace)
        assert action_space(space) is space
        assert (space.dim, space.n, space.name) == (len(space), n, f"{kind}{n}")
        assert not hasattr(space, "action")


def test_ballot_space_index_of():
    paper5 = tuple(parse_order(w) for w in CO5_ORDER)
    for ordering, n, table in (("canonical", 6, enumerate_orders(6)), ("paper", 5, paper5)):
        space = build_ballot_space("cyclic", n, ordering)
        assert space.ballots == table
        assert [space.index_of(x) for x in space] == list(range(len(space)))
    with pytest.raises(ValueError):
        build_ballot_space("cyclic", 4).index_of(parse_order("(ABCDE)"))


def test_missing_orderings_raise_one_message():
    for kind, n in (("cyclic", 3), ("cyclic", 6), ("rolo", 5), ("trad", 4)):
        with pytest.raises(ValueError) as caught:
            build_ballot_space(kind, n, "paper")
        assert str(caught.value) == f"no 'paper' ordering for ({kind}, {n})"
    with pytest.raises(ValueError, match="^unknown ordering kind: 'sideways'$"):
        build_ballot_space("cyclic", 4, "sideways")


def test_default_ordering_is_paper_exactly_where_a_paper_space_builds():
    for kind in ("cyclic", "rolo", "trad"):
        for n in range(3, 8):
            try:
                build_ballot_space(kind, n, "paper")
            except ValueError as exc:
                assert str(exc) == f"no 'paper' ordering for ({kind}, {n})"
                assert default_ordering(kind, n) == "canonical"
            else:
                assert default_ordering(kind, n) == "paper"


def test_default_ordering():
    paper = {("cyclic", 4), ("cyclic", 5), ("rolo", 4)}
    for kind in ("cyclic", "rolo", "trad"):
        for n in range(3, 8):
            expected = "paper" if (kind, n) in paper else "canonical"
            assert default_ordering(kind, n) == expected
    assert outcome_space(5) is build_ballot_space("cyclic", 5, "paper")


def test_action_space_adapter():
    space = build_ballot_space("cyclic", 4, "paper")
    adapter = action_space(space)
    assert adapter.dim == 6 and adapter.n == 4
    table = space.ballots
    sigma = parse_permutation("(0 1)", 4)
    for i in range(6):
        assert table[adapter.act(sigma, i)] == act_on_order(sigma, table[i])


def test_unknown_kind_errors():
    with pytest.raises(ValueError):
        build_ballot_space("approval", 4)
    with pytest.raises(ValueError):
        parse_ballot("(ABCD)", "approval")


def trad_score(b, x):
    """How many of the TRAD ballot's two conditions the order x fulfils (0, 1 or 2)."""
    seats = x.seq
    opposite = {frozenset((seats[i], seats[(i + 2) % 4])) for i in range(4)}
    successors = {(seats[i], seats[(i + 1) % 4]) for i in range(4)}
    return (frozenset(b.opposite) in opposite) + (b.adjacency in successors)


def test_trad21_scores_conditions_met():
    m = rule("trad21")
    assert m.ballot_space == build_ballot_space("trad", 4)
    for h, row in zip(m.outcome_space, m.entries):
        assert row == tuple(trad_score(b, h) for b in m.ballot_space)
