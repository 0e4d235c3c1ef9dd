from fractions import Fraction

import pytest

import cyclevote.scoring as scoring
from cyclevote.analysis import profile, tally
from cyclevote.ballots import BallotSpace, act_on_ballot, build_ballot_space, outcome_space
from cyclevote.cyclic_orders import (
    classify_pair,
    parse_order,
    reverse_order,
    transposition_distance,
)
from cyclevote.scoring import (
    SeedConflictError,
    build_neutral_matrix,
    format_rational,
    named_rule,
    orbit_count,
    parse_params,
    parse_seed_file,
    rule,
)
from cyclevote.symmetric_group import all_permutations
from _goldens import (
    EX_RULE_201,
    EX_RULE_210,
    EX_RULE_REVERSAL_CONTRAST,
    GENERIC4_LETTERS,
    GENERIC5_LETTERS,
    ROLO21_MATRIX,
    ROLO_GENERIC_LETTERS,
)

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def as_ints(matrix):
    return tuple(tuple(int(x) for x in row) for row in matrix)


def letters_match(matrix, letter_rows, arity):
    lookup = dict(zip("abcdefgh"[:arity], PRIMES[:arity]))
    return all(
        matrix.entries[i][j] == lookup[letter_rows[i][j]]
        for i in range(len(letter_rows))
        for j in range(len(letter_rows[0]))
    )


def test_rolo21_reproduces_reference_matrix():
    assert as_ints(rule("rolo21").entries) == ROLO21_MATRIX


def test_generic4_letter_pattern():
    assert letters_match(rule("generic4", 2, 3, 5), GENERIC4_LETTERS, 3)


def test_rolo_generic_letter_pattern():
    assert letters_match(rule("rolo_generic", *PRIMES[:6]), ROLO_GENERIC_LETTERS, 6)


def test_generic5_letter_pattern():
    assert letters_match(rule("generic5", *PRIMES), GENERIC5_LETTERS, 8)


def test_worked_examples():
    assert as_ints(rule("generic4", 2, 1, 0).entries) == EX_RULE_210
    assert as_ints(rule("generic4", 2, 0, 1).entries) == EX_RULE_201
    assert as_ints(rule("generic4", 1, -1, 0).entries) == EX_RULE_REVERSAL_CONTRAST


def test_trad21_matches_rolo_pattern():
    assert rule("trad21").entries == rule("rolo_generic", 2, 1, 1, 0, 0, 0).entries


def test_rolo_x1_specialisations():
    assert rule("rolo_x1", 2).entries == rule("rolo21").entries
    assert rule("rolo_x1", 3).entries == rule("rolo_generic", 3, 0, 1, 0, 0, 1).entries


def test_distance_rule_equals_orbit_parameters():
    assert rule("distance5", 4, 3, 2, 1, 0).entries == rule(
        "generic5", 4, 0, 3, 1, 2, 2, 1, 1
    ).entries


def test_adjusted_rule_equals_orbit_parameters():
    assert rule("adjusted_distance5").entries == rule(
        "generic5", 2, -2, 1, -1, 0, 0, 0, 0
    ).entries


def _dense_distance_rule(weights, zero_steps=False):
    """Every cell scored directly: one distance (and pair class) per cell."""
    space = build_ballot_space("cyclic", 5, "paper")
    return tuple(
        tuple(
            Fraction(0) if zero_steps and classify_pair(h, g).tag in ("Step", "StepReversal")
            else Fraction(weights[transposition_distance(g, h)])
            for g in space
        )
        for h in space
    )


@pytest.mark.parametrize("weights", [(4, 3, 2, 1, 0), (0, 1, 2, 3, 4), (1, 1, 1, 1, 1),
                                     (Fraction(1, 2), -7, 0, 3, Fraction(-5, 3))])
def test_distance_rule_matches_cellwise_oracle(weights):
    assert rule("distance5", *weights).entries == _dense_distance_rule(weights)


def test_adjusted_distance_rule_matches_cellwise_oracle():
    assert rule("adjusted_distance5").entries == _dense_distance_rule((2, 1, 0, -1, -2), True)


def test_distance_rules_score_only_the_base_row(monkeypatch):
    calls = []

    def counted(g, h):
        calls.append(h)
        return transposition_distance(g, h)

    monkeypatch.setattr(scoring, "transposition_distance", counted)
    rule("distance5", 4, 3, 2, 1, 0)
    base = build_ballot_space("cyclic", 5, "paper")[0]
    assert len(calls) == 8 and set(calls) == {base}


def test_reference_scores():
    d5 = rule("distance5", 4, 3, 2, 1, 0)
    x = parse_order("(ABCDE)")
    assert d5.score(x, parse_order("(ABDCE)")) == 3
    assert d5.score(x, parse_order("(AEDCB)")) == 0
    assert d5.score(x, parse_order("(ABECD)")) == 2
    adj = rule("adjusted_distance5")
    assert adj.score(x, parse_order("(ACEBD)")) == 0
    assert adj.score(x, x) == 2
    assert adj.score(x, parse_order("(AEDCB)")) == -2


def test_named_rules_are_neutral():
    for m in (
        rule("generic4", 2, 1, 0),
        rule("generic4", Fraction(1, 2), -1, 3),
        rule("rolo21"),
        rule("trad21"),
        rule("rolo_generic", 1, 2, 3, 4, 5, 6),
        rule("generic5", *PRIMES),
        rule("distance5", 4, 3, 2, 1, 0),
        rule("adjusted_distance5"),
    ):
        assert m.is_neutral()


def test_orbit_counts():
    assert orbit_count(build_ballot_space("cyclic", 4, "paper")) == 3
    assert orbit_count(build_ballot_space("rolo", 4, "paper")) == 6
    assert orbit_count(build_ballot_space("cyclic", 5, "paper")) == 8


def _brute_force_pair_orbits(space):
    """Each diagonal orbit {(sigma h, sigma g) : sigma in S_n} relabelled through
    act_on_ballot, numbered by its least flat cell h * len(space) + g."""
    outcomes, n_bal = outcome_space(space.n), len(space)
    sigmas = list(all_permutations(space.n))
    ids, count = [-1] * (len(outcomes) * n_bal), 0
    for start in range(len(ids)):  # the first unnumbered cell is the least of its orbit
        if ids[start] >= 0:
            continue
        h, g = divmod(start, n_bal)
        for sigma in sigmas:
            cell = (outcomes.index_of(act_on_ballot(sigma, outcomes[h])) * n_bal
                    + space.index_of(act_on_ballot(sigma, space[g])))
            assert ids[cell] in (-1, count)
            ids[cell] = count
        count += 1
    return tuple(ids), count


@pytest.mark.parametrize("kind,n,ordering", [
    ("cyclic", 3, "canonical"), ("cyclic", 4, "paper"), ("cyclic", 4, "canonical"),
    ("cyclic", 5, "paper"), ("rolo", 4, "paper"), ("rolo", 4, "canonical"),
    ("rolo", 5, "canonical"), ("trad", 4, "canonical"),
])
def test_pair_orbit_ids_match_brute_force_orbits(kind, n, ordering):
    space = build_ballot_space(kind, n, ordering)
    assert scoring._pair_orbits(space) == _brute_force_pair_orbits(space)


def test_build_from_seeds_reproduces_examples():
    co4 = build_ballot_space("cyclic", 4, "paper")
    g = parse_order("(ACBD)")
    m = build_neutral_matrix(co4, [(g, g, Fraction(2)), (g, reverse_order(g), Fraction(1))])
    assert as_ints(m.entries) == EX_RULE_210

    rolo = build_ballot_space("rolo", 4, "paper")
    b = rolo.parse("A|D,C")
    seeds = [
        (b, parse_order("(ACBD)"), Fraction(2)),
        (b, parse_order("(ACDB)"), Fraction(1)),
        (b, parse_order("(ABCD)"), Fraction(1)),
    ]
    assert as_ints(build_neutral_matrix(rolo, seeds).entries) == ROLO21_MATRIX


def test_empty_seeds_give_zero_matrix():
    co4 = build_ballot_space("cyclic", 4, "paper")
    m = build_neutral_matrix(co4, [])
    assert all(x == 0 for row in m.entries for x in row)


def test_seed_conflict_and_duplicate():
    co4 = build_ballot_space("cyclic", 4, "paper")
    g = parse_order("(ACBD)")
    h = parse_order("(ABCD)")  # same orbit as (g, ACDB): both "everything else"
    with pytest.raises(SeedConflictError):
        build_neutral_matrix(co4, [(g, h, Fraction(1)), (g, parse_order("(ACDB)"), Fraction(2))])
    with pytest.warns(UserWarning):
        build_neutral_matrix(co4, [(g, h, Fraction(1)), (g, parse_order("(ACDB)"), Fraction(1))])


def test_named_rule_arity_and_family_checks():
    with pytest.raises(ValueError):
        named_rule("generic4", (1, 2))
    with pytest.raises(ValueError):
        named_rule("plurality", ())


def test_rule_names():
    assert rule("generic4", 2, 1, 0).rule_name == "generic4(2,1,0)"
    assert rule("rolo21").rule_name == "rolo21"


def test_csv_export():
    text = rule("generic4", 2, 1, 0).to_csv()
    lines = text.splitlines()
    assert lines[0] == ",(ACBD),(ADBC),(ABCD),(ADCB),(ABDC),(ACDB)"
    assert lines[1] == "(ACBD),2,1,0,0,0,0"
    # ROLO labels contain commas and must be quoted
    rolo_csv = rule("rolo21").to_csv().splitlines()
    assert rolo_csv[0].startswith(',"A|D,C","B|C,D"')


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"


def test_parse_params():
    assert parse_params("2,1,0") == (Fraction(2), Fraction(1), Fraction(0))
    assert parse_params(" 1/2, -3 ") == (Fraction(1, 2), Fraction(-3))
    assert parse_params("") == ()
    with pytest.raises(ValueError):
        parse_params("1,x")


def test_parse_seed_file():
    rolo = build_ballot_space("rolo", 4, "paper")
    text = "# comment\nA|D,C (ACBD) 2\nA|D,C (ACDB) 1\nA|D,C (ABCD) 1\n"
    seeds = parse_seed_file(text, rolo)
    assert as_ints(build_neutral_matrix(rolo, seeds).entries) == ROLO21_MATRIX
    with pytest.raises(ValueError):
        parse_seed_file("A|D,C (ACBD)", rolo)
    with pytest.raises(ValueError):
        parse_seed_file("A|D,C (ACBD) x", rolo)


def test_score_lookup_matches_entries():
    m = rule("rolo21")
    b = m.ballot_space.parse("C|B,A")
    h = parse_order("(ADBC)")
    g = m.ballot_space.index_of(b)
    assert m.score(b, h) == m.entries[m.outcome_space.index_of(h)][g]
    assert m.column(b) == tuple(row[g] for row in m.entries)


def _swapped_co4():
    """The real paper co4 space, its orbit table warm, and a hand-built space
    with the same (kind, n, ordering) label but its first and third ballots swapped."""
    real = build_ballot_space("cyclic", 4, "paper")
    assert orbit_count(real) == 3  # warms the pair-orbit cache on the real space
    ballots = list(real.ballots)
    ballots[0], ballots[2] = ballots[2], ballots[0]
    return real, BallotSpace("cyclic", 4, "paper", tuple(ballots))


def test_a_relabelled_space_with_the_real_label_is_another_space():
    real, fake = _swapped_co4()
    assert fake != real and repr(fake) == repr(real)


def test_orbits_of_a_relabelled_space_come_from_its_own_enumeration():
    _, fake = _swapped_co4()
    g = parse_order("(ACBD)")
    seeds = [(g, g, Fraction(3)), (reverse_order(g), g, Fraction(1)),
             (parse_order("(ABCD)"), g, Fraction(-1))]
    m = build_neutral_matrix(fake, seeds)
    assert m.is_neutral()
    assert m.score(g, g) == 3 and m.score(parse_order("(ABCD)"), g) == -1


def test_tally_rejects_a_profile_in_a_relabelled_space():
    _, fake = _swapped_co4()
    with pytest.raises(ValueError, match="another object"):
        tally(rule("generic4", 3, 1, -1), profile(fake, range(len(fake))))
