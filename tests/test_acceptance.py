"""Acceptance suite: every shipped guarantee, one test and one printed line each.

All equalities are exact rational equality; no tolerances appear anywhere.
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines as they complete.
"""
import functools
import random
import time
from collections import Counter
from fractions import Fraction

import cyclevote._linalg as la
from cyclevote.analysis import (
    effective_basis,
    kernel_basis,
    profile,
    scaling_report,
    subspace_catalog,
    tally,
    act_on_profile,
    generic4_scalars_to_params,
)
from cyclevote.ballots import action_space, build_ballot_space
from cyclevote.cyclic_orders import (
    act_on_order,
    classify_pair,
    co_character,
    count_fixed_orders,
    enumerate_orders,
    parse_order,
    reverse_order,
    transposition_distance,
)
from cyclevote.representation import (
    decompose_character,
    is_equivariant_matrix,
    isotypic_projector,
    space_character,
)
from cyclevote.scoring import rule
from cyclevote.symmetric_group import (
    Partition,
    class_representative,
    generators,
    partitions,
)
from _goldens import (
    PARADOX_PROFILE,
    ROLO21_MATRIX,
    TIE_SPACE_PROFILE,
    TRAD_PROFILE,
)
from test_linalg import add, identity_matrix, is_zero, scale, transpose


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} ({name}): FAIL")
                raise
            print(f"criterion {number:2d} ({name}): PASS")

        return wrapper

    return decorate


def random_fraction(rnd, span=8):
    return Fraction(rnd.randint(-span, span), rnd.choice((1, 2, 3)))


CO4 = build_ballot_space("cyclic", 4, "paper")
CO5 = build_ballot_space("cyclic", 5, "paper")
ROLO4 = build_ballot_space("rolo", 4, "paper")
TRAD4 = build_ballot_space("trad", 4)


@criterion(1, "golden tallies")
def test_01_golden_tallies():
    p = profile(CO4, (2, 1, 0, 0, 0, 1))
    r = tally(rule("generic4", 2, 1, 0), p)
    assert r.scores == la.vec((5, 4, 0, 0, 1, 2))
    assert r.winners == {parse_order("(ACBD)")}
    r = tally(rule("generic4", 2, 0, 1), p)
    assert r.scores == la.vec((5, 3, 4, 4, 3, 5))
    assert r.winners == {parse_order("(ACBD)"), parse_order("(ACDB)")}


@criterion(2, "golden 24-ballot matrix")
def test_02_golden_matrix():
    m = rule("rolo21")
    assert tuple(tuple(int(x) for x in row) for row in m.entries) == ROLO21_MATRIX
    assert m.ballot_space is ROLO4 and m.outcome_space is CO4


@criterion(3, "paradox profile reproduction")
def test_03_paradox_profile():
    r = tally(rule("rolo21"), profile(ROLO4, PARADOX_PROFILE))
    assert r.winners == {parse_order("(ACBD)")}
    last = min(r.scores)
    tied_last = {CO4[i] for i, s in enumerate(r.scores) if s == last}
    assert tied_last == {parse_order(t) for t in ("(ABCD)", "(ADCB)", "(ABDC)", "(ACDB)")}
    ranked = sorted(r.scores)
    margin = ranked[-1] - ranked[-2]
    assert margin == 96 and 90 <= margin <= 100


@criterion(4, "tie space")
def test_04_tie_space():
    m = rule("rolo21")
    p3 = profile(ROLO4, (3, 3, 3, 3, -3, -3, -3, -3) + (0,) * 16)
    assert tally(m, p3).scores == la.vec((24, -24, 0, 0, 0, 0))
    assert la.mat_vec(m.entries, TIE_SPACE_PROFILE) == la.zeros(6)


@criterion(5, "fixed-order character oracle, n=3..7")
def test_05_character_oracle():
    start = time.monotonic()
    for n in range(3, 8):
        chi = co_character(n)
        for mu in partitions(n):
            assert chi(mu) == count_fixed_orders(class_representative(mu))
    assert time.monotonic() - start < 60


@criterion(6, "irreducible decompositions")
def test_06_decompositions():
    rep = decompose_character(space_character(action_space(CO4)))
    assert {m.parts: v for m, v in rep.multiplicities.items() if v} == {
        (4,): 1, (2, 2): 1, (2, 1, 1): 1,
    }
    assert rep.total_dim == 6
    rep = decompose_character(space_character(action_space(CO5)))
    assert {m.parts: v for m, v in rep.multiplicities.items() if v} == {
        (5,): 1, (3, 2): 1, (3, 1, 1): 2, (2, 2, 1): 1, (1, 1, 1, 1, 1): 1,
    }
    assert rep.total_dim == 24
    rep = decompose_character(space_character(action_space(ROLO4)))
    assert {m.parts: v for m, v in rep.multiplicities.items()} == {
        (4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1,
    }
    assert rep.total_dim == 24


@criterion(7, "isotypic projector suite")
def test_07_projector_suite():
    for space, catalog_id in ((CO4, "co4"), (ROLO4, "rolo4"), (CO5, "co5")):
        adapter = action_space(space)
        report = decompose_character(space_character(adapter))
        projectors = {lam: isotypic_projector(adapter, lam) for lam in partitions(space.n)}
        dim = len(space)
        acc = tuple((Fraction(0),) * dim for _ in range(dim))
        for lam, p in projectors.items():
            assert la.mat_mul(p, p) == p
            assert is_equivariant_matrix(adapter, p)
            expected_rank = report.multiplicities[lam] * report.dims[lam]
            assert la.rank(p) == expected_rank
            acc = tuple(
                tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(acc, p)
            )
        assert acc == identity_matrix(dim)
        for lam, p in projectors.items():
            for mu, q in projectors.items():
                if lam != mu:
                    prod = la.mat_mul(p, q)
                    assert all(x == 0 for row in prod for x in row)
        catalog = subspace_catalog(catalog_id)
        for entry in catalog.entries:
            for v in entry.vectors:
                assert la.mat_vec(projectors[entry.partition], v) == la.vec(v)
                for mu, q in projectors.items():
                    if mu != entry.partition:
                        assert la.mat_vec(q, v) == la.zeros(dim)


@criterion(8, "subspace scaling, 4 items, 100 random rules")
def test_08_scaling_n4():
    rnd = random.Random(48)
    catalog = subspace_catalog("co4")
    for _ in range(100):
        a, b, c = (random_fraction(rnd) for _ in range(3))
        rep = scaling_report(rule("generic4", a, b, c), catalog)
        t, u, v = rep.scalar("T"), rep.scalar("nonadj"), rep.scalar("rev")
        assert (t, u, v) == (a + b + 4 * c, a + b - 2 * c, a - b)
        assert generic4_scalars_to_params(t, u, v) == (a, b, c)


@criterion(9, "subspace scaling, 5 items, 100 random rules")
def test_09_scaling_n5():
    rnd = random.Random(59)
    catalog = subspace_catalog("co5")
    pairdiff = catalog.entry("pairdiff").vectors
    tags = [
        [classify_pair(CO5[2 * k], y).tag for y in CO5.ballots] for k in range(12)
    ]
    for _ in range(100):
        a, b, c, d, e, f, g, h = (random_fraction(rnd, 5) for _ in range(8))
        m = rule("generic5", a, b, c, d, e, f, g, h)
        rep = scaling_report(m, catalog, expand_images=False)
        assert rep.scalar("T") == a + b + 5 * c + 5 * d + 5 * e + 5 * f + g + h
        assert rep.scalar("sign") == a + b - 5 * c - 5 * d + 5 * e + 5 * f - g - h
        assert rep.scalar("y") == a + b - c - d - e - f + g + h
        assert rep.scalar("z") == a + b + c + d - e - f - g - h
        placement = {
            "Same": a - b, "Reversal": b - a,
            "Transposition": c - d, "TranspositionReversal": d - c,
            "ThreeCycle": e - f, "DoubleTransposition": f - e,
            "Step": h - g, "StepReversal": g - h,
        }
        for k in range(12):
            image = la.mat_vec(m.entries, pairdiff[k])
            assert image == tuple(placement[tag] for tag in tags[k])


@criterion(10, "regular 24-ballot family, 20 random rules")
def test_10_rolo_family():
    rnd = random.Random(10)
    catalog = subspace_catalog("rolo4")
    third_space = subspace_catalog("co4").entry("rev").vectors
    w1, w2, w3 = (catalog.entry(k).vectors for k in ("w1", "w2", "w3"))
    wspan = list(w1) + list(w2) + list(w3)
    for _ in range(20):
        a, b, c, d, e, f = (random_fraction(rnd, 5) for _ in range(6))
        m = rule("rolo_generic", a, b, c, d, e, f)
        mt = transpose(m.entries)
        eigenvalue = 4 * (a - b) ** 2 + 4 * (c - d) ** 2 + 4 * (f - e) ** 2
        combos = []
        for i, u in enumerate(third_space):
            combo = add(
                add(scale(a - b, w1[i]), scale(c - d, w2[i])),
                scale(f - e, w3[i]),
            )
            assert la.mat_vec(mt, u) == combo
            assert la.mat_vec(m.entries, la.mat_vec(mt, u)) == scale(eigenvalue, u)
            combos.append(combo)
        rows = effective_basis(m)
        claimed = la.rank(combos) if any(not is_zero(v) for v in combos) else 0
        overlap = la.rank(list(rows) + wspan) if rows else la.rank(wspan)
        intersection = (la.rank(rows) if rows else 0) + la.rank(wspan) - overlap
        assert intersection == claimed
    assert scaling_report(rule("rolo_x1", 2), catalog).quadratic["rev"] == 24
    m1 = rule("rolo_x1", 1)
    for v in catalog.entry("v").vectors:
        assert la.mat_vec(m1.entries, v) == la.zeros(6)


@criterion(11, "diagonal-adjacency ballots")
def test_11_trad():
    m = rule("trad21")
    r = tally(m, profile(TRAD4, TRAD_PROFILE))
    assert r.winners == {parse_order("(ABCD)")}
    catalog = subspace_catalog("trad4")
    w1, w2, w3 = (catalog.entry(k).vectors for k in ("w1", "w2", "w3"))
    wspan = list(w1) + list(w2) + list(w3)
    rows = effective_basis(m)
    sums = [add(w1[i], w2[i]) for i in range(3)]
    for v in sums:
        assert la.solve_in_span(rows, v) is not None
    assert la.rank(rows) + la.rank(wspan) - la.rank(list(rows) + wspan) == la.rank(sums)
    flipped = rule("rolo_x1", -1)
    for v in sums:
        assert la.mat_vec(flipped.entries, v) == la.zeros(6)


@criterion(12, "distance rule pair")
def test_12_distance_rule_pair():
    adj = rule("adjusted_distance5")
    d5 = rule("distance5", 4, 3, 2, 1, 0)
    catalog = subspace_catalog("co5")
    for label in ("T", "sign", "y", "z"):
        for v in catalog.entry(label).vectors:
            assert la.mat_vec(adj.entries, v) == la.zeros(24)
    for v in catalog.entry("pairdiff").vectors:
        assert la.mat_vec(adj.entries, v) == la.mat_vec(d5.entries, v)
    x = parse_order("(ABCDE)")
    assert d5.score(x, parse_order("(ABDCE)")) == 3
    assert d5.score(x, parse_order("(ABECD)")) == 2
    assert adj.score(x, parse_order("(ACEBD)")) == 0


@criterion(13, "distance class sizes")
def test_13_distance_classes():
    for x in enumerate_orders(5):
        counts = Counter(transposition_distance(x, y) for y in enumerate_orders(5))
        assert [counts[d] for d in range(5)] == [1, 5, 10, 7, 1]


@criterion(14, "neutrality of all named rules")
def test_14_neutrality():
    rnd = random.Random(14)
    rules = (
        rule("generic4", 2, 1, 0),
        rule("generic4", 2, 0, 1),
        rule("generic4", 1, -1, 0),
        rule("rolo21"),
        rule("rolo_x1", 3),
        rule("rolo_generic", 1, -2, 3, Fraction(1, 2), 0, 5),
        rule("trad21"),
        rule("generic5", 4, 0, 3, 1, 2, 2, 1, 1),
        rule("distance5", 2, 1, 0, -1, -2),
        rule("adjusted_distance5"),
    )
    for m in rules:
        space = m.ballot_space
        for _ in range(200):
            p = profile(space, tuple(rnd.randint(-3, 9) for _ in range(len(space))))
            base = tally(m, p).winners
            for sigma in generators(space.n):
                moved = tally(m, act_on_profile(sigma, p)).winners
                assert moved == {act_on_order(sigma, w) for w in base}
