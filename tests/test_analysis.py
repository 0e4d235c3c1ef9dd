import random
from fractions import Fraction
from math import lcm
from operator import mul

import pytest

import cyclevote._linalg as la
import cyclevote.analysis as analysis
from cyclevote.analysis import (
    CatalogEntry,
    DecomposedComponent,
    EntryScaling,
    MaskingInfeasibleError,
    Profile,
    ScalingReport,
    SubspaceCatalog,
    TallyResult,
    _common_scalar,
    act_on_profile,
    catalog_for_space,
    decompose_profile,
    effective_basis,
    format_profile,
    generic4_scalars_to_params,
    kernel_basis,
    masking_profile,
    parse_profile,
    profile,
    scaling_report,
    subspace_catalog,
    tally,
)
from cyclevote.ballots import RoloBallot, TradBallot, build_ballot_space, favorite_order
from cyclevote.cyclic_orders import CyclicOrder, PairClass, parse_order, reverse_order
from cyclevote.representation import ActionSpace, DecompositionReport
from cyclevote.scoring import FAMILY_ARITY, ScoringMatrix, build_neutral_matrix, rule
from cyclevote.symmetric_group import ClassFunction, Partition, Permutation, parse_permutation
from test_linalg import (
    _bareiss_nullspace, _dot_mat_vec, _fraction_rref, _project_onto_span, add, dot, is_zero,
    scale, sub, transpose,
)
from _goldens import (
    PARADOX_PROFILE,
    PARADOX_SCORES,
    TIE_SPACE_PROFILE,
    TRAD_PROFILE,
    TRAD_SCORES,
)

CO4 = build_ballot_space("cyclic", 4, "paper")


def frac_profile(space, weights):
    return profile(space, weights)


def test_profile_validation_and_lookup():
    p = frac_profile(CO4, (2, 1, 0, 0, 0, 1))
    assert p[parse_order("(ACBD)")] == 2
    assert p.total() == 4
    with pytest.raises(ValueError):
        Profile(CO4, (Fraction(1),) * 5)


def test_profile_relabelling():
    # relabelling A<->B sends (2,1,1,0,0,0) to (1,2,0,0,0,1)
    p = frac_profile(CO4, (2, 1, 1, 0, 0, 0))
    q = act_on_profile(parse_permutation("(0 1)", 4), p)
    assert tuple(int(w) for w in q.weights) == (1, 2, 0, 0, 0, 1)


def test_tally_examples():
    p = frac_profile(CO4, (2, 1, 0, 0, 0, 1))
    r = tally(rule("generic4", 2, 1, 0), p)
    assert tuple(int(s) for s in r.scores) == (5, 4, 0, 0, 1, 2)
    assert r.winners == {parse_order("(ACBD)")}

    r2 = tally(rule("generic4", 2, 0, 1), p)
    assert tuple(int(s) for s in r2.scores) == (5, 3, 4, 4, 3, 5)
    assert r2.winners == {parse_order("(ACBD)"), parse_order("(ACDB)")}


def test_tally_zero_profile_ties_everything():
    m = rule("generic4", 2, 1, 0)
    r = tally(m, frac_profile(CO4, (0,) * 6))
    assert r.winners == frozenset(CO4.ballots)


def test_tally_ties_across_rows_of_different_denominators():
    # each of rows 0-3 and 5 scores 2/3 on p = e_0 + e_1 over a different
    # denominator; row 4 falls short by 10^-12
    third, tiny = Fraction(1, 3), Fraction(1, 10**12)
    rows = [
        (third, third), (Fraction(1, 6), Fraction(1, 2)), (Fraction(2, 9), Fraction(4, 9)),
        (Fraction(1, 4), Fraction(5, 12)), (2 * third - tiny, Fraction(0)),
        (Fraction(7, 15), Fraction(1, 5)),
    ]
    entries = tuple(la.vec(row + (Fraction(k + 1, 7 + k),) + (0,) * 3)
                    for k, row in enumerate(rows))
    m = ScoringMatrix("hand", CO4, CO4, entries)
    for weights in [(1, 1, 0, 0, 0, 0), (-3, -3, 0, 0, 0, 0), (Fraction(5, 11),) * 2 + (0,) * 4]:
        p = frac_profile(CO4, weights)
        r = tally(m, p)
        scores = tuple(dot(row, p.weights) for row in entries)
        top = max(scores)
        assert r.scores == scores
        assert r.winners == {CO4.ballots[i] for i, s in enumerate(scores) if s == top}
    assert r.winners == {CO4.ballots[i] for i in (0, 1, 2, 3, 5)}
    # a weight on column 2 breaks the tie: row k gains (k+1)/(7+k), largest for row 5
    r = tally(m, frac_profile(CO4, (1, 1, 1, 0, 0, 0)))
    assert r.winners == {CO4.ballots[5]}


def test_tally_space_mismatch():
    m = rule("rolo21")
    with pytest.raises(ValueError):
        tally(m, frac_profile(CO4, (0,) * 6))


def test_paradox_profile_golden():
    m = rule("rolo21")
    r = tally(m, frac_profile(m.ballot_space, PARADOX_PROFILE))
    assert tuple(int(s) for s in r.scores) == PARADOX_SCORES
    assert r.winners == {parse_order("(ACBD)")}
    ranked = sorted(r.scores)
    assert ranked[-1] - ranked[-2] == 96  # "nearly one hundred" winning margin
    last = min(r.scores)
    tied_last = {
        m.outcome_space[i] for i, s in enumerate(r.scores) if s == last
    }
    assert tied_last == {parse_order(t) for t in ("(ABCD)", "(ADCB)", "(ABDC)", "(ACDB)")}


def test_block_differential_and_tie_space():
    m = rule("rolo21")
    p3 = frac_profile(m.ballot_space, (3, 3, 3, 3, -3, -3, -3, -3) + (0,) * 16)
    r = tally(m, p3)
    assert tuple(int(s) for s in r.scores) == (24, -24, 0, 0, 0, 0)
    assert la.mat_vec(m.entries, TIE_SPACE_PROFILE) == la.zeros(6)


def test_trad_profile_golden():
    m = rule("trad21")
    r = tally(m, frac_profile(m.ballot_space, TRAD_PROFILE))
    assert tuple(int(s) for s in r.scores) == TRAD_SCORES
    assert r.winners == {parse_order("(ABCD)")}


def test_kernel_basis_properties():
    zero = rule("generic4", 0, 0, 0)
    assert len(kernel_basis(zero)) == 6
    m = rule("rolo21")
    basis = kernel_basis(m)
    assert len(basis) == 18
    for v in basis:
        assert la.mat_vec(m.entries, v) == la.zeros(6)


@pytest.mark.parametrize("family,params", [
    ("generic4", (2, 1, 0)), ("rolo21", ()), ("trad21", ()), ("rolo_x1", (3,)),
    ("generic5", (4, 0, 3, 1, 2, 2, 1, 1)), ("distance5", (4, 3, 2, 1, 0)),
    ("adjusted_distance5", ()),
])
def test_rule_matrix_is_eliminated_once(monkeypatch, family, params):
    real = la._eliminate
    eliminated = []

    def recording(m, pivot_cols):
        eliminated.append([list(row) for row in m])
        return real(m, pivot_cols)

    monkeypatch.setattr(la, "_eliminate", recording)
    m = rule(family, *params)
    target, decoy = ("(ACBD)", "(ABCD)") if m.outcome_space.n == 4 else ("(ABCDE)", "(ABCED)")
    kernel, effective = kernel_basis(m), effective_basis(m)
    if kernel:
        try:
            masking_profile(m, parse_order(target), {parse_order(decoy)})
        except MaskingInfeasibleError:
            pass
    rule_rows = [la._scaled_ints(row)[0] for row in m.entries]
    assert eliminated.count(rule_rows) == 1
    if not kernel:  # no masking, so no normal equations either
        assert len(eliminated) == 1
    assert kernel == _bareiss_nullspace(m.entries)
    assert effective == _fraction_rref(m.entries)[0]


def _sweep_params(family, seed):
    """Half-integer parameters like the benchmark sweep's, or small ones that hit zeros."""
    rng = random.Random(f"scaling-{family}-{seed}")
    if seed % 2:
        return [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(FAMILY_ARITY[family])]
    return [Fraction(rng.choice((-1, 1)) * rng.randint(500, 999), 2)
            for _ in range(FAMILY_ARITY[family])]


#: Parameters that make whole subspaces vanish or coincide.
_DEGENERATE_PARAMS = {
    "generic4": (0, 0, 0), "rolo_generic": (1, 1, 1, 1, 1, 1), "rolo_x1": (0,),
    "generic5": (1,) * 8, "distance5": (0, 0, 0, 0, 0),
}

#: The eight named families and the CLI's orbit_seeds, each with its catalog.
_CATALOG_OF_FAMILY = {
    "generic4": "co4", "rolo_generic": "rolo4", "rolo_x1": "rolo4", "rolo21": "rolo4",
    "trad21": "trad4", "generic5": "co5", "distance5": "co5", "adjusted_distance5": "co5",
    "orbit_seeds": "co5",
}


def _family_rules(family):
    """Seeded rules of a family plus its degenerate one; a two-orbit rule for orbit_seeds."""
    if family == "orbit_seeds":
        space = build_ballot_space("cyclic", 5, "paper")
        seeds = [(space.parse("ABCED"), parse_order("ABCDE"), Fraction(7, 3)),
                 (space.parse("ADBEC"), parse_order("ABCDE"), Fraction(-1, 2))]
        return [build_neutral_matrix(space, seeds, "orbit_seeds")]
    params = [_sweep_params(family, seed) for seed in range(4 if FAMILY_ARITY[family] else 1)]
    if family in _DEGENERATE_PARAMS:
        params.append(_DEGENERATE_PARAMS[family])
    return [rule(family, *ps) for ps in params]


@pytest.mark.parametrize("family", sorted(_CATALOG_OF_FAMILY))
def test_kernel_and_effective_bases_match_oracles(family):
    for m in _family_rules(family):
        assert kernel_basis(m) == _bareiss_nullspace(m.entries)
        assert effective_basis(m) == _fraction_rref(m.entries)[0]


def test_kernel_contains_v_span_for_flat_rule():
    m = rule("rolo_x1", 1)
    cat = subspace_catalog("rolo4")
    for v in cat.entry("v").vectors:
        assert la.mat_vec(m.entries, v) == la.zeros(6)


def test_effective_basis_properties():
    m = rule("rolo21")
    eff = effective_basis(m)
    ker = kernel_basis(m)
    assert len(eff) + len(ker) == 24
    for e in eff:
        for k in ker:
            assert dot(e, k) == 0
    assert effective_basis(rule("generic4", 0, 0, 0)) == []


def test_effective_space_claims_for_rolo_and_trad():
    cat = subspace_catalog("rolo4")
    w1, w2, w3 = (cat.entry(k).vectors for k in ("w1", "w2", "w3"))
    wspan = list(w1) + list(w2) + list(w3)

    mx = rule("rolo_x1", 3)
    rows = effective_basis(mx)
    for i in range(3):
        v = add(add(scale(3, w1[i]), w2[i]), w3[i])
        assert la.solve_in_span(rows, v) is not None
    assert la.rank(list(rows) + wspan) == la.rank(rows) + la.rank(wspan) - 3

    mt = rule("trad21")
    rows_t = effective_basis(mt)
    mneg = rule("rolo_x1", -1)
    for i in range(3):
        v = add(w1[i], w2[i])
        assert la.solve_in_span(rows_t, v) is not None
        assert la.mat_vec(mneg.entries, v) == la.zeros(6)
    assert la.rank(list(rows_t) + wspan) == la.rank(rows_t) + la.rank(wspan) - 3


def test_catalogs_span_and_label_their_spaces():
    for space_id, dim, entry_count in (
        ("co4", 6, 3), ("rolo4", 24, 9), ("trad4", 24, 9), ("co5", 24, 5),
    ):
        cat = subspace_catalog(space_id)
        assert cat.dim == dim
        assert len(cat.entries) == entry_count
        assert la.rank(cat.all_vectors()) == dim
    # vector counts per 24-ballot entry: 1 + 4 + 3*3 + 1 + 3*3 = 24
    rolo = subspace_catalog("rolo4")
    assert [len(e.vectors) for e in rolo.entries] == [1, 4, 3, 3, 3, 1, 3, 3, 3]
    co5 = subspace_catalog("co5")
    assert [len(e.vectors) for e in co5.entries] == [1, 1, 5, 5, 12]
    with pytest.raises(ValueError):
        subspace_catalog("co6")


def test_nonadjacency_spanning_vectors_sum_to_zero():
    cat = subspace_catalog("co4")
    s1, s2, s3 = cat.entry("nonadj").vectors
    assert add(add(s1, s2), s3) == la.zeros(6)


def test_decompose_profile_worked_example():
    cat = subspace_catalog("co4")
    p = frac_profile(CO4, (2, 1, 0, 0, 0, 1))
    comps = decompose_profile(p, cat)
    by_label = {c.label: c for c in comps}
    assert by_label["T"].coefficients == (Fraction(2, 3),)
    assert by_label["nonadj"].coefficients == (Fraction(1, 3), Fraction(-1, 6), Fraction(0))
    assert by_label["rev"].coefficients == (Fraction(1, 2), Fraction(0), Fraction(-1, 2))
    total = la.zeros(6)
    for c in comps:
        total = add(total, c.component)
    assert total == p.weights


def test_decompose_single_column_profile():
    # one vote for the first order splits evenly across the three subspaces
    cat = subspace_catalog("co4")
    p = frac_profile(CO4, (2, 1, 0, 0, 0, 0))
    comps = {c.label: c for c in decompose_profile(p, cat)}
    assert comps["T"].coefficients == (Fraction(1, 2),)
    assert comps["nonadj"].coefficients == (Fraction(1, 2), Fraction(0), Fraction(0))
    assert comps["rev"].coefficients == (Fraction(1, 2), Fraction(0), Fraction(0))


def test_decompose_trivial_cases():
    cat = subspace_catalog("co4")
    ones = frac_profile(CO4, (1,) * 6)
    comps = decompose_profile(ones, cat)
    assert comps[0].coefficients == (Fraction(1),)
    assert all(c.component == la.zeros(6) for c in comps[1:])
    basis_vec = frac_profile(CO4, subspace_catalog("co4").entry("rev").vectors[0])
    comps = {c.label: c for c in decompose_profile(basis_vec, cat)}
    assert comps["rev"].coefficients == (Fraction(1), Fraction(0), Fraction(0))


def test_decompose_profile_dimension_mismatch():
    with pytest.raises(ValueError):
        decompose_profile(frac_profile(CO4, (1,) * 6), subspace_catalog("co5"))


def test_catalogs_of_another_degree_are_rejected():
    # co5 and rolo4 both have dimension 24; only the degree tells them apart
    rolo21 = rule("rolo21")
    with pytest.raises(ValueError, match=r"catalog co5 \(n=5, dim 24\) does not fit "
                                         r"BallotSpace\('rolo', n=4"):
        scaling_report(rolo21, subspace_catalog("co5"))
    with pytest.raises(ValueError, match="catalog rolo4 .n=4, dim 24. does not fit"):
        scaling_report(rule("generic5", 4, 0, 3, 1, 2, 2, 1, 1), subspace_catalog("rolo4"))
    with pytest.raises(ValueError, match="catalog co5 .n=5, dim 24. does not fit"):
        decompose_profile(frac_profile(rolo21.ballot_space, (1,) * 24), subspace_catalog("co5"))
    # ROLO and TRAD share one table by design, so each space takes the other's catalog
    trad4 = subspace_catalog("trad4")
    assert scaling_report(rolo21, trad4).entries == scaling_report(rolo21, subspace_catalog("rolo4")).entries
    assert decompose_profile(frac_profile(rolo21.ballot_space, (1,) * 24), trad4)[0].coefficients == (1,)
    with pytest.raises(TypeError):  # no outcome catalog to pass: it follows from the rule
        scaling_report(rolo21, trad4, subspace_catalog("co4"))


def test_catalogs_refuse_a_space_in_another_enumeration():
    # the rolo4 catalog is written in the paper enumeration of build_ballot_space("rolo", 4);
    # read in any other enumeration of the same 24 ballots its vectors mean something else
    from cyclevote.ballots import BallotSpace
    from cyclevote.representation import project_vector

    cat = subspace_catalog("rolo4")
    sign = next(e for e in cat.entries if e.label == "sign").vectors[0]
    paper = build_ballot_space("rolo", 4)
    canonical = build_ballot_space("rolo", 4, "canonical")
    hand_built = BallotSpace("rolo", 4, "paper", paper.ballots[1:] + paper.ballots[:1])
    for space in (canonical, hand_built):
        # sign is not a sign vector of this enumeration, which a decomposition must not hide
        assert project_vector(sign, space, Partition((1, 1, 1, 1))) != la.vec(sign)
    assert [c.label for c in decompose_profile(profile(paper, sign), cat) if any(c.coefficients)] \
        == ["sign"]

    rolo21 = rule("rolo21")
    for space, shown in ((canonical, "'canonical'"), (hand_built, "a hand-built BallotSpace")):
        message = f"the rolo4 catalog is written in the 'paper' ordering, not {shown}"
        with pytest.raises(ValueError, match=message):
            decompose_profile(profile(space, sign), cat)
        with pytest.raises(ValueError, match=message.replace("rolo4", "trad4")):
            decompose_profile(profile(space, sign), subspace_catalog("trad4"))
        # rolo21 with its columns reordered into this enumeration
        columns = [paper.index_of(b) for b in space.ballots]
        moved = ScoringMatrix("rolo21", rolo21.outcome_space, space,
                              tuple(tuple(row[j] for j in columns) for row in rolo21.entries))
        with pytest.raises(ValueError, match=message):
            scaling_report(moved, cat)
        with pytest.raises(ValueError, match=message):
            catalog_for_space(space)


def test_scaling_report_generic4():
    m = rule("generic4", 2, 1, 0)
    rep = scaling_report(m, subspace_catalog("co4"))
    assert rep.scalar("T") == 3
    assert rep.scalar("nonadj") == 3
    assert rep.scalar("rev") == 1
    assert rep.quadratic == {"T": 9, "nonadj": 9, "rev": 1}


def test_generic4_scalar_inversion_roundtrip():
    rnd = random.Random(2024)
    for _ in range(25):
        a, b, c = (Fraction(rnd.randint(-8, 8), rnd.choice((1, 2, 3))) for _ in range(3))
        rep = scaling_report(rule("generic4", a, b, c), subspace_catalog("co4"))
        t, u, v = rep.scalar("T"), rep.scalar("nonadj"), rep.scalar("rev")
        assert (t, u, v) == (a + b + 4 * c, a + b - 2 * c, a - b)
        assert generic4_scalars_to_params(t, u, v) == (a, b, c)


def test_scaling_report_generic5_scalars():
    a, b, c, d, e, f, g, h = 2, 3, 5, 7, 11, 13, 17, 19
    rep = scaling_report(rule("generic5", a, b, c, d, e, f, g, h), subspace_catalog("co5"))
    assert rep.scalar("T") == a + b + 5 * c + 5 * d + 5 * e + 5 * f + g + h
    assert rep.scalar("sign") == a + b - 5 * c - 5 * d + 5 * e + 5 * f - g - h
    assert rep.scalar("y") == a + b - c - d - e - f + g + h
    assert rep.scalar("z") == a + b + c + d - e - f - g - h
    (pairdiff,) = [e_ for e_ in rep.entries if e_.label == "pairdiff"]
    assert pairdiff.kind == "mapped"


def test_scaling_report_rolo_quadratics():
    m = rule("rolo_x1", 2)
    rep = scaling_report(m, subspace_catalog("rolo4"))
    assert rep.quadratic["rev"] == 24
    assert rep.quadratic["T"] == 4 * (2 + 1 + 1) ** 2
    # cross-space entries are mapped images with outcome-catalog coordinates
    t_entry = rep.entries[0]
    assert t_entry.label == "T" and t_entry.kind == "mapped"
    assert t_entry.image_coords[0][0] == 16  # image is 16 * the all-ones outcome


# -- oracle: the Fraction scaling report the integer one replaced -------------

def _fraction_common_scalar(vectors, images):
    """The single k with image == k * vector for every pair, if one exists."""
    k = None
    for v, img in zip(vectors, images):
        if is_zero(v):
            if not is_zero(img):
                return None
            continue
        pivot = next(i for i, x in enumerate(v) if x != 0)
        cand = img[pivot] / v[pivot]
        if any(x != cand * a for x, a in zip(img, v, strict=True)):
            return None
        if k is None:
            k = cand
        elif k != cand:
            return None
    return Fraction(0) if k is None else k


def _fraction_scaling_report(m, catalog, expand_images=True):
    """scaling_report by Fraction mat-vecs and a Fraction M Mᵀ."""
    same_space = m.outcome_space is m.ballot_space
    outcome_catalog = catalog if same_space else catalog_for_space(m.outcome_space)
    entries = []
    for entry in catalog.entries:
        images = tuple(la.mat_vec(m.entries, v) for v in entry.vectors)
        scalar = _fraction_common_scalar(entry.vectors, images) if same_space else None
        if scalar is not None:
            kind = "zero" if scalar == 0 else "scalar"
            entries.append(EntryScaling(entry.label, entry.partition, kind, scalar, images, None))
            continue
        if all(is_zero(img) for img in images):
            entries.append(
                EntryScaling(entry.label, entry.partition, "zero", Fraction(0), images, None)
            )
            continue
        coords = None
        if expand_images:
            coords = tuple(tuple(outcome_catalog.solver.solve(img) or ()) for img in images)
        entries.append(EntryScaling(entry.label, entry.partition, "mapped", None, images, coords))
    mmt = la.mat_mul(m.entries, transpose(m.entries))
    quadratic = {
        entry.label: _fraction_common_scalar(
            entry.vectors, tuple(la.mat_vec(mmt, v) for v in entry.vectors)
        )
        for entry in outcome_catalog.entries
    }
    return ScalingReport(m.rule_name, tuple(entries), quadratic)


def _assert_report_matches_oracle(m, catalog):
    for expand in (True, False):
        got = scaling_report(m, catalog, expand_images=expand)
        assert got == _fraction_scaling_report(m, catalog, expand)


@pytest.mark.parametrize("family", sorted(_CATALOG_OF_FAMILY))
def test_scaling_report_matches_fraction_oracle_for_every_family(family):
    # between them the families cover every catalog: co4, rolo4, trad4 and co5
    catalog = subspace_catalog(_CATALOG_OF_FAMILY[family])
    for m in _family_rules(family):
        assert catalog_for_space(m.ballot_space).space_id == catalog.space_id
        _assert_report_matches_oracle(m, catalog)


@pytest.mark.parametrize("family,params", [("rolo21", ()), ("trad21", ()), ("rolo_x1", (1,)),
                                           ("rolo_x1", (Fraction(-701, 2),))])
def test_scaling_report_matches_fraction_oracle_across_spaces(family, params):
    m = rule(family, *params)
    assert m.outcome_space != m.ballot_space
    assert (m.ballot_space.kind, m.outcome_space.kind, m.outcome_space.n) == (family[:4], "cyclic", 4)
    catalog = catalog_for_space(m.ballot_space)
    _assert_report_matches_oracle(m, catalog)
    report = scaling_report(m, catalog)
    assert all(e.scalar is None or e.kind == "zero" for e in report.entries)
    assert any(e.kind == "mapped" and e.image_coords for e in report.entries)


# -- oracle: the integer dot-product loops the packed products replaced --------

def _gram(rows):
    """rows · rowsᵀ, one dot product per entry of the upper triangle."""
    gram = [[0] * len(rows) for _ in rows]
    for i, a in enumerate(rows):
        for j in range(i, len(rows)):
            gram[i][j] = gram[j][i] = sum(map(mul, a, rows[j]))
    return gram


@pytest.mark.parametrize("family", sorted(_CATALOG_OF_FAMILY))
def test_scaling_report_matches_the_dot_product_oracle(family):
    catalog = subspace_catalog(_CATALOG_OF_FAMILY[family])
    for m in _family_rules(family):
        scaled = [la._scaled_ints(row) for row in m.entries]
        d = lcm(*[den for _, den in scaled])
        rows = [[x * (d // den) for x in row] for row, den in scaled]
        assert (m.packed.rows, m.packed.den) == (rows, d)
        report = scaling_report(m, catalog)
        for entry, got in zip(catalog.entries, report.entries):
            assert got.images == tuple(tuple(Fraction(x, d * e) for x in _dot_mat_vec(rows, u))
                                       for u, e in map(la._scaled_ints, entry.vectors))
        gram = _gram(rows)
        same_space = m.outcome_space is m.ballot_space
        for entry in (catalog if same_space else catalog_for_space(m.outcome_space)).entries:
            us = [la._scaled_ints(v)[0] for v in entry.vectors]
            images = [_dot_mat_vec(gram, u) for u in us]
            assert report.quadratic[entry.label] == _common_scalar(us, images, d * d)


def _scaled_catalog(catalog, extra=()):
    """The catalog with its vectors scaled by 1/2 and 1/3 in turn, plus extra entries."""
    entries = tuple(
        CatalogEntry(e.label, e.partition,
                     tuple(scale(Fraction(1, 2 + k % 2), v) for k, v in enumerate(e.vectors)))
        for e in catalog.entries
    )
    return SubspaceCatalog(catalog.space_id, catalog.n, catalog.dim, entries + tuple(extra))


@pytest.mark.parametrize("family", ["generic5", "distance5", "adjusted_distance5", "generic4",
                                    "rolo_generic"])
def test_scaling_report_matches_fraction_oracle_on_fractional_catalogs(family):
    m = rule(family, *_sweep_params(family, 0))
    base = catalog_for_space(m.ballot_space)
    dim = base.dim
    # a zero vector fixes no scalar; beside a nonzero vector it must not veto
    # one.  Vectors of two subspaces with different scalars share none.
    first, last = base.entries[0], base.entries[-1]
    extra = (CatalogEntry("nil", first.partition, (la.zeros(dim),)),
             CatalogEntry("T+nil", first.partition,
                          (la.zeros(dim), scale(Fraction(5, 6), first.vectors[0]))),
             CatalogEntry("mixed", first.partition,
                          (scale(Fraction(7, 4), first.vectors[0]), last.vectors[0])))
    catalog = _scaled_catalog(base, extra)
    assert any(x.denominator == 3 for e in catalog.entries for v in e.vectors for x in v)
    _assert_report_matches_oracle(m, catalog)
    # scaling a vector scales its image and leaves the scalars alone
    plain = scaling_report(m, base)
    scaled = scaling_report(m, catalog)
    for e, f in zip(plain.entries, scaled.entries):
        assert f.scalar == e.scalar
        for k, (img, img_scaled) in enumerate(zip(e.images, f.images)):
            assert img_scaled == scale(Fraction(1, 2 + k % 2), img)
    nil, t_nil, mixed = scaled.entries[-3:]
    assert nil.kind == "zero" and nil.scalar == 0
    assert mixed.kind == "mapped"
    expected = dict(plain.quadratic)
    if m.outcome_space is m.ballot_space:
        assert t_nil.scalar == plain.entries[0].scalar
        expected.update({"nil": 0, "T+nil": plain.quadratic["T"], "mixed": None})
    assert scaled.quadratic == expected


def test_adjusted_rule_annihilates_everything_but_pairdiff():
    adj = rule("adjusted_distance5")
    rep = scaling_report(adj, subspace_catalog("co5"))
    for label in ("T", "sign", "y", "z"):
        assert rep.scalar(label) == 0
    d5 = rule("distance5", 4, 3, 2, 1, 0)
    for v in subspace_catalog("co5").entry("pairdiff").vectors:
        assert la.mat_vec(adj.entries, v) == la.mat_vec(d5.entries, v)


def test_masking_profile_contract():
    m = rule("rolo21")
    target = parse_order("(ACBD)")
    decoys = {parse_order(t) for t in ("(ABCD)", "(ADCB)", "(ABDC)", "(ACDB)")}
    p = masking_profile(m, target, decoys, Fraction(3))
    assert all(w >= 0 for w in p.weights)
    r = tally(m, p)
    assert r.winners == {target}
    masked = sum(
        w for w, b in zip(p.weights, p.space.ballots) if favorite_order(b) != target
    )
    assert 2 * masked > p.total()


def test_masking_profile_deterministic():
    m = rule("rolo21")
    target = parse_order("(ACBD)")
    decoys = {parse_order("(ABCD)")}
    assert masking_profile(m, target, decoys, 2) == masking_profile(m, target, decoys, 2)


def test_masking_profile_infeasible_cases():
    target = parse_order("(ACBD)")
    with pytest.raises(MaskingInfeasibleError):
        masking_profile(rule("generic4", 2, 1, 0), target, {parse_order("(ABCD)")}, 1)
    with pytest.raises(ValueError):
        masking_profile(rule("rolo21"), target, {target}, 1)
    with pytest.raises(ValueError):
        masking_profile(rule("rolo21"), target, set(), 0)


def test_masking_profile_requires_a_raw_weight_majority(monkeypatch):
    # With every ballot favouring the target, no kernel boost can give the
    # other orders a weight majority, so the doubling loop must give up.
    target = parse_order("(ACBD)")
    monkeypatch.setattr(analysis, "_favorite_indices",
                        lambda space, outcomes: (outcomes.index_of(target),) * len(space))
    # every flag vector counts as its own kernel part: a zero projection
    monkeypatch.setattr(analysis, "_kernel_part", lambda m, flags: (list(flags), 1))
    with pytest.raises(MaskingInfeasibleError, match="majority"):
        masking_profile(rule("rolo21"), target, {parse_order("(ABCD)")}, 1)


def _kernel_part_rules():
    """Named ROLO and TRAD rules, and seeded rules on ROLO 5 and cyclic 6 (singular Grams)."""
    rules = [rule("rolo21"), rule("trad21")]
    rules += [rule(family, *_sweep_params(family, seed))
              for family in ("rolo_generic", "rolo_x1") for seed in range(2)]
    for kind, n, seeds in (("rolo", 5, [("A|B,C", "(ABCDE)", 2), ("C|E,A", "(ABCDE)", -1)]),
                           ("cyclic", 6, [("(ADBFCE)", "(ABCDEF)", Fraction(3, 2))])):
        space = build_ballot_space(kind, n)
        rules.append(build_neutral_matrix(
            space, [(space.parse(b), parse_order(h), Fraction(w)) for b, h, w in seeds]))
    return rules


def _rule_id(m):
    return f"{m.rule_name.split('(')[0]}-{m.ballot_space.kind}{m.ballot_space.n}"


@pytest.mark.parametrize("m", _kernel_part_rules(), ids=_rule_id)
def test_kernel_part_matches_the_projection_oracle(m):
    rng = random.Random(f"kernel-part-{m.rule_name}-{len(m.ballot_space)}")
    size = len(m.ballot_space)
    flag_vectors = [[1] + [0] * (size - 1), [1] * size]
    flag_vectors += [[rng.randint(0, 1) for _ in range(size)] for _ in range(3)]
    for flags in flag_vectors:
        part, den = analysis._kernel_part(m, flags)
        got = la._fractions(part, den)
        assert got == sub(la.vec(flags), _project_onto_span(m.entries, flags))
        assert all(dot(got, row) == 0 for row in m.entries)
    if m.ballot_space.n > 4:
        assert la.rank(m.gram.rows) < len(m.gram.rows)  # a singular Gram matrix


def test_scaling_and_masking_build_one_gram_per_rule(monkeypatch):
    # N Nᵀ is built by applying N to each of its own rows; count those products
    named = rule("rolo21")
    m = ScoringMatrix(named.rule_name, named.outcome_space, named.ballot_space, named.entries)
    own_rows = []

    class Counting(la.Packed):
        def apply(self, u):
            own_rows.extend(row for row in self.rows if row is u)
            return super().apply(u)

    m.__dict__["packed"] = Counting(named.packed.rows, named.packed.den)
    calls = []
    real = analysis._kernel_part
    monkeypatch.setattr(analysis, "_kernel_part", lambda m, flags: calls.append(1) or real(m, flags))
    report = scaling_report(m, subspace_catalog("rolo4"))
    masking_profile(m, parse_order("(ACBD)"), {parse_order("(ABCD)"), parse_order("(ADCB)")}, 3)
    assert len(calls) == 2  # the decoy projection vanishes, so masking drains the target
    assert report.quadratic["rev"] == 24
    assert len(own_rows) == len(m.packed.rows)


# -- oracle: the Fraction masking recipe the integer one replaced ---------------

def _masking_oracle(m, target, decoys, magnitude=Fraction(1)):
    """masking_profile by Fraction vectors, one Fraction candidate per doubling."""
    magnitude = Fraction(magnitude)
    if magnitude <= 0:
        raise ValueError("magnitude must be positive")
    if target in decoys:
        raise ValueError("target cannot be one of its own decoys")
    n = m.outcome_space.n
    for order in (target, *sorted(decoys)):
        if order.n != n:
            raise ValueError(f"{order} has n={order.n}, but the rule's outcomes have n={n}")
    space = m.ballot_space
    base = scale(magnitude, sub(m.row(target), m.row(reverse_order(target))))
    favorites = [favorite_order(b, space.n) for b in space.ballots]
    decoy_flag = la.vec(1 if fav in decoys else 0 for fav in favorites)
    target_flag = la.vec(1 if fav == target else 0 for fav in favorites)
    boost = sub(decoy_flag, _project_onto_span(m.entries, decoy_flag))
    if is_zero(boost):
        drain = sub(target_flag, _project_onto_span(m.entries, target_flag))
        boost = scale(-1, drain)
    if is_zero(boost):
        raise MaskingInfeasibleError(
            "the kernel holds no usable direction for this target/decoy set"
        )
    ones = la.vec([1] * len(space))
    for doublings in range(24):
        beta = magnitude * (2**doublings)
        candidate = add(base, scale(beta, boost))
        low = min(candidate)
        shifted = add(candidate, scale(-low, ones)) if low < 0 else candidate
        masked_mass = sum(
            (w for w, fav in zip(shifted, favorites) if fav != target), Fraction(0)
        )
        if 2 * masked_mass > sum(shifted, Fraction(0)):
            break
    else:
        raise MaskingInfeasibleError(
            f"no strict weight majority away from {target} after 24 doublings"
        )
    result = Profile(space, shifted)
    if tally(m, result).winners != frozenset({target}):
        raise MaskingInfeasibleError(
            f"recipe failed to elect {target} uniquely under {m.rule_name}"
        )
    return result


def _masking_outcome(fn, *args):
    """The profile fn returns, or the type and text of the error it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


_CO4_ORDERS = tuple(CO4.ballots)


@pytest.mark.parametrize("family", ["rolo21", "trad21", "rolo_generic", "rolo_x1", "generic4"])
def test_masking_profile_matches_the_fraction_oracle(family):
    params = [()] if not FAMILY_ARITY[family] else [_sweep_params(family, seed) for seed in range(3)]
    if family in _DEGENERATE_PARAMS:
        params.append(_DEGENERATE_PARAMS[family])
    rng = random.Random(f"masking-{family}")
    profiles = errors = 0
    for ps in params:
        m = rule(family, *ps)
        for target in _CO4_ORDERS[::2]:
            others = [o for o in _CO4_ORDERS if o != target]
            decoy_sets = [set(), {others[0]}, set(others[1:3]), set(others),
                          set(rng.sample(others, 2)), {target, others[0]}]
            for decoys in decoy_sets:
                for magnitude in (Fraction(1), Fraction(3, 2), Fraction(5)):
                    got = _masking_outcome(masking_profile, m, target, decoys, magnitude)
                    assert got == _masking_outcome(_masking_oracle, m, target, decoys, magnitude)
                    profiles += isinstance(got, Profile)
                    errors += not isinstance(got, Profile)
    # a generic4 rule has no kernel to mask with, or (the zero rule) elects
    # every order; the ROLO and TRAD rules mask most targets
    assert (profiles == 0) == (family == "generic4") and errors


def test_profile_file_roundtrip():
    space = build_ballot_space("rolo", 4, "paper")
    text = "# leading comment\nA|D,C\t3\nB|C,D\t-1/2\n"
    p = parse_profile(text, space)
    assert p[space.parse("A|D,C")] == 3
    assert p[space.parse("B|C,D")] == Fraction(-1, 2)
    assert sum(1 for w in p.weights if w) == 2
    again = parse_profile(format_profile(p), space)
    assert again == p
    with pytest.raises(ValueError):
        parse_profile("A|D,C\tx", space)
    with pytest.raises(ValueError):
        parse_profile("A|D,C 1 2", space)


def profile_from_ballots(space, weighted):
    """Profile from a {ballot: weight} mapping; omitted ballots weigh zero."""
    w = [Fraction(0)] * len(space)
    for ballot, value in weighted.items():
        w[space.index_of(ballot)] = Fraction(value)
    return Profile(space, tuple(w))


def test_profile_from_ballots():
    p = profile_from_ballots(CO4, {parse_order("(ACBD)"): 2, parse_order("(ACDB)"): 1})
    assert tuple(int(w) for w in p.weights) == (2, 0, 0, 0, 0, 1)


def test_catalog_for_space():
    assert catalog_for_space(CO4).space_id == "co4"
    assert catalog_for_space(build_ballot_space("trad", 4)).space_id == "trad4"


def test_catalog_for_space_needs_the_default_ordering():
    # the catalogs are written in the paper orderings of these two spaces
    for kind in ("cyclic", "rolo"):
        with pytest.raises(ValueError, match="written in the 'paper' ordering"):
            catalog_for_space(build_ballot_space(kind, 4, "canonical"))


def test_tally_is_linear_and_scale_invariant():
    rnd = random.Random(5)
    m = rule("rolo21")
    space = m.ballot_space
    for _ in range(10):
        weights = tuple(rnd.randint(-4, 9) for _ in range(24))
        p = frac_profile(space, weights)
        k = Fraction(rnd.randint(1, 5), rnd.randint(1, 3))
        scaled = frac_profile(space, tuple(k * w for w in p.weights))
        base = tally(m, p)
        boosted = tally(m, scaled)
        assert boosted.scores == tuple(k * s for s in base.scores)
        assert boosted.winners == base.winners


# -- value classes ---------------------------------------------------------------

CO3 = build_ballot_space("cyclic", 3)
_CO3_REPR = "BallotSpace('cyclic', n=3, ordering='canonical', size=2)"
_P3 = "Partition(parts=(3,))"

#: (make, repr, ordered): make() builds a new instance each call
_RECORDS = {
    "Permutation": (lambda: Permutation((1, 0, 2)), "Permutation(images=(1, 0, 2))", True),
    "Partition": (lambda: Partition((2, 1)), "Partition(parts=(2, 1))", True),
    "ClassFunction": (lambda: ClassFunction(1, {Partition((1,)): Fraction(1)}),
                      "ClassFunction(n=1, values={Partition(parts=(1,)): Fraction(1, 1)})", False),
    "CyclicOrder": (lambda: CyclicOrder((0, 2, 1)), "CyclicOrder(seq=(0, 2, 1))", True),
    "PairClass": (lambda: PairClass("Same", (CyclicOrder((0, 1, 2)),) * 2),
                  "PairClass(tag='Same', representative=(CyclicOrder(seq=(0, 1, 2)), "
                  "CyclicOrder(seq=(0, 1, 2))))", False),
    "RoloBallot": (lambda: RoloBallot(0, 1, 2), "RoloBallot(center=0, right=1, left=2)", True),
    "TradBallot": (lambda: TradBallot((0, 1), (3, 0)),
                   "TradBallot(opposite=(0, 1), adjacency=(3, 0))", True),
    "DecompositionReport": (lambda: DecompositionReport(3, {Partition((3,)): 1},
                                                        {Partition((3,)): 1}),
                            f"DecompositionReport(n=3, multiplicities={{{_P3}: 1}}, "
                            f"dims={{{_P3}: 1}})", False),
    "ScoringMatrix": (lambda: ScoringMatrix("r", CO3, CO3, ((Fraction(2),),)),
                      f"ScoringMatrix(rule_name='r', outcome_space={_CO3_REPR}, "
                      f"ballot_space={_CO3_REPR}, entries=((Fraction(2, 1),),))", False),
    "Profile": (lambda: Profile(CO3, (Fraction(2), Fraction(-1))),
                f"Profile(space={_CO3_REPR}, weights=(Fraction(2, 1), Fraction(-1, 1)))", False),
    "TallyResult": (lambda: TallyResult((Fraction(2),), frozenset({CyclicOrder((0, 1, 2))})),
                    "TallyResult(scores=(Fraction(2, 1),), "
                    "winners=frozenset({CyclicOrder(seq=(0, 1, 2))}))", False),
    "CatalogEntry": (lambda: CatalogEntry("T", Partition((3,)), ((Fraction(1),),)),
                     f"CatalogEntry(label='T', partition={_P3}, vectors=((Fraction(1, 1),),))",
                     False),
    "SubspaceCatalog": (lambda: SubspaceCatalog("co3", 3, 1, ()),
                        "SubspaceCatalog(space_id='co3', n=3, dim=1, entries=())", False),
    "DecomposedComponent": (lambda: DecomposedComponent("T", Partition((3,)), (Fraction(1),),
                                                        (Fraction(2),)),
                            f"DecomposedComponent(label='T', partition={_P3}, "
                            "coefficients=(Fraction(1, 1),), component=(Fraction(2, 1),))", False),
    "EntryScaling": (lambda: EntryScaling("T", Partition((3,)), "zero", Fraction(0), (), None),
                     f"EntryScaling(label='T', partition={_P3}, kind='zero', "
                     "scalar=Fraction(0, 1), images=(), image_coords=None)", False),
    "ScalingReport": (lambda: ScalingReport("r", (), {"T": None}),
                      "ScalingReport(rule_name='r', entries=(), quadratic={'T': None})", False),
}


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_value_classes_keep_frozen_record_semantics(name):
    make, text, ordered = _RECORDS[name]
    x, y = make(), make()
    assert type(x).__name__ == name
    assert repr(x) == text
    assert x is not y and x == y and not x != y
    fields = tuple(vars(x).values())  # the constructor stores the fields in order
    try:
        expected = hash(fields)
    except TypeError:  # a dict field: unhashable, as the field tuple is
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == hash(y) == expected
    other = CyclicOrder((0, 1, 2)) if name == "Permutation" else Permutation((0, 1, 2))
    assert x != other and x.__eq__(other) is NotImplemented
    with pytest.raises(TypeError):
        x < other
    if ordered:
        assert x <= y and x >= y and not x < y and not x > y
    else:
        with pytest.raises(TypeError):
            x < y
    for field in vars(x):
        with pytest.raises(AttributeError):
            setattr(x, field, None)
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert repr(x) == text


def test_value_class_constructors_and_cached_properties():
    assert CyclicOrder((0, 1, 2)) != Permutation((0, 1, 2))
    assert RoloBallot(center=0, right=1, left=2) == RoloBallot(0, 1, 2)
    with pytest.raises(ValueError, match=r"labels must be distinct: RoloBallot\(center=0, right=0, left=2\)"):
        RoloBallot(0, 0, 2)
    with pytest.raises(ValueError, match=r"not in canonical form: TradBallot\(opposite=\(1, 0\)"):
        TradBallot((1, 0), (3, 0))
    def act(sigma, i):
        return i
    space = ActionSpace(dim=1, n=1, act=act)
    assert repr(space) == f"ActionSpace(dim=1, n=1, act={act!r}, name='')"
    assert space != ActionSpace(1, 1, act, "")
    assert space.generator_moves is space.generator_moves == ((0,), (0,))
    m = rule("rolo21")
    assert m.echelon is m.echelon and m.packed is m.packed
    cat = subspace_catalog("co4")
    assert cat.solver is cat.solver
    assert cat.entries[0].packed is cat.entries[0].packed
    assert cat.entries[0].columns is cat.entries[0].columns
    # trad4 reads the rolo4 table: one set of entries, built once
    assert subspace_catalog("trad4").entries is subspace_catalog("rolo4").entries
