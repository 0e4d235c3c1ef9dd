import random
from collections import deque
from itertools import combinations
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from operator import mul

import pytest

import cyclevote._linalg as la
import cyclevote.representation as representation
from cyclevote.ballots import action_space, build_ballot_space
from cyclevote.cyclic_orders import co_character
from cyclevote.representation import (
    ActionSpace,
    character_inner_product,
    decompose_character,
    is_equivariant_matrix,
    isotypic_projector,
    project_vector,
    space_character,
)
from cyclevote.scoring import rule
from cyclevote.symmetric_group import (
    ClassFunction,
    Partition,
    Permutation,
    all_permutations,
    class_function,
    class_representative,
    cycle_type,
    generators,
    identity,
    irreducible_character,
    partitions,
    sign,
    specht_dimension,
)
from test_linalg import add, identity_matrix


def permutation_matrix(space, sigma):
    """The 0/1 matrix of sigma acting on the basis (column j moves to act(sigma, j))."""
    one, zero = Fraction(1), Fraction(0)
    cols = space.moves(sigma)
    return tuple(
        tuple(one if cols[j] == i else zero for j in range(space.dim))
        for i in range(space.dim)
    )


def irreducible_class_function(lam):
    return class_function(lam.n, lambda mu: irreducible_character(lam, mu))


def co_space(n):
    ordering = "paper" if n in (4, 5) else "canonical"
    return action_space(build_ballot_space("cyclic", n, ordering))


def test_inner_product_examples():
    chi5 = co_character(5)
    assert character_inner_product(irreducible_class_function(Partition((3, 1, 1))), chi5) == 2
    for n in (3, 4, 5):
        triv = irreducible_class_function(Partition((n,)))
        assert character_inner_product(triv, triv) == 1
    chi4 = co_character(4)
    assert character_inner_product(irreducible_class_function(Partition((4,))), chi4) == 1
    with pytest.raises(ValueError):
        character_inner_product(chi4, chi5)


def test_space_character_values():
    chi = space_character(co_space(4))
    expected = {(1, 1, 1, 1): 6, (2, 1, 1): 0, (2, 2): 2, (3, 1): 0, (4,): 2}
    for parts, value in expected.items():
        assert chi(Partition(parts)) == value

    rolo = space_character(action_space(build_ballot_space("rolo", 4, "paper")))
    for mu in partitions(4):
        assert rolo(mu) == (24 if mu == Partition((1, 1, 1, 1)) else 0)

    trad = space_character(action_space(build_ballot_space("trad", 4)))
    assert trad.values == rolo.values

    assert space_character(co_space(5)).values == co_character(5).values


def test_decompositions():
    rep4 = decompose_character(space_character(co_space(4)))
    assert {m.parts: v for m, v in rep4.multiplicities.items() if v} == {
        (4,): 1, (2, 2): 1, (2, 1, 1): 1,
    }
    assert rep4.total_dim == 6

    rep5 = decompose_character(space_character(co_space(5)))
    assert {m.parts: v for m, v in rep5.multiplicities.items() if v} == {
        (5,): 1, (3, 2): 1, (3, 1, 1): 2, (2, 2, 1): 1, (1, 1, 1, 1, 1): 1,
    }
    assert rep5.total_dim == 24
    assert rep5.dims[Partition((3, 1, 1))] == 6

    rolo = decompose_character(space_character(action_space(build_ballot_space("rolo", 4, "paper"))))
    assert {m.parts: v for m, v in rolo.multiplicities.items()} == {
        (4,): 1, (3, 1): 3, (2, 2): 2, (2, 1, 1): 3, (1, 1, 1, 1): 1,
    }
    assert rolo.total_dim == 24


def test_decompose_rejects_bogus_character():
    bogus = class_function(4, lambda mu: 1 if mu == Partition((4,)) else 0)
    with pytest.raises(ValueError):
        decompose_character(bogus)


def test_report_tsv():
    rep = decompose_character(space_character(co_space(4)))
    lines = rep.to_tsv().splitlines()
    assert lines[0] == "4\t1\t1\t1"
    assert lines[-1] == "# dimension sum: 6 == 6"


def test_projector_trivial_component():
    space = co_space(4)
    p = isotypic_projector(space, Partition((4,)))
    assert p == tuple(tuple(Fraction(1, 6) for _ in range(6)) for _ in range(6))
    absent = isotypic_projector(space, Partition((3, 1)))
    assert all(x == 0 for row in absent for x in row)


def test_projector_algebra_co4():
    space = co_space(4)
    projs = {lam: isotypic_projector(space, lam) for lam in partitions(4)}
    total = identity_matrix(6)
    acc = tuple(tuple(Fraction(0) for _ in range(6)) for _ in range(6))
    for lam, p in projs.items():
        assert la.mat_mul(p, p) == p
        assert is_equivariant_matrix(space, p)
        acc = tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(acc, p))
    assert acc == total
    for lam, p in projs.items():
        for lam2, q in projs.items():
            if lam != lam2:
                zero = tuple(tuple(Fraction(0) for _ in range(6)) for _ in range(6))
                assert la.mat_mul(p, q) == zero


def test_projector_rank_rolo():
    space = action_space(build_ballot_space("rolo", 4, "paper"))
    p = isotypic_projector(space, Partition((2, 1, 1)))
    assert la.rank(p) == 9


def test_project_vector_examples():
    space = co_space(4)
    ones = (1,) * 6
    assert project_vector(ones, space, Partition((4,))) == la.vec(ones)
    assert project_vector(ones, space, Partition((2, 2))) == la.zeros(6)
    # trivial component of (2,1,0,0,0,1) is the constant vector at 2/3
    part = project_vector((2, 1, 0, 0, 0, 1), space, Partition((4,)))
    assert part == tuple(Fraction(2, 3) for _ in range(6))
    with pytest.raises(ValueError):
        project_vector((1, 2), space, Partition((4,)))


def test_projected_components_sum_back():
    space = co_space(4)
    v = (3, -1, 0, 7, Fraction(1, 2), 2)
    acc = la.zeros(6)
    for lam in partitions(4):
        acc = add(acc, project_vector(v, space, lam))
    assert acc == la.vec(v)


def test_one_point_space_projects_onto_the_trivial_partition_at_n8_and_n9():
    for n in (8, 9):
        point = ActionSpace(dim=1, n=n, act=lambda s, i: i)
        for lam in partitions(n):
            expected = (Fraction(3, 2),) if lam == Partition((n,)) else (0,)
            assert project_vector([Fraction(3, 2)], point, lam) == expected, lam
        assert isotypic_projector(point, Partition((n,))) == ((1,),)


def test_permutation_matrix_shape():
    space = co_space(4)
    from cyclevote.symmetric_group import full_cycle

    rho = permutation_matrix(space, full_cycle(4))
    assert all(sum(row) == 1 for row in rho)
    assert all(sum(col) == 1 for col in zip(*rho))


# -- the group table against the per-element group sum ----------------------

def _brute_projector(space, lam):
    """The projector by one act call per basis index and group element."""
    acc = [[0] * space.dim for _ in range(space.dim)]
    char_of = {mu: irreducible_character(lam, mu) for mu in partitions(space.n)}
    for sigma in all_permutations(space.n):
        weight = char_of[cycle_type(sigma)]
        if not weight:
            continue
        for j in range(space.dim):
            acc[space.act(sigma, j)][j] += weight
    factor = Fraction(specht_dimension(lam), factorial(space.n))
    return tuple(tuple(factor * x for x in row) for row in acc)


def _fresh_action(kind, n, ordering="canonical"):
    """An action with no cached tables, so each test builds its own."""
    space = build_ballot_space(kind, n, ordering)
    return ActionSpace(len(space), n, space.act_index, f"{kind}{n}")


def _seeded_vector(seed, dim):
    rng = random.Random(seed)
    return [Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3, 7, 12))) for _ in range(dim)]


@pytest.mark.parametrize("kind,n,ordering", [
    ("cyclic", 4, "paper"), ("cyclic", 5, "paper"), ("rolo", 4, "paper"),
    ("trad", 4, "canonical"), ("rolo", 5, "canonical"),
])
def test_projector_matches_brute_oracle(kind, n, ordering):
    space = _fresh_action(kind, n, ordering)
    v = _seeded_vector(f"{kind}{n}", space.dim)
    for lam in partitions(n):
        brute = _brute_projector(space, lam)
        assert isotypic_projector(space, lam) == brute, lam
        assert project_vector(v, space, lam) == la.mat_vec(brute, v), lam


def _direct_sum(*spaces):
    """The spaces side by side: index start + i of a summand moves as its index i."""
    starts = [sum(s.dim for s in spaces[:k]) for k in range(len(spaces))]

    def act(sigma, i):
        for start, s in zip(reversed(starts), reversed(spaces)):
            if i >= start:
                return start + s.act(sigma, i - start)

    return ActionSpace(sum(s.dim for s in spaces), spaces[0].n, act, "direct sum")


def test_projector_on_a_space_with_several_orbits():
    # a fixed point, the 6 cyclic orders and the 24 TRAD ballots: orbits of
    # sizes 1, 6 and 24, based at indices 0, 1 and 7
    point = ActionSpace(1, 4, lambda s, i: i)
    space = _direct_sum(point, _fresh_action("cyclic", 4, "paper"), _fresh_action("trad", 4))
    v = _seeded_vector("several orbits", space.dim)
    acc = la.zeros(space.dim)
    for lam in partitions(4):
        brute = _brute_projector(space, lam)
        assert isotypic_projector(space, lam) == brute, lam
        component = project_vector(v, space, lam)
        assert component == la.mat_vec(brute, v), lam
        acc = add(acc, component)
    assert acc == la.vec(v)


# -- the table search of all of S_n as the oracle for the central products --

def _table_oracle(space):
    """The index permutation of every element of S_n, keyed by its images.

    Breadth-first from the identity, stepping from sigma to sigma o g and
    composing rho(sigma o g)[i] = rho(sigma)[rho(g)[i]].  Every edge of the
    search is checked, so the table is a homomorphism of S_n; each class
    representative's row is then checked against act.
    """
    n = space.n
    steps = [(g.images, move) for g, move in zip(generators(n), space.generator_moves)]
    start = tuple(range(n))
    table = {start: tuple(range(space.dim))}
    queue = deque([start])
    while queue:
        sigma = queue.popleft()
        rho = table[sigma]
        for g, move in steps:
            tau = tuple(sigma[x] for x in g)
            image = tuple(rho[x] for x in move)
            if tau not in table:
                table[tau] = image
                queue.append(tau)
            elif table[tau] != image:
                raise ValueError(f"action {space.name!r} is not a homomorphism of S_{n}")
    if len(table) != factorial(n):
        raise ValueError(
            f"the generators reached {len(table)} of the {factorial(n)} permutations of S_{n}"
        )
    for mu, move in space.class_moves.items():
        if table[class_representative(mu).images] != move:
            raise ValueError(
                f"action {space.name!r}: the group table disagrees with act on class {mu}"
            )
    return table


_ORACLE_NAMES = ["cyclic 4 paper", "cyclic 5 paper", "cyclic 6 canonical", "cyclic 7 canonical",
                 "rolo 4 paper", "rolo 5 canonical", "rolo 6 canonical", "trad 4 canonical",
                 "several orbits"]


def _oracle_space(name):
    if name == "several orbits":
        point = ActionSpace(1, 4, lambda s, i: i)
        return _direct_sum(point, _fresh_action("cyclic", 4, "paper"), _fresh_action("trad", 4))
    kind, n, ordering = name.split()
    return _fresh_action(kind, int(n), ordering)


@pytest.mark.parametrize("name", _ORACLE_NAMES)
def test_orbits_match_the_table_oracle(name):
    # n!/dim lam times the projection of e_b is the n!-term sum over the table
    # of chi_lam(g) e_{rho(g)[b]}, for the least index b of each orbit
    space = _oracle_space(name)
    table = _table_oracle(space)
    bases = _table_bases(table)
    for lam in partitions(space.n):
        scale = factorial(space.n) // specht_dimension(lam)
        for b, expected in _table_base_rows(table, bases, lam).items():
            e_b = [int(i == b) for i in range(space.dim)]
            assert [scale * x for x in project_vector(e_b, space, lam)] == expected, (lam, b)


def _table_bases(table):
    """The least index of each index's orbit, read off the group table."""
    return tuple(map(min, zip(*table.values())))


@lru_cache(maxsize=None)
def _class_of(images):
    return cycle_type(Permutation(images))


def _table_base_rows(table, bases, lam):
    """n!/dim lam times the projector row of each orbit base, summed over the table."""
    dim = len(bases)
    char_of = {sigma: irreducible_character(lam, _class_of(sigma)) for sigma in table}
    rows = {b: [0] * dim for b in set(bases)}
    for sigma, row in table.items():
        for b, base_row in rows.items():
            base_row[row[b]] += char_of[sigma]
    return rows


def _base_row_dot(v, table, bases, lam):
    """P v as one integer dot product per index: base row times w permuted by a table row.

    Row i of P is the base row of i's orbit permuted by rho(g) for any g in
    the table carrying the base b to i, so entry i is
    (dim lam / (n! D)) * sum over k of base_row[k] * w[rho(g)[k]], with
    w = D v in integers.
    """
    dim = len(v)
    base_rows = _table_base_rows(table, bases, lam)
    carry = {row[b]: row for b in set(bases) for row in table.values()}
    nums, den = la._scaled_ints(v)
    scale, den = specht_dimension(lam), factorial(lam.n) * den
    return tuple(
        Fraction(scale * sum(map(mul, base_rows[bases[i]], map(nums.__getitem__, carry[i]))), den)
        for i in range(dim)
    )


@pytest.mark.parametrize("name", _ORACLE_NAMES)
def test_project_vector_matches_the_base_row_dot(name):
    space = _oracle_space(name)
    table = _table_oracle(space)
    v = _seeded_vector(f"base row dot {name}", space.dim)
    assert any(x.denominator > 1 for x in v)
    bases = _table_bases(table)
    for lam in partitions(space.n):
        assert project_vector(v, space, lam) == _base_row_dot(v, table, bases, lam), lam


def _central_product_oracle(v, space, lam):
    """project_vector as it was before the (n) component came from orbit averages.

    P v is the product over the other partitions mu present of
    (C - c_mu)/(c_lam - c_mu) applied to v: C is p1 = sum of X_k, or p2 = sum
    of X_k^2 where p1's scalars agree, with X_k = sum over i < k of (i k), and
    c_mu is C's scalar on V_mu.  The product runs in integers on w = D*v, D the
    lcm of v's denominators, each X_k gathering the vector through the moves
    of its transpositions; the dense P is never built.  An absent lam gives 0.
    """
    if len(v) != space.dim:
        raise ValueError(f"length mismatch: {len(v)} vs {space.dim}")
    if lam.n != space.n:
        raise ValueError(f"degree mismatch: {lam.n} vs {space.n}")
    n, moves, present = space.n, space.transposition_moves, space.multiplicities
    if not present[lam]:
        return la.zeros(space.dim)
    x, d = la._scaled_ints(v)
    target, scale = representation._content_sums(lam), factorial(n) // specht_dimension(lam)
    others = [representation._content_sums(mu) for mu in partitions(n)
              if mu != lam and present[mu]]
    factors = {(1, c[0]) if c[0] != target[0] else (2, c[1]) for c in others}  # (power, c_mu)
    den = prod(target[power - 1] - c for power, c in factors)
    if not den:  # p1 and p2 together separate the partitions of n <= 14 only
        raise ValueError(f"p1 and p2 do not separate {lam} from the other partitions present")
    for power, c in factors:  # x <- (sum over k of X_k^power - c) x
        ys = [x] * len(moves)  # X_k^(power-1) x; a transposition's move is an involution
        for _ in range(power - 1):
            ys = [list(map(sum, zip(*(g(y) for g in xk)))) for y, xk in zip(ys, moves)]
        cx = map(sum, zip(*(g(y) for y, xk in zip(ys, moves) for g in xk)))
        x = [a - c * z for a, z in zip(cx, x)]
    # (n!/dim lam) P is the integer matrix sum over g of chi_lam(g) rho(g): a remainder
    # means the product is no projector
    if any(scale * y % den for y in x):
        raise ValueError(f"action {space.name!r}: the central product for {lam} is not integral")
    return tuple(Fraction(y, den * d) for y in x)


@pytest.mark.parametrize("name", _ORACLE_NAMES)
def test_project_vector_matches_the_central_product_oracle(name):
    space = _oracle_space(name)
    table = _table_oracle(space)
    orbits = [sorted({row[i] for row in table.values()}) for i in range(space.dim)]
    if name == "several orbits":  # the lcm of the orbit sizes is not the dimension
        assert sorted(set(map(len, orbits))) == [1, 6, 24]
    rng = random.Random(f"central product {name}")
    vectors = {"integer": [rng.randint(-9, 9) for _ in range(space.dim)],
               "fractional": _seeded_vector(f"central product {name}", space.dim),
               "zero": [0] * space.dim}
    trivial = Partition((space.n,))
    for kind, v in vectors.items():
        acc = la.zeros(space.dim)
        for lam in partitions(space.n):
            component = project_vector(v, space, lam)
            assert component == _central_product_oracle(v, space, lam), (kind, lam)
            acc = add(acc, component)
        assert acc == la.vec(v), kind
        average = tuple(Fraction(sum(v[j] for j in orbit), len(orbit)) for orbit in orbits)
        assert project_vector(v, space, trivial) == average, kind


def _relabelled_action(rng, n):
    """The moves of a genuine action of S_n on at most 6 points, in random index order.

    Each orbit is S_n acting on one point, on the labels, on two points by
    sign, on unordered pairs of labels or, for n=4, on the three pairings of
    the labels into two pairs.
    """
    kinds = {
        "point": ([0], lambda s, x: x),
        "labels": (list(range(n)), lambda s, x: s(x)),
        "sign": ([0, 1], lambda s, x: x ^ (sign(s) < 0)),
        "pairs": ([frozenset(p) for p in combinations(range(n), 2)],
                  lambda s, x: frozenset(map(s, x))),
    }
    if n == 4:
        kinds["pairings"] = ([frozenset({frozenset({0, k}), frozenset(set(range(1, 4)) - {k})})
                              for k in (1, 2, 3)],
                             lambda s, x: frozenset(frozenset(map(s, p)) for p in x))
    points, acts = [], {}
    for kind in rng.sample(sorted(kinds), rng.randint(1, len(kinds))):
        objects, act = kinds[kind]
        if len(points) + len(objects) <= 6:
            points += [(kind, x) for x in objects]
            acts[kind] = act
    rng.shuffle(points)
    index = {p: i for i, p in enumerate(points)}
    elements = {g.images: g for g in generators(n)}
    elements.update((class_representative(mu).images, class_representative(mu))
                    for mu in partitions(n))
    return {images: tuple(index[kind, acts[kind](sigma, x)] for kind, x in points)
            for images, sigma in elements.items()}


def test_orbit_searches_accept_exactly_the_actions_the_table_accepts():
    rng = random.Random(20230417)
    verdicts = []
    for draw in range(1500):
        n = rng.choice((3, 4))
        moves = _relabelled_action(rng, n)
        dim = len(next(iter(moves.values())))
        if rng.random() < 0.7:  # spoil one move with a random map of the indices
            spoilt = rng.choice(sorted(moves))
            if rng.random() < 0.9:
                moves[spoilt] = tuple(rng.sample(range(dim), dim))
            else:
                moves[spoilt] = tuple(rng.randrange(dim) for _ in range(dim))

        def act(sigma, i, moves=moves):
            return moves[sigma.images][i]

        accepted = []
        for search in (_table_oracle, representation._transposition_moves):
            try:
                search(ActionSpace(dim, n, act, f"draw {draw}"))
                accepted.append(True)
            except ValueError:
                accepted.append(False)
        assert accepted[0] == accepted[1], (draw, moves)
        verdicts.append(accepted[0])
    assert 300 < sum(verdicts) < 1200


def _verdicts(space):
    """Whether the table oracle and the Coxeter check accept the action, in that order."""
    accepted = []
    for search in (_table_oracle, representation._transposition_moves):
        try:
            search(space)
            accepted.append(True)
        except ValueError:
            accepted.append(False)
    return accepted


def test_orbit_searches_agree_with_the_table_at_small_and_larger_degrees():
    # at n <= 2 the two generators coincide and there are 0 or 1 adjacent
    # transpositions; at n = 5 there are four
    rng = random.Random(20260419)
    verdicts = {1: [], 2: [], 5: []}
    for draw in range(600):
        n = rng.choice(sorted(verdicts))
        moves = _relabelled_action(rng, n)
        dim = len(next(iter(moves.values())))
        if rng.random() < 0.5:
            spoilt = rng.choice(sorted(moves))
            moves[spoilt] = tuple(rng.sample(range(dim), dim))

        def act(sigma, i, moves=moves):
            return moves[sigma.images][i]

        accepted = _verdicts(ActionSpace(dim, n, act, f"draw {draw}"))
        assert accepted[0] == accepted[1], (draw, moves)
        verdicts[n].append(accepted[0])
    for n, seen in verdicts.items():
        assert set(seen) == {True, False}, n


def _moved(v, move):
    """rho(g) v for the index permutation move of g: entry j goes to move[j]."""
    out = [None] * len(v)
    for j, x in zip(move, v):
        out[j] = x
    return tuple(out)


def test_cyclic_n7_components_sum_back_and_commute_with_the_generators():
    space = _fresh_action("cyclic", 7)
    v = _seeded_vector("cyclic 7", space.dim)
    acc = la.zeros(space.dim)
    for lam in partitions(7):
        component = project_vector(v, space, lam)
        acc = add(acc, component)
        for move in space.generator_moves:
            assert project_vector(_moved(v, move), space, lam) == _moved(component, move), lam
    assert acc == la.vec(v)


def test_cyclic_n8_component_commutes_with_the_generators_and_is_idempotent():
    space = _fresh_action("cyclic", 8)
    lam = Partition((4, 2, 1, 1))
    v = _seeded_vector("cyclic 8", space.dim)
    component = project_vector(v, space, lam)
    assert any(component) and component != la.vec(v)
    for move in space.generator_moves:
        assert project_vector(_moved(v, move), space, lam) == _moved(component, move)
    assert project_vector(component, space, lam) == component


def test_rolo_n8_components_sum_back():
    space = _fresh_action("rolo", 8)
    v = _seeded_vector("rolo 8", space.dim)
    acc = la.zeros(space.dim)
    for lam in partitions(8):
        acc = add(acc, project_vector(v, space, lam))
    assert acc == la.vec(v)


@pytest.mark.parametrize("kind", ["cyclic", "rolo"])
def test_components_sum_back_at_n6(kind):
    space = action_space(build_ballot_space(kind, 6, "canonical"))
    for seed in range(2):
        v = _seeded_vector(f"sum back {kind} {seed}", space.dim)
        acc = la.zeros(space.dim)
        for lam in partitions(6):
            acc = add(acc, project_vector(v, space, lam))
        assert acc == la.vec(v)


def test_functions_take_a_ballot_space_itself():
    space = build_ballot_space("cyclic", 5)
    assert space_character(space).values == co_character(5).values
    fresh = _fresh_action("cyclic", 5, "paper")
    v = _seeded_vector("ballot space itself", len(space))
    acc = la.zeros(len(space))
    for lam in partitions(5):
        component = project_vector(v, space, lam)
        assert component == project_vector(v, fresh, lam), lam
        acc = add(acc, component)
    assert acc == la.vec(v)


def test_base_rows_must_come_out_integral(monkeypatch):
    # a wrong scalar for p1 on the 2+2 component leaves that component in the product
    content_sums = representation._content_sums
    monkeypatch.setattr(representation, "_content_sums", lambda lam: tuple(
        x + (lam == Partition((2, 2))) for x in content_sums(lam)))
    space = _fresh_action("cyclic", 4, "paper")
    e_0 = (1,) + (0,) * (space.dim - 1)
    with pytest.raises(ValueError, match="^action 'cyclic4': the central product for 2\\+1\\+1 "
                                         "is not integral$"):
        project_vector(e_0, space, Partition((2, 1, 1)))


def test_partitions_that_p1_and_p2_cannot_separate_are_refused(monkeypatch):
    # from n = 15 on, two partitions can share both scalars; here 2+2 is given those of 2+1+1
    content_sums = representation._content_sums
    monkeypatch.setattr(representation, "_content_sums", lambda lam: content_sums(
        Partition((2, 1, 1)) if lam == Partition((2, 2)) else lam))
    space = _fresh_action("cyclic", 4, "paper")
    with pytest.raises(ValueError, match="^p1 and p2 do not separate 2\\+2 from the other "
                                         "partitions present$"):
        project_vector((1,) * space.dim, space, Partition((2, 2)))


@pytest.mark.parametrize("kind", ["cyclic", "rolo"])
def test_project_vector_matches_brute_oracle(kind):
    space = _fresh_action(kind, 6)
    rng = random.Random(20221108)
    for parts in ((3, 3), (4, 1, 1)):
        lam = Partition(parts)
        brute = _brute_projector(space, lam)
        v = [Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3, 7, 12)))
             for _ in range(space.dim)]
        assert any(x.denominator > 1 for x in v)
        assert project_vector(v, space, lam) == la.mat_vec(brute, v)


def test_equivariance_check_matches_dense_commutator():
    space = co_space(4)

    def dense(matrix):
        for g in generators(4):
            rho = permutation_matrix(space, g)
            if la.mat_mul(rho, matrix) != la.mat_mul(matrix, rho):
                return False
        return True

    rng = random.Random(7)
    swap = permutation_matrix(space, generators(4)[0])  # fixed by the transposition only
    candidates = [rule("generic4", 2, 1, 0).entries, identity_matrix(6), swap]
    candidates += [[[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)] for _ in range(20)]
    for m in candidates:
        assert is_equivariant_matrix(space, m) == dense(m)
    assert not is_equivariant_matrix(space, swap)
    assert not is_equivariant_matrix(space, candidates[-1])


# -- validation of the action ----------------------------------------------

def test_action_must_permute_the_indices():
    collapse = ActionSpace(dim=3, n=3, act=lambda s, i: 0, name="collapse")
    with pytest.raises(ValueError, match="does not permute"):
        isotypic_projector(collapse, Partition((3,)))
    with pytest.raises(ValueError, match="does not permute"):
        space_character(collapse)
    out_of_range = ActionSpace(dim=2, n=3, act=lambda s, i: i + 1)
    with pytest.raises(ValueError, match="does not permute"):
        project_vector((1, 2), out_of_range, Partition((3,)))


def test_action_must_be_a_homomorphism():
    # both generators swap the two indices, but the 3-cycle has order 3
    swap = ActionSpace(dim=2, n=3, act=lambda s, i: 1 - i if s(0) != 0 else i, name="swap")
    with pytest.raises(ValueError, match="not a homomorphism"):
        isotypic_projector(swap, Partition((3,)))


def test_action_checked_against_act_on_class_representatives():
    base = co_space(4)
    odd = class_representative(Partition((2, 2)))
    liar = ActionSpace(base.dim, 4, lambda s, i: i if s == odd else base.act(s, i), "liar")
    with pytest.raises(ValueError, match="disagrees with act on class 2\\+2"):
        project_vector((1,) * 6, liar, Partition((4,)))


def test_generators_must_reach_the_whole_group(monkeypatch):
    monkeypatch.setattr(representation, "generators", lambda n: (identity(n), identity(n)))
    space = ActionSpace(dim=2, n=3, act=lambda s, i: i)
    with pytest.raises(ValueError, match="^generators\\(3\\) do not conjugate to the adjacent "
                                         "transpositions$"):
        isotypic_projector(space, Partition((3,)))


def test_action_spaces_compare_by_identity():
    # the trivial and the sign representation on one pair of indices
    fixed = ActionSpace(dim=2, n=3, act=lambda s, i: i, name="pair")
    swapped = ActionSpace(dim=2, n=3, act=lambda s, i: 1 - i if sign(s) < 0 else i, name="pair")
    assert fixed != swapped
    assert fixed == fixed and len({fixed, swapped}) == 2
