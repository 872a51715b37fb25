"""Root-system construction: exact examples and structural invariants."""

import operator
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lievol import rootsys
from lievol.errors import InvariantViolationError, ParameterDomainError, UnsupportedGroupError
from lievol.rootsys import (
    EXCEPTIONAL_RANK,
    Family,
    SimpleLieType,
    build_root_system,
    cartan_matrix,
    default_groups,
    exponents,
    height_counts,
    minimal_pairing,
    rho_pairings_killing,
    sp,
    spin,
    su,
    walk_groups,
)
from roots import build_with_keys, forbid_walks, key_digits, positive_roots


def _reflect(root, cartan, i):
    # s_i(mu) = mu - <mu, a_i^vee> a_i in simple-root coordinates
    pairing = sum(root[k] * cartan[k][i] for k in range(len(root)))
    out = list(root)
    out[i] -= pairing
    return tuple(out)


def weyl_orbit_closure(seeds, cartan):
    """Breadth-first closure of `seeds` under all simple reflections: the
    dense reference the positive-root generator is checked against."""
    rank = len(cartan)
    seen = set(seeds)
    queue = list(seeds)
    while queue:
        v = queue.pop()
        for i in range(rank):
            w = _reflect(v, cartan, i)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def weyl_vector(lie_type):
    """rho in simple-root coordinates, solved exactly from its definition
    (rho, a_i^vee) = sum_k rho_k C[k][i] = 1: the dense reference the half
    sum of the positive roots is checked against."""
    n = lie_type.rank
    cartan = cartan_matrix(lie_type)
    rows = [[Fraction(cartan[k][i]) for k in range(n)] + [Fraction(1)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, n):
            if rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    rho = [Fraction(0)] * n
    for i in reversed(range(n)):
        known = sum(rows[i][j] * rho[j] for j in range(i + 1, n) if rows[i][j])
        rho[i] = (rows[i][n] - known) / rows[i][i]
    return tuple(rho)


def symmetrized_form(lie_type):
    """Gram matrix (a_i, a_j) = d_j C[i][j] of the simple roots, long roots at
    squared length 2, in exact rationals."""
    weights = rootsys._symmetrizer(lie_type)
    denom = max(weights)
    return tuple(
        tuple(Fraction(w * c, denom) for w, c in zip(weights, row))
        for row in cartan_matrix(lie_type)
    )


def assert_key_fields(lie_type, heights, keys, width):
    """Each raw key's low W bits are the D-weighted height sum_i D d_i mu_i of
    its own base-8 digits, the digits of the sorted keys are
    `positive_roots`, and the record's counts are the multiset of the low
    bits."""
    rank = lie_type.rank
    weights = rootsys._symmetrizer(lie_type)
    mask = (1 << width) - 1
    roots = []
    for key in sorted(keys):
        digits = key_digits(key, width, rank)
        assert key & mask == sum(map(operator.mul, weights, digits)), (key, digits)
        roots.append(digits)
    assert positive_roots(lie_type) == tuple(roots)
    assert heights.counts == tuple(sorted(Counter(key & mask for key in keys).items()))


ALL_SUPPORTED = (
    [SimpleLieType(Family.A, r) for r in range(1, 9)]
    + [SimpleLieType(Family.B, r) for r in range(2, 9)]
    + [SimpleLieType(Family.C, r) for r in range(1, 9)]
    + [SimpleLieType(Family.D, r) for r in range(4, 9)]
    + [
        SimpleLieType(Family.G2, 2),
        SimpleLieType(Family.F4, 4),
        SimpleLieType(Family.E6, 6),
        SimpleLieType(Family.E7, 7),
        SimpleLieType(Family.E8, 8),
    ]
)


def test_a1_by_hand():
    # single positive root, rho = alpha/2, (rho, alpha) = 1, h_vee = 2
    heights = build_root_system(su(2))
    assert positive_roots(su(2)) == ((1,),)
    assert weyl_vector(su(2)) == (Fraction(1, 2),)
    assert minimal_pairing(su(2), weyl_vector(su(2)), (1,)) == 1
    assert heights.dual_coxeter == 2
    assert heights.dim == 3
    assert rho_pairings_killing(su(2)) == (Fraction(1, 4),)


def test_minimal_pairing_refuses_vectors_off_the_rank():
    # SU_4 has rank 3: a fourth coordinate is not dropped, and a 1-vector
    # raises no bare IndexError
    assert minimal_pairing(su(4), (1, 0, 0), (1, 0, 0)) == 2
    for u, v in [((1, 0, 0, 5), (1, 0, 0, 7)), ((1,), (1,)), ((1, 0, 0), (1,)), ((1,), (1, 0, 0))]:
        with pytest.raises(ParameterDomainError, match="SU_4: u and v need one coordinate per simple root"):
            minimal_pairing(su(4), u, v)


def test_a2_by_hand():
    assert set(positive_roots(su(3))) == {(1, 0), (0, 1), (1, 1)}
    assert build_root_system(su(3)).dual_coxeter == 3
    # simple roots pair to 1/(2 h_vee), highest root to (h_vee - 1)/(2 h_vee)
    assert sorted(rho_pairings_killing(su(3))) == [
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(1, 3),
    ]


def test_g2_by_hand():
    g2 = SimpleLieType(Family.G2, 2)
    heights = build_root_system(g2)
    assert len(positive_roots(g2)) == 6
    assert heights.dual_coxeter == 4
    assert heights.dim == 14
    # from (rho, a_1) = 1/3, (rho, a_2) = 1 and the six-root coordinate list
    assert sorted(rho_pairings_killing(g2)) == [
        Fraction(1, 24),
        Fraction(1, 8),
        Fraction(1, 6),
        Fraction(5, 24),
        Fraction(1, 4),
        Fraction(3, 8),
    ]


@pytest.mark.parametrize(
    "lie_type, h_vee, n_positive",
    [
        (su(4), 4, 6),
        (spin(5), 3, 4),
        (spin(7), 5, 9),
        (spin(8), 6, 12),
        (sp(6), 4, 9),
        (SimpleLieType(Family.F4, 4), 9, 24),
        (SimpleLieType(Family.E6, 6), 12, 36),
        (SimpleLieType(Family.E7, 7), 18, 63),
        (SimpleLieType(Family.E8, 8), 30, 120),
    ],
)
def test_known_counts_and_coxeter(lie_type, h_vee, n_positive):
    assert build_root_system(lie_type).dual_coxeter == h_vee
    assert len(positive_roots(lie_type)) == n_positive


def test_exponent_tables():
    assert exponents(su(4)) == (1, 2, 3)
    assert exponents(SimpleLieType(Family.E8, 8)) == (1, 7, 11, 13, 17, 19, 23, 29)
    assert sum(exponents(SimpleLieType(Family.E8, 8))) == 120
    assert exponents(su(2)) == (1,)
    assert exponents(spin(9)) == (1, 3, 5, 7)
    # D4 carries the doubled middle exponent
    assert exponents(spin(8)) == (1, 3, 3, 5)


@pytest.mark.parametrize(
    "lie_type", default_groups(12) + [su(40), sp(60), spin(41), spin(44)], ids=str
)
def test_exponents_match_root_heights(lie_type):
    # Kostant: the number of positive roots of height k is #{i : m_i >= k}.
    # This pins every exponent, where the walk's root limit reads only their sum
    per_height = Counter(map(sum, positive_roots(lie_type)))
    m = exponents(lie_type)
    assert per_height == {k: sum(e >= k for e in m) for k in range(1, max(m) + 1)}


@pytest.mark.parametrize("lie_type", ALL_SUPPORTED, ids=lambda t: t.compact_name)
def test_structural_invariants(lie_type):
    roots = positive_roots(lie_type)
    rank = lie_type.rank
    assert sum(exponents(lie_type)) == len(roots)
    assert build_root_system(lie_type).dim == rank + 2 * len(roots)
    # simple roots appear as unit vectors, all coordinates nonnegative
    for i in range(rank):
        unit = tuple(1 if k == i else 0 for k in range(rank))
        assert unit in roots
    assert all(all(c >= 0 for c in mu) for mu in roots)
    # definition of the Weyl vector
    rho = weyl_vector(lie_type)
    form = symmetrized_form(lie_type)
    for i in range(rank):
        unit = tuple(1 if k == i else 0 for k in range(rank))
        d_i = form[i][i] / 2
        assert minimal_pairing(lie_type, rho, unit) == d_i
    # half-sum identity
    half_sum = [Fraction(sum(mu[k] for mu in roots), 2) for k in range(rank)]
    assert list(rho) == half_sum


@pytest.mark.parametrize("lie_type", ALL_SUPPORTED, ids=lambda t: t.compact_name)
def test_pairings_inside_open_interval(lie_type):
    roots = positive_roots(lie_type)
    pairings = rho_pairings_killing(lie_type)
    assert len(pairings) == len(roots)
    assert all(0 < q < Fraction(1, 2) for q in pairings)
    # the highest root attains (h_vee - 1)/(2 h_vee)
    h_vee = build_root_system(lie_type).dual_coxeter
    top = Fraction(h_vee - 1, 2 * h_vee)
    assert max(pairings) == top
    # the weighted heights agree with the Gram-matrix contraction, one per
    # root, in increasing order
    rho = weyl_vector(lie_type)
    assert pairings == tuple(
        sorted(Fraction(minimal_pairing(lie_type, rho, mu), 2 * h_vee) for mu in roots)
    )


def test_strange_formula_on_root_data():
    # Freudenthal-de Vries: |rho|^2 = dim/24 under the Cartan-Killing form, and
    # sum over positive roots of <rho, mu>^2 = |rho|^2 / 2, since
    # sum over all roots of mu mu^T is the Killing form itself. In integers:
    # 48 sum h^2 = dim den^2, h the weighted heights and den their denominator
    groups = default_groups(12) + [su(40), sp(60), spin(41), spin(44)]
    for lie_type in groups:
        heights = build_root_system(lie_type)
        total = sum(c * h * h for h, c in heights.counts)
        assert 48 * total == heights.dim * heights.height_denominator ** 2, lie_type.compact_name


def test_reflection_closure_idempotent():
    for lie_type in (su(3), spin(8), SimpleLieType(Family.G2, 2)):
        roots = positive_roots(lie_type)
        full = set(roots) | {tuple(-c for c in mu) for mu in roots}
        again = weyl_orbit_closure(full, cartan_matrix(lie_type))
        assert again == full


# the large-rank ladder's top rungs too, where the raising walk's integer
# keys are longest
@pytest.mark.parametrize(
    "lie_type", default_groups(8) + [su(25), sp(32), spin(33), spin(34)], ids=str
)
def test_positive_roots_match_orbit_closure(lie_type):
    heights, keys, width = build_with_keys(lie_type)
    roots = positive_roots(lie_type)
    rank = lie_type.rank
    simples = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    orbit = weyl_orbit_closure(simples, cartan_matrix(lie_type))
    assert len(orbit) == 2 * len(roots)
    assert set(roots) == {v for v in orbit if min(v) >= 0}
    assert list(roots) == sorted(roots, key=lambda v: (sum(v), v))
    assert_key_fields(lie_type, heights, keys, width)


# Ranks well past 8, where the key's weighted-height field sits below 3 * rank
# bits of coordinates, each checked against a dense reference.
@pytest.mark.parametrize(
    "lie_type",
    [SimpleLieType(fam, r) for fam in (Family.A, Family.B, Family.C, Family.D)
     for r in (10, 17, 24, 64)] + [SimpleLieType(Family.E8, 8)],
    ids=str,
)
def test_key_fields_match_dense_references(lie_type):
    heights, keys, width = build_with_keys(lie_type)
    roots = positive_roots(lie_type)
    assert list(roots) == sorted(roots, key=lambda v: (sum(v), v))
    assert_key_fields(lie_type, heights, keys, width)
    assert weyl_vector(lie_type) == tuple(Fraction(sum(coords), 2) for coords in zip(*roots))


# Each injected fault below must trip its own InvariantViolationError in
# build_root_system, at the message fragment given.


def test_wrong_exponents_rejected(monkeypatch):
    true_exponents = rootsys.exponents
    monkeypatch.setattr(rootsys, "exponents", lambda t: true_exponents(t) + (1,))
    with pytest.raises(InvariantViolationError, match="exponent sum 7"):
        build_root_system(su(4))
    monkeypatch.setattr(rootsys, "exponents", lambda t: true_exponents(t)[:-1])
    with pytest.raises(InvariantViolationError, match="more than 3 positive roots"):
        build_root_system(su(4))


def test_asymmetric_symmetrizer_rejected(monkeypatch):
    monkeypatch.setattr(rootsys, "_symmetrizer", lambda t: (1,) * t.rank)
    with pytest.raises(InvariantViolationError, match="asymmetric"):
        build_root_system(SimpleLieType(Family.G2, 2))


@pytest.mark.parametrize(
    "cartan, match",
    [
        # affine A2: a 3-cycle, infinitely many positive real roots
        (((2, -1, -1), (-1, 2, -1), (-1, -1, 2)), "more than 6 positive roots"),
        # a positive off-diagonal entry: s_1 sends a_0 to a_0 - a_1, refused
        # before the walk
        (((2, 1, 0), (1, 2, -1), (0, -1, 2)), "sends positive root"),
        # a diagonal entry other than 2, refused before the walk
        (((2, -1, 0), (-1, 1, -1), (0, -1, 2)), r"Cartan diagonal C\[1\]\[1\] = 1, not 2"),
    ],
)
def test_non_finite_cartan_matrix_rejected(monkeypatch, cartan, match):
    monkeypatch.setattr(rootsys, "cartan_matrix", lambda t: cartan)
    with pytest.raises(InvariantViolationError, match=match):
        build_root_system(su(4))


def test_coordinate_above_seven_rejected(monkeypatch):
    # a_0 and a_1 pair to -5: the walk raises a_0 to (1, 5, 0), whose pairing
    # -23 with a_0 would give coordinate 24, past the 3 bits of its digit in
    # the dedup key. The guard refuses it before the root limit 6 is reached.
    monkeypatch.setattr(rootsys, "cartan_matrix", lambda t: ((2, -5, 0), (-5, 2, 0), (0, 0, 2)))
    with pytest.raises(
        InvariantViolationError,
        match=r"reflection 0 raises \(1, 5, 0\) to coordinate 24, above any root of finite type",
    ):
        build_root_system(su(4))


# B2 has 2 rho = (3, 4) and D = 2, B3 2 rho = (5, 8, 9) and D = 2; each list
# keeps the root count (4 or 9) with distinct roots, and all but the first keep
# the half sum, so the later checks are reached. The stand-in walk returns
# what the real one does: the keys sum_i mu_i steps[i] of each node (a
# root's first nonzero coordinate; 0 for the zero vector), and the pairing
# sums sum_beta <beta, a_j^vee> per node.
@pytest.mark.parametrize(
    "roots, match",
    [
        ([(1, 0), (0, 1), (1, 1), (2, 2)], "half sum"),
        ([(0, 0), (0, 1), (1, 2), (2, 1)], "non-integer dual Coxeter"),
        ([(0, 0), (1, 0), (2, 0), (0, 4)], r"weighted height 0 escapes \(0, 6\)"),
        ([(0, 1), (1, 1), (0, 2), (2, 0)], "not long"),
        # the last key (1, 2, 2) is long, but (0, 5, 0) has the larger weighted
        # height 10: h_vee read off it would be 6, not the last key's 5
        (
            [(0, 0, 1), (0, 0, 2), (0, 0, 3), (0, 1, 0), (1, 0, 0), (1, 0, 1), (2, 0, 0),
             (0, 5, 0), (1, 2, 2)],
            "weighted height 10 above the highest root's, 8",
        ),
    ],
)
def test_corrupted_roots_rejected(monkeypatch, roots, match):
    def walk(lie_type, rows, steps, width, limit):
        buckets = [[] for _ in rows]
        sums = [[0] * len(rows) for _ in rows]
        for mu in roots:
            node = next((i for i, m in enumerate(mu) if m), 0)
            buckets[node].append(sum(map(operator.mul, mu, steps)))
            for i, row in enumerate(rows):
                for j, c in row:
                    sums[node][j] += mu[i] * c
        return buckets, sums

    monkeypatch.setattr(rootsys, "_positive_roots", walk)
    with pytest.raises(InvariantViolationError, match=match):
        build_root_system(spin(2 * len(roots[0]) + 1))  # B2 or B3


@pytest.mark.parametrize(
    "family, rank",
    [(Family.A, 0), (Family.B, 1), (Family.C, 0), (Family.D, 2), (Family.D, 3)],
)
def test_rank_floors_rejected(family, rank):
    with pytest.raises(UnsupportedGroupError):
        SimpleLieType(family, rank)


@pytest.mark.parametrize("family", [Family.A, Family.B, Family.C, Family.D])
@pytest.mark.parametrize("rank", [257, 10**9])
def test_rank_above_cap_refused_before_cartan_matrix(monkeypatch, family, rank):
    # the type itself is unbounded; the build refuses it before allocating
    # rank^2 Cartan entries
    def no_cartan(lie_type):
        raise AssertionError(f"cartan_matrix called at {lie_type}")

    lie_type = SimpleLieType(family, rank)
    monkeypatch.setattr(rootsys, "cartan_matrix", no_cartan)
    with pytest.raises(UnsupportedGroupError, match=f"rank {rank} is above 256, the cap$"):
        build_root_system(lie_type)


def test_rank_cap_admits_its_own_rank(monkeypatch):
    # rank 256 builds (the walk takes at most ~0.2 s and 50 MB peak RSS, at
    # Sp_512, Spin_513 and Spin_512; `volume` there reads the counts in
    # ~2 ms); the same boundary at a small cap, for the walk and the counts
    assert rootsys._MAX_RANK == 256
    monkeypatch.setattr(rootsys, "_MAX_RANK", 5)
    for family in (Family.A, Family.B, Family.C, Family.D):
        assert build_root_system(SimpleLieType(family, 5)).lie_type.rank == 5
        assert height_counts(SimpleLieType(family, 5)).lie_type.rank == 5
        with pytest.raises(UnsupportedGroupError):
            build_root_system(SimpleLieType(family, 6))
        with pytest.raises(UnsupportedGroupError):
            height_counts(SimpleLieType(family, 6))


@pytest.mark.parametrize("family", [Family.A, Family.B, Family.C, Family.D])
def test_height_counts_match_walk(family):
    # the closed form against the walk's whole record (its multiset, 2 m and
    # h_vee) at every rank from the floor to 64 and at the cap, so route 2
    # and the key relation read the same record on either path
    for rank in [*range(rootsys._RANK_FLOOR[family], 65), 256]:
        lie_type = SimpleLieType(family, rank)
        heights, keys, width = build_with_keys(lie_type)
        assert height_counts(lie_type) == heights, lie_type
        assert rootsys._highest_root(lie_type) == key_digits(max(keys), width, rank), lie_type


@pytest.mark.parametrize(
    "lie_type, theta, match",
    [
        (su(4), (1, 1, 0), "highest root has weighted height 2, the counts top out at 3"),
        (sp(4), (0, 2), "highest root is not long$"),
    ],
)
def test_height_counts_refuse_a_wrong_highest_root(monkeypatch, lie_type, theta, match):
    # (0, 2) has C_2's top height 4 but (theta, theta) = 8
    monkeypatch.setattr(rootsys, "_highest_root", lambda t: theta)
    with pytest.raises(InvariantViolationError, match=match):
        height_counts(lie_type)


@pytest.mark.parametrize("family", [Family.A, Family.B, Family.C, Family.D])
@pytest.mark.parametrize("rank", [257, 10**9])
def test_height_counts_refuse_rank_above_cap_as_the_walk(family, rank):
    lie_type = SimpleLieType(family, rank)
    with pytest.raises(UnsupportedGroupError) as walk:
        build_root_system(lie_type)
    with pytest.raises(UnsupportedGroupError) as counts:
        height_counts(lie_type)
    assert str(counts.value) == str(walk.value)
    assert str(counts.value).endswith(f"rank {rank} is above 256, the cap")


@pytest.mark.parametrize("family", [Family.E6, Family.E7, Family.E8, Family.F4, Family.G2])
def test_height_counts_match_walk_on_e_types(family):
    # the whole record (its multiset, 2 m and h_vee) against the walk's:
    # Kostant's dual partition of the exponents on E6-E8, the epsilon-basis
    # roots on F4 and G2
    lie_type = SimpleLieType(family, EXCEPTIONAL_RANK[family])
    heights = height_counts(lie_type)
    assert heights == build_root_system(lie_type)
    assert (heights.dual_coxeter, heights.dim) == {
        Family.E6: (12, 78), Family.E7: (18, 133), Family.E8: (30, 248),
        Family.F4: (9, 52), Family.G2: (4, 14),
    }[family]
    # F4 and G2 heights are D-weighted: the dual partition of their
    # exponents is not the walk's multiset, so Kostant's rule is not used
    exps = exponents(lie_type)
    dual = tuple((k, sum(m >= k for m in exps)) for k in range(1, exps[-1] + 1))
    assert (heights.counts == dual) == (family in (Family.E6, Family.E7, Family.E8))


E6, E7, E8 = (SimpleLieType(f, EXCEPTIONAL_RANK[f]) for f in (Family.E6, Family.E7, Family.E8))
CLASSICAL = (Family.A, Family.B, Family.C, Family.D)


@pytest.fixture(scope="module")
def at_the_cap():
    # every group's record off one walk per chain at the cap, walked once
    # for the module
    return walk_groups(256)


@pytest.mark.parametrize("max_rank", [0, 1, 3, 4, 9, 40])
def test_walk_groups_reads_every_default_group_as_its_own_walk(max_rank):
    # one record per group of default_groups, in its order, read off its
    # chain's one walk (each classical family at max_rank, E6 and E7 at
    # E8, G2 and F4 alone): the record its own walk gives
    read = walk_groups(max_rank)
    assert list(read) == default_groups(max_rank)
    for lie_type, record in read.items():
        assert record == build_root_system(lie_type), lie_type


def test_chain_walk_error_goes_to_every_member(monkeypatch):
    # one exponent too few for the top SU_4 stops its walk past the root
    # limit: every member of its chain maps to that error, and none is
    # read; every other chain is read as before
    true_exponents = rootsys.exponents
    monkeypatch.setattr(
        rootsys, "exponents", lambda t: true_exponents(t)[:-1] if t == su(4) else true_exponents(t)
    )
    read = walk_groups(3)
    failed = {t: err for t, err in read.items() if isinstance(err, InvariantViolationError)}
    assert list(failed) == [su(2), su(3), su(4)]
    assert {str(err) for err in failed.values()} == {
        "SU_4: more than 3 positive roots, the exponent sum"
    }
    rest = [record for t, record in read.items() if t not in failed]
    assert all(isinstance(record, rootsys.HeightCounts) for record in rest)


@pytest.mark.parametrize("family", CLASSICAL)
def test_chain_at_the_cap_equals_its_members_walks(at_the_cap, family):
    floor = rootsys._RANK_FLOOR[family]
    assert [t for t in at_the_cap if t.family is family] == [
        SimpleLieType(family, r) for r in range(floor, 257)
    ]
    for rank in (floor, 130, 255, 256):
        lie_type = SimpleLieType(family, rank)
        assert at_the_cap[lie_type] == build_root_system(lie_type), lie_type


@pytest.mark.parametrize("family", [*CLASSICAL, Family.E8])
def test_chain_members_keep_their_cartan_entries_and_weights(family):
    # each member of a chain is the last m nodes of its top in the
    # numbering of the Cartan matrix, with the member's own Cartan matrix
    # and symmetrizer weights there: X_m in X_256 at every rank m of the
    # family, and E6 and E7 in E8
    if family is Family.E8:
        top, members = E8, (E6, E7, E8)
    else:
        top = SimpleLieType(family, 256)
        members = [SimpleLieType(family, m) for m in range(rootsys._RANK_FLOOR[family], 257)]
    cartan, weights = cartan_matrix(top), rootsys._symmetrizer(top)
    for lie_type in members:
        lo = top.rank - lie_type.rank
        assert tuple(row[lo:] for row in cartan[lo:]) == cartan_matrix(lie_type), lie_type
        assert weights[lo:] == rootsys._symmetrizer(lie_type), lie_type


def test_e_types_follow_bourbaki_in_reverse():
    # node k of E_r is Bourbaki's a_(r-k): the path 0-1-...-(r-3)-(r-1),
    # with node r-2 on node r-4; E6's highest root, Bourbaki's
    # (1, 2, 2, 3, 2, 1), reads backwards, and so do E7's and E8's
    for lie_type, theta in [
        (E6, (1, 2, 3, 2, 2, 1)), (E7, (1, 2, 3, 4, 3, 2, 2)), (E8, (2, 3, 4, 5, 6, 4, 3, 2)),
    ]:
        r = lie_type.rank
        edges = {(i, i + 1) for i in range(r - 3)} | {(r - 3, r - 1), (r - 4, r - 2)}
        cartan = cartan_matrix(lie_type)
        assert {(i, j) for i in range(r) for j in range(i + 1, r) if cartan[i][j]} == edges
        assert {cartan[i][j] for i, j in edges} == {-1}
        assert positive_roots(lie_type)[-1] == theta


@pytest.mark.parametrize(
    "top", [su(10), spin(19), sp(18), spin(18), E8], ids=lambda t: t.compact_name
)
def test_walk_buckets_each_root_by_its_first_nonzero_coordinate(monkeypatch, top):
    # a member's roots are the keys of its nodes: the walk buckets a root by
    # its first nonzero coordinate, on A-D and E8 alike, since each member
    # keeps its top's last nodes; every root lands in exactly one bucket
    walk, seen = rootsys._positive_roots, {}

    def capture(lie_type, rows, steps, width, limit):
        buckets, sums = walk(lie_type, rows, steps, width, limit)
        seen.update(buckets=buckets, width=width)
        return buckets, sums

    monkeypatch.setattr(rootsys, "_positive_roots", capture)
    build_root_system(top)
    keys = [k for bucket in seen["buckets"] for k in bucket]
    assert len(set(keys)) == len(keys) == sum(exponents(top))
    for node, bucket in enumerate(seen["buckets"]):
        for key in bucket:
            support = [i for i, d in enumerate(key_digits(key, seen["width"], top.rank)) if d]
            assert node == support[0], (node, support)


def test_default_groups_refuse_max_rank_above_cap(monkeypatch):
    # refused before the list is made, so no root system is walked: a max
    # rank of 10^9 used to ask for ~4 * 10^9 group records
    forbid_walks(monkeypatch)
    assert len(default_groups(256)) == 256 + 255 + 256 + 253 + 5
    for max_rank in (257, 10**9):
        with pytest.raises(UnsupportedGroupError, match=f"^max rank {max_rank} is above 256"):
            default_groups(max_rank)
    monkeypatch.setattr(rootsys, "_MAX_RANK", 5)
    assert len(default_groups(5)) == 5 + 4 + 5 + 2 + 5
    with pytest.raises(UnsupportedGroupError):
        default_groups(6)


def test_exceptional_rank_fixed():
    for family, rank in ((Family.E6, 5), (Family.E8, 8.0)):
        with pytest.raises(UnsupportedGroupError, match=f"fixed rank {EXCEPTIONAL_RANK[family]}"):
            SimpleLieType(family, rank)
    assert SimpleLieType(Family.F4, 4).compact_name == "F4"


def test_compact_name_helpers():
    assert su(5).compact_name == "SU_5"
    assert spin(11) == SimpleLieType(Family.B, 5)
    assert spin(12) == SimpleLieType(Family.D, 6)
    assert sp(6) == SimpleLieType(Family.C, 3)
    with pytest.raises(UnsupportedGroupError):
        su(1)
    with pytest.raises(UnsupportedGroupError, match="^Spin_6 is rejected as isomorphic to SU_4"):
        spin(6)  # D3 presentation rejected
    with pytest.raises(UnsupportedGroupError):
        sp(5)


def test_cartan_matrix_shapes():
    c = cartan_matrix(SimpleLieType(Family.G2, 2))
    assert c == ((2, -1), (-3, 2))
    c = cartan_matrix(spin(5))
    assert c == ((2, -2), (-1, 2))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(ALL_SUPPORTED))
def test_gram_matrix_properties(lie_type):
    g = symmetrized_form(lie_type)
    n = lie_type.rank
    assert all(g[i][j] == g[j][i] for i in range(n) for j in range(n))
    # long-root normalization: every diagonal entry is 2, 1, or 2/3
    assert {g[i][i] for i in range(n)} <= {2, 1, Fraction(2, 3)}
    theta = positive_roots(lie_type)[-1]
    assert minimal_pairing(lie_type, theta, theta) == 2
