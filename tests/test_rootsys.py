"""Root-system construction: exact examples and structural invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lievol import rootsys
from lievol.errors import InvariantViolationError, UnsupportedGroupError
from lievol.rootsys import (
    Family,
    SimpleLieType,
    build_root_system,
    cartan_matrix,
    default_groups,
    exponents,
    minimal_pairing,
    rho_pairings_killing,
    sp,
    spin,
    su,
)


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


def weyl_vector(rs):
    """rho in simple-root coordinates, solved exactly from its definition
    (rho, a_i^vee) = sum_k rho_k C[k][i] = 1: the dense reference the half
    sum of the positive roots is checked against."""
    n = rs.rank
    rows = [[Fraction(rs.cartan_matrix[k][i]) for k in range(n)] + [Fraction(1)]
            for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return tuple(rows[i][n] / rows[i][i] for i in range(n))


def symmetrized_form(rs):
    """Gram matrix (a_i, a_j) = d_j C[i][j] of the simple roots, long roots at
    squared length 2, in exact rationals."""
    weights = rootsys._symmetrizer(rs.lie_type)
    denom = max(weights)
    return tuple(
        tuple(Fraction(w * c, denom) for w, c in zip(weights, row)) for row in rs.cartan_matrix
    )


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
    rs = build_root_system(su(2))
    assert rs.positive_roots == ((1,),)
    assert weyl_vector(rs) == (Fraction(1, 2),)
    assert minimal_pairing(rs, weyl_vector(rs), (1,)) == 1
    assert rs.dual_coxeter == 2
    assert rs.dim == 3
    assert rho_pairings_killing(rs) == (Fraction(1, 4),)


def test_a2_by_hand():
    rs = build_root_system(su(3))
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}
    assert rs.dual_coxeter == 3
    # simple roots pair to 1/(2 h_vee), highest root to (h_vee - 1)/(2 h_vee)
    assert sorted(rho_pairings_killing(rs)) == [
        Fraction(1, 6),
        Fraction(1, 6),
        Fraction(1, 3),
    ]


def test_g2_by_hand():
    rs = build_root_system(SimpleLieType(Family.G2, 2))
    assert len(rs.positive_roots) == 6
    assert rs.dual_coxeter == 4
    assert rs.dim == 14
    # from (rho, a_1) = 1/3, (rho, a_2) = 1 and the six-root coordinate list
    assert sorted(rho_pairings_killing(rs)) == [
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
    rs = build_root_system(lie_type)
    assert rs.dual_coxeter == h_vee
    assert len(rs.positive_roots) == n_positive


def test_exponent_tables():
    assert exponents(su(4)) == (1, 2, 3)
    assert exponents(SimpleLieType(Family.E8, 8)) == (1, 7, 11, 13, 17, 19, 23, 29)
    assert sum(exponents(SimpleLieType(Family.E8, 8))) == 120
    assert exponents(su(2)) == (1,)
    assert exponents(spin(9)) == (1, 3, 5, 7)
    # D4 carries the doubled middle exponent
    assert exponents(spin(8)) == (1, 3, 3, 5)


@pytest.mark.parametrize("lie_type", ALL_SUPPORTED, ids=lambda t: t.compact_name)
def test_structural_invariants(lie_type):
    rs = build_root_system(lie_type)
    assert sum(rs.exponents) == len(rs.positive_roots)
    assert rs.dim == rs.rank + 2 * len(rs.positive_roots)
    # simple roots appear as unit vectors, all coordinates nonnegative
    for i in range(rs.rank):
        unit = tuple(1 if k == i else 0 for k in range(rs.rank))
        assert unit in rs.positive_roots
    assert all(all(c >= 0 for c in mu) for mu in rs.positive_roots)
    # definition of the Weyl vector
    rho = weyl_vector(rs)
    form = symmetrized_form(rs)
    for i in range(rs.rank):
        unit = tuple(1 if k == i else 0 for k in range(rs.rank))
        d_i = form[i][i] / 2
        assert minimal_pairing(rs, rho, unit) == d_i
    # half-sum identity
    half_sum = [
        Fraction(sum(mu[k] for mu in rs.positive_roots), 2) for k in range(rs.rank)
    ]
    assert list(rho) == half_sum


@pytest.mark.parametrize("lie_type", ALL_SUPPORTED, ids=lambda t: t.compact_name)
def test_pairings_inside_open_interval(lie_type):
    rs = build_root_system(lie_type)
    pairings = rho_pairings_killing(rs)
    assert len(pairings) == len(rs.positive_roots)
    assert all(0 < q < Fraction(1, 2) for q in pairings)
    # the highest root attains (h_vee - 1)/(2 h_vee)
    top = Fraction(rs.dual_coxeter - 1, 2 * rs.dual_coxeter)
    assert max(pairings) == top
    # the weighted heights agree with the Gram-matrix contraction
    rho = weyl_vector(rs)
    assert pairings == tuple(
        Fraction(minimal_pairing(rs, rho, mu), 2 * rs.dual_coxeter)
        for mu in rs.positive_roots
    )


def test_reflection_closure_idempotent():
    for lie_type in (su(3), spin(8), SimpleLieType(Family.G2, 2)):
        rs = build_root_system(lie_type)
        full = set(rs.positive_roots) | {
            tuple(-c for c in mu) for mu in rs.positive_roots
        }
        again = weyl_orbit_closure(full, rs.cartan_matrix)
        assert again == full


@pytest.mark.parametrize("lie_type", default_groups(8), ids=str)
def test_positive_roots_match_orbit_closure(lie_type):
    rs = build_root_system(lie_type)
    simples = [tuple(int(k == i) for k in range(rs.rank)) for i in range(rs.rank)]
    orbit = weyl_orbit_closure(simples, rs.cartan_matrix)
    assert len(orbit) == 2 * len(rs.positive_roots)
    assert set(rs.positive_roots) == {v for v in orbit if min(v) >= 0}


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
        # a positive off-diagonal entry: s_0 sends a_1 to a_1 - a_0
        (((2, 1, 0), (1, 2, -1), (0, -1, 2)), "sends positive root"),
    ],
)
def test_non_finite_cartan_matrix_rejected(monkeypatch, cartan, match):
    monkeypatch.setattr(rootsys, "cartan_matrix", lambda t: cartan)
    with pytest.raises(InvariantViolationError, match=match):
        build_root_system(su(4))


# B2 has 2 rho = (3, 4) and D = 2; each list keeps the root count 4, and all
# but the first keep the half sum, so the later checks are reached.
@pytest.mark.parametrize(
    "roots, match",
    [
        ([(1, 0), (0, 1), (1, 1), (2, 2)], "half sum"),
        ([(0, 1), (0, 1), (1, 1), (2, 1)], "non-integer dual Coxeter"),
        ([(0, 0), (0, 0), (3, 0), (0, 4)], "escapes"),
        ([(1, 0), (0, 2), (0, 2), (2, 0)], "not long"),
    ],
)
def test_corrupted_roots_rejected(monkeypatch, roots, match):
    monkeypatch.setattr(rootsys, "_positive_roots", lambda *args: list(roots))
    with pytest.raises(InvariantViolationError, match=match):
        build_root_system(spin(5))


@pytest.mark.parametrize(
    "family, rank",
    [(Family.A, 0), (Family.B, 1), (Family.C, 0), (Family.D, 2), (Family.D, 3)],
)
def test_rank_floors_rejected(family, rank):
    with pytest.raises(UnsupportedGroupError):
        SimpleLieType(family, rank)


def test_exceptional_rank_fixed():
    with pytest.raises(UnsupportedGroupError):
        SimpleLieType(Family.E6, 5)
    assert SimpleLieType(Family.F4, 4).compact_name == "F4"


def test_compact_name_helpers():
    assert su(5).compact_name == "SU_5"
    assert spin(11) == SimpleLieType(Family.B, 5)
    assert spin(12) == SimpleLieType(Family.D, 6)
    assert sp(6) == SimpleLieType(Family.C, 3)
    with pytest.raises(UnsupportedGroupError):
        su(1)
    with pytest.raises(UnsupportedGroupError):
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
    rs = build_root_system(lie_type)
    g = symmetrized_form(rs)
    n = rs.rank
    assert all(g[i][j] == g[j][i] for i in range(n) for j in range(n))
    # long-root normalization: every diagonal entry is 2, 1, or 2/3
    assert {g[i][i] for i in range(n)} <= {2, 1, Fraction(2, 3)}
    assert minimal_pairing(rs, rs.highest_root, rs.highest_root) == 2
