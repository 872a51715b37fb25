"""Parameter table, dimension formula, and sinh-ratio generator."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lievol.errors import DivergenceSetError, ParameterDomainError
from lievol.rootsys import Family, SimpleLieType, build_root_system, default_groups, sp, spin, su
from lievol.vogel import (
    VogelPoint,
    dim_from_vogel,
    in_divergence_set,
    key_relation_residual,
    log_sinhc,
    phi_start_scale,
    sinh_product_excess,
    small_x_quadratic_coeff,
    spin_row_point,
    vogel_point,
)


def test_table_rows_match_published_values():
    cases = {
        "SU_5": (-2.0, 2.0, 5.0, 5.0),
        "Spin_10": (-2.0, 4.0, 6.0, 8.0),
        "Sp_2": (-2.0, 1.0, 3.0, 2.0),
        "Sp_16": (-2.0, 1.0, 10.0, 9.0),
        "G2": (-2.0, 10.0 / 3.0, 8.0 / 3.0, 4.0),
        "F4": (-2.0, 5.0, 6.0, 9.0),
        "E6": (-2.0, 6.0, 8.0, 12.0),
        "E7": (-2.0, 8.0, 12.0, 18.0),
        "E8": (-2.0, 12.0, 20.0, 30.0),
    }
    rows = {g.compact_name: vogel_point(g) for g in default_groups(8)}
    for label, (a, b, g, t) in cases.items():
        p = rows[label]
        assert (p.alpha, p.beta, p.gamma, p.t) == (a, b, g, t), label


def test_table_t_equals_dual_coxeter():
    for g in default_groups(8):
        rs = build_root_system(g)
        assert float(rs.dual_coxeter) == vogel_point(g).t, g


def test_spin_row_point_covers_n6():
    p = spin_row_point(6)
    assert (p.alpha, p.beta, p.gamma, p.t) == (-2.0, 4.0, 2.0, 4.0)
    assert round(dim_from_vogel(p)) == 15
    with pytest.raises(ParameterDomainError):
        spin_row_point(4)


def test_dimension_formula_values():
    for n in range(2, 10):
        p = vogel_point(su(n))
        assert dim_from_vogel(p) == pytest.approx(n * n - 1, abs=1e-10)
    assert dim_from_vogel(VogelPoint(-2.0, 12.0, 20.0)) == pytest.approx(248, abs=1e-10)
    assert dim_from_vogel(VogelPoint(-2.0, 2.0, 1.0)) == 0.0
    assert dim_from_vogel(vogel_point(sp(2))) == pytest.approx(3, abs=1e-12)
    assert dim_from_vogel(vogel_point(spin(10))) == pytest.approx(45, abs=1e-10)


def test_dimension_formula_domain():
    with pytest.raises(ParameterDomainError):
        dim_from_vogel(VogelPoint(0.0, 1.0, -3.0))
    with pytest.raises(ParameterDomainError):
        VogelPoint(1.0, 1.0, -2.0)  # t = 0
    # the quotient, about 1e600, leaves double range: inf, as the plain
    # quotient gave, so the integrand stops with the same error
    assert dim_from_vogel(VogelPoint(-2.0, 2.0, 1e300)) == math.inf
    # 2t overflows at the last two, 4t at all three: the differences q - 2t
    # are taken shifted by a power of two
    for s in (5e307, 1e308, 1.7e308):
        assert dim_from_vogel(VogelPoint(-s, s, s)) == pytest.approx(3.0, rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-9, 9).filter(lambda v: abs(v) > 1e-2),
    st.floats(-9, 9).filter(lambda v: abs(v) > 1e-2),
    st.floats(-9, 9).filter(lambda v: abs(v) > 1e-2),
    st.sampled_from([0.5, 3.0, -1.0, 7.0, 1e-300, 1e300]),
)
def test_dim_scale_and_permutation_invariant(a, b, g, lam):
    if abs(a + b + g) < 1e-3:
        return
    base = dim_from_vogel(VogelPoint(a, b, g))
    scaled = dim_from_vogel(VogelPoint(lam * a, lam * b, lam * g))
    assert scaled == pytest.approx(base, rel=1e-9, abs=1e-9)
    for perm in ((b, a, g), (g, b, a), (b, g, a)):
        assert dim_from_vogel(VogelPoint(*perm)) == pytest.approx(base, rel=1e-12, abs=1e-12)


def _plain_products(p):
    """The dimension formula's numerator and denominator as plain float
    products, after the partial products they round: the quotient of the
    last two is the reference where all four and it are normal."""
    t2 = 2.0 * p.t
    num2 = (p.alpha - t2) * (p.beta - t2)
    den2 = p.alpha * p.beta
    return num2, den2, num2 * (p.gamma - t2), den2 * p.gamma


def _normal(x):
    return sys.float_info.min <= abs(x) < math.inf


# a parameter: a signed mantissa times a power of ten, so that the products
# reach both ends of the double range
_SPREAD_PARAM = st.builds(
    lambda m, k: m * 10.0**k,
    st.floats(-9, 9).filter(lambda v: abs(v) > 1e-3),
    st.integers(-110, 110),
)


@settings(max_examples=300, deadline=None)
@given(_SPREAD_PARAM, _SPREAD_PARAM, _SPREAD_PARAM)
def test_dim_bit_equal_to_plain_quotient_where_normal(a, b, g):
    try:
        p = VogelPoint(a, b, g)
    except ParameterDomainError:
        return  # t = 0
    products = _plain_products(p)
    if all(map(_normal, products)):
        want = products[2] / products[3]
        if want == 0.0 or _normal(want):
            assert dim_from_vogel(p).hex() == want.hex()


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_phi_start_scale_is_4t_on_alpha_minus_2(b, g):
    # every table row and every benchmark point has this form
    for perm in ((-2.0, b, g), (b, -2.0, g), (g, b, -2.0)):
        try:
            p = VogelPoint(*perm)
        except ParameterDomainError:
            continue  # t = 0, as at b = g = 1
        if p.t > 0.0:
            assert phi_start_scale(p) == 4.0 * p.t


# multiples of 1/8: every order of the sum gives the same t
_DYADIC = st.integers(-400, 400).map(lambda k: k / 8.0)


@settings(max_examples=100, deadline=None)
@given(_DYADIC, _DYADIC, _DYADIC)
def test_phi_start_scale_permutation_invariant(a, b, g):
    try:
        p = VogelPoint(a, b, g)
    except ParameterDomainError:
        return
    if in_divergence_set(p):
        return
    scale = phi_start_scale(p)
    for perm in ((b, a, g), (g, b, a), (a, g, b), (b, g, a), (g, a, b)):
        assert phi_start_scale(VogelPoint(*perm)) == scale


def test_divergence_set_membership():
    assert in_divergence_set(VogelPoint(1.0, 1.0, 1.0))
    assert in_divergence_set(VogelPoint(0.0, 1.0, 1.0))  # boundary included
    assert not in_divergence_set(VogelPoint(-2.0, 2.0, 5.0))
    assert not in_divergence_set(VogelPoint(2.0, -2.0, -5.0))  # same projective point
    for g in default_groups(8):
        assert not in_divergence_set(vogel_point(g)), g
    with pytest.raises(DivergenceSetError):  # no parameter has q/t < 0
        phi_start_scale(VogelPoint(1.0, 1.0, 1.0))


@pytest.mark.parametrize("a", [-1e-300, -1e-290, -5e-324])
def test_divergence_set_reads_signs_not_rounded_ratios(a):
    # a/t rounds to -0.0 at a = -1e-300, t = 1e30: still outside the set, and
    # its decay length 8t/|a| leaves double range
    p = VogelPoint(a, 1e30, 1.0)
    assert not in_divergence_set(p)
    with pytest.raises(ParameterDomainError):
        phi_start_scale(p)


def test_excess_vanishing_point():
    p = VogelPoint(-2.0, 2.0, 1.0)
    for x in (0.1, 1.0, 7.0, 40.0):
        assert sinh_product_excess(x, p) == 0.0


def test_excess_su2_closed_form():
    # (-2, 2, 2) collapses to sinh(3y)/sinh(y) - 3 with y = x/4,
    # i.e. 2 cosh(x/2) - 2
    p = VogelPoint(-2.0, 2.0, 2.0)
    for x in (0.01, 0.5, 1.0, 3.0, 20.0):
        want = 2.0 * math.cosh(x / 2.0) - 2.0
        assert sinh_product_excess(x, p) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("z", [2.0, 3.0, 5.5, 9.0])
def test_excess_unitary_line_closed_form(z):
    # on alpha + beta = 0 the product reduces to
    # (cosh x - 1)/(2 sinh^2(x/2z)) - z^2
    p = VogelPoint(-2.0, 2.0, z)
    for x in (0.3, 1.0, 4.0):
        want = (math.cosh(x) - 1.0) / (2.0 * math.sinh(x / (2.0 * z)) ** 2) - z * z
        assert sinh_product_excess(x, p) == pytest.approx(want, rel=1e-12)


def test_excess_even_in_x():
    p = vogel_point(SimpleLieType(Family.F4, 4))
    for x in (1e-4, 0.37, 2.0):
        assert sinh_product_excess(x, p) == sinh_product_excess(-x, p)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 5.0), st.sampled_from([0.5, 2.0, 3.0]))
def test_excess_projective_invariance(x, lam):
    base = VogelPoint(-2.0, 2.0, 5.0)
    scaled = VogelPoint(-2.0 * lam, 2.0 * lam, 5.0 * lam)
    permuted = VogelPoint(5.0, -2.0, 2.0)
    f0 = sinh_product_excess(x, base)
    assert sinh_product_excess(x, scaled) == pytest.approx(f0, rel=1e-11, abs=1e-13)
    assert sinh_product_excess(x, permuted) == pytest.approx(f0, rel=1e-11, abs=1e-13)


def test_excess_small_x_limit_matches_quadratic_coeff():
    for g in default_groups(4):
        p = vogel_point(g)
        x = 1e-6
        got = sinh_product_excess(x, p) / (x * x)
        assert got == pytest.approx(small_x_quadratic_coeff(p), rel=1e-9), g


def test_excess_overflow_reports_threshold():
    p = vogel_point(su(3))
    with pytest.raises(OverflowError) as err:
        sinh_product_excess(5000.0, p)
    assert "5000" in str(err.value)


def test_log_sinhc_branch_continuity():
    # series/direct switch and the log-space switch at 350
    from lievol.vogel import SINHC_SERIES_CUTOFF

    for y in (SINHC_SERIES_CUTOFF, 350.0):
        lo = log_sinhc(math.nextafter(y, 0.0))
        hi = log_sinhc(math.nextafter(y, math.inf))
        assert hi == pytest.approx(lo, rel=1e-12, abs=1e-18)
    assert log_sinhc(0.0) == 0.0
    assert log_sinhc(-3.0) == log_sinhc(3.0)


def test_key_relation_a1_by_hand():
    rs = build_root_system(su(2))
    x = 1.0
    # both sides are 2 cosh(1/2) - 2; the residual is their difference
    assert abs(key_relation_residual(rs, x)) < 1e-14
    lhs = math.exp(0.5) + math.exp(-0.5) - 2.0
    assert sinh_product_excess(x, vogel_point(su(2))) == pytest.approx(lhs, rel=1e-14)


def test_key_relation_vanishes_at_zero():
    for lie_type in (su(3), spin(9), SimpleLieType(Family.E7, 7)):
        rs = build_root_system(lie_type)
        assert abs(key_relation_residual(rs, 1e-8)) < 1e-12


def test_key_relation_g2():
    rs = build_root_system(SimpleLieType(Family.G2, 2))
    assert abs(key_relation_residual(rs, 1.0)) < 1e-12


@pytest.mark.parametrize("lie_type", default_groups(8), ids=str)
def test_key_relation_all_rows(lie_type):
    rs = build_root_system(lie_type)
    for x in (0.1, 1.0, 5.0):
        assert abs(key_relation_residual(rs, x)) <= 1e-9 * rs.dim
