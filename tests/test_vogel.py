"""Parameter table, dimension formula, and sinh-ratio generator."""

import math
import operator
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lievol import rootsys, vogel
from lievol.errors import DivergenceSetError, ParameterDomainError
from lievol.rootsys import (
    Family,
    SimpleLieType,
    build_root_system,
    default_groups,
    sp,
    spin,
    su,
)
from lievol.vogel import (
    VogelPoint,
    _ratio_slopes,
    dim_from_vogel,
    key_relation_residual,
    log_sinhc,
    phi_integrand,
    phi_start_scale,
    sinh_product_excess,
    spin_row_point,
    vogel_point,
)
from phi_reference import PhiReference
from roots import positive_roots


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
        assert float(build_root_system(g).dual_coxeter) == vogel_point(g).t, g


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


def test_point_computes_dim_and_slopes_once_on_first_use(monkeypatch):
    # nothing at construction; then one dimension and one set of slopes,
    # whatever reads them, and the same numbers as a fresh computation
    calls = []
    for name in ("_dimension", "_slopes"):
        fn = getattr(vogel, name)
        monkeypatch.setattr(vogel, name, lambda p, fn=fn, name=name: calls.append(name) or fn(p))
    p = VogelPoint(-2.0, 2.0, 4.5)
    assert calls == [] and list(p.__dict__) == ["alpha", "beta", "gamma", "t", "params"]
    f = phi_integrand(p)
    dim = dim_from_vogel(p)
    excess = sinh_product_excess(1.0, p)
    assert sorted(calls) == ["_dimension", "_slopes"]
    fresh = VogelPoint(-2.0, 2.0, 4.5)
    assert (f(1.0), dim, excess) == (
        phi_integrand(fresh)(1.0), dim_from_vogel(fresh), sinh_product_excess(1.0, fresh)
    )
    assert p == fresh and repr(p) == "VogelPoint(alpha=-2.0, beta=2.0, gamma=4.5)"
    # a zero parameter is refused on every read, not at construction, so the
    # divergence-set refusal of the start scale comes first
    q = VogelPoint(0.0, 1.0, 1.0)
    for _ in range(2):
        with pytest.raises(ParameterDomainError, match="nonzero"):
            dim_from_vogel(q)
    with pytest.raises(DivergenceSetError):
        phi_start_scale(q)


def test_vogel_point_is_one_point_per_type():
    for lie_type in default_groups(8):
        assert vogel_point(lie_type) is vogel_point(lie_type)
    assert vogel_point(su(3)) is vogel_point(SimpleLieType(Family.A, 2))


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
    try:
        scale = phi_start_scale(p)
    except DivergenceSetError:
        return
    for perm in ((b, a, g), (g, b, a), (a, g, b), (b, g, a), (g, a, b)):
        assert phi_start_scale(VogelPoint(*perm)) == scale


def test_divergence_set_membership():
    with pytest.raises(DivergenceSetError):  # no parameter has q/t < 0
        phi_start_scale(VogelPoint(1.0, 1.0, 1.0))
    with pytest.raises(DivergenceSetError):  # boundary included
        phi_start_scale(VogelPoint(0.0, 1.0, 1.0))
    assert phi_start_scale(VogelPoint(-2.0, 2.0, 5.0)) > 0.0
    assert phi_start_scale(VogelPoint(2.0, -2.0, -5.0)) > 0.0  # same projective point
    for g in default_groups(8):
        assert phi_start_scale(vogel_point(g)) > 0.0, g


@pytest.mark.parametrize("a", [-1e-300, -1e-290, -5e-324])
def test_divergence_set_reads_signs_not_rounded_ratios(a):
    # a/t rounds to -0.0 at a = -1e-300, t = 1e30: still outside the set (no
    # DivergenceSetError), and its decay length 8t/|a| leaves double range
    p = VogelPoint(a, 1e30, 1.0)
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


def test_excess_small_x_limit_matches_integrand_at_zero():
    for g in default_groups(4):
        p = vogel_point(g)
        x = 1e-6
        got = sinh_product_excess(x, p) / (x * x)
        assert got == pytest.approx(phi_integrand(p)(0.0), rel=1e-9), g


def test_integrand_limit_is_dim_over_twelve():
    # sum_i (a_i^2 - b_i^2) = 1/2 at every point, so the x -> 0 limit
    # k/6 sum_i (a_i^2 - b_i^2) is dim/12: the strange formula through the
    # universal parameters. phi_integrand sums the rounded slopes instead of
    # returning dim/12, so that the limit shows their rounding at extreme
    # ratios; on the table rows the two agree to a few ulps
    for g in default_groups(12):
        p = vogel_point(g)
        assert phi_integrand(p)(0.0) == pytest.approx(dim_from_vogel(p) / 12.0, rel=1e-14), g


def _branch_abscissae(x_lo, x_hi, extra):
    xs = [0.0, 5e-13, 1e-12, 1e-6, 0.3, 2.0, 50.0, 100.0, 700.0, 720.0, 800.0, 5000.0, extra]
    if x_lo < x_hi:
        xs += [0.5 * x_lo, math.nextafter(x_lo, 0.0), x_lo, math.sqrt(x_lo * x_hi),
               math.nextafter(x_hi, 0.0), x_hi, 2.0 * x_hi]
    return xs


def _unitary_point(position, order, j, num, e):
    """A point on the unitary line, its parameters j 2^e, -j 2^e and
    num 2^e (= t, placed at `position`), all of whose sums are exact, so
    that t equals the third parameter wherever it sits."""
    pair = [math.ldexp(j, e), math.ldexp(-j, e)][::order]
    pair.insert(position, math.ldexp(num, e))
    return VogelPoint(*pair)


# (-2, 2, 1/2), where l stays below 45 in the closed form and expm1(x)
# overflows, (-2, 2, 9) up to order and scale, where l - x reaches the
# e^{q - lam x} form, (-2, 2, 1), where a slope is 0 and there is no band,
# and (1, -1, 200), whose x_lo = 120 leaves samples with l and x past 45,
# the e^{l - x} form, to the log_sinhc sum: between them every branch of
# the integrand (test below)
_BRANCH_EXAMPLES = [(2, 1, 4, 1, 0), (0, -1, 2, 9, 0), (2, 1, 2, 1, 0), (2, 1, 1, 200, 0)]


@settings(max_examples=300, deadline=None)
@example(*_BRANCH_EXAMPLES[0], 3.7)
@example(*_BRANCH_EXAMPLES[1], 3.7)
@example(*_BRANCH_EXAMPLES[2], 3.7)
@example(*_BRANCH_EXAMPLES[3], 3.7)
@given(
    st.integers(0, 2),
    st.sampled_from([1, -1]),
    st.integers(1, 2**20),
    st.integers(-(2**20), 2**20).filter(bool),
    st.integers(-1000, 996),
    st.floats(1e-14, 1e6),
)
def test_phi_integrand_bit_equal_to_three_pair_form_on_unitary_line(position, order, j, num, e, x):
    # the unitary-line closure drops the unit factor and shares one
    # denominator between the two others; the cancelling parameter in each
    # position, at scales 2^-1000 ~ 1e-301 to 2^1016 ~ 1e306, and both signs of t
    p = _unitary_point(position, order, j, num, e)
    assert p.t == p.params[position]
    f, ref = phi_integrand(p), PhiReference(p)
    for y in _branch_abscissae(*ref.band, x):
        assert f(y).hex() == ref(y).hex(), y


@pytest.mark.parametrize(
    "base",
    [vogel_point(g).params for g in default_groups(12)]
    # t rounds to 1.0, but the other two parameters do not cancel
    + [(1.0, 0.3, -math.nextafter(0.3, 0.0)), (1.0, 0.7, -math.nextafter(0.7, 0.0))],
    ids=repr,
)
def test_phi_integrand_bit_equal_to_three_pair_form_off_unitary_line(base):
    # SU rows take the unitary-line closure, Sp, SO and exceptional rows
    # and the points where t absorbs a parameter the three-pair one; each
    # rescaled and permuted
    for e, perm in ((0, (0, 1, 2)), (-1000, (2, 0, 1)), (990, (1, 2, 0))):
        p = VogelPoint(*(math.ldexp(base[i], e) for i in perm))
        f, ref = phi_integrand(p), PhiReference(p)
        for y in _branch_abscissae(*ref.band, 3.7):
            assert f(y).hex() == ref(y).hex(), (e, y)


def test_three_pair_reference_reaches_every_branch():
    seen = set()
    for args in _BRANCH_EXAMPLES:
        ref = PhiReference(_unitary_point(*args))
        for y in _branch_abscissae(*ref.band, 3.7):
            ref(y)
        seen |= ref.branches
    assert seen == {"limit", "below band", "closed form", "no band", "exp(l - x)",
                    "exp(q - lam x)", "overflow"}


def test_sinh_is_odd_bit_for_bit():
    # key_relation_residual squares sinh(h x / den), so with sinh odd it is
    # even in x bit for bit, as sinh_product_excess is (log_sinhc reads |y|)
    for y in (0.15, 0.37, 1.0, 22.0, 350.0, 599.9):
        assert math.sinh(-y) == -math.sinh(y)
    heights = build_root_system(su(4))
    for x in (0.3, 1.0, 2.5):
        assert key_relation_residual(heights, -x) == key_relation_residual(heights, x), x


@pytest.mark.parametrize("p, per_sample", [
    (VogelPoint(-2.0, 2.0, 5.0), 3),  # SU_5's row, the unitary line
    (VogelPoint(3.0, -1.5, 1.5), 3),  # the cancelling parameter first
    (VogelPoint(-2.0, 4.0, 5.0), 6),  # Spin_9's row
    (VogelPoint(-2.0, 1.0, 5.0), 6),  # Sp_6's row
], ids=repr)
def test_phi_integrand_sinh_count(monkeypatch, p, per_sample):
    # three expm1 per closed-form sample on the unitary line, six off it, and
    # as many log_sinhc calls per sample below x_lo; beyond those, each
    # sample below x = 45 takes the two expm1 of expm1(l)/(x expm1(x)). No
    # sample, nor the closure's build, takes a sinh but inside log_sinhc
    calls = {"sinh": 0, "expm1": 0, "log_sinhc": 0}
    inside = []

    def count(name, fn):
        def counted(y):
            calls[name] += not inside  # a sinh inside log_sinhc is log_sinhc's
            inside.append(y)
            try:
                return fn(y)
            finally:
                inside.pop()
        return counted

    monkeypatch.setattr(math, "sinh", count("sinh", math.sinh))
    monkeypatch.setattr(math, "expm1", count("expm1", math.expm1))
    monkeypatch.setattr(vogel, "log_sinhc", count("log_sinhc", vogel.log_sinhc))
    f = phi_integrand(p)
    x_lo, x_hi = PhiReference(p).band
    assert 0.0 < x_lo < x_hi and math.sqrt(x_lo * x_hi) < 45.0
    for x, want in ((math.sqrt(x_lo * x_hi), (per_sample + 2, 0)),
                    (0.5 * x_lo, (2, per_sample))):
        calls.update(expm1=0, log_sinhc=0)
        f(x)
        assert (calls["expm1"], calls["log_sinhc"]) == want, x
    for x in _branch_abscissae(x_lo, x_hi, 3.7):
        f(x)
    assert calls["sinh"] == 0


@pytest.mark.parametrize("lie_type", [SimpleLieType(Family.F4, 4), spin(13)], ids=str)
def test_excess_adds_its_terms_left_to_right(lie_type):
    # the three log-ratio terms are added with `+`, left to right, on every
    # interpreter: the built-in sum of floats is compensated from Python 3.12
    # on, and would move `check`'s key-relation residuals of these rows
    p = vogel_point(lie_type)
    (a1, b1), (a2, b2), (a3, b3) = _ratio_slopes(p)
    for x in (0.1, 1.0, 5.0):
        ell = log_sinhc(a1 * x) - log_sinhc(b1 * x)
        ell = ell + (log_sinhc(a2 * x) - log_sinhc(b2 * x))
        ell = ell + (log_sinhc(a3 * x) - log_sinhc(b3 * x))
        assert sinh_product_excess(x, p) == dim_from_vogel(p) * math.expm1(ell), x


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
    # the series branch reads 0 at both zeros
    assert math.copysign(1.0, log_sinhc(0.0)) == math.copysign(1.0, log_sinhc(-0.0)) == 1.0
    assert log_sinhc(0.0) == 0.0
    assert log_sinhc(-3.0) == log_sinhc(3.0)


@pytest.mark.parametrize(
    "y", [350.0, math.nextafter(350.0, math.inf), 372.0, 1e3, 1e10, 1e300], ids=repr
)
def test_log_sinhc_drops_a_term_below_half_an_ulp(y):
    # from 350 on, log sinh y = y - log 2y + log1p(-e^{-2y}); the last term
    # is below 1e-304 in size (-0.0 once e^{-2y} underflows) and changes no bit
    full = y - math.log(2.0 * y) + math.log1p(-math.exp(-2.0 * y))
    assert log_sinhc(y).hex() == log_sinhc(-y).hex() == full.hex()


def test_key_relation_a1_by_hand():
    heights = build_root_system(su(2))
    x = 1.0
    # both sides are 2 cosh(1/2) - 2; the residual is their difference
    assert abs(key_relation_residual(heights, x)) < 1e-14
    lhs = math.exp(0.5) + math.exp(-0.5) - 2.0
    assert sinh_product_excess(x, vogel_point(su(2))) == pytest.approx(lhs, rel=1e-14)


def test_key_relation_vanishes_at_zero():
    for lie_type in (su(3), spin(9), SimpleLieType(Family.E7, 7)):
        heights = build_root_system(lie_type)
        assert abs(key_relation_residual(heights, 1e-8)) < 1e-12


def test_key_relation_g2():
    heights = build_root_system(SimpleLieType(Family.G2, 2))
    assert abs(key_relation_residual(heights, 1.0)) < 1e-12


@pytest.mark.parametrize("lie_type", default_groups(9), ids=str)
def test_key_relation_matches_per_root_sum(lie_type):
    # one sinh per distinct height, summed by fsum, equals one sinh per root
    # exactly, at the abscissas `check` uses; the per-root heights are read
    # off the decoded roots
    heights = build_root_system(lie_type)
    den = heights.height_denominator
    weights = rootsys._symmetrizer(lie_type)
    per_root = [sum(map(operator.mul, weights, mu)) for mu in positive_roots(lie_type)]
    for x in (0.1, 1.0, 5.0):
        root_sum = math.fsum(4.0 * math.sinh(h / den * x) ** 2 for h in per_root)
        want = root_sum - sinh_product_excess(x, vogel_point(lie_type))
        assert key_relation_residual(heights, x) == want


@pytest.mark.parametrize("lie_type", default_groups(8), ids=str)
def test_key_relation_all_rows(lie_type):
    heights = build_root_system(lie_type)
    for x in (0.1, 1.0, 5.0):
        assert abs(key_relation_residual(heights, x)) <= 1e-9 * heights.dim
