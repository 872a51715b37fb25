"""Quadrature engine behavior and the universal integral."""

import math
import random

import pytest

from lievol import quad
from lievol.errors import (
    DivergenceSetError,
    IntegrandEvaluationError,
    ParameterDomainError,
)
from lievol.quad import (
    _WG,
    _WG_CENTER,
    _WGK,
    _WGK_CENTER,
    _XGK,
    QuadResult,
    Tolerance,
    _eval_panel,
    integrate_phi,
    integrate_semiinfinite,
)
from lievol.special import _TIGHT, _Y_SWITCH, _ZETA_PRIME_MINUS_ONE, _barnes_integrand
from lievol.volume import phi_kp
from lievol.vogel import (
    _ratio_slopes,
    SINHC_SERIES_CUTOFF,
    VogelPoint,
    dim_from_vogel,
    log_sinhc,
    phi_integrand,
    phi_start_scale,
    vogel_point,
)
from lievol.rootsys import build_root_system, default_groups, sp, spin, su
from phi_reference import PhiReference, phi_from_log

LN2 = math.log(2.0)


def frullani(x):
    # (e^{-x} - e^{-2x})/x with the removable singularity filled in
    if x < 1e-8:
        return 1.0 - 1.5 * x
    return (math.exp(-x) - math.exp(-2.0 * x)) / x


def test_exponential_is_one():
    res = integrate_semiinfinite(lambda x: math.exp(-x))
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12)
    assert res.error_estimate <= max(Tolerance.abs, Tolerance.rel * abs(res.value))


def test_frullani_reference():
    res = integrate_semiinfinite(frullani)
    assert res.converged
    assert res.value == pytest.approx(LN2, rel=1e-12)


def test_engine_linearity():
    f = lambda x: math.exp(-x)
    g = lambda x: math.exp(-0.5 * x) / (1.0 + x * x)
    rf = integrate_semiinfinite(f)
    rg = integrate_semiinfinite(g)
    combined = integrate_semiinfinite(lambda x: 2.0 * f(x) + 3.0 * g(x))
    budget = 2.0 * rf.error_estimate + 3.0 * rg.error_estimate + combined.error_estimate
    assert abs(combined.value - (2.0 * rf.value + 3.0 * rg.value)) <= budget + 1e-14


def test_tolerance_monotonicity_on_frullani():
    errors = []
    for rel in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        res = integrate_semiinfinite(frullani, Tolerance(rel=rel, abs=rel * 1e-2))
        errors.append(abs(res.value - LN2))
    for coarse, tight in zip(errors, errors[1:]):
        assert tight <= coarse + 1e-15


def test_budget_exhaustion_flags_unconverged(monkeypatch):
    monkeypatch.setattr(quad, "_MAX_EVALUATIONS", 45)
    res = integrate_semiinfinite(frullani, Tolerance(rel=1e-14, abs=1e-16))
    assert not res.converged
    assert math.isfinite(res.value)
    assert res.evaluations <= 45


def test_nonfinite_sample_reports_abscissa():
    def bad(x):
        return float("nan") if x > 3.0 else math.exp(-x)

    with pytest.raises(IntegrandEvaluationError) as err:
        integrate_semiinfinite(bad)
    assert err.value.abscissa > 3.0


def test_result_metadata():
    res = integrate_semiinfinite(lambda x: math.exp(-x), initial_scale=4.0)
    assert isinstance(res, QuadResult)
    assert res.tail_cutoff >= 8.0  # at least one doubling happened
    assert res.evaluations % 15 == 0


def test_algebraic_tail_closed_form():
    # 1/(1+y)^2 decays algebraically; its tail beyond X is exactly 1/(1+X)
    f = lambda y: 1.0 / (1.0 + y) ** 2
    for tol in (Tolerance(), Tolerance(rel=1e-12, abs=1e-14)):
        closed = integrate_semiinfinite(f, tol, tail=lambda x: 1.0 / (1.0 + x))
        doubled = integrate_semiinfinite(f, tol)
        assert closed.converged
        assert abs(closed.value - 1.0) <= max(closed.error_estimate, 1e-15)
        assert closed.tail_cutoff == 16.0  # the first block already matches
        assert doubled.tail_cutoff > 1e11
        assert 3 * closed.evaluations < doubled.evaluations


def test_cutoff_doubling_stops_inside_double_range():
    # 1/(1+x) never decays enough: every block [X/2, X] holds ~ln 2, above
    # any abs target. The doubling stops, unconverged, at the last cutoff
    # whose next block's endpoints sum to a finite double, not at x = inf
    for tail in (None, lambda x: 0.0):
        res = integrate_semiinfinite(lambda x: 1.0 / (1.0 + x), Tolerance(), tail=tail)
        assert not res.converged
        assert res.tail_cutoff == 2.0**1023
        assert math.isfinite(res.value) and res.value > 700.0
        assert res.evaluations == 15 * (1 + 1020)  # [0, 8], then 16 ... 2^1023
    # from a scale of 3, the cutoff 3 * 2^1021 ~ 6.7e307 still doubles to a
    # finite 2X, but the next block's endpoints would sum to inf
    res = integrate_semiinfinite(lambda x: 1.0 / (1.0 + x), initial_scale=3.0)
    assert not res.converged and res.tail_cutoff == 3.0 * 2.0**1021
    assert math.isfinite(2.0 * res.tail_cutoff) and 3.0 * res.tail_cutoff == math.inf


def _slopes(p):
    # the sinh arguments per unit x of each parameter's ratio: numerator
    # a = (q - 2t)/4t, denominator b = q/4t
    t4 = 4.0 * p.t
    return [((q - 2.0 * p.t) / t4, q / t4) for q in p.params]


def _log_sum_terms(p, x):
    # every log-sinhc term of the sinh-ratio product, one pair per parameter
    return [(log_sinhc(a * x), log_sinhc(b * x)) for a, b in _slopes(p)]


def _log_sum_phi_integrand(p):
    """The phi integrand with every sample's log product taken as a sum of
    log_sinhc terms, as phi_integrand takes it below x_lo and at points
    without a band: the reference for phi_integrand and for the pinned phi
    rows below."""
    k = dim_from_vogel(p)
    limit0 = k * math.fsum(a * a - b * b for a, b in _ratio_slopes(p)) / 6.0

    def f(x):
        if x < 1e-12:
            return limit0
        ell = 0.0
        for u, v in _log_sum_terms(p, x):
            ell += u - v
        return phi_from_log(k, ell, x)

    return f


def _log_sum_phi(p, tol=None):
    return integrate_semiinfinite(_log_sum_phi_integrand(p), tol, initial_scale=4.0 * abs(p.t))


# (value.hex(), error_estimate.hex(), converged, evaluations, tail_cutoff).
# The first six rows are pinned from the engine that re-summed every panel
# with fsum on each step, the next four from the engine that re-summed the
# panels once more, in order, at the end, and the last two from the engine
# whose pass looped over the node pairs (_loop_eval_panel below). Exact
# running sums, the optional tail, reading the result off them and the
# straight-line pass left every row bit-identical, and so must this engine,
# whose plain running sums steer the splits and whose result is math.fsum of
# the live panels (test_result_is_fsum_of_live_panels). The two phi rows
# run the log-sum reference integrand, so they pin the engine alone;
# phi_integrand is held to that reference below.
def _sqrt_exp(x):
    return math.sqrt(x) * math.exp(-x)


def _singular(x):
    # an integrable singularity at 1/3: refinement stops at a panel around it
    # too short to split
    return math.exp(-x) / math.sqrt(abs(x - 1.0 / 3.0))


def _barnes(z, tol=_TIGHT):
    tail = lambda x: z / x - 0.5 / (x * x)
    return integrate_semiinfinite(_barnes_integrand(z), tol, initial_scale=8.0, tail=tail)


def _budget(evaluations, call):
    # call() with the engine's evaluation budget set to `evaluations`
    def run():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quad, "_MAX_EVALUATIONS", evaluations)
            return call()
    return run


_PINNED = [
    (lambda: _log_sum_phi(VogelPoint(-2.0, 2.0, 4.5)),
     ("0x1.90a52e8ddbcecp+1", "0x1.e9d0527ec7597p-34", True, 135, 288.0)),
    (lambda: _log_sum_phi(VogelPoint(-2.0, 4.0, 1.7), Tolerance(rel=1e-13, abs=1e-15)),
     ("0x1.12ece2f2e1154p+1", "0x1.217148db4e10ap-44", True, 285, 236.8)),
    (lambda: integrate_semiinfinite(frullani),
     ("0x1.62e42fefa39eep-1", "0x1.6bfaa417e581ap-36", True, 120, 64.0)),
    (lambda: integrate_semiinfinite(
        lambda x: 1.0 / (1.0 + x) ** 2, Tolerance(rel=1e-12, abs=1e-14)),
     ("0x1.fffffffffffc0p-1", "0x1.0c73aa1bab071p-40", True, 1035, 2.0**47)),
    # the sqrt kink at 0 needs many splits: the first budget runs out
    (_budget(600, lambda: integrate_semiinfinite(_sqrt_exp, Tolerance(1e-15, 1e-300))),
     ("0x1.c5bf891bbfdd7p-1", "0x1.f78f79dc13effp-31", False, 585, 2048.0)),
    (_budget(2000, lambda: integrate_semiinfinite(_sqrt_exp, Tolerance(1e-15, 1e-300))),
     ("0x1.c5bf891b4ef6bp-1", "0x1.c09b04fe39e89p-51", True, 1485, 2048.0)),
    # the Barnes integrand with its closed-form tail
    (lambda: _barnes(0.5),
     ("0x1.d12250fb68e6bp-3", "0x1.adaf000000000p-44", True, 210, 64.0)),
    (lambda: _barnes(4.5),
     ("0x1.59208dbfad72ap-4", "0x1.7a10800000000p-44", True, 2730, 64.0)),
    # the budget runs out while the cutoff is still doubling
    (_budget(300, lambda: integrate_semiinfinite(
        lambda x: 1.0 / (1.0 + x) ** 2, Tolerance(1e-12, 1e-300))),
     ("0x1.fffffc0e0e43fp-1", "0x1.d90531e6d384fp-11", False, 300, 2.0**22)),
    # refinement stops at a panel around the singularity too short to split
    (lambda: integrate_semiinfinite(_singular, Tolerance(1e-10, 1e-12)),
     ("0x1.1982b5decc80fp+1", "0x1.6c706fc532df6p-26", False, 1710, 64.0)),
    # Barnes at the default tolerance, the scan path: no sample of z = 2.37
    # falls below y = 0.01, where the series is read; two of z = 4.52 do
    (lambda: _barnes(2.37, Tolerance()),
     ("0x1.dca650ea0bc43p+0", "0x1.6a387e0000000p-34", True, 90, 64.0)),
    (lambda: _barnes(4.52, Tolerance()),
     ("0x1.3f277c1b397f4p-5", "0x1.2f94e00000000p-39", True, 270, 64.0)),
]


@pytest.mark.parametrize("call, want", _PINNED)
def test_tailless_results_bit_identical(call, want):
    res = call()
    got = (res.value.hex(), res.error_estimate.hex(), res.converged, res.evaluations,
           res.tail_cutoff)
    assert got == want


@pytest.mark.parametrize("call, tail", [
    (lambda: integrate_semiinfinite(_sqrt_exp, Tolerance(1e-15, 1e-300)), None),
    (lambda: _barnes(4.5), lambda x: 4.5 / x - 0.5 / (x * x)),
    (lambda: integrate_semiinfinite(_singular, Tolerance(1e-10, 1e-12)), None),
], ids=["sqrt_exp", "barnes(4.5)", "singular"])
def test_result_is_fsum_of_live_panels(monkeypatch, call, tail):
    # every panel the engine evaluates, by its ends; a panel is live unless
    # its left half was evaluated too, since the halves only come from splits
    seen = {}

    def record(f, a, b):
        seen[a, b] = _eval_panel(f, a, b)
        return seen[a, b]

    monkeypatch.setattr(quad, "_eval_panel", record)
    res = call()
    live = [ve for (a, b), ve in seen.items() if (a, 0.5 * (a + b)) not in seen]
    assert res.evaluations == 15 * len(seen) and len(live) < len(seen)
    values = [v for v, _ in live] + ([] if tail is None else [tail(res.tail_cutoff)])
    assert res.value.hex() == math.fsum(values).hex()
    assert res.error_estimate.hex() == math.fsum(e for _, e in live).hex()


@pytest.mark.parametrize("f, value, evaluations", [
    (lambda x: 1e308, math.inf, 15315),
    # finite panels that sum past the largest double: the doubling settles,
    # and no panel is split
    (lambda x: 2e307 * math.exp(-x / 1000.0), math.inf, 285),
    (lambda x: 1e308 if abs(x - 1.6) < 0.65 else -1e308, -math.inf, 15315),
    (lambda x: 1e308 if x < 8.0 else -1e308, math.nan, 15315),
], ids=["1e308", "2e307 exp(-x/1000)", "-1e308 around 1e308", "1e308 then -1e308"])
def test_totals_out_of_double_range_are_unconverged(f, value, evaluations):
    # infinite panel values, which fsum sums to +-inf, and finite ones whose
    # sum overflows or opposite infinities, where fsum raises OverflowError
    # or ValueError: no error escapes, and the result is unconverged
    res = integrate_semiinfinite(f)
    assert not res.converged
    assert (repr(res.value), res.evaluations) == (repr(value), evaluations)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(rel=1e-16)  # below double resolution
    assert Tolerance(rel=1e-15).rel == 1e-15
    with pytest.raises(ValueError):
        Tolerance(abs=-1.0)
    for scale in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="initial_scale must be positive and finite"):
            integrate_semiinfinite(frullani, initial_scale=scale)


# --- universal integral -------------------------------------------------


def test_phi_refuses_divergence_set():
    with pytest.raises(DivergenceSetError):
        integrate_phi(VogelPoint(1.0, 1.0, 1.0))
    with pytest.raises(DivergenceSetError):
        integrate_phi(VogelPoint(0.0, 1.0, 1.0))  # boundary point refused too


def test_phi_rejects_vanishing_parameter():
    with pytest.raises(ParameterDomainError):
        integrate_phi(VogelPoint(-2.0, 4.0, 0.0))


def test_phi_identically_zero_point():
    res = integrate_phi(VogelPoint(-2.0, 2.0, 1.0))
    assert res.converged
    assert res.value == 0.0


def test_phi_su2_value():
    res = integrate_phi(VogelPoint(-2.0, 2.0, 2.0))
    assert res.converged
    assert res.value == pytest.approx(math.log(math.pi / 2.0), abs=1e-10)


def test_phi_su3_value():
    want = math.log(2.0) - 4.5 * math.log(3.0) + 3.0 * math.log(2.0 * math.pi)
    res = integrate_phi(VogelPoint(-2.0, 2.0, 3.0))
    assert res.value == pytest.approx(want, abs=1e-10)


def test_phi_projective_and_permutation_invariance():
    base_result = integrate_phi(VogelPoint(-2.0, 2.0, 5.0))
    base = base_result.value
    for lam in (0.5, 3.0, 1e-300, 1e-120, 1e120, 1e300, 1e307, 2e307):
        scaled = integrate_phi(VogelPoint(-2.0 * lam, 2.0 * lam, 5.0 * lam)).value
        assert abs(scaled - base) <= 1e-9
    # an exact rescaling leaves every quantity phi reads the same float, also
    # at k = 1020, where 4t overflows, and at k = 1021, where 2t does
    for k in (-1020, -300, 300, 1020, 1021):
        p = VogelPoint(math.ldexp(-2.0, k), math.ldexp(2.0, k), math.ldexp(5.0, k))
        assert integrate_phi(p) == base_result, k
    for perm in ((2.0, -2.0, 5.0), (5.0, 2.0, -2.0), (2.0, 5.0, -2.0)):
        assert abs(integrate_phi(VogelPoint(*perm)).value - base) <= 1e-9


def test_phi_bit_equal_under_swapping_a_tiny_parameter():
    # the start scale sums the parameters with q/t < 0, not one named
    # coordinate: a start of 8|t|/|alpha| is 8e200 at the first point, where
    # the engine returns phi = 0.0, marked converged, after 30 evaluations
    first = integrate_phi(VogelPoint(1e-200, -2.0, 3.0))
    assert first == integrate_phi(VogelPoint(-2.0, 1e-200, 3.0))
    assert first.converged and first.value == pytest.approx(-1.8466e199, rel=1e-4)


def test_phi_nonnegative_on_table_rows():
    for g in default_groups(4):
        res = integrate_phi(vogel_point(g))
        assert res.converged, g
        assert res.value >= 0.0, g


def test_phi_tail_cutoff_scales_with_t():
    small = integrate_phi(vogel_point(su(2)))
    large = integrate_phi(VogelPoint(-2.0, 12.0, 20.0))
    assert small.tail_cutoff >= 8.0
    assert large.tail_cutoff > small.tail_cutoff


def _mp_phi(mp, p):
    # phi = int_0^inf [prod_i sinh(a_i x)/sinh(b_i x) - dim] / (x (e^x - 1)) dx
    # at 20 digits; below x = 1e-5 the excess is dim * s2 * x^2 up to a
    # relative x^2, so the integrand is c2 x/(e^x - 1) there
    with mp.workdps(20):
        t = mp.mpf(p.alpha) + p.beta + p.gamma
        slopes = [((mp.mpf(q) - 2 * t) / (4 * t), mp.mpf(q) / (4 * t)) for q in p.params]
        dim = mp.fprod(a / b for a, b in slopes)
        c2 = dim * mp.fsum(a * a - b * b for a, b in slopes) / 6

        def f(x):
            if x < mp.mpf("1e-5"):
                return c2 * x / mp.expm1(x) if x else c2
            excess = mp.fprod(mp.sinh(a * x) / mp.sinh(b * x) for a, b in slopes) - dim
            return excess / (x * mp.expm1(x))

        return float(mp.quad(f, [0, 1, 4, 16, 64, 256, mp.inf]))


_OFF_TABLE_LINES = {
    (-2.0, 2.0): (0.35, 0.8, 1.45, 2.3, 3.7, 5.15, 7.6, 10.4),
    (-2.0, 4.0): (0.25, 0.9, 1.6, 2.45, 3.3, 4.75, 6.2, 9.5),
    (-2.0, 1.0): (1.35, 1.7, 2.25, 2.9, 3.55, 4.4, 6.65, 8.3),
}


@pytest.mark.parametrize(
    "p",
    [VogelPoint(a, b, g) for (a, b), gammas in _OFF_TABLE_LINES.items() for g in gammas],
    ids=repr,
)
def test_phi_off_table_vs_mpmath(p):
    mp = pytest.importorskip("mpmath")
    ref = _mp_phi(mp, p)
    res = integrate_phi(p)
    assert res.converged
    err = abs(res.value - ref)
    assert err <= res.error_estimate
    assert err <= 1e-12 * max(1.0, abs(ref))


def test_integrand_branch_continuity():
    # step across the earliest per-factor series switch, x_lo, where the
    # closed form starts, and x_hi by one ulp and require seamlessness
    p = VogelPoint(-2.0, 2.0, 5.0)
    slopes = [abs(q - 2.0 * p.t) / (4.0 * p.t) for q in p.params]
    slopes += [abs(q) / (4.0 * p.t) for q in p.params]
    x_switch = SINHC_SERIES_CUTOFF / max(slopes)
    x_lo, x_hi = PhiReference(p).band
    assert x_switch < x_lo < x_hi < 700.0
    f = phi_integrand(p)
    for x in (x_switch, x_lo, x_hi):
        lo = f(math.nextafter(x, 0.0))
        hi = f(math.nextafter(x, math.inf))
        assert hi == pytest.approx(lo, rel=1e-12), x


def _band_points():
    points = [vogel_point(g) for g in default_groups(12)]
    # off-table points on the unitary, orthogonal and symplectic scan lines
    rng = random.Random(20261018)
    for alpha, beta in ((-2.0, 2.0), (-2.0, 4.0), (-2.0, 1.0)):
        points += [VogelPoint(alpha, beta, round(rng.uniform(0.2, 12.0), 3)) for _ in range(6)]
    return points


# an empty band (x_lo ~ 6e199 > x_hi), and a dim-0 point (gamma = 2t, so
# a = 0 and no band)
_BANDLESS_POINTS = [VogelPoint(-2.0, 1e-200, 3.0), VogelPoint(-2.0, 1.0, 2.0)]


def _abscissae(p):
    xs = [1e-6, 1e-3, 0.05, 0.3, 1.0, 2.5, 7.0, 20.0, 60.0, 200.0, 700.0, 2000.0]
    x_lo, x_hi = PhiReference(p).band
    if x_lo < x_hi:
        span = x_hi / x_lo
        xs += [x_lo * span ** (i / 16) for i in range(17)]
        xs += [x_lo * 0.5, math.nextafter(x_lo, 0.0), math.nextafter(x_hi, 0.0), x_hi * 2.0]
    return xs


@pytest.mark.parametrize("p", _band_points() + _BANDLESS_POINTS, ids=repr)
def test_integrand_matches_log_sum_reference(p):
    # The reference rounds each log_sinhc term to its own ulp, so where the
    # terms cancel, the two logs differ by a few ulps of the summed term
    # magnitudes, not of |l| (the closed form is the closer of the two to
    # exact in the band: test_band_log_ratio_error_class). That difference,
    # carried through df/dl = k e^l / (x (e^x - 1)), plus a few ulps of f,
    # bounds f.
    eps = 2.0**-52
    k = dim_from_vogel(p)
    f, ref = phi_integrand(p), _log_sum_phi_integrand(p)
    for x in _abscissae(p):
        want, got = ref(x), f(x)
        if got == want:
            continue
        terms = _log_sum_terms(p, x)
        ell = math.fsum(u - v for u, v in terms)
        scale = max(1.0, math.fsum(abs(u) + abs(v) for u, v in terms))
        dfdl = abs(k) * math.exp(ell - x) / (x * -math.expm1(-x))
        assert abs(got - want) <= 8 * eps * (scale * dfdl + abs(want)), (x, got, want)


# scaled by 2^k near both ends of the double range, where the slopes are
# taken shifted (vogel._shift)
_SCALED_POINTS = [VogelPoint(math.ldexp(-2.0, k), math.ldexp(2.0, k), math.ldexp(5.0, k))
                  for k in (-1020, 1021)]


@pytest.mark.parametrize("p", _band_points() + _BANDLESS_POINTS + _SCALED_POINTS, ids=repr)
def test_integrand_bit_equal_to_two_closure_form(p):
    f, ref = phi_integrand(p), PhiReference(p)
    for x in [-1.0, 0.0, 1e-13, *_abscissae(p)]:
        assert f(x).hex() == ref(x).hex(), x


# (point, evaluations from a first panel of phi_start_scale(p)): four decay
# lengths, 15992 at the first point, 4000 at the second, 100 at SU_25
_WIDE_START = [
    (VogelPoint(-1e-3, 1.0, 1.0), 435),
    (VogelPoint(-2.0, 2.0, 1000.0), 375),
    (vogel_point(su(25)), 225),
]


@pytest.mark.parametrize("p, wide_evals", _WIDE_START, ids=repr)
def test_phi_first_panel_at_integrand_scale(p, wide_evals):
    # the bulk sits at x ~ 1-4 whatever t is: a first panel of the decay
    # length is bisected down to it, one of length 4 is not
    res = integrate_phi(p)
    wide = integrate_semiinfinite(phi_integrand(p), initial_scale=phi_start_scale(p))
    assert wide.converged and wide.evaluations == wide_evals
    assert res.converged and res.evaluations < wide_evals
    assert abs(res.value - wide.value) <= res.error_estimate
    assert res.tail_cutoff >= phi_start_scale(p)  # the doubling still runs past it


@pytest.mark.parametrize("gamma", [10.0**e for e in range(3, 19)])
def test_phi_slow_decay_on_unitary_line(gamma):
    # On (-2, 2, gamma) the decay rate is 1/gamma, and Barnes' expansion of
    # ln G(gamma+1) gives phi = (ln(2 pi)/2 - 3/4) gamma^2 - (ln gamma)/12
    # + zeta'(-1) - 1/(240 gamma^2) + O(gamma^-4). The start scales reach 4e18,
    # past the 5.2e16 of (1770660, 1770660, -5.4e-10), whose integrand never
    # decays in floating point: no bound on the start scale tells them apart.
    want = ((0.5 * math.log(2.0 * math.pi) - 0.75) * gamma**2 - math.log(gamma) / 12.0
            + _ZETA_PRIME_MINUS_ONE - 1.0 / (240.0 * gamma**2))
    res = integrate_phi(VogelPoint(-2.0, 2.0, gamma))
    assert res.converged
    assert abs(res.value - want) <= min(1e-13 * want, res.error_estimate)


# the large-rank benchmark ladder: SU_15 ... SU_25, Sp_2r and Spin_2r+1 for
# r = 10 ... 17, Spin_22 ... Spin_34
_LADDER = (
    [su(n) for n in range(15, 26, 2)]
    + [g for r in range(10, 18) for g in (sp(2 * r), spin(2 * r + 1))]
    + [spin(2 * r) for r in range(11, 18, 2)]
)


@pytest.mark.parametrize("lie_type", default_groups(12) + _LADDER, ids=str)
def test_phi_error_estimate_bounds_error_on_table_rows(lie_type):
    # phi_kp, the root product, is the reference: it agrees with phi to
    # ~1e-15, below every estimate
    p = vogel_point(lie_type)
    res = integrate_phi(p)
    assert res.converged
    assert abs(res.value - phi_kp(build_root_system(lie_type))) <= res.error_estimate
    assert res.tail_cutoff >= phi_start_scale(p)


@pytest.mark.parametrize("p", _band_points(), ids=repr)
def test_band_log_ratio_error_class(p):
    # inside the band, the closed form's l = s x + q is within a few ulps of
    # max(1, |l|) of its exact value at the same rounded arguments a*x and b*x
    mp = pytest.importorskip("mpmath")
    eps = 2.0**-52
    ref = PhiReference(p)
    x_lo, x_hi = ref.band
    assert x_lo == ref.x_past < x_hi
    with mp.workdps(40):
        log_sinhc_mp = lambda y: mp.log(mp.sinh(y) / y)
        for x in (x_lo * (x_hi / x_lo) ** (i / 8) for i in range(8)):
            want = mp.fsum(log_sinhc_mp(mp.mpf(a * x)) - log_sinhc_mp(mp.mpf(b * x))
                           for a, b in _slopes(p))
            assert abs(ref.s * x + ref.closed_q(x) - want) <= 8 * eps * max(1.0, abs(want)), x


@pytest.mark.parametrize("p", _band_points() + [vogel_point(g) for g in _LADDER], ids=repr)
def test_past_band_log_ratio_error_class(p):
    # in the closed form, l = s x + q is within a few ulps of max(1, s x) of
    # its exact value at the same rounded arguments a*x and b*x, at x = x_lo 2^i
    # up to the first sample that underflows to 0
    mp = pytest.importorskip("mpmath")
    eps = 2.0**-52
    ref = PhiReference(p)
    x, s = ref.x_past, ref.s
    assert x < math.inf
    f = phi_integrand(p)
    sample = 1.0
    with mp.workdps(40):
        log_sinhc_mp = lambda y: mp.log(mp.sinh(y) / y)
        while sample != 0.0:
            sample = f(x)
            want = mp.fsum(log_sinhc_mp(mp.mpf(a * x)) - log_sinhc_mp(mp.mpf(b * x))
                           for a, b in _slopes(p))
            assert abs(s * x + ref.closed_q(x) - want) <= 8 * eps * max(1.0, s * x), x
            x *= 2.0


@pytest.mark.parametrize("lie_type", default_groups(12) + _LADDER, ids=str)
def test_integrand_finite_past_band(lie_type):
    # e^{q - lam x}, with expm1 of a negative argument in [-1, 0), cannot
    # overflow: every sample from x_lo to 1e300 is finite
    p = vogel_point(lie_type)
    f, x = phi_integrand(p), PhiReference(p).x_past
    while x < 1e300:
        assert math.isfinite(f(x)), x
        x *= 2.0
    assert f(1e300) == 0.0


@pytest.mark.parametrize("p", _BANDLESS_POINTS + [VogelPoint(-2.0, 2.0, 1.0)], ids=repr)
def test_bandless_integrand_keeps_log_sum_form(p):
    # no band (at (-2, 2, 1) a slope is 0), so no past-band form: every
    # sample is the log_sinhc sum's, bit for bit
    f, ref = phi_integrand(p), _log_sum_phi_integrand(p)
    for x in [*_abscissae(p), 1e10, 1e100, 1e300]:
        assert f(x).hex() == ref(x).hex(), x


def test_integrand_far_tail_underflows_to_zero():
    # expm1(x) overflows past x ~ 709.8; the integrand is then ~e^{-x} and
    # must come back finite, not as an inf that stops the quadrature
    f = phi_integrand(VogelPoint(-2.0, 2.0, 0.5))
    assert f(768.0) == 0.0
    assert math.isfinite(f(700.0))


def test_integrand_limit_value():
    p = VogelPoint(-2.0, 2.0, 5.0)
    f = phi_integrand(p)
    # x -> 0 limit equals the quadratic coefficient of the excess
    k = dim_from_vogel(p)
    assert f(0.0) == k * math.fsum(a * a - b * b for a, b in _ratio_slopes(p)) / 6.0
    assert f(1e-13) == f(0.0)
    assert f(1e-9) == pytest.approx(f(0.0), rel=1e-7)


# --- the Gauss-Kronrod pass ---------------------------------------------


def _loop_eval_panel(f, a, b):
    """The Gauss-Kronrod pass as a loop over the node pairs, testing each
    sample as it comes: the reference that the straight-line pass matches,
    in both sums bit for bit and in the sample an IntegrandEvaluationError
    names."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    if not math.isfinite(fc):
        raise IntegrandEvaluationError(c, fc)
    kron = _WGK_CENTER * fc
    gauss = _WG_CENTER * fc
    for j, x in enumerate(_XGK):
        dx = h * x
        f_lo = f(c - dx)
        f_hi = f(c + dx)
        if not math.isfinite(f_lo):
            raise IntegrandEvaluationError(c - dx, f_lo)
        if not math.isfinite(f_hi):
            raise IntegrandEvaluationError(c + dx, f_hi)
        s = f_lo + f_hi
        kron += _WGK[j] * s
        if j % 2 == 1:
            gauss += _WG[j // 2] * s
    return h * kron, abs(h * (kron - gauss))


def _panel_cases():
    """(integrand, panels) by name: random panels at each integrand's scale,
    and panels that straddle the phi band edges and Barnes' series switch."""
    rng = random.Random(20261018)

    def spread(lo, hi, count=40):
        out = []
        for _ in range(count):
            a = rng.uniform(lo, hi)
            out.append((a, a + rng.uniform(0.0, hi - lo) * rng.choice((1e-6, 1e-2, 1.0))))
        return out

    cases = [
        ("exp", lambda x: math.exp(-x), spread(0.0, 50.0)),
        ("frullani", frullani, spread(0.0, 50.0) + [(0.0, 1e-6)]),
        ("sqrt_exp", _sqrt_exp, spread(0.0, 40.0) + [(0.0, 1e-3)]),
        ("algebraic", lambda x: 1.0 / (1.0 + x) ** 2, spread(0.0, 1e6)),
    ]
    for p in [VogelPoint(-2.0, 2.0, 4.5), VogelPoint(-2.0, 4.0, 1.7),
              VogelPoint(-2.0, 1.0, 6.65), vogel_point(su(25))]:
        x_lo, x_hi = PhiReference(p).band
        assert 0.0 < x_lo < x_hi
        edges = [(0.0, 2.0 * x_lo), (0.5 * x_lo, 1.5 * x_lo), (0.9 * x_hi, 1.1 * x_hi)]
        cases.append((repr(p), phi_integrand(p), spread(0.0, 64.0) + [(0.0, 4.0)] + edges))
    for z in (0.0, 0.05, 2.37, 4.52, 25.5):
        edges = [(0.0, 2.0 * _Y_SWITCH), (0.5 * _Y_SWITCH, 1.5 * _Y_SWITCH), (0.0, 8.0)]
        cases.append((f"barnes({z})", _barnes_integrand(z), spread(0.0, 128.0) + edges))
    return [pytest.param(f, panels, id=name) for name, f, panels in cases]


@pytest.mark.parametrize("f, panels", _panel_cases())
def test_pass_bit_identical_to_loop_form(f, panels):
    for a, b in panels:
        got, want = _eval_panel(f, a, b), _loop_eval_panel(f, a, b)
        assert [v.hex() for v in got] == [v.hex() for v in want], (a, b)


def _raised(pass_, f, a, b):
    with pytest.raises(IntegrandEvaluationError) as err:
        pass_(f, a, b)
    return err.value.abscissa.hex(), repr(err.value.value)


def test_pass_names_the_first_nonfinite_sample():
    # every pair of non-finite samples, the center and an outer node and two
    # outer nodes among them: the error names the one the loop form meets
    # first (the center, then c - d and c + d from the outermost node in)
    a, b = 0.3, 2.9
    nodes = []
    _loop_eval_panel(lambda x: nodes.append(x) or 1.0, a, b)
    assert len(set(nodes)) == 15 and nodes[0] == 0.5 * (a + b)
    for i in range(15):
        for j in range(i + 1, 15):
            bad = {nodes[i]: math.inf, nodes[j]: math.nan}

            def f(x):
                return bad.get(x, math.exp(-x))

            want = _raised(_loop_eval_panel, f, a, b)
            assert _raised(_eval_panel, f, a, b) == want == (nodes[i].hex(), "inf")


def test_pass_returns_an_overflowing_sum_of_finite_samples():
    # finite samples whose weighted sums overflow raise nothing, as before:
    # the value is inf, or nan where opposite infinities meet
    for f in (lambda x: 1e308, lambda x: 1e308 if abs(x - 1.6) < 0.65 else -1e308):
        got, want = _eval_panel(f, 0.3, 2.9), _loop_eval_panel(f, 0.3, 2.9)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert not math.isfinite(got[0])
