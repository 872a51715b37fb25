"""Quadrature engine behavior and the universal integral."""

import math

import pytest

from lievol.errors import (
    DivergenceSetError,
    IntegrandEvaluationError,
    ParameterDomainError,
)
from lievol.quad import QuadResult, Tolerance, integrate_phi, integrate_semiinfinite
from lievol.special import _TIGHT, _barnes_integrand
from lievol.vogel import VogelPoint, phi_integrand, vogel_point
from lievol.rootsys import default_groups, su

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


def test_budget_exhaustion_flags_unconverged():
    res = integrate_semiinfinite(frullani, Tolerance(rel=1e-14, abs=1e-16, max_evaluations=45))
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


# (value.hex(), error_estimate.hex(), converged, evaluations, tail_cutoff).
# The first six rows are pinned from the engine that re-summed every panel
# with fsum on each step, the last four from the engine that re-summed the
# panels once more, in order, at the end. Running sums, the optional tail
# and reading the result off the running sums must leave every row
# bit-identical.
def _sqrt_exp(x):
    return math.sqrt(x) * math.exp(-x)


def _barnes(z):
    tail = lambda x: z / x - 0.5 / (x * x)
    return integrate_semiinfinite(_barnes_integrand(z), _TIGHT, initial_scale=8.0, tail=tail)


_PINNED = [
    (lambda: integrate_phi(VogelPoint(-2.0, 2.0, 4.5)),
     ("0x1.90a52e8ddbcecp+1", "0x1.e9d0527ec7597p-34", True, 135, 288.0)),
    (lambda: integrate_phi(VogelPoint(-2.0, 4.0, 1.7), Tolerance(rel=1e-13, abs=1e-15)),
     ("0x1.12ece2f2e1154p+1", "0x1.217148db4e10ap-44", True, 285, 236.8)),
    (lambda: integrate_semiinfinite(frullani),
     ("0x1.62e42fefa39eep-1", "0x1.6bfaa417e581ap-36", True, 120, 64.0)),
    (lambda: integrate_semiinfinite(
        lambda x: 1.0 / (1.0 + x) ** 2, Tolerance(rel=1e-12, abs=1e-14)),
     ("0x1.fffffffffffc0p-1", "0x1.0c73aa1bab071p-40", True, 1035, 2.0**47)),
    # the sqrt kink at 0 needs many splits: the first budget runs out
    (lambda: integrate_semiinfinite(_sqrt_exp, Tolerance(1e-15, 1e-300, max_evaluations=600)),
     ("0x1.c5bf891bbfdd7p-1", "0x1.f78f79dc13effp-31", False, 585, 2048.0)),
    (lambda: integrate_semiinfinite(_sqrt_exp, Tolerance(1e-15, 1e-300, max_evaluations=2000)),
     ("0x1.c5bf891b4ef6bp-1", "0x1.c09b04fe39e89p-51", True, 1485, 2048.0)),
    # the Barnes integrand with its closed-form tail
    (lambda: _barnes(0.5),
     ("0x1.d12250fb68e6bp-3", "0x1.adaf000000000p-44", True, 210, 64.0)),
    (lambda: _barnes(4.5),
     ("0x1.59208dbfad72ap-4", "0x1.7a10800000000p-44", True, 2730, 64.0)),
    # the budget runs out while the cutoff is still doubling
    (lambda: integrate_semiinfinite(
        lambda x: 1.0 / (1.0 + x) ** 2, Tolerance(1e-12, 1e-300, max_evaluations=300)),
     ("0x1.fffffc0e0e43fp-1", "0x1.d90531e6d384fp-11", False, 300, 2.0**22)),
    # refinement stops at a panel around the singularity too short to split
    (lambda: integrate_semiinfinite(
        lambda x: math.exp(-x) / math.sqrt(abs(x - 1.0 / 3.0)), Tolerance(1e-10, 1e-12)),
     ("0x1.1982b5decc80fp+1", "0x1.6c706fc532df6p-26", False, 1710, 64.0)),
]


@pytest.mark.parametrize("call, want", _PINNED)
def test_tailless_results_bit_identical(call, want):
    res = call()
    got = (res.value.hex(), res.error_estimate.hex(), res.converged, res.evaluations,
           res.tail_cutoff)
    assert got == want


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(rel=1e-16)  # below double resolution
    assert Tolerance(rel=1e-15).rel == 1e-15
    with pytest.raises(ValueError):
        Tolerance(abs=-1.0)
    with pytest.raises(ValueError):
        integrate_semiinfinite(frullani, initial_scale=0.0)


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
    base = integrate_phi(VogelPoint(-2.0, 2.0, 5.0)).value
    for lam in (0.5, 3.0):
        scaled = integrate_phi(VogelPoint(-2.0 * lam, 2.0 * lam, 5.0 * lam)).value
        assert abs(scaled - base) <= 1e-9
    for perm in ((2.0, -2.0, 5.0), (5.0, 2.0, -2.0), (2.0, 5.0, -2.0)):
        assert abs(integrate_phi(VogelPoint(*perm)).value - base) <= 1e-9


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


def test_integrand_branch_continuity():
    # step across the earliest per-factor series switch by one ulp and
    # require seamlessness
    from lievol.vogel import SINHC_SERIES_CUTOFF

    p = VogelPoint(-2.0, 2.0, 5.0)
    slopes = [abs(q - 2.0 * p.t) / (4.0 * p.t) for q in p.params]
    slopes += [abs(q) / (4.0 * p.t) for q in p.params]
    x_switch = SINHC_SERIES_CUTOFF / max(slopes)
    f = phi_integrand(p)
    lo = f(math.nextafter(x_switch, 0.0))
    hi = f(math.nextafter(x_switch, math.inf))
    assert hi == pytest.approx(lo, rel=1e-12)


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
    from lievol.vogel import small_x_quadratic_coeff

    assert f(0.0) == small_x_quadratic_coeff(p)
    assert f(1e-13) == f(0.0)
    assert f(1e-9) == pytest.approx(f(0.0), rel=1e-7)
