"""Quadrature engine behavior and the universal integral."""

import math

import pytest

from lievol.errors import (
    DivergenceSetError,
    IntegrandEvaluationError,
    ParameterDomainError,
)
from lievol.quad import QuadResult, Tolerance, integrate_phi, integrate_semiinfinite, phi_integrand
from lievol.vogel import VogelPoint, vogel_point
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


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel=0.0)
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
    large = integrate_phi(VogelPoint(-2.0, 12.0, 20.0, t=30.0))
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


def test_integrand_limit_value():
    p = VogelPoint(-2.0, 2.0, 5.0)
    f = phi_integrand(p)
    # x -> 0 limit equals the quadratic coefficient of the excess
    from lievol.vogel import small_x_quadratic_coeff

    assert f(0.0) == small_x_quadratic_coeff(p)
    assert f(1e-13) == f(0.0)
    assert f(1e-9) == pytest.approx(f(0.0), rel=1e-7)
