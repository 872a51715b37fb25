"""Special-function routes: Barnes-G, the factorial oracle, and the Malmsten
log-Gamma oracle with its Euler reflection residual (kept in tests/malmsten.py)."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from lievol import quad, special
from lievol.errors import ParameterDomainError
from lievol.quad import QuadResult, Tolerance, integrate_phi, integrate_semiinfinite
from lievol.special import (
    _STIRLING_SHIFT,
    _TIGHT,
    _barnes_integrand,
    barnesG_integer_oracle,
    log_barnesG_integral,
    phi_unitary_closed_form,
)
from lievol.vogel import VogelPoint
from malmsten import euler_reflection_residual, log_gamma_malmsten

LOG_2PI = math.log(2.0 * math.pi)


def test_malmsten_trivial_points():
    assert log_gamma_malmsten(1.0).value == pytest.approx(0.0, abs=1e-12)
    assert log_gamma_malmsten(0.0).value == pytest.approx(0.0, abs=1e-12)


def test_malmsten_half_integer():
    # Gamma(3/2) = sqrt(pi)/2
    want = 0.5 * math.log(math.pi) - math.log(2.0)
    assert log_gamma_malmsten(0.5).value == pytest.approx(want, abs=1e-11)


def test_malmsten_against_recurrence():
    # Gamma(1+z) = z Gamma(z) chains the integral against itself
    for z in (0.75, 1.5, 3.2):
        lhs = log_gamma_malmsten(z).value
        rhs = log_gamma_malmsten(z - 1.0).value + math.log(z)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_malmsten_negative_arguments():
    # integrable for -1 < z < 0, including the slowly decaying end
    assert log_gamma_malmsten(-0.5).value == pytest.approx(
        math.log(math.pi) / 2.0, abs=1e-10
    )
    with pytest.raises(ParameterDomainError):
        log_gamma_malmsten(-1.0)
    with pytest.raises(ParameterDomainError):
        log_gamma_malmsten(-1.5)


def test_euler_reflection_examples():
    # x = 1/2: both sides equal 2/pi
    assert abs(euler_reflection_residual(0.5)) < 1e-10
    assert abs(euler_reflection_residual(0.25)) < 1e-10
    assert abs(euler_reflection_residual(1e-3)) < 1e-10


def test_euler_reflection_grid():
    xs = [-0.9 + 1.8 * k / 19.0 for k in range(20)]
    for x in xs:
        if x == 0.0:
            continue
        assert abs(euler_reflection_residual(x)) <= 1e-9, x


def test_euler_reflection_domain():
    with pytest.raises(ParameterDomainError):
        euler_reflection_residual(0.0)
    with pytest.raises(ParameterDomainError):
        euler_reflection_residual(1.0)


def test_barnes_integral_at_small_integers():
    assert log_barnesG_integral(0.0).value == pytest.approx(0.0, abs=1e-11)
    assert log_barnesG_integral(1.0).value == pytest.approx(0.0, abs=1e-11)
    assert log_barnesG_integral(3.0).value == pytest.approx(math.log(2.0), abs=1e-10)


def test_barnes_integral_vs_oracle():
    for n in range(1, 9):
        got = log_barnesG_integral(float(n)).value
        want = barnesG_integer_oracle(n)
        assert got == pytest.approx(want, abs=1e-9), n


def test_barnes_domain():
    for z in (-0.5, math.nan, math.inf):
        with pytest.raises(ParameterDomainError, match="requires finite z >= 0"):
            log_barnesG_integral(z)
    assert log_barnesG_integral(-0.0) == log_barnesG_integral(0.0)


def test_barnes_recurrence_through_malmsten():
    # ln G(z+2) - ln G(z+1) = ln Gamma(z+1)
    for z in (0.5, 1.0, 2.5):
        lhs = log_barnesG_integral(z + 1.0).value - log_barnesG_integral(z).value
        rhs = log_gamma_malmsten(z).value
        assert lhs == pytest.approx(rhs, abs=1e-8), z


def test_bernoulli_square_pinned_to_exact_convolution():
    # B_k from sum_{j<=m} C(m+1, j) B_j = 0 (so B_1 = -1/2), then B_1 = +1/2;
    # the square of 1/(1 - e^{-y}) = sum_k B_k y^(k-1) / k! by Fraction
    # convolution, rounded once per coefficient
    bern = [Fraction(1)]
    for m in range(1, 19):
        bern.append(-sum(math.comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1))
    bern[1] = -bern[1]
    c = [b / math.factorial(k) for k, b in enumerate(bern)]
    want = [float(sum(c[i] * c[m - i] for i in range(m + 1))) for m in range(len(c))]
    assert len(special._S) == 19
    assert [x.hex() for x in special._S] == [x.hex() for x in want]
    # Barnes' asymptotic series reads the same list: B_{2k+2} / (4k(k+1)),
    # k = 1..8, rounded once each
    want = [float(bern[2 * k + 2] / (4 * k * (k + 1))) for k in range(1, 9)]
    assert [x.hex() for x in special._STIRLING] == [x.hex() for x in want]


def test_barnes_integrand_branch_continuity():
    # series/direct switch at y = 1e-2
    g = _barnes_integrand(2.5)
    lo = g(math.nextafter(1e-2, 0.0))
    hi = g(math.nextafter(1e-2, math.inf))
    assert hi == pytest.approx(lo, rel=1e-10)


@pytest.mark.parametrize(
    "z, tol, series_samples",
    [(2.37, Tolerance(), 0), (4.52, Tolerance(), 2), (0.05, Tolerance(), 0), (4.5, _TIGHT, 98)],
)
def test_barnes_series_built_at_most_once_per_call(monkeypatch, z, tol, series_samples):
    # the series coefficients are built with the integrand, exactly once per
    # integral, whether or not any sample falls below the switch
    builds, samples = [], []
    build, integrand = special._series_brackets, special._barnes_integrand

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    def sampling_integrand(z):
        g = integrand(z)
        return lambda y: samples.append(y) or g(y)

    monkeypatch.setattr(special, "_series_brackets", counting_build)
    monkeypatch.setattr(special, "_barnes_integrand", sampling_integrand)
    log_barnesG_integral(z, tol)
    assert sum(y < special._Y_SWITCH for y in samples) == series_samples
    assert len(builds) == 1


def test_oracle_small_values():
    # an exact sum: a plain float, with no estimate or flag to report
    assert type(barnesG_integer_oracle(1)) is float
    assert barnesG_integer_oracle(1) == 0.0
    assert barnesG_integer_oracle(4) == pytest.approx(math.log(12.0), rel=1e-15)
    assert barnesG_integer_oracle(6) == pytest.approx(math.log(34560.0), rel=1e-15)
    with pytest.raises(ParameterDomainError):
        barnesG_integer_oracle(0)


@pytest.mark.parametrize("n", [*range(1, 61), 100, 400, 1000, 20000])
def test_oracle_vs_mpmath(n):
    # the log sum stays within about an ulp of ln G(n+1) at every size,
    # and n = 20000 takes milliseconds
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        want = mp.log(mp.barnesg(n + 1))
        err = abs(mp.mpf(barnesG_integer_oracle(n)) - want)
        assert err <= 2.5e-16 * max(1, abs(want)), (n, float(err))


def test_unitary_closed_form_values():
    assert phi_unitary_closed_form(1.0) == 0.0
    assert phi_unitary_closed_form(2.0) == pytest.approx(
        math.log(math.pi / 2.0), rel=1e-14
    )
    want = math.log(2.0) - 4.5 * math.log(3.0) + 3.0 * LOG_2PI
    assert phi_unitary_closed_form(3.0) == pytest.approx(want, rel=1e-13)
    # z <= 0, and a z whose square is not finite, where the formula reads inf - inf
    for z in (0.0, -1.0, math.inf, math.nan, 1.4e154):
        with pytest.raises(ParameterDomainError):
            phi_unitary_closed_form(z)


def test_unitary_closed_form_sign_layout():
    # at integers the value is minus the factorial-form volume logarithm
    for n in (2, 4, 7):
        neg_log = (
            0.5 * n * n * math.log(n)
            - 0.5 * (n * n - n) * LOG_2PI
            - barnesG_integer_oracle(n)
        )
        assert phi_unitary_closed_form(float(n)) == pytest.approx(
            -neg_log, rel=1e-12, abs=1e-12
        )


def test_closed_form_vs_mpmath_at_integers():
    # the rule's accuracy where it picks a source: every integer 1..300 and
    # five larger ones, within 4e-15 of max(1, |phi|) at worst and 1e-15 on
    # average (the factorial sum at every one of them gave 3.7e-15 and
    # 9.8e-16, the series from 8 on gives 2.9e-15 and 7.5e-16)
    mp = pytest.importorskip("mpmath")
    errors = []
    with mp.workdps(40):
        for n in (*range(1, 301), 500, 1000, 4096, 20000, 65536):
            z = mp.mpf(n)
            want = mp.log(mp.barnesg(z + 1)) - z * z * mp.log(z) / 2
            want += (z * z - z) * mp.log(2 * mp.pi) / 2
            err = abs(mp.mpf(phi_unitary_closed_form(float(n))) - want) / max(1, abs(want))
            errors.append(float(err))
    assert max(errors) <= 4e-15
    assert sum(errors) / len(errors) <= 1e-15


@pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 3.0, 5.5, 9.0])
def test_integral_matches_closed_form_on_unitary_line(z):
    phi = integrate_phi(VogelPoint(-2.0, 2.0, z)).value
    ref = phi_unitary_closed_form(z)
    assert abs(phi - ref) <= 1e-7


# with the engine's budget cut to 60 evaluations (_starve), the Barnes
# quadrature stops short of this tolerance
_STARVED = Tolerance(rel=1e-14, abs=1e-16)


def _starve(monkeypatch):
    monkeypatch.setattr(quad, "_MAX_EVALUATIONS", 60)


def test_barnes_integral_reports_non_convergence(monkeypatch):
    # the value comes back with its flag down, as a QuadResult does
    _starve(monkeypatch)
    got = log_barnesG_integral(2.5, _STARVED)
    assert got.converged is False
    assert math.isfinite(got.value) and got.error_estimate > 0.0


def _fields(result):
    return (result.error_estimate, result.converged, result.evaluations, result.tail_cutoff)


def test_barnes_integral_keeps_quadrature_fields():
    # the engine's result, its value mapped to ln G(z+1): 210 evaluations and
    # cutoff 64, as the pinned _barnes(0.5) row of test_quad.py
    got = log_barnesG_integral(0.5)
    assert isinstance(got, QuadResult)
    assert (got.converged, got.evaluations, got.tail_cutoff) == (True, 210, 64.0)
    tail = lambda x: 0.5 / x - 0.5 / (x * x)
    raw = integrate_semiinfinite(_barnes_integrand(0.5), _TIGHT, initial_scale=8.0, tail=tail)
    assert _fields(got) == _fields(raw)
    assert got.value == 0.25 * LOG_2PI + special._ZETA_PRIME_MINUS_ONE - raw.value


def _closed_form_from(lng, z):
    # the closed form written out on a given ln G(z+1)
    return lng - 0.5 * z * z * math.log(z) + 0.5 * (z * z - z) * LOG_2PI


def _no_barnes_integral(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Barnes' integral was called")

    monkeypatch.setattr(special, "log_barnesG_integral", refuse)
    monkeypatch.setattr(special, "integrate_semiinfinite", refuse)


def test_closed_form_uses_oracle_at_integers(monkeypatch):
    # a plain float from sums alone: Barnes' integral is never called
    _no_barnes_integral(monkeypatch)
    # an integer below the series' shift reads the exact oracle, bit for bit
    for n in (1, 2, 4, 7):
        want = _closed_form_from(barnesG_integer_oracle(n), float(n))
        for z in (n, float(n)):
            got = phi_unitary_closed_form(z)
            assert type(got) is float and got.hex() == want.hex(), z
    # from the shift on, and off the integers, the asymptotic series; a
    # refusing oracle shows the larger integers never sum logs
    def no_oracle(n):
        raise AssertionError(f"oracle called at n = {n}")

    monkeypatch.setattr(special, "barnesG_integer_oracle", no_oracle)
    for z in (8, 9, 100, 1000, 2**16, 2**16 + 1, 0.5, 2.5, 4.5, 1e10 + 0.5):
        want = _closed_form_from(special._log_barnesG_series(float(z)), float(z))
        got = phi_unitary_closed_form(z)
        assert type(got) is float and got.hex() == want.hex(), z


def test_malmsten_oracle_fails_when_unconverged(monkeypatch):
    _starve(monkeypatch)
    with pytest.raises(AssertionError, match="did not converge"):
        log_gamma_malmsten(0.5, _STARVED)


def test_closed_form_reads_oracle_up_to_its_bound():
    # the integers below the series' shift read the oracle; from the shift on
    # they take the series, which meets the oracle there, and far out, where
    # Barnes' integral meets it too
    assert _STIRLING_SHIFT == 8.0
    n = 7
    want = _closed_form_from(barnesG_integer_oracle(n), float(n))
    assert phi_unitary_closed_form(float(n)).hex() == want.hex()
    for n in (8, 2**16 + 1):
        want = barnesG_integer_oracle(n)
        series = special._log_barnesG_series(float(n))
        assert phi_unitary_closed_form(float(n)) == _closed_form_from(series, float(n))
        assert abs(series - want) <= 1e-14 * want, n
    assert abs(log_barnesG_integral(float(n), Tolerance()).value - want) <= 1e-14 * want


def test_oracle_memory_stays_flat():
    # the n - 2 log terms stream into math.fsum: no list of them is built
    tracemalloc.start()
    try:
        barnesG_integer_oracle(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# Non-integer arguments, where the oracle cannot check the integral. z = 0.3
# is left out: at _TIGHT its summed |K - G| stays near 6e-14, above the
# target 1e-12 * 0.043 (the integral's value), and it does not converge.
# From z = 19 on the small-y series is read below y = 0.01; with a switch of
# 0.01 for every z, z = 100.5, 300.5 and 1000.5 were 9e-12, 1e-6 and 0.32
# off, relative, each beyond its estimate.
_BARNES_GRID = (0.02, 0.1, 0.5, 0.77, 1.5, 2.5, 4.5, 7.3, 9.9, 15.5, 25.5, 50.5,
                60.5, 100.5, 300.5, 1000.5, 1e4 + 0.5, 1e5 + 0.5)


@pytest.mark.parametrize("tol", [_TIGHT, Tolerance()], ids=["tight", "default"])
@pytest.mark.parametrize("z", _BARNES_GRID)
def test_barnes_integral_vs_mpmath(z, tol):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        want = float(mp.log(mp.barnesg(z + 1)))
    got = log_barnesG_integral(z, tol)
    assert got.converged, (z, got)
    assert abs(got.value - want) <= got.error_estimate, (z, got)
    if z > 4.0:  # past the zeros of ln G(z+1) at z = 0, 1 and 2
        assert abs(got.value - want) <= 1e-13 * want, (z, got)


# Barnes' asymptotic series against mpmath: 400 seeded z in (0, 10), each
# z in (0, 1) moved up by N = 8, the ends of the series' shift at 8, small
# z, and large z up to 1e15 (the closed form reads the series at every
# non-integer z and at the integers from 8 on)
_SERIES_ZS = (
    *(random.Random(20).uniform(0.0, 10.0) for _ in range(400)),
    1e-300, 1e-6, 0.18, 0.3, 0.395, 4.5, 4.55, 7.999999, 8.0, 8.000001, 60.5,
    *(10.0**e + 0.5 for e in range(4, 16)), 1e15,
)


# the series' error bound, relative to max(1, |ln G|)
_SERIES_BOUND = 5e-14


def test_barnes_series_vs_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        for z in _SERIES_ZS:
            want = mp.log(mp.barnesg(mp.mpf(z) + 1))
            err = abs(mp.mpf(special._log_barnesG_series(z)) - want)
            assert err <= _SERIES_BOUND * max(1, abs(want)), (z, float(err))


@pytest.mark.parametrize("tol", [_TIGHT, Tolerance()], ids=["tight", "default"])
@pytest.mark.parametrize("z", _BARNES_GRID)
def test_barnes_integral_vs_series(z, tol):
    # two routes that share only zeta'(-1) and ln 2pi, within the sum of their
    # bounds: the integral's own estimate and the series' bound. At z = 0.1
    # and _TIGHT the series is the farther from mpmath (6.4e-15 against 1.1e-15)
    # and the two differ by more than the integral's estimate alone.
    got = log_barnesG_integral(z, tol)
    series = special._log_barnesG_series(z)
    assert got.converged, (z, got)
    bound = got.error_estimate + _SERIES_BOUND * max(1.0, abs(series))
    assert abs(got.value - series) <= bound, (z, got)


def test_barnes_tail_cutoff_stays_small(monkeypatch):
    # the closed-form tail stops the doubling near y ~ 64, where the
    # neglected e^{-y} terms fall below the absolute tolerance
    results = []

    def recording(*args, **kwargs):
        results.append(quad.integrate_semiinfinite(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(special, "integrate_semiinfinite", recording)
    for tol in (_TIGHT, Tolerance()):
        for z in (0.0, 0.02, 0.5, 1.0, 2.5, 4.5, 9.0, 25.5, 50.5):
            log_barnesG_integral(z, tol)
    assert len(results) == 18
    assert max(r.tail_cutoff for r in results) <= 128.0
