"""Special-function routes: Malmsten log-Gamma, Barnes-G, factorial oracle."""

import math
from fractions import Fraction

import pytest

from lievol import quad, special
from lievol.errors import ParameterDomainError
from lievol.quad import Tolerance, integrate_phi
from lievol.special import (
    _TIGHT,
    _barnes_integrand,
    barnesG_integer_oracle,
    euler_reflection_residual,
    log_barnesG_integral,
    log_gamma_malmsten,
    phi_unitary_closed_form,
)
from lievol.vogel import VogelPoint

LOG_2PI = math.log(2.0 * math.pi)


def test_malmsten_trivial_points():
    assert log_gamma_malmsten(1.0).value == pytest.approx(0.0, abs=1e-12)
    assert log_gamma_malmsten(0.0).value == pytest.approx(0.0, abs=1e-12)


def test_malmsten_half_integer():
    # Gamma(3/2) = sqrt(pi)/2
    want = 0.5 * math.log(math.pi) - math.log(2.0)
    got = log_gamma_malmsten(0.5)
    assert got.method == "integral"
    assert got.value == pytest.approx(want, abs=1e-11)


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
        want = barnesG_integer_oracle(n).value
        assert got == pytest.approx(want, abs=1e-9), n


def test_barnes_domain():
    with pytest.raises(ParameterDomainError):
        log_barnesG_integral(-0.5)


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
    for m in range(1, 15):
        bern.append(-sum(math.comb(m + 1, j) * bern[j] for j in range(m)) / (m + 1))
    bern[1] = -bern[1]
    c = [b / math.factorial(k) for k, b in enumerate(bern)]
    want = [float(sum(c[i] * c[m - i] for i in range(m + 1))) for m in range(len(c))]
    assert [x.hex() for x in special._S] == [x.hex() for x in want]


def test_barnes_integrand_branch_continuity():
    # series/direct switch at y = 1e-2
    g = _barnes_integrand(2.5)
    lo = g(math.nextafter(1e-2, 0.0))
    hi = g(math.nextafter(1e-2, math.inf))
    assert hi == pytest.approx(lo, rel=1e-10)


def test_oracle_values_exact():
    assert barnesG_integer_oracle(1).value == 0.0
    assert barnesG_integer_oracle(1).error_estimate == 0.0
    assert barnesG_integer_oracle(1).method == "oracle"
    assert barnesG_integer_oracle(4).value == pytest.approx(math.log(12.0), rel=1e-15)
    assert barnesG_integer_oracle(6).value == pytest.approx(math.log(34560.0), rel=1e-15)
    with pytest.raises(ParameterDomainError):
        barnesG_integer_oracle(0)


def test_unitary_closed_form_values():
    assert phi_unitary_closed_form(1.0).value == 0.0
    assert phi_unitary_closed_form(2.0).value == pytest.approx(
        math.log(math.pi / 2.0), rel=1e-14
    )
    want = math.log(2.0) - 4.5 * math.log(3.0) + 3.0 * LOG_2PI
    assert phi_unitary_closed_form(3.0).value == pytest.approx(want, rel=1e-13)
    with pytest.raises(ParameterDomainError):
        phi_unitary_closed_form(0.0)


def test_unitary_closed_form_sign_layout():
    # at integers the value is minus the factorial-form volume logarithm
    for n in (2, 4, 7):
        neg_log = (
            0.5 * n * n * math.log(n)
            - 0.5 * (n * n - n) * LOG_2PI
            - barnesG_integer_oracle(n).value
        )
        assert phi_unitary_closed_form(float(n)).value == pytest.approx(
            -neg_log, rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize("z", [0.5, 1.0, 2.0, 3.0, 5.5, 9.0])
def test_integral_matches_closed_form_on_unitary_line(z):
    phi = integrate_phi(VogelPoint(-2.0, 2.0, z)).value
    ref = phi_unitary_closed_form(z).value
    assert abs(phi - ref) <= 1e-7


def test_closed_form_uses_oracle_at_integers():
    v = phi_unitary_closed_form(4.0)
    assert v.error_estimate == 0.0  # propagated from the exact oracle
    v = phi_unitary_closed_form(4.5)
    assert v.error_estimate > 0.0


# Non-integer arguments, so the Barnes integral is the only route. z = 0.3
# is left out: at _TIGHT its summed |K - G| stays near 6e-14, above the
# target 1e-12 * 0.043 (the integral's value), and it does not converge.
_BARNES_GRID = (0.02, 0.1, 0.5, 0.77, 1.5, 2.5, 4.5, 7.3, 9.9, 15.5, 25.5, 50.5)


@pytest.mark.parametrize("tol", [_TIGHT, Tolerance()], ids=["tight", "default"])
@pytest.mark.parametrize("z", _BARNES_GRID)
def test_barnes_integral_vs_mpmath(z, tol):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        want = float(mp.log(mp.barnesg(z + 1)))
    got = log_barnesG_integral(z, tol)
    assert abs(got.value - want) <= got.error_estimate, (z, got)


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
