"""Classical special functions: log Barnes-G by three independent routes,
and the unitary-line closed form read from them.

Barnes' integral representation is driven by the quadrature engine; its
integrand, built with its small-y series, decays only like z/y^2, so its
tail beyond the cutoff is integrated in closed form. At the integers a
sum of logarithms of the factorial product gives exact values. Barnes'
asymptotic series, read at w = z + N >= 8 and stepped down to z by
ln Gamma, gives the closed form's values except at the integers below 8,
where the step-down is ten times less accurate than the sum. The routes
share only the constants zeta'(-1) and ln 2pi, so their agreement is a
genuine check. The integral returns the engine's `QuadResult`, value
mapped; the sums are floats.
"""

from __future__ import annotations

import math

from .errors import ParameterDomainError
from .quad import QuadResult, Tolerance, integrate_semiinfinite

__all__ = [
    "log_barnesG_integral",
    "barnesG_integer_oracle",
    "phi_unitary_closed_form",
]

_LOG_2PI = math.log(2.0 * math.pi)

# zeta'(-1) = 1/12 - ln A (A the Glaisher-Kinkelin constant); the constant
# term of the Barnes-G integral representation used below. Classical value,
# hard-coded like the Gamma(1/2) = sqrt(pi) anchor.
_ZETA_PRIME_MINUS_ONE = -0.16542114370045094

# Values here sit an order of magnitude or two above machine noise for
# arguments up to ~10, so the internal quadrature runs tighter than the
# engine default.
_TIGHT = Tolerance(rel=1e-12, abs=1e-14)


# --- Barnes G ---------------------------------------------------------------
#
# Small-y expansion machinery for the Barnes integrand. With
# 1/(1-e^{-y}) = sum c_k y^k (k >= -1), built from Bernoulli numbers with
# B1 = +1/2, the square S = (sum c_k y^k)^2 is formed by exact convolution
# once at import; the e^{-(z+1)y} factor is folded in numerically when an
# integrand is built.

# B_k as (numerator, denominator), k = 0..18, for both series
_BERNOULLI_PLUS = (
    (1, 1), (1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42), (0, 1),
    (-1, 30), (0, 1), (5, 66), (0, 1), (-691, 2730), (0, 1), (7, 6),
    (0, 1), (-3617, 510), (0, 1), (43867, 798),
)
# _C[i] / _C_DENOM is the coefficient of y^(i-1) in 1/(1 - e^{-y}), that is
# B_i / i!, over one common denominator so the convolution runs in integers
_C_DENOM = math.lcm(*(d * math.factorial(k) for k, (_, d) in enumerate(_BERNOULLI_PLUS)))
_C = tuple(
    n * (_C_DENOM // (d * math.factorial(k))) for k, (n, d) in enumerate(_BERNOULLI_PLUS)
)
# _S[m] is the coefficient of y^(m-2) in 1/(1 - e^{-y})^2; int / int rounds
# the exact quotient once, as float(Fraction) does
_S = tuple(
    sum(_C[i] * _C[m - i] for i in range(m + 1)) / _C_DENOM**2
    for m in range(len(_C))
)
_SERIES_ORDER = 10  # bracket coefficients kept through y^(order-1)
# The series is read below y = min(_Y_SWITCH, _U_SWITCH / (z+1)). With
# u = (z+1) y the bracket is (z+1)^3 (e^-u - 1 + u - u^2/2) / u^3 plus terms
# of lower order in z, so its coefficients grow like (z+1)^k / k!. The series
# keeps u^3 ... u^12 of that; the first term it drops is 6 u^10 / 13!
# relative, below 2^-53 while u < 0.2. A switch of 0.01 alone puts u at 10
# for z = 1000. The switch is 0.01 exactly wherever z <= 19.
_Y_SWITCH = 1e-2
_U_SWITCH = 0.2


def _series_brackets(w: float, q: float) -> tuple[float, ...]:
    """The bracket's small-y series coefficients, highest power first (the
    Horner order), at w = z + 1 and q = (z^2 - 1/6)/2."""
    # E[k] = (-w)^k / k!
    e = [1.0]
    for k in range(1, _SERIES_ORDER + 3):
        e.append(e[-1] * (-w) / k)

    # bracket coefficient of y^n: sum_k E[k] S_{n-k} - q (-1)^n / n!
    # (n = 0 vanishes identically and is dropped rather than divided by y)
    brackets = []
    fact = 1.0
    sign = 1.0
    for n in range(1, _SERIES_ORDER + 1):
        acc = 0.0
        for k in range(0, n + 3):
            acc += e[k] * _S[n - k + 2]
        fact *= n
        sign = -sign
        brackets.append(acc - q * sign / fact)
    return tuple(reversed(brackets))


def _barnes_integrand(z: float):
    """The bracket over y at z. Below the switch it is its series, whose
    coefficients are built with the closure, once per integrand. The math
    functions are bound as locals."""
    w = z + 1.0
    switch = min(_Y_SWITCH, _U_SWITCH / w)
    q = 0.5 * (z * z - 1.0 / 6.0)
    exp, expm1 = math.exp, math.expm1
    series = _series_brackets(w, q)

    def g(y: float) -> float:
        if y < switch:
            acc = 0.0
            for c in series:
                acc = acc * y + c
            return acc
        u = -expm1(-y)  # 1 - e^{-y}
        a = exp(-w * y) / (u * u)
        return (a - 1.0 / (y * y) + z / y - q * exp(-y)) / y

    return g


def log_barnesG_integral(z: float, tol: Tolerance | None = None) -> QuadResult:
    """ln G(z+1) for z > 0 from the Barnes-type integral representation

        ln G(z+1) = (z/2) ln 2pi + zeta'(-1) - integral of the bracket,

    where the bracket is e^{-(z+1)y}/(1-e^{-y})^2 - 1/y^2 + z/y
    - (e^{-y}/2)(z^2 - 1/6), taken against dy/y. The constant term matters:
    the z-independent part of the bracket integrates to exactly zeta'(-1)
    (so z = 0 gives ln G(1) = 0), which fixes the normalization without
    any reference to the factorial values this route is checked against.

    The integrand decays only algebraically, so its tail is integrated in
    closed form (Barnes, Q. J. Math. 31, 1900). With w = z + 1 >= 1 and
    q = (z^2 - 1/6)/2, both

        e^{-wy}/(1-e^{-y})^2 <= e^{-y}/(1-e^{-y})^2   and   q e^{-y}

    are exponentially small for large y, so the integrand is
    (z/y - 1/y^2)/y = z/y^2 - 1/y^3 up to terms in e^{-y}, and

        tail(X) = integral from X to inf of (z/y^2 - 1/y^3) dy
                = z/X - 1/(2X^2).

    The engine stops doubling the cutoff once a block matches that form and
    adds tail(cutoff), so the cutoff stays at 64 or 128 instead of running
    out to ~z/abs_tol. z must be finite; z = 0 is admitted (the bracket
    stays integrable and the value is 0). It returns the engine's result, its value mapped.
    """
    if not 0.0 <= z < math.inf:
        raise ParameterDomainError(f"log_barnesG_integral requires finite z >= 0, got {z}")
    tol = tol or _TIGHT

    def tail(x: float) -> float:
        return z / x - 0.5 / (x * x)

    qr = integrate_semiinfinite(_barnes_integrand(z), tol, initial_scale=8.0, tail=tail)
    value = 0.5 * z * _LOG_2PI + _ZETA_PRIME_MINUS_ONE - qr.value
    return QuadResult(value, qr.error_estimate, qr.converged, qr.evaluations, qr.tail_cutoff)


def barnesG_integer_oracle(n: int) -> float:
    """ln G(n+1) = ln(1! 2! ... (n-1)!) = sum over 2 <= j < n of (n-j) ln j,
    integer n >= 1: positive terms, each rounded twice, summed by math.fsum
    to ~1e-16 relative."""
    if not isinstance(n, int) or n < 1:
        raise ParameterDomainError(f"oracle requires integer n >= 1, got {n!r}")
    return math.fsum((n - j) * math.log(j) for j in range(2, n))


# Barnes' asymptotic series (Q. J. Math. 31, 1900), for w -> inf:
#
#   ln G(w+1) = (w^2/2) ln w - 3w^2/4 + (w/2) ln 2pi - (ln w)/12 + zeta'(-1)
#               + sum over k >= 1 of B_{2k+2} / (4k(k+1) w^{2k}).
#
# It is read at w >= 8 with the eight terms k = 1..8: the first term left
# out, B_20 / (360 w^18), is 8.2e-17 at w = 8 and falls from there. A z below
# 8 is moved up to w = z + N, N = ceil(8 - z), and brought back by
# ln G(z+1) = ln G(w+1) - sum over k = 1..N of ln Gamma(z+k). Those N terms
# grow with w, so a larger w loses accuracy to cancellation: against mpmath
# over 300 seeded z in (0, 10), the worst error is 1.5e-14 of
# max(1, |ln G|) with w >= 8 and 9.1e-14 with w >= 16.
_STIRLING_SHIFT = 8.0
# B_{2k+2} / (4k(k+1)) for k = 1..8, each quotient of integers rounded once
_STIRLING = tuple(
    n / (4 * k * (k + 1) * d) for k, (n, d) in enumerate(_BERNOULLI_PLUS[4::2], start=1)
)


def _log_barnesG_series(z: float) -> float:
    """ln G(z+1) for z >= 0 from Barnes' asymptotic series at w = z + N >= 8,
    stepped down by N values of ln Gamma; the terms are summed by math.fsum."""
    n = math.ceil(_STIRLING_SHIFT - z) if z < _STIRLING_SHIFT else 0
    w = z + n
    x = 1.0 / (w * w)
    tail = 0.0
    for c in reversed(_STIRLING):
        tail = (tail + c) * x
    log_w = math.log(w)
    return math.fsum([
        w * w * (0.5 * log_w - 0.75), 0.5 * w * _LOG_2PI, -log_w / 12.0,
        _ZETA_PRIME_MINUS_ONE, tail, *(-math.lgamma(z + k) for k in range(1, n + 1)),
    ])


# The closed form reads the factorial sum at the integers below
# _STIRLING_SHIFT and the series everywhere else. Against mpmath, relative to
# max(1, |phi|), the step-down costs the series ten times the sum's error at
# z = 1..7 (worst 7.9e-15 against 8.1e-16). From 8 on the series is as
# accurate (worst 2.9e-15 against 3.7e-15, mean 7.6e-16 against 9.8e-16, over
# z = 8..299 and five integers up to 2^16) and takes a few microseconds at
# every z, where the sum's z logs take ~15 ms at 2^16 and grow linearly.
def phi_unitary_closed_form(z: float) -> float:
    """Closed form of the universal integral on the line alpha + beta = 0:

        ln G(z+1) - (1/2) z^2 ln z + (1/2)(z^2 - z) ln 2pi,  z > 0,

    with ln G from the factorial oracle at the integers below
    _STIRLING_SHIFT, where the series' step-down by ln Gamma loses ten times
    the sum's accuracy, and from Barnes' asymptotic series elsewhere. It is
    the integral route's reference: a plain float, as both sources are sums
    with no tolerance. A z whose square overflows is refused, since the
    formula would read inf - inf there.
    """
    if not (z > 0.0 and z * z < math.inf):
        raise ParameterDomainError(f"closed form requires z > 0 with a finite z^2, got {z}")
    if float(z).is_integer() and z < _STIRLING_SHIFT:
        lng = barnesG_integer_oracle(int(z))
    else:
        lng = _log_barnesG_series(z)
    return lng - 0.5 * z * z * math.log(z) + 0.5 * (z * z - z) * _LOG_2PI
