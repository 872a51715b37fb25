"""Classical special functions via their integral representations.

log-Gamma comes from Malmsten's integral and log Barnes-G from Barnes'
integral, both driven by the quadrature engine; the Barnes integrand
decays only like z/y^2, so its tail beyond the cutoff is integrated in
closed form. The factorial product supplies exact reference values at the
integers. The two Barnes routes are kept fully independent so their
agreement is a genuine check.
"""

from __future__ import annotations

import math

from ._record import Record
from .errors import ParameterDomainError, QuadratureError
from .quad import Tolerance, integrate_semiinfinite

__all__ = [
    "SpecialValue",
    "log_gamma_malmsten",
    "euler_reflection_residual",
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
_TIGHT = Tolerance(rel=1e-12, abs=1e-14, max_evaluations=400_000)


class SpecialValue(Record):
    value: float
    method: str  # "integral" | "oracle" | "closed_form"
    error_estimate: float


def _converged(qr, what):
    if not qr.converged:
        raise QuadratureError(f"quadrature for {what} did not converge", result=qr)
    return qr


def log_gamma_malmsten(z: float, tol: Tolerance | None = None) -> SpecialValue:
    """ln Gamma(1+z) for z > -1 from Malmsten's integral.

    The numerator e^{-zx} + z(1-e^{-x}) - 1 is computed by a short series
    below x ~ 1e-3/max(1,|z|) (it vanishes to second order at 0) and by
    expm1 differences elsewhere; for z < 0 the large-x region switches to
    the dominant exponential to dodge inf/inf.
    """
    if 1.0 + z <= 0.0:
        raise ParameterDomainError(f"log_gamma_malmsten requires z > -1, got {z}")
    tol = tol or _TIGHT

    # series coefficients of expm1(-zx) - z expm1(-x): (-1)^k (z^k - z)/k!
    coeffs = []
    zk = z
    sign = 1.0
    fact = 1.0
    for k in range(2, 9):
        zk *= z
        sign = -sign
        fact *= k
        coeffs.append(sign * (zk - z) / fact)
    x_switch = 1e-3 / max(1.0, abs(z))

    def f(x: float) -> float:
        if x < x_switch:
            num = 0.0
            for c in reversed(coeffs):
                num = num * x + c
            num *= x * x
        elif z < 0.0 and -z * x > 45.0 and x > 45.0:
            return math.exp(-(1.0 + z) * x) / x
        else:
            num = math.expm1(-z * x) - z * math.expm1(-x)
        return num / (x * math.expm1(x))

    scale = 8.0 * max(1.0, 1.0 / (1.0 + z))
    qr = _converged(
        integrate_semiinfinite(f, tol, initial_scale=scale), f"ln Gamma(1+{z})"
    )
    return SpecialValue(qr.value, "integral", qr.error_estimate)


def euler_reflection_residual(x: float) -> float:
    """sin(pi x)/(pi x) minus 1/(Gamma(1-x) Gamma(1+x)), for 0 < |x| < 1."""
    if not 0.0 < abs(x) < 1.0:
        raise ParameterDomainError(f"requires 0 < |x| < 1, got {x}")
    lg_plus = log_gamma_malmsten(x)
    lg_minus = log_gamma_malmsten(-x)
    euler = math.sin(math.pi * x) / (math.pi * x)
    return euler - math.exp(-lg_minus.value - lg_plus.value)


# --- Barnes G ---------------------------------------------------------------
#
# Small-y expansion machinery for the Barnes integrand. With
# 1/(1-e^{-y}) = sum c_k y^k (k >= -1), built from Bernoulli numbers with
# B1 = +1/2, the square S = (sum c_k y^k)^2 is formed by exact convolution
# once at import; per call the e^{-(z+1)y} factor is folded in numerically.

# B_k as (numerator, denominator)
_BERNOULLI_PLUS = (
    (1, 1), (1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42), (0, 1),
    (-1, 30), (0, 1), (5, 66), (0, 1), (-691, 2730), (0, 1), (7, 6),
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
_Y_SWITCH = 1e-2


def _barnes_integrand(z: float):
    w = z + 1.0
    q = 0.5 * (z * z - 1.0 / 6.0)

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

    def g(y: float) -> float:
        if y < _Y_SWITCH:
            acc = 0.0
            for c in reversed(brackets):
                acc = acc * y + c
            return acc
        u = -math.expm1(-y)  # 1 - e^{-y}
        a = math.exp(-w * y) / (u * u)
        return (a - 1.0 / (y * y) + z / y - q * math.exp(-y)) / y

    return g


def log_barnesG_integral(z: float, tol: Tolerance | None = None) -> SpecialValue:
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
    out to ~z/abs_tol. z = 0 is admitted (the bracket stays integrable and
    the value is 0).
    """
    if z < 0.0:
        raise ParameterDomainError(f"log_barnesG_integral requires z >= 0, got {z}")
    tol = tol or _TIGHT

    def tail(x: float) -> float:
        return z / x - 0.5 / (x * x)

    qr = _converged(
        integrate_semiinfinite(_barnes_integrand(z), tol, initial_scale=8.0, tail=tail),
        f"ln G({z}+1)",
    )
    value = 0.5 * z * _LOG_2PI + _ZETA_PRIME_MINUS_ONE - qr.value
    return SpecialValue(value, "integral", qr.error_estimate)


def barnesG_integer_oracle(n: int) -> SpecialValue:
    """Exact ln G(n+1) = ln(1! 2! ... (n-1)!) for integer n >= 1."""
    if not isinstance(n, int) or n < 1:
        raise ParameterDomainError(f"oracle requires integer n >= 1, got {n!r}")
    product = 1
    for k in range(1, n):
        product *= math.factorial(k)
    return SpecialValue(math.log(product), "oracle", 0.0)


def phi_unitary_closed_form(z: float, tol: Tolerance | None = None) -> SpecialValue:
    """Closed form of the universal integral on the line alpha + beta = 0:

        ln G(z+1) - (1/2) z^2 ln z + (1/2)(z^2 - z) ln 2pi,  z > 0,

    with ln G from the factorial oracle at integers and from Barnes'
    integral elsewhere. This is the reference the integral route is
    checked against.
    """
    if z <= 0.0:
        raise ParameterDomainError(f"closed form requires z > 0, got {z}")
    if float(z).is_integer():
        lng = barnesG_integer_oracle(int(z))
    else:
        lng = log_barnesG_integral(z, tol)
    value = lng.value - 0.5 * z * z * math.log(z) + 0.5 * (z * z - z) * _LOG_2PI
    return SpecialValue(value, "closed_form", lng.error_estimate)
