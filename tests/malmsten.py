"""Test oracles for the quadrature engine: ln Gamma from Malmsten's integral
and the Euler reflection residual built on it. No command calls them; the
tests use them to check the engine and the Barnes integral against the
Gamma function."""

import math

from lievol.errors import ParameterDomainError
from lievol.quad import QuadResult, Tolerance, integrate_semiinfinite
from lievol.special import _TIGHT


def log_gamma_malmsten(z: float, tol: Tolerance | None = None) -> QuadResult:
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
    qr = integrate_semiinfinite(f, tol, initial_scale=scale)
    # an oracle that did not converge fails every test that reads it
    assert qr.converged, f"quadrature for ln Gamma(1+{z}) did not converge: {qr}"
    return qr


def euler_reflection_residual(x: float) -> float:
    """sin(pi x)/(pi x) minus 1/(Gamma(1-x) Gamma(1+x)), for 0 < |x| < 1."""
    if not 0.0 < abs(x) < 1.0:
        raise ParameterDomainError(f"requires 0 < |x| < 1, got {x}")
    lg_plus = log_gamma_malmsten(x)
    lg_minus = log_gamma_malmsten(-x)
    euler = math.sin(math.pi * x) / (math.pi * x)
    return euler - math.exp(-lg_minus.value - lg_plus.value)
