"""Adaptive semi-infinite quadrature and the universal volume integral.

The engine integrates over (0, inf) by truncating at a cutoff X that is
doubled until the newest block contributes less than the absolute
tolerance, then globally refining the worst panels of a 7/15-point
Gauss-Kronrod pair (Piessens et al., QUADPACK, 1983) until the summed
nested-rule differences meet the requested tolerance. An integrand that
decays only algebraically can pass the exact integral of its asymptotic
form beyond X (`tail`): the doubling then stops once a block matches that
form, and the tail closes the integral. The panel values and errors are
kept as exact running sums (Shewchuk partials), so each step reads the
correctly rounded totals without re-summing every panel; the result is a
final math.fsum in a fixed order, so results are deterministic.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Callable

from . import vogel
from ._record import Record
from .errors import (
    DivergenceSetError,
    IntegrandEvaluationError,
    ParameterDomainError,
)
from .vogel import VogelPoint

__all__ = [
    "Tolerance",
    "QuadResult",
    "integrate_semiinfinite",
    "integrate_phi",
    "phi_integrand",
]


# Smallest relative tolerance: a few ulps of 1.0. Below it the nested-rule
# differences are rounding noise, the target is never met, and the engine
# spends its whole evaluation budget before it reports no convergence.
_MIN_REL = 1e-15


class Tolerance(Record):
    """Quadrature stopping targets. Defaults leave headroom below 1e-8 checks."""

    rel: float = 1e-10
    abs: float = 1e-12
    max_evaluations: int = 200_000

    def __post_init__(self):
        # nan fails this test too. A nan, inf or huge rel would let every route
        # check pass: the agreement bound 10 * rel * |phi| overflows to inf.
        if not (_MIN_REL <= self.rel <= 1.0 and 0.0 < self.abs < math.inf):
            raise ParameterDomainError(
                f"rel must lie in [{_MIN_REL:g}, 1] and abs must be positive and finite"
            )
        if self.max_evaluations <= 0:
            raise ParameterDomainError("evaluation budget must be positive")


class QuadResult(Record):
    value: float
    error_estimate: float
    converged: bool
    evaluations: int
    tail_cutoff: float


# 15-point Kronrod extension of 7-point Gauss (positive abscissae; the
# Gauss-7 subset sits at indices 1, 3, 5 plus the center node).
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
)
_WGK_CENTER = 0.20948214108472782
_WG = (0.12948496616886969, 0.2797053914892766, 0.3818300505051189)
_WG_CENTER = 0.4179591836734694


def _eval_panel(f, a, b):
    """One Gauss-Kronrod pass over [a, b]: (kronrod value, |kronrod - gauss|)."""
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


def _add_exact(partials: list[float], x: float) -> None:
    """Add x to Shewchuk partials in place (the msum recipe). The partials are
    nonoverlapping and sum exactly to every term added so far, so
    math.fsum(partials) is the same correctly rounded float as math.fsum
    over the terms themselves."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def integrate_semiinfinite(
    f: Callable[[float], float],
    tol: Tolerance | None = None,
    initial_scale: float = 8.0,
    tail: Callable[[float], float] | None = None,
) -> QuadResult:
    """Integrate f over (0, inf); f must be finite with at worst a removable
    singularity at 0 (the caller supplies a limit-safe evaluator).

    Without `tail` the cutoff X doubles until the newest block [X/2, X] is
    below tol.abs, and the integral beyond X is taken as zero. `tail(X)`, if
    given, is the exact integral from X to infinity of f's asymptotic form:
    the doubling then stops once the block matches tail(X/2) - tail(X) to
    within tol.abs, and tail(X) is added to the panel sum. That sum is the
    value both in the refinement target and in the result.

    Returns an unconverged result (never raises) when the evaluation budget
    runs out; a converged result always has error_estimate within the
    requested tolerance.
    """
    tol = tol or Tolerance()
    if initial_scale <= 0.0:
        raise ValueError("initial_scale must be positive")

    counter = itertools.count()
    panels: list[tuple[float, int, float, float, float, float]] = []
    # running exact sums of the panel values and errors (the tail included)
    value_parts: list[float] = []
    err_parts: list[float] = []
    evals = 0
    budget_ok = True

    def push(a, b):
        nonlocal evals
        val, err = _eval_panel(f, a, b)
        evals += 15
        heapq.heappush(panels, (-err, next(counter), a, b, val, err))
        _add_exact(value_parts, val)
        _add_exact(err_parts, err)
        return val

    push(0.0, initial_scale)
    cutoff = initial_scale
    while True:
        if evals + 15 > tol.max_evaluations:
            budget_ok = False
            break
        block_val = push(cutoff, 2.0 * cutoff)
        if tail is not None:
            block_val -= tail(cutoff) - tail(2.0 * cutoff)
        cutoff *= 2.0
        if abs(block_val) < tol.abs:
            break
    tail_terms = [] if tail is None else [tail(cutoff)]
    for t in tail_terms:
        _add_exact(value_parts, t)

    value, err_total = math.fsum(value_parts), math.fsum(err_parts)
    refinable = True
    while budget_ok and refinable and err_total > max(tol.abs, tol.rel * abs(value)):
        if evals + 30 > tol.max_evaluations:
            budget_ok = False
            break
        item = heapq.heappop(panels)
        _, _, a, b, val, err = item
        if b - a <= 1e-14 * max(1.0, abs(a)):
            heapq.heappush(panels, item)  # cannot split further
            refinable = False
            break
        _add_exact(value_parts, -val)
        _add_exact(err_parts, -err)
        m = 0.5 * (a + b)
        push(a, m)
        push(m, b)
        value, err_total = math.fsum(value_parts), math.fsum(err_parts)

    ordered = sorted(panels, key=lambda p: p[2])
    value = math.fsum([p[4] for p in ordered] + tail_terms)
    err_total = math.fsum(p[5] for p in ordered)
    converged = (
        budget_ok
        and refinable
        and err_total <= max(tol.abs, tol.rel * abs(value))
    )
    return QuadResult(value, err_total, converged, evals, cutoff)


def phi_integrand(p: VogelPoint) -> Callable[[float], float]:
    """Integrand of the universal volume integral for one parameter point.

    Assembled as [excess/x^2] * [x/(e^x - 1)]: the log-space excess keeps the
    small-x region cancellation-free, and the large-x region switches to a
    pure exponential form before either factor can overflow.
    """
    slopes = vogel._ratio_slopes(p)
    k = vogel.dim_from_vogel(p)
    limit0 = vogel.small_x_quadratic_coeff(p)

    def f(x: float) -> float:
        if x < 1e-12:
            return limit0
        ell = 0.0
        for a, b in slopes:
            ell += vogel.log_sinhc(a * x) - vogel.log_sinhc(b * x)
        try:
            if ell > 45.0 and x > 45.0:
                return k * math.exp(ell - x) / x
            return k * math.expm1(ell) / (x * math.expm1(x))
        except OverflowError:
            # expm1(x) overflows far out in the tail, where e^{-x} is the
            # whole denominator; any other overflow is at extreme parameters,
            # and _eval_panel turns the inf into an IntegrandEvaluationError
            # that names the abscissa
            if ell <= 45.0:
                return k * math.expm1(ell) * math.exp(-x) / x
            return math.inf

    return f


def integrate_phi(p: VogelPoint, tol: Tolerance | None = None) -> QuadResult:
    """Universal volume integral at p; refuses points of the divergence set."""
    if vogel.in_divergence_set(p):
        raise DivergenceSetError(
            "integral diverges on the divergence set "
            "(alpha/t, beta/t, gamma/t all nonnegative)"
        )
    if p.alpha * p.beta * p.gamma == 0.0:
        raise ParameterDomainError("parameters must all be nonzero")
    # 4t is the natural argument scale of the sinh ratios; the slow decay
    # rate |alpha|/2t on table rows is handled by the tail-doubling loop.
    return integrate_semiinfinite(phi_integrand(p), tol, initial_scale=4.0 * abs(p.t))
