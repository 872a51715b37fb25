"""Adaptive semi-infinite quadrature and the universal volume integral.

The engine integrates over (0, inf) by truncating at a cutoff X that is
doubled until the newest block contributes less than the absolute tolerance,
then globally refining the worst panels of a 7/15-point Gauss-Kronrod pair
(Piessens et al., QUADPACK, 1983) until the summed nested-rule differences
meet the requested tolerance or `_MAX_EVALUATIONS` runs out. Each pass over
a panel is straight-line code over its 15 nodes with one finiteness test, of
the Kronrod sum. The doubling stops, unconverged, before the cutoff leaves
double range. An integrand that decays only algebraically can pass the exact
integral of its asymptotic form beyond X (`tail`): the doubling then stops
once a block matches that form, and the tail closes the integral. The
first refinement target and the result are math.fsum of the live panels,
correctly rounded in any order; between splits plain running sums steer the
refinement, as in QUADPACK's DQAGE. A total that leaves double range stops
the refinement, unconverged. Results are deterministic.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from functools import reduce
from operator import add

from . import vogel
from ._record import Record
from .errors import IntegrandEvaluationError, ParameterDomainError

__all__ = [
    "Tolerance",
    "QuadResult",
    "integrate_semiinfinite",
    "integrate_phi",
]


# Smallest relative tolerance: a few ulps of 1.0. Below it the nested-rule
# differences are rounding noise, the target is never met, and the engine
# spends its whole evaluation budget before it reports no convergence.
_MIN_REL = 1e-15

# Integrand evaluations one integral may spend, whatever its tolerance. On a
# z grid of step 0.005 in (0, 10), no converged Barnes integral at
# `special._TIGHT` took more than 10,290.
_MAX_EVALUATIONS = 200_000


class Tolerance(Record):
    """Quadrature stopping targets; the evaluation budget is `_MAX_EVALUATIONS`.
    Defaults leave headroom below 1e-8 checks."""

    rel: float = 1e-10
    abs: float = 1e-12

    def __post_init__(self):
        # nan fails this test too. A nan, inf or huge rel would let every route
        # check pass: the agreement bound 10 * rel * |phi| overflows to inf.
        if not (_MIN_REL <= self.rel <= 1.0 and 0.0 < self.abs < math.inf):
            raise ParameterDomainError(
                f"rel must lie in [{_MIN_REL:g}, 1] and abs must be positive and finite"
            )


class QuadResult(Record):
    """An integral's result."""

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
    """One Gauss-Kronrod pass over [a, b]: (kronrod value, |kronrod - gauss|).

    Straight-line code over the 15 nodes. f is sampled at the center, then at
    c - d and c + d from the outermost node inward, and both sums are formed
    in that order. Every weight is positive, so a nan or inf sample leaves the
    Kronrod sum non-finite: one test of that sum covers all 15 samples, and
    only then are they walked, in sampling order, for the first non-finite
    one. A sum that overflows from finite samples is returned as it is.
    """
    x0, x1, x2, x3, x4, x5, x6 = _XGK
    w0, w1, w2, w3, w4, w5, w6 = _WGK
    g1, g3, g5 = _WG
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    d0 = h * x0
    l0, r0 = f(c - d0), f(c + d0)
    d1 = h * x1
    l1, r1 = f(c - d1), f(c + d1)
    d2 = h * x2
    l2, r2 = f(c - d2), f(c + d2)
    d3 = h * x3
    l3, r3 = f(c - d3), f(c + d3)
    d4 = h * x4
    l4, r4 = f(c - d4), f(c + d4)
    d5 = h * x5
    l5, r5 = f(c - d5), f(c + d5)
    d6 = h * x6
    l6, r6 = f(c - d6), f(c + d6)
    s1, s3, s5 = l1 + r1, l3 + r3, l5 + r5
    kron = (_WGK_CENTER * fc + w0 * (l0 + r0) + w1 * s1 + w2 * (l2 + r2) + w3 * s3
            + w4 * (l4 + r4) + w5 * s5 + w6 * (l6 + r6))
    if not math.isfinite(kron):
        for x, y in (
            (c, fc), (c - d0, l0), (c + d0, r0), (c - d1, l1), (c + d1, r1),
            (c - d2, l2), (c + d2, r2), (c - d3, l3), (c + d3, r3), (c - d4, l4),
            (c + d4, r4), (c - d5, l5), (c + d5, r5), (c - d6, l6), (c + d6, r6),
        ):
            if not math.isfinite(y):
                raise IntegrandEvaluationError(x, y)
    gauss = _WG_CENTER * fc + g1 * s1 + g3 * s3 + g5 * s5
    return h * kron, abs(h * (kron - gauss))


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
    within tol.abs, and tail(X) is added to the panel sum.

    The first refinement target and the result are math.fsum of the live
    panels' values (and tail(X)) and of their errors. Each split updates two
    running sums, which steer the loop. They are not proven to stop it where
    exact sums would: they can differ only where the running error sum and
    the exact one fall on opposite sides of the target.

    Returns an unconverged result (never raises) when the evaluation budget
    runs out; when no block is negligible before the next one's endpoints
    would sum past the largest double (an integrand that never decays in
    floating point), with the cutoff finite; and when a total leaves double
    range, with an inf or nan value or error. A converged result has a
    finite value and error_estimate within the tolerance.
    """
    tol = tol or Tolerance()
    if not 0.0 < initial_scale < math.inf:
        raise ValueError("initial_scale must be positive and finite")

    # one heap entry per panel, (-err, n, a, b, val, err): n counts the
    # panels pushed, so ties pop in push order, and 15 n is the evaluations
    panels: list[tuple[float, int, float, float, float, float]] = []
    n = 0

    # [0, initial_scale], then blocks [X/2, X] as the cutoff X doubles, until
    # a block is negligible (settled), the budget runs out, or the next
    # block's endpoints would sum past the largest double
    a, cutoff = 0.0, initial_scale
    settled = False
    while True:
        val, err = _eval_panel(f, a, cutoff)
        heapq.heappush(panels, (-err, n, a, cutoff, val, err))
        n += 1
        if a:
            if tail is not None:
                val -= tail(a) - tail(cutoff)
            if abs(val) < tol.abs:
                settled = True
                break
        if 15 * (n + 1) > _MAX_EVALUATIONS or not 3.0 * cutoff < math.inf:
            break
        a, cutoff = cutoff, 2.0 * cutoff
    beyond = [] if tail is None else [tail(cutoff)]

    def totals() -> tuple[float, float]:
        # the live panels' value (and the tail) and error, correctly rounded;
        # where fsum raises, a total left double range, and the sums in
        # order, inf or nan there, stop the refinement
        values, errs = [p[4] for p in panels] + beyond, [p[5] for p in panels]
        try:
            return math.fsum(values), math.fsum(errs)
        except (OverflowError, ValueError):
            return reduce(add, values), reduce(add, errs)

    value, err_total = totals()
    doubled = n
    while (
        settled
        and math.isfinite(value)
        and max(tol.abs, tol.rel * abs(value)) < err_total < math.inf
        and 15 * (n + 2) <= _MAX_EVALUATIONS
    ):
        _, _, a, b, val, err = panels[0]
        if b - a <= 1e-14 * max(1.0, abs(a)):
            break  # cannot split further; the panel stays in the result
        m = 0.5 * (a + b)
        v1, e1 = _eval_panel(f, a, m)
        heapq.heapreplace(panels, (-e1, n, a, m, v1, e1))  # pops the panel split
        v2, e2 = _eval_panel(f, m, b)
        heapq.heappush(panels, (-e2, n + 1, m, b, v2, e2))
        n += 2
        # running sums steer the splits; the result is summed afresh below
        value += (v1 + v2) - val
        err_total += (e1 + e2) - err
    if n > doubled:
        value, err_total = totals()

    converged = (settled and math.isfinite(value)
                 and err_total <= max(tol.abs, tol.rel * abs(value)))
    return QuadResult(value, err_total, converged, 15 * n, cutoff)


# Widest first panel of the phi integrand, whatever its decay length. The
# factor x/(e^x - 1) has poles at +-2 pi i for every point, and so, where
# no |q/t| exceeds 2, does the sinh-ratio product, whose poles nearest 0 are
# at +-4 pi i t/q: the integrand's bulk sits at x ~ 1-4. A panel [0, L] keeps
# those poles outside the Bernstein ellipse of parameter rho, with
# rho = 6.7 at L = 4, and the 7-point Gauss rule's error, ~rho^-14 = 3e-12
# relative, is below the default tolerance in one panel; at L = 8, rho = 3.9
# and rho^-14 = 6e-9, so the panel is split anyway. Past the decay scale the
# integrand is ~ +-e^{-lambda x}/x, since dim times prod |b_i/a_i| is +-1:
# no doubling block short of it is negligible, and the doubling still runs
# past it. The integrand reads only ratios of the point, and so does a
# constant panel: phi stays scale-free.
_PHI_FIRST_PANEL = 4.0


def integrate_phi(p: vogel.VogelPoint, tol: Tolerance | None = None) -> QuadResult:
    """Universal volume integral at p.

    phi_start_scale(p) refuses the divergence set and a decay length outside
    double range before the integrand is built; the engine starts on
    [0, min(phi_start_scale(p), _PHI_FIRST_PANEL)], at the integrand's own
    scale, and the cutoff doubles out to its decay length."""
    start = min(vogel.phi_start_scale(p), _PHI_FIRST_PANEL)
    return integrate_semiinfinite(vogel.phi_integrand(p), tol, initial_scale=start)
