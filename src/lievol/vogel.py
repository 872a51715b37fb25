"""Universal parameter table, dimension formula, and the sinh-ratio generator.

A point (alpha, beta, gamma) is projective: rescaling all three parameters
(and permuting them) names the same object. The table rows use the alpha = -2
normalization, where t = alpha + beta + gamma equals the dual Coxeter number.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from itertools import chain, repeat

from . import rootsys
from ._record import Record
from .errors import DivergenceSetError, ParameterDomainError
from .rootsys import Family, SimpleLieType

__all__ = [
    "VogelPoint",
    "vogel_point",
    "spin_row_point",
    "dim_from_vogel",
    "phi_start_scale",
    "log_sinhc",
    "sinh_product_excess",
    "phi_integrand",
    "key_relation_residual",
]


class VogelPoint(Record):
    """A point of the parameter plane: finite coordinates, their tuple params
    and their nonzero float sum t, attributes but not fields (repr, equality
    and hashing cover alpha, beta and gamma only). Its dimension and ratio
    slopes are kept in the same `__dict__`, computed on first use by
    dim_from_vogel and _ratio_slopes: a point that is never integrated
    computes neither, and one integrated, checked and summed over roots
    computes each once."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        t = float(self.alpha + self.beta + self.gamma)
        if not all(map(math.isfinite, (self.alpha, self.beta, self.gamma, t))):
            raise ParameterDomainError("alpha, beta, gamma and t must be finite")
        if t == 0.0:
            raise ParameterDomainError("alpha + beta + gamma must be nonzero")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "params", (self.alpha, self.beta, self.gamma))


_EXCEPTIONAL_POINTS = {
    Family.G2: (10.0 / 3.0, 8.0 / 3.0),
    Family.F4: (5.0, 6.0),
    Family.E6: (6.0, 8.0),
    Family.E7: (8.0, 12.0),
    Family.E8: (12.0, 20.0),
}


# one entry per type up to the rank cap of `rootsys`, so no caller can grow it
# past that
@functools.lru_cache(maxsize=4 * rootsys._MAX_RANK + len(rootsys.EXCEPTIONAL_RANK))
def vogel_point(lie_type: SimpleLieType) -> VogelPoint:
    """Table row for a supported group, alpha = -2 normalization; its float
    sum t is exactly the dual Coxeter number (-2 + 10/3 + 8/3 == 4.0 for G2).

    One point per type: every call for a type returns the same instance, so
    the dimension and slopes it computes on first use serve every report,
    check item and key-relation abscissa that reads that type's row."""
    fam, r = lie_type.family, lie_type.rank
    if fam is Family.A:
        return VogelPoint(-2.0, 2.0, float(r + 1))
    if fam is Family.B:
        return spin_row_point(2 * r + 1)
    if fam is Family.D:
        return spin_row_point(2 * r)
    if fam is Family.C:
        return VogelPoint(-2.0, 1.0, float(r + 2))
    return VogelPoint(-2.0, *_EXCEPTIONAL_POINTS[fam])


def spin_row_point(n: int) -> VogelPoint:
    """The Spin_n table row (-2, 4, n-4) with t = n-2, for any n >= 5.

    Available at the point level even for n where the D presentation is
    rejected as a root system (notably n = 6, which shares its point with
    SU_4 up to permutation).
    """
    if n < 5:
        raise ParameterDomainError(f"Spin row defined for n >= 5, got {n}")
    return VogelPoint(-2.0, 4.0, float(n - 4))


def _shift(t: float) -> tuple[int, float]:
    """k and 2^-k, k >= 0 least with |t| < 2^k: times 2^-k, 2t, 4t and each q - 2t
    are finite, and exact wherever the unshifted value is normal."""
    k = max(math.frexp(t)[1], 0)
    return k, math.ldexp(1.0, -k)


def dim_from_vogel(p: VogelPoint) -> float:
    """(alpha-2t)(beta-2t)(gamma-2t)/(alpha beta gamma), with frexp mantissas and
    exponents multiplied and added apart, and the differences q - 2t taken
    shifted by 2^-k (see _shift): scale-free, the plain quotient bit for bit
    where it and every plain product are normal, +-inf where it leaves double range.
    Computed once per point and kept on it; a zero parameter raises on every
    call."""
    return _kept(p, "_dim", _dimension)


def _kept(p: VogelPoint, key: str, compute):
    # p's value under key, computed on first use and kept in its __dict__
    # beside t and params; a dict read, as a cached_property's first read
    # costs ~0.5 us more under 3.11, and every new point (a scan row) pays two
    values = p.__dict__
    value = values.get(key)
    if value is None:
        value = values[key] = compute(p)
    return value


def _dimension(p: VogelPoint) -> float:
    a, b, g = p.params
    if 0.0 in p.params:
        raise ParameterDomainError("parameters must all be nonzero")
    k, u = _shift(p.t)
    t2 = 2.0 * (u * p.t)
    (n1, e1), (n2, e2), (n3, e3) = (
        math.frexp(u * a - t2), math.frexp(u * b - t2), math.frexp(u * g - t2)
    )
    (d1, f1), (d2, f2), (d3, f3) = math.frexp(a), math.frexp(b), math.frexp(g)
    quotient = n1 * n2 * n3 / (d1 * d2 * d3)
    try:
        return math.ldexp(quotient, e1 + e2 + e3 + 3 * k - f1 - f2 - f3)
    except OverflowError:
        return math.copysign(math.inf, quotient)


def phi_start_scale(p: VogelPoint) -> float:
    """8|t|/|s|, s the sum of the 1 or 2 parameters with q/t < 0: four decay
    lengths of phi_integrand(p) where no q/t exceeds 2, and 4t exactly where
    alpha = -2 and beta, gamma, t > 0. The one gate of integrate_phi: raises
    DivergenceSetError on the divergence set (no such parameter), and
    ParameterDomainError where the scale leaves double range."""
    # q/t < 0 read from the signs of q and t: the rounded quotient of a tiny
    # q by a huge t is -0.0 and would pass as nonnegative
    opposite = [q for q in p.params if q < 0.0 < p.t or p.t < 0.0 < q]
    if not opposite:
        raise DivergenceSetError(
            "integral diverges on the divergence set "
            "(alpha/t, beta/t, gamma/t all nonnegative)"
        )
    scale = 8.0 * (abs(p.t) / abs(sum(opposite)))
    if not 0.0 < scale < math.inf:
        raise ParameterDomainError("the decay length of the phi integrand leaves double range")
    return scale


# below this |y| the series is used; the direct log(sinh/y) would round at
# ~ulp(1)/value and spoil twelve-digit branch continuity near zero
SINHC_SERIES_CUTOFF = 0.15


def log_sinhc(y: float) -> float:
    """log(sinh(y)/y), even in y, 0 at y = 0; stable over the whole real line."""
    y = abs(y)
    if y < SINHC_SERIES_CUTOFF:
        # integral of coth(y) - 1/y; truncation < 1e-16 relative at the cutoff
        y2 = y * y
        return y2 * (
            1.0 / 6.0
            + y2 * (
                -1.0 / 180.0
                + y2 * (1.0 / 2835.0 + y2 * (-1.0 / 37800.0 + y2 * (1.0 / 467775.0)))
            )
        )
    if y < 350.0:
        return math.log(math.sinh(y) / y)
    # sinh(y) would overflow: log sinh y = y - log 2 + log1p(-e^{-2y}), whose
    # last term, below e^-700 ~ 1e-304, is under half an ulp of y - log 2y >= 343
    # and cannot change the sum
    return y - math.log(2.0 * y)


def _ratio_slopes(p: VogelPoint) -> tuple[tuple[float, float], ...]:
    # per-parameter sinh arguments per unit x: a = (q-2t)/4t (numerator),
    # b = q/4t (denominator), from the coordinates shifted by 2^-k (see
    # _shift); computed once per point and kept on it
    return _kept(p, "_slopes", _slopes)


def _slopes(p: VogelPoint) -> tuple[tuple[float, float], ...]:
    _, u = _shift(p.t)
    t = u * p.t
    t2, t4 = 2.0 * t, 4.0 * t
    a, b, g = u * p.alpha, u * p.beta, u * p.gamma
    return ((a - t2) / t4, a / t4), ((b - t2) / t4, b / t4), ((g - t2) / t4, g / t4)


def sinh_product_excess(x: float, p: VogelPoint) -> float:
    """Triple sinh-ratio product minus its x -> 0 limit (the dimension).

    Evaluated in log space as dim * expm1(l), l the log of the product over
    dim: the sum over i of log_sinhc(a_i x) - log_sinhc(b_i x), the
    product's definition, which phi_integrand takes below its closed form
    and holds that form to. It stays the unreduced sum of all six terms on
    the unitary line too, where phi_integrand drops the pair that adds 0.0.
    The terms are added by `+`, left to right, as `sum` did before Python
    3.12.
    Cancellation-free near 0, overflow-free until the rescaled product
    itself leaves double range. Even in x.
    """
    k = dim_from_vogel(p)
    (a1, b1), (a2, b2), (a3, b3) = _ratio_slopes(p)
    ell = (log_sinhc(a1 * x) - log_sinhc(b1 * x)) + (log_sinhc(a2 * x) - log_sinhc(b2 * x)) + (
        log_sinhc(a3 * x) - log_sinhc(b3 * x))
    if ell > 709.0:
        raise OverflowError(
            f"sinh ratio product exceeds double-precision range at x = {x!r}"
        )
    return k * math.expm1(ell)


# a point takes the closed form of phi_integrand where every |a_i x| and
# |b_i x| is below this at x = x_lo, so that each |b_i/a_i| lies within a
# factor 600/SINHC_SERIES_CUTOFF = 4000 of 1
_CLOSED_FORM_ARG_MAX = 600.0


def phi_integrand(p: VogelPoint) -> Callable[[float], float]:
    """Integrand of the universal volume integral for one parameter point.

    Assembled as [excess/x^2] * [x/(e^x - 1)]: the log-space excess keeps the
    small-x region cancellation-free, and the large-x region switches to a
    pure exponential form before either factor can overflow.

    The log l of the sinh-ratio product over dim is taken in two forms,
    split at x_lo = SINHC_SERIES_CUTOFF / m, m = min_i min(|a_i|, |b_i|),
    with A = sum_i |a_i| and B = sum_i |b_i|:

    - Below x_lo: l is the log_sinhc sum of sinh_product_excess, six
      log_sinhc calls.
    - From x_lo on: one log and six expm1, in closed exponential form. As
      sinh|y| = -e^|y| expm1(-2|y|)/2, exactly
      sinhc(a x)/sinhc(b x) = |b/a| e^{(|a|-|b|) x} expm1(-2|a| x)/expm1(-2|b| x),
      so l = S x + q, with S = sum_i (|a_i| - |b_i|), K = |r1 r2 r3|,
      r_i = b_i/a_i, and q = log(K prod_i expm1(-2|a_i| x)/expm1(-2|b_i| x)).
      expm1 of a negative argument lies in [-1, 0), and below 1 - e^-0.3
      in size nowhere here (every |a_i x| and |b_i x| is past the cutoff),
      so each expm1 ratio lies in (0.25, 4) at every x. The e^{l - x}
      branch becomes k e^{q - lam x}/x, lam = 1 - S, so that l and x never
      cancel. q carries a few roundings of the product and S x one of S and
      one of S x: l is within a few ulps of max(1, (A + B) x) of its exact
      value at the rounded a_i x and b_i x, which is a few ulps of
      max(1, S x) wherever S is not small against A + B, as on every table
      row (lam = 1/t there).

    The one guard: a point has the closed form where
    x_lo < 600 / max(A, B). Every |a_i x_lo| and |b_i x_lo| is then below
    600, so each |r_i| = |b_i x_lo|/|a_i x_lo| lies in (1/4000, 4000), K in
    (4000^-3, 4000^3), and the product under the log neither overflows nor
    underflows to 0. Where the guard fails, and where a slope is 0 (an
    a_i = 0, q_i = 2t and dim = 0, has no ratio b_i/a_i, and a b_i that
    underflowed to 0 never reaches the cutoff), every sample from the
    series on takes the log_sinhc sum. One closure per sample, its factors
    written out.

    On the unitary line a sample takes three log_sinhc (or expm1) instead
    of six, and the same bits. Where q_i = t, the shifted u q_i is t' = u t,
    so a_i = (t' - 2t')/4t' = -1/4 and b_i = t'/4t' = 1/4 exactly. Below
    x_lo log_sinhc(a_i x) == log_sinhc(b_i x), as log_sinhc reads |y|, and
    both are finite for every finite x, so the pair adds 0.0; log_sinhc is
    never negative or -0.0, so no difference of two is -0.0, and adding 0.0
    changes no sum. Where the other two pairs also have b_k == -b_j
    (q_j + q_k = 0 in floats, as on every table row),
    log_sinhc(b_k x) == log_sinhc(b_j x), so one call serves both
    denominators. From x_lo on the pair's factor expm1(-x/2)/expm1(-x/2) is
    exactly 1.0 and its r_i = -1.0 leaves K as it is, so the product, in
    whichever position the factor stands, is unchanged by it, and
    expm1(-2|b_k| x) == expm1(-2|b_j| x): three expm1, not six. k, limit0,
    x_lo, the guard, S and K still come from all six slopes, so every
    sample takes the same branch. Off the line, and where t absorbs the
    rounding of q_j + q_k (q_i == t but b_k != -b_j), the three-pair
    closure runs.
    """
    k = dim_from_vogel(p)
    slopes = _ratio_slopes(p)
    (a1, b1), (a2, b2), (a3, b3) = slopes
    sizes = c1, d1, c2, d2, c3, d3 = abs(a1), abs(b1), abs(a2), abs(b2), abs(a3), abs(b3)
    # from x_past on, l = s x + q (see above); inf for a point without the closed form
    x_past, kr = math.inf, 0.0
    if min(sizes) > 0.0:
        x_lo = SINHC_SERIES_CUTOFF / min(sizes)
        # by `+` on every interpreter: `sum` of floats is compensated from 3.12 on
        if x_lo < _CLOSED_FORM_ARG_MAX / max(c1 + c2 + c3, d1 + d2 + d3):
            x_past, kr = x_lo, abs(b1 / a1 * (b2 / a2) * (b3 / a3))
    s = (c1 - d1) + (c2 - d2) + (c3 - d3)
    lam = 1.0 - s
    # the x -> 0 limit, k/6 sum(a_i^2 - b_i^2): k/12 in exact arithmetic (the
    # strange formula), but summed from the rounded slopes. Where t is tiny
    # against the parameters, the slopes are huge, the start scale is tiny and
    # every sample falls below 1e-12; the constant k/12 would then pass as a
    # converged phi, while this sum carries the slopes' rounding and the
    # quadrature reports it unconverged
    limit0 = k * math.fsum((a1 * a1 - b1 * b1, a2 * a2 - b2 * b2, a3 * a3 - b3 * b3)) / 6.0
    log, exp, expm1, lsc = math.log, math.exp, math.expm1, log_sinhc
    # the unitary line (see above): no pair (-1/4, 1/4), and one denominator
    # for the other two
    live = [(a, b) for a, b in slopes if (a, b) != (-0.25, 0.25)]
    if len(live) == 2 and live[1][1] == -live[0][1]:
        (aj, bj), (ak, _) = live
        cj, ck, dj = abs(aj), abs(ak), abs(bj)

        def f_unitary(x: float) -> float:
            if x < 1e-12:
                return limit0
            if x < x_past:
                lb = lsc(bj * x)
                ell = (lsc(aj * x) - lb) + (lsc(ak * x) - lb)
            else:
                y = -2.0 * x
                eb = expm1(y * dj)
                q = log(kr * (expm1(y * cj) / eb) * (expm1(y * ck) / eb))
                ell = s * x + q
                if ell > 45.0 and x > 45.0:
                    return k * exp(q - lam * x) / x
            # as in f below
            try:
                if ell > 45.0 and x > 45.0:
                    return k * exp(ell - x) / x
                return k * expm1(ell) / (x * expm1(x))
            except OverflowError:
                if ell <= 45.0:
                    return k * expm1(ell) * exp(-x) / x
                return math.inf

        return f_unitary

    def f(x: float) -> float:
        if x < 1e-12:
            return limit0
        # x > 0 from here on, so l needs no abs
        if x < x_past:
            ell = (lsc(a1 * x) - lsc(b1 * x)) + (lsc(a2 * x) - lsc(b2 * x)) + (
                lsc(a3 * x) - lsc(b3 * x))
        else:
            y = -2.0 * x
            q = log(kr * (expm1(y * c1) / expm1(y * d1)) * (expm1(y * c2) / expm1(y * d2))
                    * (expm1(y * c3) / expm1(y * d3)))
            ell = s * x + q
            if ell > 45.0 and x > 45.0:
                return k * exp(q - lam * x) / x
        try:
            if ell > 45.0 and x > 45.0:
                return k * exp(ell - x) / x
            return k * expm1(ell) / (x * expm1(x))
        except OverflowError:
            # expm1(x) overflows far out in the tail, where e^{-x} is the
            # whole denominator; any other overflow is at extreme parameters,
            # and the quadrature engine turns the inf into an
            # IntegrandEvaluationError that names the abscissa
            if ell <= 45.0:
                return k * expm1(ell) * exp(-x) / x
            return math.inf

    return f


def key_relation_residual(heights: "rootsys.HeightCounts", x: float) -> float:
    """Exponential root sum minus the sinh-ratio product, at one abscissa.

    The sum runs over the full root set (both signs of each pairing), so
    each positive root contributes e^{2qx} + e^{-2qx} - 2 = 4 sinh^2(qx).
    Identically zero in exact arithmetic; the float residual measures how
    consistently the table row and the root data describe one group. One
    sinh is taken per distinct weighted height and repeated by its count
    into `math.fsum`, which rounds the exact sum once whatever the order,
    so this is the same float as one sinh per root in root order.
    """
    point = vogel_point(heights.lie_type)
    den = heights.height_denominator
    hs, counts = zip(*heights.counts)
    terms = [4.0 * math.sinh(h / den * x) ** 2 for h in hs]
    root_sum = math.fsum(chain.from_iterable(map(repeat, terms, counts)))
    return root_sum - sinh_product_excess(x, point)
