"""Universal parameter table, dimension formula, and the sinh-ratio generator.

A point (alpha, beta, gamma) is projective: rescaling all three parameters
(and permuting them) names the same object. The table rows use the alpha = -2
normalization, where t = alpha + beta + gamma equals the dual Coxeter number.
"""

from __future__ import annotations

import math
from collections.abc import Callable

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
    "in_divergence_set",
    "log_sinhc",
    "sinh_product_excess",
    "small_x_quadratic_coeff",
    "phi_integrand",
    "key_relation_residual",
]


class VogelPoint(Record):
    """A point of the parameter plane: finite coordinates, their tuple params
    and their nonzero float sum t, attributes but not fields (repr, equality
    and hashing cover alpha, beta and gamma only)."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        t = float(self.alpha + self.beta + self.gamma)
        if not all(math.isfinite(q) for q in (self.alpha, self.beta, self.gamma, t)):
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


def vogel_point(lie_type: SimpleLieType) -> VogelPoint:
    """Table row for a supported group, alpha = -2 normalization; its float
    sum t is exactly the dual Coxeter number (-2 + 10/3 + 8/3 == 4.0 for G2)."""
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
    where it and every plain product are normal, +-inf where it leaves double range."""
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


def _opposite(p: VogelPoint) -> list[float]:
    """The parameters with q/t < 0, read from the signs of q and t: the rounded
    quotient of a tiny q by a huge t is -0.0 and would pass as nonnegative."""
    return [q for q in p.params if q < 0.0 < p.t or p.t < 0.0 < q]


def phi_start_scale(p: VogelPoint) -> float:
    """8|t|/|s|, s the sum of the 1 or 2 parameters with q/t < 0 (none on the
    divergence set, which raises): four decay lengths of phi_integrand(p) where
    no q/t exceeds 2, and 4t exactly where alpha = -2 and beta, gamma, t > 0."""
    opposite = _opposite(p)
    if not opposite:
        raise DivergenceSetError("no parameter has q/t < 0: phi has no decay length")
    scale = 8.0 * (abs(p.t) / abs(sum(opposite)))
    if not 0.0 < scale < math.inf:
        raise ParameterDomainError("the decay length of the phi integrand leaves double range")
    return scale


def in_divergence_set(p: VogelPoint) -> bool:
    """True iff all three ratios param/t are nonnegative (boundary included).

    Membership is where the universal integral fails to converge; the
    predicate only reports membership, it does not certify divergence at
    individual boundary points.
    """
    return not _opposite(p)


# below this |y| the series is used; the direct log(sinh/y) would round at
# ~ulp(1)/value and spoil twelve-digit branch continuity near zero
SINHC_SERIES_CUTOFF = 0.15


def log_sinhc(y: float) -> float:
    """log(sinh(y)/y), even in y, 0 at y = 0; stable over the whole real line."""
    y = abs(y)
    if y == 0.0:
        return 0.0
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
    # sinh(y) would overflow: log sinh y = y - log 2 + log1p(-e^{-2y})
    return y - math.log(2.0 * y) + math.log1p(-math.exp(-2.0 * y))


def _ratio_slopes(p: VogelPoint) -> tuple[tuple[float, float], ...]:
    # per-parameter sinh arguments per unit x: a = (q-2t)/4t (numerator),
    # b = q/4t (denominator), from the coordinates shifted by 2^-k (see _shift)
    _, u = _shift(p.t)
    t = u * p.t
    t4 = 4.0 * t
    return tuple(((u * q - 2.0 * t) / t4, u * q / t4) for q in p.params)


def sinh_product_excess(x: float, p: VogelPoint) -> float:
    """Triple sinh-ratio product minus its x -> 0 limit (the dimension).

    Evaluated in log space as dim * expm1(l), l the log of the product over
    dim (the sum of log-sinhc differences, see phi_integrand):
    cancellation-free near 0, overflow-free until the rescaled product
    itself leaves double range. Even in x.
    """
    k = dim_from_vogel(p)
    ell = _log_sinhc_ratio(p)(x)
    if ell > 709.0:
        raise OverflowError(
            f"sinh ratio product exceeds double-precision range at x = {x!r}"
        )
    return k * math.expm1(ell)


def small_x_quadratic_coeff(p: VogelPoint) -> float:
    """Limit of sinh_product_excess(x, p)/x^2 as x -> 0."""
    k = dim_from_vogel(p)
    s = math.fsum(a * a - b * b for a, b in _ratio_slopes(p))
    return k * s / 6.0


# |log| bound on the sinh-ratio product and its partial products inside the
# band of phi_integrand; e^600 leaves room below the double limit e^709.78
_BAND_LOG_MAX = 600.0


def _log_sinhc_ratio(p: VogelPoint) -> Callable[[float], float]:
    """l(x) = sum_i [log sinhc(a_i x) - log sinhc(b_i x)], even in x: the log
    of one sinh-ratio product inside the band of phi_integrand, the sum of
    log_sinhc terms outside it."""
    slopes = _ratio_slopes(p)
    sizes = [abs(s) for ab in slopes for s in ab]  # |a_1|, |b_1|, |a_2|, ...
    smallest = min(sizes)
    if smallest > 0.0:
        x_lo = SINHC_SERIES_CUTOFF / smallest
        x_hi = _BAND_LOG_MAX / max(sum(sizes[0::2]), sum(sizes[1::2]))
        factors = tuple((a, b, b / a) for a, b in slopes)
    else:
        # a slope a_i = 0 (q_i = 2t, so dim = 0) has no ratio b_i/a_i, and a
        # b_i that underflowed to 0 never reaches the cutoff: no band
        x_lo = x_hi = 0.0
        factors = ()

    def ell(x: float) -> float:
        x = abs(x)
        if x_lo <= x < x_hi:
            prod = 1.0
            for a, b, r in factors:
                prod *= math.sinh(a * x) * r / math.sinh(b * x)
            return math.log(prod)
        total = 0.0
        for a, b in slopes:
            total += log_sinhc(a * x) - log_sinhc(b * x)
        return total

    return ell


def phi_integrand(p: VogelPoint) -> Callable[[float], float]:
    """Integrand of the universal volume integral for one parameter point.

    Assembled as [excess/x^2] * [x/(e^x - 1)]: the log-space excess keeps the
    small-x region cancellation-free, and the large-x region switches to a
    pure exponential form before either factor can overflow.

    The log l of the sinh-ratio product over dim costs one log per sample
    inside the band x_lo <= |x| < x_hi, where with m = min_i min(|a_i|, |b_i|),
    A = sum_i |a_i| and B = sum_i |b_i|:

    - x_lo = SINHC_SERIES_CUTOFF / m. Every |a_i x| and |b_i x| is at least
      the cutoff, so no factor needs the series of log_sinhc, and
      l = log prod_i [sinh(a_i x) (b_i/a_i) / sinh(b_i x)] is within a few
      ulps of max(1, |l|) of its value at the rounded a_i x and b_i x: no
      worse than the log_sinhc sum, which rounds each term to its own ulp.
    - x_hi = 600 / max(A, B). Every |a_i x| and |b_i x| is below 600, so no
      sinh overflows, and |b_i/a_i| = |b_i x|/|a_i x| < 600/cutoff = 4000,
      so sinh(a_i x) (b_i/a_i) stays below 4000 e^600. Since
      1 <= sinhc(y) < e^|y|, each factor sinhc(a_i x)/sinhc(b_i x) lies in
      (e^-|b_i x|, e^|a_i x|), so every partial product lies in
      (e^-B|x|, e^A|x|), inside [e^-600, e^600]: the product neither
      overflows nor underflows to 0, and the log never sees 0.

    Outside the band l is the log_sinhc sum. The band is empty when
    x_lo >= x_hi, and when a slope is 0 (a_i = 0 where q_i = 2t and dim = 0).
    """
    k = dim_from_vogel(p)
    log_ratio = _log_sinhc_ratio(p)
    limit0 = small_x_quadratic_coeff(p)

    def f(x: float) -> float:
        if x < 1e-12:
            return limit0
        ell = log_ratio(x)
        try:
            if ell > 45.0 and x > 45.0:
                return k * math.exp(ell - x) / x
            return k * math.expm1(ell) / (x * math.expm1(x))
        except OverflowError:
            # expm1(x) overflows far out in the tail, where e^{-x} is the
            # whole denominator; any other overflow is at extreme parameters,
            # and the quadrature engine turns the inf into an
            # IntegrandEvaluationError that names the abscissa
            if ell <= 45.0:
                return k * math.expm1(ell) * math.exp(-x) / x
            return math.inf

    return f


def key_relation_residual(rs: "rootsys.RootSystem", x: float) -> float:
    """Exponential root sum minus the sinh-ratio product, at one abscissa.

    The sum runs over the full root set (both signs of each pairing), so
    each positive root contributes e^{2qx} + e^{-2qx} - 2 = 4 sinh^2(qx).
    Identically zero in exact arithmetic; the float residual measures how
    consistently the table row and the root system describe one group.
    """
    point = vogel_point(rs.lie_type)
    den = rs.height_denominator
    root_sum = math.fsum(4.0 * math.sinh(h / den * x) ** 2 for h in rs.weighted_heights)
    return root_sum - sinh_product_excess(x, point)
