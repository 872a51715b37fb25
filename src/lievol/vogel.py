"""Universal parameter table, dimension formula, and the sinh-ratio generator.

A point (alpha, beta, gamma) is projective: rescaling all three parameters
(and permuting them) names the same object. The table rows use the alpha = -2
normalization, where t = alpha + beta + gamma equals the dual Coxeter number.
"""

from __future__ import annotations

import math

from . import rootsys
from ._record import Record
from .errors import ParameterDomainError
from .rootsys import Family, SimpleLieType

__all__ = [
    "VogelPoint",
    "vogel_point",
    "spin_row_point",
    "dim_from_vogel",
    "in_divergence_set",
    "log_sinhc",
    "sinh_product_excess",
    "small_x_quadratic_coeff",
    "key_relation_residual",
]


class VogelPoint(Record):
    """A point of the parameter plane: finite coordinates, nonzero sum t."""

    alpha: float
    beta: float
    gamma: float
    t: float = None  # filled from the sum when not supplied

    def __post_init__(self):
        t = self.t
        if t is None:
            t = self.alpha + self.beta + self.gamma
        t = float(t)
        if not all(math.isfinite(q) for q in (self.alpha, self.beta, self.gamma, t)):
            raise ParameterDomainError("alpha, beta, gamma and t must be finite")
        if t == 0.0:
            raise ParameterDomainError("alpha + beta + gamma must be nonzero")
        object.__setattr__(self, "t", t)

    @property
    def params(self) -> tuple[float, float, float]:
        return (self.alpha, self.beta, self.gamma)


_EXCEPTIONAL_POINTS = {
    Family.G2: (10.0 / 3.0, 8.0 / 3.0, 4.0),
    Family.F4: (5.0, 6.0, 9.0),
    Family.E6: (6.0, 8.0, 12.0),
    Family.E7: (8.0, 12.0, 18.0),
    Family.E8: (12.0, 20.0, 30.0),
}


def vogel_point(lie_type: SimpleLieType) -> VogelPoint:
    """Table row for a supported group, alpha = -2 normalization, exact t."""
    fam, r = lie_type.family, lie_type.rank
    if fam is Family.A:
        n = r + 1
        return VogelPoint(-2.0, 2.0, float(n), t=float(n))
    if fam is Family.B:
        return spin_row_point(2 * r + 1)
    if fam is Family.D:
        return spin_row_point(2 * r)
    if fam is Family.C:
        return VogelPoint(-2.0, 1.0, float(r + 2), t=float(r + 1))
    beta, gamma, t = _EXCEPTIONAL_POINTS[fam]
    return VogelPoint(-2.0, beta, gamma, t=t)


def spin_row_point(n: int) -> VogelPoint:
    """The Spin_n table row (-2, 4, n-4) with t = n-2, for any n >= 5.

    Available at the point level even for n where the D presentation is
    rejected as a root system (notably n = 6, which shares its point with
    SU_4 up to permutation).
    """
    if n < 5:
        raise ParameterDomainError(f"Spin row defined for n >= 5, got {n}")
    return VogelPoint(-2.0, 4.0, float(n - 4), t=float(n - 2))


def dim_from_vogel(p: VogelPoint) -> float:
    """(alpha-2t)(beta-2t)(gamma-2t)/(alpha beta gamma); scale and permutation invariant."""
    denom = p.alpha * p.beta * p.gamma
    if denom == 0.0:
        raise ParameterDomainError("dimension formula undefined when a parameter vanishes")
    t2 = 2.0 * p.t
    return (p.alpha - t2) * (p.beta - t2) * (p.gamma - t2) / denom


def in_divergence_set(p: VogelPoint) -> bool:
    """True iff all three ratios param/t are nonnegative (boundary included).

    Membership is where the universal integral fails to converge; the
    predicate only reports membership, it does not certify divergence at
    individual boundary points.
    """
    return all(q / p.t >= 0.0 for q in p.params)


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
    # b = q/4t (denominator)
    t4 = 4.0 * p.t
    return tuple(((q - 2.0 * p.t) / t4, q / t4) for q in p.params)


def sinh_product_excess(x: float, p: VogelPoint) -> float:
    """Triple sinh-ratio product minus its x -> 0 limit (the dimension).

    Evaluated in log space as dim * expm1(sum of log-sinhc differences):
    cancellation-free near 0, overflow-free until the rescaled product
    itself leaves double range. Even in x.
    """
    if p.alpha * p.beta * p.gamma == 0.0:
        raise ParameterDomainError("sinh ratio product undefined when a parameter vanishes")
    k = dim_from_vogel(p)
    ell = 0.0
    for a, b in _ratio_slopes(p):
        ell += log_sinhc(a * x) - log_sinhc(b * x)
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
