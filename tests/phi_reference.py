"""The one written-out reference of lievol.vogel.phi_integrand.

phi_integrand writes each sample out in one closure and, on the unitary
line, drops a unit factor and shares a denominator. PhiReference writes
each piece once: the guard's edges, the closed form, the log_sinhc sum
and the shared tail phi_from_log. It rounds in the order phi_integrand
does, and takes every factor's log_sinhc (or expm1), the unit factor among
them. The tests hold phi_integrand to it bit for bit, so a change to
phi_integrand's arithmetic edits this transcription and no other.
"""

import math

from lievol.vogel import (
    _CLOSED_FORM_ARG_MAX,
    SINHC_SERIES_CUTOFF,
    _ratio_slopes,
    dim_from_vogel,
    log_sinhc,
)


def phi_from_log(k, ell, x, branches=None):
    """The phi integrand at x > 0 from the log l of the sinh-ratio product
    over dim. Adds the name of each branch other than the plain quotient to
    the set `branches`, if one is given."""
    branches = set() if branches is None else branches
    try:
        if ell > 45.0 and x > 45.0:
            branches.add("exp(l - x)")
            return k * math.exp(ell - x) / x
        return k * math.expm1(ell) / (x * math.expm1(x))
    except OverflowError:
        branches.add("overflow")
        if ell <= 45.0:
            return k * math.expm1(ell) * math.exp(-x) / x
        return math.inf


class PhiReference:
    """phi_integrand(p) as a callable whose pieces are attributes: the
    slopes (a_i, b_i) of vogel._ratio_slopes, the band (x_lo, x_hi) (both
    0.0 where a slope is 0), where every |a_i x| and |b_i x| lies in
    [SINHC_SERIES_CUTOFF, 600) and which the guard asks to be nonempty,
    x_past, where the closed form starts (x_lo, or inf without a band),
    s = sum_i (|a_i| - |b_i|), and the set `branches` of the branch names
    its samples took."""

    def __init__(self, p):
        self.k = dim_from_vogel(p)
        self.slopes = (a1, b1), (a2, b2), (a3, b3) = _ratio_slopes(p)
        self.sizes = c1, d1, c2, d2, c3, d3 = abs(a1), abs(b1), abs(a2), abs(b2), abs(a3), abs(b3)
        x_lo = x_hi = 0.0
        if min(self.sizes) > 0.0:
            x_lo = SINHC_SERIES_CUTOFF / min(self.sizes)
            # by `+`, as phi_integrand sums: `sum` of floats is compensated from Python 3.12 on
            x_hi = _CLOSED_FORM_ARG_MAX / max(c1 + c2 + c3, d1 + d2 + d3)
        self.band = x_lo, x_hi
        self.x_past = x_lo if x_lo < x_hi else math.inf
        self.ratios = (b1 / a1, b2 / a2, b3 / a3) if x_lo < x_hi else (0.0, 0.0, 0.0)
        self.s = (c1 - d1) + (c2 - d2) + (c3 - d3)
        self.limit0 = self.k * math.fsum(a * a - b * b for a, b in self.slopes) / 6.0
        self.branches = set()

    def closed_q(self, x):
        """q of the closed form l = s x + q, from sinhc(a x)/sinhc(b x) =
        |b/a| e^{(|a| - |b|) x} expm1(-2|a| x)/expm1(-2|b| x):
        q = log(|r1 r2 r3| prod_i expm1(-2|a_i| x)/expm1(-2|b_i| x))."""
        c1, d1, c2, d2, c3, d3 = self.sizes
        r1, r2, r3 = self.ratios
        return math.log(abs(r1 * r2 * r3)
                        * (math.expm1(-2.0 * c1 * x) / math.expm1(-2.0 * d1 * x))
                        * (math.expm1(-2.0 * c2 * x) / math.expm1(-2.0 * d2 * x))
                        * (math.expm1(-2.0 * c3 * x) / math.expm1(-2.0 * d3 * x)))

    def log_sum(self, x):
        """l below the closed form: the log_sinhc differences, added by `+`."""
        (a1, b1), (a2, b2), (a3, b3) = self.slopes
        return (log_sinhc(a1 * x) - log_sinhc(b1 * x)) + (
            log_sinhc(a2 * x) - log_sinhc(b2 * x)) + (log_sinhc(a3 * x) - log_sinhc(b3 * x))

    def __call__(self, x):
        if x < 1e-12:
            self.branches.add("limit")
            return self.limit0
        if x < self.x_past:
            self.branches.add("below band" if x < self.band[0] else "no band")
            ell = self.log_sum(x)
        else:
            self.branches.add("closed form")
            q = self.closed_q(x)
            ell = self.s * x + q
            if ell > 45.0 and x > 45.0:
                self.branches.add("exp(q - lam x)")
                return self.k * math.exp(q - (1.0 - self.s) * x) / x
        return phi_from_log(self.k, ell, x, self.branches)
