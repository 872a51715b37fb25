"""Root systems of the compact simple types, in exact integer arithmetic.

Roots are stored in simple-root coordinates (simple roots = unit vectors).
The invariant bilinear form is normalized so long roots have squared length
2; the Gram matrix of the simple roots under this form is ``d_j * C[i][j]``
with ``C`` the Cartan matrix and ``d_j`` half the squared length of the
j-th simple root. Every d_j is an integer over the common denominator D
(1; 2 for B, C, F4; 3 for G2). The positive roots are generated from the
simple ones by the simple reflections that raise height, since s_i permutes
the positive roots other than a_i; the walk deduplicates a root by one
integer, its coordinates as base-8 digits, and builds its coordinate tuple
only when it is new. The Weyl vector rho is their half sum,
checked against (rho, a_i^vee) = 1, which gives (rho, a_i) = d_i: pairings
(rho, mu) are d-weighted heights sum_i d_i mu_i (Humphreys, Lie Algebras,
10.1-10.2). All of this runs on Python integers, and the record keeps the
heights over the one denominator 2 D h_vee. Two exact helpers stay:
`minimal_pairing`, which every build calls once to check that the highest
root is long, and `rho_pairings_killing`, which no command calls.
`fractions.Fraction` is imported only for a pairing that is not an
integer, never on that check, so a run never loads it. Floating point
enters only in the downstream volume/quadrature modules, so the
transcendental evaluation is the sole numerical error source.
"""

from __future__ import annotations

import enum
import operator

from ._record import Record
from .errors import InvariantViolationError, UnsupportedGroupError

__all__ = [
    "Family",
    "SimpleLieType",
    "RootSystem",
    "build_root_system",
    "cartan_matrix",
    "default_groups",
    "exponents",
    "minimal_pairing",
    "rho_pairings_killing",
    "su",
    "spin",
    "sp",
]


class Family(enum.Enum):
    A = "A"
    B = "B"
    C = "C"
    D = "D"
    E6 = "E6"
    E7 = "E7"
    E8 = "E8"
    F4 = "F4"
    G2 = "G2"


# in report order, which default_groups follows
EXCEPTIONAL_RANK = {
    Family.G2: 2,
    Family.F4: 4,
    Family.E6: 6,
    Family.E7: 7,
    Family.E8: 8,
}

# Lowest rank admitted per classical family. D needs rank >= 4: D2 and D3
# duplicate A1+A1 and A3 and are rejected as presentations here. C1 is kept
# so Sp_2 is available as its own presentation (isomorphic to SU_2).
_RANK_FLOOR = {Family.A: 1, Family.B: 2, Family.C: 1, Family.D: 4}

# Largest rank `build_root_system` builds; it refuses a larger one before
# allocating the rank^2 Cartan matrix. At rank 256 every family has at most
# 65,536 positive roots; `volume` at the cap takes 1.0 s and 98 MB peak RSS
# for SU_257 and 2.6 s and 180 MB for Spin_513, the slowest (2-core Linux
# box, Python 3.11). SU_3000 ran out of memory under a 1 GB limit.
# `SimpleLieType` itself has no cap.
_MAX_RANK = 256


class SimpleLieType(Record):
    """A compact simple group named by Cartan family and rank."""

    family: Family
    rank: int

    def __post_init__(self):
        if self.family in EXCEPTIONAL_RANK:
            want = EXCEPTIONAL_RANK[self.family]
            if self.rank != want:
                raise UnsupportedGroupError(
                    f"{self.family.value} has fixed rank {want}, got {self.rank}"
                )
        else:
            floor = _RANK_FLOOR[self.family]
            if not isinstance(self.rank, int) or self.rank < floor:
                raise UnsupportedGroupError(
                    f"family {self.family.value} requires integer rank >= {floor}, "
                    f"got {self.rank!r}"
                )

    @property
    def compact_name(self) -> str:
        """Matrix-group style name: SU_n, Spin_n, Sp_2n, or the exceptional tag."""
        r = self.rank
        if self.family is Family.A:
            return f"SU_{r + 1}"
        if self.family is Family.B:
            return f"Spin_{2 * r + 1}"
        if self.family is Family.C:
            return f"Sp_{2 * r}"
        if self.family is Family.D:
            return f"Spin_{2 * r}"
        return self.family.value

    def __str__(self) -> str:
        return self.compact_name


def su(n: int) -> SimpleLieType:
    """Special unitary group SU_n (n >= 2)."""
    if n < 2:
        raise UnsupportedGroupError(f"SU_n requires n >= 2, got {n}")
    return SimpleLieType(Family.A, n - 1)


def spin(n: int) -> SimpleLieType:
    """Spin group Spin_n (n >= 5; n = 6 is rejected, use SU_4)."""
    if n < 5:
        raise UnsupportedGroupError(f"Spin_n requires n >= 5, got {n}")
    if n == 6:
        raise UnsupportedGroupError("Spin_6 is rejected as isomorphic to SU_4; use SU_4")
    if n % 2:
        return SimpleLieType(Family.B, (n - 1) // 2)
    return SimpleLieType(Family.D, n // 2)


def sp(n: int) -> SimpleLieType:
    """Compact symplectic group Sp_n for even n >= 2."""
    if n < 2 or n % 2:
        raise UnsupportedGroupError(f"Sp_n requires even n >= 2, got {n}")
    return SimpleLieType(Family.C, n // 2)


def default_groups(max_rank: int = 8) -> list[SimpleLieType]:
    """Classical families A, B, C, D from their rank floor up to max_rank, then
    the exceptionals; the report order of `table` and `check`."""
    if max_rank > _MAX_RANK:
        raise UnsupportedGroupError(f"max rank {max_rank} is above {_MAX_RANK}, the cap")
    groups = [
        SimpleLieType(fam, r) for fam, floor in _RANK_FLOOR.items()
        for r in range(floor, max_rank + 1)
    ]
    return groups + [SimpleLieType(fam, r) for fam, r in EXCEPTIONAL_RANK.items()]


def cartan_matrix(lie_type: SimpleLieType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix with the convention C[i][j] = 2(a_i, a_j)/(a_j, a_j)."""
    fam, r = lie_type.family, lie_type.rank
    c = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def chain(pairs):
        for i, j in pairs:
            c[i][j] = -1
            c[j][i] = -1

    if fam is Family.A:
        chain((i, i + 1) for i in range(r - 1))
    elif fam is Family.B:
        chain((i, i + 1) for i in range(r - 1))
        c[r - 2][r - 1] = -2  # last simple root is short
    elif fam is Family.C:
        if r >= 2:
            chain((i, i + 1) for i in range(r - 1))
            c[r - 1][r - 2] = -2  # last simple root is long
    elif fam is Family.D:
        chain((i, i + 1) for i in range(r - 2))
        chain([(r - 3, r - 1)])
    elif fam is Family.G2:
        c[0][1] = -1
        c[1][0] = -3
    elif fam is Family.F4:
        chain([(0, 1), (2, 3)])
        c[1][2] = -2
        c[2][1] = -1
    else:  # E6, E7, E8: chain 0-2-3-4-... with node 1 attached to node 3
        chain([(0, 2), (1, 3)])
        chain((i, i + 1) for i in range(2, r - 1))
    return tuple(tuple(row) for row in c)


def _symmetrizer(lie_type: SimpleLieType) -> tuple[int, ...]:
    """D * d_i for each simple root, d_i = (a_i, a_i)/2 with long roots at d = 1.

    The common denominator D (1; 2 for B, C, F4; 3 for G2) is the largest
    entry, the one of a long simple root.
    """
    fam, r = lie_type.family, lie_type.rank
    if fam is Family.B:
        return (2,) * (r - 1) + (1,)
    if fam is Family.C:
        return (1,) * (r - 1) + (2,)
    if fam is Family.F4:
        return (2, 2, 1, 1)
    if fam is Family.G2:
        return (1, 3)
    return (1,) * r


# Exponents m_1..m_r per family; sum equals the number of positive roots.
def exponents(lie_type: SimpleLieType) -> tuple[int, ...]:
    fam, r = lie_type.family, lie_type.rank
    if fam is Family.A:
        return tuple(range(1, r + 1))
    if fam in (Family.B, Family.C):
        return tuple(range(1, 2 * r, 2))
    if fam is Family.D:
        return tuple(sorted(list(range(1, 2 * r - 2, 2)) + [r - 1]))
    return {
        Family.G2: (1, 5),
        Family.F4: (1, 5, 7, 11),
        Family.E6: (1, 4, 5, 7, 8, 11),
        Family.E7: (1, 5, 7, 9, 11, 13, 17),
        Family.E8: (1, 7, 11, 13, 17, 19, 23, 29),
    }[fam]


class RootSystem(Record):
    """Positive roots and pairing data for one simple type, all integers.

    positive_roots are integer coordinate vectors in the simple-root basis,
    sorted by height; their half sum is the Weyl vector rho, checked
    against (rho, a_i^vee) = 1 when the record is built.
    weighted_heights[k] / height_denominator is <rho, mu> under the
    Cartan-Killing normalization for mu = positive_roots[k]: the numerators
    are D-weighted heights sum_i D d_i mu_i, and the denominator is
    2 D h_vee, with D the common denominator of the d_i.
    """

    lie_type: SimpleLieType
    cartan_matrix: tuple[tuple[int, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    dual_coxeter: int
    weighted_heights: tuple[int, ...]
    height_denominator: int

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    @property
    def dim(self) -> int:
        return self.rank + 2 * len(self.positive_roots)


def _positive_roots(lie_type, rows, limit):
    """The positive roots, found by raising the simple roots with reflections.

    s_i permutes the positive roots other than a_i, and every non-simple
    positive root has a simple reflection that lowers its height, so the
    raising reflections s_i(beta) = beta - <beta, a_i^vee> a_i reach every
    positive root from the simple ones. Each root keeps its nonzero pairings
    <beta, a_j^vee>; raising by c a_i adds c C[i][j], so only the nonzero
    entries rows[i] = ((j, C[i][j]), ...) of Cartan row i are touched.
    A root is deduplicated by one int, its coordinates as base-8 digits
    (mu_i << 3i), so a raise by c a_i adds c << 3i to it and the coordinate
    tuple is built only for a new root. The key is injective while every
    coordinate is below 8: two vectors with digits in 0..7 have the same
    base-8 value only if they are equal. Every finite root system keeps its
    coordinates at most 6 (E8's highest root), so a raise to a coordinate of
    8 or more means C is no Cartan matrix of finite type, and is refused
    before its key is read.
    A lowering reflection that leaves the positive roots means C is no
    Cartan matrix. More than `limit` roots means C is not of finite type, or
    the exponent table is wrong; the bound also ends a walk that would
    otherwise never stop.
    """
    rank = len(rows)
    zeros = (0,) * rank
    roots = [zeros[:i] + (1,) + zeros[i + 1:] for i in range(rank)]
    keys = [1 << 3 * i for i in range(rank)]
    pairings = [dict(row) for row in rows]
    seen = set(keys)
    # all three lists grow while they are walked
    for beta, key, pairing in zip(roots, keys, pairings):
        for i, p in pairing.items():
            if p < 0:
                coord = beta[i] - p
                if coord > 7:
                    raise InvariantViolationError(
                        f"{lie_type}: reflection {i} raises {beta} to coordinate {coord},"
                        " above any root of finite type"
                    )
                up = key - (p << 3 * i)
                if up in seen:
                    continue
                if len(roots) == limit:
                    raise InvariantViolationError(
                        f"{lie_type}: more than {limit} positive roots, the exponent sum"
                    )
                raised = dict(pairing)
                for j, c in rows[i]:
                    q = raised.pop(j, 0) - p * c
                    if q:
                        raised[j] = q
                seen.add(up)
                roots.append(beta[:i] + (coord,) + beta[i + 1:])
                keys.append(up)
                pairings.append(raised)
            elif p > beta[i] and key != 1 << 3 * i:
                raise InvariantViolationError(
                    f"{lie_type}: reflection {i} sends positive root {beta} negative"
                )
    return roots


def build_root_system(lie_type: SimpleLieType) -> RootSystem:
    """Construct the full root-system record for a supported simple type.

    Positive roots come from raising reflections of the simple roots; the
    Weyl vector is their half sum, checked against (rho, a_i^vee) = 1, and
    pairings are D-weighted heights. Everything runs on integers, and the
    record holds only integers. Internal invariants (positive reflections,
    root count, pairing bounds, highest root long) are checked at linear
    cost.
    """
    rank = lie_type.rank
    if rank > _MAX_RANK:
        raise UnsupportedGroupError(f"{lie_type}: rank {rank} is above {_MAX_RANK}, the cap")
    cartan = cartan_matrix(lie_type)
    weights = _symmetrizer(lie_type)
    denom = max(weights)
    # D (a_i, a_j) = D d_j C[i][j]; its symmetry guards the (cartan, d) tables
    gram = [[w * c for w, c in zip(weights, row)] for row in cartan]
    for i in range(rank):
        for j in range(i):
            if gram[i][j] != gram[j][i]:
                raise InvariantViolationError(
                    f"symmetrized form asymmetric for {lie_type} at ({i},{j})"
                )

    exps = exponents(lie_type)
    rows = [[(j, c) for j, c in enumerate(row) if c] for row in cartan]
    # by height, then coordinates; each height is summed once
    roots = _positive_roots(lie_type, rows, sum(exps))
    ranked = sorted(zip(map(sum, roots), roots))
    positive = [v for _, v in ranked]
    if sum(exps) != len(positive):
        raise InvariantViolationError(
            f"{lie_type}: {len(positive)} positive roots but exponent sum {sum(exps)}"
        )

    # (rho, a_i^vee) = 1 reads sum_k 2rho_k C[k][i] = 2; C is invertible, so
    # this holds for the half sum exactly when the half sum is the Weyl vector.
    two_rho = [sum(coords) for coords in zip(*positive)]
    two_rho_pairings = [0] * rank
    for t, row in zip(two_rho, rows):
        for i, c in row:
            two_rho_pairings[i] += t * c
    if two_rho_pairings != [2] * rank:
        raise InvariantViolationError(f"{lie_type}: Weyl vector != half sum of positive roots")

    # D (rho, mu) = sum_i D d_i mu_i, since (rho, a_i) = d_i; that is D times
    # the height when every D d_i is D (A, D, E and C1)
    if min(weights) == denom:
        heights = [denom * height for height, _ in ranked]
    else:
        heights = [sum(map(operator.mul, weights, mu)) for mu in positive]
    if heights[-1] % denom:
        raise InvariantViolationError(f"{lie_type}: non-integer dual Coxeter number")
    h_vee = heights[-1] // denom + 1
    for h in heights:
        if not 0 < h < denom * h_vee:
            from fractions import Fraction

            raise InvariantViolationError(
                f"{lie_type}: pairing {Fraction(h, denom)} escapes (0, h_vee)"
            )

    rs = RootSystem(
        lie_type=lie_type,
        cartan_matrix=cartan,
        positive_roots=tuple(positive),
        dual_coxeter=h_vee,
        weighted_heights=tuple(heights),
        height_denominator=2 * denom * h_vee,
    )
    # h_vee = (rho, theta) + 1 above holds only for a long theta
    theta = positive[-1]
    if minimal_pairing(rs, theta, theta) != 2:
        raise InvariantViolationError(f"{lie_type}: highest root is not long")
    return rs


def minimal_pairing(rs: RootSystem, u, v) -> int | Fraction:
    """(u, v) under the long-root-squared-length-2 normalization, exact.

    (a_i, a_j) = d_j C[i][j] is summed over the nonzero coordinates and
    Cartan entries only, in integers over the common denominator D when u
    and v are integer vectors (rational coordinates give a Fraction sum).
    An integral pairing, such as (theta, theta) = 2, is returned as an int;
    only a non-integral one is built as a Fraction.
    """
    weights = _symmetrizer(rs.lie_type)
    denom = max(weights)
    total = sum(
        ui * c * weights[j] * v[j]
        for ui, row in zip(u, rs.cartan_matrix) if ui
        for j, c in enumerate(row) if c and v[j]
    )
    if total % denom == 0:
        return total // denom
    from fractions import Fraction

    return Fraction(total, denom)


def rho_pairings_killing(rs: RootSystem) -> tuple[Fraction, ...]:
    """<rho, mu> under the Cartan-Killing normalization, one per positive root.

    The Killing form on the algebra is 2 h_vee times the minimal form, so the
    induced form on the dual Cartan subalgebra divides by 2 h_vee. Every value
    lies strictly inside (0, 1/2).
    """
    from fractions import Fraction

    return tuple(Fraction(h, rs.height_denominator) for h in rs.weighted_heights)
