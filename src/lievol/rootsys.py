"""Root systems of the compact simple types, in exact rational arithmetic.

Roots are stored in simple-root coordinates (simple roots = unit vectors).
The invariant bilinear form is normalized so long roots have squared length
2; the Gram matrix of the simple roots under this form is ``d_j * C[i][j]``
with ``C`` the Cartan matrix and ``d_j`` half the squared length of the
j-th simple root. All arithmetic here is exact (`fractions.Fraction`);
floating point enters only in the downstream volume/quadrature modules, so
the transcendental evaluation is the sole numerical error source.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class SimpleLieType:
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


def _symmetrizer(lie_type: SimpleLieType) -> tuple[Fraction, ...]:
    """d_i = (a_i, a_i)/2 for each simple root, long roots normalized to d = 1."""
    fam, r = lie_type.family, lie_type.rank
    half = Fraction(1, 2)
    if fam is Family.B:
        return tuple([Fraction(1)] * (r - 1) + [half])
    if fam is Family.C:
        return tuple([half] * (r - 1) + [Fraction(1)])
    if fam is Family.F4:
        return (Fraction(1), Fraction(1), half, half)
    if fam is Family.G2:
        return (Fraction(1, 3), Fraction(1))
    return tuple([Fraction(1)] * r)


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


@dataclass(frozen=True)
class RootSystem:
    """Positive roots, Weyl vector, and form data for one simple type.

    positive_roots are integer coordinate vectors in the simple-root basis,
    sorted by height; weyl_vector has exact rational coordinates solving
    (rho, a_i^vee) = 1 for every simple root.
    """

    lie_type: SimpleLieType
    cartan_matrix: tuple[tuple[int, ...], ...]
    symmetrized_form: tuple[tuple[Fraction, ...], ...]
    positive_roots: tuple[tuple[int, ...], ...]
    weyl_vector: tuple[Fraction, ...]
    dual_coxeter: int
    exponents: tuple[int, ...]

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    @property
    def dim(self) -> int:
        return self.rank + 2 * len(self.positive_roots)

    @property
    def highest_root(self) -> tuple[int, ...]:
        return self.positive_roots[-1]


def _reflect(root, cartan, i):
    # s_i(mu) = mu - <mu, a_i^vee> a_i in simple-root coordinates
    pairing = sum(root[k] * cartan[k][i] for k in range(len(root)))
    out = list(root)
    out[i] -= pairing
    return tuple(out)


def weyl_orbit_closure(seeds, cartan):
    """Breadth-first closure of `seeds` under all simple reflections."""
    rank = len(cartan)
    seen = set(seeds)
    queue = list(seeds)
    while queue:
        v = queue.pop()
        for i in range(rank):
            w = _reflect(v, cartan, i)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


def _solve_rational(matrix, rhs):
    """Exact Gaussian elimination for small square rational systems."""
    n = len(rhs)
    aug = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(row[n] for row in aug)


def build_root_system(lie_type: SimpleLieType) -> RootSystem:
    """Construct the full root-system record for a supported simple type.

    Positive roots are the Weyl-orbit closure of the simple roots filtered
    to nonnegative coordinates; the Weyl vector is solved exactly from its
    defining pairings. Internal invariants (root count vs exponent sum,
    half-sum identity, pairing bounds) are checked before returning.
    """
    rank = lie_type.rank
    cartan = cartan_matrix(lie_type)
    d = _symmetrizer(lie_type)
    gram = tuple(
        tuple(d[j] * cartan[i][j] for j in range(rank)) for i in range(rank)
    )
    # symmetry of the Gram matrix guards the (cartan, d) tables themselves
    for i in range(rank):
        for j in range(rank):
            if gram[i][j] != gram[j][i]:
                raise InvariantViolationError(
                    f"symmetrized form asymmetric for {lie_type} at ({i},{j})"
                )

    simples = [tuple(1 if k == i else 0 for k in range(rank)) for i in range(rank)]
    orbit = weyl_orbit_closure(simples, cartan)
    positive = sorted(
        (v for v in orbit if all(x >= 0 for x in v)),
        key=lambda v: (sum(v), v),
    )
    if len(positive) * 2 != len(orbit):
        raise InvariantViolationError(f"orbit of {lie_type} is not sign-symmetric")

    exps = exponents(lie_type)
    if sum(exps) != len(positive):
        raise InvariantViolationError(
            f"{lie_type}: {len(positive)} positive roots but exponent sum {sum(exps)}"
        )

    # (rho, a_i^vee) = 1 reads sum_k rho_k C[k][i] = 1: transpose system.
    transpose = [[cartan[k][i] for k in range(rank)] for i in range(rank)]
    rho = _solve_rational(transpose, [1] * rank)
    half_sum = [Fraction(s, 2) for s in (sum(v[k] for v in positive) for k in range(rank))]
    if list(rho) != half_sum:
        raise InvariantViolationError(f"{lie_type}: Weyl vector != half sum of positive roots")

    def pair(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(rank) for j in range(rank))

    theta = positive[-1]
    if pair(theta, theta) != 2:
        raise InvariantViolationError(f"{lie_type}: highest root is not long")
    h_vee_frac = pair(rho, theta) + 1
    if h_vee_frac.denominator != 1:
        raise InvariantViolationError(f"{lie_type}: non-integer dual Coxeter number")
    h_vee = int(h_vee_frac)
    for mu in positive:
        p = pair(rho, mu)
        if not 0 < p < h_vee:
            raise InvariantViolationError(f"{lie_type}: pairing {p} escapes (0, h_vee)")

    return RootSystem(
        lie_type=lie_type,
        cartan_matrix=cartan,
        symmetrized_form=gram,
        positive_roots=tuple(positive),
        weyl_vector=rho,
        dual_coxeter=h_vee,
        exponents=exps,
    )


def minimal_pairing(rs: RootSystem, u, v) -> Fraction:
    """(u, v) under the long-root-squared-length-2 normalization, exact."""
    g = rs.symmetrized_form
    n = rs.rank
    return sum(Fraction(u[i]) * g[i][j] * v[j] for i in range(n) for j in range(n))


def rho_pairings_killing(rs: RootSystem) -> tuple[Fraction, ...]:
    """<rho, mu> under the Cartan-Killing normalization, one per positive root.

    The Killing form on the algebra is 2 h_vee times the minimal form, so the
    induced form on the dual Cartan subalgebra divides by 2 h_vee. Every value
    lies strictly inside (0, 1/2).
    """
    scale = Fraction(1, 2 * rs.dual_coxeter)
    return tuple(minimal_pairing(rs, rs.weyl_vector, mu) * scale for mu in rs.positive_roots)
