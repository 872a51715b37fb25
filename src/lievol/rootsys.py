"""Root systems of the compact simple types, in exact integer arithmetic.

Roots have simple-root coordinates (simple roots = unit vectors). The
invariant form is normalized so long roots have squared length 2; the Gram
matrix of the simple roots is ``d_j * C[i][j]`` with ``C`` the Cartan
matrix and ``d_j`` half the squared length of the j-th simple root, an
integer over the common denominator D (1; 2 for B, C, F4; 3 for G2). The
Cartan matrix is checked once, on its nonzero entries: diagonal 2,
off-diagonal entries <= 0, and a symmetric form. Then s_i permutes the
positive roots other than a_i, so the simple reflections that raise height
generate the positive roots from the simple ones. A root is one integer
key, with its height, its coordinates as base-8 digits and its d-weighted
height in separate bit fields: the walk deduplicates on it and sums the
pairings <beta, a_i^vee> as it reads them. The low bits of a key are its
root's weighted height, and the walk decodes only the highest root. The
Weyl vector rho is the half sum of the positive roots, checked against
(rho, a_i^vee) = 1 through the pairing sums, which gives (rho, a_i) = d_i:
pairings (rho, mu) are d-weighted heights sum_i d_i mu_i (Humphreys, Lie
Algebras, 10.1-10.2). All of this runs on Python integers, and
`build_root_system` returns only the multiset of those heights, with h_vee
and their one denominator 2 D h_vee, as a `HeightCounts`: no root outlives
the walk. Two exact helpers stay: `minimal_pairing`, which every build and
every set of A-D counts calls once to check that the highest root is long,
and `rho_pairings_killing`, which no command calls and which reads the
walk's record. `fractions.Fraction` is loaded only by
`rho_pairings_killing` and for a non-integral pairing, never on that check.
Floating point enters only in the downstream volume/quadrature modules, so
the transcendental evaluation is the sole numerical error source.

Route 2 and the dimension read only that record. `height_counts` gives the
same record without the walk, on every type: on A-D, G2 and F4 from a
second model of the roots (the epsilon basis), on A-D in O(rank) steps,
and on E6-E8 from the exponents by Kostant's height partition. `volume`,
`table`, `phi` and `scan` read only it and walk nothing; the walk is the
independent check on the counts, which the tests run on every group and
`check` reads for every group of `default_groups` off one walk per Dynkin
chain (`walk_groups`): in the numbering of `cartan_matrix`, a classical
family's lower ranks, and E6 and E7 under E8, are the last nodes of the
chain's top, so their roots are among the top's. The A-D
counts also hold their top height and h_vee to the highest root in
simple-root coordinates, long under the Cartan form, in O(rank) steps as
well. Both refuse a rank above the cap with the same message.
"""

from __future__ import annotations

import enum
import operator
from collections import Counter
from itertools import chain, compress, repeat

from ._record import Record
from .errors import InvariantViolationError, ParameterDomainError, UnsupportedGroupError

__all__ = [
    "Family",
    "SimpleLieType",
    "HeightCounts",
    "build_root_system",
    "cartan_matrix",
    "default_groups",
    "exponents",
    "height_counts",
    "minimal_pairing",
    "rho_pairings_killing",
    "su",
    "spin",
    "sp",
    "walk_groups",
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

    # equality is identity, so hashing is too: the C slot, not Enum's
    # Python-level hash of the name, on every SimpleLieType key
    __hash__ = object.__hash__


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

# Largest rank `build_root_system` and `height_counts` admit; both refuse a
# larger one with the same message, the walk before it allocates the rank^2
# Cartan matrix. At rank 256 every family has at most 65,536 positive roots.
# The walk there takes 0.09 s for SU_257 and 0.18-0.22 s for Sp_512,
# Spin_513 and Spin_512, at up to 50 MB peak RSS; `volume`, which reads the
# counts, takes 1.1-2.5 ms in process (0.14-0.38 ms of it the counts and
# their highest-root check) and 15 MB peak RSS as a fresh `python -m lievol`
# (0.12-0.24 s and 33-50 MB when it walked).
# Medians, 2-core Linux box, Python 3.11. The walk for SU_3000 ran out of
# memory under a 1 GB limit. `SimpleLieType` itself has no cap.
_MAX_RANK = 256


class SimpleLieType(Record):
    """A compact simple group named by Cartan family and rank."""

    family: Family
    rank: int

    def __post_init__(self):
        if self.family in EXCEPTIONAL_RANK:
            want = EXCEPTIONAL_RANK[self.family]
            if not isinstance(self.rank, int) or self.rank != want:
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
    """Cartan matrix with the convention C[i][j] = 2(a_i, a_j)/(a_j, a_j).

    Node k is Bourbaki's simple root a_(k+1) on A_r-D_r, G2 and F4, so the
    last node of B_r is short and that of C_r long, and D_r's node r - 1
    hangs on node r - 3; on E6-E8 node k is a_(r-k), Bourbaki's order
    reversed: the path 0-1-...-(r-3)-(r-1), with node r - 2 on node r - 4
    (Lie Groups and Lie Algebras, ch. VI, Planches I-IX). In this numbering
    A_r-D_r less their first node are the family one rank down, and E8 less
    its first one or two nodes is E7 or E6.
    """
    r = lie_type.rank
    c = [[0] * r for _ in range(r)]
    for i in range(r):
        c[i][i] = 2
    for (i, j), entry in _cartan_off_diagonal(lie_type).items():
        c[i][j] = entry
    return tuple(map(tuple, c))


def _cartan_off_diagonal(lie_type):
    """The nonzero entries off the diagonal of the Cartan matrix, (i, j) -> C[i][j]:
    one or two per edge of the Dynkin diagram, so O(rank) of them."""
    fam, r = lie_type.family, lie_type.rank
    off = {}

    def chain(pairs):
        for i, j in pairs:
            off[i, j] = off[j, i] = -1

    if fam is Family.A:
        chain((i, i + 1) for i in range(r - 1))
    elif fam is Family.B:
        chain((i, i + 1) for i in range(r - 1))
        off[r - 2, r - 1] = -2  # last simple root is short
    elif fam is Family.C:
        if r >= 2:
            chain((i, i + 1) for i in range(r - 1))
            off[r - 1, r - 2] = -2  # last simple root is long
    elif fam is Family.D:
        chain((i, i + 1) for i in range(r - 2))
        chain([(r - 3, r - 1)])
    elif fam is Family.G2:
        off[0, 1] = -1
        off[1, 0] = -3
    elif fam is Family.F4:
        chain([(0, 1), (2, 3)])
        off[1, 2] = -2
        off[2, 1] = -1
    else:  # E6, E7, E8: path 0-1-...-(r-3)-(r-1), node r-2 on node r-4
        chain((i, i + 1) for i in range(r - 3))
        chain([(r - 3, r - 1), (r - 4, r - 2)])
    return off


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


class HeightCounts(Record):
    """What route 2, the key relation and the dimension read of a group.

    counts holds (weighted height, number of positive roots of that height)
    pairs in increasing height; a height h is sum_i D d_i mu_i, and
    h / height_denominator, with height_denominator = 2 D h_vee, is
    <rho, mu> under the Cartan-Killing normalization. `height_counts` gives
    it without the walk, and `build_root_system` from the walk, on every
    type.
    """

    lie_type: SimpleLieType
    dual_coxeter: int
    counts: tuple[tuple[int, int], ...]
    height_denominator: int

    @property
    def dim(self) -> int:
        return self.lie_type.rank + 2 * sum(map(operator.itemgetter(1), self.counts))


def _refuse_above_cap(lie_type):
    if lie_type.rank > _MAX_RANK:
        raise UnsupportedGroupError(
            f"{lie_type}: rank {lie_type.rank} is above {_MAX_RANK}, the cap"
        )


def height_counts(lie_type: SimpleLieType) -> HeightCounts:
    """The weighted heights of the positive roots, with h_vee, without the
    walk: in closed form from the epsilon basis on A_r, B_r, C_r and D_r
    (Bourbaki, Lie Groups and Lie Algebras, ch. VI, Planches I-IV), with
    1 <= i < j <= r:

    - A_r (D = 1): eps_i - eps_j, j <= r + 1, has height j - i, so height k
      has r + 1 - k roots; h_vee = r + 1.
    - B_r (D = 2): eps_i - eps_j -> 2(j - i), eps_i + eps_j ->
      2(2r + 1 - i - j), eps_i -> 2(r - i) + 1; h_vee = 2r - 1.
    - C_r (D = 2): eps_i - eps_j -> j - i, eps_i + eps_j -> 2r + 2 - i - j,
      2 eps_i -> 2(r - i + 1); h_vee = r + 1.
    - D_r (D = 1): eps_i - eps_j -> j - i, eps_i + eps_j -> 2r - i - j;
      h_vee = 2r - 2.

    A height is sum_i D d_i mu_i, as in the walk: the simple roots
    eps_i - eps_{i+1}, eps_r and 2 eps_r weigh D if long and 1 if short. A
    difference j - i = k is taken by r - k pairs, and a sum i + j = s by
    (s - 1) // 2 - max(1, s - r) + 1 pairs (i from max(1, s - r) to
    (s - 1) // 2), so a family costs O(r) steps for its O(r) distinct
    heights. These counts read neither `exponents` nor the Cartan matrix.
    Then, as the walk does for its top root, the highest root theta,
    written in simple-root coordinates, must have the top weighted height
    D (h_vee - 1) and be long under the Cartan form (`minimal_pairing`), in
    O(rank) steps; else InvariantViolationError. A rank above the cap is
    refused with the walk's message.

    On E6, E7 and E8 the counts come from the exponents m_1 <= ... <= m_r.
    Kostant (Amer. J. Math. 81, 1959) showed that the heights of the
    positive roots form the partition dual to the exponents: height k has
    #{i : m_i >= k} roots. These types are simply laced, so D = 1, every
    d_i = 1 and a weighted height is the height; the highest root has the
    top height m_r, so h_vee = h = m_r + 1 and height_denominator = 2h.
    These counts read `exponents`, as the walk's root-count limit does, but
    nothing of the walk's reflections; `check` and the tests hold them to
    the walk's record.

    On F4 (D = 2) and G2 (D = 3) they come from the epsilon-basis roots of
    Bourbaki's Planches VIII-IX, long roots of squared length 2 (on G2 once
    the form is divided by 3), as h = D (rho, mu) and h_vee = max h / D + 1:

    - F4: eps_i, eps_i +- eps_j and (eps_1 +- eps_2 +- eps_3 +- eps_4) / 2,
      with 2 rho = (11, 5, 3, 1), so h = 2 rho . mu.
    - G2: eps_1 - eps_2, -2 eps_1 + eps_2 + eps_3, -eps_1 + eps_3,
      eps_3 - eps_2, eps_1 - 2 eps_2 + eps_3 and -eps_1 - eps_2 + 2 eps_3,
      with rho = -eps_1 - 2 eps_2 + 3 eps_3, so h = rho . mu.

    The dual partition of their exponents is not this multiset: these
    counts read neither `exponents` nor the Cartan matrix.
    """
    fam, r = lie_type.family, lie_type.rank
    if fam in (Family.E6, Family.E7, Family.E8):
        exps = exponents(lie_type)
        h = exps[-1] + 1
        counts = tuple((k, sum(m >= k for m in exps)) for k in range(1, h))
        return HeightCounts(lie_type, h, counts, 2 * h)
    if fam in (Family.G2, Family.F4):
        if fam is Family.G2:  # rho . mu
            denom = 3
            roots = ((1, -1, 0), (-2, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -2, 1), (-1, -1, 2))
            hs = [-a - 2 * b + 3 * c for a, b, c in roots]
        else:  # e = 2 rho; e . mu on eps_i, eps_i +- eps_j, then on the half roots
            denom, e = 2, (11, 5, 3, 1)
            hs = [*e, *(a + s * b for i, a in enumerate(e) for b in e[i + 1:] for s in (1, -1))]
            hs += [(11 + a + b + c) // 2 for a in (5, -5) for b in (3, -3) for c in (1, -1)]
        h_vee = max(hs) // denom + 1
        return HeightCounts(lie_type, h_vee, tuple(sorted(Counter(hs).items())), 2 * denom * h_vee)
    _refuse_above_cap(lie_type)
    denom = 2 if fam in (Family.B, Family.C) else 1
    h_vee = {Family.A: r + 1, Family.B: 2 * r - 1, Family.C: r + 1, Family.D: 2 * r - 2}[fam]
    # heights[h] counts the roots of weighted height h, 0 < h < D h_vee
    heights = [0] * (denom * h_vee)
    if fam is Family.A:
        heights[1:] = range(r, 0, -1)
    else:
        step = 2 if fam is Family.B else 1  # the weight of eps_i - eps_{i+1}
        for k in range(1, r):
            heights[step * k] += r - k
        top = {Family.B: 4 * r + 2, Family.C: 2 * r + 2, Family.D: 2 * r}[fam]
        for s in range(3, 2 * r):
            heights[top - step * s] += (s - 1) // 2 - max(1, s - r) + 1
        if fam is not Family.D:  # eps_i of B_r, 2 eps_i of C_r
            for i in range(1, r + 1):
                heights[2 * (r - i) + (1 if fam is Family.B else 2)] += 1
    counts = tuple((h, c) for h, c in enumerate(heights) if c)
    record = HeightCounts(lie_type, h_vee, counts, 2 * denom * h_vee)
    # the top of the counts is theta's weighted height D (h_vee - 1) in the
    # simple-root model too, and theta is long there
    theta = _highest_root(lie_type)
    top = sum(map(operator.mul, _symmetrizer(lie_type), theta))
    if not top == counts[-1][0] == denom * (h_vee - 1):
        raise InvariantViolationError(
            f"{lie_type}: highest root has weighted height {top}, the counts"
            f" top out at {counts[-1][0]}, D (h_vee - 1) = {denom * (h_vee - 1)}"
        )
    _refuse_short(lie_type, theta)
    return record


def _highest_root(lie_type):
    """theta of A_r-D_r in simple-root coordinates: eps_1 - eps_{r+1} on A,
    eps_1 + eps_2 on B and D, 2 eps_1 on C (Bourbaki, Planches I-IV)."""
    fam, r = lie_type.family, lie_type.rank
    if fam is Family.A:
        return (1,) * r
    if fam is Family.B:
        return (1,) + (2,) * (r - 1)
    if fam is Family.C:
        return (2,) * (r - 1) + (1,)
    return (1,) + (2,) * (r - 3) + (1, 1)


def _refuse_short(lie_type, theta):
    # h_vee = (rho, theta) + 1 holds only for a long highest root theta
    if minimal_pairing(lie_type, theta, theta) != 2:
        raise InvariantViolationError(f"{lie_type}: highest root is not long")


def _coordinates(code, rank):
    """The coordinates of a root: the last rank octal digits of its code."""
    return tuple(map(int, format(code, "o")[-rank:]))


def _positive_roots(lie_type, rows, steps, width, limit):
    """The positive roots, found by raising the simple roots with reflections.

    C has passed `_check_cartan`, so s_i permutes the positive roots other
    than a_i, and every non-simple positive root has a simple reflection
    that lowers its height: the raising reflections
    s_i(beta) = beta - <beta, a_i^vee> a_i reach every positive root from
    the simple ones. Each root keeps its nonzero pairings <beta, a_j^vee>;
    raising by c a_i adds c C[i][j], so only the nonzero entries
    rows[i] = ((j, C[i][j]), ...) of Cartan row i are touched.
    A root is one int, its key sum_i mu_i steps[i]; a raise by c a_i adds
    c steps[i]. `_walk` sets steps[i] to
    2^(3 rank + W) + 2^(W + 3(rank - 1 - i)) + D d_i, so a key is
    height * 2^(3 rank + W) + sum_i mu_i 2^(W + 3(rank - 1 - i))
    + sum_i D d_i mu_i: the height on top, the coordinates below it as
    base-8 digits with mu_0 the most significant, and the D-weighted height
    in the low W = width bits, the bit length of 7 D rank. No field carries
    into the next while every coordinate is below 8: each digit then fits
    its 3 bits, and the weighted height is at most 7 D rank < 2^W. So the
    key is injective, sorting keys sorts the roots by height, then
    coordinates, and key & (2^W - 1) is the weighted height. No finite root
    system has a coordinate above 6 (E8's highest root), so a raise to a
    digit of 8 or more means C is not of finite type, and is refused before
    the raised key is used. So is a walk past `limit` roots (C not of finite
    type, or a wrong exponent table), which would otherwise never stop.

    Each root also keeps its node: the index of its first nonzero
    coordinate. a_i's node is i, and a raise by a_i moves the node to
    min(node, i). The walk sums the pairings as it reads them, per node:
    sums[k][j] is the sum of <beta, a_j^vee> over the roots beta of node k.
    Returns the keys of each node and those sums.
    """
    rank = len(rows)
    shifts = [width + 3 * (rank - 1 - i) for i in range(rank)]
    keys = list(steps)
    nodes = list(range(rank))
    buckets = [[key] for key in keys]
    pairings = [dict(row) for row in rows]
    seen = set(keys)
    sums = [[0] * rank for _ in range(rank)]
    # the three lists grow while they are walked
    for key, node, pairing in zip(keys, nodes, pairings):
        node_sums = sums[node]
        for i, p in pairing.items():
            node_sums[i] += p
            if p < 0:
                coord = (key >> shifts[i] & 7) - p
                if coord > 7:
                    raise InvariantViolationError(
                        f"{lie_type}: reflection {i} raises {_coordinates(key >> width, rank)}"
                        f" to coordinate {coord}, above any root of finite type"
                    )
                up = key - p * steps[i]
                if up in seen:
                    continue
                if len(keys) == limit:
                    raise InvariantViolationError(
                        f"{lie_type}: more than {limit} positive roots, the exponent sum"
                    )
                raised = dict(pairing)
                for j, c in rows[i]:
                    q = raised.pop(j, 0) - p * c
                    if q:
                        raised[j] = q
                up_node = i if i < node else node  # min(node, i)
                seen.add(up)
                keys.append(up)
                nodes.append(up_node)
                buckets[up_node].append(up)
                pairings.append(raised)
    return buckets, sums


def _check_cartan(lie_type, cartan, rows, weights):
    """Refuse C unless C[i][i] = 2, C[i][j] <= 0 off the diagonal, and the
    form D (a_i, a_j) = D d_j C[i][j] is symmetric, read on the nonzero
    entries rows[i] = ((j, C[i][j]), ...).

    For such a C, s_i permutes the positive roots other than a_i (Humphreys,
    Lie Algebras, 10.2 Lemma B; Kac, Infinite-dimensional Lie Algebras,
    Lemma 3.7), so no reflection in the walk can send a root negative. The
    symmetry test on the nonzero entries covers the zero ones too: a zero
    facing a nonzero entry fails at the nonzero one.
    """
    for i, row in enumerate(rows):
        if cartan[i][i] != 2:
            raise InvariantViolationError(
                f"{lie_type}: Cartan diagonal C[{i}][{i}] = {cartan[i][i]}, not 2"
            )
        for j, c in row:
            if j == i:
                continue
            if c > 0:
                raise InvariantViolationError(
                    f"{lie_type}: reflection {j} sends positive root a_{i} negative"
                    f" (C[{i}][{j}] = {c})"
                )
            if weights[j] * c != weights[i] * cartan[j][i]:
                raise InvariantViolationError(
                    f"symmetrized form asymmetric for {lie_type} at ({i},{j})"
                )


def build_root_system(lie_type: SimpleLieType) -> HeightCounts:
    """The `HeightCounts` of a supported simple type, from the walk.

    Positive roots come from raising reflections of the simple roots; the
    Weyl vector is their half sum, checked against (rho, a_i^vee) = 1, and
    pairings are D-weighted heights, counted into the record, which holds
    only integers and none of the roots. Internal invariants (the Cartan
    matrix, root count, pairing bounds, highest root long) are checked at
    linear cost. This is the walk of a chain whose one member is the type
    itself. The roots in the span of part of a base are the root system of
    that part, so the roots of a sub-diagram are the type's roots that are
    zero on the dropped nodes: `walk_groups` reads the lower members of a
    chain off this same walk.
    """
    record = _walk(lie_type, (lie_type,))[lie_type]
    if isinstance(record, InvariantViolationError):
        raise record
    return record


def walk_groups(max_rank: int) -> dict[SimpleLieType, HeightCounts | InvariantViolationError]:
    """The `HeightCounts` of every group of `default_groups(max_rank)`, in
    its order, from one walk per Dynkin chain: a family, with E6 and E7
    joining E8, walked at its last group.

    A chain's members are its top less its first nodes in the numbering of
    `cartan_matrix`, with the same Cartan entries and symmetrizer weights on
    the kept nodes. The roots in the span of a subset of a base form the
    root system with that base (Bourbaki, Lie Groups and Lie Algebras,
    ch. VI, 1.7), so a member's positive roots are the top's whose first
    nonzero coordinate lies on a kept node. The walk files each root under
    that node and sums the pairings per node, so each member's record, and
    each check `build_root_system` makes of one type (root count, Weyl
    vector over the member's nodes, top and lowest weighted height, highest
    root long), is read off the nodes it keeps. A member whose check fails
    maps to its InvariantViolationError, and every member of a chain to the
    one its walk itself raised (on a Cartan matrix, a coordinate or a root
    count of the top's). Walking A_r once reads all r members in O(r^2)
    roots, where a walk per member takes O(r^3).
    """
    chains = {}
    for lie_type in default_groups(max_rank):
        fam = lie_type.family
        chains.setdefault(Family.E8 if fam in (Family.E6, Family.E7) else fam, []).append(lie_type)
    records = {}
    for members in chains.values():
        try:
            records.update(_walk(members[-1], members))
        except InvariantViolationError as exc:
            records.update(dict.fromkeys(members, exc))
    return records


def _walk(top, members):
    """A dict of each member's `HeightCounts`, or of the
    InvariantViolationError its checks raised, from one walk of top's
    positive roots (see `_positive_roots`). The members are types of top's
    chain (see `walk_groups`), by increasing rank, each the last nodes of
    top; each is checked as the walk of that type alone would be."""
    _refuse_above_cap(top)
    rank = top.rank
    cartan = cartan_matrix(top)
    weights = _symmetrizer(top)
    denom = max(weights)
    # the nonzero entries ((j, C[i][j]), ...) of each row, read at C speed
    rows = [list(zip(compress(range(rank), row), filter(None, row))) for row in cartan]
    _check_cartan(top, cartan, rows, weights)

    # the key layout of `_positive_roots`: height, base-8 coordinates and
    # D-weighted height, with W = width bits for the last
    width = (7 * denom * rank).bit_length()
    step = 1 << 3 * rank + width
    steps = [step + (1 << width + 3 * (rank - 1 - i)) + w for i, w in enumerate(weights)]
    buckets, sums = _positive_roots(top, rows, steps, width, sum(exponents(top)))

    # each member's roots, pairing sums and highest key, smallest member
    # first: a member has the nodes of the one before it and adds its own
    mask = (1 << width) - 1
    heights = Counter()
    total = [0] * rank
    count = highest_key = 0
    read = rank  # the first node read so far
    records = {}
    for member in members:
        # the member's nodes are lo to rank - 1; it adds lo to read - 1
        lo = rank - member.rank
        added = range(lo, read)
        read = lo
        new = list(chain.from_iterable(map(buckets.__getitem__, added)))
        heights.update(map(mask.__and__, new))
        count += len(new)
        highest_key = max(highest_key, max(new, default=0))
        total = list(map(sum, zip(total, *map(sums.__getitem__, added))))
        # its coordinates are the last digits, those of its nodes
        theta = _coordinates(highest_key >> width, member.rank)
        try:
            records[member] = _member_record(
                member, count, total[lo:], heights, highest_key & mask, theta, denom
            )
        except InvariantViolationError as exc:
            records[member] = exc
    return records


def _member_record(lie_type, count, sums, heights, highest, theta, denom):
    """The `HeightCounts` of one member of a walk, once every invariant of
    the walk has been checked on its count roots: the pairing sums over its
    nodes, the Counter of their weighted heights, the weighted height and
    coordinates theta of its largest key, and the denominator D."""
    limit = sum(exponents(lie_type))
    if count != limit:
        raise InvariantViolationError(
            f"{lie_type}: {count} positive roots but exponent sum {limit}"
        )
    # (rho, a_i^vee) = 1 reads sum_beta <beta, a_i^vee> = 2; C is invertible,
    # so this holds for the half sum exactly when the half sum is the Weyl
    # vector
    if sums != [2] * lie_type.rank:
        raise InvariantViolationError(f"{lie_type}: Weyl vector != half sum of positive roots")

    # D (rho, mu) = sum_i D d_i mu_i, since (rho, a_i) = d_i
    counts = tuple(sorted(heights.items()))
    # h_vee = (rho, theta) + 1 for the largest key theta, the highest root,
    # which `_refuse_short` checks is long; no root's weighted height passes
    # theta's
    if counts[-1][0] != highest:
        raise InvariantViolationError(
            f"{lie_type}: weighted height {counts[-1][0]} above the highest root's, {highest}"
        )
    if highest % denom:
        raise InvariantViolationError(f"{lie_type}: non-integer dual Coxeter number")
    h_vee = highest // denom + 1
    if counts[0][0] <= 0:
        raise InvariantViolationError(
            f"{lie_type}: weighted height {counts[0][0]} escapes (0, {denom * h_vee})"
        )
    _refuse_short(lie_type, theta)
    return HeightCounts(lie_type, h_vee, counts, 2 * denom * h_vee)


def minimal_pairing(lie_type: SimpleLieType, u, v) -> int | Fraction:
    """(u, v) under the long-root-squared-length-2 normalization, exact.

    (a_i, a_j) = d_j C[i][j], so D (u, v) is the diagonal sum
    sum_i 2 D d_i u_i v_i plus u_i C[i][j] D d_j v_j over the nonzero
    entries off the diagonal, one or two per edge of the Dynkin diagram:
    O(rank) steps, in integers over the common denominator D when u and v
    are integer vectors (rational coordinates give a Fraction sum). An
    integral pairing, such as (theta, theta) = 2, is returned as an int;
    only a non-integral one is built as a Fraction.
    """
    if not len(u) == len(v) == lie_type.rank:
        raise ParameterDomainError(f"{lie_type}: u and v need one coordinate per simple root")
    weights = _symmetrizer(lie_type)
    denom = max(weights)
    wv = list(map(operator.mul, weights, v))
    total = 2 * sum(map(operator.mul, u, wv)) + sum(
        u[i] * entry * wv[j] for (i, j), entry in _cartan_off_diagonal(lie_type).items()
    )
    if total % denom == 0:
        return total // denom
    from fractions import Fraction

    return Fraction(total, denom)


def rho_pairings_killing(lie_type: SimpleLieType) -> tuple[Fraction, ...]:
    """<rho, mu> under the Cartan-Killing normalization, one per positive
    root, in increasing order.

    The Killing form on the algebra is 2 h_vee times the minimal form, so the
    induced form on the dual Cartan subalgebra divides by 2 h_vee. Every value
    lies strictly inside (0, 1/2). The values are the walk's record: each
    distinct D-weighted height sum_i D d_i mu_i over height_denominator =
    2 D h_vee, repeated by its count.
    """
    from fractions import Fraction

    heights = build_root_system(lie_type)
    den = heights.height_denominator
    return tuple(chain.from_iterable(repeat(Fraction(h, den), c) for h, c in heights.counts))
