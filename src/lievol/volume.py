"""Group volumes by independent routes, reconciled into one report.

Route 1 integrates the universal parameter integral, route 2 takes the
product of sine factors over positive roots, and on the unitary family
Macdonald's factorial formula, the unitary-line closed form at an integer
point with ln G read by `special`, gives a third. Volume arithmetic stays
in log space; the raw volume is attached only where a double holds it.

Route 2 and the dimension read one `rootsys.HeightCounts` record, from
`rootsys.height_counts`, so a report walks no roots; on A-D it raises, of
the walk's invariant errors, only "highest root is not long", which the
counts check too, in O(rank). `check` reads every group's walk record off
`rootsys.walk_groups`, one walk per Dynkin chain, and fails its structure
item unless the record equals the walk's.
"""

from __future__ import annotations

import functools
import itertools
import math

from . import quad, rootsys, special, vogel
from ._record import Record
from .errors import InvariantViolationError
from .quad import Tolerance
from .rootsys import Family, SimpleLieType

__all__ = [
    "LOG_VOLUME_BASE",
    "VolumeReport",
    "CheckItem",
    "phi_kp",
    "cross_check",
    "run_check_suite",
]

# ln(2 sqrt(2) pi), the per-dimension factor of the volume formula
LOG_VOLUME_BASE = 1.5 * math.log(2.0) + math.log(math.pi)

_EXCEPTIONAL_DIM = {Family.G2: 14, Family.F4: 52, Family.E6: 78, Family.E7: 133, Family.E8: 248}

# orthogonal groups are represented by their simply connected double covers
_SPIN_NOTE = "double cover of SO_n; volume is twice the SO_n volume"


class VolumeReport(Record):
    group: str
    dim: int
    phi_universal: float
    phi_kp: float
    log_volume: float
    volume: float | None
    route_discrepancy: float
    converged: bool
    agreed: bool
    notes: str


class CheckItem(Record):
    name: str
    passed: bool
    detail: str


def phi_kp(heights: rootsys.HeightCounts) -> float:
    """Minus the log of the product of sinc factors over positive roots.

    Each argument s = 2 <rho, mu> = h / m, with h the root's weighted height
    and m = D h_vee, lies in (0, 1). Integer division rounds correctly, so
    each float is the exact argument rounded once; each sine is taken at the
    reduced argument min(h, m - h) / m so factors near the upper end keep
    full precision. Every factor is verified to lie in (0, 1] before its log
    is taken. One sine is taken per distinct weighted height and its term
    repeated by its count into `math.fsum`, which rounds the exact sum once
    whatever the order: the same float as one term per root in root order.
    """
    m = heights.height_denominator // 2
    hs, counts = zip(*heights.counts)
    terms = []
    for h in hs:
        sin_val = math.sin(math.pi * (min(h, m - h) / m))
        arg = math.pi * (h / m)
        if not 0.0 < sin_val <= arg:
            raise InvariantViolationError(
                f"sinc factor out of (0, 1] for argument {h}/{m} of {heights.lie_type}"
            )
        terms.append(math.log(arg) - math.log(sin_val))
    return math.fsum(itertools.chain.from_iterable(map(itertools.repeat, terms, counts)))


def _checked_dim(heights: rootsys.HeightCounts, point: vogel.VogelPoint) -> int:
    """The dimension, once the root data and the parameter point agree on it
    and on the dual Coxeter number; the one structural check of a group."""
    dim_roots = heights.dim
    dim_formula = vogel.dim_from_vogel(point)
    if abs(dim_formula - round(dim_formula)) > 1e-12 * max(1.0, abs(dim_formula)):
        raise InvariantViolationError(
            f"{heights.lie_type}: dimension formula gave non-integer {dim_formula!r}"
        )
    if round(dim_formula) != dim_roots:
        raise InvariantViolationError(
            f"{heights.lie_type}: root count dim {dim_roots} != formula dim {dim_formula}"
        )
    expected = _EXCEPTIONAL_DIM.get(heights.lie_type.family)
    if expected is not None and dim_roots != expected:
        raise InvariantViolationError(
            f"{heights.lie_type}: dim {dim_roots}, expected {expected}"
        )
    if float(heights.dual_coxeter) != point.t:
        raise InvariantViolationError(
            f"{heights.lie_type}: h_vee {heights.dual_coxeter} != table t {point.t!r}"
        )
    return dim_roots


def cross_check(lie_type: SimpleLieType, tol: Tolerance | None = None) -> VolumeReport:
    """Report for one group: the integral route is the headline value, and
    every pair of applicable routes is compared.

    The agreement bound is 10 * tol.rel * max(1, |phi_kp|); the factorial
    closed form joins the comparison on the unitary family only. Any
    disagreement, or an unconverged integral, clears `agreed` and is
    described in `notes`.
    """
    return _report(rootsys.height_counts(lie_type), tol or Tolerance(), quad.integrate_phi)


def _report(heights: rootsys.HeightCounts, tol: Tolerance, integrate) -> VolumeReport:
    # integrate(point, tol) is quad.integrate_phi, or check's cache of it
    lie_type = heights.lie_type
    point = vogel.vogel_point(lie_type)
    dim = _checked_dim(heights, point)
    qr = integrate(point, tol)
    pkp = phi_kp(heights)
    routes = {"universal": qr.value, "product": pkp}
    if lie_type.family is Family.A:
        routes["factorial"] = special.phi_unitary_closed_form(lie_type.rank + 1)
    bound = 10.0 * tol.rel * max(1.0, abs(pkp))
    failures = []
    for (name_a, phi_a), (name_b, phi_b) in itertools.combinations(routes.items(), 2):
        if abs(phi_a - phi_b) > bound:
            failures.append(f"{name_a} vs {name_b} routes differ by {abs(phi_a - phi_b):.3e}")
    if not qr.converged:
        failures.append("quadrature did not converge")
    notes = [_SPIN_NOTE] if lie_type.family in (Family.B, Family.D) else []
    log_volume = dim * LOG_VOLUME_BASE - qr.value
    return VolumeReport(
        group=lie_type.compact_name,
        dim=dim,
        phi_universal=qr.value,
        phi_kp=pkp,
        log_volume=log_volume,
        volume=math.exp(log_volume) if abs(log_volume) <= 700.0 else None,
        route_discrepancy=abs(qr.value - pkp),
        converged=qr.converged,
        agreed=not failures,
        notes="; ".join(notes + failures),
    )


_KEY_RELATION_XS = (0.1, 1.0, 5.0)
_UNITARY_ZS = (0.5, 1.0, 2.0, 3.0, 5.5, 9.0)


def _guarded(name: str, fn) -> CheckItem:
    # a faulty table row or root system must surface as FAIL, not a crash
    try:
        passed, detail = fn()
    except Exception as exc:  # noqa: BLE001
        return CheckItem(name, False, f"error: {exc}")
    return CheckItem(name, passed, detail)


def _unless_unconverged(passed: bool, detail: str, *results) -> tuple[bool, str]:
    # an item whose integrals (QuadResults or VolumeReports) did not all
    # converge fails, whatever their values
    if all(r.converged for r in results):
        return passed, detail
    return False, detail + "; quadrature did not converge"


def run_check_suite(max_rank: int = 8, tol: Tolerance | None = None) -> list[CheckItem]:
    """Full verification battery used by the command-line `check` command.

    Each group's height record and report are made once, on first use, and
    shared by every item that reads them, the isomorphism items included.
    So are the walks, by the first structure item, one per Dynkin chain
    (`rootsys.walk_groups`), each kept as its members' records, so no roots
    outlive it. So is each phi integral, once per distinct point: the
    unitary-line items at z = 2, 3 and 9 read the reports' integrals of
    SU_2, SU_3 and SU_9. The reports read the record `volume` reads; the
    structure item also requires it to equal the walk's. An item that
    reads an integral fails if that integral did not converge, whatever its
    value. A member whose own check in the walk fails fails its structure
    item with that error; an error of a chain's walk itself fails the
    structure item of every member, with that error. Any other step that
    raised, `walk_groups` included, is run again, with the same error, by
    each item that needs it."""
    tol = tol or Tolerance()
    items: list[CheckItem] = []
    groups = rootsys.default_groups(max_rank)
    walks = functools.cache(lambda: rootsys.walk_groups(max_rank))
    heights = functools.cache(rootsys.height_counts)
    integrate = functools.cache(quad.integrate_phi)
    report = functools.cache(lambda lie_type: _report(heights(lie_type), tol, integrate))

    for lie_type in groups:
        name = lie_type.compact_name

        def structural(lie_type=lie_type):
            record, walked = heights(lie_type), walks()[lie_type]
            if isinstance(walked, InvariantViolationError):
                raise walked
            if record != walked:
                raise InvariantViolationError(
                    f"{lie_type}: height counts, m or h_vee differ from the walk's"
                )
            _checked_dim(record, vogel.vogel_point(lie_type))
            return True, f"dim={record.dim}, h_vee={record.dual_coxeter}"

        def routes(lie_type=lie_type):
            r = report(lie_type)
            ok = (
                r.agreed
                and r.phi_universal >= 0.0
                and r.phi_kp >= 0.0
                and r.route_discrepancy <= 1e-8 * max(1.0, abs(r.phi_kp))
            )
            return ok, f"|phi_universal - phi_kp| = {r.route_discrepancy:.3e}"

        def key_relation(lie_type=lie_type):
            record = heights(lie_type)
            worst = max(abs(vogel.key_relation_residual(record, x)) for x in _KEY_RELATION_XS)
            return worst <= 1e-9 * record.dim, f"max residual = {worst:.3e}"

        items.append(_guarded(f"structure {name}", structural))
        items.append(_guarded(f"route agreement {name}", routes))
        items.append(_guarded(f"key relation {name}", key_relation))

    for n in range(1, 9):

        def barnes(n=n):
            got = special.log_barnesG_integral(float(n))
            diff = abs(got.value - special.barnesG_integer_oracle(n))
            return _unless_unconverged(diff <= 1e-9, f"|diff| = {diff:.3e}", got)

        items.append(_guarded(f"Barnes integral vs oracle n={n}", barnes))

    for z in _UNITARY_ZS:

        def unitary(z=z):
            got = integrate(vogel.VogelPoint(-2.0, 2.0, z), tol)
            diff = abs(got.value - special.phi_unitary_closed_form(z))
            return _unless_unconverged(diff <= 1e-7, f"|diff| = {diff:.3e}", got)

        items.append(_guarded(f"unitary line identity z={z}", unitary))

    # Sp_2 is the C-family presentation of SU_2. The Spin_6 table row shares
    # its parameter point with SU_4 up to permutation, so its universal-route
    # volume must match the SU_4 report although D3 itself is not built.
    def iso_sp2():
        su2, sp2 = report(rootsys.su(2)), report(rootsys.sp(2))
        diff = abs(su2.log_volume - sp2.log_volume)
        return _unless_unconverged(diff <= 1e-8, f"|log-volume diff| = {diff:.3e}", su2, sp2)

    def iso_spin6():
        point = vogel.spin_row_point(6)
        dim = round(vogel.dim_from_vogel(point))
        got, su4 = integrate(point, tol), report(rootsys.su(4))
        diff = abs(su4.log_volume - (dim * LOG_VOLUME_BASE - got.value))
        return _unless_unconverged(diff <= 1e-8, f"|log-volume diff| = {diff:.3e}", got, su4)

    items.append(_guarded("iso Sp_2 = SU_2", iso_sp2))
    items.append(_guarded("iso Spin_6 = SU_4", iso_spin6))
    return items
