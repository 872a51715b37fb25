"""Group volumes by independent routes, reconciled into one report.

Route 1 integrates the universal parameter integral, route 2 takes the
product of sine factors over positive roots, and on the unitary family the
Macdonald factorial formula gives a third closed form. All volume
arithmetic stays in log space; the raw volume is attached only when it is
representable in double precision.
"""

from __future__ import annotations

import math

from . import quad, rootsys, special, vogel
from ._record import Record
from .errors import InvariantViolationError
from .quad import Tolerance
from .rootsys import Family, RootSystem, SimpleLieType

__all__ = [
    "LOG_VOLUME_BASE",
    "VolumeReport",
    "CheckItem",
    "phi_kp",
    "volume_macdonald_sun",
    "cross_check",
    "isomorphism_checks",
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


def phi_kp(rs: RootSystem) -> float:
    """Minus the log of the product of sinc factors over positive roots.

    Each argument s = 2 <rho, mu> = h / m, with h the root's weighted height
    and m = D h_vee, lies in (0, 1). Integer division rounds correctly, so
    each float is the exact argument rounded once; each sine is taken at the
    reduced argument min(h, m - h) / m so factors near the upper end keep
    full precision. Every factor is verified to lie in (0, 1] before its log
    is taken.
    """
    m = rs.height_denominator // 2
    terms = []
    for h in rs.weighted_heights:
        sin_val = math.sin(math.pi * (min(h, m - h) / m))
        arg = math.pi * (h / m)
        if not 0.0 < sin_val <= arg:
            raise InvariantViolationError(
                f"sinc factor out of (0, 1] for argument {h}/{m} of {rs.lie_type}"
            )
        terms.append(math.log(arg) - math.log(sin_val))
    return math.fsum(terms)


def _checked_dim(rs: RootSystem, point: vogel.VogelPoint) -> int:
    dim_roots = rs.dim
    dim_formula = vogel.dim_from_vogel(point)
    if abs(dim_formula - round(dim_formula)) > 1e-12 * max(1.0, abs(dim_formula)):
        raise InvariantViolationError(
            f"{rs.lie_type}: dimension formula gave non-integer {dim_formula!r}"
        )
    if round(dim_formula) != dim_roots:
        raise InvariantViolationError(
            f"{rs.lie_type}: root count dim {dim_roots} != formula dim {dim_formula}"
        )
    expected = _EXCEPTIONAL_DIM.get(rs.lie_type.family)
    if expected is not None and dim_roots != expected:
        raise InvariantViolationError(
            f"{rs.lie_type}: dim {dim_roots}, expected {expected}"
        )
    return dim_roots


def volume_macdonald_sun(n: int) -> float:
    """ln Vol(SU_n) from the factorial closed form, n >= 2, in log space."""
    if n < 2:
        raise rootsys.UnsupportedGroupError(f"SU_n closed form requires n >= 2, got {n}")
    n2 = n * n
    return (
        0.5 * (n2 - 1) * math.log(2.0)
        + 0.5 * n2 * math.log(float(n))
        + 0.5 * (n2 + n - 2) * math.log(2.0 * math.pi)
        - special.barnesG_integer_oracle(n).value
    )


def cross_check(lie_type: SimpleLieType, tol: Tolerance | None = None) -> VolumeReport:
    """Report for one group: the integral route is the headline value, and
    every applicable route is compared against it.

    The agreement bound is 10 * tol.rel * max(1, |phi_kp|); the factorial
    closed form joins the comparison on the unitary family only. Any
    disagreement, or an unconverged integral, clears `agreed` and is
    described in `notes`.
    """
    tol = tol or Tolerance()
    rs = rootsys.build_root_system(lie_type)
    point = vogel.vogel_point(lie_type)
    dim = _checked_dim(rs, point)
    qr = quad.integrate_phi(point, tol)
    pkp = phi_kp(rs)
    disc = abs(qr.value - pkp)
    bound = 10.0 * tol.rel * max(1.0, abs(pkp))
    failures = []
    if disc > bound:
        failures.append(f"universal vs product routes differ by {disc:.3e}")
    if lie_type.family is Family.A:
        phi_mac = dim * LOG_VOLUME_BASE - volume_macdonald_sun(lie_type.rank + 1)
        for route, phi in (("universal", qr.value), ("product", pkp)):
            if abs(phi - phi_mac) > bound:
                failures.append(
                    f"{route} vs factorial routes differ by {abs(phi - phi_mac):.3e}"
                )
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
        route_discrepancy=disc,
        converged=qr.converged,
        agreed=not failures,
        notes="; ".join(notes + failures),
    )


def isomorphism_checks(tol: Tolerance | None = None) -> list[CheckItem]:
    """Spot checks that coincident low-rank presentations share a volume.

    Sp_2 is the C-family presentation of SU_2; the Spin_6 table row shares
    its parameter point with SU_4 up to permutation, so its universal-route
    volume must match the full SU_4 report even though the D3 root system
    itself is not constructed.
    """
    tol = tol or Tolerance()
    items = []

    lv_su2 = cross_check(rootsys.su(2), tol).log_volume
    lv_sp2 = cross_check(rootsys.sp(2), tol).log_volume
    diff = abs(lv_su2 - lv_sp2)
    items.append(
        CheckItem("iso Sp_2 = SU_2", diff <= 1e-8, f"|log-volume diff| = {diff:.3e}")
    )

    lv_su4 = cross_check(rootsys.su(4), tol).log_volume
    point = vogel.spin_row_point(6)
    dim = round(vogel.dim_from_vogel(point))
    lv_spin6 = dim * LOG_VOLUME_BASE - quad.integrate_phi(point, tol).value
    diff = abs(lv_su4 - lv_spin6)
    items.append(
        CheckItem("iso Spin_6 = SU_4", diff <= 1e-8, f"|log-volume diff| = {diff:.3e}")
    )
    return items


_KEY_RELATION_XS = (0.1, 1.0, 5.0)
_UNITARY_ZS = (0.5, 1.0, 2.0, 3.0, 5.5, 9.0)


def _guarded(name: str, fn) -> CheckItem:
    # a faulty table row or root system must surface as FAIL, not a crash
    try:
        passed, detail = fn()
    except Exception as exc:  # noqa: BLE001
        return CheckItem(name, False, f"error: {exc}")
    return CheckItem(name, passed, detail)


def run_check_suite(max_rank: int = 8, tol: Tolerance | None = None) -> list[CheckItem]:
    """Full verification battery used by the command-line `check` command."""
    tol = tol or Tolerance()
    items: list[CheckItem] = []

    for lie_type in rootsys.default_groups(max_rank):
        name = lie_type.compact_name
        rs = rootsys.build_root_system(lie_type)

        def structural(rs=rs, lie_type=lie_type):
            point = vogel.vogel_point(lie_type)
            ok = (
                sum(rs.exponents) == len(rs.positive_roots)
                and rs.dim == round(vogel.dim_from_vogel(point))
                and float(rs.dual_coxeter) == point.t
            )
            return ok, f"dim={rs.dim}, h_vee={rs.dual_coxeter}"

        def routes(lie_type=lie_type):
            report = cross_check(lie_type, tol)
            ok = (
                report.agreed
                and report.converged
                and report.phi_universal >= 0.0
                and report.phi_kp >= 0.0
                and report.route_discrepancy <= 1e-8 * max(1.0, abs(report.phi_kp))
            )
            return ok, f"|phi_universal - phi_kp| = {report.route_discrepancy:.3e}"

        def key_relation(rs=rs):
            worst = max(abs(vogel.key_relation_residual(rs, x)) for x in _KEY_RELATION_XS)
            return worst <= 1e-9 * rs.dim, f"max residual = {worst:.3e}"

        items.append(_guarded(f"structure {name}", structural))
        items.append(_guarded(f"route agreement {name}", routes))
        items.append(_guarded(f"key relation {name}", key_relation))

    for n in range(1, 9):

        def barnes(n=n):
            got = special.log_barnesG_integral(float(n)).value
            want = special.barnesG_integer_oracle(n).value
            return abs(got - want) <= 1e-9, f"|diff| = {abs(got - want):.3e}"

        items.append(_guarded(f"Barnes integral vs oracle n={n}", barnes))

    for z in _UNITARY_ZS:

        def unitary(z=z):
            phi = quad.integrate_phi(vogel.VogelPoint(-2.0, 2.0, z), tol).value
            ref = special.phi_unitary_closed_form(z).value
            return abs(phi - ref) <= 1e-7, f"|diff| = {abs(phi - ref):.3e}"

        items.append(_guarded(f"unitary line identity z={z}", unitary))

    items.extend(isomorphism_checks(tol))
    return items
