"""Acceptance battery: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under `pytest -s`); the
assertions carry the same bounds, so a plain pytest run enforces them.
Reports are computed once per session and shared across criteria.
"""

import math

import pytest

from lievol.errors import DivergenceSetError
from lievol.quad import integrate_phi
from lievol.rootsys import Family, SimpleLieType, build_root_system, default_groups, sp, spin, su
from lievol.special import (
    barnesG_integer_oracle,
    log_barnesG_integral,
    phi_unitary_closed_form,
)
from lievol.vogel import (
    VogelPoint,
    dim_from_vogel,
    key_relation_residual,
    spin_row_point,
    vogel_point,
)
from lievol.volume import LOG_VOLUME_BASE, cross_check, volume_macdonald_sun

EXCEPTIONALS = [
    SimpleLieType(Family.G2, 2),
    SimpleLieType(Family.F4, 4),
    SimpleLieType(Family.E6, 6),
    SimpleLieType(Family.E7, 7),
    SimpleLieType(Family.E8, 8),
]

# SU_2..SU_9, Spin_5..Spin_16 (B and D presentations, rank <= 8),
# Sp_2..Sp_16, and all exceptionals
CRITERION_GROUPS = (
    [su(n) for n in range(2, 10)]
    + [spin(n) for n in range(5, 17) if n != 6]
    + [sp(n) for n in range(2, 17, 2)]
    + EXCEPTIONALS
)


def report_line(number, label, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:>2} {label}: {status} ({detail})")
    return passed


@pytest.fixture(scope="module")
def reports():
    return {g.compact_name: cross_check(g) for g in CRITERION_GROUPS}


def test_criterion_1_cross_route_agreement(reports):
    assert len(reports) == 32
    worst = max(
        r.route_discrepancy / max(1.0, abs(r.phi_kp)) for r in reports.values()
    )
    ok = all(r.converged for r in reports.values()) and worst <= 1e-8
    assert report_line(1, "cross-route agreement (32 groups)", ok, f"worst rel {worst:.2e}")


def test_criterion_2_sun_closed_form(reports):
    worst = max(
        abs(reports[f"SU_{n}"].log_volume - volume_macdonald_sun(n))
        for n in range(2, 10)
    )
    ok = worst <= 1e-8
    assert report_line(2, "SU_n factorial closed form", ok, f"worst abs {worst:.2e}")


def test_criterion_3_su2_anchor(reports):
    anchor = 32.0 * math.sqrt(2.0) * math.pi**2
    vol = reports["SU_2"].volume
    rel = abs(vol - anchor) / anchor
    ok = rel <= 1e-9
    assert report_line(3, "SU_2 exact anchor 32*sqrt(2)*pi^2", ok, f"rel err {rel:.2e}")


def test_criterion_4_barnes_continuation():
    worst = 0.0
    for z in (0.5, 1.0, 2.0, 3.0, 5.5, 9.0):
        phi = integrate_phi(VogelPoint(-2.0, 2.0, z)).value
        ref = phi_unitary_closed_form(z).value
        worst = max(worst, abs(phi - ref))
    ok = worst <= 1e-7
    assert report_line(4, "unitary-line continuation identity", ok, f"worst abs {worst:.2e}")


def test_criterion_5_key_relation():
    worst = 0.0
    for lie_type in CRITERION_GROUPS:
        rs = build_root_system(lie_type)
        for x in (0.1, 1.0, 5.0):
            worst = max(worst, abs(key_relation_residual(rs, x)) / rs.dim)
    ok = worst <= 1e-9
    assert report_line(5, "key relation residuals", ok, f"worst per-dim {worst:.2e}")


def test_criterion_6_barnes_vs_oracle():
    worst = max(
        abs(log_barnesG_integral(float(n)).value - barnesG_integer_oracle(n).value)
        for n in range(1, 9)
    )
    ok = worst <= 1e-9
    assert report_line(6, "Barnes integral vs factorial oracle", ok, f"worst abs {worst:.2e}")


def test_criterion_7_projective_permutation_invariance():
    base = integrate_phi(VogelPoint(-2.0, 2.0, 5.0)).value
    worst = 0.0
    perms = [
        (-2.0, 2.0, 5.0),
        (-2.0, 5.0, 2.0),
        (2.0, -2.0, 5.0),
        (2.0, 5.0, -2.0),
        (5.0, -2.0, 2.0),
        (5.0, 2.0, -2.0),
    ]
    for lam in (1.0, 0.5, 3.0):
        for a, b, g in perms:
            value = integrate_phi(VogelPoint(lam * a, lam * b, lam * g)).value
            worst = max(worst, abs(value - base))
    ok = worst <= 1e-9
    assert report_line(7, "projective/permutation invariance", ok, f"worst abs {worst:.2e}")


def test_criterion_8_structural_exactness():
    ok = True
    for lie_type in CRITERION_GROUPS:
        rs = build_root_system(lie_type)
        point = vogel_point(lie_type)
        dim_formula = dim_from_vogel(point)
        ok = ok and sum(rs.exponents) == len(rs.positive_roots)
        ok = ok and abs(dim_formula - rs.dim) < 1e-9
        ok = ok and float(rs.dual_coxeter) == point.t
    assert report_line(8, "structural exactness", ok, f"{len(CRITERION_GROUPS)} groups")


def test_criterion_9_divergence_gate():
    refused = 0
    for triple in ((1.0, 1.0, 1.0), (0.0, 1.0, 1.0)):
        try:
            integrate_phi(VogelPoint(*triple))
        except DivergenceSetError:
            refused += 1
    proceeded = 0
    for g in default_groups(8):
        if integrate_phi(vogel_point(g)).converged:
            proceeded += 1
    ok = refused == 2 and proceeded == len(default_groups(8))
    assert report_line(9, "divergence gate", ok, f"{refused}/2 refused, {proceeded} rows proceed")


def test_criterion_10_isomorphisms(reports):
    d_sp2 = abs(reports["Sp_2"].log_volume - reports["SU_2"].log_volume)
    point = spin_row_point(6)
    dim = round(dim_from_vogel(point))
    lv_spin6 = dim * LOG_VOLUME_BASE - integrate_phi(point).value
    d_spin6 = abs(lv_spin6 - reports["SU_4"].log_volume)
    ok = d_sp2 <= 1e-8 and d_spin6 <= 1e-8
    assert report_line(
        10, "isomorphism volumes", ok, f"Sp_2 diff {d_sp2:.2e}, Spin_6 diff {d_spin6:.2e}"
    )
