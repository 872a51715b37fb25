"""Volume reports: route agreement, closed forms, isomorphism checks."""

import math

import pytest

from lievol.quad import Tolerance
from lievol.rootsys import Family, SimpleLieType, build_root_system, default_groups, spin, su
from lievol.vogel import VogelPoint, key_relation_residual, sinh_product_excess, vogel_point
from lievol.volume import (
    LOG_VOLUME_BASE,
    cross_check,
    isomorphism_checks,
    phi_kp,
    run_check_suite,
    volume_macdonald_sun,
)

SU2_VOLUME = 32.0 * math.sqrt(2.0) * math.pi**2


def test_phi_kp_a1():
    rs = build_root_system(su(2))
    assert phi_kp(rs) == pytest.approx(math.log(math.pi / 2.0), rel=1e-14)


def test_phi_kp_su3_closed_form():
    rs = build_root_system(su(3))
    want = math.log(2.0) - 4.5 * math.log(3.0) + 3.0 * math.log(2.0 * math.pi)
    assert phi_kp(rs) == pytest.approx(want, rel=1e-13)


def test_phi_kp_nonnegative():
    for lie_type in default_groups(4):
        assert phi_kp(build_root_system(lie_type)) >= 0.0


def test_su2_anchor_volume():
    report = cross_check(su(2))
    assert report.dim == 3
    assert report.volume == pytest.approx(SU2_VOLUME, rel=1e-9)
    assert report.log_volume == pytest.approx(
        3.0 * LOG_VOLUME_BASE - math.log(math.pi / 2.0), rel=1e-12
    )


def test_report_arithmetic_invariants():
    report = cross_check(SimpleLieType(Family.F4, 4))
    assert report.log_volume == report.dim * LOG_VOLUME_BASE - report.phi_universal
    assert report.route_discrepancy == abs(report.phi_universal - report.phi_kp)
    assert report.converged


def test_macdonald_values():
    assert volume_macdonald_sun(2) == pytest.approx(math.log(SU2_VOLUME), rel=1e-14)
    want3 = (
        4.0 * math.log(2.0)
        + 4.5 * math.log(3.0)
        + 5.0 * math.log(2.0 * math.pi)
        - math.log(2.0)
    )
    assert volume_macdonald_sun(3) == pytest.approx(want3, rel=1e-14)


def test_macdonald_matches_universal():
    for n in range(2, 6):
        report = cross_check(su(n))
        assert abs(report.log_volume - volume_macdonald_sun(n)) <= 1e-8


def test_implied_covolume_route_independent():
    report = cross_check(su(3))
    factors = math.log(2.0 * math.pi**2) + math.log(math.pi**3)
    via_universal = report.log_volume - factors
    via_product = report.dim * LOG_VOLUME_BASE - report.phi_kp - factors
    assert abs(via_universal - via_product) <= report.route_discrepancy + 1e-15


def test_cross_check_su5():
    report = cross_check(su(5))
    assert report.agreed and report.converged
    assert report.route_discrepancy <= 1e-8
    mac_phi = report.dim * LOG_VOLUME_BASE - volume_macdonald_sun(5)
    assert abs(report.phi_universal - mac_phi) <= 1e-8


def test_cross_check_g2_dimension():
    report = cross_check(SimpleLieType(Family.G2, 2))
    assert report.dim == 14
    assert report.agreed


def test_e8_report():
    report = cross_check(SimpleLieType(Family.E8, 8))
    assert report.dim == 248
    assert report.volume is not None  # log volume ~ 499, still representable
    assert report.route_discrepancy <= 1e-8 * max(1.0, abs(report.phi_kp))


def test_spin_reports_note_double_cover():
    report = cross_check(spin(7))
    assert "double cover" in report.notes
    assert "SO_n" in report.notes


def test_isomorphism_checks_pass():
    for item in isomorphism_checks():
        assert item.passed, item


def test_default_group_order():
    names = [g.compact_name for g in default_groups(4)]
    assert names == [
        "SU_2",
        "SU_3",
        "SU_4",
        "SU_5",
        "Spin_5",
        "Spin_7",
        "Spin_9",
        "Sp_2",
        "Sp_4",
        "Sp_6",
        "Sp_8",
        "Spin_8",
        "G2",
        "F4",
        "E6",
        "E7",
        "E8",
    ]


def test_check_suite_passes_at_low_rank():
    items = run_check_suite(max_rank=2)
    assert items
    failed = [i for i in items if not i.passed]
    assert not failed, failed


def test_key_relation_detects_wrong_dual_coxeter():
    # mutation sanity: a table row with the wrong t breaks the key relation
    rs = build_root_system(SimpleLieType(Family.G2, 2))
    good = vogel_point(rs.lie_type)
    bad = VogelPoint(good.alpha, good.beta, good.gamma, t=5.0)
    root_sum = sinh_product_excess(1.0, good) + key_relation_residual(rs, 1.0)
    assert abs(root_sum - sinh_product_excess(1.0, bad)) > 1e-2


def test_check_suite_reports_injected_fault(monkeypatch):
    import lievol.vogel as vogel_mod

    true_point = vogel_mod.vogel_point

    def corrupted(lie_type):
        point = true_point(lie_type)
        if lie_type.family is Family.G2:
            return VogelPoint(point.alpha, point.beta, point.gamma, t=5.0)
        return point

    monkeypatch.setattr(vogel_mod, "vogel_point", corrupted)
    items = run_check_suite(max_rank=2)
    failed = {i.name for i in items if not i.passed}
    assert "key relation G2" in failed
    assert "structure G2" in failed
    assert all("G2" in name for name in failed)


def test_unconverged_quadrature_flags_report():
    tiny_budget = Tolerance(rel=1e-14, abs=1e-16, max_evaluations=60)
    report = cross_check(su(4), tiny_budget)
    assert not report.converged
    assert not report.agreed
    assert "converge" in report.notes
