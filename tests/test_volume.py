"""Volume reports: route agreement, closed forms, isomorphism checks."""

import math
import tracemalloc
from fractions import Fraction

import pytest

from lievol import volume
from lievol.errors import InvariantViolationError
from lievol.quad import QuadResult, Tolerance
from lievol.rootsys import (
    Family,
    HeightCounts,
    SimpleLieType,
    build_root_system,
    default_groups,
    rho_pairings_killing,
    sp,
    spin,
    su,
)
from lievol.special import phi_unitary_closed_form
from lievol.vogel import VogelPoint, key_relation_residual, sinh_product_excess, vogel_point
from lievol.volume import LOG_VOLUME_BASE, VolumeReport, cross_check, phi_kp, run_check_suite
from roots import forbid_walks

SU2_VOLUME = 32.0 * math.sqrt(2.0) * math.pi**2


def macdonald_log_volume(n):
    """ln Vol(SU_n) from the factorial closed form at the unitary point z = n."""
    return (n * n - 1) * LOG_VOLUME_BASE - phi_unitary_closed_form(n)


def test_phi_kp_a1():
    heights = build_root_system(su(2))
    assert phi_kp(heights) == pytest.approx(math.log(math.pi / 2.0), rel=1e-14)


def test_phi_kp_su3_closed_form():
    heights = build_root_system(su(3))
    want = math.log(2.0) - 4.5 * math.log(3.0) + 3.0 * math.log(2.0 * math.pi)
    assert phi_kp(heights) == pytest.approx(want, rel=1e-13)


def test_phi_kp_nonnegative():
    for lie_type in default_groups(4):
        assert phi_kp(build_root_system(lie_type)) >= 0.0


def test_phi_kp_refuses_a_sinc_factor_out_of_range():
    # a height equal to m = height_denominator / 2 puts sin(pi h/m) at 0
    want = r"^sinc factor out of \(0, 1\] for argument 2/2 of SU_2$"
    with pytest.raises(InvariantViolationError, match=want):
        phi_kp(HeightCounts(su(2), 2, ((2, 1),), 4))


def _phi_kp_from_fractions(lie_type):
    # the product route on exact Fraction pairings, one per root, as it read
    # before the record kept integer heights; fsum rounds the exact sum once,
    # so the order of the pairings does not move a bit
    terms = []
    for pairing in rho_pairings_killing(lie_type):
        s = 2 * pairing
        reduced = s if s <= Fraction(1, 2) else 1 - s
        sin_val = math.sin(math.pi * float(reduced))
        terms.append(math.log(math.pi * float(s)) - math.log(sin_val))
    return math.fsum(terms)


# bit for bit also where many roots share a height, which phi_kp evaluates once
@pytest.mark.parametrize(
    "lie_type", default_groups(12) + [su(25), sp(32), spin(33), spin(34), su(120)], ids=str
)
def test_phi_kp_matches_fraction_reference(lie_type):
    assert phi_kp(build_root_system(lie_type)) == _phi_kp_from_fractions(lie_type)


@pytest.mark.parametrize("lie_type", [su(60), sp(60), spin(61)], ids=str)
def test_large_rank_routes_agree(lie_type):
    # SU_60 also runs the factorial route
    report = cross_check(lie_type)
    assert report.converged, report.notes
    assert report.agreed, report.notes


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
    assert macdonald_log_volume(2) == pytest.approx(math.log(SU2_VOLUME), rel=1e-14)
    want3 = (
        4.0 * math.log(2.0)
        + 4.5 * math.log(3.0)
        + 5.0 * math.log(2.0 * math.pi)
        - math.log(2.0)
    )
    assert macdonald_log_volume(3) == pytest.approx(want3, rel=1e-14)


def test_macdonald_matches_universal():
    for n in range(2, 6):
        report = cross_check(su(n))
        assert abs(report.log_volume - macdonald_log_volume(n)) <= 1e-8


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
    mac_phi = report.dim * LOG_VOLUME_BASE - macdonald_log_volume(5)
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
    # at max rank 0 only the exceptionals are groups of the suite, so the
    # SU_2, Sp_2 and SU_4 reports are made for these two items alone
    items = [i for i in run_check_suite(max_rank=0) if i.name.startswith("iso ")]
    assert [i.name for i in items] == ["iso Sp_2 = SU_2", "iso Spin_6 = SU_4"]
    for item in items:
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
    g2 = SimpleLieType(Family.G2, 2)
    good = vogel_point(g2)
    bad = VogelPoint(good.alpha, good.beta, good.gamma + 1.0)
    heights = build_root_system(g2)
    root_sum = sinh_product_excess(1.0, good) + key_relation_residual(heights, 1.0)
    assert abs(root_sum - sinh_product_excess(1.0, bad)) > 1e-2


def _corrupt_g2_row(monkeypatch, change):
    # the G2 table row goes through `change`; every other row stays true
    import lievol.vogel as vogel_mod

    true_point = vogel_mod.vogel_point

    def corrupted(lie_type):
        point = true_point(lie_type)
        return change(point) if lie_type.family is Family.G2 else point

    monkeypatch.setattr(vogel_mod, "vogel_point", corrupted)


def test_check_suite_reports_injected_fault(monkeypatch):
    _corrupt_g2_row(monkeypatch, lambda p: VogelPoint(p.alpha, p.beta, p.gamma + 1.0))
    items = run_check_suite(max_rank=2)
    failed = {i.name: i.detail for i in items if not i.passed}
    assert list(failed) == ["structure G2", "route agreement G2", "key relation G2"]
    for name in ("structure G2", "route agreement G2"):
        assert failed[name].startswith("error: G2: dimension formula gave non-integer 20.727")
    assert failed["key relation G2"].startswith("max residual = ")
    assert float(failed["key relation G2"].split("= ")[1]) > 1.0


def test_check_suite_reports_rescaled_row(monkeypatch):
    # a rescaled row is the same projective point, so the key relation still
    # holds; only its sum no longer equals the dual Coxeter number
    _corrupt_g2_row(monkeypatch, lambda p: VogelPoint(*(1.25 * q for q in p.params)))
    items = {i.name: i for i in run_check_suite(max_rank=2)}
    failed = {name: i.detail for name, i in items.items() if not i.passed}
    assert failed == {
        "structure G2": "error: G2: h_vee 4 != table t 5.0",
        "route agreement G2": "error: G2: h_vee 4 != table t 5.0",
    }
    assert items["key relation G2"].passed


def test_exceptional_dimension_guard(monkeypatch):
    # each exceptional group is held to its known dimension, in a report and
    # in `check`'s structure item
    monkeypatch.setitem(volume._EXCEPTIONAL_DIM, Family.G2, 15)
    with pytest.raises(InvariantViolationError, match="^G2: dim 14, expected 15$"):
        cross_check(SimpleLieType(Family.G2, 2))
    failed = {i.name: i.detail for i in run_check_suite(max_rank=1) if not i.passed}
    assert failed == {
        "structure G2": "error: G2: dim 14, expected 15",
        "route agreement G2": "error: G2: dim 14, expected 15",
    }


def test_unconverged_quadrature_flags_report(monkeypatch):
    import lievol.quad as quad_mod

    monkeypatch.setattr(quad_mod, "_MAX_EVALUATIONS", 60)
    report = cross_check(su(4), Tolerance(rel=1e-14, abs=1e-16))
    assert not report.converged
    assert not report.agreed
    assert "converge" in report.notes


def _quad(converged):
    return QuadResult(1.5, 1e-12, converged, 135, 64.0)


def _report(converged):
    return VolumeReport("SU_2", 3, 1.0, 1.0, 2.0, 7.3, 0.0, converged, True, "")


@pytest.mark.parametrize(
    "passed, results, expected",
    [
        (True, [_quad(True)], (True, "d")),
        (False, [_report(True), _report(True)], (False, "d")),
        (True, [_quad(False)], (False, "d; quadrature did not converge")),
        (True, [_report(True), _report(False)], (False, "d; quadrature did not converge")),
        (False, [_quad(False)], (False, "d; quadrature did not converge")),
    ],
    ids=["converged", "converged-fail", "quad-unconverged", "one-report-unconverged",
         "fail-and-unconverged"],
)
def test_unless_unconverged(passed, results, expected):
    # a check item fails with the note once if any integral it reads, a
    # QuadResult or a VolumeReport, did not converge; else it keeps its verdict
    assert volume._unless_unconverged(passed, "d", *results) == expected


@pytest.mark.parametrize(
    "route, notes",
    [
        ("factorial", "universal vs factorial routes differ by 1.000e+00; "
                      "product vs factorial routes differ by 1.000e+00"),
        ("product", "universal vs product routes differ by 1.000e+00; "
                    "product vs factorial routes differ by 1.000e+00"),
    ],
)
def test_report_notes_every_disagreeing_route_pair(monkeypatch, route, notes):
    # one route of SU_3 moved by 1 disagrees with both others, in report order
    import lievol.special as special_mod
    import lievol.volume as volume_mod

    module, name = {
        "factorial": (special_mod, "phi_unitary_closed_form"), "product": (volume_mod, "phi_kp")
    }[route]
    true_route = getattr(module, name)
    monkeypatch.setattr(module, name, lambda arg: true_route(arg) + 1.0)
    report = cross_check(su(3))
    assert report.notes == notes
    assert not report.agreed


def test_check_suite_reports_faulty_build(monkeypatch):
    # one exponent too many for G2 makes its build raise: its structure item
    # fails with the walk's error, and the items that read the height counts,
    # which read no exponent of G2, pass
    import lievol.rootsys as rootsys_mod

    true_exponents = rootsys_mod.exponents

    def corrupted(lie_type):
        exps = true_exponents(lie_type)
        return exps + (7,) if lie_type.family is Family.G2 else exps

    monkeypatch.setattr(rootsys_mod, "exponents", corrupted)
    with pytest.raises(InvariantViolationError) as err:
        build_root_system(SimpleLieType(Family.G2, 2))
    items = run_check_suite(max_rank=2)
    failed = [i for i in items if not i.passed]
    assert [(i.name, i.detail) for i in failed] == [("structure G2", f"error: {err.value}")]


def test_check_suite_fails_every_member_of_a_chain_whose_walk_raises(monkeypatch):
    # one exponent too few for SU_4, the top of the A chain at max rank 3,
    # makes its walk raise past its root limit: the structure items of
    # SU_2, SU_3 and SU_4, all read off that walk, fail with that error, and
    # no other item does
    import lievol.rootsys as rootsys_mod

    true_exponents = rootsys_mod.exponents

    def corrupted(lie_type):
        exps = true_exponents(lie_type)
        return exps[:-1] if lie_type == su(4) else exps

    monkeypatch.setattr(rootsys_mod, "exponents", corrupted)
    with pytest.raises(InvariantViolationError, match="^SU_4: more than 3 positive roots") as err:
        build_root_system(su(4))
    items = run_check_suite(max_rank=3)
    failed = {i.name: i.detail for i in items if not i.passed}
    assert failed == {f"structure SU_{n}": f"error: {err.value}" for n in (2, 3, 4)}


def test_check_suite_fails_only_the_member_whose_own_check_fails(monkeypatch):
    # one exponent too many for SU_3, below the top SU_4: the walk passes,
    # and SU_3's three roots miss its exponent sum; only its structure item
    # fails, with the error its own walk raises
    import lievol.rootsys as rootsys_mod

    true_exponents = rootsys_mod.exponents

    def corrupted(lie_type):
        exps = true_exponents(lie_type)
        return exps + (3,) if lie_type == su(3) else exps

    monkeypatch.setattr(rootsys_mod, "exponents", corrupted)
    message = "^SU_3: 3 positive roots but exponent sum 6$"
    with pytest.raises(InvariantViolationError, match=message) as err:
        build_root_system(su(3))
    items = run_check_suite(max_rank=3)
    failed = {i.name: i.detail for i in items if not i.passed}
    assert failed == {"structure SU_3": f"error: {err.value}"}


def _traced_peak(fn):
    """The tracemalloc peak while fn() runs, above what is traced at its start."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_check_suite_memory_stays_near_one_walk():
    # The suite keeps each group's walk as its HeightCounts, whose size is
    # O(rank), so its peak is about its largest walk's, not every root of
    # every group's. At max rank 32 the largest walk (Sp_64, Spin_65) peaks
    # at 0.47 MB and the suite at 2.5-2.7 times that under Python 3.11-3.13;
    # when the suite kept each group's roots it peaked at 6.3-6.6 times.
    max_rank = 32
    run_check_suite(max_rank=2)  # first-use imports and tables are not the suite's
    largest = (su(max_rank + 1), sp(2 * max_rank), spin(2 * max_rank + 1), spin(2 * max_rank))
    walk = max(_traced_peak(lambda: build_root_system(g)) for g in largest)
    suite = _traced_peak(lambda: run_check_suite(max_rank=max_rank))
    assert suite <= 4 * walk, (suite, walk)


@pytest.mark.parametrize("max_rank, walks, integrals", [(2, 6, 16), (0, 3, 14)])
def test_check_suite_makes_each_root_system_once(monkeypatch, max_rank, walks, integrals):
    # max rank 2 has ten groups in six Dynkin chains, each walked once at
    # its top: A_2, B_2, C_2, G2, F4 and E8 (for E6 and E7 too); max rank 0
    # has the five exceptionals in three. The SU_2, Sp_2 and SU_4 reports of
    # the isomorphism items read closed-form counts and walk nothing. Each
    # distinct point is one phi integral: each group's report, the six
    # unitary-line points less those at z = 2 and 3 (SU_2's and SU_3's
    # rows), and the Spin_6 row
    import lievol.quad as quad_mod
    import lievol.rootsys as rootsys_mod

    calls = {"walk": [], "phi": 0}
    walk, integrate_phi = rootsys_mod._positive_roots, quad_mod.integrate_phi

    def counted_walk(lie_type, *args):
        calls["walk"].append(lie_type.compact_name)
        return walk(lie_type, *args)

    def counted_phi(*args, **kwargs):
        calls["phi"] += 1
        return integrate_phi(*args, **kwargs)

    monkeypatch.setattr(rootsys_mod, "_positive_roots", counted_walk)
    monkeypatch.setattr(quad_mod, "integrate_phi", counted_phi)
    items = run_check_suite(max_rank=max_rank)
    assert all(i.passed for i in items)
    assert len(calls["walk"]) == walks and len(set(calls["walk"])) == walks
    assert calls["walk"][-3:] == ["G2", "F4", "E8"]
    assert calls["phi"] == integrals


def test_check_suite_computes_each_thing_once(monkeypatch):
    # max rank 8 has 33 groups: one table point each, built once and shared
    # by its structure, route and key-relation items; 37 distinct phi points
    # (the 33 rows, the unitary line at z = 0.5, 1 and 5.5, and the Spin_6
    # row: z = 2, 3 and 9 are SU_2's, SU_3's and SU_9's rows), each with
    # one dimension and one integral; and no Python-level hash of a Family
    import enum

    import lievol.quad as quad_mod
    import lievol.vogel as vogel_mod

    calls = {"dim": 0, "phi": 0, "Family.__hash__": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    enum_hash = enum.Enum.__hash__

    def family_hash(self):
        calls["Family.__hash__"] += isinstance(self, Family)
        return enum_hash(self)

    monkeypatch.setattr(enum.Enum, "__hash__", family_hash)
    monkeypatch.setattr(vogel_mod, "_dimension", counted("dim", vogel_mod._dimension))
    monkeypatch.setattr(quad_mod, "integrate_phi", counted("phi", quad_mod.integrate_phi))
    vogel_point.cache_clear()
    items = run_check_suite(max_rank=8)
    assert all(i.passed for i in items) and len(items) == 115
    assert vogel_point.cache_info().misses == 33
    assert calls == {"dim": 37, "phi": 37, "Family.__hash__": 0}
    assert vogel_point(su(9)) is vogel_point(su(9))


def test_check_suite_fails_every_structure_item_on_an_error_of_the_walks(monkeypatch):
    # an error other than InvariantViolationError inside rootsys.walk_groups
    # is no crash: every structure item fails with it, and no other item
    import lievol.rootsys as rootsys_mod

    def broken(lie_type, *args):
        raise ValueError(f"walk of {lie_type} broke")

    monkeypatch.setattr(rootsys_mod, "_positive_roots", broken)
    failed = {i.name: i.detail for i in run_check_suite(max_rank=2) if not i.passed}
    assert failed == {
        f"structure {g.compact_name}": "error: walk of SU_3 broke" for g in default_groups(2)
    }


def test_cross_check_reads_counts_on_every_type(monkeypatch):
    # every report reads the height counts and walks nothing
    forbid_walks(monkeypatch)
    groups = default_groups(6) + [su(257), sp(512), spin(513), spin(512)]
    for lie_type in groups:
        report = cross_check(lie_type)
        assert report.agreed, (lie_type, report.notes)


def test_check_suite_reports_wrong_height_count(monkeypatch):
    # one count of SU_3 off by one: its structure item fails against the
    # walk, and the suite goes on to every other item
    import lievol.rootsys as rootsys_mod

    true_counts = rootsys_mod.height_counts

    def off_by_one(lie_type):
        record = true_counts(lie_type)
        if lie_type != su(3):
            return record
        (h, c), *rest = record.counts
        return rootsys_mod.HeightCounts(
            lie_type, record.dual_coxeter, ((h, c + 1), *rest), record.height_denominator
        )

    good = run_check_suite(max_rank=3)
    monkeypatch.setattr(rootsys_mod, "height_counts", off_by_one)
    items = run_check_suite(max_rank=3)
    assert [i.name for i in items] == [i.name for i in good]
    failed = {i.name: i.detail for i in items if not i.passed}
    assert failed["structure SU_3"] == (
        "error: SU_3: height counts, m or h_vee differ from the walk's"
    )
    assert failed["route agreement SU_3"] == "error: SU_3: root count dim 10 != formula dim 8.0"
    assert set(failed) == {"structure SU_3", "route agreement SU_3", "key relation SU_3"}
    assert {i.name: i.detail for i in items if "SU_3" not in i.name} == {
        i.name: i.detail for i in good if "SU_3" not in i.name
    }
