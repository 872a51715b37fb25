"""The immutable-record contract of every result and key type."""

import inspect
import re

import pytest

from lievol._record import Record
from lievol.errors import ParameterDomainError, UnsupportedGroupError
from lievol.quad import QuadResult, Tolerance
from lievol.rootsys import (
    Family,
    HeightCounts,
    SimpleLieType,
    height_counts,
    su,
)
from lievol.vogel import VogelPoint
from lievol.volume import CheckItem, VolumeReport

# class, its public fields in constructor order, and two factories: one
# that builds a fresh record with fixed values, one a record that differs
CASES = [
    (Tolerance, ("rel", "abs"),
     lambda: Tolerance(1e-9, 1e-13), lambda: Tolerance(1e-9, 1e-12)),
    (QuadResult, ("value", "error_estimate", "converged", "evaluations", "tail_cutoff"),
     lambda: QuadResult(1.5, 1e-12, True, 135, 64.0),
     lambda: QuadResult(1.5, 1e-12, False, 135, 64.0)),
    (VogelPoint, ("alpha", "beta", "gamma"),
     lambda: VogelPoint(-2.0, 2.0, 3.0), lambda: VogelPoint(-2.0, 2.0, 4.0)),
    (SimpleLieType, ("family", "rank"),
     lambda: SimpleLieType(Family.B, 3), lambda: SimpleLieType(Family.C, 3)),
    (HeightCounts, ("lie_type", "dual_coxeter", "counts", "height_denominator"),
     lambda: height_counts(su(3)), lambda: height_counts(su(4))),
    (VolumeReport, ("group", "dim", "phi_universal", "phi_kp", "log_volume", "volume",
                    "route_discrepancy", "converged", "agreed", "notes"),
     lambda: VolumeReport("SU_2", 3, 1.0, 1.0, 2.0, 7.3, 0.0, True, True, ""),
     lambda: VolumeReport("SU_2", 3, 1.0, 1.0, 2.0, None, 0.0, True, True, "")),
    (CheckItem, ("name", "passed", "detail"),
     lambda: CheckItem("iso", True, "ok"), lambda: CheckItem("iso", False, "ok")),
]
IDS = [case[0].__name__ for case in CASES]


def _values(record, fields):
    return tuple(getattr(record, name) for name in fields)


@pytest.mark.parametrize("cls, fields, make, make_other", CASES, ids=IDS)
def test_equal_values_equal_records_and_hashes(cls, fields, make, make_other):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert cls(*_values(a, fields)) == a  # positional order is the field order
    other = make_other()
    assert a != other and not a == other
    assert len({a, b, other}) == 2


@pytest.mark.parametrize("cls, fields, make, make_other", CASES, ids=IDS)
def test_other_types_never_equal(cls, fields, make, make_other):
    a = make()
    values = _values(a, fields)
    twin_cls = type(cls.__name__, (Record,), {"__annotations__": dict.fromkeys(fields, "object")})
    twin = twin_cls(*values)
    for stranger in (values, list(values), twin):
        assert a != stranger and stranger != a
        assert not a == stranger


@pytest.mark.parametrize("cls, fields, make, make_other", CASES, ids=IDS)
def test_assignment_and_deletion_raise(cls, fields, make, make_other):
    a = make()
    before = _values(a, fields)
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert _values(a, fields) == before


@pytest.mark.parametrize("cls, fields, make, make_other", CASES, ids=IDS)
def test_repr_names_the_fields(cls, fields, make, make_other):
    a = make()
    args = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
    assert repr(a) == f"{cls.__name__}({args})"


def test_constructor_signature_and_class_defaults():
    # the evaluation budget is the engine's, not a tolerance field
    assert str(inspect.signature(Tolerance)) == "(rel=1e-10, abs=1e-12)"
    params = inspect.signature(Tolerance).parameters.values()
    assert [(p.name, p.default) for p in params] == [("rel", 1e-10), ("abs", 1e-12)]
    # the CLI reads the defaults off the class
    assert (Tolerance.rel, Tolerance.abs) == (1e-10, 1e-12)
    assert Tolerance() == Tolerance(rel=1e-10, abs=1e-12)
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'gamma'"):
        VogelPoint(-2.0, 2.0)
    with pytest.raises(TypeError, match="unexpected keyword argument 'relative'"):
        Tolerance(relative=1e-9)
    with pytest.raises(ParameterDomainError):
        Tolerance(rel=0.0)


def test_vogel_point_t_filled_from_sum():
    p = VogelPoint(-2, 2, 5)
    assert p.t == 5.0 and type(p.t) is float
    assert VogelPoint(-2.0, 1.0, 5.0).t == 4.0
    with pytest.raises(TypeError, match="unexpected keyword argument 't'"):
        VogelPoint(-2, 1, 5, t=4)
    assert VogelPoint(-2, 2, 2) != (-2.0, 2.0, 2.0, 2.0)
    with pytest.raises(ParameterDomainError, match="must be nonzero"):
        VogelPoint(1.0, -1.0, 0.0)


@pytest.mark.parametrize(
    "family, rank, message",
    [
        (Family.A, 0, "family A requires integer rank >= 1, got 0"),
        (Family.D, 3, "family D requires integer rank >= 4, got 3"),
        (Family.B, 2.0, "family B requires integer rank >= 2, got 2.0"),
        (Family.E6, 5, "E6 has fixed rank 6, got 5"),
    ],
)
def test_simple_lie_type_rejects_bad_rank(family, rank, message):
    with pytest.raises(UnsupportedGroupError, match=f"^{re.escape(message)}$"):
        SimpleLieType(family, rank)
