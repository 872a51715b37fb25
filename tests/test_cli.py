"""Command-line surface: formats, exit codes, round-trip stability."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_imports
from lievol.cli import _COMMANDS, _build_parser, _parse, main
from lievol.rootsys import Family
from lievol.vogel import VogelPoint


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_volume_json_su2(capsys):
    code, out, _ = run_cli(capsys, "volume", "--group", "SU", "--n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "group",
        "dim",
        "phi_universal",
        "phi_kp",
        "log_volume",
        "volume",
        "route_discrepancy",
        "converged",
        "notes",
    ]
    assert payload["group"] == "SU_2"
    assert payload["dim"] == 3
    want = math.log(32.0 * math.sqrt(2.0) * math.pi**2)
    assert payload["log_volume"] == pytest.approx(want, rel=1e-10)
    assert payload["converged"] is True


def test_volume_json_round_trip_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "volume", "--group", "E8", "--format", "json")
    assert code == 0
    line = out.strip()
    assert json.dumps(json.loads(line)) == line
    payload = json.loads(line)
    assert payload["dim"] == 248
    assert payload["route_discrepancy"] <= 1e-8 * max(1.0, abs(payload["phi_kp"]))


def test_volume_usage_error_for_d3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--group", "D", "--n", "3"])
    assert exc.value.code == 2


def test_volume_usage_error_odd_symplectic(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--group", "Sp", "--n", "5"])
    assert exc.value.code == 2


def test_volume_text_format(capsys):
    code, out, _ = run_cli(capsys, "volume", "--group", "Spin", "--n", "7")
    assert code == 0
    assert "Spin_7" in out
    assert "double cover" in out


def test_volume_csv_row_matches_table(capsys):
    code, out, _ = run_cli(capsys, "volume", "--group", "SU", "--n", "3", "--format", "csv")
    assert code == 0
    header, row = out.strip().splitlines()
    code, table, _ = run_cli(capsys, "table", "--max-rank", "2", "--format", "csv")
    assert code == 0
    lines = table.strip().splitlines()
    assert lines[0] == header
    assert [line for line in lines if line.startswith("SU_3,")] == [row]


@pytest.mark.parametrize(
    "group, message",
    [("SU", "--group SU requires --n"), ("A", "--group A requires --n (the rank)")],
)
def test_volume_classical_group_needs_n(capsys, group, message):
    with pytest.raises(SystemExit) as exc:
        main(["volume", "--group", group])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_volume_text_outside_double_range(capsys):
    code, out, _ = run_cli(capsys, "volume", "--group", "SU", "--n", "26")
    assert code == 0
    lines = out.splitlines()
    assert float(lines[4].split()[-1]) == pytest.approx(1360.7, abs=0.05)
    assert lines[5] == "volume             (outside double range)"


# SU_2's phi, ln(pi/2) to the last bit, and its point (-2, 2, 2) rescaled
# across the double range: phi reads only the ratios of the triple. At 5e307
# 4t overflows, at 1e308 2t does too
_SU2_PHI = 0.45158270528945527
_SU2_TRIPLES = [("-2", "2", "2")] + [
    (f"-{s}", s, s) for s in ("1e-300", "1e-120", "1", "1e120", "1e300", "5e307", "1e308")
]


def test_phi_value(capsys):
    for alpha, beta, gamma in _SU2_TRIPLES:
        argv = ("phi", f"--alpha={alpha}", f"--beta={beta}", f"--gamma={gamma}")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert "0.4515827" in out, argv
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, argv
        payload = json.loads(out)
        assert abs(payload["phi"] - _SU2_PHI) <= 2e-15 * _SU2_PHI, argv
        assert payload["dim"] == pytest.approx(3.0, rel=1e-15), argv


def test_phi_zero_point(capsys):
    code, out, _ = run_cli(
        capsys, "phi", "--alpha", "-2", "--beta", "2", "--gamma", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["phi"] == 0.0


@pytest.mark.parametrize("triple", [("1", "1", "1"), ("0", "1", "1")])
def test_phi_divergence_refusal(capsys, triple):
    a, b, g = triple
    code, out, err = run_cli(capsys, "phi", "--alpha", a, "--beta", b, "--gamma", g)
    assert code == 3
    assert "diverges" in err


def test_phi_t_zero_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["phi", "--alpha", "1", "--beta", "1", "--gamma", "-2"])
    assert exc.value.code == 2


def test_scan_unitary_line(capsys):
    code, out, _ = run_cli(capsys, "scan", "--from", "1", "--to", "4", "--step", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma,phi,reference,residual"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[1]) == 0.0
    for line in lines[1:]:
        residual = float(line.split(",")[3])
        assert residual <= 1e-7


@pytest.mark.parametrize("alpha, beta", [("-1", "1"), ("-4", "4"), ("4", "-4")])
def test_scan_rescaled_unitary_line(capsys, alpha, beta):
    # (alpha, -alpha, gamma) is the unitary point (-2, 2, 2 gamma / |alpha|)
    argv = ("scan", "--from", "1.5", "--to", "3", "--step", "1.5")
    code, out, _ = run_cli(capsys, *argv, f"--alpha={alpha}", f"--beta={beta}")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 2
    for row in rows:
        assert float(row[3]) <= 1e-9, row


@pytest.mark.parametrize("alpha, beta", [("-2", "2"), ("4", "-4")])
def test_scan_unitary_line_both_signs_of_gamma(capsys, alpha, beta):
    # (alpha, -alpha, -gamma) is (alpha, -alpha, gamma) scaled by -1 with alpha
    # and beta swapped, so every gamma != 0 has a reference
    argv = ("scan", "--from=-3", "--to", "3", "--step", "1.5")
    code, out, _ = run_cli(capsys, *argv, f"--alpha={alpha}", f"--beta={beta}")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [float(row[0]) for row in rows] == [-3.0, -1.5, 0.0, 1.5, 3.0]
    assert rows[2][1:] == ["", "", "undefined"]
    for row in rows[:2] + rows[3:]:
        assert float(row[3]) <= 1e-9, row


def test_scan_exits_1_on_unconverged_row(capsys):
    argv = ("--alpha", "-2", "--beta", "1", "--rel", "1e-15", "--abs", "1e-300")
    code, out, _ = run_cli(capsys, "phi", "--gamma", "1.0001", *argv)
    assert code == 1
    assert out.splitlines()[-1] == "converged          False"
    scan = ("scan", "--from", "1.0001", "--to", "1.0001", "--step", "1")
    code, out, _ = run_cli(capsys, *scan, *argv)
    assert code == 1
    # the row is still printed
    assert out.splitlines()[1].startswith("1.0001,-3.11534866")


def test_scan_crossing_divergence_region(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--from", "-1", "--to", "1", "--step", "0.5",
        "--alpha", "1", "--beta", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    markers = [line for line in lines if line.endswith(",diverges")]
    assert markers  # gamma >= 0 rows sit inside the divergence set
    for line in markers:
        assert line.split(",")[1] == ""  # phi column empty


def test_scan_t_zero_marked_undefined(capsys):
    code, out, _ = run_cli(capsys, "scan", "--from", "0", "--to", "0", "--step", "1")
    assert code == 0
    assert out.strip().splitlines()[1].endswith(",undefined")


def test_scan_rejects_bad_step(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--from", "1", "--to", "2", "--step", "0"])
    assert exc.value.code == 2


def test_table_csv_contains_su4(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-rank", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("group,alpha,beta,gamma,t,dim")
    su4 = next(line for line in lines if line.startswith("SU_4,"))
    fields = su4.split(",")
    assert [float(fields[1]), float(fields[2]), float(fields[3])] == [-2.0, 2.0, 4.0]
    assert float(fields[4]) == 4.0
    assert int(fields[5]) == 15


def test_table_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-rank", "2", "--format", "json")
    assert code == 0
    line = out.strip()
    assert json.dumps(json.loads(line)) == line


def test_check_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--max-rank", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_check_detects_injected_fault(capsys, monkeypatch):
    import lievol.vogel as vogel_mod

    true_point = vogel_mod.vogel_point

    def corrupted(lie_type):
        point = true_point(lie_type)
        if lie_type.family is Family.G2:
            return VogelPoint(point.alpha, point.beta, point.gamma + 1.0)
        return point

    monkeypatch.setattr(vogel_mod, "vogel_point", corrupted)
    code, out, _ = run_cli(capsys, "check", "--max-rank", "2")
    assert code == 1
    lines = out.splitlines()
    failed = [line for line in lines if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in failed] == [
        "FAIL  structure G2", "FAIL  route agreement G2", "FAIL  key relation G2"
    ]
    assert "dimension formula gave non-integer 20.727" in failed[0]
    assert failed[2].startswith("FAIL  key relation G2: max residual = ")
    assert lines[-1] == f"{len(lines) - 4}/{len(lines) - 1} checks passed"


def test_env_var_overrides_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("LIEVOL_TOL", "1e-6")
    code, out, _ = run_cli(
        capsys, "phi", "--alpha", "-2", "--beta", "2", "--gamma", "5", "--format", "json"
    )
    assert code == 0
    loose = json.loads(out)
    monkeypatch.delenv("LIEVOL_TOL")
    code, out, _ = run_cli(
        capsys, "phi", "--alpha", "-2", "--beta", "2", "--gamma", "5", "--format", "json"
    )
    tight = json.loads(out)
    assert loose["phi"] == pytest.approx(tight["phi"], rel=1e-6)
    assert loose["error_estimate"] >= tight["error_estimate"]


def test_rel_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "volume", "--group", "SU", "--n", "3", "--format", "json", "--rel", "1e-9",
    )
    assert code == 0
    assert json.loads(out)["converged"] is True


def exit_code(argv):
    """Exit code and stderr of one in-process run; any uncaught exception fails the test."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize(
    "argv, env_tol, want",
    [
        ("volume --group SU --n 3 --rel nan", None, 2),
        ("volume --group SU --n 3 --rel inf", None, 2),
        ("phi --alpha nan --beta 2 --gamma 3", None, 2),
        ("phi --alpha -2 --beta inf --gamma 3", None, 2),
        ("scan --from 0.5 --to 2 --step nan", None, 2),
        ("scan --from 0.5 --to 2 --step inf", None, 2),
        ("scan --from 0.5 --to inf --step 0.5", None, 2),
        ("scan --from=-1e308 --to 1e308 --step 1", None, 2),
        ("volume --group SU --n 3", "abc", 2),
        # rel is capped at 1; a huge rel let the route agreement bound overflow to inf
        ("volume --group SU --n 3 --rel 1e308", None, 2),
        ("volume --group SU --n 3 --rel 2", None, 2),
        ("volume --group SU --n 3", "1e308", 2),
        # rel below double resolution ran the quadrature to its evaluation budget
        ("volume --group SU --n 3 --rel 1e-16 --abs 1e-300", None, 2),
        ("volume --group SU --n 3", "1e-16", 2),
        ("scan --from 0 --to 1e300 --step 1", None, 2),
        # a reversed range that overflows to -inf is empty, not an error
        ("scan --from 1e308 --to=-1e308 --step 1", None, 0),
        ("volume --group E8 --n 7", None, 2),
        ("phi --alpha -2 --beta 2 --gamma 1e300", None, 1),
        # the start scale 8|t|/|s| (here s = alpha) is inf, and 0: no decay length in double range
        ("phi --alpha=-1e-300 --beta 1e10 --gamma 1", None, 2),
        ("phi --alpha=-1e300 --beta 1e300 --gamma 1e-300", None, 2),
        # math.exp overflow inside the integrand, found by the fuzz test below
        ("phi --alpha 1770660 --beta 1770660 --gamma=-5.417501321893715e-10 --rel 1", None, 1),
        ("phi --alpha 1 --beta 1 --gamma 1", None, 3),
    ],
)
def test_bad_input_exit_codes(monkeypatch, argv, env_tol, want):
    monkeypatch.delenv("LIEVOL_TOL", raising=False)
    if env_tol is not None:
        monkeypatch.setenv("LIEVOL_TOL", env_tol)
    code, err = exit_code(argv.split())
    assert code == want, err
    assert "Traceback" not in err
    assert err.count("\n") <= 2  # usage line and one message, or the message alone


@pytest.mark.parametrize("abs_tol", ["1e-300", "5e-324"])
def test_tiny_abs_gives_default_phi(capsys, abs_tol):
    # the tail doubling reaches x = 768, where expm1(x) overflows
    argv = ("phi", "--alpha", "-2", "--beta", "2", "--gamma", "0.5", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, tiny, _ = run_cli(capsys, *argv, "--abs", abs_tol)
    assert code == 0
    assert json.loads(tiny)["phi"] == json.loads(out)["phi"]


def test_check_passes_at_tiny_abs(capsys):
    code, out, _ = run_cli(capsys, "check", "--max-rank", "5", "--rel", "1e-15", "--abs", "5e-324")
    assert code == 0
    assert out.splitlines()[-1] == "79/79 checks passed"


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=60, deadline=None)
@given(_ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT)
def test_phi_exit_code_contract_fuzz(alpha, beta, gamma, rel):
    # --name=value, since argparse reads a bare -1e300 as an option
    values = {"alpha": alpha, "beta": beta, "gamma": gamma, "rel": rel}
    code, err = exit_code(["phi"] + [f"--{name}={v!r}" for name, v in values.items()])
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err


# The second strategy of each pair keeps about half the examples in range.
_FUZZ_REL = st.one_of(_ANY_FLOAT, st.floats(1e-15, 1.0))
_FUZZ_ABS = st.one_of(
    _ANY_FLOAT, st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
)


def _valid_tolerance(rel, abs_tol):
    return 1e-15 <= rel <= 1.0 and 0.0 < abs_tol < math.inf


@settings(max_examples=60, deadline=None)
@given(_FUZZ_REL, _FUZZ_ABS)
def test_volume_exit_code_contract_fuzz(rel, abs_tol):
    argv = ["volume", "--group", "SU", "--n", "3", "--format", "json"]
    code, err = exit_code(argv + [f"--rel={rel!r}", f"--abs={abs_tol!r}"])
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    if not _valid_tolerance(rel, abs_tol):
        assert code == 2, err


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["table", "check"]), st.integers(-2, 5), _FUZZ_REL, _FUZZ_ABS)
def test_table_check_exit_code_contract_fuzz(command, max_rank, rel, abs_tol):
    argv = [command, f"--max-rank={max_rank}", f"--rel={rel!r}", f"--abs={abs_tol!r}"]
    code, err = exit_code(argv)
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    if not _valid_tolerance(rel, abs_tol):
        assert code == 2, err


# Half the examples are drawn wholly in range: a few rows from both sides
# of 0, on the unitary line or off it.
_SCAN_IN_RANGE = st.tuples(
    st.floats(-2.0, 4.0),
    st.floats(-2.0, 4.0),
    st.floats(1.0, 4.0),
    st.sampled_from([-2.0, 2.0, 4.0]),
    st.sampled_from([-2.0, 2.0, 4.0]),
    st.floats(1e-15, 1.0),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
_SCAN_ANY = st.tuples(*[_ANY_FLOAT] * 5, _FUZZ_REL, _FUZZ_ABS)


@settings(max_examples=40, deadline=None)
@given(st.one_of(_SCAN_IN_RANGE, _SCAN_ANY))
def test_scan_exit_code_contract_fuzz(values):
    names = ("from", "to", "step", "alpha", "beta", "rel", "abs")
    code, err = exit_code(["scan"] + [f"--{name}={v!r}" for name, v in zip(names, values)])
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
    *bounds, rel, abs_tol = values
    if not (all(map(math.isfinite, bounds)) and _valid_tolerance(rel, abs_tol)):
        assert code == 2, err


# _parse reads well-formed command lines from the option table without
# argparse; argparse is the reference for every namespace it returns.
_NOISE = st.sampled_from(["-h", "--help", "--", "--bogus", "-x", "-", "extra", "--n", "3"])
_TYPED = {
    float: ["-2", "-.5", "-2.", "-1e-300", "nan", "-inf", "1_0", "-5\n", "0.25", "1e30", "-0"],
    int: ["-2", "1_0", "3", "-5\n", "-0", "12"],
}
_ANY_VALUE = st.sampled_from(
    sorted({v for values in _TYPED.values() for v in values})
    + ["", "x", "SU", "E8", "X", "text", "json", "csv", "-h", "--", "--n", "x=1", "-5 "]
)


@st.composite
def _argvs(draw):
    """A command and its options, mostly well typed, in any order and either
    spelling; about half with one value, flag or token spoiled."""
    command = draw(st.sampled_from([*_COMMANDS, "bogus", "-h"]))
    options = _COMMANDS[command][2] if command in _COMMANDS else ()
    pairs = []
    for flag, spec in options:
        if draw(st.integers(0, 7)) < (7 if spec["required"] else 4):
            good = spec["choices"] or _TYPED[spec["type"]]
            value = draw(st.sampled_from(good) if draw(st.integers(0, 9)) else _ANY_VALUE)
            pairs.append((flag, value))
    pairs = draw(st.permutations(pairs))
    spoil = draw(st.integers(0, 5))
    if spoil == 1 and options:  # a repeated option
        pairs.append((draw(st.sampled_from(options))[0], draw(_ANY_VALUE)))
    elif spoil == 2 and pairs:  # an abbreviation, or "--" for "--n"
        flag, value = pairs.pop()
        pairs.append((flag[:-1], value))
    argv = [command]
    for flag, value in pairs:
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if spoil == 3:  # a stray token anywhere
        argv.insert(draw(st.integers(1, len(argv))), draw(_NOISE))
    return argv


def _fields(args):
    return {name: repr(value) for name, value in vars(args).items()}  # nan equals nan


def _argparse(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return _build_parser().parse_args(argv)


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_parse_agrees_with_argparse(argv):
    args = _parse(argv)
    if args is not None:
        assert _fields(args) == _fields(_argparse(argv))


@pytest.mark.parametrize("argv", test_imports.COMMANDS, ids=" ".join)
def test_plain_commands_skip_argparse(argv):
    args = _parse(argv)
    assert args is not None
    assert _fields(args) == _fields(_argparse(argv))
