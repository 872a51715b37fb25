"""Command-line surface: formats, exit codes, round-trip stability."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lievol.cli import main
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


def test_phi_value(capsys):
    code, out, _ = run_cli(capsys, "phi", "--alpha", "-2", "--beta", "2", "--gamma", "2")
    assert code == 0
    assert "0.4515827" in out


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
            return VogelPoint(point.alpha, point.beta, point.gamma, t=5.0)
        return point

    monkeypatch.setattr(vogel_mod, "vogel_point", corrupted)
    code, out, _ = run_cli(capsys, "check", "--max-rank", "2")
    assert code == 1
    assert any(
        line.startswith("FAIL") and "key relation G2" in line
        for line in out.splitlines()
    )


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
        ("volume --group E8 --n 7", None, 2),
        ("phi --alpha -2 --beta 2 --gamma 1e300", None, 1),
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


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=60, deadline=None)
@given(_ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT)
def test_phi_exit_code_contract_fuzz(alpha, beta, gamma, rel):
    # --name=value, since argparse reads a bare -1e300 as an option
    values = {"alpha": alpha, "beta": beta, "gamma": gamma, "rel": rel}
    code, err = exit_code(["phi"] + [f"--{name}={v!r}" for name, v in values.items()])
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
