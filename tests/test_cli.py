"""Command-line surface: formats, exit codes, round-trip stability."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lievol
import test_imports
from lievol import quad, rootsys, special
from lievol.cli import _COMMANDS, _build_parser, _parse, main
from lievol.rootsys import Family
from lievol.vogel import VogelPoint
from roots import forbid_walks


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


@pytest.mark.parametrize("start, stop, step, count", [
    ("300.5", "1000.5", "350", 3),  # Barnes' series at large z
    ("65536", "65537", "1", 2),  # integers far past the oracle's range
])
def test_scan_unitary_line_far_out(capsys, start, stop, step, count):
    code, out, _ = run_cli(capsys, "scan", "--from", start, "--to", stop, "--step", step)
    assert code == 0
    rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
    assert len(rows) == count
    for _, phi, _, residual in rows:
        assert residual <= 1e-13 * phi


def test_scan_unitary_line_at_huge_integer_gamma(capsys, monkeypatch):
    # the reference at an integer gamma >= 8 comes from Barnes' series; the
    # factorial oracle would sum gamma logs (~15 ms at 65536, 1e10 at 1e10)
    def no_oracle(n):
        raise AssertionError(f"oracle called at n = {n}")

    monkeypatch.setattr(special, "barnesG_integer_oracle", no_oracle)
    for gamma in ("8", "65536", "1e10"):
        code, out, _ = run_cli(capsys, "scan", "--from", gamma, "--to", gamma, "--step", "1")
        assert code == 0, gamma
        row = [float(v) for v in out.splitlines()[1].split(",")]
        assert row[0] == float(gamma) and row[3] <= 1e-12 * row[1], row


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


@pytest.fixture
def unconverged_barnes(monkeypatch):
    # every Barnes quadrature keeps its value and estimate but reports that
    # it did not converge
    def unconverged(*args, **kwargs):
        qr = quad.integrate_semiinfinite(*args, **kwargs)
        return quad.QuadResult(qr.value, qr.error_estimate, False, qr.evaluations, qr.tail_cutoff)

    monkeypatch.setattr(special, "integrate_semiinfinite", unconverged)


def test_scan_prints_every_row_past_an_unconverged_reference(capsys, monkeypatch):
    # the references are sums: with every Barnes quadrature raising, a unitary
    # scan still prints each row's reference and exits 0
    def refuse(*args, **kwargs):
        raise AssertionError("Barnes quadrature was called")

    monkeypatch.setattr(special, "integrate_semiinfinite", refuse)
    code, out, err = run_cli(capsys, "scan", "--from", "0.5", "--to", "2.5", "--step", "0.5")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    # z = 1 and 2 read the oracle, the other rows the series
    assert [float(row[0]) for row in rows] == [0.5, 1.0, 1.5, 2.0, 2.5]
    for row in rows:
        assert float(row[3]) <= 1e-9, row


def test_check_fails_an_unconverged_reference(capsys, unconverged_barnes):
    code, out, _ = run_cli(capsys, "check", "--max-rank", "1")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    # the unitary items read the oracle and the series, never the integral
    assert [line.split(":")[0] for line in failed] == [
        f"FAIL  Barnes integral vs oracle n={n}" for n in range(1, 9)
    ]
    for line in failed:
        assert line.endswith("; quadrature did not converge"), line
        assert float(line.split("= ")[1].split(";")[0]) <= 1e-9, line


def test_check_fails_every_item_that_reads_an_unconverged_phi(capsys, monkeypatch):
    # every phi integral keeps its value and estimate but reports that it did
    # not converge: the unitary-line and isomorphism items fail with the note,
    # each route-agreement item fails on its report, and the items that read
    # no phi integral pass
    integrate_phi = quad.integrate_phi

    def unconverged(*args, **kwargs):
        qr = integrate_phi(*args, **kwargs)
        return quad.QuadResult(qr.value, qr.error_estimate, False, qr.evaluations, qr.tail_cutoff)

    monkeypatch.setattr(quad, "integrate_phi", unconverged)
    code, out, _ = run_cli(capsys, "check", "--max-rank", "1")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    groups = ["SU_2", "Sp_2", "G2", "F4", "E6", "E7", "E8"]
    noted = [f"unitary line identity z={z}" for z in (0.5, 1.0, 2.0, 3.0, 5.5, 9.0)]
    noted += ["iso Sp_2 = SU_2", "iso Spin_6 = SU_4"]
    assert [line[6:].split(":")[0] for line in failed] == (
        [f"route agreement {g}" for g in groups] + noted
    )
    for line in failed[len(groups):]:
        assert line.endswith("; quadrature did not converge"), line


@pytest.mark.parametrize("argv, count", [
    # Barnes' integral does not converge at z = 0.3 at this tolerance
    ("--from 0.3 --to 0.9 --step 0.3 --rel 1e-12 --abs 1e-14", 3),
    # Barnes' integral is 1.3e25 off there, on phi ~ 1.69e31
    ("--from 1e16 --to 1e16 --step 1", 1),
])
def test_scan_references_from_the_series(capsys, argv, count):
    code, out, err = run_cli(capsys, "scan", *argv.split())
    assert (code, err) == (0, "")
    rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
    assert len(rows) == count
    for _, phi, _, residual in rows:
        assert residual <= 1e-13 * max(1.0, abs(phi)), (phi, residual)


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


_PHI_HALF = ("phi", "--alpha", "-2", "--beta", "2", "--gamma", "0.5", "--format", "json")


@pytest.mark.parametrize("family", [Family.E7, Family.F4, Family.G2])
def test_check_holds_e7_counts_to_the_walk(capsys, monkeypatch, family):
    # the record of E7 (from its exponents) and of F4 and G2 (from their
    # epsilon-basis roots) is not the walk's: one root moved from the lowest
    # height to the next fails its structure item against the walk, and the
    # two items that read the record; no other item moves
    true_counts = rootsys.height_counts

    def moved(lie_type):
        record = true_counts(lie_type)
        if lie_type.family is not family:
            return record
        (h1, c1), (h2, c2), *rest = record.counts
        return rootsys.HeightCounts(
            lie_type, record.dual_coxeter, ((h1, c1 - 1), (h2, c2 + 1), *rest),
            record.height_denominator,
        )

    monkeypatch.setattr(rootsys, "height_counts", moved)
    code, out, _ = run_cli(capsys, "check", "--max-rank", "2")
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    name = family.value
    assert code == 1
    assert failed[0] == (
        f"FAIL  structure {name}: error: {name}: height counts, m or h_vee differ from the walk's"
    )
    assert [line.split(":")[0] for line in failed] == [
        f"FAIL  structure {name}", f"FAIL  route agreement {name}", f"FAIL  key relation {name}"
    ]


def test_table_walks_nothing(capsys, monkeypatch):
    # every row reads the height counts, so a table needs no walk
    code, want, err = run_cli(capsys, "table", "--max-rank", "2", "--format", "json")
    assert (code, err) == (0, "")
    forbid_walks(monkeypatch)
    assert run_cli(capsys, "table", "--max-rank", "2", "--format", "json") == (0, want, "")


def test_closed_pipe_exits_1_without_traceback():
    # the scan prints far more than a pipe buffer holds, so once the reader
    # has closed its end a write fails: exit 1, and nothing on stderr, not
    # at shutdown either
    env = dict(os.environ, PYTHONPATH=str(Path(lievol.__file__).resolve().parents[1]))
    argv = ["scan", "--from", "1", "--to", "20000", "--step", "1"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "lievol", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == b"gamma,phi,reference,residual\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=120), err) == (1, b"")
    finally:
        proc.kill()
        proc.wait()


@pytest.mark.parametrize("env_tol", ["1e-6", "abc"])
def test_tolerance_comes_from_flags_alone(capsys, monkeypatch, env_tol):
    # at gamma = 0.5 a looser --rel moves error_estimate, so an environment
    # variable read as a tolerance would show in these bytes
    monkeypatch.delenv("LIEVOL_TOL", raising=False)
    plain = run_cli(capsys, *_PHI_HALF)
    assert plain[0] == 0
    assert run_cli(capsys, *_PHI_HALF, "--rel", "1e-6") != plain
    assert run_cli(capsys, *_PHI_HALF, "--rel", "1e-10", "--abs", "1e-12") == plain
    monkeypatch.setenv("LIEVOL_TOL", env_tol)
    assert run_cli(capsys, *_PHI_HALF) == plain


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
    "argv, want",
    [
        ("volume --group SU --n 3 --rel nan", 2),
        ("volume --group SU --n 3 --rel inf", 2),
        ("phi --alpha nan --beta 2 --gamma 3", 2),
        ("phi --alpha -2 --beta inf --gamma 3", 2),
        ("scan --from 0.5 --to 2 --step nan", 2),
        ("scan --from 0.5 --to 2 --step inf", 2),
        ("scan --from 0.5 --to inf --step 0.5", 2),
        ("scan --from=-1e308 --to 1e308 --step 1", 2),
        # rel is capped at 1; a huge rel let the route agreement bound overflow to inf
        ("volume --group SU --n 3 --rel 1e308", 2),
        ("volume --group SU --n 3 --rel 2", 2),
        # rel below double resolution ran the quadrature to its evaluation budget
        ("volume --group SU --n 3 --rel 1e-16 --abs 1e-300", 2),
        ("scan --from 0 --to 1e300 --step 1", 2),
        # a reversed range that overflows to -inf is empty, not an error
        ("scan --from 1e308 --to=-1e308 --step 1", 0),
        ("volume --group E8 --n 7", 2),
        ("volume --group Spin --n 4", 2),
        # above the rank cap of 256: refused before the rank^2 Cartan matrix
        ("volume --group SU --n 258", 2),
        ("volume --group SU --n 1000000000", 2),
        ("phi --alpha -2 --beta 2 --gamma 1e300", 1),
        # the start scale 8|t|/|s| (here s = alpha) is inf, and 0: no decay length in double range
        ("phi --alpha=-1e-300 --beta 1e10 --gamma 1", 2),
        ("phi --alpha=-1e300 --beta 1e300 --gamma 1e-300", 2),
        # math.exp overflow inside the integrand, found by the fuzz test below
        ("phi --alpha 1770660 --beta 1770660 --gamma=-5.417501321893715e-10 --rel 1", 1),
        ("phi --alpha 1 --beta 1 --gamma 1", 3),
    ],
)
def test_bad_input_exit_codes(argv, want):
    code, err = exit_code(argv.split())
    assert code == want, err
    assert "Traceback" not in err
    assert err.count("\n") <= 2  # usage line and one message, or the message alone


@pytest.mark.parametrize("flag", ["--rel", "--abs"])
def test_malformed_tolerance_is_usage_error(flag):
    # argparse's own error, after the volume usage, which wraps at 80 columns
    code, err = exit_code(["volume", "--group", "SU", "--n", "3", flag, "abc"])
    assert code == 2, err
    assert err.endswith(f"lievol volume: error: argument {flag}: invalid float value: 'abc'\n")


def _rendered(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    "--help", "volume --help", "scan -h", "volume --group SU --n 3 --rel abc", "bogus",
])
def test_help_and_usage_ignore_columns(monkeypatch, argv):
    # argparse wraps at a fixed width: help on stdout and usage errors on
    # stderr are the same bytes whatever COLUMNS says
    monkeypatch.delenv("COLUMNS", raising=False)
    want = _rendered(argv.split())
    assert want[1] or want[2]
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert _rendered(argv.split()) == want, columns


@pytest.mark.parametrize("command", ["table", "check"])
@pytest.mark.parametrize("max_rank", ["257", "1000000000"])
def test_max_rank_above_cap_is_usage_error(monkeypatch, command, max_rank):
    # refused before any root system is walked: 257 used to build every
    # group up to rank 256 first, and 10^9 ended in a MemoryError traceback
    forbid_walks(monkeypatch)
    code, err = exit_code([command, "--max-rank", max_rank])
    assert code == 2, err
    assert err.endswith(f"error: max rank {max_rank} is above 256, the cap\n")
    assert err.count("\n") == 2  # the usage line and the message


@pytest.mark.parametrize(
    "argv",
    [
        "volume --group=-- --n 5",
        "volume --gr=-- --n 5",
        "phi --alpha=-- --beta 2 --gamma 3",
        "check --max-rank=--",
        "volume --group SU --n 5 --format=--",
    ],
)
def test_option_value_of_double_dash_is_usage_error(argv):
    # argparse up to 3.12 strips the value "--" from "--opt=--" and leaves [],
    # past the option's type and choices: it ended in a traceback, or in the
    # text report. 3.13 keeps "--" as the value and words the error otherwise.
    # An abbreviated flag gets the same error, under the flag's full name
    code, err = exit_code(argv.split())
    assert code == 2, err
    # the error argparse itself gives for the option without its value
    assert (code, err) == exit_code(argv.replace("=--", " --").split())
    assert err.endswith(": expected one argument\n")


_IGNORED_HELP_VALUE = "argument -h/--help: ignored explicit argument '--'"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("volume --help=--", _IGNORED_HELP_VALUE),
        ("volume --he=--", _IGNORED_HELP_VALUE),
        ("--help=--", _IGNORED_HELP_VALUE),
        ("volume --group SU --n 5 --bogus=--", "unrecognized arguments: --bogus=--"),
        ("scan --a=-- --from 1 --to 2 --step 1",
         "ambiguous option: --a=-- could match --alpha, --abs"),
    ],
)
def test_double_dash_value_of_other_flags_is_left_to_argparse(argv, message):
    # only an option that takes a value has "=--" split off; help, an unknown
    # flag and an ambiguous one keep argparse's own usage error for the token
    code, err = exit_code(argv.split())
    assert code == 2, err
    assert err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("abs_tol", ["1e-300", "5e-324"])
def test_tiny_abs_gives_default_phi(capsys, abs_tol):
    # the tail doubling reaches x = 768, where expm1(x) overflows
    argv = ("phi", "--alpha", "-2", "--beta", "2", "--gamma", "0.5", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, tiny, _ = run_cli(capsys, *argv, "--abs", abs_tol)
    assert code == 0
    assert json.loads(tiny)["phi"] == json.loads(out)["phi"]


def test_check_fails_the_unconverged_phi_at_tiny_abs(capsys):
    # at rel 1e-15 the phi integral at (-2, 2, 0.5) reports that it did not
    # converge, although it lies within 1e-15 of the closed form: its item
    # fails on the flag, and every other item passes
    code, out, _ = run_cli(capsys, "check", "--max-rank", "5", "--rel", "1e-15", "--abs", "5e-324")
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "78/79 checks passed"
    failed = [line for line in lines if line.startswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith("FAIL  unitary line identity z=0.5: |diff| = ")
    assert failed[0].endswith("; quadrature did not converge")


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
    # no tolerance flag here: the option table states Tolerance()'s defaults
    assert (args.rel, args.abs) == (quad.Tolerance.rel, quad.Tolerance.abs)


_LISTED = Path(__file__).resolve().parents[1] / "tools" / "cli_commands.txt"


def _listed_commands():
    lines = _LISTED.read_text().splitlines()
    return [line for line in lines if line and not line.startswith("#")]


@pytest.mark.parametrize("line", _listed_commands())
def test_listed_commands_keep_exit_code_contract(line):
    # split on whitespace, as tools/cmp_parent.sh does; that script compares
    # the list with a parent tree, so a crash in both would pass it
    code, err = exit_code(line.split())
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
