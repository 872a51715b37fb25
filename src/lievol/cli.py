"""Command-line interface: volume reports, raw integral values, line scans,
table reproduction, and the verification suite.

Exit codes: 0 success, 1 numerical check failure or any other library
error, 2 usage error (non-finite numbers, a malformed LIEVOL_TOL, a relative
tolerance outside [1e-15, 1] and a scan over more than _MAX_SCAN_ROWS rows
included), 3 divergence-domain refusal. `main` alone maps errors to codes.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
from types import SimpleNamespace

from . import quad, rootsys, special, vogel, volume
from .errors import (
    DivergenceSetError,
    LievolError,
    ParameterDomainError,
    UnsupportedGroupError,
)
from .quad import Tolerance
from .rootsys import _RANK_FLOOR, EXCEPTIONAL_RANK, Family, SimpleLieType, sp, spin, su
from .vogel import VogelPoint
from .volume import VolumeReport

__all__ = ["main"]

_GROUP_CHOICES = ("SU", "Spin", "Sp") + tuple(f.value for f in (*_RANK_FLOOR, *EXCEPTIONAL_RANK))

# Largest row count `scan` accepts; a longer grid is a usage error.
_MAX_SCAN_ROWS = 100_000
_PROG = "lievol"


def _resolve_group(group: str, n: int | None) -> SimpleLieType:
    if group in ("SU", "Spin", "Sp"):
        if n is None:
            raise UnsupportedGroupError(f"--group {group} requires --n")
        return {"SU": su, "Spin": spin, "Sp": sp}[group](n)
    fam = Family(group)
    rank = EXCEPTIONAL_RANK.get(fam) if n is None else n
    if rank is None:
        raise UnsupportedGroupError(f"--group {group} requires --n (the rank)")
    return SimpleLieType(fam, rank)


def _tolerance(args) -> Tolerance:
    rel = args.rel
    if rel is None:
        env = os.environ.get("LIEVOL_TOL")
        try:
            rel = float(env) if env else Tolerance.rel
        except ValueError:
            raise ParameterDomainError(f"LIEVOL_TOL is not a number: {env!r}") from None
    abs_tol = args.abs if args.abs is not None else Tolerance.abs
    return Tolerance(rel=rel, abs=abs_tol)


def report_to_dict(r: VolumeReport) -> dict:
    """Fixed-order mapping for serialization; `volume` is null when the raw
    value is not representable."""
    return {name: getattr(r, name) for name in VolumeReport._fields if name != "agreed"}


_CSV_REPORT_HEADER = (
    "group,alpha,beta,gamma,t,dim,phi_universal,phi_kp,log_volume,route_discrepancy"
)


def _report_csv_row(r: VolumeReport, point: VogelPoint) -> str:
    head = (point.alpha, point.beta, point.gamma, point.t)
    tail = (r.phi_universal, r.phi_kp, r.log_volume, r.route_discrepancy)
    return ",".join([r.group, *map(repr, head), str(r.dim), *map(repr, tail)])


def _print_report_text(r: VolumeReport) -> None:
    print(f"group              {r.group}")
    print(f"dim                {r.dim}")
    print(f"phi (universal)    {r.phi_universal:.12g}")
    print(f"phi (root product) {r.phi_kp:.12g}")
    print(f"log volume         {r.log_volume:.12g}")
    if r.volume is not None:
        print(f"volume             {r.volume:.12g}")
    else:
        print("volume             (outside double range)")
    print(f"route discrepancy  {r.route_discrepancy:.3e}")
    print(f"converged          {r.converged}")
    if r.notes:
        print(f"notes              {r.notes}")


def cmd_volume(args, tol: Tolerance) -> int:
    lie_type = _resolve_group(args.group, args.n)
    report = volume.cross_check(lie_type, tol)
    if args.format == "json":
        print(json.dumps(report_to_dict(report)))
    elif args.format == "csv":
        print(_CSV_REPORT_HEADER)
        print(_report_csv_row(report, vogel.vogel_point(lie_type)))
    else:
        _print_report_text(report)
    return 0 if report.agreed else 1


def cmd_phi(args, tol: Tolerance) -> int:
    point = VogelPoint(args.alpha, args.beta, args.gamma)
    qr = quad.integrate_phi(point, tol)
    dim = vogel.dim_from_vogel(point)
    log_volume = dim * volume.LOG_VOLUME_BASE - qr.value
    if args.format == "json":
        print(json.dumps({
            "alpha": point.alpha, "beta": point.beta, "gamma": point.gamma, "phi": qr.value,
            "error_estimate": qr.error_estimate, "dim": dim, "log_volume": log_volume,
            "converged": qr.converged,
        }))
    else:
        print(f"phi                {qr.value:.12g}")
        print(f"error estimate     {qr.error_estimate:.3e}")
        print(f"dim                {dim:.12g}")
        print(f"log volume         {log_volume:.12g}")
        print(f"converged          {qr.converged}")
    return 0 if qr.converged else 1


def cmd_scan(args, tol: Tolerance) -> int:
    alpha, beta = args.alpha, args.beta
    if not all(map(math.isfinite, (args.start, args.stop, args.step, alpha, beta))):
        raise ParameterDomainError("--from, --to, --step, --alpha and --beta must be finite")
    if args.step <= 0:
        raise ParameterDomainError("--step must be positive")
    # a reversed range, overflowing to -inf included, gives no rows
    steps = max((args.stop - args.start) / args.step, -1.0)
    if steps + 1e-9 >= _MAX_SCAN_ROWS:  # also a range that overflows to inf
        raise ParameterDomainError(f"--from/--to/--step give more than {_MAX_SCAN_ROWS} rows")
    unitary = alpha + beta == 0.0
    print("gamma,phi,reference,residual")
    count = int(math.floor(steps + 1e-9)) + 1
    converged = True
    for i in range(count):
        gamma = args.start + i * args.step
        try:
            qr = quad.integrate_phi(VogelPoint(alpha, beta, gamma), tol)
        except DivergenceSetError:
            print(f"{gamma!r},,,diverges")
            continue
        except ParameterDomainError:
            print(f"{gamma!r},,,undefined")
            continue
        converged = converged and qr.converged
        if unitary:
            # (alpha, -alpha, gamma) is (-2, 2, z) scaled by gamma / z, alpha and
            # beta swapped if needed; on the default line z = |gamma|
            z = abs(gamma) / (0.5 * abs(alpha))
            ref = special.phi_unitary_closed_form(z, tol).value
            print(f"{gamma!r},{qr.value!r},{ref!r},{abs(qr.value - ref)!r}")
        else:
            print(f"{gamma!r},{qr.value!r},,")
    return 0 if converged else 1


def cmd_table(args, tol: Tolerance) -> int:
    groups = rootsys.default_groups(args.max_rank)
    reports = [(volume.cross_check(g, tol), vogel.vogel_point(g)) for g in groups]
    if args.format == "json":
        print(json.dumps([report_to_dict(r) for r, _ in reports]))
    elif args.format == "csv":
        print(_CSV_REPORT_HEADER)
        for r, point in reports:
            print(_report_csv_row(r, point))
    else:
        head = (
            f"{'group':<9}{'alpha':>7}{'beta':>9}{'gamma':>9}{'t':>5}{'dim':>5}"
            f"{'phi_universal':>17}{'phi_kp':>17}{'log_volume':>15}"
        )
        print(head)
        for r, point in reports:
            print(
                f"{r.group:<9}{point.alpha:>7.3g}{point.beta:>9.4g}{point.gamma:>9.4g}"
                f"{point.t:>5.3g}{r.dim:>5}{r.phi_universal:>17.10g}"
                f"{r.phi_kp:>17.10g}{r.log_volume:>15.8g}"
            )
    return 0 if all(r.agreed for r, _ in reports) else 1


def cmd_check(args, tol: Tolerance) -> int:
    items = volume.run_check_suite(args.max_rank, tol)
    failed = 0
    for item in items:
        status = "PASS" if item.passed else "FAIL"
        print(f"{status}  {item.name}: {item.detail}")
        failed += not item.passed
    print(f"{len(items) - failed}/{len(items)} checks passed")
    return 0 if failed == 0 else 1


def _opt(flag, type=str, default=None, *, required=False, choices=None, help=None, dest=None):
    """One option: its flag and the `add_argument` keywords, which `_parse` reads too."""
    dest = dest or flag[2:].replace("-", "_")
    return flag, dict(
        dest=dest, type=type, default=default, required=required, choices=choices, help=help
    )


def _format(*choices):
    return _opt("--format", default="text", choices=("text", *choices))


_TOL = (
    _opt("--rel", float, help="relative tolerance"),
    _opt("--abs", float, help="absolute tolerance"),
)
_MAX_RANK = _opt("--max-rank", int, 8)

# The command-line surface, stated once: command -> (handler, help, options).
# `_build_parser` turns it into the argparse parser, `_parse` reads it directly.
_COMMANDS = {
    "volume": (cmd_volume, "volume report for one group", (
        _opt("--group", required=True, choices=_GROUP_CHOICES),
        _opt("--n", int, help="size/rank selector"),
        _format("json", "csv"), *_TOL,
    )),
    "phi": (cmd_phi, "universal integral at a raw parameter triple", (
        *(_opt(f"--{q}", float, required=True) for q in ("alpha", "beta", "gamma")),
        _format("json"), *_TOL,
    )),
    "scan": (cmd_scan, "CSV scan over gamma at fixed alpha, beta", (
        _opt("--from", float, required=True, dest="start"),
        _opt("--to", float, required=True, dest="stop"),
        _opt("--step", float, required=True),
        _opt("--alpha", float, -2.0),
        _opt("--beta", float, 2.0),
        *_TOL,
    )),
    "table": (cmd_table, "reproduce the parameter table with volumes",
              (_MAX_RANK, _format("json", "csv"), *_TOL)),
    "check": (cmd_check, "run the full verification suite", (_MAX_RANK, *_TOL)),
}

# argparse reads a token after an option as its value, not as an option,
# when it starts with "-" only if it matches this (argparse's own pattern)
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _parse(argv: list[str]) -> SimpleNamespace | None:
    """argparse's namespace for a command and its exact long options, each with a
    typed value after a space or "=", from `_COMMANDS`; None for anything else
    (help, an abbreviation, "--", a bad value, a stray token), left to argparse."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = dict(_COMMANDS[argv[0]][2])
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in options:
            return None
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("-") and not _NEGATIVE_NUMBER.match(value):
                return None
        spec = options[flag]
        try:
            value = spec["type"](value)
        except (TypeError, ValueError):
            return None
        if spec["choices"] is not None and value not in spec["choices"]:
            return None
        values[spec["dest"]] = value
    specs = options.values()
    if any(spec["required"] and spec["dest"] not in values for spec in specs):
        return None
    defaults = {spec["dest"]: spec["default"] for spec in specs}
    return SimpleNamespace(command=argv[0], **{**defaults, **values})


def _build_parser():
    """The argparse parser for `_COMMANDS`: the one renderer of help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog=_PROG,
        description=(
            "Volumes of compact simple Lie groups under the Cartan-Killing "
            "metric, by independent routes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, spec in options:
            command.add_argument(flag, **spec)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; every library error leaves through its exit code.
    Only help, usage errors and unusual spellings build the argparse parser."""
    args = _parse(sys.argv[1:] if argv is None else argv) or _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args, _tolerance(args))
    except DivergenceSetError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except (ParameterDomainError, UnsupportedGroupError) as exc:
        _build_parser().error(str(exc))
    except LievolError as exc:
        print(f"{_PROG}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
