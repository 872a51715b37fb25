"""Command-line interface: volume reports, raw integral values, line scans,
table reproduction, and the verification suite.

Exit codes: 0 success, 1 numerical check failure or any other library
error, 2 usage error (non-finite numbers and a malformed LIEVOL_TOL
included), 3 divergence-domain refusal. `main` alone maps errors to codes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import quad, rootsys, special, vogel, volume
from .errors import (
    DivergenceSetError,
    LievolError,
    ParameterDomainError,
    UnsupportedGroupError,
)
from .quad import Tolerance
from .rootsys import EXCEPTIONAL_RANK, Family, SimpleLieType, sp, spin, su
from .vogel import VogelPoint
from .volume import VolumeReport

__all__ = ["main"]

_GROUP_CHOICES = ("SU", "Spin", "Sp", "A", "B", "C", "D", "G2", "F4", "E6", "E7", "E8")


def _resolve_group(group: str, n: int | None) -> SimpleLieType:
    if group in ("SU", "Spin", "Sp"):
        if n is None:
            raise UnsupportedGroupError(f"--group {group} requires --n")
        return {"SU": su, "Spin": spin, "Sp": sp}[group](n)
    fam = Family(group)
    if fam in EXCEPTIONAL_RANK:
        if n is not None and n != EXCEPTIONAL_RANK[fam]:
            raise UnsupportedGroupError(f"{group} has fixed rank {EXCEPTIONAL_RANK[fam]}")
        return SimpleLieType(fam, EXCEPTIONAL_RANK[fam])
    if n is None:
        raise UnsupportedGroupError(f"--group {group} requires --n (the rank)")
    return SimpleLieType(fam, n)


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
    return {
        "group": r.group,
        "dim": r.dim,
        "phi_universal": r.phi_universal,
        "phi_kp": r.phi_kp,
        "log_volume": r.log_volume,
        "volume": r.volume,
        "route_discrepancy": r.route_discrepancy,
        "converged": r.converged,
        "notes": r.notes,
    }


_CSV_REPORT_HEADER = (
    "group,alpha,beta,gamma,t,dim,phi_universal,phi_kp,log_volume,route_discrepancy"
)


def _report_csv_row(r: VolumeReport, point: VogelPoint) -> str:
    return ",".join(
        [
            r.group,
            repr(point.alpha),
            repr(point.beta),
            repr(point.gamma),
            repr(point.t),
            str(r.dim),
            repr(r.phi_universal),
            repr(r.phi_kp),
            repr(r.log_volume),
            repr(r.route_discrepancy),
        ]
    )


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
    return 0 if report.converged and report.agreed else 1


def cmd_phi(args, tol: Tolerance) -> int:
    point = VogelPoint(args.alpha, args.beta, args.gamma)
    qr = quad.integrate_phi(point, tol)
    dim = vogel.dim_from_vogel(point)
    log_volume = dim * volume.LOG_VOLUME_BASE - qr.value
    if args.format == "json":
        print(
            json.dumps(
                {
                    "alpha": point.alpha,
                    "beta": point.beta,
                    "gamma": point.gamma,
                    "phi": qr.value,
                    "error_estimate": qr.error_estimate,
                    "dim": dim,
                    "log_volume": log_volume,
                    "converged": qr.converged,
                }
            )
        )
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
    steps = (args.stop - args.start) / args.step
    if not math.isfinite(steps):
        raise ParameterDomainError("--from/--to range overflows at this --step")
    unitary = alpha + beta == 0.0
    print("gamma,phi,reference,residual")
    count = int(math.floor(steps + 1e-9)) + 1
    for i in range(max(count, 0)):
        gamma = args.start + i * args.step
        try:
            qr = quad.integrate_phi(VogelPoint(alpha, beta, gamma), tol)
        except DivergenceSetError:
            print(f"{gamma!r},,,diverges")
            continue
        except ParameterDomainError:
            print(f"{gamma!r},,,undefined")
            continue
        if unitary and gamma > 0.0:
            ref = special.phi_unitary_closed_form(gamma, tol).value
            print(f"{gamma!r},{qr.value!r},{ref!r},{abs(qr.value - ref)!r}")
        else:
            print(f"{gamma!r},{qr.value!r},,")
    return 0


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
    ok = all(r.converged and r.agreed for r, _ in reports)
    return 0 if ok else 1


def cmd_check(args, tol: Tolerance) -> int:
    items = volume.run_check_suite(args.max_rank, tol)
    failed = 0
    for item in items:
        status = "PASS" if item.passed else "FAIL"
        print(f"{status}  {item.name}: {item.detail}")
        failed += not item.passed
    print(f"{len(items) - failed}/{len(items)} checks passed")
    return 0 if failed == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lievol",
        description=(
            "Volumes of compact simple Lie groups under the Cartan-Killing "
            "metric, by independent routes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol(p):
        p.add_argument("--rel", type=float, default=None, help="relative tolerance")
        p.add_argument("--abs", type=float, default=None, help="absolute tolerance")

    p_volume = sub.add_parser("volume", help="volume report for one group")
    p_volume.add_argument("--group", required=True, choices=_GROUP_CHOICES)
    p_volume.add_argument("--n", type=int, default=None, help="size/rank selector")
    p_volume.add_argument("--format", choices=("text", "json", "csv"), default="text")
    add_tol(p_volume)

    p_phi = sub.add_parser("phi", help="universal integral at a raw parameter triple")
    p_phi.add_argument("--alpha", type=float, required=True)
    p_phi.add_argument("--beta", type=float, required=True)
    p_phi.add_argument("--gamma", type=float, required=True)
    p_phi.add_argument("--format", choices=("text", "json"), default="text")
    add_tol(p_phi)

    p_scan = sub.add_parser("scan", help="CSV scan over gamma at fixed alpha, beta")
    p_scan.add_argument("--from", dest="start", type=float, required=True)
    p_scan.add_argument("--to", dest="stop", type=float, required=True)
    p_scan.add_argument("--step", type=float, required=True)
    p_scan.add_argument("--alpha", type=float, default=-2.0)
    p_scan.add_argument("--beta", type=float, default=2.0)
    add_tol(p_scan)

    p_table = sub.add_parser("table", help="reproduce the parameter table with volumes")
    p_table.add_argument("--max-rank", type=int, default=8)
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    add_tol(p_table)

    p_check = sub.add_parser("check", help="run the full verification suite")
    p_check.add_argument("--max-rank", type=int, default=8)
    add_tol(p_check)

    return parser


_COMMANDS = {
    "volume": cmd_volume,
    "phi": cmd_phi,
    "scan": cmd_scan,
    "table": cmd_table,
    "check": cmd_check,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command; every library error leaves through its exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, _tolerance(args))
    except DivergenceSetError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except (ParameterDomainError, UnsupportedGroupError) as exc:
        parser.error(str(exc))
    except LievolError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
