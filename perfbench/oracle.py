"""Expected outputs for every benchmark request, from code lievol does not share.

`expect(argv)` is computed before timing and cached by input; `validate`
checks one request's stdout against it. Sources:

- SU_n reports and table rows: the exact factorial formula for ln Vol(SU_n),
  evaluated with mpmath;
- unitary scan rows: the Barnes-G closed form with `mpmath.barnesg`;
- off-unitary scan rows: `mpmath.quad` of the universal integrand written
  out below;
- other volume reports and table rows: values frozen from the seed commit
  in frozen.json (see freeze.py);
- check: every line PASS, with the line count of the suite for that rank.

Every value is checked, but only the oracles independent of lievol count
towards the accuracy digits: a frozen value counts as DIGITS_CAP.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import mpmath as mp

from workloads import scan_grid

TOLERANCE = 1e-9  # relative to max(1, |expected|), on every checked number
DIGITS_CAP = 16.0  # an exact match counts as 16 digits
_DPS = 30
_SMALL_X = "1e-10"  # below this the integrand is replaced by its limit at 0
FROZEN = json.loads((Path(__file__).with_name("frozen.json")).read_text())["groups"]


class Mismatch(Exception):
    """A request's output disagrees with its oracle."""


def _log_base():
    # ln(2 sqrt(2) pi), the per-dimension factor of the volume
    return 1.5 * mp.log(2) + mp.log(mp.pi)


@functools.lru_cache(maxsize=None)
def su_report(n: int) -> dict:
    """Exact dim, ln Vol(SU_n) and phi = dim ln(2 sqrt 2 pi) - ln Vol."""
    with mp.workdps(_DPS + 10):
        n2 = n * n
        superfactorial = 1
        for k in range(1, n):
            superfactorial *= math.factorial(k)
        log_volume = (
            (n2 - 1) * mp.log(2) / 2
            + n2 * mp.log(n) / 2
            + (n2 + n - 2) * mp.log(2 * mp.pi) / 2
            - mp.log(superfactorial)
        )
        phi = float((n2 - 1) * _log_base() - log_volume)
        return {"dim": n2 - 1, "log_volume": float(log_volume), "phi_universal": phi,
                "phi_kp": phi}


def group_report(name: str) -> dict:
    """Expected dim, log volume and both phi routes of a group by its report name."""
    return su_report(int(name[3:])) if name.startswith("SU_") else FROZEN[name]


@functools.lru_cache(maxsize=None)
def phi_point(alpha: float | None, beta: float | None, gamma: float) -> float:
    """The universal integral at (alpha, beta, gamma); None means the unitary line."""
    with mp.workdps(_DPS):
        if alpha is None:
            z = mp.mpf(gamma)
            lng = mp.log(mp.barnesg(z + 1))
            return float(lng - z * z * mp.log(z) / 2 + (z * z - z) * mp.log(2 * mp.pi) / 2)
        qs = [mp.mpf(alpha), mp.mpf(beta), mp.mpf(gamma)]
        t = sum(qs)
        a = [(q - 2 * t) / (4 * t) for q in qs]
        b = [q / (4 * t) for q in qs]
        dim = (qs[0] - 2 * t) * (qs[1] - 2 * t) * (qs[2] - 2 * t) / (qs[0] * qs[1] * qs[2])
        at_zero = dim * sum(ai * ai - bi * bi for ai, bi in zip(a, b)) / 6
        small = mp.mpf(_SMALL_X)

        def integrand(x):
            # dim * (prod sinh(a x)/(a x) / (sinh(b x)/(b x)) - 1) / (x (e^x - 1))
            if x < small:
                return at_zero
            ratio = mp.mpf(1)
            for ai, bi in zip(a, b):
                ratio *= (mp.sinh(ai * x) * bi) / (mp.sinh(bi * x) * ai)
            return dim * (ratio - 1) / (x * mp.expm1(x))

        value, err = mp.quad(integrand, [0, small, mp.inf], error=True)
        if err > 1e-14 * max(1, abs(value)):
            raise ArithmeticError(f"oracle integral at {qs} has error estimate {err}")
        return float(value)


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def check_lines(max_rank: int) -> int:
    """Items of `check --max-rank R`: three per group, 8 Barnes, 6 unitary, 2 isomorphism."""
    groups = max_rank + (max_rank - 1) + max_rank + (max_rank - 3) + 5
    return 3 * groups + 8 + 6 + 2


def table_groups(max_rank: int) -> list[str]:
    """Report names of the table rows in CLI order: A, B, C, D by rank, exceptionals."""
    return (
        [f"SU_{r + 1}" for r in range(1, max_rank + 1)]
        + [f"Spin_{2 * r + 1}" for r in range(2, max_rank + 1)]
        + [f"Sp_{2 * r}" for r in range(1, max_rank + 1)]
        + [f"Spin_{2 * r}" for r in range(4, max_rank + 1)]
        + ["G2", "F4", "E6", "E7", "E8"]
    )


def expect(argv: list[str]):
    """Everything `validate` needs for one request, computed ahead of timing."""
    command = argv[0]
    if command == "volume":
        name = f"{_option(argv, '--group')}_{_option(argv, '--n')}"
        return {"groups": [name], "reports": [group_report(name)]}
    if command == "table":
        names = table_groups(int(_option(argv, "--max-rank")))
        return {"groups": names, "reports": [group_report(g) for g in names]}
    if command == "check":
        return {"lines": check_lines(int(_option(argv, "--max-rank")))}
    if command == "scan":
        alpha = _option(argv, "--alpha")
        beta = _option(argv, "--beta")
        alpha = None if alpha is None else float(alpha)
        beta = None if beta is None else float(beta)
        gammas = scan_grid(argv)
        return {"unitary": alpha is None, "gammas": gammas,
                "phi": [phi_point(alpha, beta, g) for g in gammas]}
    raise ValueError(f"no oracle for {command!r}")


def _digits(got: float, want: float, what: str) -> float:
    err = abs(got - want) / max(1.0, abs(want))
    if not err <= TOLERANCE:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")
    return min(DIGITS_CAP, -math.log10(err)) if err > 0.0 else DIGITS_CAP


def _check_report(row: dict, name: str, want: dict) -> float:
    if row["group"] != name or row["dim"] != want["dim"]:
        raise Mismatch(f"group {row['group']} dim {row['dim']}, expected {name} {want['dim']}")
    if row["converged"] is not True:
        raise Mismatch(f"{name}: not converged")
    digits = min(
        _digits(row["log_volume"], want["log_volume"], f"{name} log_volume"),
        _digits(row["phi_universal"], want["phi_universal"], f"{name} phi_universal"),
        _digits(row["phi_kp"], want["phi_kp"], f"{name} phi_kp"),
    )
    if abs(row["log_volume"]) <= 700.0:
        _digits(math.log(row["volume"]), row["log_volume"], f"{name} volume")
    elif row["volume"] is not None:
        raise Mismatch(f"{name}: volume {row['volume']!r} should be null")
    # frozen values give the distance from the seed commit, not the accuracy:
    # they are checked, but only the exact SU oracle counts towards the digits
    return digits if name.startswith("SU_") else DIGITS_CAP


def validate(argv: list[str], stdout: str, want) -> tuple[int, float | None]:
    """(output items, accuracy digits or None) of a correct output; raises Mismatch."""
    command = argv[0]
    try:
        if command in ("volume", "table"):
            rows = json.loads(stdout)
            rows = [rows] if command == "volume" else rows
            if len(rows) != len(want["groups"]):
                raise Mismatch(f"{len(rows)} reports, expected {len(want['groups'])}")
            digits = min(_check_report(row, name, report)
                         for row, name, report in zip(rows, want["groups"], want["reports"]))
            return len(rows), digits
        if command == "check":
            lines = stdout.splitlines()
            n = want["lines"]
            if len(lines) != n + 1 or lines[-1] != f"{n}/{n} checks passed":
                raise Mismatch(f"{len(lines) - 1} check lines, expected {n} all passing")
            bad = [line for line in lines[:-1] if not line.startswith("PASS  ")]
            if bad:
                raise Mismatch(f"not passed: {bad[0]}")
            return n, None
        if command == "scan":
            return _validate_scan(stdout, want)
    except (KeyError, TypeError, ValueError) as exc:
        raise Mismatch(f"unparsable output: {exc!r}") from exc
    raise ValueError(f"no validator for {command!r}")


def _validate_scan(stdout: str, want) -> tuple[int, float]:
    lines = stdout.splitlines()
    if not lines or lines[0] != "gamma,phi,reference,residual":
        raise Mismatch("scan header missing")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(want["gammas"]) or any(len(r) != 4 for r in rows):
        raise Mismatch(f"{len(rows)} scan rows, expected {len(want['gammas'])}")
    digits = DIGITS_CAP
    for (gamma, phi, ref, residual), g, p in zip(rows, want["gammas"], want["phi"]):
        if abs(float(gamma) - g) > 1e-12 * max(1.0, abs(g)):
            raise Mismatch(f"gamma {gamma}, expected {g!r}")
        digits = min(digits, _digits(float(phi), p, f"phi at gamma={gamma}"))
        if want["unitary"]:
            digits = min(digits, _digits(float(ref), p, f"reference at gamma={gamma}"))
            if abs(float(residual) - abs(float(phi) - float(ref))) > 1e-15 * max(1.0, abs(p)):
                raise Mismatch(f"residual at gamma={gamma} is not |phi - reference|")
        elif ref or residual:
            raise Mismatch(f"off-unitary row gamma={gamma} carries a reference")
    return len(rows), digits
