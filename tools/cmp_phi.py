"""Compare integrate_phi, log_barnesG_integral, unitary closed-form, route-2
and key-relation records between this tree and the one in PARENT_DIR, at
full precision, on a seeded point set and a fixed group list, and list
every record that differs. An integrate_phi record is the value and error estimate as hex,
the converged flag, the evaluation count and the cutoff as hex, and so is
a log_barnesG_integral record; a closed-form record is
special.phi_unitary_closed_form(z) as hex; a route-2 record is
volume.cross_check(g)'s phi_kp as hex, its dim and the h_vee of the root
data its dimension check reads; a key-relation record is
vogel.key_relation_residual as hex at each abscissa `check` uses, on that
same root data. Each is the error the point or group raises, where it
raises one.

The integrate_phi points: the three lines `scan` runs (alpha, beta = (-2, 2),
(-2, 4) and (-2, 1)) at seeded gammas, the table rows of default_groups(12),
the 26 rows of the `large-rank` ladder (SU_15 ... SU_25, Sp_2r and
Spin_2r+1 for r = 10 ... 17, Spin_22 ... Spin_34), and 2,000 unitary points
(-m, m, m*z), permuted and rescaled across the double range; the scan,
table and ladder points once more at each relative tolerance 1e-12 ...
1e-15 (abs = rel / 100), where refinement splits many panels. The log_barnesG_integral points: z = 0.005 k, k = 1 ... 1999, at the
integral's own tolerance, and z = 0.5, 1.7, 4.5, 12, 100 at four more
tolerances, from the default to (1e-15, 5e-324); some spend the whole
evaluation budget. The closed-form points: the integers 1..300 and
2^16 - 1 .. 2^16 + 1, 1e10, and the 40 seeded gammas of the line (-2, 2),
where z = gamma. The route-2 groups: every A-D group from its rank floor to
64, rank 256 in each family, and the five exceptional groups; the
key-relation groups are default_groups(12). Each kind ends on a line
"N of M ... records differ", which, where N > 0, also gives the largest
|a - b| / max(1, |a|, |b|) of the values that differ (see max_reldiff), so
that "2,184 records differ" says how far they moved. Exit status: 0 if no
record differs, 1 if one does, 2 on bad usage.

    git archive PARENT_COMMIT | tar -x -C PARENT_DIR
    python3 tools/cmp_phi.py PARENT_DIR

tools/cmp_parent.sh compares the CLI's text, which rounds phi to 12 digits;
this compares every bit. Each tree runs in its own interpreter (the one that
runs this script), with its src on PYTHONPATH.
"""

import os
import pathlib
import random
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent.parent
SEED = 20261019
UNITARY_POINTS = 2000
# the relative tolerances of the refining integrate_phi records
TIGHT_RELS = (1e-12, 1e-13, 1e-14, 1e-15)
# (rel, abs) of the Barnes records beyond the integral's own tolerance; the
# first is Tolerance()
BARNES_TOLS = ((1e-10, 1e-12), (1e-13, 1e-15), (1e-15, 5e-324), (1e-6, 1e-8))
BARNES_ZS = (0.5, 1.7, 4.5, 12.0, 100.0)


def points() -> tuple[list[tuple[float, float, float]], int, list[float]]:
    """The integrate_phi points, how many of them come first from the scan
    lines, the table rows and the ladder, and the closed-form arguments z."""
    from lievol.rootsys import default_groups, sp, spin, su
    from lievol.vogel import vogel_point

    rng = random.Random(SEED)
    out = []
    for alpha, beta, lowest in ((-2.0, 2.0, 0.2), (-2.0, 4.0, 0.2), (-2.0, 1.0, 1.3)):
        out += [(alpha, beta, round(rng.uniform(lowest, lowest + 8.0), 3)) for _ in range(40)]
    zs = [*map(float, range(1, 301)), *map(float, range(2**16 - 1, 2**16 + 2)), 1e10,
          *(gamma for _, _, gamma in out[:40])]
    out += [vogel_point(g).params for g in default_groups(12)]
    ladder = ([su(n) for n in range(15, 26, 2)]
              + [g for r in range(10, 18) for g in (sp(2 * r), spin(2 * r + 1))]
              + [spin(2 * r) for r in range(11, 18, 2)])
    out += [vogel_point(g).params for g in ladder]
    scan_and_table = len(out)
    for _ in range(UNITARY_POINTS):
        m = rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 299)
        z = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 2.0)
        point = [-m, m, m * z]
        rng.shuffle(point)
        out.append(tuple(point))
    return out, scan_and_table, zs


def groups() -> tuple[list[str], list[str]]:
    """The route-2 groups and the key-relation groups, as 'FAMILY RANK'."""
    from lievol.rootsys import _RANK_FLOOR, EXCEPTIONAL_RANK, default_groups

    route2 = [f"{fam.value} {r}" for fam, floor in _RANK_FLOOR.items()
              for r in [*range(floor, 65), 256]]
    route2 += [f"{fam.value} {r}" for fam, r in EXCEPTIONAL_RANK.items()]
    return route2, [f"{g.family.value} {g.rank}" for g in default_groups(12)]


def root_data(lie_type):
    """volume.cross_check(lie_type), and the root data it read: the first
    argument of its dimension check, whichever record a tree passes."""
    from lievol import volume

    seen = []
    checked_dim = volume._checked_dim
    volume._checked_dim = lambda heights, point: seen.append(heights) or checked_dim(heights, point)
    try:
        return volume.cross_check(lie_type), seen[0]
    finally:
        volume._checked_dim = checked_dim


def barnes_lines() -> list[str]:
    """The log_barnesG_integral records' stdin lines: 'barnes Z' at the
    integral's own tolerance, 'barnes Z REL ABS' at Tolerance(REL, ABS)."""
    out = [f"barnes {(0.005 * k).hex()}" for k in range(1, 2000)]
    for rel, abs_ in BARNES_TOLS:
        out += [f"barnes {z.hex()} {rel.hex()} {abs_.hex()}" for z in BARNES_ZS]
    return out


def dump() -> None:
    """Read one point a line on stdin, print its record: three hex floats
    are an integrate_phi point, five one at Tolerance(REL, ABS) given by the
    last two, one is a closed-form argument z, 'barnes ...' a
    log_barnesG_integral point (see barnes_lines), and 'route2 FAMILY RANK'
    or 'key FAMILY RANK' a group."""
    from lievol.errors import LievolError
    from lievol.quad import Tolerance, integrate_phi
    from lievol.rootsys import Family, SimpleLieType
    from lievol.special import log_barnesG_integral, phi_unitary_closed_form
    from lievol.vogel import VogelPoint, key_relation_residual
    from lievol.volume import _KEY_RELATION_XS

    for line in sys.stdin:
        kind, *words = line.split()
        try:
            if kind == "barnes":
                z, *tol = map(float.fromhex, words)
                r = log_barnesG_integral(z, Tolerance(*tol) if tol else None)
            elif kind in ("route2", "key"):
                report, heights = root_data(SimpleLieType(Family(words[0]), int(words[1])))
                if kind == "route2":
                    print(report.phi_kp.hex(), report.dim, heights.dual_coxeter)
                else:
                    print(*(key_relation_residual(heights, x).hex() for x in _KEY_RELATION_XS))
                continue
            else:
                xs = [float.fromhex(x) for x in line.split()]
                if len(xs) == 1:
                    print(phi_unitary_closed_form(xs[0]).hex())
                    continue
                r = integrate_phi(VogelPoint(*xs[:3]), Tolerance(*xs[3:]))
        except LievolError as err:  # the error is the point's record
            print(f"{type(err).__name__}: {err}")
            continue
        print(r.value.hex(), r.error_estimate.hex(), r.converged, r.evaluations,
              r.tail_cutoff.hex())


def values(record: str) -> list[str]:
    """The value fields of a record: the first of a quadrature record (value,
    error estimate, converged, evaluations, cutoff), every field of another."""
    fields = record.split()
    return fields[:1] if len(fields) == 5 else fields


def max_reldiff(old: str, new: str) -> float:
    """The largest |a - b| / max(1, |a|, |b|) over the hex-float values of
    two records, paired in order, as tools/cmp_parent.sh measures the CLI's
    numbers: how far phi, ln G, phi_kp or a residual moved."""
    worst = 0.0
    for x, y in zip(values(old), values(new)):
        if x != y and "0x" in x and "0x" in y:
            u, v = float.fromhex(x), float.fromhex(y)
            worst = max(worst, abs(u - v) / max(1.0, abs(u), abs(v)))
    return worst


def records(tree: pathlib.Path, stdin: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    run = subprocess.run([sys.executable, __file__, "--dump"], input=stdin, env=env,
                         capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def main() -> int:
    if len(sys.argv) == 2 and sys.argv[1] == "--dump":
        dump()
        return 0
    if len(sys.argv) != 2 or not (pathlib.Path(sys.argv[1]) / "src" / "lievol").is_dir():
        print(f"usage: {sys.argv[0]} PARENT_DIR  (a copy of the parent commit, with src/lievol)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE / "src"))  # points and groups are read off this tree
    pts, scan_and_table, zs = points()
    route2, key = groups()
    # each kind of record: its stdin lines for --dump, and how a difference is labelled
    kinds = {
        "integrate_phi": [(" ".join(q.hex() for q in p), repr(p)) for p in pts],
        "refining integrate_phi": [
            (" ".join(q.hex() for q in (*p, rel, 1e-2 * rel)), f"{p!r} at rel {rel:g}")
            for rel in TIGHT_RELS for p in pts[:scan_and_table]
        ],
        "log_barnesG_integral": [(line, line) for line in barnes_lines()],
        "phi_unitary_closed_form": [(z.hex(), f"z = {z!r}") for z in zs],
        "route-2 (cross_check)": [(f"route2 {g}", f"route 2 of {g}") for g in route2],
        "key_relation_residual": [(f"key {g}", f"key relation of {g}") for g in key],
    }
    lines = [line for group in kinds.values() for line, _ in group]
    stdin = "".join(line + "\n" for line in lines)
    old = records(pathlib.Path(sys.argv[1]).resolve(), stdin)
    new = records(HERE, stdin)
    assert len(old) == len(new) == len(lines)
    old, new = iter(old), iter(new)
    status = 0
    for name, group in kinds.items():
        differ, worst = 0, 0.0
        # zip reads `group` first, so it stops there without a record too many
        for (_, label), a, b in zip(group, old, new):
            if a != b:
                differ += 1
                worst = max(worst, max_reldiff(a, b))
                print(f"{label}\n  < {a}\n  > {b}")
        size = f"; max |a - b| / max(1, |a|, |b|) = {worst:.2e}" if differ else ""
        print(f"{differ} of {len(group)} {name} records differ{size}")
        status |= differ > 0
    return status


if __name__ == "__main__":
    sys.exit(main())
