"""Compare integrate_phi and unitary closed-form records between this tree
and the one in PARENT_DIR, at full precision, on a seeded point set, and
list every point whose record differs. An integrate_phi record is the value
and error estimate as hex, the converged flag, the evaluation count and the
cutoff as hex; a closed-form record is special.phi_unitary_closed_form(z) as
hex. Either is the error the point raises, where it raises one.

The integrate_phi points: the three lines `scan` runs (alpha, beta = (-2, 2),
(-2, 4) and (-2, 1)) at seeded gammas, the table rows of default_groups(12),
and 2,000 unitary points (-m, m, m*z), permuted and rescaled across the
double range. The closed-form points: the integers 1..300 and
2^16 - 1 .. 2^16 + 1, 1e10, and the 40 seeded gammas of the line (-2, 2),
where z = gamma. Exit status: 0 if no record differs, 1 if one does, 2 on
bad usage.

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


def points() -> tuple[list[tuple[float, float, float]], list[float]]:
    """The integrate_phi points and the closed-form arguments z."""
    sys.path.insert(0, str(HERE / "src"))
    from lievol.rootsys import default_groups
    from lievol.vogel import vogel_point

    rng = random.Random(SEED)
    out = []
    for alpha, beta, lowest in ((-2.0, 2.0, 0.2), (-2.0, 4.0, 0.2), (-2.0, 1.0, 1.3)):
        out += [(alpha, beta, round(rng.uniform(lowest, lowest + 8.0), 3)) for _ in range(40)]
    zs = [*map(float, range(1, 301)), *map(float, range(2**16 - 1, 2**16 + 2)), 1e10,
          *(gamma for _, _, gamma in out[:40])]
    out += [vogel_point(g).params for g in default_groups(12)]
    for _ in range(UNITARY_POINTS):
        m = rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-300, 299)
        z = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-2.0, 2.0)
        point = [-m, m, m * z]
        rng.shuffle(point)
        out.append(tuple(point))
    return out, zs


def dump() -> None:
    """Read one point a line on stdin, print its record: three hex floats
    are an integrate_phi point, one is a closed-form argument z."""
    from lievol.errors import LievolError
    from lievol.quad import integrate_phi
    from lievol.special import phi_unitary_closed_form
    from lievol.vogel import VogelPoint

    for line in sys.stdin:
        xs = [float.fromhex(x) for x in line.split()]
        try:
            if len(xs) == 1:
                print(phi_unitary_closed_form(xs[0]).hex())
                continue
            r = integrate_phi(VogelPoint(*xs))
        except LievolError as err:  # the error is the point's record
            print(f"{type(err).__name__}: {err}")
            continue
        print(r.value.hex(), r.error_estimate.hex(), r.converged, r.evaluations,
              r.tail_cutoff.hex())


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
    pts, zs = points()
    keys = [*pts, *zs]
    stdin = "".join(" ".join(q.hex() for q in p) + "\n" for p in pts)
    stdin += "".join(z.hex() + "\n" for z in zs)
    old = records(pathlib.Path(sys.argv[1]).resolve(), stdin)
    new = records(HERE, stdin)
    assert len(old) == len(new) == len(keys)
    differ = [0, 0]
    for i, (key, a, b) in enumerate(zip(keys, old, new)):
        if a != b:
            closed_form = i >= len(pts)
            differ[closed_form] += 1
            print(f"{'z = ' if closed_form else ''}{key!r}\n  < {a}\n  > {b}")
    print(f"{differ[0]} of {len(pts)} integrate_phi records differ")
    print(f"{differ[1]} of {len(zs)} phi_unitary_closed_form records differ")
    return 1 if any(differ) else 0


if __name__ == "__main__":
    sys.exit(main())
