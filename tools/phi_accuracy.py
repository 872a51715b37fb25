"""Score phi against mpmath in this tree and in the one in PARENT_DIR.

tools/cmp_phi.py says which bits of phi moved; this says whether they moved
toward the truth. It changes no file.

The points: cmp_phi.points()'s scan, table and ladder points, and a seeded
150 of its rescaled unitary points. Each tree's integrate_phi(p).value is
scored against perfbench/oracle.py's phi_point(p), an mpmath integral of
the universal integrand at 30 digits, by |value - ref| / max(1, |ref|), the
measure of the oracle's accuracy digits. For each tree it prints the mean,
median and max of that error, and for this tree how many points moved
closer to the reference than in the parent and how many farther. A point
that either tree or the oracle refuses is counted and left out.

It then runs, in each tree, the requests that perfbench/run.py validates
with accuracy digits: `table --max-rank 4 ... 9` (check-table's tables),
the large-rank pool of seed 1 and the scan pools of seeds 1 ... 8, and
prints the least digits oracle.validate gives on each.

    git archive PARENT_COMMIT | tar -x -C PARENT_DIR
    python3 tools/phi_accuracy.py PARENT_DIR

Exit status: 0, or 2 on bad usage. It takes a few minutes, nearly all in
the mpmath integrals.
"""

import os
import pathlib
import random
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent.parent
# no bytecode cache, here or in the trees' processes, so that no file changes
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.path[:0] = [str(HERE / "tools"), str(HERE / "perfbench")]

import cmp_phi  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SEED = 20261020
UNITARY_SAMPLE = 150
SCAN_SEEDS = range(1, 9)


def phi_points() -> list[tuple[float, float, float]]:
    sys.path.insert(0, str(HERE / "src"))  # the points are read off this tree
    pts, scan_and_table, _ = cmp_phi.points()
    return pts[:scan_and_table] + random.Random(SEED).sample(pts[scan_and_table:], UNITARY_SAMPLE)


def phi_values(tree: pathlib.Path, pts) -> list[float | None]:
    """integrate_phi(p).value in `tree` for each point, None where it raises."""
    stdin = "".join(" ".join(q.hex() for q in p) + "\n" for p in pts)
    return [None if ":" in line else float.fromhex(line.split()[0])
            for line in cmp_phi.records(tree, stdin)]


def reference(p) -> float | None:
    try:
        return oracle.phi_point(*p)
    except ArithmeticError:  # the oracle's own error estimate is too large
        return None


def pools() -> list[tuple[str, list[list[str]]]]:
    out = [("table --max-rank 4-9",
            [["table", "--max-rank", str(r), "--format", "json"]
             for r in workloads.CHECK_TABLE_RANKS]),
           ("large-rank seed 1", workloads.make_pool("large-rank", 1))]
    return out + [(f"scan seed {s}", workloads.make_pool("scan", s)) for s in SCAN_SEEDS]


def digits(tree: pathlib.Path, pool: list[list[str]]) -> str:
    """The least accuracy digits of the pool's requests run in `tree`, or
    the first failure."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    least = oracle.DIGITS_CAP
    for argv in pool:
        run = subprocess.run([sys.executable, "-B", "-m", "lievol", *argv], env=env,
                             capture_output=True, text=True)
        if run.returncode != 0:
            return f"exit {run.returncode} on {' '.join(argv)}"
        try:
            _, got = oracle.validate(argv, run.stdout, oracle.expect(argv))
        except oracle.Mismatch as err:
            return f"mismatch on {' '.join(argv)}: {err}"
        least = least if got is None else min(least, got)
    return f"{least:.4f}"


def main() -> int:
    if len(sys.argv) != 2 or not (pathlib.Path(sys.argv[1]) / "src" / "lievol").is_dir():
        print(f"usage: {sys.argv[0]} PARENT_DIR  (a copy of the parent commit, with src/lievol)",
              file=sys.stderr)
        return 2
    parent = pathlib.Path(sys.argv[1]).resolve()
    pts = phi_points()
    old, new = phi_values(parent, pts), phi_values(HERE, pts)
    errors = []  # (parent error, this tree's error) per scored point
    for p, a, b in zip(pts, old, new):
        ref = reference(p)
        if None not in (a, b, ref):
            scale = max(1.0, abs(ref))
            errors.append((abs(a - ref) / scale, abs(b - ref) / scale))
    print(f"{len(errors)} of {len(pts)} points scored; "
          "error = |phi - oracle.phi_point| / max(1, |phi_point|)")
    for name, errs in (("parent", [e for e, _ in errors]), ("this tree", [e for _, e in errors])):
        print(f"{name:>9}: mean {statistics.fmean(errs):.3e}  median {statistics.median(errs):.3e}"
              f"  max {max(errs):.3e}")
    closer = sum(b < a for a, b in errors)
    farther = sum(b > a for a, b in errors)
    print(f"this tree: {closer} points closer, {farther} farther, "
          f"{len(errors) - closer - farther} as close")
    print("accuracy_digits (least over the pool): parent -> this tree")
    for name, pool in pools():
        print(f"  {name}: {digits(parent, pool)} -> {digits(HERE, pool)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
