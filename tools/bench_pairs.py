"""Run perfbench/run.py in alternating parent/change pairs and summarize them.

    python3 tools/bench_pairs.py PARENT_DIR --workload W --pairs N --seconds S
        --seed-base B [--claim METRIC] [--out FILE]

PARENT_DIR is a copy of the parent commit (`git archive PARENT | tar -x -C
PARENT_DIR`); the change is the tree this script lives in. Pair i runs
`perfbench/run.py --workload W --seed B+i --seconds S --trace 0` in each
tree, from its root, the parent first on even i and the change first on odd
i. Every run has PYTHONDONTWRITEBYTECODE=1, and the `__pycache__` folders
under each tree's src and perfbench are removed first, so every request
compiles the package, as when no bytecode cache is written.

It prints, per end-to-end metric, each side's median and quartiles and the
pairs the change wins (better by the metric's direction; a tie counts for
neither side), and each side's failed requests. With --claim METRIC it
prints the verdict on that metric: the change must win at least 9 of 10
pairs, and its median must beat the parent's by more than the parent's
interquartile range. Every other metric gets a verdict against its bound
in BENCHMARK.json, a share of the parent's median: "WORSE" if the change's
median is worse than the parent's by more than the bound; else "unresolved"
if the parent's interquartile range is wider than the bound, unless every
change run is better than every parent run; else "within bound".
--out FILE writes every run as a JSON object (workload, seed, tree, failed,
attempted and the metrics) to FILE's "runs" list, added to the runs already
there. Exit status: 0, or 1 if a claim fails, a metric is WORSE or a run
ends without a report, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent.parent
# the end-to-end metrics of perfbench/run.py, whether lower is better, and
# the largest share of the parent's median by which the change may be worse
END_TO_END = json.loads((HERE / "BENCHMARK.json").read_text())["end_to_end"]
LOWER_IS_BETTER = {m["name"]: m["better"] == "lower" for m in END_TO_END}
BOUNDS = {m["name"]: m["bound"] for m in END_TO_END}
# the share of pairs a claimed metric must win
CLAIM_WIN_SHARE = 0.9


def run_once(side: str, tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in `tree`, as one record of the runs list."""
    for cache in [*tree.glob("src/**/__pycache__"), *tree.glob("perfbench/__pycache__")]:
        shutil.rmtree(cache)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    try:
        report = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"no report from {tree} (exit {done.returncode}):\n"
                         f"{done.stdout[-800:]}{done.stderr[-800:]}") from None
    metrics = {name: m["value"] for name, m in report["metrics"].items()}
    return {"workload": workload, "seed": seed, "tree": side, "failed": report["failed"],
            "attempted": report["attempted"], **metrics}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by the inclusive method."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def bound_verdict(parent: list[float], change: list[float], lower: bool, bound: float
                  ) -> tuple[float, float, str]:
    """How much worse the change's median is than the parent's, and the
    parent's interquartile range, both as shares of the parent's median,
    and the verdict against the bound: "WORSE", "unresolved" or "within
    bound" (see the module docstring)."""
    pq1, pmed, pq3 = quartiles(parent)
    cmed = statistics.median(change)
    scale = abs(pmed) or 1.0
    worse = (cmed - pmed if lower else pmed - cmed) / scale
    spread = (pq3 - pq1) / scale
    if worse > bound:
        return worse, spread, "WORSE"
    all_better = max(change) < min(parent) if lower else min(change) > max(parent)
    if spread > bound and not all_better:
        return worse, spread, "unresolved"
    return worse, spread, "within bound"


def summarize(runs: list[dict], claim: str | None = None) -> tuple[list[str], bool]:
    """The summary lines of the runs, which pair by seed, and whether the
    claim on the metric `claim` holds (True where there is no claim) and no
    other metric is WORSE than its bound."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["seed"], {})[run["tree"]] = run
    pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
    n = len(pairs)
    lines = [f"{n} pairs"]
    held, judged, worse_seen = claim is None, False, False
    for name, lower in LOWER_IS_BETTER.items():
        if not all(name in p["parent"] and name in p["change"] for p in pairs) or not n:
            continue
        sides = {tree: quartiles([p[tree][name] for p in pairs]) for tree in ("parent", "change")}
        wins = sum(
            p["change"][name] < p["parent"][name] if lower
            else p["change"][name] > p["parent"][name]
            for p in pairs
        )
        (pq1, pmed, pq3), (cq1, cmed, cq3) = sides["parent"], sides["change"]
        change = (cmed - pmed) / pmed if pmed else 0.0
        lines.append(
            f"{name:<16} parent {pmed:.6g} [{pq1:.6g}, {pq3:.6g}]  change {cmed:.6g} "
            f"[{cq1:.6g}, {cq3:.6g}]  {change:+.2%}  change wins {wins}/{n}"
        )
        if name == claim:
            gap = pmed - cmed if lower else cmed - pmed
            iqr = pq3 - pq1
            held, judged = wins >= CLAIM_WIN_SHARE * n and gap > iqr, True
            lines.append(
                f"claim {name}: {wins}/{n} wins (need {CLAIM_WIN_SHARE * n:g}), median gap "
                f"{gap:.6g} against a parent IQR of {iqr:.6g}: {'MET' if held else 'NOT MET'}"
            )
        else:
            worse, spread, verdict = bound_verdict(
                [p["parent"][name] for p in pairs], [p["change"][name] for p in pairs], lower,
                BOUNDS[name],
            )
            worse_seen |= verdict == "WORSE"
            lines.append(
                f"bound {name}: {worse:+.2%} worse, parent IQR {spread:.2%}, "
                f"bound {BOUNDS[name]:.0%}: {verdict}"
            )
    if claim is not None and not judged:
        lines.append(f"claim {claim}: no pair reports it: NOT MET")
    for tree in ("parent", "change"):
        failed = [p[tree]["failed"] for p in pairs]
        lines.append(f"failed requests, {tree}: {sum(failed)} in {sum(map(bool, failed))} runs")
    return lines, held and not worse_seen


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path, metavar="PARENT_DIR")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--claim", choices=tuple(LOWER_IS_BETTER))
    parser.add_argument("--out", type=pathlib.Path)
    args = parser.parse_args(argv)
    if not (args.parent / "perfbench" / "run.py").is_file():
        parser.error(f"{args.parent} has no perfbench/run.py")
    trees = {"parent": args.parent.resolve(), "change": HERE}
    runs = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for tree in order:
            runs.append(run_once(tree, trees[tree], args.workload, seed, args.seconds))
            print(json.dumps(runs[-1]), flush=True)
    lines, held = summarize(runs, args.claim)
    print("\n".join(lines))
    if args.out:
        record = json.loads(args.out.read_text()) if args.out.exists() else {}
        record.setdefault("runs", []).extend(runs)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if held else 1


if __name__ == "__main__":
    sys.exit(main())
