"""Record the benchmark's baseline: two sets of ten seeds on every workload.

    python3 perfbench/baseline.py --commit C

Run from the repository root; the record goes to perfbench/baseline.json.
Each run is one `run.py` invocation, as BENCHMARK.json gives it. Set 1 runs
seeds 1-10 and then set 2 seeds 11-20. Within a set the workloads take turns
seed by seed, each one going first in turn, so that a drift
in the machine's speed falls on every workload rather than on one. For every
end-to-end metric the script prints, per set, the median over its ten runs
and the spread, the distance between the first and third quartile as a share
of the median, and then how much worse set 2's median is than set 1's, next
to the metric's regression bound. One traced run per workload, on seed 1,
adds the per-layer metrics. The record keeps every run's metrics, its tail
percentile and sample count, its median interpreter start-up and its raw
request samples.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETS = (range(1, 11), range(11, 21))
OUT = HERE / "baseline.json"


def invoke(workload, seed, trace):
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        samples = Path(tmp) / "samples.json"
        cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
                                 "--samples", str(samples)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        record = json.loads(samples.read_text())[workload]
    result["exit_code"] = proc.returncode
    result["latency_tail"] = record["latency_tail"]
    result["boot_s"] = record["boot_s"]
    result["samples"] = compact(record["requests"])
    return result


def compact(samples):
    """Raw samples as one row per request under a shared header."""
    fields = list(samples[0]) if samples else []
    return {"fields": fields, "rows": [[s[f] for f in fields] for s in samples]}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


_FLAT_LIST = re.compile(r"\[[^\[\]{}]*\]")


def dump(record):
    """Indented JSON with every innermost list, such as a sample row, on one line."""
    def flat(match):
        try:
            return json.dumps(json.loads(match.group(0)))
        except ValueError:  # brackets inside a string: leave the text as it is
            return match.group(0)

    return _FLAT_LIST.sub(flat, json.dumps(record, indent=1)) + "\n"


def summarize(runs):
    """Per end-to-end metric: each set's median and spread, and set 2 against set 1."""
    summary = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        per_set = [[r["metrics"][name]["value"] for r in runs if r["set"] == k]
                   for k in range(1, len(SETS) + 1)]
        medians = [statistics.median(v) for v in per_set]
        summary[name] = {"medians": medians, "spreads": [spread(v) for v in per_set],
                         "set2_worse_by": worse_by(metric, *medians), "bound": metric["bound"]}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True, help="the commit being measured")
    args = parser.parse_args()

    names = [w["name"] for w in SPEC["workloads"]]
    record = {"commit": args.commit, "python": platform.python_version(),
              "nproc": os.cpu_count(), "run_seconds": SPEC["run_seconds"],
              "sets": [[s.start, s.stop - 1] for s in SETS],
              "workloads": {name: {"runs": []} for name in names}}
    ok = True
    for number, seeds in enumerate(SETS, 1):
        for i, seed in enumerate(seeds):
            for workload in names[i % len(names):] + names[:i % len(names)]:
                run = dict(invoke(workload, seed, 0), set=number, seed=seed)
                ok &= run["correct"] and run["exit_code"] == 0
                record["workloads"][workload]["runs"].append(run)
                print(workload, seed, {k: round(v["value"], 6) for k, v in run["metrics"].items()},
                      flush=True)
                OUT.write_text(dump(record))
    for workload in names:
        entry = record["workloads"][workload]
        entry["summary"] = summarize(entry["runs"])
        print(workload)
        for name, s in entry["summary"].items():
            print(f"  {name:<16} medians {s['medians'][0]:<10.6g} {s['medians'][1]:<10.6g} "
                  f"spreads {s['spreads'][0]:.4f} {s['spreads'][1]:.4f} "
                  f"set 2 worse by {s['set2_worse_by']:+.4f}  bound {s['bound']}")
        traced = invoke(workload, SETS[0][0], 1)
        ok &= traced["correct"]
        entry["traced"] = {"seed": SETS[0][0],
                           **{k: v for k, v in traced.items() if k != "samples"}}
        OUT.write_text(dump(record))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
