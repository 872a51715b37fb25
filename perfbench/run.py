"""Closed-loop benchmark of the lievol CLI: one client, one request at a time.

    python3 perfbench/run.py --workload {large-rank,check-table,scan,all}
        --seed N --seconds S --trace {0,1} [--samples FILE]

Run from the repository root. Each request is one CLI invocation in a fresh
interpreter (perfbench/child.py), with the program imported from ./src.
The run sends whole passes over the workload's seeded request pool until S
seconds have gone by and, untraced, at least the workload's TAIL_PASSES
passes are done. It validates every output against oracles computed
before timing, and prints a report whose last line is one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The end-to-end times are scaled to a reference machine speed,
measured in every request as the interpreter's start-up (see BOOT_REF_S).
A traced run sends every request twice, traced and untraced, so that it
also reports the tracing overhead. The exit code is 1 when any
output fails validation and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import spans
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
# A pass is cut only past this, so every run ends in time.
HARD_CAP_S = 110.0
# A request that fails counts as taking this long; a request still running
# after it is killed.
REQUEST_TIMEOUT_S = 60.0
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it
# latency_tail_s is taken over the first this-many passes of a run, so that
# its percentile and sample count are the same in every run and on every
# commit: p72 of 36 requests on large-rank and check-table, p86 of 72 on
# scan. An untraced run sends at least this many passes.
TAIL_PASSES = {"large-rank": 2, "check-table": 3, "scan": 6}
# The end-to-end times are scaled to a reference machine speed. A shared host
# changes speed by up to 1.8x within minutes, and the interpreter's own
# start-up (spawn to child.py's first line, which runs no lievol code) slows
# by the same factor as lievol's work. So each request's times are multiplied
# by BOOT_REF_S over its own start-up: they read as on a machine whose
# interpreter starts in BOOT_REF_S.
BOOT_REF_S = 0.05

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
    "success_rate": "ratio",
}
LAYER_UNITS = {"calls": "count", "self_s": "s", "distinct_ratio": "ratio", "evals": "count",
               "evals_per_call": "count", "tail_cutoff_max": "abscissa", "err_over_tol": "ratio",
               "unconverged": "count", "total_s": "s", "overhead_s": "s"}


def layer_unit(name: str) -> str:
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


class Request:
    """One request: its timings and resource use, and the outcome of validation."""

    def __init__(self, argv, traced, pass_no):
        self.argv = argv
        self.traced = traced
        self.pass_no = pass_no
        self.boot_s = self.setup_s = self.main_s = self.rss_mb = math.nan
        self.items = 0
        self.digits = None
        self.spans = []
        self.error = ""

    @property
    def ok(self):
        return not self.error

    def sample(self):
        return {"argv": " ".join(self.argv), "traced": self.traced, "pass": self.pass_no,
                "boot_s": self.boot_s, "setup_s": self.setup_s,
                "main_s": self.main_s, "rss_mb": self.rss_mb, "items": self.items,
                "digits": self.digits, "error": self.error}


def spawn(root: Path, argv: list[str], traced: bool) -> tuple[int, bytes, float]:
    """Run the child on argv; (exit code, its output, its peak RSS in MB)."""
    paths = (str(root / "src"), str(HERE), os.environ.get("PYTHONPATH", ""))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    spawned = time.perf_counter_ns()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), str(spawned), "1" if traced else "0", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, cwd=root, env=env,
    )
    watchdog = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        # wait4 reaps the child and returns its own rusage (RUSAGE_CHILDREN per child)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def run_request(root, argv, want, traced, pass_no) -> Request:
    req = Request(argv, traced, pass_no)
    code, out, req.rss_mb = spawn(root, argv, traced)
    lines = out.decode(errors="replace").rstrip("\n").rsplit("\n", 1)
    try:
        record = json.loads(lines[-1])
    except ValueError:
        req.error = f"child exited {code} without a record: {out[-400:]!r}"
        return req
    req.boot_s = record["boot_ns"] / 1e9
    req.setup_s = record["setup_ns"] / 1e9
    req.main_s = record["main_ns"] / 1e9
    req.spans = record.get("spans", [])
    if record.get("missing"):
        req.error = f"functions not found to trace: {record['missing']}"
    elif record["rc"] != 0 or code != 0:
        req.error = f"exit {record['rc']}: {record['error'][-400:]}"
    else:
        try:
            req.items, req.digits = oracle.validate(argv, record["stdout"], want)
        except oracle.Mismatch as exc:
            req.error = f"wrong output: {exc}"
    return req


def measure(root, pool, expected, seconds, trace, min_passes) -> list[Request]:
    """Whole passes over the pool until `seconds` have elapsed and `min_passes` are done."""
    spawn(root, [], False)  # untimed: fills the bytecode cache
    done: list[Request] = []
    start = time.perf_counter()
    passes = 0
    while True:
        for i, argv in enumerate(pool):
            # a traced run pairs each request with an untraced one, in alternating order
            modes = ((False, True) if (passes + i) % 2 else (True, False)) if trace else (False,)
            done += [run_request(root, argv, expected[tuple(argv)], m, passes) for m in modes]
            if time.perf_counter() - start > HARD_CAP_S:
                return done
        passes += 1
        if passes >= min_passes and time.perf_counter() - start >= seconds:
            return done


def speed(req: Request) -> float:
    """The factor that scales the request's times to a start-up of BOOT_REF_S."""
    return BOOT_REF_S / req.boot_s if req.boot_s > 0.0 else 1.0


def latency(req: Request) -> float:
    """The request's command time, unscaled."""
    # a failed request counts as missing every latency limit
    return req.main_s if req.ok else REQUEST_TIMEOUT_S


def tail(reqs: list[Request], passes: int) -> tuple[float, float, int]:
    """(value, percentile, sample count) of the highest percentile with TAIL_BEYOND
    samples beyond it, over the requests of the first `passes` passes."""
    ordered = sorted(latency(r) * speed(r) for r in reqs if r.pass_no < passes)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def end_to_end(reqs: list[Request], tail_passes: int) -> dict[str, float]:
    """The end-to-end metrics, with every time scaled by its request's speed."""
    latencies = [latency(r) * speed(r) for r in reqs]
    setups = [r.setup_s * speed(r) for r in reqs if not math.isnan(r.setup_s)]
    digits = [r.digits for r in reqs if r.digits is not None]
    return {
        "setup_s": statistics.median(setups or [REQUEST_TIMEOUT_S]),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail(reqs, tail_passes)[0],
        "items_per_s": sum(r.items for r in reqs) / sum(latencies),
        "peak_rss_mb": statistics.median(r.rss_mb for r in reqs),
        "accuracy_digits": min(digits, default=oracle.DIGITS_CAP),
        "success_rate": sum(r.ok for r in reqs) / len(reqs),
    }


def share_line(name, reqs):
    """Per-request breakdown of a traced run: root-system work and its share."""
    m = spans.layer_metrics([r.spans for r in reqs])
    heavy = sum(v for k, v in m.items() if k.startswith("rootsys.") and k.endswith(".self_s"))
    heavy += m["volume.phi_kp.self_s"]
    total = m["cli.main.total_s"]
    return (f"  {name:<48} build={m['rootsys.build_root_system.calls']:g} "
            f"rho={m['rootsys.rho_pairings_killing.calls']:g} "
            f"pairings={m['rootsys.minimal_pairing.calls']:g} "
            f"main={total:.4f}s rootsys+phi_kp share={heavy / total if total else 0:.3f}")


def run_workload(root, workload, seed, seconds, trace) -> tuple[dict, dict]:
    pool = workloads.make_pool(workload, seed)
    expected = {tuple(argv): oracle.expect(argv) for argv in pool}
    tail_passes = TAIL_PASSES[workload]
    reqs = measure(root, pool, expected, seconds, trace, 1 if trace else tail_passes)
    untraced = [r for r in reqs if not r.traced]
    traced = [r for r in reqs if r.traced]
    failed = [r for r in reqs if not r.ok]
    e2e = end_to_end(untraced, tail_passes)
    boot = statistics.median([r.boot_s for r in untraced if r.boot_s > 0.0] or [math.nan])
    _, pct, tail_n = tail(untraced, tail_passes)

    n = len(untraced)
    print(f"workload {workload} seed {seed}: {len(pool)} requests per pass, "
          f"{n} untraced and {len(traced)} traced requests, {len(failed)} failed")
    for r in failed[:5]:
        print(f"  FAILED {' '.join(r.argv)}: {r.error}")
    print(f"  interpreter start-up {boot:.6g} s (median); the times below are scaled "
          f"by {BOOT_REF_S} s over each request's own start-up")
    for name, value in e2e.items():
        note = f"  (p{pct:.1f} of the first {tail_passes} passes, n={tail_n})" \
            if name == "latency_tail_s" else f"  (n={n})"
        print(f"  {name:<16} {value:.6g} {E2E_UNITS[name]}{note}")
    print(f"  error_rate       {len(failed) / len(reqs):.6g} ratio")
    if trace:
        metrics = spans.layer_metrics([r.spans for r in traced])
        metrics["trace.overhead_s"] = (statistics.median(map(latency, traced))
                                       - statistics.median(map(latency, untraced)))
        for name, value in metrics.items():
            print(f"  {name:<52} {value:.6g} {layer_unit(name)}")
        for argv in dict.fromkeys(" ".join(r.argv) for r in traced):
            print(share_line(argv, [r for r in traced if " ".join(r.argv) == argv]))
        units = {k: layer_unit(k) for k in metrics}
    else:
        metrics, units = e2e, E2E_UNITS
    return {
        "correct": not failed,
        "attempted": len(reqs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }, {
        "latency_tail": {"percentile": pct, "samples": tail_n},
        "boot_s": boot,
        "requests": [r.sample() for r in reqs],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--samples", help="write each workload's raw request samples and "
                        "tail percentile to this file")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lievol" / "cli.py").is_file():
        print("run.py: no src/lievol here; run it from the repository root", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = [run_workload(root, name, args.seed, args.seconds, bool(args.trace)) for name in names]
    if args.samples:
        Path(args.samples).write_text(
            json.dumps({name: record for name, (_, record) in zip(names, runs)}) + "\n")
    results = [result for result, _ in runs]
    for result in results:
        print(json.dumps(result))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
