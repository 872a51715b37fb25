"""Seeded request pools for the three benchmark workloads.

A pool is the list of CLI argument vectors one pass of a run sends, in
order. The same seed always gives the same pool. Seeds vary the inputs only
where the cost stays the same (B_r against C_r, scan grids in narrow ranges,
the order of a fixed rank set), because pools whose mix changed with the
seed moved a run's median latency by up to 2x.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("large-rank", "check-table", "scan")

# One pass of large-rank is a fixed ladder over 100-300 positive roots. The
# seed picks, on every B/C rung, Sp_2r (C_r) or Spin_2r+1 (B_r): the two have
# the same rank and root count and cost within ~10% of each other, so the
# seed changes the groups but not the run's medians.
LARGE_RANK_SU = (15, 17, 19, 21, 23, 25)  # SU_n: A_{n-1}, 105..300 roots
LARGE_RANK_BC = (10, 11, 12, 13, 14, 15, 16, 17)  # rank r: 100..289 roots
LARGE_RANK_D = (11, 13, 15, 17)  # Spin_2r: D_r, 110..272 roots

CHECK_TABLE_RANKS = range(4, 10)

# (alpha, beta or None for the unitary default, requests, rows, lowest start).
# Narrow start and step ranges give every request of a line the same cost,
# and the row counts make the lines cost about the same: a unitary row (phi
# and Barnes integrals) costs ~1.7x an off-unitary one (phi only).
SCAN_LINES = (
    (None, None, 8, 14, 0.2),
    (-2.0, 4.0, 2, 24, 0.2),
    (-2.0, 1.0, 2, 24, 1.3),  # t = gamma - 1 stays away from 0
)
SCAN_STEPS = (0.25, 0.3)
SCAN_START_WIDTH = 0.6
# every grid point keeps this distance from the integers, so unitary rows
# take the Barnes-integral reference rather than the factorial oracle
SCAN_INTEGER_GAP = 0.02


def large_rank(rng: random.Random) -> list[list[str]]:
    groups = [("SU", n) for n in LARGE_RANK_SU]
    groups += [("Sp", 2 * r) if rng.randrange(2) else ("Spin", 2 * r + 1) for r in LARGE_RANK_BC]
    groups += [("Spin", 2 * r) for r in LARGE_RANK_D]
    pool = [["volume", "--group", g, "--n", str(n), "--format", "json"] for g, n in groups]
    rng.shuffle(pool)
    return pool


def check_table(rng: random.Random) -> list[list[str]]:
    checks = list(CHECK_TABLE_RANKS)
    tables = list(CHECK_TABLE_RANKS)
    rng.shuffle(checks)
    rng.shuffle(tables)
    pool = []
    for rc, rt in zip(checks, tables):
        pool.append(["check", "--max-rank", str(rc)])
        pool.append(["table", "--max-rank", str(rt), "--format", "json"])
    return pool


def scan_grid(argv: list[str]) -> list[float]:
    """The gamma values a scan request prints, computed as the CLI defines them."""
    start = float(argv[argv.index("--from") + 1])
    stop = float(argv[argv.index("--to") + 1])
    step = float(argv[argv.index("--step") + 1])
    count = math.floor((stop - start) / step + 1e-9) + 1
    return [start + i * step for i in range(max(count, 0))]


def _scan_request(rng, alpha, beta, rows, lowest):
    while True:
        start = round(rng.uniform(lowest, lowest + SCAN_START_WIDTH), 3)
        step = round(rng.uniform(*SCAN_STEPS), 3)
        gammas = [start + i * step for i in range(rows)]
        if all(abs(g - round(g)) >= SCAN_INTEGER_GAP for g in gammas):
            break
    # the stop sits half a step past the last row, away from the count's rounding
    argv = ["scan", "--from", repr(start), "--to", f"{start + (rows - 0.5) * step:.6f}",
            "--step", repr(step)]
    if alpha is not None:
        argv += ["--alpha", repr(alpha), "--beta", repr(beta)]
    return argv


def scan(rng: random.Random) -> list[list[str]]:
    pool = [
        _scan_request(rng, alpha, beta, rows, lowest)
        for alpha, beta, requests, rows, lowest in SCAN_LINES
        for _ in range(requests)
    ]
    rng.shuffle(pool)
    return pool


_GENERATORS = {"large-rank": large_rank, "check-table": check_table, "scan": scan}


def make_pool(workload: str, seed: int) -> list[list[str]]:
    """The request pool of one workload for one seed."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
