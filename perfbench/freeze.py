"""Regenerate frozen.json: volume reports the benchmark has no exact oracle for.

Freezes every non-SU group of the large-rank ladder and every non-SU row of
`table --max-rank 9`, as the CLI prints them. Run from the repository root
at the commit whose values are to be frozen:

    python3 perfbench/freeze.py <commit>
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from lievol import cli  # noqa: E402

from workloads import CHECK_TABLE_RANKS, LARGE_RANK_BC, LARGE_RANK_D  # noqa: E402

KEYS = ("dim", "log_volume", "phi_universal", "phi_kp")


def cli_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if cli.main(argv) != 0:
            raise SystemExit(f"lievol {' '.join(argv)} failed")
    return json.loads(out.getvalue())


def main(commit: str) -> None:
    rows = cli_json(["table", "--max-rank", str(max(CHECK_TABLE_RANKS)), "--format", "json"])
    groups = [("Sp", 2 * r) for r in LARGE_RANK_BC] + [("Spin", 2 * r + 1) for r in LARGE_RANK_BC]
    groups += [("Spin", 2 * r) for r in LARGE_RANK_D]
    rows += [cli_json(["volume", "--group", g, "--n", str(n), "--format", "json"]) for g, n in groups]
    groups = {r["group"]: {k: r[k] for k in KEYS} for r in rows if not r["group"].startswith("SU_")}
    (HERE / "frozen.json").write_text(
        json.dumps({"commit": commit, "groups": groups}, indent=1) + "\n"
    )


if __name__ == "__main__":
    main(sys.argv[1])
