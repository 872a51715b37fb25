"""Start-up cost: the CLI path loads none of the heavy standard modules.

`import lievol.cli` is the largest per-process cost of a short command, and
`dataclasses` (with `inspect`), `fractions` (with `decimal`) and `typing`
were most of it. `argparse` (with `gettext`, and `locale` once a parser is
built) is loaded only for help, usage errors and unusual spellings. The
probe runs in `python -S`, so modules that `site` or a `.pth` file preload
cannot hide a regression, and it also runs `cli.main` on every command, so
no cost is merely moved from the import into a run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import lievol

HEAVY = (
    "dataclasses", "inspect", "fractions", "decimal", "typing", "argparse", "gettext", "locale"
)

COMMANDS = (
    ["volume", "--group", "SU", "--n", "5", "--format", "json"],
    ["check", "--max-rank", "4"],
    ["table", "--max-rank", "4", "--format", "json"],
    ["scan", "--from", "0.3", "--to", "2", "--step", "0.4"],
    ["phi", "--alpha", "-2", "--beta", "2", "--gamma", "4.5"],
)

# prints one JSON object: the heavy modules each stage added, and exit codes
PROBE = """
import io, sys
heavy = {heavy!r}

def added(before):
    return [m for m in heavy if m in sys.modules and m not in before]

before = set(sys.modules)
import lievol.cli
report = {{"import": added(before), "main": {{}}, "codes": {{}}}}
for argv in {commands!r}:
    before = set(sys.modules)
    sys.stdout = io.StringIO()
    code = lievol.cli.main(argv)
    sys.stdout = sys.__stdout__
    report["main"][" ".join(argv)] = added(before)
    report["codes"][" ".join(argv)] = code
import json  # only now, so that it cannot preload a heavy module
print(json.dumps(report))
"""


def test_cli_path_loads_no_heavy_module():
    env = dict(os.environ, PYTHONPATH=str(Path(lievol.__file__).resolve().parents[1]))
    probe = PROBE.format(heavy=HEAVY, commands=[list(a) for a in COMMANDS])
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(done.stdout)
    assert report["import"] == []
    assert report["main"] == {" ".join(argv): [] for argv in COMMANDS}
    assert report["codes"] == {" ".join(argv): 0 for argv in COMMANDS}
