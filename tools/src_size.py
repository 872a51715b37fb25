"""Print the size of the lievol package: lines and non-blank, non-comment
lines in src/lievol/*.py, the number of names in the __all__ of the
package and of each module that has one (read from the source, so nothing
is imported), and the median time of 21 compile() calls of each module and
the sum of those medians. A process that finds no bytecode cache (for
example under PYTHONDONTWRITEBYTECODE=1, where none is ever written) pays
about that sum on every import of the package. A reader that closes the
pipe early (`| head -3`) ends it with exit status 1 and no traceback.

    python3 tools/src_size.py
"""

import ast
import gc
import os
import pathlib
import statistics
import sys
import time

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
COMPILES = 21


def compile_s(path: pathlib.Path) -> float:
    """The median time of COMPILES compile() calls of the module at `path`,
    with the garbage collector off, as timeit runs."""
    text = path.read_text()
    times = []
    gc.disable()
    try:
        for _ in range(COMPILES):
            start = time.perf_counter()
            compile(text, str(path), "exec", dont_inherit=True)
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def all_names(path: pathlib.Path) -> list[str] | None:
    """The literal list assigned to __all__ at the top level of the module at
    `path`, or None if it assigns none."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def main() -> None:
    paths = sorted((SRC / "lievol").glob("*.py"))
    lines = [line for path in paths for line in path.read_text().splitlines()]
    code = [line for line in lines if line.strip() and not line.lstrip().startswith("#")]
    print(f"lines {len(lines):,}")
    print(f"non-blank, non-comment lines {len(code):,}")
    for path in paths:
        names = all_names(path)
        if names is not None:
            module = "lievol" if path.stem == "__init__" else path.stem
            print(f"names in {module}.__all__ {len(names)}")
    medians = {path.name: compile_s(path) for path in paths}
    for name, seconds in medians.items():
        print(f"compile {name} {seconds * 1e3:.3f} ms")
    print(f"compile total {sum(medians.values()) * 1e3:.3f} ms (median of {COMPILES} per module)")


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except BrokenPipeError:
        # as lievol.cli.main does: stdout now writes to devnull, so that the
        # flush at shutdown cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
