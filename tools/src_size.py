"""Print the size of the lievol package: lines and non-blank, non-comment
lines in src/lievol/*.py, the number of names in lievol.__all__, and the
median time of 21 compile() calls of each module and the sum of those
medians. A process that finds no bytecode cache (for example under
PYTHONDONTWRITEBYTECODE=1, where none is ever written) pays about that sum
on every import of the package.

    python3 tools/src_size.py
"""

import gc
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


def main() -> None:
    paths = sorted((SRC / "lievol").glob("*.py"))
    lines = [line for path in paths for line in path.read_text().splitlines()]
    code = [line for line in lines if line.strip() and not line.lstrip().startswith("#")]
    sys.path.insert(0, str(SRC))
    import lievol

    print(f"lines {len(lines):,}")
    print(f"non-blank, non-comment lines {len(code):,}")
    print(f"names in lievol.__all__ {len(lievol.__all__)}")
    medians = {path.name: compile_s(path) for path in paths}
    for name, seconds in medians.items():
        print(f"compile {name} {seconds * 1e3:.3f} ms")
    print(f"compile total {sum(medians.values()) * 1e3:.3f} ms (median of {COMPILES} per module)")


if __name__ == "__main__":
    main()
