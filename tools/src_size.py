"""Print the size of the lievol package: lines and non-blank, non-comment
lines in src/lievol/*.py, and the number of names in lievol.__all__.

    python3 tools/src_size.py
"""

import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    lines = [
        line
        for path in sorted((SRC / "lievol").glob("*.py"))
        for line in path.read_text().splitlines()
    ]
    code = [line for line in lines if line.strip() and not line.lstrip().startswith("#")]
    sys.path.insert(0, str(SRC))
    import lievol

    print(f"lines {len(lines):,}")
    print(f"non-blank, non-comment lines {len(code):,}")
    print(f"names in lievol.__all__ {len(lievol.__all__)}")


if __name__ == "__main__":
    main()
