#!/bin/sh
# Run each command of tools/cli_commands.txt with this tree's lievol and with
# the one in PARENT_DIR, and list every command whose stdout, stderr or exit
# code differs, with a diff (parent lines '<', this tree '>'). For stdout it
# also prints the largest relative difference between the numbers of the
# lines that differ, overall and per field (see max_reldiff), so that a
# last-bit move of phi reads as one number.
# Exit status: 0 if nothing differs, 1 if something does, 2 on bad usage.
#
#   git archive PARENT_COMMIT | tar -x -C PARENT_DIR
#   tools/cmp_parent.sh PARENT_DIR
#
# This tree runs under $PYTHON (default python3), the parent always under
# python3. Given this tree as PARENT_DIR, that compares interpreters: this
# tree under another Python against itself under python3.
#
#   PYTHON=/path/to/python3.12 tools/cmp_parent.sh .
set -u -f
if [ $# -ne 1 ] || [ ! -d "$1/src/lievol" ]; then
    echo "usage: $0 PARENT_DIR  (a copy of the parent commit, with src/lievol)" >&2
    exit 2
fi
here=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "$1" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# The largest |a - b| / max(1, |a|, |b|), the measure of the route bounds,
# over the numbers of the lines of files $1 and $2 that differ, paired in
# order: a route discrepancy of ~1e-15 that moves reads as its absolute move,
# not as a relative one of ~1. It says so where the numbers do not pair.
# Below that line it gives the largest move of each field, so that an error
# estimate does not hide the phi move beside it. A number's field is its
# JSON key on a JSON line, its column on a line with the cells of a header
# line (a first line without numbers), and else the text before it, since
# the previous number.
max_reldiff() {
    python3 - "$1" "$2" <<'END'
import json, re, sys
number = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")
old, new = (open(name).read().splitlines() for name in sys.argv[1:])
header = old[0] if old and not number.search(old[0]) else None
sep = "," if header and "," in header else None
columns = header.split(sep) if header else []


def json_numbers(value, key):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from json_numbers(v, k)
    elif isinstance(value, list):
        for v in value:
            yield from json_numbers(v, key)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield key, repr(value)


def fields(line):
    """(field, number text) for each number of a line."""
    if line[:1] in ("{", "["):
        try:
            return list(json_numbers(json.loads(line), "?"))
        except ValueError:
            pass
    cells = line.split(sep)
    if len(columns) > 1 and len(cells) == len(columns):
        return [(col, x) for col, cell in zip(columns, cells) for x in number.findall(cell)]
    out, start = [], 0
    for m in number.finditer(line):
        out.append((" ".join(line[start:m.start()].split()).strip(" :=,;") or "?", m.group()))
        start = m.end()
    return out


# field -> [largest move, its numbers, numbers moved]; "" is every field
worst = {"": [0.0, None, 0]}
unpaired = len(old) != len(new)
for a, b in zip(old, new):
    if a != b:
        xs, ys = fields(a), fields(b)
        unpaired |= (len(xs) != len(ys) or number.sub("#", a) != number.sub("#", b)
                     or [f for f, _ in xs] != [f for f, _ in ys])
        for (field, x), (_, y) in zip(xs, ys):
            u, v = float(x), float(y)
            if u != v and u == u and v == v:
                size = abs(u - v) / max(1.0, abs(u), abs(v))
                for key in ("", field):
                    row = worst.setdefault(key, [0.0, None, 0])
                    row[2] += 1
                    if size >= row[0]:
                        row[:2] = size, f" (worst {x} -> {y})"
size, pair, moved = worst.pop("")
print(f"max |a - b| / max(1, |a|, |b|) = {size:.2e} over {moved} numbers{pair or ''}"
      + ("; the lines differ in more than their numbers" if unpaired else ""))
for field, (size, pair, moved) in worst.items():
    print(f"  {field}: {size:.2e} over {moved} numbers{pair}")
END
}

status=0
while IFS= read -r cmd; do
    case $cmd in '' | '#'*) continue ;; esac
    for tree in here parent; do
        eval "src=\$$tree/src"
        python=python3
        [ $tree = here ] && python=${PYTHON:-python3}
        # $cmd is split into words on purpose: each line is one argument list.
        # A command that runs away in one tree ends at 1 GB of address space
        # or after 120 s (exit 124), and shows as a difference. COLUMNS is
        # unset so that a tree whose help reads it wraps at argparse's default
        (cd "$work" && ulimit -v 1000000 \
            && env -u LIEVOL_TOL -u COLUMNS PYTHONPATH="$src" timeout 120 "$python" -B -m lievol $cmd \
            >"$tree.out" 2>"$tree.err" </dev/null; echo $? >"$tree.code")
    done
    for part in out err code; do
        if ! cmp -s "$work/parent.$part" "$work/here.$part"; then
            echo "DIFF $part: $cmd"
            diff "$work/parent.$part" "$work/here.$part" | sed 's/^/    /'
            if [ $part = out ]; then
                max_reldiff "$work/parent.out" "$work/here.out" | sed 's/^/    /'
            fi
            status=1
        fi
    done
done <"$here/tools/cli_commands.txt"
exit $status
