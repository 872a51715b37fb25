#!/bin/sh
# Run each command of tools/cli_commands.txt with this tree's lievol and with
# the one in PARENT_DIR, and list every command whose stdout, stderr or exit
# code differs, with a diff (parent lines '<', this tree '>').
# Exit status: 0 if nothing differs, 1 if something does, 2 on bad usage.
#
#   git archive PARENT_COMMIT | tar -x -C PARENT_DIR
#   tools/cmp_parent.sh PARENT_DIR
set -u -f
if [ $# -ne 1 ] || [ ! -d "$1/src/lievol" ]; then
    echo "usage: $0 PARENT_DIR  (a copy of the parent commit, with src/lievol)" >&2
    exit 2
fi
here=$(cd "$(dirname "$0")/.." && pwd)
parent=$(cd "$1" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
status=0
while IFS= read -r cmd; do
    case $cmd in '' | '#'*) continue ;; esac
    for tree in here parent; do
        eval "src=\$$tree/src"
        # $cmd is split into words on purpose: each line is one argument list
        (cd "$work" && env -u LIEVOL_TOL PYTHONPATH="$src" python3 -B -m lievol $cmd \
            >"$tree.out" 2>"$tree.err" </dev/null; echo $? >"$tree.code")
    done
    for part in out err code; do
        if ! cmp -s "$work/parent.$part" "$work/here.$part"; then
            echo "DIFF $part: $cmd"
            diff "$work/parent.$part" "$work/here.$part" | sed 's/^/    /'
            status=1
        fi
    done
done <"$here/tools/cli_commands.txt"
exit $status
