#!/bin/sh
# Run the tier-1 suite under pyenv's 3.11.7, 3.12.1 and 3.13.0, one after
# another, and print one line per interpreter: its version and pytest's
# summary, "N passed" or "N failed, M passed". Each run has this tree's src
# and then the site-packages of the default python3 on PYTHONPATH, so every
# interpreter uses the one installed pytest, hypothesis and mpmath.
# Exit status: 0 if every run passed, 1 if one did not.
#
#   tools/tier1_versions.sh
set -u
here=$(cd "$(dirname "$0")/.." && pwd)
site=$(python3 -c 'import sysconfig; print(sysconfig.get_paths()["purelib"])')
status=0
for version in 3.11.7 3.12.1 3.13.0; do
    out=$(cd "$here" && PYTHONPATH="src:$site" \
        "${PYENV_ROOT:-$HOME/.pyenv}/versions/$version/bin/python3" -m pytest -q \
        -p no:cacheprovider --continue-on-collection-errors 2>&1) || status=1
    echo "$version: $(printf '%s\n' "$out" | tail -n 1)"
done
exit $status
