#!/usr/bin/env bash
# Prints the non-test, non-blank Rust lines of every crate under `crates/`,
# then their total.
#
# A file's non-test lines are the non-blank lines above its first
# `#[cfg(test)]`; files under a `tests/` directory do not count, and the
# benchmark (`benchmark/`, outside `crates/`) is not measured.
#
# Usage: scripts/loc.sh [crate ...]   (default: every crate)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- $(ls crates)
fi

total=0
for crate in "$@"; do
    dir="crates/$crate"
    [ -d "$dir" ] || { echo "loc.sh: no crate at $dir" >&2; exit 2; }
    n=$(find "$dir" -name '*.rs' -not -path '*/tests/*' -print0 \
        | xargs -0 -r awk '
            FNR == 1 { counting = 1 }
            /#\[cfg\(test\)\]/ { counting = 0 }
            counting && NF > 0 { n++ }
            END { print n + 0 }' \
        | awk '{ s += $1 } END { print s + 0 }')
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
