#!/usr/bin/env bash
# Prints the non-test, non-blank Rust lines of every crate under `crates/`,
# then their total.
#
# A file's non-test lines are the non-blank lines above its first
# `#[cfg(test)]` item. A test module declared out of line
# (`#[cfg(test)] mod x;`, the attribute on the same line or the line above)
# does not end its parent's count: the declaration itself is test code, and
# so is the whole of `x.rs` and of the module directory `x/` beneath it.
# Files under a `tests/` directory do not count, and the benchmark
# (`benchmark/`, outside `crates/`) is not measured.
#
# Usage: scripts/loc.sh [crate ...]   (default: every crate)
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "$#" -eq 0 ]; then
    set -- $(ls crates)
fi

excluded=$(mktemp)
trap 'rm -f "$excluded"' EXIT

# Shared by both passes: `test_line` is called on every line and returns 1
# for a line that belongs to a `#[cfg(test)]` item. An out-of-line
# `#[cfg(test)] mod x;` sets `declared` to `x`; any other `#[cfg(test)]`
# item sets `rest_is_test`, which ends the file's count.
scan='
    FNR == 1 { pending = 0; rest_is_test = 0 }
    function test_line(line) {
        declared = ""
        if (line ~ /#\[cfg\(test\)\]/) {
            pending = 1
            sub(/.*#\[cfg\(test\)\]/, "", line)
        }
        if (!pending) return 0
        if (match(line, /^[ \t]*(pub(\([^)]*\))?[ \t]+)?mod[ \t]+[A-Za-z0-9_]+[ \t]*;/)) {
            declared = substr(line, RSTART, RLENGTH)
            sub(/[ \t]*;$/, "", declared)
            sub(/.*mod[ \t]+/, "", declared)
            pending = 0
        } else if (line !~ /^[ \t]*(#\[.*\][ \t]*)*$/) {
            rest_is_test = 1
            pending = 0
        }
        return 1
    }'

# Pass 1 prints, for every out-of-line test module, its file and its module
# directory. A crate root (`lib.rs`, `main.rs`, `src/bin/*.rs`) and a
# `mod.rs` declare modules beside themselves; any other `y.rs` in `y/`.
declarations="$scan"'
    test_line($0) && declared != "" {
        dir = FILENAME
        sub(/\/[^\/]*$/, "", dir)
        base = FILENAME
        sub(/.*\//, "", base)
        if (base != "lib.rs" && base != "main.rs" && base != "mod.rs" && dir !~ /\/src\/bin$/) {
            sub(/\.rs$/, "", base)
            dir = dir "/" base
        }
        print dir "/" declared ".rs"
        print dir "/" declared "/"
    }'

# Pass 2 counts, skipping the files and directories pass 1 printed.
count="$scan"'
    FILENAME == excluded { skip[$0] = 1; next }
    FNR == 1 {
        counting = !(FILENAME in skip)
        for (p in skip) {
            if (p ~ /\/$/ && index(FILENAME, p) == 1) counting = 0
        }
    }
    test_line($0) { next }
    rest_is_test { counting = 0 }
    counting && NF > 0 { n++ }
    END { print n + 0 }'

total=0
for crate in "$@"; do
    dir="crates/$crate"
    [ -d "$dir" ] || { echo "loc.sh: no crate at $dir" >&2; exit 2; }
    find "$dir" -name '*.rs' -not -path '*/tests/*' -print0 \
        | xargs -0 -r awk "$declarations" > "$excluded"
    n=$(find "$dir" -name '*.rs' -not -path '*/tests/*' -print0 \
        | xargs -0 -r awk -v excluded="$excluded" "$count" "$excluded" \
        | awk '{ s += $1 } END { print s + 0 }')
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
