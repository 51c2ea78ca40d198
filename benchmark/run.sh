#!/usr/bin/env bash
# The repo's one benchmark command. Builds `wbamd` (the program under test,
# from the repo's workspace) and the benchmark (this directory's own
# package), both in release mode, then runs the benchmark.
#
#   benchmark/run.sh                      all four workloads, then the traced pass
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         one run; last stdout line is the result
#   benchmark/run.sh --calibrate K        K interleaved sets, prints the noise table
#
# Run it from the root of a checkout. Everything it writes goes under
# benchmark/out/ and the cargo target directory (CARGO_TARGET_DIR if set,
# else target/ and benchmark/target/).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [[ ! -f Cargo.toml || ! -d crates/harness ]]; then
    echo "run.sh: $root is not a checkout of the repo (no Cargo.toml / crates/harness)" >&2
    exit 3
fi

build_start=$(date +%s%N)
# Build output goes to stderr: stdout is the benchmark's.
cargo build --release --offline -p wbam-harness --bin wbamd >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
build_ns=$(( $(date +%s%N) - build_start ))
build_s=$(printf '%d.%09d' $((build_ns / 1000000000)) $((build_ns % 1000000000)))

if [[ -n "${CARGO_TARGET_DIR:-}" ]]; then
    wbamd="$CARGO_TARGET_DIR/release/wbamd"
    bench="$CARGO_TARGET_DIR/release/wbam-benchmark"
else
    wbamd="target/release/wbamd"
    bench="benchmark/target/release/wbam-benchmark"
fi

git_rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

exec "$bench" --wbamd "$wbamd" --out benchmark/out \
    --build-s "$build_s" --git-rev "$git_rev" "$@"
