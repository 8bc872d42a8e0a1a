#!/usr/bin/env bash
# Function-level host profile of one benchmark workload.
#
# `swque_benchmark --trace 1` times named spans only (wakeup, select,
# dispatch, memory access, ...), so a cost in an untimed stage — commit,
# writeback, the ROB — shows up as a slow busy cycle with no span to blame.
# This script samples every function instead: it builds swque_benchmark
# (release, with debug info, under target/swque_benchmark as verify.sh
# does), runs one workload under `gprofng collect app` clock profiling,
# prints the benchmark's result line, and lists the functions with the most
# exclusive CPU time.
#
# Usage: scripts/profile.sh [workload] [seed] [seconds] [top]
#        (defaults: ilp_busy 0 20 25)
#
# The experiment is left in target/profile/<workload>-seed<seed>.er for
# further queries, for example
#   gprofng display text -callers-callees target/profile/ilp_busy-seed0.er
# Inlined callees are charged to their caller (a binary search inlined
# into step_cycle shows as step_cycle). The sample count depends on the
# host's profiling timer; on a coarse one, raise `seconds`.
set -euo pipefail
cd "$(dirname "$0")/.."

workload="${1:-ilp_busy}"
seed="${2:-0}"
seconds="${3:-20}"
top="${4:-25}"

command -v gprofng > /dev/null || {
    echo "error: gprofng (GNU binutils) is not on PATH" >&2
    exit 2
}

bench_manifest=crates/bench/src/bin/swque_benchmark/Cargo.toml
CARGO_TARGET_DIR=target/swque_benchmark \
    cargo build --release --offline -q --manifest-path "$bench_manifest"

mkdir -p target/profile
experiment="target/profile/$workload-seed$seed.er"
rm -rf "$experiment"
gprofng collect app -o "$experiment" -p hi \
    ./target/swque_benchmark/release/swque_benchmark --workload "$workload" \
    --seed "$seed" --seconds "$seconds" --trace 0 > "target/profile/$workload-seed$seed.txt"
tail -n 1 "target/profile/$workload-seed$seed.txt" | cut -c 1-80
gprofng display text -limit "$top" -functions "$experiment"
