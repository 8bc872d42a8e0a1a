#!/usr/bin/env bash
# Tier-1 verification gate — the exact check CI, reviewers, and builders run.
#
# The workspace is hermetic: every dependency is an in-tree path crate and
# Cargo.lock contains no registry entries, so --offline must succeed on a
# clean checkout with no network and no pre-populated ~/.cargo cache. If
# this script fails on such a machine, that is a regression, not an
# environment problem.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt: cargo fmt --all --check"
# Formatting is a gate so it cannot drift: rustfmt.toml at the root keeps
# the workspace's compact style (use_small_heuristics = "Max"). The
# swque_benchmark package is its own workspace and is not covered.
cargo fmt --all --check

echo "== tier-1: cargo build --release --offline --workspace"
# --workspace matters: it builds the harness binaries this script runs
# below (a bare `cargo build` only covers the facade crate's dependency
# closure, silently leaving stale figure and checker binaries).
cargo build --release --offline --workspace

echo "== tier-1: cargo test -q --offline"
cargo test -q --offline

echo "== extended: cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "== docs: cargo doc --no-deps --offline (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== clippy: the determinism bans (root and per-crate clippy.toml) and reasoned #[expect]s"
# rustc and clippy own the generic determinism rules (DESIGN.md §8.1): the
# clock, hash-order containers, interior mutability and environment reads
# are clippy.toml bans, and `unsafe` is forbidden outright. The only
# accepted suppression is `#[expect(lint, reason = "…")]`: a bare #[allow],
# an #[expect] without a reason, and a stale #[expect] all fail.
clippy_flags=(-D warnings -F unsafe_code -D clippy::allow_attributes
    -D clippy::allow_attributes_without_reason)
cargo clippy --workspace --all-targets --offline -q -- "${clippy_flags[@]}"

echo "== clippy: library code documents every panic and narrows no integer silently"
# Library targets only (tests, benches and binaries may panic freely): a
# function that can panic needs a `# Panics` doc section (private helpers
# too: check-private-items in every clippy.toml), and each unwrap, expect,
# panic!, unreachable!, todo!, unimplemented! or truncating `as` needs a
# reasoned #[expect] at the site or on the narrowest item sharing its bound.
lib_flags=("${clippy_flags[@]}" -D clippy::missing_panics_doc -D clippy::unwrap_used
    -D clippy::expect_used -D clippy::panic -D clippy::unreachable -D clippy::todo
    -D clippy::unimplemented -D clippy::cast_possible_truncation)
cargo clippy --workspace --lib --offline -q -- "${lib_flags[@]}"

echo "== clippy: negative self-check matrix (one injection per determinism and panic rule)"
# Each injection goes into a scratch package under target/ that carries a
# copy of a workspace clippy.toml. It must fail, and the output must name
# the lint that owns the rule, so a ban that silently stops applying is
# caught here. Clean controls must pass under the same setup, so a broken
# scratch package cannot fake the failures. The first rows run under the
# all-targets flags, the panic and cast rows under the library flags.
clippy_neg=target/clippy-neg
mkdir -p "$clippy_neg"
cat > "$clippy_neg/Cargo.toml" <<'EOF_TOML'
[package]
name = "clippy-neg"
version = "0.0.0"
edition = "2021"
publish = false

[lib]
path = "lib.rs"

[workspace]
EOF_TOML
clippy_scratch() {
    local config="$1" src="$2"
    cp "$config" "$clippy_neg/clippy.toml"
    printf '%b' "$src" > "$clippy_neg/lib.rs"
    CARGO_TARGET_DIR="$clippy_neg/target" cargo clippy --offline -q \
        --manifest-path "$clippy_neg/Cargo.toml" -- "${neg_flags[@]}" \
        > "$clippy_neg/out.txt" 2>&1
}
clippy_pass() {
    local what="$1" config="$2" src="$3"
    clippy_scratch "$config" "$src" || {
        echo "error: clippy rejected the $what control" >&2
        cat "$clippy_neg/out.txt" >&2
        exit 1
    }
}
clippy_neg_check() {
    local lint="$1" config="$2" src="$3"
    if clippy_scratch "$config" "$src"; then
        echo "error: clippy passed an injected $lint violation" >&2
        exit 1
    fi
    grep -q "$lint" "$clippy_neg/out.txt" || {
        echo "error: the injected violation did not fail through $lint" >&2
        cat "$clippy_neg/out.txt" >&2
        exit 1
    }
}
neg_flags=("${clippy_flags[@]}")
clippy_pass clean clippy.toml \
    'pub fn t(m: &std::collections::BTreeMap<u64, u8>) -> usize { m.len() }\n'
clippy_neg_check disallowed_types clippy.toml \
    'pub fn t() -> std::time::Instant { std::time::Instant::now() }\n'
clippy_neg_check disallowed_types clippy.toml \
    'use std::collections::HashMap;\npub fn t(m: &HashMap<u64, u8>) -> usize { m.len() }\n'
clippy_neg_check disallowed_types clippy.toml \
    'pub fn f() -> u64 { let m = std::collections::HashMap::from([(1u64, 2u64)]); m.values().sum() }\n'
clippy_neg_check disallowed_types clippy.toml \
    'pub fn f() -> u8 { let c = std::cell::RefCell::new(0u8); c.replace(1) }\n'
clippy_neg_check disallowed_types clippy.toml \
    'pub fn f() -> std::hash::RandomState { std::hash::RandomState::new() }\n'
clippy_neg_check disallowed_methods clippy.toml \
    'pub fn t() -> bool { std::env::var_os("X").is_some() }\n'
clippy_neg_check unsafe.code clippy.toml \
    'pub fn f(p: &u8) -> u8 { unsafe { *(p as *const u8) } }\n'
clippy_neg_check allow.attributes clippy.toml \
    '#[allow(dead_code)]\nfn f() {}\n'
clippy_neg_check unfulfilled.lint.expectations clippy.toml \
    '#[expect(dead_code, reason = "stale: f is public")]\npub fn f() {}\n'
# The harness configuration (bench, lint) allows the environment knobs
# and still rejects the clock.
clippy_pass "harness env-read" crates/bench/clippy.toml \
    'pub fn t() -> bool { std::env::var_os("X").is_some() }\n'
clippy_neg_check disallowed_types crates/bench/clippy.toml \
    'pub fn t() -> std::time::Instant { std::time::Instant::now() }\n'
# Each panic injection sits in a private helper called from a pub fn. The
# site-lint rows document the helper's panic, so the site lint alone must
# catch it; the assert rows leave it undocumented for missing_panics_doc.
# These lint names also occur in the injected source text, so the check
# matches the help link clippy prints for the lint that fired.
clippy_site_check() {
    local lint="$1"
    clippy_neg_check "$@"
    grep -q "index.html#$lint\$" "$clippy_neg/out.txt" || {
        echo "error: the injected violation did not fail through $lint" >&2
        cat "$clippy_neg/out.txt" >&2
        exit 1
    }
}
neg_flags=("${lib_flags[@]}")
documented='/// Reads the head.\n///\n/// # Panics\n///\n/// Panics on bad input.\n'
clippy_pass "documented assert" clippy.toml \
    '/// Halves `x`.\n///\n/// # Panics\n///\n/// Panics if `x` is odd.\npub fn half(x: u64) -> u64 {\n    assert!(x.is_multiple_of(2), "odd");\n    x / 2\n}\n'
clippy_pass "undocumented debug_assert" clippy.toml \
    'pub fn f(x: u64) -> u64 { g(x) }\n/// Decrements.\nfn g(x: u64) -> u64 { debug_assert!(x > 0); x.saturating_sub(1) }\n'
clippy_site_check unwrap_used clippy.toml \
    "pub fn f(v: &[u8]) -> u8 { head(v) }\n${documented}fn head(v: &[u8]) -> u8 { *v.first().unwrap() }\n"
clippy_site_check expect_used clippy.toml \
    "pub fn f(v: &[u8]) -> u8 { head(v) }\n${documented}fn head(v: &[u8]) -> u8 { *v.first().expect(\"non-empty\") }\n"
clippy_site_check panic clippy.toml \
    "pub fn f(v: &[u8]) -> u8 { head(v) }\n${documented}fn head(v: &[u8]) -> u8 {\n    match v.first() {\n        Some(x) => *x,\n        None => panic!(\"empty\"),\n    }\n}\n"
clippy_site_check unreachable clippy.toml \
    "pub fn f(v: &[u8]) -> u8 { head(v) }\n${documented}fn head(v: &[u8]) -> u8 {\n    match v.first() {\n        Some(x) => *x,\n        None => unreachable!(),\n    }\n}\n"
clippy_site_check todo clippy.toml \
    "pub fn f() -> u8 { head() }\n${documented}fn head() -> u8 { todo!() }\n"
clippy_site_check unimplemented clippy.toml \
    "pub fn f() -> u8 { head() }\n${documented}fn head() -> u8 { unimplemented!() }\n"
clippy_site_check missing_panics_doc clippy.toml \
    'pub fn f(x: u64) -> u64 { g(x) }\n/// Decrements.\nfn g(x: u64) -> u64 { assert!(x > 0); x - 1 }\n'
clippy_site_check missing_panics_doc clippy.toml \
    'pub fn f(x: u64) -> u64 { g(x) }\n/// Decrements.\nfn g(x: u64) -> u64 { assert_eq!(x % 2, 1); x - 1 }\n'
clippy_site_check missing_panics_doc crates/bench/clippy.toml \
    'pub fn f(x: u64) -> u64 { g(x) }\n/// Decrements.\nfn g(x: u64) -> u64 { assert!(x > 0); x - 1 }\n'
clippy_site_check cast_possible_truncation clippy.toml \
    'pub fn low(cycle: u64) -> u32 { f(cycle) }\nfn f(cycle: u64) -> u32 { cycle as u32 }\n'

echo "== types: cycle-domain negative matrix (one injection per illegal mix, each must fail)"
# Cycle stamps, cycle deltas and instruction counts are newtypes
# (swque_core::cycle), and a DRAM completion is a type distinct from the
# launch stamp a request takes (swque_mem::Completion), so rustc rejects
# mixing them. Each injection goes into a scratch package under target/
# with path dependencies on the workspace crates. It must fail to build
# with its expected error code: E0308 (mismatched types) where an
# operator or a call has an impl for another type, E0369 where the
# operator has no impl at all. A clean control of the legal algebra must
# build under the same setup.
type_neg=target/type-neg
mkdir -p "$type_neg"
cat > "$type_neg/Cargo.toml" <<'EOF_TOML'
[package]
name = "type-neg"
version = "0.0.0"
edition = "2021"
publish = false

[lib]
path = "lib.rs"

[dependencies]
swque-core = { path = "../../crates/core" }
swque-mem = { path = "../../crates/mem" }

[workspace]
EOF_TOML
type_prelude='use swque_core::cycle::{CycleDelta, CycleStamp, InstCount};
use swque_core::IssueQueue;
use swque_mem::{Completion, Dram};
'
type_build() {
    printf '%s%b' "$type_prelude" "$1" > "$type_neg/lib.rs"
    CARGO_TARGET_DIR="$type_neg/target" cargo build --offline -q \
        --manifest-path "$type_neg/Cargo.toml" > "$type_neg/out.txt" 2>&1
}
type_build 'pub fn wait(done: CycleStamp, now: CycleStamp) -> CycleDelta { done - now }
pub fn refill(d: &mut Dram, at: CycleStamp) -> Completion { d.request_from(0, at + CycleDelta::ONE) }
pub fn due(now: CycleStamp, done: Completion) -> bool { done.stamp() <= now }
pub fn reset(n: InstCount, last: InstCount, every: InstCount) -> bool { n >= last + every }
pub fn poll(q: &mut dyn IssueQueue, now: CycleStamp, n: InstCount) -> bool {
    q.poll_mode_switch(now, n, 0)
}
' || {
    echo "error: the cycle-domain control does not build" >&2
    cat "$type_neg/out.txt" >&2
    exit 1
}
type_neg_check() {
    local what="$1" code="$2" src="$3"
    if type_build "$src"; then
        echo "error: rustc accepted $what" >&2
        exit 1
    fi
    grep -q "^error\[$code\]" "$type_neg/out.txt" || {
        echo "error: $what did not fail with $code" >&2
        cat "$type_neg/out.txt" >&2
        exit 1
    }
}
type_neg_check "stamp + stamp" E0308 \
    'pub fn f(done: CycleStamp, now: CycleStamp) -> CycleStamp { done + now }\n'
type_neg_check "delta - stamp" E0369 \
    'pub fn f(lat: CycleDelta, now: CycleStamp) -> CycleDelta { lat - now }\n'
type_neg_check "a completion passed as a launch" E0308 \
    'pub fn f(d: &mut Dram, done: Completion) -> Completion { d.request_from(0, done) }\n'
type_neg_check "a stamp compared with an instruction count" E0308 \
    'pub fn f(now: CycleStamp, last_reset: InstCount) -> bool { now >= last_reset }\n'
type_neg_check "poll_mode_switch with cycle and instructions swapped" E0308 \
    'pub fn f(q: &mut dyn IssueQueue, now: CycleStamp, n: InstCount) -> bool {\n    q.poll_mode_switch(n, now, 0)\n}\n'
type_neg_check "a stamp narrowed with as" E0605 \
    'pub fn f(now: CycleStamp) -> u32 { now as u32 }\n'
type_neg_check "a raw u64 subtracted from an instruction count" E0308 \
    'pub fn f(n: InstCount, last: u64) -> InstCount { n - last }\n'

echo "== types: regression demo (reverting the PR-8 prefetch launch fix must not compile)"
# PR 8 fixed prefetches launched at the *completion* stamp of the
# triggering miss instead of its launch stamp. Re-introduce that bug in a
# scratch copy of the workspace and demand E0308 at the precise call site
# of crates/mem/src/hierarchy.rs; the unmodified copy must build.
demo=target/pr8-demo
rm -rf "$demo/crates" "$demo/src" "$demo/tests" "$demo/examples"
mkdir -p "$demo"
tar --exclude=target -cf - Cargo.toml Cargo.lock crates src tests examples | tar -xf - -C "$demo"
pr8_build() {
    CARGO_TARGET_DIR="$demo/target" cargo build --offline -q -p swque-mem \
        --manifest-path "$demo/Cargo.toml" > "$demo/out.txt" 2>&1
}
pr8_build || {
    echo "error: the unmodified copy of the workspace does not build" >&2
    cat "$demo/out.txt" >&2
    exit 1
}
sed -i 's/request_from(requester, pf_issue_at)/request_from(requester, done_at)/' \
    "$demo/crates/mem/src/hierarchy.rs"
bug_line="$(grep -n 'request_from(requester, done_at)' "$demo/crates/mem/src/hierarchy.rs" \
    | cut -d: -f1)"
[ -n "$bug_line" ] || {
    echo "error: regression demo could not re-introduce the PR-8 bug (call site moved?)" >&2
    exit 1
}
if pr8_build; then
    echo "error: the workspace built with the PR-8 prefetch bug re-introduced" >&2
    exit 1
fi
grep -q '^error\[E0308\]' "$demo/out.txt" \
    && grep -q "crates/mem/src/hierarchy.rs:$bug_line:" "$demo/out.txt" || {
    echo "error: PR-8 regression not rejected with E0308 at hierarchy.rs:$bug_line" >&2
    cat "$demo/out.txt" >&2
    exit 1
}

echo "== benchmark: swque_benchmark builds, its tests pass, and a run of each workload is correct"
# swque_benchmark is a package of its own (an empty [workspace] table), so
# --workspace above never compiles it, and an API change in a crate it
# measures could break it unnoticed. It builds under target/, so nothing is
# written beside its sources. mlp_stall covers the skipping, memory and
# tracing paths; ilp_busy covers all 10 kinds and the large model on the
# busy path (ROB and LSQ slot handles, wakeup/select, dispatch, commit);
# multicore_contention covers the shared L2/DRAM arbitration, whose
# queueing gives the longest completion latencies through the event ring;
# mc_explore is the one workload that forks and keys queues (clone_box,
# arch_key) through the model checker.
bench_manifest=crates/bench/src/bin/swque_benchmark/Cargo.toml
CARGO_TARGET_DIR=target/swque_benchmark \
    cargo build --release --offline -q --manifest-path "$bench_manifest"
CARGO_TARGET_DIR=target/swque_benchmark \
    cargo test --offline -q --manifest-path "$bench_manifest"
for workload in mlp_stall ilp_busy multicore_contention mc_explore; do
    bench_last="$(./target/swque_benchmark/release/swque_benchmark --workload "$workload" \
        --seed 0 --seconds 1 --trace 0 | tail -n 1)"
    case "$bench_last" in
        '{"correct":true,'*'"failed":0,'*) ;;
        *) echo "error: swque_benchmark $workload smoke failed: $bench_last" >&2; exit 1 ;;
    esac
done

json_tmp="$(mktemp -d)"
trap 'rm -rf "$json_tmp"' EXIT

echo "== mc: swque-mc --smoke (bounded exhaustive check, every kind + controller)"
# Every smoke-scope state space must close ("frontier empty") with zero
# violations; the swque-mc-v1 report must validate like every other
# producer's JSON.
./target/release/swque-mc --smoke --json > "$json_tmp/mc-smoke.json"
./target/release/check_json "$json_tmp/mc-smoke.json"

echo "== mc: swque-mc default matrix (29 scopes, 380,543 states)"
# The full matrix adds what --smoke leaves out (the benchmark's mc_explore
# workload mirrors --smoke, so it stays as it is): every non-SWQUE kind at
# capacity 4 and the SWQUE pair at capacity 3. Every scope must close
# clean, and the total pins the partition of the scopes closure_pins.rs
# does not cover.
./target/release/swque-mc --json > "$json_tmp/mc-full.json"
./target/release/check_json "$json_tmp/mc-full.json"
mc_total="$(grep -o '"states":[0-9]*' "$json_tmp/mc-full.json" | awk -F: '{n += $2} END {print n}')"
echo "swque-mc default matrix: $mc_total states"
[ "$mc_total" = 380543 ] || {
    echo "error: the default matrix explored $mc_total states, not 380543" >&2
    exit 1
}

echo "== mc: negative injections (planted bugs must be caught, minimized, replayable)"
# Each injection plants a real bug (the priority-correction pass removed;
# the controller's Figure-7 stabilization disabled; the age matrices of AGE
# and AGE-multiAM granting the youngest ready entry — visible in AGE-multiAM
# only from capacity 4, where one of its three integer buckets first holds
# two entries; SHIFT selecting in slot order) in a harness
# copy of the structure. The checker must exit 1, name the exact property, and
# emit a minimized self-contained replay string — which the checker
# itself re-executes before reporting, and check_json re-parses here.
mc_neg() {
    local kind="$1" cap="$2" inject="$3" property="$4"
    local out="$json_tmp/mc-neg-$kind-$inject.json"
    if ./target/release/swque-mc --kind "$kind" --capacity "$cap" \
        --inject "$inject" --json > "$out" 2> /dev/null; then
        echo "error: swque-mc passed with the $inject bug planted" >&2
        exit 1
    fi
    grep -q "\"property\":\"$property\"" "$out" || {
        echo "error: $inject not attributed to $property" >&2
        cat "$out" >&2
        exit 1
    }
    grep -q "\"replay\":\"swque-mc-replay-v1 [^\"]" "$out" || {
        echo "error: $inject produced no replayable counterexample" >&2
        cat "$out" >&2
        exit 1
    }
    ./target/release/check_json "$out"
}
mc_neg CIRC-PC 3 circ-pc-no-correct pc-age-ordered
mc_neg CTRL 0 controller-no-stabilize ctrl-instability-reduction
mc_neg AGE 3 age-youngest-first age-first
mc_neg AGE-multiAM 4 age-youngest-first age-first
mc_neg SHIFT 3 shift-position-order oldest-first

echo "== experiments: all_experiments -> check_json, one entry by name matches its section"
# The whole evaluation in one process at a reduced budget: every entry's
# swque-bench-v1 report must validate, and one entry run by name must
# print exactly its section of the shared run and write the same report.
SWQUE_WARMUP=2000 SWQUE_INSTS=5000 SWQUE_JSON="$json_tmp/experiments" \
    ./target/release/all_experiments > "$json_tmp/all.txt" 2> /dev/null
reports=("$json_tmp"/experiments/BENCH_*.json)
[ "${#reports[@]}" -eq 12 ] || {
    echo "error: all_experiments wrote ${#reports[@]} BENCH_*.json reports, expected 12" >&2
    exit 1
}
./target/release/check_json "${reports[@]}"
SWQUE_WARMUP=2000 SWQUE_INSTS=5000 SWQUE_JSON="$json_tmp/fig09" \
    ./target/release/all_experiments fig09 > "$json_tmp/fig09.txt" 2> /dev/null
# A section is the lines after its "== <name>" banner, one blank line on
# each side of the entry's own text; the closing "Structured reports"
# line belongs to no section.
section() {
    awk -v bar="=============================================================" -v want="$1" \
        '$0 == bar {next} /^== / {sec = $2; next} /^Structured reports / {next} sec == want' "$2"
}
section fig09 "$json_tmp/all.txt" > "$json_tmp/fig09-section.txt"
grep -q "^Figure 9: " "$json_tmp/fig09-section.txt" || {
    echo "error: no fig09 section in the all_experiments output" >&2
    exit 1
}
section fig09 "$json_tmp/fig09.txt" | diff -u - "$json_tmp/fig09-section.txt" || {
    echo "error: all_experiments fig09 differs from its section of the full run" >&2
    exit 1
}
cmp "$json_tmp/fig09/BENCH_fig09.json" "$json_tmp/experiments/BENCH_fig09.json" || {
    echo "error: all_experiments fig09 wrote a different report than the full run" >&2
    exit 1
}
# An unknown name is refused before any simulation.
status=0
./target/release/all_experiments nosuch > /dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || {
    echo "error: all_experiments nosuch exited $status, expected 2" >&2
    exit 1
}

echo "== multi-core: neighbor determinism smoke (2-core, thread-count invariance)"
# The 2-core neighbor co-run (DESIGN.md §11) must be byte-identical however
# many worker threads the host uses: thread count is a throughput knob, not
# a model input (skip invariance of the same scenario is pinned by the
# multi_differential test). The contention echo on stderr feeds the
# non-vacuity greps — an interference experiment that observes no
# arbitration waits and no quota stalls is measuring nothing.
SWQUE_WARMUP=2000 SWQUE_INSTS=10000 SWQUE_NEIGHBOR_MAX=1 \
    SWQUE_JSON="$json_tmp/neighbor" SWQUE_THREADS=4 \
    ./target/release/neighbor > "$json_tmp/neighbor-a.txt" 2> "$json_tmp/neighbor-a.log"
SWQUE_WARMUP=2000 SWQUE_INSTS=10000 SWQUE_NEIGHBOR_MAX=1 \
    SWQUE_THREADS=1 ./target/release/neighbor > "$json_tmp/neighbor-b.txt" 2> /dev/null
diff -u "$json_tmp/neighbor-a.txt" "$json_tmp/neighbor-b.txt" || {
    echo "error: multi-core results depend on thread count" >&2
    exit 1
}
./target/release/check_json "$json_tmp/neighbor/BENCH_neighbor.json"
grep -Eq "aggressors=1 arb_wait_cycles=[1-9][0-9]* quota_stall_cycles=[1-9]" \
    "$json_tmp/neighbor-a.log" || {
    echo "error: 2-core neighbor run saw no arbitration waits or no quota stalls" >&2
    cat "$json_tmp/neighbor-a.log" >&2
    exit 1
}

echo "== sweep: kill/resume smoke (SIGKILL mid-campaign, resume, merge, validate)"
# A small campaign is started in the background on one worker, killed hard
# as soon as its first shard lands, then resumed. The resumed run must
# finish the campaign, the merged report and a shard must validate against
# their schemas, and the committed example manifest must validate too.
sweep_out="$json_tmp/sweep"
cat > "$json_tmp/sweep-manifest.json" <<'EOF'
{"schema": "swque-sweep-manifest-v1",
 "name": "verify-smoke",
 "budget": {"warmup_insts": 2000, "max_insts": 8000, "scale": 1500},
 "axes": {"kinds": ["CIRC", "AGE"], "seeds": [0, 7, 11],
          "kernels": ["mcf_like", "omnetpp_like"]}}
EOF
SWQUE_THREADS=1 ./target/release/swque_sweep --manifest "$json_tmp/sweep-manifest.json" \
    --out "$sweep_out" > /dev/null 2>&1 &
sweep_pid=$!
# Wait for the first shard, then kill the campaign mid-run (a finished
# campaign just makes the kill a no-op; resume still covers the gate).
for _ in $(seq 1 200); do
    [ -n "$(ls "$sweep_out/shards" 2> /dev/null)" ] && break
    sleep 0.05
done
kill -9 "$sweep_pid" 2> /dev/null || true
wait "$sweep_pid" 2> /dev/null || true
./target/release/swque_sweep --manifest "$json_tmp/sweep-manifest.json" \
    --out "$sweep_out" > /dev/null
test -f "$sweep_out/campaign.json" || {
    echo "error: resumed campaign did not merge" >&2
    exit 1
}
first_shard="$(ls "$sweep_out/shards" | head -1)"
./target/release/check_json "$json_tmp/sweep-manifest.json" manifests/sensitivity.json \
    "$sweep_out/shards/$first_shard" "$sweep_out/campaign.json"

echo "== sweep: negative (an edited marginal geomean must fail check_json)"
# check_json rebuilds the campaign from its own rows, so a marginal whose
# geomean_ipc no longer follows from them is rejected at its path, though
# every field still has the right type.
sed -E 's/("units":[0-9]+,"geomean_ipc":)[-0-9.e+]+/\10.125/' "$sweep_out/campaign.json" \
    > "$json_tmp/campaign-edited.json"
if cmp -s "$sweep_out/campaign.json" "$json_tmp/campaign-edited.json"; then
    echo "error: the marginal edit changed nothing" >&2
    exit 1
fi
if ./target/release/check_json "$json_tmp/campaign-edited.json" 2> "$json_tmp/campaign-edited.log"; then
    echo "error: check_json accepted a campaign with an edited marginal geomean" >&2
    exit 1
fi
grep -q "marginals\[0\].geomean_ipc: 0.125, expected" "$json_tmp/campaign-edited.log" || {
    echo "error: the edited marginal was not named" >&2
    cat "$json_tmp/campaign-edited.log" >&2
    exit 1
}

echo "== sweep: negative (corrupted shard content hash must fail merge and check_json)"
sed -i -E 's/"unit_key":"[0-9a-f]{16}"/"unit_key":"deadbeefdeadbeef"/' \
    "$sweep_out/shards/"*.json
if ./target/release/swque_sweep --manifest "$json_tmp/sweep-manifest.json" \
    --out "$sweep_out" --merge-only > /dev/null 2>&1; then
    echo "error: merge accepted a shard whose unit no longer matches its hash" >&2
    exit 1
fi
if ./target/release/check_json "$sweep_out/shards/$first_shard" > /dev/null 2>&1; then
    echo "error: check_json accepted a shard whose unit no longer matches its hash" >&2
    exit 1
fi

# Hermeticity (path-only lockfiles for the workspace and swque_benchmark)
# is the tier-1 test tests/hermetic.rs, run by `cargo test` above.

echo "verify: OK"
