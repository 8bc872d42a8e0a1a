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

echo "== tier-1: cargo build --release --offline --workspace"
# --workspace matters twice over: it builds the harness binaries this
# script runs below (a bare `cargo build` only covers the facade crate's
# dependency closure, silently leaving stale figure and checker binaries), and
# it builds the swque-lint gate.
cargo build --release --offline --workspace

echo "== tier-1: cargo test -q --offline"
cargo test -q --offline

echo "== extended: cargo test -q --offline --workspace"
cargo test -q --offline --workspace

echo "== docs: cargo doc --no-deps --offline (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "== clippy: the determinism bans (root and per-crate clippy.toml) and reasoned #[expect]s"
# rustc and clippy own the generic determinism rules (DESIGN.md §8.4): the
# clock, hash-order containers, interior mutability and environment reads
# are clippy.toml bans, and `unsafe` is forbidden outright. The only
# accepted suppression is `#[expect(lint, reason = "…")]`: a bare #[allow],
# an #[expect] without a reason, and a stale #[expect] all fail.
clippy_flags=(-D warnings -F unsafe_code -D clippy::allow_attributes
    -D clippy::allow_attributes_without_reason)
cargo clippy --workspace --all-targets --offline -q -- "${clippy_flags[@]}"

echo "== clippy: negative self-check matrix (one injection per retired lint rule)"
# Each injection goes into a scratch package under target/ that carries a
# copy of a workspace clippy.toml. It must fail, and the output must name
# the lint that owns the rule, so a ban that silently stops applying is
# caught here. A clean control must pass under the same setup, so a broken
# scratch package cannot fake the failures.
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
        --manifest-path "$clippy_neg/Cargo.toml" -- "${clippy_flags[@]}" \
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

echo "== benchmark: swque_benchmark builds, its tests pass, an mlp_stall run is correct"
# swque_benchmark is a package of its own (an empty [workspace] table), so
# --workspace above never compiles it, and an API change in a crate it
# measures could break it unnoticed. It builds under target/, so nothing is
# written beside its sources.
bench_manifest=crates/bench/src/bin/swque_benchmark/Cargo.toml
CARGO_TARGET_DIR=target/swque_benchmark \
    cargo build --release --offline -q --manifest-path "$bench_manifest"
CARGO_TARGET_DIR=target/swque_benchmark \
    cargo test --offline -q --manifest-path "$bench_manifest"
bench_last="$(./target/swque_benchmark/release/swque_benchmark --workload mlp_stall \
    --seed 0 --seconds 1 --trace 0 | tail -n 1)"
case "$bench_last" in
    '{"correct":true,'*'"failed":0,'*) ;;
    *) echo "error: swque_benchmark mlp_stall smoke failed: $bench_last" >&2; exit 1 ;;
esac

echo "== lint: swque-lint --workspace (any unsuppressed finding fails)"
json_tmp="$(mktemp -d)"
trap 'rm -rf "$json_tmp"' EXIT
./target/release/swque-lint --workspace

echo "== lint: negative self-check matrix (one injection per semantic rule, each must fail)"
# Each injection goes into its own scratch tree, where its one
# unsuppressed finding must make the gate exit non-zero. A rule that
# silently stops firing is caught here, not in a post-mortem.
neg_check() {
    local rule="$1" file="$2" src="$3"
    local tree="$json_tmp/neg-$rule"
    mkdir -p "$tree/$(dirname "$file")"
    printf '%b' "$src" > "$tree/$file"
    if ./target/release/swque-lint --root "$tree" > /dev/null 2>&1; then
        echo "error: swque-lint passed a tree with an injected $rule violation" >&2
        exit 1
    fi
}
neg_check truncating-cast crates/core/src/injected.rs \
    'fn f(cycle: u64) -> u32 { cycle as u32 }\n'
neg_check unchecked-arith crates/core/src/injected.rs \
    'fn f(cycle: u64, tick: u64) -> u64 { cycle - tick }\n'
neg_check panic-in-lib crates/trace/src/injected.rs \
    'pub fn head(v: &[u8]) -> u8 { *v.first().unwrap() }\n'
neg_check cross-domain-arith crates/mem/src/injected.rs \
    'fn f(done_at: u64, issue_at: u64) -> u64 { done_at + issue_at }\n'
neg_check cross-domain-call crates/mem/src/injected.rs \
    '// swque-domain: at: CycleStamp(launch)\nfn launch(at: u64) { let _ = at; }\nfn f(done_at: u64) { launch(done_at); }\n'
neg_check mc-replay crates/mc/src/injected.rs \
    'const T: &str = "swque-mc-replay-v1 kind=CIRC cap=x width=1 inject=- expect=- events=-";\n'

echo "== lint: --explain smoke (a known rule explains itself, an unknown one exits 2)"
# Per-rule coverage (every rule has a class and a bad:/fix: example pair)
# is the every_rule_has_a_class_and_an_explanation meta-test in
# crates/lint/src/rules.rs; this checks the CLI path once each way.
./target/release/swque-lint --explain panic-in-lib > /dev/null
explain_status=0
./target/release/swque-lint --explain not-a-rule > /dev/null 2>&1 || explain_status=$?
[ "$explain_status" -eq 2 ] || {
    echo "error: --explain of an unknown rule exited $explain_status, expected 2" >&2
    exit 1
}

echo "== lint: regression demo (reverting the PR-8 prefetch launch fix must be caught)"
# The dataflow pass exists to catch exactly the bug class PR 8 fixed:
# launching a prefetch DRAM request at the *completion* stamp of the
# triggering miss instead of its launch stamp. Re-introduce that bug in a
# scratch copy of crates/mem and demand a cross-domain-call finding at the
# precise call site; the fixed tree must stay clean.
demo="$json_tmp/pr8-demo"
mkdir -p "$demo/crates"
cp -r crates/mem "$demo/crates/"
./target/release/swque-lint --root "$demo" > /dev/null || {
    echo "error: the fixed prefetch tree is not lint-clean" >&2
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
if ./target/release/swque-lint --root "$demo" > "$json_tmp/pr8-out.txt" 2>&1; then
    echo "error: swque-lint passed a tree with the PR-8 prefetch bug re-introduced" >&2
    exit 1
fi
grep -q "crates/mem/src/hierarchy.rs:$bug_line:.*cross-domain-call" "$json_tmp/pr8-out.txt" || {
    echo "error: PR-8 regression not attributed to hierarchy.rs:$bug_line" >&2
    cat "$json_tmp/pr8-out.txt" >&2
    exit 1
}

echo "== mc: swque-mc --smoke (bounded exhaustive check, every kind + controller)"
# Every smoke-scope state space must close ("frontier empty") with zero
# violations; the swque-mc-v1 report must validate like every other
# producer's JSON.
./target/release/swque-mc --smoke --json > "$json_tmp/mc-smoke.json"
./target/release/check_json "$json_tmp/mc-smoke.json"

echo "== mc: negative injections (planted bugs must be caught, minimized, replayable)"
# Each injection plants a real bug (the priority-correction pass removed;
# the controller's Figure-7 stabilization disabled) in a harness copy of
# the structure. The checker must exit 1, name the exact property, and
# emit a minimized self-contained replay string — which the checker
# itself re-executes before reporting, and check_json re-parses here.
mc_neg() {
    local kind="$1" cap="$2" inject="$3" property="$4"
    local out="$json_tmp/mc-neg-$inject.json"
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

echo "== experiments: all_experiments -> check_json, and a shim matches its section"
# The whole evaluation in one process at a reduced budget: every entry's
# swque-bench-v1 report must validate, and a figure binary run on its own
# must print exactly its section of the shared run.
SWQUE_WARMUP=2000 SWQUE_INSTS=5000 SWQUE_JSON="$json_tmp/experiments" \
    ./target/release/all_experiments > "$json_tmp/all.txt" 2> /dev/null
reports=("$json_tmp"/experiments/BENCH_*.json)
[ "${#reports[@]}" -eq 12 ] || {
    echo "error: all_experiments wrote ${#reports[@]} BENCH_*.json reports, expected 12" >&2
    exit 1
}
./target/release/check_json "${reports[@]}"
SWQUE_WARMUP=2000 SWQUE_INSTS=5000 ./target/release/fig09 > "$json_tmp/fig09.txt"
# A section is the lines after its "== <name>" banner, one blank line on
# each side of the entry's own text.
bar="============================================================="
awk -v bar="$bar" '$0 == bar {next} /^== / {sec = $2; next} sec == "fig09"' \
    "$json_tmp/all.txt" > "$json_tmp/fig09-section.txt"
{ echo; cat "$json_tmp/fig09.txt"; echo; } | diff -u - "$json_tmp/fig09-section.txt" || {
    echo "error: fig09 alone differs from its all_experiments section" >&2
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
    SWQUE_JSON="$json_tmp/neighbor.json" SWQUE_THREADS=4 \
    ./target/release/neighbor > "$json_tmp/neighbor-a.txt" 2> "$json_tmp/neighbor-a.log"
SWQUE_WARMUP=2000 SWQUE_INSTS=10000 SWQUE_NEIGHBOR_MAX=1 \
    SWQUE_THREADS=1 ./target/release/neighbor > "$json_tmp/neighbor-b.txt" 2> /dev/null
diff -u "$json_tmp/neighbor-a.txt" "$json_tmp/neighbor-b.txt" || {
    echo "error: multi-core results depend on thread count" >&2
    exit 1
}
./target/release/check_json "$json_tmp/neighbor.json"
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
./target/release/swque_sweep --manifest "$json_tmp/sweep-manifest.json" \
    --out "$sweep_out" --workers 1 > /dev/null 2>&1 &
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

# Hermeticity (no external deps in manifests, path-only Cargo.lock) is
# enforced by the swque-lint gate above via the external-dep and
# registry-source rules — one enforcement path instead of ad-hoc greps.

echo "verify: OK"
