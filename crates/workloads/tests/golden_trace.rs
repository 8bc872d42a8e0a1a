//! Golden-trace regression tests: the first 64 instructions of every
//! synthetic kernel, at a fixed seed, are pinned as literal text.
//!
//! These tests are the workspace's trace-determinism contract. The
//! generators draw layout randomness from `swque_rng::Rng`, whose output
//! stream is itself pinned (see `output_stream_is_pinned_forever` in
//! `swque-rng`); together the two layers guarantee that a (kernel,
//! parameters) pair names the same instruction trace in every checkout,
//! on every toolchain, forever. Any change to the PRNG constants, the
//! sampling algorithms (`gen_range`, `shuffle`), or the generators' draw
//! order fails here loudly — which is exactly the point: a silent trace
//! change would invalidate every measured figure without anyone noticing.
//!
//! If you change a generator *on purpose*, regenerate the constants:
//!
//! ```text
//! SWQUE_GOLDEN_DUMP=1 cargo test -p swque-workloads --test golden_trace -- --nocapture
//! ```
//!
//! and paste the printed blocks over the `GOLDEN_*` constants — then say
//! so in your PR, because you are re-baselining every experiment.

use swque_isa::Program;
use swque_workloads::synthetic::{
    branchy_search, chase_clump, fp_recurrence, phased, pointer_chase, stream_fp, BranchyParams,
    ChaseClumpParams, FpRecurrenceParams, PhasedParams, PointerChaseParams, StreamFpParams,
};

/// Renders the first `n` instructions, one per line, via `Inst`'s
/// unambiguous `Display` form.
fn head(p: &Program, n: usize) -> String {
    p.insts.iter().take(n).map(|i| i.to_string()).collect::<Vec<_>>().join("\n")
}

/// The pinned kernel instances. Sizes are reduced where the default
/// footprint would make test-time program generation slow (the trace
/// prefix still exercises the full RNG draw order of each generator).
fn kernels() -> Vec<(&'static str, Program)> {
    vec![
        ("branchy", branchy_search(8, &BranchyParams::default())),
        ("chase_clump", chase_clump(8, &ChaseClumpParams::default())),
        ("phased", phased(2, &PhasedParams { nodes: 1 << 10, ..PhasedParams::default() })),
        (
            "pointer",
            pointer_chase(8, &PointerChaseParams { nodes: 1 << 12, ..PointerChaseParams::default() }),
        ),
        ("recurrence", fp_recurrence(8, &FpRecurrenceParams::default())),
        ("stream", stream_fp(8, &StreamFpParams::default())),
    ]
}

fn golden(name: &str) -> &'static str {
    match name {
        "branchy" => GOLDEN_BRANCHY,
        "chase_clump" => GOLDEN_CHASE_CLUMP,
        "phased" => GOLDEN_PHASED,
        "pointer" => GOLDEN_POINTER,
        "recurrence" => GOLDEN_RECURRENCE,
        "stream" => GOLDEN_STREAM,
        _ => unreachable!("unknown kernel {name}"),
    }
}

/// Regeneration helper (not an assertion): prints the current traces in
/// paste-ready form when SWQUE_GOLDEN_DUMP=1.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "SWQUE_GOLDEN_DUMP is the documented re-baseline knob"
)]
fn dump_traces_when_requested() {
    if std::env::var("SWQUE_GOLDEN_DUMP").is_err() {
        return;
    }
    for (name, p) in kernels() {
        println!("const GOLDEN_{}: &str = \"\\", name.to_uppercase());
        for line in head(&p, 64).lines() {
            println!("{line}\\n\\");
        }
        println!("\";\n");
    }
}

#[test]
fn every_kernel_trace_prefix_is_pinned() {
    for (name, p) in kernels() {
        let got = head(&p, 64);
        let want = golden(name).trim_end_matches('\n');
        assert!(
            got == want,
            "{name}: generated trace diverged from the golden prefix.\n\
             If this is an intentional generator/RNG change, re-baseline with\n\
             SWQUE_GOLDEN_DUMP=1 (see module docs).\n\
             --- golden ---\n{want}\n--- generated ---\n{got}\n"
        );
    }
}

/// The pinned prefixes double as a cross-check that generation is stable
/// within a process (catches accidental global state in the generators).
#[test]
fn regeneration_is_bit_identical() {
    let first = kernels();
    let second = kernels();
    for ((name, a), (_, b)) in first.iter().zip(second.iter()) {
        assert_eq!(a.insts, b.insts, "{name}: same params, same program");
    }
}

const GOLDEN_BRANCHY: &str = "\
li r1, 8\n\
li r2, 24301\n\
li r3, 1048576\n\
li r16, 1\n\
li r17, 2\n\
li r18, 3\n\
li r7, 6364136223846793005\n\
mul r2, r2, r7\n\
addi r2, r2, 1442695040888963407\n\
addi r16, r16, 1\n\
xori r11, r1, 4663\n\
addi r18, r18, 3\n\
xori r16, r16, 47\n\
xori r18, r18, 49\n\
ori r13, r1, 3850\n\
addi r17, r17, 2\n\
addi r18, r18, 3\n\
ori r10, r1, 3853\n\
addi r16, r16, 1\n\
xori r17, r17, 48\n\
xori r18, r18, 49\n\
addi r17, r17, 2\n\
addi r12, r1, 11\n\
srli r5, r2, 15\n\
andi r5, r5, 7\n\
slti r5, r5, 6\n\
bne r5, r0, 29\n\
xori r8, r1, 85\n\
xori r9, r1, 86\n\
xori r17, r17, 48\n\
xori r16, r16, 47\n\
srli r5, r2, 13\n\
andi r5, r5, 7\n\
slti r5, r5, 6\n\
bne r5, r0, 37\n\
xori r8, r1, 85\n\
xori r9, r1, 86\n\
addi r16, r16, 1\n\
xori r14, r1, 4666\n\
srli r4, r2, 5\n\
andi r4, r4, 65528\n\
add r4, r4, r3\n\
ld r6, r4, 0\n\
xori r16, r16, 47\n\
addi r18, r18, 3\n\
xori r8, r1, 4660\n\
addi r17, r17, 2\n\
xori r17, r17, 48\n\
xori r18, r18, 49\n\
addi r9, r1, 8\n\
srli r4, r2, 23\n\
andi r4, r4, 65528\n\
add r4, r4, r3\n\
st r4, r6, 0\n\
addi r15, r1, 14\n\
srli r4, r2, 8\n\
andi r4, r4, 65528\n\
add r4, r4, r3\n\
ld r6, r4, 0\n\
srli r5, r2, 11\n\
andi r5, r5, 7\n\
slti r5, r5, 6\n\
bne r5, r0, 65\n\
xori r8, r1, 85\n\
";

const GOLDEN_CHASE_CLUMP: &str = "\
li r1, 8\n\
li r2, 49573\n\
li r25, 8388608\n\
li r26, 262143\n\
li r27, 8388608\n\
li r16, 1048576\n\
li r17, 1056768\n\
li r5, 4096\n\
fld f1, r5, 0\n\
fld f2, r5, 8\n\
li r7, 6364136223846793005\n\
mul r2, r2, r7\n\
addi r2, r2, 1442695040888963407\n\
ld r16, r16, 0\n\
addi r16, r16, 24\n\
addi r16, r16, -24\n\
ld r8, r25, 0\n\
ld r9, r25, 64\n\
ld r10, r25, 128\n\
add r12, r8, r2\n\
xori r8, r1, 4660\n\
ld r17, r17, 0\n\
addi r17, r17, 24\n\
addi r17, r17, -24\n\
ld r11, r25, 192\n\
ld r8, r25, 256\n\
ld r9, r25, 320\n\
add r13, r9, r2\n\
addi r9, r1, 8\n\
ld r16, r16, 0\n\
addi r16, r16, 24\n\
addi r16, r16, -24\n\
ld r10, r25, 384\n\
ld r11, r25, 448\n\
ld r8, r25, 512\n\
add r14, r10, r2\n\
fmul f8, f1, f2\n\
ld r17, r17, 0\n\
addi r17, r17, 24\n\
addi r17, r17, -24\n\
ld r9, r25, 576\n\
ld r10, r25, 640\n\
ld r11, r25, 704\n\
add r15, r11, r2\n\
fmul f9, f1, f2\n\
ld r16, r16, 0\n\
addi r16, r16, 24\n\
addi r16, r16, -24\n\
ld r8, r25, 768\n\
ld r9, r25, 832\n\
ld r10, r25, 896\n\
add r12, r8, r2\n\
ori r10, r1, 3853\n\
ld r17, r17, 0\n\
addi r17, r17, 24\n\
addi r17, r17, -24\n\
ld r11, r25, 960\n\
ld r8, r25, 1024\n\
ld r9, r25, 1088\n\
add r13, r9, r2\n\
xori r11, r1, 4663\n\
ld r16, r16, 0\n\
addi r16, r16, 24\n\
addi r16, r16, -24\n\
";

const GOLDEN_PHASED: &str = "\
li r28, 2\n\
li r2, 42405\n\
li r1, 4000\n\
li r3, 4194304\n\
li r16, 1\n\
li r17, 2\n\
li r18, 3\n\
li r7, 6364136223846793005\n\
mul r2, r2, r7\n\
addi r2, r2, 1442695040888963407\n\
addi r16, r16, 1\n\
xori r16, r16, 51\n\
addi r16, r16, 1\n\
xori r16, r16, 51\n\
addi r16, r16, 1\n\
xori r16, r16, 51\n\
addi r17, r17, 1\n\
xori r17, r17, 51\n\
addi r17, r17, 1\n\
xori r17, r17, 51\n\
addi r17, r17, 1\n\
xori r17, r17, 51\n\
addi r18, r18, 1\n\
xori r18, r18, 51\n\
addi r18, r18, 1\n\
xori r18, r18, 51\n\
addi r18, r18, 1\n\
xori r18, r18, 51\n\
xori r8, r1, 4660\n\
addi r9, r1, 8\n\
ori r10, r1, 3853\n\
xori r11, r1, 4663\n\
addi r12, r1, 11\n\
ori r13, r1, 3850\n\
srli r4, r2, 9\n\
andi r4, r4, 32760\n\
add r4, r4, r3\n\
ld r6, r4, 0\n\
srli r5, r2, 13\n\
andi r5, r5, 7\n\
slti r5, r5, 6\n\
bne r5, r0, 44\n\
xori r8, r1, 85\n\
xori r9, r1, 86\n\
addi r1, r1, -1\n\
bne r1, r0, 7\n\
li r1, 600\n\
li r16, 16777216\n\
li r17, 16778240\n\
li r18, 16779264\n\
li r19, 16780288\n\
li r20, 16781312\n\
li r21, 16782336\n\
li r22, 16783360\n\
li r23, 16784384\n\
ld r16, r16, 0\n\
xori r8, r1, 4660\n\
addi r9, r1, 8\n\
ori r10, r1, 3853\n\
xori r11, r1, 4663\n\
addi r12, r1, 11\n\
ori r13, r1, 3850\n\
xori r14, r1, 4666\n\
addi r15, r1, 14\n\
";

const GOLDEN_POINTER: &str = "\
li r1, 8\n\
li r16, 16777216\n\
li r17, 16781312\n\
li r18, 16785408\n\
li r19, 16789504\n\
li r20, 16793600\n\
li r21, 16797696\n\
li r22, 16801792\n\
li r23, 16805888\n\
ld r16, r16, 0\n\
addi r16, r16, 8\n\
addi r16, r16, -8\n\
xori r8, r1, 4660\n\
addi r9, r1, 8\n\
ori r10, r1, 3853\n\
xori r11, r1, 4663\n\
addi r12, r1, 11\n\
ori r13, r1, 3850\n\
xori r14, r1, 4666\n\
addi r15, r1, 14\n\
ori r8, r1, 3847\n\
xori r9, r1, 4669\n\
addi r10, r1, 17\n\
ori r11, r1, 3844\n\
xori r12, r1, 4672\n\
addi r13, r1, 20\n\
ld r17, r17, 0\n\
addi r17, r17, 8\n\
addi r17, r17, -8\n\
ori r14, r1, 3841\n\
xori r15, r1, 4675\n\
addi r8, r1, 23\n\
ori r9, r1, 3870\n\
xori r10, r1, 4678\n\
addi r11, r1, 26\n\
ori r12, r1, 3867\n\
xori r13, r1, 4681\n\
addi r14, r1, 29\n\
ori r15, r1, 3864\n\
xori r8, r1, 4684\n\
addi r9, r1, 32\n\
ori r10, r1, 3861\n\
xori r11, r1, 4687\n\
ld r18, r18, 0\n\
addi r18, r18, 8\n\
addi r18, r18, -8\n\
addi r12, r1, 35\n\
ori r13, r1, 3858\n\
xori r14, r1, 4690\n\
addi r15, r1, 38\n\
ori r8, r1, 3887\n\
xori r9, r1, 4693\n\
addi r10, r1, 41\n\
ori r11, r1, 3884\n\
xori r12, r1, 4696\n\
addi r13, r1, 44\n\
ori r14, r1, 3881\n\
xori r15, r1, 4699\n\
addi r8, r1, 47\n\
ori r9, r1, 3878\n\
ld r19, r19, 0\n\
addi r19, r19, 8\n\
addi r19, r19, -8\n\
xori r10, r1, 4702\n\
";

const GOLDEN_RECURRENCE: &str = "\
li r1, 8\n\
li r2, 16435935\n\
li r3, 4194304\n\
li r5, 4096\n\
fld f1, r5, 0\n\
fld f2, r5, 8\n\
fld f3, r5, 16\n\
fmul f16, f1, f2\n\
fmul f17, f1, f2\n\
li r7, 6364136223846793005\n\
mul r2, r2, r7\n\
addi r2, r2, 1442695040888963407\n\
fmul f17, f17, f1\n\
addi r9, r1, 8\n\
srli r4, r2, 7\n\
andi r4, r4, 8184\n\
add r4, r4, r3\n\
fld f4, r4, 0\n\
xori r8, r1, 4660\n\
srli r5, r2, 17\n\
andi r5, r5, 7\n\
slti r5, r5, 6\n\
bne r5, r0, 24\n\
xori r8, r1, 85\n\
fmul f16, f16, f1\n\
srli r4, r2, 10\n\
andi r4, r4, 8184\n\
add r4, r4, r3\n\
fld f5, r4, 0\n\
fmul f8, f2, f3\n\
ori r10, r1, 3853\n\
fmul f9, f2, f3\n\
fadd f16, f16, f3\n\
fadd f17, f17, f3\n\
xori r11, r1, 4663\n\
fmul f16, f16, f1\n\
fmul f10, f2, f3\n\
fmul f17, f17, f1\n\
addi r1, r1, -1\n\
bne r1, r0, 9\n\
halt\n\
";

const GOLDEN_STREAM: &str = "\
li r1, 8\n\
li r24, 33554432\n\
li r25, 50331648\n\
li r4, 1048575\n\
li r5, 4096\n\
fld f1, r5, 0\n\
fld f2, r5, 8\n\
fld f8, r24, 0\n\
fmul f8, f8, f1\n\
fadd f8, f8, f2\n\
fadd f16, f16, f8\n\
fld f9, r25, 0\n\
fmul f9, f9, f1\n\
fadd f9, f9, f2\n\
fadd f17, f17, f9\n\
fld f10, r24, 8\n\
fmul f10, f10, f1\n\
fadd f10, f10, f2\n\
fadd f18, f18, f10\n\
fld f11, r25, 8\n\
fmul f11, f11, f1\n\
fadd f11, f11, f2\n\
fadd f19, f19, f11\n\
fld f12, r24, 16\n\
fmul f12, f12, f1\n\
fadd f12, f12, f2\n\
fadd f20, f20, f12\n\
fld f13, r25, 16\n\
fmul f13, f13, f1\n\
fadd f13, f13, f2\n\
fadd f21, f21, f13\n\
fld f14, r24, 24\n\
fmul f14, f14, f1\n\
fadd f14, f14, f2\n\
fadd f22, f22, f14\n\
fld f15, r25, 24\n\
fmul f15, f15, f1\n\
fadd f15, f15, f2\n\
fadd f23, f23, f15\n\
addi r24, r24, 32\n\
li r6, 33554432\n\
sub r7, r24, r6\n\
and r7, r7, r4\n\
add r24, r6, r7\n\
addi r25, r25, 32\n\
li r6, 50331648\n\
sub r7, r25, r6\n\
and r7, r7, r4\n\
add r25, r6, r7\n\
addi r1, r1, -1\n\
bne r1, r0, 7\n\
halt\n\
";

