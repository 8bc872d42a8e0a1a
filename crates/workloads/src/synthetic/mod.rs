//! Parameterized synthetic-kernel generators.
//!
//! Four archetypes cover the behaviour classes of the paper's benchmark
//! suite; every named kernel in [`crate::suite`] is a tuned instance of one
//! of these:
//!
//! * [`branchy_search`] — integer moderate-ILP: loop-carried dependence
//!   chains, data-dependent branches, cache-resident data.
//! * [`pointer_chase`] — MLP: parallel pointer chains over a footprint far
//!   exceeding the LLC, so misses overlap and window capacity limits
//!   memory-level parallelism.
//! * [`stream_fp`] — rich-ILP FP: wide independent floating-point work over
//!   streaming arrays; the issue queue fills and capacity efficiency
//!   dominates.
//! * [`fp_recurrence`] — moderate-ILP FP: latency-critical loop-carried FP
//!   chains with latency-tolerant side work.
//!
//! All generators are deterministic given their parameters: layout
//! randomness comes from the in-tree seeded [`swque_rng::Rng`], whose
//! output stream is pinned forever, so a (kernel, parameters) pair denotes
//! the same instruction trace in every checkout. The golden-trace tests in
//! `tests/golden_trace.rs` enforce this.
//!
//! # Register conventions
//!
//! `r1` outer counter, `r2` LCG state, `r3` data base, `r4`–`r7` temps,
//! `r8`–`r15` independent-op destinations, `r16`–`r23` chain accumulators,
//! `r24`–`r27` secondary pointers. FP registers follow the same split.

mod branchy;
mod chase_clump;
mod phased;
mod pointer;
mod recurrence;
mod stream;

pub use branchy::{branchy_search, BranchyParams};
pub use chase_clump::{chase_clump, ChaseClumpParams};
pub use phased::{phased, PhasedParams};
pub use pointer::{pointer_chase, PointerChaseParams};
pub use recurrence::{fp_recurrence, FpRecurrenceParams};
pub use stream::{stream_fp, StreamFpParams};

use swque_isa::{Assembler, Program, Reg};
use swque_rng::Rng;

/// LCG constants used for in-program pseudo-randomness.
pub(crate) const LCG_MUL: i64 = 6364136223846793005;
pub(crate) const LCG_ADD: i64 = 1442695040888963407;

/// Register number `base + offset` in one of the register-convention
/// windows above: `offset` is a chain index (every generator bounds its
/// chain count by 8) or a rotation taken `% 8` or `% 4`.
#[expect(clippy::cast_possible_truncation, reason = "a window offset is below 8")]
pub(crate) fn reg_num(base: u8, offset: usize) -> u8 {
    debug_assert!(offset < 8, "register window offset {offset} out of range");
    base + offset as u8
}

/// Builds a random ring permutation (a single cycle) with Sattolo's
/// algorithm and returns the node table: `table[i]` is the *address* of the
/// successor of node `i`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "node indices fit a u32: the suite's largest ring is 2^21 nodes (16 MiB)"
)]
pub(crate) fn ring_table(nodes: u64, base: u64, rng: &mut Rng) -> Vec<u64> {
    let n = nodes as usize;
    let mut perm: Vec<u32> = (0..n as u32).collect();
    // Sattolo: guarantees a single cycle covering all nodes.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..i);
        perm.swap(i, j);
    }
    // perm is a cyclic permutation; successor of node i is perm[i].
    perm.iter().map(|&next| base + next as u64 * 8).collect()
}

/// Resolves a generator's labels into its program.
///
/// # Panics
///
/// Panics if a label is branched to but never defined.
pub(crate) fn finish(a: Assembler) -> Program {
    #[expect(
        clippy::expect_used,
        reason = "every label branched to is defined by the generator; a dangling label is a generator bug caught by the suite tests"
    )]
    let program = a.finish().expect("generator emits valid labels");
    program
}

/// Emits one LCG step: `r2 = r2 * LCG_MUL + LCG_ADD` (one `mul`, one
/// `addi`). The multiply also exercises the iMULT unit.
pub(crate) fn emit_lcg_step(a: &mut Assembler) {
    a.li(Reg(7), LCG_MUL);
    a.mul(Reg(2), Reg(2), Reg(7));
    a.addi(Reg(2), Reg(2), LCG_ADD);
}

/// Emits a data-dependent conditional branch that is taken with probability
/// `bias/8`, judged from LCG bits at `shift`. The not-taken path executes
/// `skipped` extra independent ops. Returns having defined the join label.
pub(crate) fn emit_biased_branch(
    a: &mut Assembler,
    label: &str,
    shift: i64,
    bias: i64,
    skipped: usize,
) {
    a.srli(Reg(5), Reg(2), shift);
    a.andi(Reg(5), Reg(5), 7);
    a.slti(Reg(5), Reg(5), bias);
    a.bne(Reg(5), Reg::ZERO, label);
    for j in 0..skipped {
        a.xori(Reg(reg_num(8, j % 8)), Reg(1), 0x55 + j as i64);
    }
    a.label(label);
}

/// Emits a pseudo-random load within `[base_reg, base_reg + footprint)`
/// (footprint must be a power of two ≥ 8); the loaded value lands in `r6`.
pub(crate) fn emit_rand_load(a: &mut Assembler, shift: i64, footprint: u64) {
    debug_assert!(footprint.is_power_of_two() && footprint >= 8);
    let mask = (footprint - 1) & !7;
    a.srli(Reg(4), Reg(2), shift);
    a.andi(Reg(4), Reg(4), mask as i64);
    a.add(Reg(4), Reg(4), Reg(3));
    a.ld(Reg(6), Reg(4), 0);
}

/// Emits one independent single-cycle ALU op into a rotating destination.
pub(crate) fn emit_indep_alu(a: &mut Assembler, j: usize) {
    let dst = Reg(reg_num(8, j % 8));
    match j % 3 {
        0 => a.xori(dst, Reg(1), 0x1234 + j as i64),
        1 => a.addi(dst, Reg(1), 7 + j as i64),
        _ => a.ori(dst, Reg(1), 0x0F0F ^ j as i64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swque_isa::Emulator;

    /// Every generator must produce terminating, deterministic programs.
    #[test]
    fn archetypes_terminate_and_are_deterministic() {
        let programs: Vec<(&str, swque_isa::Program, swque_isa::Program)> = vec![
            (
                "branchy",
                branchy_search(50, &BranchyParams::default()),
                branchy_search(50, &BranchyParams::default()),
            ),
            (
                "pointer",
                pointer_chase(20, &PointerChaseParams { nodes: 1 << 10, ..Default::default() }),
                pointer_chase(20, &PointerChaseParams { nodes: 1 << 10, ..Default::default() }),
            ),
            ("stream", stream_fp(30, &StreamFpParams::default()), stream_fp(30, &StreamFpParams::default())),
            (
                "recurrence",
                fp_recurrence(40, &FpRecurrenceParams::default()),
                fp_recurrence(40, &FpRecurrenceParams::default()),
            ),
            ("phased", phased(4, &PhasedParams::default()), phased(4, &PhasedParams::default())),
        ];
        for (name, p1, p2) in programs {
            assert_eq!(p1.insts, p2.insts, "{name}: generator must be deterministic");
            let mut emu = Emulator::new(&p1);
            let retired = emu.run(20_000_000).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(retired > 100, "{name}: does real work");
        }
    }
}
