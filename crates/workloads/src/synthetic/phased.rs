//! Phase-alternating archetype: moderate-ILP compute phases interleaved
//! with memory-intensive pointer-chase phases.
//!
//! This is the stress case for SWQUE's mode controller (paper §3.2): the
//! right configuration differs per phase, so the controller must follow the
//! program — and the §4.8 switch-rate measurement needs a workload that
//! actually changes phase.

use swque_rng::Rng;

use swque_isa::{Assembler, Program, Reg};

use super::{
    emit_biased_branch, emit_indep_alu, emit_lcg_step, emit_rand_load, finish, reg_num, ring_table,
};

/// Parameters for [`phased`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhasedParams {
    /// Iterations of the compute (m-ILP) inner loop per phase.
    pub compute_iters: u64,
    /// Iterations of the memory (MLP) inner loop per phase.
    pub memory_iters: u64,
    /// Parallel chase chains in the memory phase (≤ 8).
    pub chains: usize,
    /// Ring nodes for the memory phase (footprint = `nodes * 8`).
    pub nodes: u64,
    /// Compute-phase dependent chain ops per iteration.
    pub chain_ops: usize,
    /// Seed for ring layout.
    pub seed: u64,
}

impl Default for PhasedParams {
    fn default() -> PhasedParams {
        PhasedParams {
            compute_iters: 4_000,
            memory_iters: 600,
            chains: 8,
            nodes: 1 << 20,
            chain_ops: 6,
            seed: 0xA5A5,
        }
    }
}

/// Generates a kernel alternating compute and memory phases `phases` times.
///
/// # Panics
///
/// Panics if `chains` exceeds 8.
pub fn phased(phases: u64, p: &PhasedParams) -> Program {
    assert!((1..=8).contains(&p.chains), "chains out of range");
    let mut rng = Rng::seed_from_u64(p.seed);
    let base = 0x100_0000u64;
    // Ring for the memory phase (Sattolo single cycle).
    let table = ring_table(p.nodes, base, &mut rng);

    let mut a = Assembler::new();
    a.data_u64s(base, &table);
    // Small compute-phase footprint.
    let small: Vec<u64> = (0..4096).map(|i| i * 3 + 1).collect();
    a.data_u64s(0x40_0000, &small);

    a.li(Reg(28), phases as i64);
    a.li(Reg(2), (p.seed | 1) as i64);
    a.label("phase");

    // ---- compute (m-ILP) phase ----
    a.li(Reg(1), p.compute_iters as i64);
    a.li(Reg(3), 0x40_0000);
    for c in 0..3u8 {
        a.li(Reg(16 + c), c as i64 + 1);
    }
    a.label("compute");
    emit_lcg_step(&mut a);
    for c in 0..3u8 {
        for op in 0..p.chain_ops {
            if op % 2 == 0 {
                a.addi(Reg(16 + c), Reg(16 + c), 1);
            } else {
                a.xori(Reg(16 + c), Reg(16 + c), 0x33);
            }
        }
    }
    for j in 0..6 {
        emit_indep_alu(&mut a, j);
    }
    emit_rand_load(&mut a, 9, 32 << 10);
    emit_biased_branch(&mut a, "pc0", 13, 6, 2);
    a.addi(Reg(1), Reg(1), -1);
    a.bne(Reg(1), Reg::ZERO, "compute");

    // ---- memory (MLP) phase ----
    a.li(Reg(1), p.memory_iters as i64);
    for k in 0..p.chains {
        let start = (p.nodes / p.chains as u64) * k as u64;
        a.li(Reg(reg_num(16, k)), (base + start * 8) as i64);
    }
    a.label("memory");
    let mut indep = 0usize;
    for k in 0..p.chains {
        let r = Reg(reg_num(16, k));
        a.ld(r, r, 0);
        for _ in 0..12 {
            emit_indep_alu(&mut a, indep);
            indep += 1;
        }
    }
    a.addi(Reg(1), Reg(1), -1);
    a.bne(Reg(1), Reg::ZERO, "memory");

    a.addi(Reg(28), Reg(28), -1);
    a.bne(Reg(28), Reg::ZERO, "phase");
    a.halt();
    finish(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swque_isa::Emulator;

    #[test]
    fn alternates_and_terminates() {
        let params =
            PhasedParams { compute_iters: 50, memory_iters: 20, nodes: 1 << 10, ..Default::default() };
        let p = phased(3, &params);
        let mut emu = Emulator::new(&p);
        let retired = emu.run(10_000_000).unwrap();
        // 3 phases × (50 compute + 20 memory) iterations of real bodies.
        assert!(retired > 3 * (50 * 20 + 20 * 50));
    }

    #[test]
    fn phase_counts_scale_length() {
        let params = PhasedParams { nodes: 1 << 10, ..Default::default() };
        let p2 = phased(2, &params);
        let mut emu = Emulator::new(&p2);
        // Memory-phase chase pointers must stay on the ring.
        emu.run(200_000_000).unwrap();
        let end = 0x100_0000u64 + (1u64 << 10) * 8;
        for k in 0..8u8 {
            let v = emu.int_reg(Reg(16 + k));
            assert!(v < end, "register {k} within data bounds");
        }
    }
}
