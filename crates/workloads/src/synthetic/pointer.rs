//! MLP archetype: parallel pointer chases over an LLC-busting footprint.
//!
//! Each chain performs a dependent load ring-walk (`p = *p`), so one miss
//! per chain can be outstanding; with many chains, misses overlap — if the
//! machine's window reaches far enough to *start* them all. The chase loads
//! are deliberately spread out with filler work, so a capacity-inefficient
//! queue (CIRC's holes) cannot reach the later chains' loads and loses
//! memory-level parallelism, while a full-capacity queue (AGE) overlaps
//! them all (paper §1's MLP argument and §4.2's MLP programs).

use swque_rng::Rng;

use swque_isa::{Assembler, FReg, Program, Reg};

use super::{emit_indep_alu, finish, reg_num, ring_table};

/// Parameters for [`pointer_chase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointerChaseParams {
    /// Parallel chase chains (MLP degree); at most 8.
    pub chains: usize,
    /// Ring nodes; footprint = `nodes * 8` bytes (use ≫ LLC capacity).
    pub nodes: u64,
    /// Independent filler ops between consecutive chase loads — this is
    /// what makes window capacity matter.
    pub spacing: usize,
    /// Dependent ALU ops applied to each loaded pointer (adds latency to
    /// the chain without changing the address).
    pub alu_work: usize,
    /// Independent FP ops per iteration (for FP-categorised MLP kernels
    /// like `fotonik3d`).
    pub fp_work: usize,
    /// Ring-permutation seed.
    pub seed: u64,
}

impl Default for PointerChaseParams {
    fn default() -> PointerChaseParams {
        PointerChaseParams {
            chains: 8,
            nodes: 1 << 20, // 8 MiB, 4x the paper's 2 MB LLC
            spacing: 14,
            alu_work: 1,
            fp_work: 0,
            seed: 0xC0FFEE,
        }
    }
}

/// Generates a pointer-chase MLP kernel of `iters` iterations (each
/// iteration advances every chain one node).
///
/// # Panics
///
/// Panics if `chains` exceeds 8 or `nodes < chains * 8`.
pub fn pointer_chase(iters: u64, p: &PointerChaseParams) -> Program {
    assert!((1..=8).contains(&p.chains), "chains out of range");
    assert!(p.nodes >= p.chains as u64 * 8, "ring too small for the chains");
    let mut rng = Rng::seed_from_u64(p.seed);
    let base = 0x100_0000u64;
    let table = ring_table(p.nodes, base, &mut rng);

    let mut a = Assembler::new();
    a.data_u64s(base, &table);
    if p.fp_work > 0 {
        a.data_f64s(0x1000, &[1.0 + 1.0 / 3.0, 0.75, 2.5]);
    }

    a.li(Reg(1), iters as i64);
    // Start the chains at evenly spaced ring phases.
    for k in 0..p.chains {
        let start = (p.nodes / p.chains as u64) * k as u64;
        a.li(Reg(reg_num(16, k)), (base + start * 8) as i64);
    }
    if p.fp_work > 0 {
        a.li(Reg(4), 0x1000);
        a.fld(FReg(1), Reg(4), 0);
        a.fld(FReg(2), Reg(4), 8);
    }

    a.label("loop");
    let mut indep = 0usize;
    for k in 0..p.chains {
        let r = Reg(reg_num(16, k));
        a.ld(r, r, 0); // p = *p : the chase
        for w in 0..p.alu_work {
            // Dependent no-net-change work: lengthens the chain's latency
            // footprint without corrupting the pointer.
            a.addi(r, r, 8 + w as i64);
            a.addi(r, r, -(8 + w as i64));
        }
        for _ in 0..p.spacing {
            emit_indep_alu(&mut a, indep);
            indep += 1;
        }
        for f in 0..p.fp_work {
            let dst = FReg(reg_num(8, f % 8));
            a.fmul(dst, FReg(1), FReg(2));
        }
    }
    a.addi(Reg(1), Reg(1), -1);
    a.bne(Reg(1), Reg::ZERO, "loop");
    a.halt();
    finish(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swque_isa::Emulator;

    fn small() -> PointerChaseParams {
        PointerChaseParams { nodes: 1 << 12, ..PointerChaseParams::default() }
    }

    #[test]
    fn chains_walk_the_ring_without_escaping() {
        let p = pointer_chase(64, &small());
        let mut emu = Emulator::new(&p);
        emu.run(10_000_000).unwrap();
        let base = 0x100_0000u64;
        let end = base + (1u64 << 12) * 8;
        for k in 0..8u8 {
            let ptr = emu.int_reg(Reg(16 + k));
            assert!(ptr >= base && ptr < end, "chain {k} stayed on the ring: {ptr:#x}");
            assert_eq!(ptr % 8, 0, "aligned node address");
        }
    }

    #[test]
    fn ring_is_a_single_cycle() {
        let mut rng = Rng::seed_from_u64(7);
        let n = 256u64;
        let base = 0u64;
        let table = ring_table(n, base, &mut rng);
        // Follow the ring; we must visit all nodes before returning to 0.
        let mut seen = vec![false; n as usize];
        let mut at = 0u64;
        for _ in 0..n {
            assert!(!seen[at as usize], "revisited node {at} early: not a single cycle");
            seen[at as usize] = true;
            at = table[at as usize] / 8;
        }
        assert_eq!(at, 0, "returned to start after exactly n steps");
    }

    #[test]
    fn distinct_chains_start_at_distinct_phases() {
        let p = pointer_chase(1, &small());
        let mut emu = Emulator::new(&p);
        // Execute only the initialization (1 counter li + 8 chain li).
        for _ in 0..9 {
            emu.step().unwrap();
        }
        let mut starts: Vec<u64> = (0..8u8).map(|k| emu.int_reg(Reg(16 + k))).collect();
        starts.dedup();
        assert_eq!(starts.len(), 8);
    }

    #[test]
    fn fp_variant_executes_fp_work() {
        let params = PointerChaseParams { fp_work: 2, ..small() };
        let p = pointer_chase(16, &params);
        let mut emu = Emulator::new(&p);
        emu.run(5_000_000).unwrap();
        assert_ne!(emu.fp_reg(FReg(8)), 0.0);
    }
}
