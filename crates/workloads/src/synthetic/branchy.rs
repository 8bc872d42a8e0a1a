//! Moderate-ILP integer archetype: branchy search/compute loops.
//!
//! The generated loop carries several dependence chains (the critical
//! paths) alongside bursts of independent latency-tolerant work. The issue
//! queue stays lightly occupied, so an IQ with correct age priority keeps
//! the chains moving at one op per cycle, while a position-priority queue
//! lets young independent work displace older chain ops whenever the ALUs
//! are contended — exactly the gap CIRC-PC closes (paper §4.2).

use swque_rng::Rng;

use swque_isa::{Assembler, Program, Reg};

use super::{
    emit_biased_branch, emit_indep_alu, emit_lcg_step, emit_rand_load, finish, reg_num,
};

/// Parameters for [`branchy_search`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchyParams {
    /// Parallel loop-carried integer chains (1–8).
    pub chains: usize,
    /// Dependent single-cycle ops per chain per iteration.
    pub chain_ops: usize,
    /// Independent single-cycle ops per iteration.
    pub indep_ops: usize,
    /// Pseudo-random loads per iteration (within `footprint`).
    pub loads: usize,
    /// Stores per iteration.
    pub stores: usize,
    /// Data-dependent conditional branches per iteration.
    pub branches: usize,
    /// Branch taken-probability numerator out of 8 (e.g. 6 ⇒ 75%).
    pub taken_bias: i64,
    /// Data footprint in bytes (power of two; keep below the L2 to stay
    /// out of MLP territory).
    pub footprint: u64,
    /// Layout seed.
    pub seed: u64,
}

impl Default for BranchyParams {
    fn default() -> BranchyParams {
        BranchyParams {
            chains: 3,
            chain_ops: 6,
            indep_ops: 8,
            loads: 2,
            stores: 1,
            branches: 3,
            taken_bias: 6,
            footprint: 64 << 10,
            seed: 0x5EED,
        }
    }
}

/// Work items scheduled within one loop iteration.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Chain { chain: usize },
    Indep(usize),
    Load(usize),
    Store,
    Branch(usize),
}

/// Generates a branchy moderate-ILP integer kernel of `iters` iterations.
///
/// # Panics
///
/// Panics if `chains` exceeds 8 or `footprint` is not a power of two ≥ 8.
pub fn branchy_search(iters: u64, p: &BranchyParams) -> Program {
    assert!((1..=8).contains(&p.chains), "chains out of range");
    assert!(p.footprint.is_power_of_two() && p.footprint >= 8);
    let mut rng = Rng::seed_from_u64(p.seed);
    let mut a = Assembler::new();

    // Initial data: fill the footprint with LCG noise so loads are defined.
    let words: Vec<u64> = {
        let mut x = p.seed | 1;
        (0..p.footprint / 8)
            .map(|_| {
                x = x.wrapping_mul(super::LCG_MUL as u64).wrapping_add(super::LCG_ADD as u64);
                x
            })
            .collect()
    };
    let base = 0x10_0000u64;
    a.data_u64s(base, &words);

    a.li(Reg(1), iters as i64);
    a.li(Reg(2), (p.seed | 1) as i64);
    a.li(Reg(3), base as i64);
    for c in 0..p.chains {
        a.li(Reg(reg_num(16, c)), c as i64 + 1);
    }
    a.label("loop");
    emit_lcg_step(&mut a);

    // Build and shuffle the iteration's work list. Chain ops keep their
    // intra-chain order (they are dependent); everything else lands at a
    // seed-determined position, giving each kernel instance its own shape.
    let mut slots: Vec<Slot> = Vec::new();
    for chain in 0..p.chains {
        for _ in 0..p.chain_ops {
            slots.push(Slot::Chain { chain });
        }
    }
    for j in 0..p.indep_ops {
        slots.push(Slot::Indep(j));
    }
    for l in 0..p.loads {
        slots.push(Slot::Load(l));
    }
    for _ in 0..p.stores {
        slots.push(Slot::Store);
    }
    for b in 0..p.branches {
        slots.push(Slot::Branch(b));
    }
    rng.shuffle(&mut slots);
    // Restore intra-chain op order after the shuffle.
    let mut chain_progress = vec![0usize; p.chains];
    let mut label_id = 0u32;
    for slot in &slots {
        match *slot {
            Slot::Chain { chain } => {
                let r = Reg(reg_num(16, chain));
                let step = chain_progress[chain];
                chain_progress[chain] += 1;
                if step.is_multiple_of(2) {
                    a.addi(r, r, 1 + chain as i64);
                } else {
                    a.xori(r, r, 0x2F + chain as i64);
                }
            }
            Slot::Indep(j) => emit_indep_alu(&mut a, j),
            Slot::Load(l) => emit_rand_load(&mut a, 5 + 3 * l as i64, p.footprint),
            Slot::Store => {
                // Store the last loaded value back at a random slot.
                let mask = (p.footprint - 1) & !7;
                a.srli(Reg(4), Reg(2), 23);
                a.andi(Reg(4), Reg(4), mask as i64);
                a.add(Reg(4), Reg(4), Reg(3));
                a.st(Reg(6), Reg(4), 0);
            }
            Slot::Branch(b) => {
                let label = format!("br{label_id}");
                label_id += 1;
                emit_biased_branch(&mut a, &label, 11 + 2 * b as i64, p.taken_bias, 2);
            }
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

    #[test]
    fn runs_to_completion_and_touches_memory() {
        let p = branchy_search(100, &BranchyParams::default());
        let mut emu = Emulator::new(&p);
        emu.run(5_000_000).unwrap();
        assert!(emu.retired() > 100 * 20, "a real body executes per iteration");
    }

    #[test]
    fn different_seeds_give_different_layouts() {
        let a = branchy_search(10, &BranchyParams::default());
        let b = branchy_search(10, &BranchyParams { seed: 999, ..BranchyParams::default() });
        assert_ne!(a.insts, b.insts);
        assert_eq!(a.insts.len(), b.insts.len(), "same work, different order");
    }

    #[test]
    fn chain_accumulators_progress() {
        let p = branchy_search(50, &BranchyParams::default());
        let mut emu = Emulator::new(&p);
        emu.run(5_000_000).unwrap();
        let moved = (0..3u8).filter(|&c| emu.int_reg(Reg(16 + c)) != (c + 1) as u64).count();
        assert!(moved >= 2, "chains progressed ({moved}/3 moved from their seeds)");
    }

    #[test]
    #[should_panic(expected = "chains out of range")]
    fn too_many_chains_rejected() {
        let _ = branchy_search(1, &BranchyParams { chains: 9, ..BranchyParams::default() });
    }
}
