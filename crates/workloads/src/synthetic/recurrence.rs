//! Moderate-ILP FP archetype: latency-critical loop-carried FP recurrences.
//!
//! A few floating-point chains (each op is latency-4) carry across
//! iterations; the side work is latency-tolerant. With only two FPUs, a
//! chain op that loses arbitration to younger side work delays the whole
//! recurrence — the FP flavour of the priority-sensitivity that CIRC-PC
//! exploits (paper §4.2's moderate-ILP FP programs).

use swque_rng::Rng;

use swque_isa::{Assembler, FReg, Program, Reg};

use super::{emit_biased_branch, emit_indep_alu, emit_lcg_step, finish, reg_num};

/// Parameters for [`fp_recurrence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpRecurrenceParams {
    /// Loop-carried FP chains (1–8).
    pub chains: usize,
    /// Dependent FP ops per chain per iteration.
    pub chain_ops: usize,
    /// Independent FP ops per iteration (latency-tolerant).
    pub indep_fp: usize,
    /// Independent integer ops per iteration.
    pub indep_int: usize,
    /// Cache-resident FP loads per iteration.
    pub loads: usize,
    /// Biased data-dependent branches per iteration.
    pub branches: usize,
    /// Layout seed.
    pub seed: u64,
}

impl Default for FpRecurrenceParams {
    fn default() -> FpRecurrenceParams {
        FpRecurrenceParams {
            chains: 2,
            chain_ops: 3,
            indep_fp: 3,
            indep_int: 4,
            loads: 2,
            branches: 1,
            seed: 0xFACADE,
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Slot {
    Chain(usize),
    IndepFp(usize),
    IndepInt(usize),
    Load(usize),
    Branch(usize),
}

/// Generates an FP-recurrence moderate-ILP kernel of `iters` iterations.
///
/// # Panics
///
/// Panics if `chains` is outside `1..=8`.
pub fn fp_recurrence(iters: u64, p: &FpRecurrenceParams) -> Program {
    assert!((1..=8).contains(&p.chains), "chains out of range");
    let mut rng = Rng::seed_from_u64(p.seed);
    let mut a = Assembler::new();

    let base = 0x40_0000u64;
    let table: Vec<f64> = (0..1024).map(|i| 0.5 + (i as f64) * 0.125).collect();
    a.data_f64s(base, &table);
    a.data_f64s(0x1000, &[1.0000001, 0.99999, 0.5]);

    a.li(Reg(1), iters as i64);
    a.li(Reg(2), (p.seed | 1) as i64);
    a.li(Reg(3), base as i64);
    a.li(Reg(5), 0x1000);
    a.fld(FReg(1), Reg(5), 0); // near-1 multiplier keeps chains finite
    a.fld(FReg(2), Reg(5), 8);
    a.fld(FReg(3), Reg(5), 16);
    for c in 0..p.chains {
        a.fmul(FReg(reg_num(16, c)), FReg(1), FReg(2));
    }

    a.label("loop");
    emit_lcg_step(&mut a);

    let mut slots: Vec<Slot> = Vec::new();
    for c in 0..p.chains {
        for _ in 0..p.chain_ops {
            slots.push(Slot::Chain(c));
        }
    }
    for j in 0..p.indep_fp {
        slots.push(Slot::IndepFp(j));
    }
    for j in 0..p.indep_int {
        slots.push(Slot::IndepInt(j));
    }
    for l in 0..p.loads {
        slots.push(Slot::Load(l));
    }
    for b in 0..p.branches {
        slots.push(Slot::Branch(b));
    }
    rng.shuffle(&mut slots);

    let mut chain_step = vec![0usize; p.chains];
    let mut label_id = 0u32;
    for slot in &slots {
        match *slot {
            Slot::Chain(c) => {
                let r = FReg(reg_num(16, c));
                let step = chain_step[c];
                chain_step[c] += 1;
                if step.is_multiple_of(2) {
                    a.fmul(r, r, FReg(1)); // ×(1+ε): bounded growth
                } else {
                    a.fadd(r, r, FReg(3));
                }
            }
            Slot::IndepFp(j) => {
                let dst = FReg(reg_num(8, j % 8));
                a.fmul(dst, FReg(2), FReg(3));
            }
            Slot::IndepInt(j) => emit_indep_alu(&mut a, j),
            Slot::Load(l) => {
                a.srli(Reg(4), Reg(2), 7 + 3 * l as i64);
                a.andi(Reg(4), Reg(4), 0x1FF8);
                a.add(Reg(4), Reg(4), Reg(3));
                a.fld(FReg(reg_num(4, l % 4)), Reg(4), 0);
            }
            Slot::Branch(b) => {
                let label = format!("fb{label_id}");
                label_id += 1;
                emit_biased_branch(&mut a, &label, 17 + 2 * b as i64, 6, 1);
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
    fn chains_stay_finite_over_long_runs() {
        let p = fp_recurrence(10_000, &FpRecurrenceParams::default());
        let mut emu = Emulator::new(&p);
        emu.run(50_000_000).unwrap();
        for c in 0..2u8 {
            let v = emu.fp_reg(FReg(16 + c));
            assert!(v.is_finite() && v != 0.0, "chain {c} = {v}");
        }
    }

    #[test]
    fn layout_varies_with_seed() {
        let a = fp_recurrence(5, &FpRecurrenceParams::default());
        let b = fp_recurrence(5, &FpRecurrenceParams { seed: 1, ..FpRecurrenceParams::default() });
        assert_ne!(a.insts, b.insts);
    }
}
