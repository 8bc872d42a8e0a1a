//! Rich-ILP FP archetype: wide independent floating-point streaming.
//!
//! Every unrolled element is independent of the others, so the window fills
//! with ready FP work that the two FPUs drain slowly: the issue queue runs
//! near capacity and the FLPI metric reads high. Capacity efficiency is all
//! that matters, so AGE ≈ SWQUE and CIRC-style allocation loses (paper
//! §4.2's rich-ILP FP programs).

use swque_rng::Rng;

use swque_isa::{Assembler, FReg, Program, Reg};

use super::{finish, reg_num};

/// Parameters for [`stream_fp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamFpParams {
    /// Independent input arrays (1–4), each walked sequentially.
    pub arrays: usize,
    /// Bytes per array (power of two). Larger than the LLC makes the kernel
    /// memory-flavoured (the stream prefetcher covers most of it).
    pub footprint: u64,
    /// Independent FP ops per loaded element.
    pub fp_ops_per_elem: usize,
    /// Elements processed per iteration (unroll factor).
    pub unroll: usize,
    /// Data seed.
    pub seed: u64,
}

impl Default for StreamFpParams {
    fn default() -> StreamFpParams {
        StreamFpParams {
            arrays: 2,
            footprint: 1 << 20,
            fp_ops_per_elem: 2,
            unroll: 8,
            seed: 0xF10A7,
        }
    }
}

/// Generates a streaming rich-ILP FP kernel of `iters` iterations.
///
/// # Panics
///
/// Panics if `arrays` exceeds 4, `unroll` is 0, or `footprint` is not a
/// power of two large enough for one unrolled stride.
pub fn stream_fp(iters: u64, p: &StreamFpParams) -> Program {
    assert!((1..=4).contains(&p.arrays), "arrays out of range");
    assert!(p.unroll > 0, "unroll must be positive");
    assert!(p.footprint.is_power_of_two() && p.footprint >= (p.unroll as u64) * 8);
    let mut rng = Rng::seed_from_u64(p.seed);
    let mut a = Assembler::new();

    // Seed only the first page of each array with seed-dependent values;
    // the rest reads as zero, which is fine for FP streaming arithmetic.
    let bases: Vec<u64> = (0..p.arrays).map(|k| 0x200_0000 + (k as u64) * 0x100_0000).collect();
    for (k, &b) in bases.iter().enumerate() {
        let vals = (0..512).map(|i| 1.0 + (i as f64) * rng.gen_range(0.1..0.5) + k as f64);
        a.data_f64s(b, vals);
    }

    a.li(Reg(1), iters as i64);
    for (k, &b) in bases.iter().enumerate() {
        a.li(Reg(reg_num(24, k)), b as i64); // stream pointers
    }
    a.li(Reg(4), (p.footprint - 1) as i64); // wrap mask
    a.data_f64s(0x1000, [1.5, 0.25]);
    a.li(Reg(5), 0x1000);
    a.fld(FReg(1), Reg(5), 0); // multiplicand
    a.fld(FReg(2), Reg(5), 8); // addend

    a.label("loop");
    for u in 0..p.unroll {
        let arr = u % p.arrays;
        let ptr = Reg(reg_num(24, arr));
        let v = FReg(reg_num(8, u % 8));
        a.fld(v, ptr, (u as i64 / p.arrays as i64) * 8);
        for op in 0..p.fp_ops_per_elem {
            // Independent per element: each op feeds the next for THIS
            // element only (short chains of latency-4 ops).
            if op % 2 == 0 {
                a.fmul(v, v, FReg(1));
            } else {
                a.fadd(v, v, FReg(2));
            }
        }
        // Fold into per-lane accumulators (independent across lanes).
        let acc = FReg(reg_num(16, u % 8));
        a.fadd(acc, acc, v);
    }
    // Advance and wrap the stream pointers.
    let stride = ((p.unroll / p.arrays).max(1) * 8) as i64;
    for (k, &b) in bases.iter().enumerate() {
        let ptr = Reg(reg_num(24, k));
        a.addi(ptr, ptr, stride);
        // Wrap within the footprint: ptr = base + ((ptr - base) & mask).
        a.li(Reg(6), b as i64);
        a.sub(Reg(7), ptr, Reg(6));
        a.and(Reg(7), Reg(7), Reg(4));
        a.add(ptr, Reg(6), Reg(7));
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
    fn accumulators_accumulate() {
        let p = stream_fp(50, &StreamFpParams::default());
        let mut emu = Emulator::new(&p);
        emu.run(5_000_000).unwrap();
        let acc: f64 = (0..8u8).map(|i| emu.fp_reg(FReg(16 + i))).sum();
        assert!(acc != 0.0 && acc.is_finite());
    }

    #[test]
    fn stream_pointers_stay_in_bounds() {
        let params = StreamFpParams { footprint: 1 << 14, ..StreamFpParams::default() };
        let p = stream_fp(5000, &params);
        let mut emu = Emulator::new(&p);
        emu.run(20_000_000).unwrap();
        for k in 0..2u8 {
            let base = 0x200_0000 + (k as u64) * 0x100_0000;
            let ptr = emu.int_reg(Reg(24 + k));
            assert!(ptr >= base && ptr < base + (1 << 14), "pointer {k} wrapped: {ptr:#x}");
        }
    }

    #[test]
    fn unroll_scales_body_size() {
        let small = stream_fp(1, &StreamFpParams { unroll: 4, ..StreamFpParams::default() });
        let big = stream_fp(1, &StreamFpParams { unroll: 12, ..StreamFpParams::default() });
        assert!(big.len() > small.len());
    }
}
