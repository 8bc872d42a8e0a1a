//! Moderate-ILP archetype v2: latency-critical cache-resident pointer
//! chains contending with latency-tolerant young loads on the load ports.
//!
//! This is the workload shape where issue priority decides performance
//! (paper §1 and §4.2's moderate-ILP programs):
//!
//! * A few **chase chains** walk small, cache-resident pointer rings. Each
//!   link's load feeds the next, so the chain advances one load every few
//!   cycles — the critical path. Chain loads sit in the issue queue long
//!   before their operand arrives, so when they *do* become ready they are
//!   among the oldest instructions present.
//! * A stream of **young gather loads** (sequential, immediate-offset, no
//!   address dependence) is ready the moment it dispatches and keeps the
//!   two load ports near saturation. Their results feed only
//!   latency-tolerant side work.
//!
//! With age-correct priority (SHIFT, CIRC-PC), a ready chain load always
//! beats the young gathers and the chain runs at cache-hit speed. With
//! position-random priority (RAND, and AGE beyond its single protected
//! oldest), ready chain loads repeatedly lose the port race to younger
//! gathers, and every lost cycle lengthens the program's critical path.

use swque_rng::Rng;

use swque_isa::{Assembler, FReg, Program, Reg};

use super::{emit_biased_branch, emit_indep_alu, emit_lcg_step, finish, reg_num, ring_table};

/// Parameters for [`chase_clump`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaseClumpParams {
    /// Critical pointer-chase chains (1–6).
    pub chains: usize,
    /// Chase loads per chain per iteration.
    pub links: usize,
    /// Dependent ALU ops appended to each link (critical integer work that
    /// becomes ready the moment the chase load returns, contending for the
    /// ALUs alongside the next link's contention for the load ports).
    pub link_alu: usize,
    /// Young sequential gather loads per iteration (load-port pressure).
    pub young_loads: usize,
    /// Byte stride between consecutive young gather loads. 8 walks densely
    /// (cache friendly); 64+ touches a fresh line per load so the gathers
    /// keep missing the L1 in steady state, which sustains the load-port
    /// backlog that makes priority matter.
    pub young_stride: u64,
    /// Dependent ALU ops consuming gathered values per iteration.
    pub clump_deps: usize,
    /// Independent integer filler ops per iteration.
    pub filler_int: usize,
    /// Independent FP filler ops per iteration.
    pub filler_fp: usize,
    /// Loop-carried FP-chain ops per iteration (FP-flavoured kernels):
    /// a dependent `fmul`/`fadd` recurrence on `f20`.
    pub fp_chain_ops: usize,
    /// Data-dependent biased branches per iteration.
    pub branches: usize,
    /// Branch taken-probability numerator out of 8.
    pub taken_bias: i64,
    /// Hard-to-predict branches per iteration whose condition derives from
    /// a *gathered* value: they are data-random (gshare cannot learn them)
    /// and resolve late (after the feeding load). Their mispredictions
    /// periodically collapse the in-flight window, which is what keeps real
    /// moderate-ILP programs' issue queues lightly occupied.
    pub hard_branches: usize,
    /// Taken-probability numerator (out of 8) for hard branches; values
    /// near 4–6 give realistic moderate-ILP misprediction distances.
    pub hard_bias: i64,
    /// Chase-ring bytes (power of two; keep it L1-resident so links run at
    /// hit latency).
    pub ring_bytes: u64,
    /// Gather-buffer bytes (power of two; L2-resident).
    pub gather_bytes: u64,
    /// Layout seed.
    pub seed: u64,
}

impl Default for ChaseClumpParams {
    fn default() -> ChaseClumpParams {
        ChaseClumpParams {
            chains: 2,
            links: 4,
            link_alu: 2,
            young_loads: 18,
            young_stride: 64,
            clump_deps: 6,
            filler_int: 4,
            filler_fp: 4,
            fp_chain_ops: 0,
            branches: 1,
            taken_bias: 7,
            hard_branches: 1,
            hard_bias: 6,
            ring_bytes: 16 << 10,
            gather_bytes: 256 << 10,
            seed: 0xC1A5,
        }
    }
}

/// Generates a chase-and-clump moderate-ILP kernel of `iters` iterations.
///
/// # Panics
///
/// Panics if `chains` is outside `1..=4` or a footprint is not a power of
/// two ≥ 64.
pub fn chase_clump(iters: u64, p: &ChaseClumpParams) -> Program {
    assert!((1..=6).contains(&p.chains), "chains out of range");
    assert!(p.ring_bytes.is_power_of_two() && p.ring_bytes >= 64);
    assert!(p.gather_bytes.is_power_of_two() && p.gather_bytes >= 64);
    let mut rng = Rng::seed_from_u64(p.seed);
    let mut a = Assembler::new();

    // Chase ring: Sattolo single cycle over the L1-resident nodes.
    let ring_base = 0x10_0000u64;
    let nodes = p.ring_bytes / 8;
    let ring = ring_table(nodes, ring_base, &mut rng);
    a.data_u64s(ring_base, &ring);

    // Gather buffer: LCG noise, so hard-branch conditions derived from
    // gathered values are unlearnable by the direction predictor.
    let gather_base = 0x80_0000u64;
    let mut x = p.seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let gather_words: Vec<u64> = (0..p.gather_bytes / 8)
        .map(|_| {
            x = x.wrapping_mul(super::LCG_MUL as u64).wrapping_add(super::LCG_ADD as u64);
            x
        })
        .collect();
    a.data_u64s(gather_base, &gather_words);
    a.data_f64s(0x1000, &[1.25, 0.75]);

    a.li(Reg(1), iters as i64);
    a.li(Reg(2), (p.seed | 1) as i64);
    a.li(Reg(25), gather_base as i64); // gather cursor
    a.li(Reg(26), (p.gather_bytes - 1) as i64); // gather wrap mask
    a.li(Reg(27), gather_base as i64);
    for c in 0..p.chains {
        let start = (nodes / p.chains as u64) * c as u64;
        a.li(Reg(reg_num(16, c)), (ring_base + start * 8) as i64);
    }
    a.li(Reg(5), 0x1000);
    a.fld(FReg(1), Reg(5), 0);
    a.fld(FReg(2), Reg(5), 8);
    if p.fp_chain_ops > 0 {
        a.fmul(FReg(20), FReg(1), FReg(2));
    }

    a.label("loop");
    emit_lcg_step(&mut a);

    // Interleave chase links round-robin with the young work so every part
    // of the iteration sees port contention.
    let total_links = p.chains * p.links;
    let young_per_link = p.young_loads.div_ceil(total_links.max(1));
    let deps_per_link = p.clump_deps.div_ceil(total_links.max(1));
    let mut young_emitted = 0usize;
    let mut deps_emitted = 0usize;
    let mut fill_int = 0usize;
    let mut fill_fp = 0usize;
    for link in 0..p.links {
        for c in 0..p.chains {
            let r = Reg(reg_num(16, c));
            a.ld(r, r, 0); // critical: p = *p
            // Critical ALU tail of the link: dependent on the loaded
            // pointer, net-zero change so the walk stays on the ring.
            for w in 0..p.link_alu {
                if w % 2 == 0 {
                    a.addi(r, r, 24);
                } else {
                    a.addi(r, r, -24);
                }
            }
            if p.link_alu % 2 == 1 {
                a.addi(r, r, -24); // balance an odd tail
            }
            // Young gathers: ready at dispatch, contend for the ports.
            for _ in 0..young_per_link {
                if young_emitted < p.young_loads {
                    let dst = Reg(reg_num(8, young_emitted % 4));
                    a.ld(dst, Reg(25), (young_emitted as u64 * p.young_stride) as i64);
                    young_emitted += 1;
                }
            }
            for _ in 0..deps_per_link {
                if deps_emitted < p.clump_deps {
                    let src = Reg(reg_num(8, deps_emitted % 4));
                    let dst = Reg(reg_num(12, deps_emitted % 4));
                    a.add(dst, src, Reg(2));
                    deps_emitted += 1;
                }
            }
            if fill_int < p.filler_int && link % 2 == 0 {
                emit_indep_alu(&mut a, fill_int);
                fill_int += 1;
            }
            if fill_fp < p.filler_fp && link % 2 == 1 {
                let dst = FReg(reg_num(8, fill_fp % 8));
                a.fmul(dst, FReg(1), FReg(2));
                fill_fp += 1;
            }
        }
    }
    while fill_int < p.filler_int {
        emit_indep_alu(&mut a, fill_int);
        fill_int += 1;
    }
    while fill_fp < p.filler_fp {
        let dst = FReg(reg_num(8, fill_fp % 8));
        a.fmul(dst, FReg(1), FReg(2));
        fill_fp += 1;
    }

    // Advance the gather cursor and wrap inside the buffer.
    a.addi(Reg(25), Reg(25), (p.young_loads as u64 * p.young_stride) as i64);
    a.sub(Reg(4), Reg(25), Reg(27));
    a.and(Reg(4), Reg(4), Reg(26));
    a.add(Reg(25), Reg(27), Reg(4));

    let mut label_id = 0u32;
    for b in 0..p.branches {
        let label = format!("cc{label_id}");
        label_id += 1;
        emit_biased_branch(&mut a, &label, 19 + 2 * b as i64, p.taken_bias, 1);
    }
    // Hard branches: condition bits come from a gathered value, so the
    // direction is data-random and resolution waits for the load.
    for b in 0..p.hard_branches {
        let label = format!("cch{label_id}");
        label_id += 1;
        let src = Reg(reg_num(8, b % 4)); // a gather destination
        a.srli(Reg(5), src, 2 + b as i64);
        a.andi(Reg(5), Reg(5), 7);
        a.slti(Reg(5), Reg(5), p.hard_bias);
        a.bne(Reg(5), Reg::ZERO, &label);
        a.xori(Reg(14), Reg(1), 0x3C3);
        a.label(&label);
    }

    // Loop-carried FP recurrence (kept finite by a near-one multiplier).
    for op in 0..p.fp_chain_ops {
        if op % 2 == 0 {
            a.fmul(FReg(20), FReg(20), FReg(2)); // x0.75
        } else {
            a.fadd(FReg(20), FReg(20), FReg(1)); // +1.25
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
    fn chains_stay_on_their_ring() {
        let params = ChaseClumpParams::default();
        let p = chase_clump(200, &params);
        let mut emu = Emulator::new(&p);
        emu.run(10_000_000).unwrap();
        let base = 0x10_0000u64;
        let end = base + params.ring_bytes;
        for c in 0..params.chains as u8 {
            let v = emu.int_reg(Reg(16 + c));
            assert!(v >= base && v < end, "chain {c} escaped: {v:#x}");
        }
    }

    #[test]
    fn gather_cursor_wraps_in_bounds() {
        let params = ChaseClumpParams { gather_bytes: 1 << 12, ..ChaseClumpParams::default() };
        let p = chase_clump(5_000, &params);
        let mut emu = Emulator::new(&p);
        emu.run(30_000_000).unwrap();
        let cursor = emu.int_reg(Reg(25));
        assert!((0x80_0000..0x80_0000 + (1 << 12)).contains(&cursor));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = chase_clump(10, &ChaseClumpParams::default());
        let b = chase_clump(10, &ChaseClumpParams::default());
        assert_eq!(a.insts, b.insts);
    }
}
