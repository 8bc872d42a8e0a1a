//! Property tests of the whole core: randomly generated (guaranteed-
//! terminating) programs must produce identical architectural state under
//! every issue-queue organization, and timing invariants must hold.
//!
//! Ported from `proptest` to the in-tree harness (`swque_rng::prop`);
//! each property keeps at least its original case count (24).

use std::sync::atomic::{AtomicU64, Ordering};

use swque_rng::prop::check;

use swque_core::cycle::InstCount;
use swque_core::IqKind;
use swque_cpu::{Core, CoreConfig};
use swque_isa::{Assembler, Emulator, Program, Reg};

/// A constrained random program: an initialization block, a loop with a
/// random mix of ALU/memory/branch work, bounded iteration count.
fn random_program(body: &[u8], iters: u8) -> Program {
    let mut a = Assembler::new();
    a.data_u64s(0x1000, (0..64u64).map(|i| i * 0x9E37 + 1));
    a.li(Reg(1), iters as i64 + 1);
    a.li(Reg(2), 0x1000);
    a.li(Reg(3), 1);
    a.label("loop");
    let mut label = 0u32;
    for (i, b) in body.iter().enumerate() {
        let dst = Reg(4 + (i % 10) as u8);
        let src = Reg(4 + ((i + 7) % 10) as u8);
        match b % 8 {
            0 => a.add(dst, src, Reg(3)),
            1 => a.xori(dst, src, *b as i64),
            2 => a.mul(dst, src, Reg(3)),
            3 => {
                // Bounded load: index by the counter.
                a.andi(dst, src, 0x1F8);
                a.add(dst, dst, Reg(2));
                a.ld(dst, dst, 0);
            }
            4 => {
                a.andi(dst, src, 0x1F8);
                a.add(dst, dst, Reg(2));
                a.st(Reg(3), dst, 0);
            }
            5 => {
                // Forward branch over one instruction.
                let l = format!("l{label}");
                label += 1;
                a.andi(Reg(14), src, 1);
                a.beq(Reg(14), Reg::ZERO, &l);
                a.addi(dst, dst, 3);
                a.label(&l);
            }
            6 => a.srai(dst, src, (*b % 13) as i64),
            _ => a.sub(dst, src, Reg(3)),
        }
    }
    a.addi(Reg(1), Reg(1), -1);
    a.bne(Reg(1), Reg::ZERO, "loop");
    a.halt();
    a.finish().expect("valid labels")
}

/// Scheduling policy never changes computation: all queue kinds agree
/// with the functional emulator on every architectural register.
#[test]
fn all_queues_match_functional_reference() {
    check(24, |g| {
        let body: Vec<u8> = g.vec(3..24, |g| g.u8());
        let iters = g.gen_range(1u8..30);
        let program = random_program(&body, iters);
        let mut reference = Emulator::new(&program);
        reference.run(10_000_000).expect("terminates");

        for kind in [IqKind::Shift, IqKind::CircPc, IqKind::Age, IqKind::Swque] {
            let mut core = Core::new(CoreConfig::tiny(), kind, &program);
            let result = core.run(u64::MAX);
            assert!(core.finished(), "{kind} drains");
            assert_eq!(result.retired, reference.retired(), "{kind} retire count");
            for r in 1..16u8 {
                assert_eq!(
                    core.emulator().int_reg(Reg(r)),
                    reference.int_reg(Reg(r)),
                    "{kind} r{r} diverged"
                );
            }
        }
    });
}

/// Timing sanity on random programs: cycles ≥ instructions / width, and
/// every dispatched instruction either retires, is squashed by a
/// misprediction, or is removed by a SWQUE mode-switch flush. SWQUE
/// decides every 8 instructions here, so even these short programs switch
/// modes and replay.
#[test]
fn timing_bounds_hold() {
    let swque_flushed = AtomicU64::new(0);
    check(24, |g| {
        let body: Vec<u8> = g.vec(3..16, |g| g.u8());
        let iters = g.gen_range(1u8..20);
        let program = random_program(&body, iters);
        for kind in [IqKind::Age, IqKind::Swque] {
            let mut config = CoreConfig::tiny();
            config.iq.swque.interval_insts = InstCount::new(8);
            let mut core = Core::new(config, kind, &program);
            let r = core.run(u64::MAX);
            assert!(r.cycles as f64 >= r.retired as f64 / 2.0, "{kind}: width-2 bound");
            assert_eq!(
                r.core.dispatched,
                r.retired + r.core.wrong_path_squashed + r.core.flushed,
                "{kind}: dispatch = retire + squashed + flushed"
            );
            if kind == IqKind::Age {
                let replay = (r.core.mode_switch_flushes, r.core.flushed, r.core.replayed);
                assert_eq!(replay, (0, 0, 0), "AGE never flushes or replays");
            } else {
                swque_flushed.fetch_add(r.core.flushed, Ordering::Relaxed);
            }
        }
    });
    assert!(swque_flushed.into_inner() > 0, "SWQUE never flushed: the flush term went unexercised");
}

/// One-to-eight-entry ROBs and LSQs (a slice of ROADMAP item 6's machine
/// configuration fuzzing): with so few slots every dispatch reuses a slot
/// that was just committed, squashed or flushed, and memory instructions
/// back up behind each other in the LSQ. Every kind must still end with
/// the emulator's architectural state and no invariant violation. SWQUE
/// decides every 8 instructions, so flushes interleave with squashes.
#[test]
fn tiny_rob_and_lsq_match_functional_reference() {
    check(48, |g| {
        let body: Vec<u8> = g.vec(3..16, |g| g.u8());
        let iters = g.gen_range(1u8..12);
        let program = random_program(&body, iters);
        let mut reference = Emulator::new(&program);
        reference.run(10_000_000).expect("terminates");
        let mut config = CoreConfig::tiny();
        config.rob_entries = g.gen_range(1usize..9);
        config.lsq_entries = g.gen_range(1usize..9);
        config.iq.swque.interval_insts = InstCount::new(8);
        let sizes = (config.rob_entries, config.lsq_entries);
        for kind in IqKind::ALL {
            let mut core = Core::new(config.clone(), kind, &program);
            let result = core.run(u64::MAX);
            assert_eq!(result.invariant, None, "{kind} (rob, lsq) = {sizes:?}");
            assert!(core.finished(), "{kind} (rob, lsq) = {sizes:?} drains");
            assert_eq!(result.retired, reference.retired(), "{kind} (rob, lsq) = {sizes:?}");
            for r in 1..16u8 {
                assert_eq!(
                    core.emulator().int_reg(Reg(r)),
                    reference.int_reg(Reg(r)),
                    "{kind} (rob, lsq) = {sizes:?}: r{r} diverged"
                );
            }
        }
    });
}
