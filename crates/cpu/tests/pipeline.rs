//! Integration tests for the out-of-order core: architectural correctness
//! across every issue-queue organization, plus timing sanity properties.

use swque_core::IqKind;
use swque_cpu::{Core, CoreConfig};
use swque_isa::{Assembler, FReg, Program, Reg};

/// A branchy integer loop with a dependent chain and memory traffic.
fn mixed_program(iters: i64) -> Program {
    let mut a = Assembler::new();
    a.li(Reg(1), iters); // counter
    a.li(Reg(2), 0); // accumulator
    a.li(Reg(3), 0x1_0000); // buffer base
    a.li(Reg(4), 1);
    a.label("loop");
    a.add(Reg(2), Reg(2), Reg(1));
    a.and(Reg(5), Reg(1), Reg(4));
    a.beq(Reg(5), Reg::ZERO, "even");
    a.addi(Reg(2), Reg(2), 3);
    a.label("even");
    a.slli(Reg(6), Reg(1), 3);
    a.add(Reg(6), Reg(6), Reg(3));
    a.andi(Reg(6), Reg(6), 0xFFFF8); // keep addresses bounded
    a.st(Reg(2), Reg(6), 0);
    a.ld(Reg(7), Reg(6), 0);
    a.add(Reg(2), Reg(2), Reg(7));
    a.addi(Reg(1), Reg(1), -1);
    a.bne(Reg(1), Reg::ZERO, "loop");
    a.halt();
    a.finish().unwrap()
}

/// An FP dataflow kernel.
fn fp_program(iters: i64) -> Program {
    let mut a = Assembler::new();
    a.data_f64s(0x100, &[1.5, 2.5, 0.5]);
    a.li(Reg(1), iters);
    a.li(Reg(2), 0x100);
    a.fld(FReg(1), Reg(2), 0);
    a.fld(FReg(2), Reg(2), 8);
    a.fld(FReg(3), Reg(2), 16);
    a.label("loop");
    a.fmul(FReg(4), FReg(1), FReg(2));
    a.fadd(FReg(5), FReg(4), FReg(3));
    a.fsub(FReg(3), FReg(5), FReg(4));
    a.addi(Reg(1), Reg(1), -1);
    a.bne(Reg(1), Reg::ZERO, "loop");
    a.fst(FReg(3), Reg(2), 24);
    a.halt();
    a.finish().unwrap()
}

#[test]
fn all_iq_kinds_produce_identical_architectural_state() {
    let program = mixed_program(300);
    // Reference: pure functional execution.
    let mut reference = swque_isa::Emulator::new(&program);
    reference.run(1_000_000).unwrap();
    let want = reference.int_reg(Reg(2));

    for kind in IqKind::ALL {
        let mut core = Core::new(CoreConfig::tiny(), kind, &program);
        let result = core.run(u64::MAX);
        assert!(core.finished(), "{kind}: program must drain");
        assert_eq!(
            core.emulator().int_reg(Reg(2)),
            want,
            "{kind}: architectural result must match the functional reference"
        );
        assert_eq!(result.retired, reference.retired(), "{kind}: retire count");
        assert!(result.ipc() > 0.0, "{kind}: made progress");
    }
}

#[test]
fn fp_program_consistent_across_queues_and_sizes() {
    let program = fp_program(200);
    let mut reference = swque_isa::Emulator::new(&program);
    reference.run(1_000_000).unwrap();
    let want = reference.fp_reg(FReg(3));

    for config in [CoreConfig::tiny(), CoreConfig::medium(), CoreConfig::large()] {
        for kind in [IqKind::Shift, IqKind::CircPc, IqKind::Swque] {
            let mut core = Core::new(config.clone(), kind, &program);
            core.run(u64::MAX);
            assert_eq!(core.emulator().fp_reg(FReg(3)), want, "{kind} diverged");
        }
    }
}

#[test]
fn shift_is_at_least_as_fast_as_circ_on_a_wrapping_workload() {
    // Long dependent chains force CIRC into wrap-around + holes.
    let program = mixed_program(500);
    let ipc = |kind: IqKind| {
        let mut core = Core::new(CoreConfig::tiny(), kind, &program);
        core.run(u64::MAX).ipc()
    };
    let shift = ipc(IqKind::Shift);
    let circ = ipc(IqKind::Circ);
    assert!(
        shift >= circ * 0.999,
        "SHIFT ({shift:.3}) should not lose to CIRC ({circ:.3})"
    );
}

#[test]
fn independent_alu_stream_approaches_alu_throughput() {
    // A loop of fully independent adds: a medium core (3 iALUs, width 6)
    // should sustain well above 2 IPC once the I-cache warms (the first
    // iteration pays cold instruction misses, as any real program does).
    let mut a = Assembler::new();
    a.li(Reg(31), 60); // outer iterations
    a.label("outer");
    for i in 0..300u32 {
        let d = 1 + (i % 25) as u8;
        a.addi(Reg(d), Reg::ZERO, i as i64);
    }
    a.addi(Reg(31), Reg(31), -1);
    a.bne(Reg(31), Reg::ZERO, "outer");
    a.halt();
    let program = a.finish().unwrap();
    let mut core = Core::new(CoreConfig::medium(), IqKind::Shift, &program);
    let r = core.run(u64::MAX);
    assert!(r.ipc() > 2.0, "independent ALU stream should flow: IPC = {:.3}", r.ipc());
}

#[test]
fn dependent_chain_is_serialized_to_one_ipc_or_less() {
    let mut a = Assembler::new();
    a.li(Reg(1), 0);
    a.li(Reg(31), 60); // outer iterations
    a.label("outer");
    for _ in 0..300 {
        a.addi(Reg(1), Reg(1), 1);
    }
    a.addi(Reg(31), Reg(31), -1);
    a.bne(Reg(31), Reg::ZERO, "outer");
    a.halt();
    let program = a.finish().unwrap();
    let mut core = Core::new(CoreConfig::medium(), IqKind::Shift, &program);
    let r = core.run(u64::MAX);
    assert!(r.ipc() <= 1.1, "dependent chain cannot beat 1 IPC by much: {:.3}", r.ipc());
    assert!(r.ipc() > 0.7, "back-to-back issue should keep the chain near 1 IPC: {:.3}", r.ipc());
}

#[test]
fn branch_mispredictions_cost_cycles() {
    // A data-dependent unpredictable branch pattern (LCG parity) versus a
    // perfectly biased one.
    let build = |chaotic: bool| {
        let mut a = Assembler::new();
        a.li(Reg(1), 400); // iterations
        a.li(Reg(2), 12345); // lcg state
        a.li(Reg(3), 1103515245);
        a.li(Reg(4), 0);
        a.label("loop");
        if chaotic {
            a.mul(Reg(2), Reg(2), Reg(3));
            a.addi(Reg(2), Reg(2), 12345);
            a.srli(Reg(5), Reg(2), 16);
            a.andi(Reg(5), Reg(5), 1);
        } else {
            a.li(Reg(5), 1);
        }
        a.beq(Reg(5), Reg::ZERO, "skip");
        a.addi(Reg(4), Reg(4), 1);
        a.label("skip");
        a.addi(Reg(1), Reg(1), -1);
        a.bne(Reg(1), Reg::ZERO, "loop");
        a.halt();
        a.finish().unwrap()
    };
    let cycles = |p: &Program| {
        let mut core = Core::new(CoreConfig::medium(), IqKind::Age, p);
        let r = core.run(u64::MAX);
        (r.cycles, r.branch.mispredict_rate())
    };
    let (_biased_cycles, biased_rate) = cycles(&build(false));
    let (_chaos_cycles, chaos_rate) = cycles(&build(true));
    assert!(biased_rate < 0.05, "biased branch should predict well: {biased_rate:.3}");
    assert!(chaos_rate > 0.2, "LCG parity should mispredict often: {chaos_rate:.3}");
}

#[test]
fn swque_switches_modes_on_memory_intensive_code() {
    // A pointer chase over a large footprint: every load misses the LLC,
    // driving MPKI far above the threshold, so SWQUE must settle into AGE.
    let mut a = Assembler::new();
    let n = 4096u64;
    let stride = 8 * 1031 % n; // coprime stride walk
    let base = 0x10_0000u64;
    let ring: Vec<u64> = (0..n).map(|i| base + ((i * 8 + stride * 8) % (n * 8))).collect();
    a.data_u64s(base, &ring);
    a.li(Reg(1), 3000); // loads to perform
    a.li(Reg(2), base as i64);
    a.label("loop");
    a.ld(Reg(2), Reg(2), 0); // pointer chase
    a.addi(Reg(1), Reg(1), -1);
    a.bne(Reg(1), Reg::ZERO, "loop");
    a.halt();
    let program = a.finish().unwrap();

    let mut config = CoreConfig::medium();
    config.iq.swque.interval_insts = 1_000; // faster decisions for the test
    let mut core = Core::new(config, IqKind::Swque, &program);
    let r = core.run(u64::MAX);
    let sw = r.swque.expect("SWQUE reports mode stats");
    assert!(r.mpki() > 1.0, "pointer chase must be memory-intensive: MPKI {:.2}", r.mpki());
    assert!(sw.switches >= 1, "SWQUE should reconfigure to AGE");
    assert!(sw.cycles_age > 0, "time must be spent in AGE mode");
    assert_eq!(r.core.mode_switch_flushes, sw.switches, "each switch flushes once");
}

#[test]
fn result_stats_are_internally_consistent() {
    let program = mixed_program(200);
    let mut core = Core::new(CoreConfig::medium(), IqKind::Age, &program);
    let r = core.run(u64::MAX);
    // The program has no nops, so every dispatched instruction enters the IQ.
    assert_eq!(r.iq.dispatched, r.core.dispatched);
    assert!(r.iq.dispatched >= r.iq.issued);
    assert!(r.core.dispatched >= r.retired);
    assert!(r.iq.selects <= r.cycles);
    assert!(r.mem.l1d.accesses > 0);
    assert!(r.branch.predicted > 0);
}

#[test]
fn snapshot_reports_live_occupancy() {
    let program = mixed_program(300);
    let mut core = Core::new(CoreConfig::medium(), IqKind::Age, &program);
    core.run(2_000);
    let snap = core.snapshot();
    assert_eq!(snap.retired, core.retired());
    assert!(snap.rob_occupancy <= 256);
    assert!(snap.iq_occupancy <= 128);
    assert!(snap.rob_occupancy >= snap.iq_occupancy, "IQ entries are a subset of the ROB");
    // Drained pipeline: everything empties.
    core.run(u64::MAX);
    let end = core.snapshot();
    assert_eq!(end.rob_occupancy, 0);
    assert_eq!(end.iq_occupancy, 0);
    assert_eq!(end.decode_occupancy, 0);
    assert_eq!(end.replay_pending, 0);
}

#[test]
fn run_is_resumable() {
    let program = mixed_program(500);
    let mut core = Core::new(CoreConfig::tiny(), IqKind::Age, &program);
    let first = core.run(100);
    assert!(first.retired >= 100);
    assert!(!core.finished());
    let second = core.run(u64::MAX);
    assert!(core.finished());
    assert!(second.retired > first.retired);
}
