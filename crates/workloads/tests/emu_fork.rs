//! Forking an emulator mid-run. A clone shares the memory image
//! copy-on-write; both copies must then run to the architectural state of
//! an unforked run, and neither may see the other's stores.

use swque_isa::{Assembler, Emulator, FReg, Program, Reg};
use swque_workloads::synthetic::{pointer_chase, PointerChaseParams};

const STEP_LIMIT: u64 = 10_000_000;

/// Registers, pc, retirement count and halt flag.
fn registers(e: &Emulator) -> (Vec<u64>, Vec<u64>, u64, u64, bool) {
    let ints = (0..32).map(|r| e.int_reg(Reg(r))).collect();
    let fps = (0..32).map(|r| e.fp_reg(FReg(r)).to_bits()).collect();
    (ints, fps, e.pc(), e.retired(), e.halted())
}

fn assert_same_state(e: &Emulator, want: &Emulator, what: &str) {
    assert_eq!(registers(e), registers(want), "{what}: registers");
    assert!(e.memory() == want.memory(), "{what}: memory differs");
}

/// Forks `program` after `fork_at` instructions, runs the fork to the
/// end, then the original. Returns whether the fork stored anything after
/// the fork point.
fn fork_and_finish(program: &Program, fork_at: u64) -> bool {
    let mut unforked = Emulator::new(program);
    unforked.run(STEP_LIMIT).unwrap();
    let mut at_fork = Emulator::new(program);
    for _ in 0..fork_at {
        at_fork.step().unwrap();
    }

    let mut original = Emulator::new(program);
    for _ in 0..fork_at {
        original.step().unwrap();
    }
    let mut fork = original.clone();
    fork.run(STEP_LIMIT).unwrap();
    assert_same_state(&fork, &unforked, "fork");
    assert_same_state(&original, &at_fork, "original while the fork ran");
    original.run(STEP_LIMIT).unwrap();
    assert_same_state(&original, &unforked, "original");
    assert_same_state(&fork, &unforked, "fork after the original ran");
    fork.memory() != at_fork.memory()
}

/// Three passes of an in-place running sum over four pages of initial
/// data: a load and a store to every word of pages the image shares.
fn store_heavy() -> Program {
    const BASE: u64 = 0x10_0000;
    const WORDS: i64 = 2048;
    let mut a = Assembler::new();
    a.data_u64s(BASE, (0..WORDS as u64).map(|i| i * 3 + 1));
    a.li(Reg(1), 3); // passes left
    a.li(Reg(5), 0); // running sum
    a.label("pass");
    a.li(Reg(2), WORDS);
    a.li(Reg(3), BASE as i64);
    a.label("word");
    a.ld(Reg(4), Reg(3), 0);
    a.add(Reg(5), Reg(5), Reg(4));
    a.st(Reg(5), Reg(3), 0);
    a.addi(Reg(3), Reg(3), 8);
    a.addi(Reg(2), Reg(2), -1);
    a.bne(Reg(2), Reg::ZERO, "word");
    a.addi(Reg(1), Reg(1), -1);
    a.bne(Reg(1), Reg::ZERO, "pass");
    a.halt();
    a.finish().unwrap()
}

#[test]
fn a_forked_store_heavy_kernel_keeps_each_copys_stores_its_own() {
    let program = store_heavy();
    let total = Emulator::new(&program).run(STEP_LIMIT).unwrap();
    for fork_at in [1, total / 3, total / 2, total - 20] {
        assert!(fork_and_finish(&program, fork_at), "fork at {fork_at}: the fork stored nothing");
    }
}

#[test]
fn a_forked_pointer_chase_ends_where_an_unforked_one_does() {
    let program = pointer_chase(300, &PointerChaseParams::default());
    let total = Emulator::new(&program).run(STEP_LIMIT).unwrap();
    for fork_at in [1, total / 2] {
        fork_and_finish(&program, fork_at);
    }
}
