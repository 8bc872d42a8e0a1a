//! End-to-end pin of the completion-event overflow path.
//!
//! Completion events sit in a ring of per-cycle buckets that spans a
//! bounded number of cycles; an event further out than that goes to an
//! overflow heap and is merged back into its cycle's bucket order when it
//! falls due. At the default DRAM latency almost nothing takes that path,
//! so this test raises the DRAM latency to 1,500 cycles and runs a pointer
//! chase whose every hop misses to memory, beside independent ALU work and
//! a store per hop whose completions land in the ring. The `(cycles,
//! retired)` pairs were recorded on the binary-heap event queue the ring
//! replaced; the run must also end in the functional emulator's
//! architectural state, with no pipeline invariant raised.

use swque_core::IqKind;
use swque_cpu::{Core, CoreConfig};
use swque_isa::{Assembler, Emulator, Program, Reg};

const NODES: u64 = 48;
/// Node spacing: a new page and cache line per hop, past the stream
/// prefetcher's reach.
const STRIDE: u64 = 4096 + 64;
const BASE: u64 = 0x10_0000;

/// Two laps of a pointer chase over `NODES` nodes in a scrambled order
/// (the first lap misses to DRAM, the second hits in the L2); each hop
/// adds the node's payload, stores a running sum and branches on its
/// parity.
fn chase_program() -> Program {
    let mut a = Assembler::new();
    let order: Vec<u64> = (0..NODES).map(|i| (i * 17 + 5) % NODES).collect();
    for (i, &node) in order.iter().enumerate() {
        let next = order[(i + 1) % order.len()];
        a.data_u64s(BASE + node * STRIDE, [BASE + next * STRIDE, node * 3 + 1]);
    }
    a.li(Reg(1), (BASE + order[0] * STRIDE) as i64); // cursor
    a.li(Reg(2), 2 * NODES as i64); // hops left
    a.li(Reg(3), 0); // payload sum
    a.li(Reg(4), 0); // independent ALU work
    a.li(Reg(8), 1);
    a.label("hop");
    a.ld(Reg(5), Reg(1), 8);
    a.add(Reg(3), Reg(3), Reg(5));
    a.st(Reg(3), Reg(1), 16);
    a.and(Reg(6), Reg(5), Reg(8));
    a.beq(Reg(6), Reg::ZERO, "even");
    a.addi(Reg(4), Reg(4), 7);
    a.label("even");
    a.addi(Reg(4), Reg(4), 1);
    a.mul(Reg(7), Reg(4), Reg(4));
    a.ld(Reg(1), Reg(1), 0);
    a.addi(Reg(2), Reg(2), -1);
    a.bne(Reg(2), Reg::ZERO, "hop");
    a.halt();
    a.finish().expect("the chase assembles")
}

#[test]
fn far_completion_events_keep_the_heap_order() {
    let program = chase_program();
    let mut reference = Emulator::new(&program);
    reference.run(1_000_000).expect("the chase halts");

    let mut config = CoreConfig::tiny();
    config.mem.dram_latency = 1_500;
    for (kind, pinned) in [(IqKind::Age, (74_808, 1_013)), (IqKind::Swque, (74_839, 1_013))] {
        let mut core = Core::new(config.clone(), kind, &program);
        let result = core.run(u64::MAX);
        println!("{kind}: ({}, {})", result.cycles, result.retired);
        assert!(result.invariant.is_none(), "{kind}: {:?}", result.invariant);
        assert!(core.finished(), "{kind}: the chase must drain");
        for r in 1..=8 {
            assert_eq!(
                core.emulator().int_reg(Reg(r)),
                reference.int_reg(Reg(r)),
                "{kind}: r{r} differs from the functional emulator"
            );
        }
        assert_eq!(result.retired, reference.retired(), "{kind}: retire count");
        assert!(result.cycles > NODES * 1_500, "{kind}: every first-lap hop waited on DRAM");
        assert_eq!((result.cycles, result.retired), pinned, "{kind}");
    }
}
