//! Little's law for the queue accounting: a queue's `occupancy_sum` is the
//! number of selects its entries spent queued, summed over the entries.
//!
//! Every kind is driven through random soups of dispatch, wakeup, select,
//! squash, flush, SWQUE mode polls and `idle_tick(n)` (whenever
//! `has_ready()` is false). A shadow counts, per entry, the selects it was
//! queued for — an entry counts for the select that grants it, and
//! `idle_tick(n)` counts as `n` selects — and keeps the count of every
//! entry that left (granted, squashed or flushed). After every operation:
//!
//! * `occupancy_sum` equals that sum over all entries, gone and queued;
//! * `selects` equals the selects issued plus every idle tick's `n`;
//! * `region_sum` is at least `occupancy_sum` for the circular kinds
//!   (their region also counts holes) and equal to it for the rest.

use std::collections::BTreeMap;

use swque_core::cycle::{CycleDelta, CycleStamp, InstCount};
use swque_core::{DispatchReq, IqConfig, IqKind, IssueBudget, Tag};
use swque_isa::FuClass;
use swque_rng::prop::{check, Gen};

#[derive(Debug, Clone, Copy)]
enum Op {
    Dispatch { wait_tag: Option<Tag>, fu: u8 },
    Wakeup(Tag),
    Select { width: usize },
    IdleTick(u64),
    Squash { keep_frac: u64 },
    Flush,
    Poll { high_mpki: bool },
}

fn random_op(g: &mut Gen) -> Op {
    match g.weighted(&[5, 3, 4, 2, 1, 1, 1]) {
        0 => {
            Op::Dispatch { wait_tag: g.option(|g| g.gen_range(1u16..12)), fu: g.gen_range(0u8..4) }
        }
        1 => Op::Wakeup(g.gen_range(1u16..12)),
        2 => Op::Select { width: g.gen_range(1usize..5) },
        3 => Op::IdleTick(g.gen_range(1u64..40)),
        4 => Op::Squash { keep_frac: g.gen_range(0u64..8) },
        5 => Op::Flush,
        _ => Op::Poll { high_mpki: g.bool() },
    }
}

fn fu_of(i: u8) -> FuClass {
    match i % 4 {
        0 => FuClass::IntAlu,
        1 => FuClass::IntMulDiv,
        2 => FuClass::LdSt,
        _ => FuClass::Fpu,
    }
}

/// Kinds whose allocated region counts holes behind a blocked head.
fn circular(kind: IqKind) -> bool {
    matches!(
        kind,
        IqKind::Circ | IqKind::CircPpri | IqKind::CircPc | IqKind::Swque | IqKind::SwqueMulti
    )
}

#[test]
fn occupancy_sum_is_the_selects_each_entry_was_queued_for() {
    check(64, |g| {
        let ops: Vec<Op> = g.vec(1..160, random_op);
        let capacity = g.gen_range(2usize..14);
        let config = IqConfig { capacity, issue_width: 4, ..IqConfig::default() };
        let interval = config.swque.interval_insts.get();
        for kind in IqKind::ALL {
            let mut q = kind.build(&config);
            // Per live entry (by seq): selects it has been queued for.
            let mut queued: BTreeMap<u64, u64> = BTreeMap::new();
            let (mut gone, mut selects, mut next_seq) = (0u64, 0u64, 0u64);
            let (mut retired, mut misses) = (0u64, 0u64);
            for (step, &op) in ops.iter().enumerate() {
                match op {
                    Op::Dispatch { wait_tag, fu } => {
                        let req =
                            DispatchReq::new(next_seq, next_seq, None, [wait_tag, None], fu_of(fu));
                        if q.dispatch(req).is_ok() {
                            queued.insert(next_seq, 0);
                        }
                        next_seq += 1;
                    }
                    Op::Wakeup(tag) => q.wakeup(tag),
                    Op::Select { width } => {
                        queued.values_mut().for_each(|n| *n += 1);
                        selects += 1;
                        let mut budget = IssueBudget::new(width, [width; 4]);
                        for grant in q.select(&mut budget) {
                            gone += queued.remove(&grant.seq).expect("granted a queued entry");
                        }
                    }
                    Op::IdleTick(n) => {
                        if !q.has_ready() {
                            queued.values_mut().for_each(|c| *c += n);
                            selects += n;
                            q.idle_tick(CycleDelta::new(n));
                        }
                    }
                    Op::Squash { keep_frac } => {
                        let cut = next_seq * keep_frac / 8;
                        q.squash_younger(cut);
                        gone += queued.split_off(&(cut + 1)).values().sum::<u64>();
                    }
                    Op::Flush => {
                        q.flush();
                        gone += std::mem::take(&mut queued).values().sum::<u64>();
                    }
                    Op::Poll { high_mpki } => {
                        retired += interval;
                        misses += if high_mpki { interval / 100 } else { 0 };
                        let at = CycleStamp::new(step as u64);
                        if q.poll_mode_switch(at, InstCount::new(retired), misses) {
                            // The core answers a switch request with a flush.
                            q.flush();
                            gone += std::mem::take(&mut queued).values().sum::<u64>();
                        }
                    }
                }
                let s = q.stats();
                let expected = gone + queued.values().sum::<u64>();
                let at = format!("{kind} cap {capacity}, step {step} ({op:?})");
                assert_eq!(q.len(), queued.len(), "{at}: live entries");
                assert_eq!(s.occupancy_sum, expected, "{at}: occupancy_sum");
                assert_eq!(s.selects, selects, "{at}: selects");
                if circular(kind) {
                    assert!(s.region_sum >= s.occupancy_sum, "{at}: region_sum {}", s.region_sum);
                } else {
                    assert_eq!(s.region_sum, s.occupancy_sum, "{at}: region_sum");
                }
            }
        }
    });
}
