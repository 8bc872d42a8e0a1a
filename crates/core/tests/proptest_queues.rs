//! Property-based tests over the issue-queue organizations: random
//! operation sequences must preserve the structural invariants of every
//! scheme, and the age matrix must agree with a sequence-number oracle.
//!
//! Ported from `proptest` to the in-tree harness (`swque_rng::prop`);
//! each property keeps at least its original case count (64).
#![expect(
    clippy::disallowed_types,
    reason = "test models: the live map and the woken/granted sets are probed, never iterated"
)]

use swque_rng::prop::{check, Gen};

use swque_core::{AgeMatrix, DispatchReq, IqConfig, IqKind, IssueBudget, Tag};
use swque_isa::FuClass;

/// A randomly generated queue operation.
#[derive(Debug, Clone)]
enum Op {
    Dispatch { wait_tag: Option<Tag>, fu: u8 },
    Wakeup(Tag),
    Select { width: u8 },
    SquashTail { keep_frac: u8 },
    Flush,
}

/// Mirrors the original weighted `prop_oneof!` strategy
/// (4 dispatch : 3 wakeup : 3 select : 1 squash : 1 flush).
fn random_op(g: &mut Gen) -> Op {
    match g.weighted(&[4, 3, 3, 1, 1]) {
        0 => Op::Dispatch {
            wait_tag: g.option(|g| g.gen_range(1u16..24)),
            fu: g.gen_range(0u8..4),
        },
        1 => Op::Wakeup(g.gen_range(1u16..24)),
        2 => Op::Select { width: g.gen_range(1u8..7) },
        3 => Op::SquashTail { keep_frac: g.gen_range(0u8..8) },
        _ => Op::Flush,
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

/// Every queue kind, driven by arbitrary operation sequences:
/// * occupancy never exceeds capacity,
/// * every grant was actually dispatched, ready, and never granted twice,
/// * grants respect the issue budget,
/// * squashes remove exactly the younger instructions.
#[test]
fn queue_invariants_hold_under_random_ops() {
    check(64, |g| {
        let ops: Vec<Op> = g.vec(1..120, random_op);
        let config = IqConfig { capacity: 12, issue_width: 4, ..IqConfig::default() };
        for kind in IqKind::ALL {
            let mut q = kind.build(&config);
            let mut seq = 0u64;
            let mut live: std::collections::HashMap<u64, Option<Tag>> = Default::default();
            let mut woken: std::collections::HashSet<Tag> = Default::default();
            let mut granted: std::collections::HashSet<u64> = Default::default();
            for op in &ops {
                match op {
                    Op::Dispatch { wait_tag, fu } => {
                        // Tags already woken would be resolved by the
                        // dispatcher's scoreboard in a real core.
                        let tag = wait_tag.filter(|t| !woken.contains(t));
                        if q.has_space() {
                            q.dispatch(DispatchReq::new(
                                seq, seq, Some(200 + (seq % 50) as Tag),
                                [tag, None], fu_of(*fu),
                            )).expect("has_space held");
                            live.insert(seq, tag);
                            seq += 1;
                        } else {
                            assert!(q.len() <= config.capacity, "{kind}");
                        }
                    }
                    Op::Wakeup(tag) => {
                        q.wakeup(*tag);
                        woken.insert(*tag);
                    }
                    Op::Select { width } => {
                        let w = *width as usize;
                        let mut budget = IssueBudget::new(w, [w, w, w, w]);
                        let grants = q.select(&mut budget);
                        assert!(grants.len() <= w, "{kind}: grant count within width");
                        for grant in &grants {
                            let waited = live.remove(&grant.seq);
                            assert!(waited.is_some(), "{kind}: grant of live entry {}", grant.seq);
                            if let Some(Some(tag)) = waited {
                                assert!(woken.contains(&tag), "{kind}: granted only after wakeup");
                            }
                            assert!(granted.insert(grant.seq), "{kind}: no double grant");
                        }
                    }
                    Op::SquashTail { keep_frac } => {
                        // Keep roughly keep_frac/8 of the live entries.
                        let mut seqs: Vec<u64> = live.keys().copied().collect();
                        seqs.sort_unstable();
                        let keep = seqs.len() * (*keep_frac as usize) / 8;
                        let cut = seqs.get(keep.saturating_sub(1)).copied().unwrap_or(0);
                        q.squash_younger(cut);
                        live.retain(|&s, _| s <= cut);
                    }
                    Op::Flush => {
                        q.flush();
                        live.clear();
                    }
                }
                assert!(q.len() <= config.capacity, "{kind}: occupancy bound");
                assert_eq!(q.len(), live.len(), "{kind} occupancy mirrors the model");
            }
        }
    });
}

/// The bit-matrix age matrix agrees with a simple "smallest sequence
/// number among requesters" oracle under arbitrary histories.
#[test]
fn age_matrix_matches_sequence_oracle() {
    check(64, |g| {
        let events: Vec<(usize, bool)> = g.vec(1..200, |g| (g.gen_range(0usize..16), g.bool()));
        let request_mask: u16 = g.u16();
        let mut m = AgeMatrix::new(16);
        let mut ages: Vec<Option<u64>> = vec![None; 16];
        let mut clock = 0u64;
        for (slot, alloc) in events {
            if alloc && ages[slot].is_none() {
                m.allocate(slot);
                ages[slot] = Some(clock);
                clock += 1;
            } else if !alloc && ages[slot].is_some() {
                m.deallocate(slot);
                ages[slot] = None;
            }
        }
        let requests: Vec<usize> =
            (0..16).filter(|&i| request_mask >> i & 1 == 1).collect();
        let oracle = requests
            .iter()
            .filter_map(|&i| ages[i].map(|a| (a, i)))
            .min()
            .map(|(_, i)| i);
        assert_eq!(m.oldest_ready(requests), oracle);
    });
}

/// SHIFT (the priority gold standard) issues ready instructions in
/// strict age order.
#[test]
fn shift_issues_in_age_order() {
    check(64, |g| {
        let ready_mask: u16 = g.u16();
        let config = IqConfig { capacity: 16, issue_width: 16, ..IqConfig::default() };
        let mut q = IqKind::Shift.build(&config);
        for seq in 0..16u64 {
            let waiting = ready_mask >> seq & 1 == 0;
            let srcs = if waiting { [Some(99 as Tag), None] } else { [None, None] };
            q.dispatch(DispatchReq::new(seq, seq, None, srcs, FuClass::IntAlu)).unwrap();
        }
        let mut budget = IssueBudget::new(16, [16, 16, 16, 16]);
        let grants = q.select(&mut budget);
        let seqs: Vec<u64> = grants.iter().map(|grant| grant.seq).collect();
        let mut expected: Vec<u64> =
            (0..16u64).filter(|s| ready_mask >> s & 1 == 1).collect();
        expected.truncate(seqs.len());
        assert_eq!(seqs, expected);
    });
}

/// Circular queues reclaim all capacity after arbitrary
/// dispatch/issue/squash churn followed by a drain.
#[test]
fn circular_capacity_fully_recovers() {
    check(64, |g| {
        let rounds = g.gen_range(1usize..20);
        let drain_mask: u32 = g.u32();
        for kind in [IqKind::Circ, IqKind::CircPpri, IqKind::CircPc] {
            let config = IqConfig { capacity: 8, issue_width: 4, ..IqConfig::default() };
            let mut q = kind.build(&config);
            let mut seq = 0u64;
            for r in 0..rounds {
                while q.has_space() {
                    let ready = drain_mask >> (seq % 32) & 1 == 1;
                    let srcs = if ready { [None, None] } else { [Some(7 as Tag), None] };
                    q.dispatch(DispatchReq::new(seq, seq, None, srcs, FuClass::IntAlu)).unwrap();
                    seq += 1;
                }
                let mut b = IssueBudget::new(4, [4, 4, 4, 4]);
                let _ = q.select(&mut b);
                if r % 3 == 2 {
                    q.squash_younger(seq.saturating_sub(3));
                }
            }
            // Drain completely: everything wakes, then selects empty it.
            q.wakeup(7);
            let mut guard = 0;
            while !q.is_empty() {
                let mut b = IssueBudget::new(4, [4, 4, 4, 4]);
                let grants = q.select(&mut b);
                assert!(!grants.is_empty() || guard < 2, "{kind}: drain progresses");
                guard += 1;
                assert!(guard < 100, "{kind}: drain terminates");
            }
            // Full capacity must be available again.
            let mut dispatched = 0;
            while q.has_space() {
                q.dispatch(DispatchReq::new(seq, seq, None, [None, None], FuClass::IntAlu))
                    .unwrap();
                seq += 1;
                dispatched += 1;
            }
            assert_eq!(dispatched, 8, "{kind} reclaims every entry");
        }
    });
}
