//! SHIFT: the compacting shifting queue (paper §2.3).
//!
//! Instructions stay physically ordered by age; a compaction circuit closes
//! the holes left by issued instructions every cycle. Priority is therefore
//! always perfectly age-ordered and capacity efficiency is 1.0 — SHIFT is
//! the IPC upper bound among the conventional queues, at the cost of circuit
//! complexity the paper's delay/energy analysis charges against it.

use crate::cycle::{CycleDelta, CycleStamp};
use crate::digest::ArchKey;
use crate::horizon::WakeHorizon;
use crate::queue::{IqConfig, IssueQueue};
use crate::stats::IqStats;
use crate::types::{DispatchReq, Grant, GrantBuf, IqFullError, IssueBudget, Tag};

#[derive(Debug, Clone, Copy)]
struct Entry {
    req: DispatchReq,
    ready: [bool; 2],
}

impl Entry {
    fn ready(&self) -> bool {
        self.ready[0] && self.ready[1]
    }
}

/// The compacting, age-ordered queue.
///
/// # Example
///
/// ```
/// use swque_core::{DispatchReq, IqConfig, IssueBudget, IssueQueue, ShiftQueue};
/// use swque_isa::FuClass;
///
/// let mut q = ShiftQueue::new(&IqConfig { capacity: 4, issue_width: 2, ..IqConfig::default() });
/// q.dispatch(DispatchReq::new(0, 0, None, [None, None], FuClass::IntAlu)).unwrap();
/// q.dispatch(DispatchReq::new(1, 1, None, [None, None], FuClass::IntAlu)).unwrap();
/// let grants = q.select(&mut IssueBudget::new(2, [2, 1, 1, 1]));
/// assert_eq!(grants[0].seq, 0, "strictly oldest first");
/// ```
#[derive(Debug, Clone)]
pub struct ShiftQueue {
    capacity: usize,
    flpi_floor: usize,
    /// Age-ordered entries; index 0 is the oldest (highest priority).
    entries: Vec<Entry>,
    /// How many of `entries` are ready, so that an idle queue answers
    /// `has_ready` and `select` without visiting every entry.
    ready_count: usize,
    grants: GrantBuf,
    stats: IqStats,
}

impl ShiftQueue {
    /// Creates an empty SHIFT queue.
    pub fn new(config: &IqConfig) -> ShiftQueue {
        ShiftQueue {
            capacity: config.capacity,
            flpi_floor: config.flpi_rank_floor(),
            entries: Vec::with_capacity(config.capacity),
            ready_count: 0,
            grants: GrantBuf::default(),
            stats: IqStats::default(),
        }
    }
}

impl IssueQueue for ShiftQueue {
    fn name(&self) -> &'static str {
        "SHIFT"
    }

    fn capacity(&self) -> usize {
        self.capacity
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    fn dispatch(&mut self, req: DispatchReq) -> Result<(), IqFullError> {
        if !self.has_space() {
            self.stats.dispatch_stalls += 1;
            return Err(IqFullError);
        }
        let entry = Entry { req, ready: [req.srcs[0].is_none(), req.srcs[1].is_none()] };
        self.ready_count += usize::from(entry.ready());
        self.entries.push(entry);
        self.stats.dispatched += 1;
        Ok(())
    }

    fn wakeup(&mut self, tag: Tag) {
        self.stats.wakeups += 1;
        for e in &mut self.entries {
            for (i, src) in e.req.srcs.iter().enumerate() {
                if *src == Some(tag) && !e.ready[i] {
                    e.ready[i] = true;
                    self.ready_count += usize::from(e.ready());
                }
            }
        }
    }

    fn has_ready(&self) -> bool {
        self.ready_count > 0
    }

    fn idle_tick(&mut self, cycles: CycleDelta) {
        let cycles = cycles.get();
        // An empty select only advances the per-cycle averages; nothing
        // compacts because nothing issues.
        self.stats.selects += cycles;
        self.stats.occupancy_sum += cycles * self.entries.len() as u64;
        self.stats.region_sum += cycles * self.entries.len() as u64;
    }

    fn select(&mut self, budget: &mut IssueBudget) -> &[Grant] {
        self.stats.selects += 1;
        self.stats.occupancy_sum += self.entries.len() as u64;
        self.stats.region_sum += self.entries.len() as u64;

        let mut grants = self.grants.take();
        // Compaction in place: each survivor moves up over the holes that
        // grants left before it, so `entries[..kept]` stays age-ordered.
        // Once the budget is spent or the last ready entry has been
        // visited, the untouched tail shifts up in one move.
        let mut kept = 0;
        let mut rank = 0;
        let mut ready_left = self.ready_count;
        while ready_left > 0 && !budget.exhausted() {
            let e = self.entries[rank];
            ready_left -= usize::from(e.ready());
            if e.ready() && budget.try_take(e.req.fu) {
                self.stats.issued += 1;
                self.stats.tag_reads += 1;
                if rank >= self.flpi_floor {
                    self.stats.issued_low_priority += 1;
                }
                grants.push(Grant {
                    payload: e.req.payload,
                    seq: e.req.seq,
                    dst: e.req.dst,
                    fu: e.req.fu,
                    rank,
                    two_cycle: false,
                });
            } else {
                self.entries[kept] = e;
                kept += 1;
            }
            rank += 1;
        }
        self.entries.drain(kept..rank);
        self.ready_count -= grants.len();
        self.grants.put(grants)
    }

    fn flush(&mut self) {
        self.entries.clear();
        self.ready_count = 0;
    }

    fn squash_younger(&mut self, seq: u64) {
        self.entries.retain(|e| e.req.seq <= seq);
        self.ready_count = self.entries.iter().filter(|e| e.ready()).count();
    }

    fn stats(&self) -> IqStats {
        self.stats
    }

    fn arch_key(&self, key: &mut ArchKey) {
        key.push_usize(self.entries.len());
        for e in &self.entries {
            key.push_seq(e.req.seq);
            key.push_seq(e.req.payload);
            key.push_opt(e.req.dst);
            key.push_opt(e.req.srcs[0]);
            key.push_opt(e.req.srcs[1]);
            key.push_usize(e.req.fu.index());
            key.push_bool(e.ready[0]);
            key.push_bool(e.ready[1]);
        }
    }

    fn clone_box(&self) -> Box<dyn IssueQueue> {
        Box::new(self.clone())
    }
}

impl WakeHorizon for ShiftQueue {
    fn wake_horizon(&self, _now: CycleStamp) -> Option<CycleStamp> {
        None // purely reactive: state changes only via wakeup/select/dispatch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swque_isa::FuClass;
    use swque_rng::prop::{check, Gen};

    fn cfg(cap: usize, iw: usize) -> IqConfig {
        IqConfig { capacity: cap, issue_width: iw, ..IqConfig::default() }
    }

    fn ready(seq: u64, fu: FuClass) -> DispatchReq {
        DispatchReq::new(seq, seq, Some(seq as Tag), [None, None], fu)
    }

    fn waiting(seq: u64, tag: Tag) -> DispatchReq {
        DispatchReq::new(seq, seq, Some(seq as Tag), [Some(tag), None], FuClass::IntAlu)
    }

    fn budget(iw: usize) -> IssueBudget {
        IssueBudget::new(iw, [iw, iw, iw, iw])
    }

    #[test]
    fn issues_strictly_oldest_first() {
        let mut q = ShiftQueue::new(&cfg(8, 2));
        for seq in 0..4 {
            q.dispatch(ready(seq, FuClass::IntAlu)).unwrap();
        }
        let g = q.select(&mut budget(2));
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![0, 1]);
        let g = q.select(&mut budget(2));
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn compaction_keeps_age_order_after_out_of_order_issue() {
        let mut q = ShiftQueue::new(&cfg(8, 4));
        q.dispatch(waiting(0, 99)).unwrap(); // oldest, blocked
        q.dispatch(ready(1, FuClass::IntAlu)).unwrap();
        q.dispatch(ready(2, FuClass::IntAlu)).unwrap();
        let g = q.select(&mut budget(4));
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(q.len(), 1);
        // Unblock the oldest; it is now at rank 0 after compaction.
        q.wakeup(99);
        let g = q.select(&mut budget(4));
        assert_eq!(g[0].seq, 0);
        assert_eq!(g[0].rank, 0);
    }

    #[test]
    fn in_place_compaction_keeps_grant_ranks_and_survivor_order() {
        // Five entries; only the 2nd and 4th (ranks 1 and 3) are ready.
        let mut q = ShiftQueue::new(&IqConfig { flpi_region_frac: 0.75, ..cfg(8, 4) });
        assert_eq!(q.flpi_floor, 2, "ranks 2 and up count as low priority");
        for seq in 0..5 {
            let req = if seq % 2 == 1 {
                ready(seq, FuClass::IntAlu)
            } else {
                waiting(seq, 90 + seq as Tag)
            };
            q.dispatch(req).unwrap();
        }
        let g = q.select(&mut budget(4));
        let granted: Vec<_> = g.iter().map(|g| (g.seq, g.rank)).collect();
        assert_eq!(granted, vec![(1, 1), (3, 3)]);
        assert_eq!(q.entries.iter().map(|e| e.req.seq).collect::<Vec<_>>(), vec![0, 2, 4]);
        let s = q.stats();
        assert_eq!((s.issued, s.tag_reads), (2, 2));
        assert_eq!(s.issued_low_priority, 1, "rank 3 is at or above the floor, rank 1 is not");
        // The survivors issue oldest first from their compacted slots.
        for seq in [0, 2, 4] {
            q.wakeup(90 + seq as Tag);
        }
        let g = q.select(&mut budget(4));
        let granted: Vec<_> = g.iter().map(|g| (g.seq, g.rank)).collect();
        assert_eq!(granted, vec![(0, 0), (2, 1), (4, 2)]);
        assert!(q.is_empty());
        assert_eq!(q.stats().issued_low_priority, 2, "rank 2 is the floor itself");
    }

    #[test]
    fn respects_fu_constraints() {
        let mut q = ShiftQueue::new(&cfg(8, 4));
        q.dispatch(ready(0, FuClass::Fpu)).unwrap();
        q.dispatch(ready(1, FuClass::Fpu)).unwrap();
        q.dispatch(ready(2, FuClass::IntAlu)).unwrap();
        // Only one FPU free.
        let mut b = IssueBudget::new(4, [4, 0, 0, 1]);
        let g = q.select(&mut b);
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn full_queue_rejects_dispatch() {
        let mut q = ShiftQueue::new(&cfg(2, 1));
        q.dispatch(ready(0, FuClass::IntAlu)).unwrap();
        q.dispatch(ready(1, FuClass::IntAlu)).unwrap();
        assert!(!q.has_space());
        assert_eq!(q.dispatch(ready(2, FuClass::IntAlu)), Err(IqFullError));
        assert_eq!(q.stats().dispatch_stalls, 1);
    }

    #[test]
    fn capacity_efficiency_is_one() {
        let mut q = ShiftQueue::new(&cfg(4, 1));
        q.dispatch(ready(0, FuClass::IntAlu)).unwrap();
        q.dispatch(ready(1, FuClass::IntAlu)).unwrap();
        q.select(&mut budget(1));
        q.select(&mut budget(1));
        assert!((q.stats().capacity_efficiency() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flush_empties() {
        let mut q = ShiftQueue::new(&cfg(4, 1));
        q.dispatch(ready(0, FuClass::IntAlu)).unwrap();
        q.flush();
        assert!(q.is_empty());
        assert!(q.select(&mut budget(1)).is_empty());
    }

    /// The select loop without the early exit: it visits entries until the
    /// budget runs out, whether or not any ready entry is left. Returns the
    /// `(seq, rank, fu)` of each grant.
    fn full_scan_select(
        entries: &mut Vec<Entry>,
        budget: &mut IssueBudget,
    ) -> Vec<(u64, usize, FuClass)> {
        let mut grants = Vec::new();
        let mut kept = 0;
        let mut rank = 0;
        while rank < entries.len() && !budget.exhausted() {
            let e = entries[rank];
            if e.ready() && budget.try_take(e.req.fu) {
                grants.push((e.req.seq, rank, e.req.fu));
            } else {
                entries[kept] = e;
                kept += 1;
            }
            rank += 1;
        }
        entries.drain(kept..rank);
        grants
    }

    fn state(entries: &[Entry]) -> Vec<(u64, [bool; 2])> {
        entries.iter().map(|e| (e.req.seq, e.ready)).collect()
    }

    /// The early-exit select grants the same entries and leaves the same
    /// age order as the full scan, over random dispatch, wakeup, select,
    /// squash and flush sequences with budgets that often run out mid-queue
    /// or starve a unit class. `ready_count` matches a recount after every
    /// operation.
    #[test]
    fn early_exit_select_matches_the_full_scan() {
        check(256, |g| {
            let capacity = g.gen_range(1usize..24);
            let mut q = ShiftQueue::new(&cfg(capacity, 4));
            let mut reference: Vec<Entry> = Vec::new();
            let mut seq = 0u64;
            for _ in 0..g.gen_range(1usize..200) {
                match g.weighted(&[6, 4, 4, 1, 1]) {
                    0 => {
                        let tag = |g: &mut Gen| g.option(|g| g.gen_range(0u16..6));
                        let srcs = [tag(g), tag(g)];
                        let fu = FuClass::ALL[g.gen_range(0usize..4)];
                        let req = DispatchReq::new(seq, seq, Some(100), srcs, fu);
                        if q.dispatch(req).is_ok() {
                            reference
                                .push(Entry { req, ready: [srcs[0].is_none(), srcs[1].is_none()] });
                        }
                        seq += 1;
                    }
                    1 => {
                        let tag = g.gen_range(0u16..6);
                        q.wakeup(tag);
                        for e in &mut reference {
                            for (i, src) in e.req.srcs.iter().enumerate() {
                                e.ready[i] |= *src == Some(tag);
                            }
                        }
                    }
                    2 => {
                        let fu_free = [0; 4].map(|_: usize| g.gen_range(0usize..3));
                        let budget = IssueBudget::new(g.gen_range(1usize..5), fu_free);
                        let (mut early, mut full) = (budget, budget);
                        let grants: Vec<_> =
                            q.select(&mut early).iter().map(|g| (g.seq, g.rank, g.fu)).collect();
                        assert_eq!(grants, full_scan_select(&mut reference, &mut full));
                        assert_eq!(early, full, "both loops spend the same budget");
                    }
                    3 => {
                        let keep = g.gen_range(0..seq + 1);
                        q.squash_younger(keep);
                        reference.retain(|e| e.req.seq <= keep);
                    }
                    _ => {
                        q.flush();
                        reference.clear();
                    }
                }
                assert_eq!(state(&q.entries), state(&reference));
                let ready = reference.iter().filter(|e| e.ready()).count();
                assert_eq!(q.ready_count, ready);
                assert_eq!(q.has_ready(), ready > 0);
            }
        });
    }
}
