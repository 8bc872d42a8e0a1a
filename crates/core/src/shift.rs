//! SHIFT: the compacting shifting queue (paper §2.3).
//!
//! Instructions stay physically ordered by age; a compaction circuit closes
//! the holes left by issued instructions every cycle. Priority is therefore
//! always perfectly age-ordered and capacity efficiency is 1.0 — SHIFT is
//! the IPC upper bound among the conventional queues, at the cost of circuit
//! complexity the paper's delay/energy analysis charges against it.
//!
//! The model keeps the entries in the shared [`SlotArray`] (tag-indexed
//! wakeup, packed ready plane) and the age order as a list of slot
//! positions: compaction moves 4-byte indices, not entries, and the
//! physical slot an entry occupies is layout, not state.

use crate::cycle::CycleDelta;
use crate::digest::ArchKey;
use crate::queue::{IqConfig, IssueQueue};
use crate::slots::SlotArray;
use crate::stats::{IqStats, Ledger};
use crate::types::{DispatchReq, Grant, GrantBuf, IqFullError, IssueBudget, Tag};

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
#[derive(Debug)]
pub struct ShiftQueue {
    slots: SlotArray,
    /// Slot positions in age order; index 0 is the oldest (highest
    /// priority), and an entry's index is its grant rank.
    order: Vec<u32>,
    /// The model checker's planted bug: dispatch files each entry by slot
    /// position instead of at the back, so select walks slot order.
    position_order: bool,
    grants: GrantBuf,
    ledger: Ledger,
}

clone_in_place!(ShiftQueue { slots, order, position_order, ledger } scratch { grants });

impl ShiftQueue {
    /// Creates an empty SHIFT queue.
    pub fn new(config: &IqConfig) -> ShiftQueue {
        ShiftQueue {
            slots: SlotArray::new(config.capacity),
            order: Vec::with_capacity(config.capacity),
            position_order: false,
            grants: GrantBuf::default(),
            ledger: Ledger::new(config),
        }
    }

    /// SHIFT whose select walks the entries in slot-position order instead
    /// of age order: a planted bug for the model checker's negative runs,
    /// which must catch it as an `oldest-first` violation. Not a modelled
    /// design.
    pub fn position_order(config: &IqConfig) -> ShiftQueue {
        ShiftQueue { position_order: true, ..ShiftQueue::new(config) }
    }
}

impl IssueQueue for ShiftQueue {
    fn name(&self) -> &'static str {
        "SHIFT"
    }

    fn capacity(&self) -> usize {
        self.slots.capacity()
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn has_space(&self) -> bool {
        self.slots.len() < self.slots.capacity()
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "pos indexes the slots, and queue capacities are far below 2^32"
    )]
    fn dispatch(&mut self, req: DispatchReq) -> Result<(), IqFullError> {
        let Some(pos) = self.slots.first_free() else {
            self.ledger.stats.dispatch_stalls += 1;
            return Err(IqFullError);
        };
        self.slots.insert(pos, req);
        let at = if self.position_order {
            self.order.partition_point(|&p| (p as usize) < pos)
        } else {
            self.order.len()
        };
        self.order.insert(at, pos as u32);
        self.ledger.stats.dispatched += 1;
        Ok(())
    }

    fn wakeup(&mut self, tag: Tag) {
        self.ledger.stats.wakeups += 1;
        self.slots.wakeup(tag);
    }

    fn has_ready(&self) -> bool {
        self.slots.any_ready()
    }

    fn idle_tick(&mut self, cycles: CycleDelta) {
        // An empty select only advances the per-cycle averages; nothing
        // compacts because nothing issues.
        self.ledger.selects(cycles.get(), self.slots.len(), self.slots.len());
    }

    fn select(&mut self, budget: &mut IssueBudget) -> &[Grant] {
        self.ledger.selects(1, self.slots.len(), self.slots.len());

        let mut grants = self.grants.take();
        // Compaction in place: each survivor's index moves up over the
        // holes that grants left before it, so `order[..kept]` stays
        // age-ordered. Once the budget is spent or the last ready entry
        // has been visited, the untouched tail shifts up in one move.
        let mut kept = 0;
        let mut rank = 0;
        let mut ready_left = self.slots.ready_len();
        while ready_left > 0 && !budget.exhausted() {
            let pos = self.order[rank];
            let slot = self.slots.get(pos as usize);
            let ready = slot.ready();
            ready_left -= usize::from(ready);
            if ready && budget.try_take(slot.fu) {
                grants.push(self.ledger.grant(self.slots.take(pos as usize, rank, false)));
            } else {
                self.order[kept] = pos;
                kept += 1;
            }
            rank += 1;
        }
        self.order.drain(kept..rank);
        self.grants.put(grants)
    }

    fn flush(&mut self) {
        self.slots.clear();
        self.order.clear();
    }

    fn squash_younger(&mut self, seq: u64) {
        let slots = &mut self.slots;
        self.order.retain(|&pos| {
            let keep = slots.get(pos as usize).seq <= seq;
            if !keep {
                slots.remove(pos as usize);
            }
            keep
        });
    }

    fn stats(&self) -> IqStats {
        self.ledger.stats
    }

    /// The live entries in age order, each as the slot-array kinds write a
    /// slot (a resolved source is `None`); which physical slot holds an
    /// entry never decides a grant, so positions stay out.
    fn arch_key(&self, key: &mut ArchKey) {
        key.push_usize(self.order.len());
        for &pos in &self.order {
            let slot = self.slots.get(pos as usize);
            key.push_seq(slot.seq);
            key.push_seq(slot.payload);
            key.push_opt(slot.dst);
            key.push_opt(slot.srcs[0]);
            key.push_opt(slot.srcs[1]);
            key.push_usize(slot.fu.index());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swque_isa::FuClass;

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

    fn seqs_in_age_order(q: &ShiftQueue) -> Vec<u64> {
        q.order.iter().map(|&pos| q.slots.get(pos as usize).seq).collect()
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
        let config = IqConfig { flpi_region_frac: 0.75, ..cfg(8, 4) };
        let mut q = ShiftQueue::new(&config);
        assert_eq!(config.flpi_rank_floor(), 2, "ranks 2 and up count as low priority");
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
        assert_eq!(seqs_in_age_order(&q), vec![0, 2, 4]);
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
}
