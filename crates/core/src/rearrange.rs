//! Extension (not part of the paper's evaluation): the rearranging random
//! queue of Sakai et al. [ICCD 2018], which the paper's related-work
//! section (§5) discusses as the closest alternative to SWQUE.
//!
//! The scheme splits the IQ into a large *main queue* (free-list allocated,
//! like RAND) and a small *old queue*; each cycle it moves up to a few of
//! the oldest main-queue instructions into the old queue, and the shared
//! select logic gives old-queue instructions priority over everything in
//! the main queue. Unlike the age matrix, this protects *multiple* oldest
//! instructions — and unlike CIRC-PC it keeps full capacity efficiency —
//! at the cost of the moving machinery.
//!
//! This behavioural model tracks old-queue membership as a flag over the
//! shared entry array: `move_width` entries may be promoted per cycle, the
//! old set holds at most `old_capacity` instructions, and selection walks
//! the old set in age order before falling back to positional order. The
//! promotion candidates wait in dispatch order (= seq order, since
//! dispatch hands out increasing seqs), so a promotion pops the front
//! instead of searching the queue for its oldest entries.

use std::collections::VecDeque;

use crate::bitset::BitSet;
use crate::cycle::CycleDelta;
use crate::digest::ArchKey;
use crate::queue::{IqConfig, IssueQueue};
use crate::slots::SlotArray;
use crate::stats::{IqStats, Ledger};
use crate::types::{DispatchReq, Grant, GrantBuf, IqFullError, IssueBudget, Tag};

/// The rearranging random queue (extension; see module docs).
#[derive(Debug)]
pub struct RearrangingQueue {
    slots: SlotArray,
    /// Old-queue membership: `(seq, pos)` kept sorted by seq (age order).
    /// Bounded by `old_capacity` (small), so linear ops beat a tree; the
    /// paired position mask makes membership tests O(1).
    old: Vec<(u64, usize)>,
    /// Positions currently in the old queue (mirror of `old`), tested by
    /// both per-cycle scans instead of a map lookup per candidate.
    old_mask: BitSet,
    /// Main-queue entries `(seq, pos)` in dispatch order: the promotion
    /// candidates, oldest first. An entry goes stale when its instruction
    /// issues from the main queue; stale entries are skipped when they
    /// reach the front and dropped when the deque grows to twice the
    /// capacity, so it never holds more than that.
    main: VecDeque<(u64, u32)>,
    old_capacity: usize,
    move_width: usize,
    /// Old-queue position snapshot reused across select cycles (granting
    /// mutates `old`, so selection iterates a copy).
    old_scratch: Vec<usize>,
    grants: GrantBuf,
    ledger: Ledger,
}

clone_in_place!(RearrangingQueue {
    slots, old, old_mask, main, old_capacity, move_width, ledger
} scratch { old_scratch, grants });

impl RearrangingQueue {
    /// Default old-queue size (Sakai et al. use a small fraction of the
    /// IQ).
    pub const DEFAULT_OLD_CAPACITY: usize = 16;
    /// Default instructions moved into the old queue per cycle.
    pub const DEFAULT_MOVE_WIDTH: usize = 4;

    /// Creates a rearranging queue with the default old-queue geometry.
    pub fn new(config: &IqConfig) -> RearrangingQueue {
        RearrangingQueue::with_old_queue(
            config,
            Self::DEFAULT_OLD_CAPACITY,
            Self::DEFAULT_MOVE_WIDTH,
        )
    }

    /// Creates a rearranging queue with an explicit old-queue size and
    /// per-cycle move width.
    pub fn with_old_queue(
        config: &IqConfig,
        old_capacity: usize,
        move_width: usize,
    ) -> RearrangingQueue {
        RearrangingQueue {
            slots: SlotArray::new(config.capacity),
            old: Vec::with_capacity(old_capacity),
            old_mask: BitSet::new(config.capacity),
            main: VecDeque::with_capacity(2 * config.capacity),
            old_capacity,
            move_width,
            old_scratch: Vec::with_capacity(old_capacity),
            grants: GrantBuf::default(),
            ledger: Ledger::new(config),
        }
    }

    /// Number of instructions currently in the old queue.
    pub fn old_len(&self) -> usize {
        self.old.len()
    }

    /// Whether main-queue entry `(seq, pos)` still names the instruction
    /// in its slot.
    fn is_live(slots: &SlotArray, seq: u64, pos: u32) -> bool {
        let slot = slots.get(pos as usize);
        slot.valid && slot.seq == seq
    }

    /// Promotes up to `move_width` of the oldest main-queue entries: the
    /// first live ones in `main`. Each is younger than every entry already
    /// in the old queue (those left `main` earlier), so it joins at the
    /// back and `old` stays sorted.
    fn rearrange(&mut self) {
        let free = self.old_capacity.saturating_sub(self.old.len());
        let mut take = free.min(self.move_width);
        while take > 0 {
            let Some((seq, pos)) = self.main.pop_front() else {
                return;
            };
            if Self::is_live(&self.slots, seq, pos) {
                self.old.push((seq, pos as usize));
                self.old_mask.set(pos as usize);
                take -= 1;
            }
        }
    }
}

impl IssueQueue for RearrangingQueue {
    fn name(&self) -> &'static str {
        "REARRANGE"
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
        if self.main.len() >= 2 * self.slots.capacity() {
            let slots = &self.slots;
            self.main.retain(|&(seq, pos)| Self::is_live(slots, seq, pos));
        }
        self.main.push_back((req.seq, pos as u32));
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
        let cycles = cycles.get();
        self.ledger.selects(cycles, self.slots.len(), self.slots.len());
        // The promotion machinery still runs while nothing is ready:
        // move_width entries per cycle until the old queue fills or the
        // candidates run out. rearrange() only ever inserts, so an
        // unchanged old-queue length means it reached its fixpoint and
        // every remaining idle cycle is a no-op.
        for _ in 0..cycles {
            let before = self.old.len();
            self.rearrange();
            if self.old.len() == before {
                break;
            }
        }
    }

    fn select(&mut self, budget: &mut IssueBudget) -> &[Grant] {
        self.ledger.selects(1, self.slots.len(), self.slots.len());
        self.rearrange();

        let mut grants = self.grants.take();
        // Old queue first, in age order: multiple oldest instructions get
        // high priority (the scheme's whole point).
        let mut old_positions = std::mem::take(&mut self.old_scratch);
        old_positions.clear();
        old_positions.extend(self.old.iter().map(|&(_, pos)| pos));
        for &pos in &old_positions {
            if budget.exhausted() {
                break;
            }
            let slot = self.slots.get(pos);
            if slot.ready() && budget.try_take(slot.fu) {
                let g = self.ledger.grant(self.slots.take(pos, 0, false));
                self.old_mask.clear(pos);
                if let Ok(at) = self.old.binary_search_by_key(&g.seq, |&(s, _)| s) {
                    self.old.remove(at);
                }
                grants.push(g);
            }
        }
        self.old_scratch = old_positions;
        // Then the main queue, positional (random w.r.t. age): the ready
        // entries outside the old queue.
        let (old_mask, ledger) = (self.old_mask.words(), &mut self.ledger);
        let cap = self.slots.capacity();
        self.slots.scan_ready(
            (0, cap),
            |w| !old_mask[w],
            budget,
            |slots, pos| {
                grants.push(ledger.grant(slots.take(pos, pos, false)));
            },
        );
        self.grants.put(grants)
    }

    fn flush(&mut self) {
        self.slots.clear();
        self.main.clear();
        self.old.clear();
        self.old_mask.clear_all();
    }

    fn squash_younger(&mut self, seq: u64) {
        let old_mask = &mut self.old_mask;
        self.slots.squash_younger(seq, |pos| old_mask.clear(pos));
        // `old` and `main` are sorted by seq: everything younger sits past
        // the cut.
        let cut = self.old.partition_point(|&(s, _)| s <= seq);
        self.old.truncate(cut);
        while self.main.back().is_some_and(|&(s, _)| s > seq) {
            self.main.pop_back();
        }
    }

    fn stats(&self) -> IqStats {
        self.ledger.stats
    }

    /// `main` is left out: its live entries are the valid slots outside
    /// the old queue, in seq order.
    fn arch_key(&self, key: &mut ArchKey) {
        self.slots.arch_key(key);
        key.push_usize(self.old.len());
        for &(seq, pos) in &self.old {
            key.push_seq(seq);
            key.push_usize(pos);
        }
        self.old_mask.arch_key(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swque_isa::FuClass;

    fn cfg() -> IqConfig {
        IqConfig { capacity: 16, issue_width: 4, ..IqConfig::default() }
    }

    fn waiting(seq: u64, tag: Tag) -> DispatchReq {
        DispatchReq::new(seq, seq, Some(seq as Tag), [Some(tag), None], FuClass::IntAlu)
    }

    fn budget(n: usize) -> IssueBudget {
        IssueBudget::new(n, [n, n, n, n])
    }

    #[test]
    fn multiple_oldest_get_priority() {
        // Unlike AGE's single protected instruction, the old queue protects
        // several: with four old blocked entries and younger ready ones,
        // the old entries win as soon as they wake.
        let mut q = RearrangingQueue::with_old_queue(&cfg(), 4, 4);
        for seq in 0..4 {
            q.dispatch(waiting(seq, 99)).unwrap(); // old, blocked
        }
        for seq in 4..10 {
            q.dispatch(waiting(seq, 7)).unwrap(); // young
        }
        q.select(&mut budget(0)); // a cycle passes: rearrange runs
        assert_eq!(q.old_len(), 4);
        q.wakeup(7);
        q.wakeup(99);
        let g = q.select(&mut budget(4));
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn move_width_limits_promotion_rate() {
        let mut q = RearrangingQueue::with_old_queue(&cfg(), 8, 2);
        for seq in 0..8 {
            q.dispatch(waiting(seq, 99)).unwrap();
        }
        q.select(&mut budget(0));
        assert_eq!(q.old_len(), 2, "two promoted per cycle");
        q.select(&mut budget(0));
        assert_eq!(q.old_len(), 4);
    }

    #[test]
    fn issue_frees_old_slots_for_new_promotions() {
        let mut q = RearrangingQueue::with_old_queue(&cfg(), 2, 2);
        for seq in 0..6 {
            q.dispatch(waiting(seq, 99)).unwrap();
        }
        q.select(&mut budget(0));
        assert_eq!(q.old_len(), 2);
        q.wakeup(99);
        let g = q.select(&mut budget(2));
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![0, 1]);
        q.select(&mut budget(0));
        assert_eq!(q.old_len(), 2, "seqs 2 and 3 promoted after 0 and 1 issued");
    }

    #[test]
    fn squash_purges_old_queue_membership() {
        let mut q = RearrangingQueue::new(&cfg());
        for seq in 0..8 {
            q.dispatch(waiting(seq, 99)).unwrap();
        }
        q.select(&mut budget(0));
        q.squash_younger(1);
        assert_eq!(q.len(), 2);
        assert!(q.old_len() <= 2);
        q.wakeup(99);
        let g = q.select(&mut budget(4));
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![0, 1]);
    }
}
