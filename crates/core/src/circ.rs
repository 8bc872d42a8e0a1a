//! CIRC: the conventional circular queue, plus the idealized CIRC-PPRI
//! (paper §2.3 and §4.4).
//!
//! Instructions are allocated at the tail of a circular buffer and stay put
//! until issued. Two pathologies follow:
//!
//! * **Capacity inefficiency** — issued instructions leave holes inside the
//!   `[head, tail)` region that cannot be reused until the head pointer
//!   passes them, so the usable capacity shrinks.
//! * **Reversed priority** — the select logic's priority is fixed by
//!   physical position (lower position = higher priority). When the tail
//!   wraps around, the *youngest* instructions occupy the lowest positions
//!   and steal priority from the older, wrapped-past instructions.
//!
//! [`CircQueue::perfect_priority`] builds CIRC-PPRI, the idealization that
//! keeps circular allocation but always selects in true age order — the
//! upper bound that CIRC-PC (paper §3.1) approaches with real hardware.

use crate::horizon::WakeHorizon;
use crate::queue::{IqConfig, IssueQueue};
use crate::slots::SlotArray;
use crate::stats::IqStats;
use crate::types::{DispatchReq, Grant, IqFullError, IssueBudget, Tag};

/// A circular issue queue (CIRC or CIRC-PPRI).
#[derive(Debug, Clone)]
pub struct CircQueue {
    slots: SlotArray,
    /// Position of the oldest allocated entry.
    head: usize,
    /// Number of positions in the allocated region (live entries + holes).
    region: usize,
    /// True = CIRC-PPRI (select in age order even under wrap-around).
    perfect: bool,
    flpi_floor: usize,
    stats: IqStats,
}

impl CircQueue {
    /// Creates a conventional CIRC queue (position priority).
    pub fn new(config: &IqConfig) -> CircQueue {
        CircQueue {
            slots: SlotArray::new(config.capacity),
            head: 0,
            region: 0,
            perfect: false,
            flpi_floor: config.flpi_rank_floor(),
            stats: IqStats::default(),
        }
    }

    /// Creates CIRC-PPRI: circular allocation with idealized perfect
    /// priority under wrap-around.
    pub fn perfect_priority(config: &IqConfig) -> CircQueue {
        CircQueue { perfect: true, ..CircQueue::new(config) }
    }

    fn capacity_(&self) -> usize {
        self.slots.capacity()
    }

    /// Position one past the youngest allocated entry.
    fn tail(&self) -> usize {
        (self.head + self.region) % self.capacity_()
    }

    /// True while the allocated region crosses the physical end of the
    /// buffer — the paper's "wrap-around signal".
    pub fn wrapped(&self) -> bool {
        self.head + self.region > self.capacity_()
    }

    /// Circular distance of `pos` from the head (the age-depth of the
    /// entry's position); used as the FLPI priority rank.
    fn depth(&self, pos: usize) -> usize {
        (pos + self.capacity_() - self.head) % self.capacity_()
    }

    /// Advances the head past leading holes, shrinking the region.
    fn advance_head(&mut self) {
        while self.region > 0 && !self.slots.get(self.head).valid {
            self.head = (self.head + 1) % self.capacity_();
            self.region -= 1;
        }
        if self.region == 0 {
            // Empty queue: reset to a canonical unwrapped state, as real
            // pointer logic does when head catches tail.
            self.head = self.tail();
        }
    }

    /// Grants ready entries at positions in `lo..hi` in ascending order
    /// until the budget runs out — the position-priority select scan as a
    /// word walk over the packed ready plane. Each word is copied to a
    /// register before its bits are visited, so granting (which clears the
    /// granted entry's ready bit) cannot disturb the scan.
    fn grant_ready_in(
        &mut self,
        lo: usize,
        hi: usize,
        budget: &mut IssueBudget,
        grants: &mut Vec<Grant>,
    ) {
        if lo >= hi {
            return;
        }
        let first_w = lo / 64;
        let last_w = (hi - 1) / 64;
        for wi in first_w..=last_w {
            let mut word = self.slots.ready_words()[wi];
            if wi == first_w {
                word &= u64::MAX << (lo % 64);
            }
            if wi == last_w && !hi.is_multiple_of(64) {
                word &= u64::MAX >> (64 - hi % 64);
            }
            while word != 0 {
                if budget.exhausted() {
                    return;
                }
                let pos = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let fu = self.slots.get(pos).fu;
                if budget.try_take(fu) {
                    let rank = self.depth(pos);
                    grants.push(self.grant_at(pos, rank));
                }
            }
        }
    }

    fn grant_at(&mut self, pos: usize, rank: usize) -> Grant {
        let slot = self.slots.get(pos);
        let g = Grant {
            payload: slot.payload,
            seq: slot.seq,
            dst: slot.dst,
            fu: slot.fu,
            rank,
            two_cycle: false,
        };
        self.slots.remove(pos);
        self.stats.issued += 1;
        self.stats.tag_reads += 1;
        if rank >= self.flpi_floor {
            self.stats.issued_low_priority += 1;
        }
        g
    }
}

impl IssueQueue for CircQueue {
    fn name(&self) -> &'static str {
        if self.perfect {
            "CIRC-PPRI"
        } else {
            "CIRC"
        }
    }

    fn capacity(&self) -> usize {
        self.capacity_()
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn has_space(&self) -> bool {
        self.region < self.capacity_()
    }

    fn dispatch(&mut self, req: DispatchReq) -> Result<(), IqFullError> {
        if !self.has_space() {
            self.stats.dispatch_stalls += 1;
            return Err(IqFullError);
        }
        let pos = self.tail();
        let reverse = self.head + self.region >= self.capacity_();
        self.slots.insert(pos, req, reverse, 0);
        self.region += 1;
        self.stats.dispatched += 1;
        Ok(())
    }

    fn wakeup(&mut self, tag: Tag) {
        self.stats.wakeups += 1;
        self.slots.wakeup(tag);
    }

    fn has_ready(&self) -> bool {
        self.slots.any_ready()
    }

    fn idle_tick(&mut self, cycles: u64) {
        self.stats.selects += cycles;
        self.stats.occupancy_sum += cycles * self.slots.len() as u64;
        self.stats.region_sum += cycles * self.region as u64;
        // With nothing ready, each per-cycle select would only re-run
        // advance_head — which converges after one call (no grants remove
        // entries, so the head meets the same first valid slot every time).
        self.advance_head();
    }

    fn select(&mut self, budget: &mut IssueBudget) -> Vec<Grant> {
        self.stats.selects += 1;
        self.stats.occupancy_sum += self.slots.len() as u64;
        self.stats.region_sum += self.region as u64;

        let cap = self.capacity_();
        let mut grants = Vec::new();
        // Candidate positions in this organization's priority order.
        // CIRC: ascending physical position (reversed under wrap-around).
        // CIRC-PPRI: circular order from the head (true age order), i.e.
        // positions head..cap followed by 0..head.
        if self.perfect {
            let head = self.head;
            self.grant_ready_in(head, cap, budget, &mut grants);
            self.grant_ready_in(0, head, budget, &mut grants);
        } else {
            self.grant_ready_in(0, cap, budget, &mut grants);
        }
        self.advance_head();
        grants
    }

    fn flush(&mut self) {
        self.slots.clear();
        self.head = 0;
        self.region = 0;
    }

    fn squash_younger(&mut self, seq: u64) {
        // Entries in the region are in dispatch order, so the squashed set
        // is a contiguous suffix: roll the tail back over live entries and
        // holes alike (a hole's last occupant seq tells us whose it was).
        let cap = self.capacity_();
        while self.region > 0 {
            let pos = (self.head + self.region - 1) % cap;
            let slot = self.slots.get(pos);
            if slot.seq <= seq {
                break;
            }
            if slot.valid {
                self.slots.remove(pos);
            }
            self.region -= 1;
        }
        self.advance_head();
    }

    fn stats(&self) -> IqStats {
        self.stats
    }

    fn clone_box(&self) -> Box<dyn IssueQueue> {
        Box::new(self.clone())
    }
}

impl WakeHorizon for CircQueue {
    fn wake_horizon(&self, _now: u64) -> Option<u64> {
        None // purely reactive: state changes only via wakeup/select/dispatch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swque_isa::FuClass;

    fn cfg(cap: usize) -> IqConfig {
        IqConfig { capacity: cap, issue_width: 4, ..IqConfig::default() }
    }

    fn ready(seq: u64) -> DispatchReq {
        DispatchReq::new(seq, seq, Some(seq as Tag), [None, None], FuClass::IntAlu)
    }

    fn waiting(seq: u64, tag: Tag) -> DispatchReq {
        DispatchReq::new(seq, seq, Some(seq as Tag), [Some(tag), None], FuClass::IntAlu)
    }

    fn budget(n: usize) -> IssueBudget {
        IssueBudget::new(n, [n, n, n, n])
    }

    /// Forces the queue into a wrapped state: fills `cap` entries, issues
    /// the oldest `k` (head advances), dispatches `k` more (tail wraps).
    fn wrap(q: &mut CircQueue, cap: usize, k: usize) -> u64 {
        let mut seq = 0;
        for _ in 0..cap {
            q.dispatch(waiting(seq, 999)).unwrap();
            seq += 1;
        }
        // Make the first k ready and issue them.
        // (tag 999 still blocks the rest; use a second tag for the first k.)
        q.flush();
        seq = 0;
        for i in 0..cap {
            let tag = if i < k { 7 } else { 999 };
            q.dispatch(waiting(seq, tag)).unwrap();
            seq += 1;
        }
        q.wakeup(7);
        let g = q.select(&mut budget(k));
        assert_eq!(g.len(), k);
        for _ in 0..k {
            q.dispatch(waiting(seq, 999)).unwrap();
            seq += 1;
        }
        assert!(q.wrapped());
        seq
    }

    #[test]
    fn unwrapped_priority_is_age_order() {
        let mut q = CircQueue::new(&cfg(8));
        for seq in 0..4 {
            q.dispatch(ready(seq)).unwrap();
        }
        let g = q.select(&mut budget(2));
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn wrapped_circ_reverses_priority() {
        let mut q = CircQueue::new(&cfg(8));
        let _ = wrap(&mut q, 8, 3); // entries 3..8 old (positions 3..8), 8..11 young (positions 0..3)
        q.wakeup(999);
        let g = q.select(&mut budget(2));
        // CIRC grants by physical position: the young wrapped instructions
        // (seq 8, 9 at positions 0, 1) win — the reversed-priority bug.
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![8, 9]);
    }

    #[test]
    fn wrapped_ppri_keeps_age_order() {
        let mut q = CircQueue::perfect_priority(&cfg(8));
        let _ = wrap(&mut q, 8, 3);
        q.wakeup(999);
        let g = q.select(&mut budget(2));
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![3, 4]);
    }

    #[test]
    fn holes_block_dispatch_until_head_passes() {
        let mut q = CircQueue::new(&cfg(4));
        q.dispatch(waiting(0, 99)).unwrap(); // head, stays blocked
        q.dispatch(ready(1)).unwrap();
        q.dispatch(ready(2)).unwrap();
        q.dispatch(ready(3)).unwrap();
        // Issue the three ready ones: holes at positions 1..4.
        let g = q.select(&mut budget(3));
        assert_eq!(g.len(), 3);
        assert_eq!(q.len(), 1);
        // Region is still the full buffer (head blocked), so no space.
        assert!(!q.has_space(), "holes are unusable while the head is blocked");
        assert_eq!(q.dispatch(ready(4)), Err(IqFullError));
        // Unblock the head: after it issues, the whole buffer reclaims.
        q.wakeup(99);
        let g = q.select(&mut budget(1));
        assert_eq!(g[0].seq, 0);
        assert!(q.has_space());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn capacity_efficiency_below_one_with_holes() {
        let mut q = CircQueue::new(&cfg(4));
        q.dispatch(waiting(0, 99)).unwrap();
        q.dispatch(ready(1)).unwrap();
        q.select(&mut budget(1)); // issues seq 1, leaves a hole behind head
        q.select(&mut budget(1)); // head still blocked; region=2, len=1
        assert!(q.stats().capacity_efficiency() < 1.0);
    }

    #[test]
    fn reverse_flag_set_only_for_wrapped_dispatches() {
        let mut q = CircQueue::new(&cfg(4));
        let _ = wrap(&mut q, 4, 2);
        // Positions 0..2 hold the wrapped (young) entries.
        assert!(q.slots.get(0).reverse);
        assert!(q.slots.get(1).reverse);
        assert!(!q.slots.get(2).reverse);
        assert!(!q.slots.get(3).reverse);
    }

    #[test]
    fn empty_queue_resets_pointers() {
        let mut q = CircQueue::new(&cfg(4));
        let _ = wrap(&mut q, 4, 2);
        q.wakeup(999);
        while !q.is_empty() {
            q.select(&mut budget(4));
        }
        assert!(!q.wrapped());
        assert!(q.has_space());
        // Can fill to capacity again.
        for seq in 100..104 {
            q.dispatch(ready(seq)).unwrap();
        }
        assert!(!q.has_space());
    }

    #[test]
    fn flpi_counts_deep_issues() {
        // Region = last quarter: flpi floor for capacity 8 is 8 - 2 = 6.
        let mut q = CircQueue::new(&IqConfig {
            capacity: 8,
            flpi_region_frac: 0.25,
            ..IqConfig::default()
        });
        for seq in 0..8 {
            q.dispatch(ready(seq)).unwrap();
        }
        let g = q.select(&mut budget(8));
        assert_eq!(g.len(), 8);
        assert_eq!(q.stats().issued_low_priority, 2, "depths 6 and 7 are low-priority");
    }
}
