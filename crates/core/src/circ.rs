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

use crate::cycle::CycleDelta;
use crate::digest::ArchKey;
use crate::queue::{IqConfig, IssueQueue};
use crate::slots::SlotArray;
use crate::stats::{IqStats, Ledger};
use crate::types::{DispatchReq, Grant, GrantBuf, IqFullError, IssueBudget, Tag};

/// The circular allocator CIRC, CIRC-PPRI and CIRC-PC share: the slots and
/// the region of positions `head, head + 1, …` (mod capacity) allocated in
/// dispatch order — live entries and the holes issued entries left.
#[derive(Debug)]
pub(crate) struct Ring {
    pub(crate) slots: SlotArray,
    /// Position of the oldest allocated entry.
    head: usize,
    /// Number of positions in the allocated region (live entries + holes).
    region: usize,
}

clone_in_place!(Ring { slots, head, region });

impl Ring {
    pub(crate) fn new(config: &IqConfig) -> Ring {
        Ring { slots: SlotArray::new(config.capacity), head: 0, region: 0 }
    }

    pub(crate) fn head(&self) -> usize {
        self.head
    }

    /// Position one past the youngest allocated entry.
    fn tail(&self) -> usize {
        (self.head + self.region) % self.slots.capacity()
    }

    /// True while the allocated region crosses the physical end of the
    /// buffer — the paper's "wrap-around signal".
    pub(crate) fn wrapped(&self) -> bool {
        self.head + self.region > self.slots.capacity()
    }

    /// The FLPI rank of each position under the current head: its
    /// circular distance from the head (the age-depth of the position).
    pub(crate) fn depth(&self) -> impl Fn(usize) -> usize {
        let (head, cap) = (self.head, self.slots.capacity());
        move |pos| (pos + cap - head) % cap
    }

    /// True if the region leaves a position free (holes do not count).
    pub(crate) fn has_space(&self) -> bool {
        self.region < self.slots.capacity()
    }

    /// Inserts `req` at the tail and returns its position, or `None` when
    /// the region fills the buffer.
    pub(crate) fn dispatch(&mut self, req: DispatchReq) -> Option<usize> {
        if !self.has_space() {
            return None;
        }
        let pos = self.tail();
        self.slots.insert(pos, req);
        self.region += 1;
        Some(pos)
    }

    /// Counts `cycles` selects of the ring's occupancy and region.
    pub(crate) fn count_selects(&self, ledger: &mut Ledger, cycles: u64) {
        ledger.selects(cycles, self.slots.len(), self.region);
    }

    /// Grants the ready entries at positions `lo..hi` that `mask` leaves,
    /// in position order until the budget runs out, each ranked by its
    /// depth.
    pub(crate) fn grant_ready(
        &mut self,
        range: (usize, usize),
        mask: impl Fn(usize) -> u64,
        budget: &mut IssueBudget,
        ledger: &mut Ledger,
        grants: &mut Vec<Grant>,
    ) {
        let depth = self.depth();
        self.slots.scan_ready(range, mask, budget, |slots, pos| {
            grants.push(ledger.grant(slots.take(pos, depth(pos), false)));
        });
    }

    /// Advances the head past leading holes, shrinking the region.
    pub(crate) fn advance_head(&mut self) {
        let cap = self.slots.capacity();
        while self.region > 0 && !self.slots.get(self.head).valid {
            self.head = (self.head + 1) % cap;
            self.region -= 1;
        }
        if self.region == 0 {
            // Empty queue: reset to a canonical unwrapped state, as real
            // pointer logic does when head catches tail.
            self.head = self.tail();
        }
    }

    /// Rolls the tail back over every entry younger than `seq`.
    pub(crate) fn squash_younger(&mut self, seq: u64) {
        // Entries in the region are in dispatch order, so the squashed set
        // is a contiguous suffix: roll the tail back over live entries and
        // holes alike (a hole's last occupant seq tells us whose it was).
        let cap = self.slots.capacity();
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

    pub(crate) fn flush(&mut self) {
        self.slots.clear();
        self.head = 0;
        self.region = 0;
    }

    pub(crate) fn arch_key(&self, key: &mut ArchKey) {
        self.slots.arch_key(key);
        key.push_usize(self.head);
        key.push_usize(self.region);
    }
}

/// A circular issue queue (CIRC or CIRC-PPRI).
#[derive(Debug)]
pub struct CircQueue {
    ring: Ring,
    /// True = CIRC-PPRI (select in age order even under wrap-around).
    perfect: bool,
    grants: GrantBuf,
    ledger: Ledger,
}

clone_in_place!(CircQueue { ring, perfect, ledger } scratch { grants });

impl CircQueue {
    /// Creates a conventional CIRC queue (position priority).
    pub fn new(config: &IqConfig) -> CircQueue {
        CircQueue {
            ring: Ring::new(config),
            perfect: false,
            grants: GrantBuf::default(),
            ledger: Ledger::new(config),
        }
    }

    /// Creates CIRC-PPRI: circular allocation with idealized perfect
    /// priority under wrap-around.
    pub fn perfect_priority(config: &IqConfig) -> CircQueue {
        CircQueue { perfect: true, ..CircQueue::new(config) }
    }

    /// True while the allocated region crosses the physical end of the
    /// buffer — the paper's "wrap-around signal".
    pub fn wrapped(&self) -> bool {
        self.ring.wrapped()
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
        self.ring.slots.capacity()
    }

    fn len(&self) -> usize {
        self.ring.slots.len()
    }

    fn has_space(&self) -> bool {
        self.ring.has_space()
    }

    fn dispatch(&mut self, req: DispatchReq) -> Result<(), IqFullError> {
        if self.ring.dispatch(req).is_none() {
            self.ledger.stats.dispatch_stalls += 1;
            return Err(IqFullError);
        }
        self.ledger.stats.dispatched += 1;
        Ok(())
    }

    fn wakeup(&mut self, tag: Tag) {
        self.ledger.stats.wakeups += 1;
        self.ring.slots.wakeup(tag);
    }

    fn has_ready(&self) -> bool {
        self.ring.slots.any_ready()
    }

    fn idle_tick(&mut self, cycles: CycleDelta) {
        self.ring.count_selects(&mut self.ledger, cycles.get());
        // With nothing ready, each per-cycle select would only re-run
        // advance_head — which converges after one call (no grants remove
        // entries, so the head meets the same first valid slot every time).
        self.ring.advance_head();
    }

    fn select(&mut self, budget: &mut IssueBudget) -> &[Grant] {
        self.ring.count_selects(&mut self.ledger, 1);
        let mut grants = self.grants.take();
        // Candidate positions in this organization's priority order.
        // CIRC: ascending physical position 0..cap (reversed under
        // wrap-around). CIRC-PPRI: circular order from the head (true age
        // order), i.e. positions head..cap followed by 0..head.
        let start = if self.perfect { self.ring.head() } else { 0 };
        for range in [(start, self.capacity()), (0, start)] {
            self.ring.grant_ready(range, |_| u64::MAX, budget, &mut self.ledger, &mut grants);
        }
        self.ring.advance_head();
        self.grants.put(grants)
    }

    fn flush(&mut self) {
        self.ring.flush();
    }

    fn squash_younger(&mut self, seq: u64) {
        self.ring.squash_younger(seq);
    }

    fn stats(&self) -> IqStats {
        self.ledger.stats
    }

    fn arch_key(&self, key: &mut ArchKey) {
        self.ring.arch_key(key);
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
