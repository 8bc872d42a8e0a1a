//! The circular issue queues: CIRC, the idealized CIRC-PPRI (paper §2.3
//! and §4.4) and the priority-correcting CIRC-PC (paper §3.1).
//!
//! Instructions are allocated at the tail of a circular buffer and stay put
//! until issued. Two pathologies follow:
//!
//! * **Capacity inefficiency** — issued instructions leave holes inside the
//!   `[head, tail)` region that cannot be reused until the head pointer
//!   passes them, so the usable capacity shrinks. All three queues keep it.
//! * **Reversed priority** — the select logic's priority is fixed by
//!   physical position (lower position = higher priority). When the tail
//!   wraps around, the *youngest* instructions occupy the lowest positions
//!   and steal priority from the older, wrapped-past instructions.
//!
//! While the queue is wrapped, the wrapped-around instructions are exactly
//! those at the positions `[0, head)`; otherwise that range is empty. The
//! three queues differ only in how `select` serves it relative to
//! `[head, capacity)`:
//!
//! * **CIRC** ([`CircQueue::new`]) serves it first: plain position
//!   priority, reversed under wrap-around.
//! * **CIRC-PPRI** ([`CircQueue::perfect_priority`]) serves it second in
//!   the same cycle: true age order, the idealized upper bound that
//!   CIRC-PC approaches with real hardware.
//! * **CIRC-PC** ([`CircQueue::priority_correcting`]) serves it second
//!   through a second select logic. Issue requests from **NR** (normal)
//!   instructions, in `[head, capacity)`, go to the original select logic
//!   `S_NR` and issue in a single cycle as usual. Requests from **RV**
//!   (reversed-priority) instructions, in `[0, head)`, go to a dedicated
//!   `S_RV`. Granted RV instructions read the tag RAM in a second,
//!   time-sliced access at the *start of the next cycle*; their tags wait
//!   in the pending tag latches (PTLs) and are merged with the next
//!   cycle's NR tags by the destination tag multiplexer (DTM), **with NR
//!   tags taking priority**. RV tags that lose every merge slot are
//!   discarded and re-arbitrated (paper Table 1 examples).
//!
//! The paper's per-entry `R` bit (Figure 5) is set at dispatch into the
//! wrapped region and cleared when the head wraps, so it is set exactly
//! while the entry sits below the head. The model reads it from the head
//! rather than storing it, so an entry at the head is never RV.
//!
//! CIRC-PC's observable timing consequence: an RV instruction issues at
//! least one cycle later than an equally ready NR instruction and never
//! beats an NR instruction to a merge slot. The paper's §4.4 result is
//! that this costs almost nothing, because ready wrapped instructions are
//! young and latency-tolerant.

use crate::bitset::BitSet;
use crate::cycle::CycleDelta;
use crate::digest::ArchKey;
use crate::queue::{IqConfig, IssueQueue};
use crate::slots::SlotArray;
use crate::stats::{IqStats, Ledger};
use crate::types::{DispatchReq, Grant, GrantBuf, IqFullError, IssueBudget, Tag};

/// The circular allocator: the slots and the region of positions `head,
/// head + 1, …` (mod capacity) allocated in dispatch order — live entries
/// and the holes issued entries left.
#[derive(Debug)]
struct Ring {
    slots: SlotArray,
    /// Position of the oldest allocated entry.
    head: usize,
    /// Number of positions in the allocated region (live entries + holes).
    region: usize,
}

clone_in_place!(Ring { slots, head, region });

impl Ring {
    /// Position one past the youngest allocated entry.
    fn tail(&self) -> usize {
        (self.head + self.region) % self.slots.capacity()
    }

    /// True while the allocated region crosses the physical end of the
    /// buffer — the paper's "wrap-around signal".
    fn wrapped(&self) -> bool {
        self.head + self.region > self.slots.capacity()
    }

    /// True if the region leaves a position free (holes do not count).
    fn has_space(&self) -> bool {
        self.region < self.slots.capacity()
    }

    /// The FLPI rank of each position under the current head: its
    /// circular distance from the head (the age-depth of the position).
    fn depth(&self) -> impl Fn(usize) -> usize {
        let (head, cap) = (self.head, self.slots.capacity());
        move |pos| (pos + cap - head) % cap
    }

    /// Grants the ready entries at positions `lo..hi` that `mask` leaves,
    /// in position order until the budget runs out, each ranked by its
    /// depth.
    fn grant_ready(
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
    fn advance_head(&mut self) {
        let cap = self.slots.capacity();
        while self.region > 0 && !self.slots.get(self.head).valid {
            self.head = (self.head + 1) % cap;
            self.region -= 1;
        }
    }

    /// Rolls the tail back over every entry younger than `seq`.
    fn squash_younger(&mut self, seq: u64) {
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
}

/// How `select` serves the wrapped range `[0, head)` relative to
/// `[head, capacity)`: the one decision that tells the circular queues
/// apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Order {
    /// CIRC: first, in the same cycle (position priority).
    Position,
    /// CIRC-PPRI: second, in the same cycle (age priority).
    Age,
    /// CIRC-PC: second, through `S_RV` and the next cycle's DTM merge.
    Corrected,
}

/// A circular issue queue: CIRC, CIRC-PPRI or CIRC-PC.
///
/// # Example
///
/// A CIRC-PC RV (wrapped) instruction issues one cycle later than an NR
/// one:
///
/// ```
/// use swque_core::{CircQueue, DispatchReq, IqConfig, IssueBudget, IssueQueue};
/// use swque_isa::FuClass;
///
/// let config = IqConfig { capacity: 2, issue_width: 2, ..IqConfig::default() };
/// let mut q = CircQueue::priority_correcting(&config);
/// let ready = |seq| DispatchReq::new(seq, seq, None, [None, None], FuClass::IntAlu);
/// // Fill, issue one so the head advances, dispatch again: tail wraps.
/// q.dispatch(ready(0)).unwrap();
/// q.dispatch(ready(1)).unwrap();
/// let g = q.select(&mut IssueBudget::new(1, [1, 0, 0, 0]));
/// assert_eq!(g[0].seq, 0);
/// q.dispatch(ready(2)).unwrap(); // lands wrapped: RV
/// assert!(q.wrapped());
/// // Cycle N: S_RV selects seq 2; nothing issues yet.
/// assert!(q.select(&mut IssueBudget::new(2, [2, 0, 0, 0])).iter().all(|g| g.seq == 1));
/// // Cycle N+1: the pending RV tag merges and issues.
/// let g = q.select(&mut IssueBudget::new(2, [2, 0, 0, 0]));
/// assert!(g.iter().any(|g| g.seq == 2 && g.two_cycle));
/// ```
#[derive(Debug)]
pub struct CircQueue {
    ring: Ring,
    order: Order,
    /// CIRC-PC: selected by `S_RV`, waiting for the next-cycle DTM merge.
    /// Rewritten at every insert and read only for valid entries.
    pending_rv: BitSet,
    /// CIRC-PC: positions granted by `S_RV` last cycle, in `S_RV`
    /// priority order, whose tags now sit in the PTLs awaiting the DTM
    /// merge.
    pending: Vec<usize>,
    issue_width: usize,
    grants: GrantBuf,
    ledger: Ledger,
}

clone_in_place!(CircQueue { ring, order, pending_rv, pending, issue_width, ledger } scratch {
    grants
});

impl CircQueue {
    fn with_order(config: &IqConfig, order: Order) -> CircQueue {
        CircQueue {
            ring: Ring { slots: SlotArray::new(config.capacity), head: 0, region: 0 },
            order,
            pending_rv: BitSet::new(config.capacity),
            pending: Vec::new(),
            issue_width: config.issue_width,
            grants: GrantBuf::default(),
            ledger: Ledger::new(config),
        }
    }

    /// Creates a conventional CIRC queue (position priority).
    pub fn new(config: &IqConfig) -> CircQueue {
        CircQueue::with_order(config, Order::Position)
    }

    /// Creates CIRC-PPRI: circular allocation with idealized perfect
    /// priority under wrap-around.
    pub fn perfect_priority(config: &IqConfig) -> CircQueue {
        CircQueue::with_order(config, Order::Age)
    }

    /// Creates CIRC-PC: circular allocation with the wrapped instructions
    /// corrected through `S_RV`, one cycle late.
    pub fn priority_correcting(config: &IqConfig) -> CircQueue {
        CircQueue::with_order(config, Order::Corrected)
    }

    /// True while the allocated region crosses the physical end of the
    /// buffer — the paper's "wrap-around signal".
    pub fn wrapped(&self) -> bool {
        self.ring.wrapped()
    }

    /// CIRC-PC's DTM merge: the RV tags `S_RV` selected last cycle (in
    /// the PTLs) fill the merge slots NR left. Losers are discarded and
    /// must re-arbitrate through `S_RV`. The PTL list is drained in place
    /// (taken, cleared, put back), keeping its buffer for this cycle's
    /// `S_RV` picks.
    fn merge_pending(&mut self, budget: &mut IssueBudget, grants: &mut Vec<Grant>) {
        let depth = self.ring.depth();
        let mut pending = std::mem::take(&mut self.pending);
        for &pos in &pending {
            let slot = self.ring.slots.get(pos);
            if !slot.valid || !self.pending_rv.test(pos) {
                continue; // flushed or otherwise gone
            }
            self.pending_rv.clear(pos);
            if budget.try_take(slot.fu) {
                grants.push(self.ledger.grant(self.ring.slots.take(pos, depth(pos), true)));
            } else {
                self.ledger.stats.rv_discards += 1;
            }
        }
        pending.clear();
        self.pending = pending;
    }
}

impl IssueQueue for CircQueue {
    fn name(&self) -> &'static str {
        match self.order {
            Order::Position => "CIRC",
            Order::Age => "CIRC-PPRI",
            Order::Corrected => "CIRC-PC",
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
        if !self.ring.has_space() {
            self.ledger.stats.dispatch_stalls += 1;
            return Err(IqFullError);
        }
        let pos = self.ring.tail();
        self.ring.slots.insert(pos, req);
        self.ring.region += 1;
        self.pending_rv.clear(pos);
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
        self.ledger.selects(cycles.get(), self.len(), self.ring.region);
        // With the ready plane empty, every PTL entry is stale: a live
        // S_RV-selected entry keeps its ready bit until it merges, so
        // valid ∧ pending_rv ⇒ ready. The per-cycle DTM merge would drain
        // and drop these stale positions on the first select; replicate.
        debug_assert!(self
            .pending
            .iter()
            .all(|&pos| !(self.ring.slots.get(pos).valid && self.pending_rv.test(pos))));
        self.pending.clear();
        // With nothing ready, each per-cycle select would only re-run
        // advance_head — which converges after one call (no grants remove
        // entries, so the head meets the same first valid slot every time).
        self.ring.advance_head();
    }

    fn select(&mut self, budget: &mut IssueBudget) -> &[Grant] {
        self.ledger.selects(1, self.len(), self.ring.region);
        let mut grants = self.grants.take();
        let (head, cap) = (self.ring.head, self.capacity());
        let (mut first, mut second) = ((head, cap), (0, head));
        if self.order == Order::Position {
            (first, second) = (second, first);
        }
        // The single-cycle pass (CIRC-PC's S_NR) skips the entries S_RV
        // latched last cycle: their tags merge at the DTM instead.
        let pending_rv = self.pending_rv.words();
        let nr = |w: usize| !pending_rv[w];
        self.ring.grant_ready(first, nr, budget, &mut self.ledger, &mut grants);
        if self.order == Order::Corrected {
            self.merge_pending(budget, &mut grants);
            // S_RV: select up to IW ready RV requests for next cycle's
            // merge. S_RV has IW grants of its own, whatever the FUs. Each
            // selection performs the second, time-sliced tag-RAM read.
            let mut picks = IssueBudget::new(self.issue_width, [self.issue_width; 4]);
            let pending_rv = self.pending_rv.words();
            let ptl = &mut self.pending;
            let rv = |w: usize| !pending_rv[w];
            self.ring.slots.scan_ready(second, rv, &mut picks, |_, pos| ptl.push(pos));
            for &pos in &self.pending {
                self.pending_rv.set(pos);
            }
            self.ledger.stats.tag_reads += self.pending.len() as u64;
        } else {
            self.ring.grant_ready(second, nr, budget, &mut self.ledger, &mut grants);
        }
        self.ring.advance_head();
        self.grants.put(grants)
    }

    fn flush(&mut self) {
        self.ring.slots.clear();
        self.ring.head = 0;
        self.ring.region = 0;
        self.pending.clear();
    }

    fn squash_younger(&mut self, seq: u64) {
        self.ring.squash_younger(seq);
        // Squashed pending-RV grants must not merge.
        let (slots, pending_rv) = (&self.ring.slots, &self.pending_rv);
        self.pending.retain(|&pos| slots.get(pos).valid && pending_rv.test(pos));
    }

    fn stats(&self) -> IqStats {
        self.ledger.stats
    }

    /// The pending-RV plane is written for valid entries only: a freed
    /// position's flag is rewritten at its next insert before anything
    /// reads it.
    fn arch_key(&self, key: &mut ArchKey) {
        let ring = &self.ring;
        ring.slots.arch_key(key);
        key.push_usize(ring.head);
        key.push_usize(ring.region);
        for (&valid, &pending_rv) in ring.slots.valid_words().iter().zip(self.pending_rv.words()) {
            key.push(pending_rv & valid);
        }
        key.push_usize(self.pending.len());
        for &pos in &self.pending {
            key.push_usize(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swque_isa::FuClass;

    fn cfg(cap: usize) -> IqConfig {
        cfg_iw(cap, 4)
    }

    fn cfg_iw(cap: usize, iw: usize) -> IqConfig {
        IqConfig { capacity: cap, issue_width: iw, ..IqConfig::default() }
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

    /// CIRC, CIRC-PPRI and CIRC-PC at capacity `cap`.
    fn every_order(cap: usize) -> [CircQueue; 3] {
        let config = cfg(cap);
        [
            CircQueue::new(&config),
            CircQueue::perfect_priority(&config),
            CircQueue::priority_correcting(&config),
        ]
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
        for mut q in every_order(8) {
            for seq in 0..4 {
                q.dispatch(ready(seq)).unwrap();
            }
            let g = q.select(&mut budget(2));
            assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![0, 1]);
            assert!(g.iter().all(|g| !g.two_cycle), "{}: unwrapped grants are NR", q.name());
        }
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
        for mut q in every_order(4) {
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

    /// Builds a wrapped queue: seqs `k..cap` old/NR (blocked on tag 999),
    /// seqs `cap..cap+k` young/RV (blocked on tag 888).
    fn wrapped(cap: usize, k: usize, iw: usize) -> CircQueue {
        let mut q = CircQueue::priority_correcting(&cfg_iw(cap, iw));
        let mut seq = 0;
        for i in 0..cap {
            let tag = if i < k { 7 } else { 999 };
            q.dispatch(waiting(seq, tag)).unwrap();
            seq += 1;
        }
        q.wakeup(7);
        let g = q.select(&mut budget(k));
        assert_eq!(g.len(), k);
        for _ in 0..k {
            q.dispatch(waiting(seq, 888)).unwrap();
            seq += 1;
        }
        assert!(q.wrapped());
        q
    }

    #[test]
    fn priority_corrected_under_wrap_around() {
        // Old NR instructions must beat young RV instructions even though
        // the RV ones sit at the high-priority physical positions.
        let mut q = wrapped(8, 3, 6);
        q.wakeup(999); // NR ready
        q.wakeup(888); // RV ready too
        let g = q.select(&mut budget(2));
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![3, 4], "NR wins");
    }

    #[test]
    fn rv_instruction_takes_two_cycles() {
        let mut q = wrapped(8, 2, 6);
        q.wakeup(888); // only RV are ready
                       // Cycle N: S_RV selects them, but nothing issues yet.
        let g = q.select(&mut budget(6));
        assert!(g.is_empty(), "RV selection does not issue in the same cycle");
        // Cycle N+1: PTL tags merge (no NR competition) and issue.
        let g = q.select(&mut budget(6));
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![8, 9]);
        assert!(g.iter().all(|g| g.two_cycle));
        assert_eq!(q.stats().rv_issues, 2);
    }

    #[test]
    fn dtm_merge_drains_the_ptl_list_and_keeps_its_capacity() {
        let mut q = wrapped(8, 2, 6);
        q.wakeup(888);
        assert!(q.select(&mut budget(6)).is_empty());
        assert_eq!(q.pending, vec![0, 1], "S_RV latched both RV entries");
        let cap = q.pending.capacity();
        assert_eq!(q.select(&mut budget(6)).len(), 2);
        assert!(q.pending.is_empty(), "the merge drains the PTLs");
        assert_eq!(q.pending.capacity(), cap, "the drained list keeps its buffer");
    }

    #[test]
    fn rv_tags_discarded_when_nr_saturates_the_merge() {
        let mut q = wrapped(8, 2, 6);
        q.wakeup(888); // RV ready first
        let g = q.select(&mut budget(2));
        assert!(g.is_empty());
        q.wakeup(999); // now all NR are ready as well
                       // Merge cycle with width 2: both slots go to NR; RV tags discarded.
        let g = q.select(&mut budget(2));
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(q.stats().rv_discards, 2);
        // The discarded RV instructions are not lost: S_RV re-selected them
        // in the same cycle as the discard, so in the next merge cycle they
        // issue behind the remaining NR instructions.
        let g = q.select(&mut budget(6));
        let seqs: Vec<u64> = g.iter().map(|g| g.seq).collect();
        assert_eq!(seqs, vec![4, 5, 6, 7, 8, 9], "remaining NR then merged RV");
        assert_eq!(q.stats().rv_issues, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn pending_rv_plane_follows_s_rv_picks_discards_and_merges() {
        let latched = |q: &CircQueue| q.pending_rv.iter().collect::<Vec<_>>();
        let mut q = wrapped(8, 2, 6);
        q.wakeup(888);
        q.select(&mut budget(6));
        assert_eq!(latched(&q), vec![0, 1], "S_RV latches its picks");
        q.wakeup(999);
        q.select(&mut budget(2)); // NR takes both merge slots
        assert_eq!(q.stats().rv_discards, 2);
        assert_eq!(latched(&q), vec![0, 1], "S_RV picks the discarded entries again");
        q.select(&mut budget(6));
        assert_eq!(q.stats().rv_issues, 2);
        assert!(latched(&q).is_empty(), "the merge clears every latched flag");
    }

    #[test]
    fn key_leaves_out_the_flag_of_freed_positions() {
        let key = |q: &CircQueue| {
            let (same, mut words) = (|seq| seq, Vec::new());
            q.arch_key(&mut ArchKey::new(&mut words, &same));
            words
        };
        // One state, reached with and without S_RV latching the wrapped
        // entries before the squash frees them.
        let mut latched = wrapped(8, 2, 6);
        latched.wakeup(888);
        assert!(latched.select(&mut budget(6)).is_empty());
        latched.squash_younger(7);
        let mut plain = wrapped(8, 2, 6);
        plain.wakeup(888);
        plain.squash_younger(7);
        assert!(latched.pending_rv.test(0) && !plain.pending_rv.test(0));
        assert_eq!(key(&latched), key(&plain));
    }

    /// An entry that sat in the wrapped region before the head wrapped
    /// is NR once the head has passed the end of the buffer: at the head
    /// it is the oldest entry, and a second wrap of the tail must not send
    /// it through `S_RV` behind younger entries.
    #[test]
    fn entry_at_the_head_stays_nr_when_the_tail_wraps_again() {
        let seqs = |g: &[Grant]| g.iter().map(|g| (g.seq, g.two_cycle)).collect::<Vec<_>>();
        let mut q = CircQueue::priority_correcting(&cfg_iw(3, 2));
        let (a, b, c, d, e, f, g) = (0, 1, 2, 3, 4, 5, 6);
        q.dispatch(ready(a)).unwrap();
        q.dispatch(ready(b)).unwrap();
        q.dispatch(waiting(c, 9)).unwrap();
        assert_eq!(seqs(q.select(&mut budget(2))), vec![(a, false), (b, false)]);
        q.dispatch(waiting(d, 8)).unwrap(); // wrapped: RV
        q.dispatch(waiting(e, 8)).unwrap(); // wrapped: RV
        q.wakeup(9);
        assert_eq!(seqs(q.select(&mut budget(2))), vec![(c, false)]);
        assert!(!q.wrapped(), "the head wrapped past the end: D and E are NR");
        q.dispatch(waiting(f, 8)).unwrap();
        q.wakeup(8);
        assert_eq!(seqs(q.select(&mut budget(1))), vec![(d, false)]);
        q.dispatch(ready(g)).unwrap(); // the tail wraps again: G is RV
        assert!(q.wrapped());
        let order: Vec<_> = (0..3).flat_map(|_| seqs(q.select(&mut budget(1)))).collect();
        assert_eq!(order, vec![(e, false), (f, false), (g, true)], "E is the oldest");
    }

    #[test]
    fn rv_selection_bounded_by_issue_width() {
        let mut q = wrapped(8, 4, 2); // 4 RV entries but IW = 2
        q.wakeup(888);
        q.select(&mut budget(2));
        assert_eq!(q.pending.len(), 2, "S_RV grants at most IW per cycle");
    }

    #[test]
    fn former_rv_entries_become_nr_after_unwrap() {
        let mut q = wrapped(4, 2, 4);
        // Issue all the old NR entries; head wraps past the end and the
        // wrap-around signal drops.
        q.wakeup(999);
        let g = q.select(&mut budget(4));
        assert_eq!(g.len(), 2);
        assert!(!q.wrapped(), "head caught up; queue unwrapped");
        // The surviving formerly wrapped entries now behave as NR:
        // single-cycle issue.
        q.wakeup(888);
        let g = q.select(&mut budget(4));
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![4, 5]);
        assert!(g.iter().all(|g| !g.two_cycle), "unwrapped entries use S_NR");
    }

    #[test]
    fn flush_clears_pending_tags() {
        let mut q = wrapped(8, 2, 6);
        q.wakeup(888);
        q.select(&mut budget(6)); // RV selected into PTLs
        q.flush();
        assert!(q.is_empty());
        let g = q.select(&mut budget(6));
        assert!(g.is_empty(), "no ghost grants after flush");
    }

    #[test]
    fn second_tag_read_counted_for_energy_model() {
        let mut q = wrapped(8, 2, 6);
        q.wakeup(888);
        let before = q.stats().tag_reads;
        q.select(&mut budget(6)); // S_RV selection performs the second read
        assert_eq!(q.stats().tag_reads, before + 2);
    }
}
