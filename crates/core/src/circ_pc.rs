//! CIRC-PC: the priority-correcting circular queue (paper §3.1).
//!
//! CIRC-PC keeps CIRC's circular allocation (and therefore its capacity
//! inefficiency) but fixes the reversed-priority problem with a second
//! select logic:
//!
//! * Issue requests from **NR** (normal, non-wrapped) instructions go to the
//!   original select logic `S_NR` and issue in a single cycle as usual.
//! * Requests from **RV** (wrapped, reversed-priority) instructions go to a
//!   dedicated `S_RV`. Granted RV instructions read the tag RAM in a second,
//!   time-sliced access at the *start of the next cycle*; their tags wait in
//!   the pending tag latches (PTLs) and are merged with the next cycle's NR
//!   tags by the destination tag multiplexer (DTM), **with NR tags taking
//!   priority**. RV tags that lose every merge slot are discarded and
//!   re-arbitrated (paper Table 1 examples).
//!
//! The observable timing consequence, which this model reproduces exactly:
//! an RV instruction issues at least one cycle later than an equally ready
//! NR instruction and never beats an NR instruction to a merge slot. The
//! paper's §4.4 result is that this costs almost nothing, because ready
//! wrapped instructions are young and latency-tolerant.

use crate::bitset::BitSet;
use crate::circ::Ring;
use crate::cycle::CycleDelta;
use crate::digest::ArchKey;
use crate::queue::{IqConfig, IssueQueue};
use crate::stats::{IqStats, Ledger};
use crate::types::{DispatchReq, Grant, GrantBuf, IqFullError, IssueBudget, Tag};

/// The priority-correcting circular queue.
///
/// # Example
///
/// An RV (wrapped) instruction issues one cycle later than an NR one:
///
/// ```
/// use swque_core::{CircPcQueue, DispatchReq, IqConfig, IssueBudget, IssueQueue};
/// use swque_isa::FuClass;
///
/// let config = IqConfig { capacity: 2, issue_width: 2, ..IqConfig::default() };
/// let mut q = CircPcQueue::new(&config);
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
pub struct CircPcQueue {
    ring: Ring,
    /// The reverse flag of each entry slice: set at dispatch iff
    /// wrap-around is in effect (paper Figure 5's `R` is `reverse &&
    /// wrapped()`). Like `pending_rv`, it is rewritten at every insert and
    /// read only for valid entries.
    reverse: BitSet,
    /// Selected by `S_RV`, waiting for the next-cycle DTM merge.
    pending_rv: BitSet,
    /// Positions granted by `S_RV` last cycle, in `S_RV` priority order,
    /// whose tags now sit in the PTLs awaiting the DTM merge.
    pending: Vec<usize>,
    issue_width: usize,
    /// Whether the priority-correcting S_RV/PTL/DTM machinery is active.
    /// Always `true` on the simulated path; `false` only through
    /// [`CircPcQueue::without_correction`], the model checker's
    /// negative-injection hook.
    correct: bool,
    grants: GrantBuf,
    ledger: Ledger,
}

clone_in_place!(CircPcQueue {
    ring, reverse, pending_rv, pending, issue_width, correct, ledger
} scratch { grants });

impl CircPcQueue {
    /// Creates an empty CIRC-PC queue.
    pub fn new(config: &IqConfig) -> CircPcQueue {
        CircPcQueue {
            ring: Ring::new(config),
            reverse: BitSet::new(config.capacity),
            pending_rv: BitSet::new(config.capacity),
            pending: Vec::new(),
            issue_width: config.issue_width,
            correct: true,
            grants: GrantBuf::default(),
            ledger: Ledger::new(config),
        }
    }

    /// **Verification hook, not a simulator configuration.** Creates a
    /// CIRC-PC queue with the priority-correction machinery disabled:
    /// `S_NR` no longer masks the reverse plane under wrap-around and
    /// `S_RV` never runs, so wrapped (young) instructions issue in
    /// position order ahead of older ones — exactly the CIRC
    /// reversed-priority defect §3.1 exists to fix. The `swque-mc`
    /// negative-injection gate (`--inject circ-pc-no-correct`) builds this
    /// variant to prove the checker's `pc-age-ordered` property
    /// actually fails when the correction is reverted; nothing on the
    /// simulated path constructs it.
    pub fn without_correction(config: &IqConfig) -> CircPcQueue {
        CircPcQueue { correct: false, ..CircPcQueue::new(config) }
    }

    /// The wrap-around signal (paper Figure 5's `R` is
    /// `reverse && wrapped()`).
    pub fn wrapped(&self) -> bool {
        self.ring.wrapped()
    }
}

impl IssueQueue for CircPcQueue {
    fn name(&self) -> &'static str {
        "CIRC-PC"
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
        let Some(pos) = self.ring.dispatch(req) else {
            self.ledger.stats.dispatch_stalls += 1;
            return Err(IqFullError);
        };
        // The reverse flag is set at dispatch time iff wrap-around is in
        // effect for this dispatch (paper §3.1.5, entry slice): the tail
        // has wrapped to a position below the head.
        self.reverse.assign(pos, pos < self.ring.head());
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
        self.ring.count_selects(&mut self.ledger, cycles.get());
        // With the ready plane empty, every PTL entry is stale: a live
        // S_RV-selected entry keeps its ready bit until it merges, so
        // valid ∧ pending_rv ⇒ ready. The per-cycle DTM merge would drain
        // and drop these stale positions on the first select; replicate.
        debug_assert!(self
            .pending
            .iter()
            .all(|&pos| !(self.ring.slots.get(pos).valid && self.pending_rv.test(pos))));
        self.pending.clear();
        // S_NR/S_RV grant nothing, so advance_head has already converged.
        self.ring.advance_head();
    }

    fn select(&mut self, budget: &mut IssueBudget) -> &[Grant] {
        self.ring.count_selects(&mut self.ledger, 1);
        let mut grants = self.grants.take();
        let wrapped = self.ring.wrapped() && self.correct;
        let cap = self.capacity();

        // 1. S_NR: grant NR requests in position order (= age order within
        //    the NR region). Each grant reads the tag RAM normally. The
        //    candidate vector is `ready & !pending_rv`, minus the reverse
        //    plane while the wrap-around signal is up.
        let (reverse, pending_rv) = (self.reverse.words(), self.pending_rv.words());
        let nr = |w: usize| !pending_rv[w] & if wrapped { !reverse[w] } else { u64::MAX };
        self.ring.grant_ready((0, cap), nr, budget, &mut self.ledger, &mut grants);

        // 2. DTM merge: RV tags selected last cycle (waiting in the PTLs)
        //    fill the remaining merge slots; NR had priority. Losers are
        //    discarded and must re-arbitrate through S_RV. The PTL list is
        //    drained in place (taken, cleared, put back), keeping its
        //    buffer for this cycle's S_RV picks.
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

        // 3. S_RV: select up to IW ready RV requests for next cycle's merge
        //    (`ready & !pending_rv & reverse`; only meaningful while the
        //    wrap-around signal is up — otherwise no entry routes to S_RV).
        //    S_RV has IW grants of its own, whatever the FUs. Each
        //    selection performs the second, time-sliced tag-RAM read.
        if wrapped {
            let mut picks = IssueBudget::new(self.issue_width, [self.issue_width; 4]);
            let (reverse, pending_rv) = (self.reverse.words(), self.pending_rv.words());
            let rv = |w: usize| reverse[w] & !pending_rv[w];
            let ptl = &mut self.pending;
            self.ring.slots.scan_ready((0, cap), rv, &mut picks, |_, pos| ptl.push(pos));
            for &pos in &self.pending {
                self.pending_rv.set(pos);
            }
            self.ledger.stats.tag_reads += self.pending.len() as u64;
        }

        self.ring.advance_head();
        self.grants.put(grants)
    }

    fn flush(&mut self) {
        self.ring.flush();
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

    /// The reverse and pending-RV planes are written for valid entries
    /// only: a freed position's flags are rewritten at its next insert
    /// before anything reads them.
    fn arch_key(&self, key: &mut ArchKey) {
        self.ring.arch_key(key);
        let planes = self.reverse.words().iter().zip(self.pending_rv.words());
        for (&valid, (&reverse, &pending_rv)) in self.ring.slots.valid_words().iter().zip(planes) {
            key.push(reverse & valid);
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

    fn cfg(cap: usize, iw: usize) -> IqConfig {
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

    /// Builds a wrapped queue: seqs `k..cap` old/NR (blocked on tag 999),
    /// seqs `cap..cap+k` young/RV (blocked on tag 888).
    fn wrapped(cap: usize, k: usize, iw: usize) -> CircPcQueue {
        let mut q = CircPcQueue::new(&cfg(cap, iw));
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
    fn unwrapped_issues_in_age_order() {
        let mut q = CircPcQueue::new(&cfg(8, 4));
        for seq in 0..4 {
            q.dispatch(ready(seq)).unwrap();
        }
        let g = q.select(&mut budget(2));
        assert_eq!(g.iter().map(|g| g.seq).collect::<Vec<_>>(), vec![0, 1]);
        assert!(g.iter().all(|g| !g.two_cycle));
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
    fn reverse_flag_set_only_for_wrapped_dispatches() {
        let q = wrapped(4, 2, 4);
        // Positions 0..2 hold the wrapped (young) entries.
        assert_eq!(q.reverse.iter().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn pending_rv_plane_follows_s_rv_picks_discards_and_merges() {
        let latched = |q: &CircPcQueue| q.pending_rv.iter().collect::<Vec<_>>();
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
    fn key_leaves_out_the_flags_of_freed_positions() {
        let key = |q: &CircPcQueue| {
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
        // The surviving reverse-flagged entries now behave as NR:
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
    fn capacity_matches_circ_allocation() {
        let mut q = CircPcQueue::new(&cfg(4, 4));
        q.dispatch(waiting(0, 99)).unwrap();
        for seq in 1..4 {
            q.dispatch(ready(seq)).unwrap();
        }
        q.select(&mut budget(3));
        assert!(!q.has_space(), "holes behind a blocked head are unusable");
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
