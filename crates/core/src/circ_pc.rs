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

use crate::cycle::{CycleDelta, CycleStamp};
use crate::digest::ArchKey;
use crate::horizon::WakeHorizon;
use crate::queue::{IqConfig, IssueQueue};
use crate::slots::SlotArray;
use crate::stats::IqStats;
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
#[derive(Debug, Clone)]
pub struct CircPcQueue {
    slots: SlotArray,
    head: usize,
    region: usize,
    /// Positions granted by `S_RV` last cycle, in `S_RV` priority order,
    /// whose tags now sit in the PTLs awaiting the DTM merge.
    pending: Vec<usize>,
    issue_width: usize,
    flpi_floor: usize,
    /// Whether the priority-correcting S_RV/PTL/DTM machinery is active.
    /// Always `true` on the simulated path; `false` only through
    /// [`CircPcQueue::without_correction`], the model checker's
    /// negative-injection hook.
    correct: bool,
    grants: GrantBuf,
    stats: IqStats,
}

impl CircPcQueue {
    /// Creates an empty CIRC-PC queue.
    pub fn new(config: &IqConfig) -> CircPcQueue {
        CircPcQueue {
            slots: SlotArray::new(config.capacity),
            head: 0,
            region: 0,
            pending: Vec::new(),
            issue_width: config.issue_width,
            flpi_floor: config.flpi_rank_floor(),
            correct: true,
            grants: GrantBuf::default(),
            stats: IqStats::default(),
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

    fn capacity_(&self) -> usize {
        self.slots.capacity()
    }

    fn tail(&self) -> usize {
        (self.head + self.region) % self.capacity_()
    }

    /// The wrap-around signal (paper Figure 5's `R` is
    /// `slot.reverse && wrapped()`).
    pub fn wrapped(&self) -> bool {
        self.head + self.region > self.capacity_()
    }

    fn depth(&self, pos: usize) -> usize {
        (pos + self.capacity_() - self.head) % self.capacity_()
    }

    fn advance_head(&mut self) {
        while self.region > 0 && !self.slots.get(self.head).valid {
            self.head = (self.head + 1) % self.capacity_();
            self.region -= 1;
        }
        if self.region == 0 {
            self.head = self.tail();
        }
    }

    fn grant_at(&mut self, pos: usize, two_cycle: bool) -> Grant {
        let rank = self.depth(pos);
        let slot = self.slots.get(pos);
        let g = Grant {
            payload: slot.payload,
            seq: slot.seq,
            dst: slot.dst,
            fu: slot.fu,
            rank,
            two_cycle,
        };
        self.slots.remove(pos);
        self.stats.issued += 1;
        if rank >= self.flpi_floor {
            self.stats.issued_low_priority += 1;
        }
        g
    }
}

impl IssueQueue for CircPcQueue {
    fn name(&self) -> &'static str {
        "CIRC-PC"
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
        // The reverse flag is set at dispatch time iff wrap-around is in
        // effect for this dispatch (paper §3.1.5, entry slice).
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

    fn idle_tick(&mut self, cycles: CycleDelta) {
        let cycles = cycles.get();
        self.stats.selects += cycles;
        self.stats.occupancy_sum += cycles * self.slots.len() as u64;
        self.stats.region_sum += cycles * self.region as u64;
        // With the ready plane empty, every PTL entry is stale: a live
        // S_RV-selected entry keeps its ready bit until it merges, so
        // valid ∧ pending_rv ⇒ ready. The per-cycle DTM merge would drain
        // and drop these stale positions on the first select; replicate.
        debug_assert!(self.pending.iter().all(|&pos| {
            let s = self.slots.get(pos);
            !(s.valid && s.pending_rv)
        }));
        self.pending.clear();
        // S_NR/S_RV grant nothing, so advance_head has already converged.
        self.advance_head();
    }

    fn select(&mut self, budget: &mut IssueBudget) -> &[Grant] {
        self.stats.selects += 1;
        self.stats.occupancy_sum += self.slots.len() as u64;
        self.stats.region_sum += self.region as u64;

        let mut grants = self.grants.take();
        let wrapped = self.wrapped() && self.correct;
        let nwords = self.slots.ready_words().len();

        // 1. S_NR: grant NR requests in position order (= age order within
        //    the NR region). Each grant reads the tag RAM normally. The
        //    candidate vector is `ready & !pending_rv`, minus the reverse
        //    plane while the wrap-around signal is up — combined one word
        //    at a time, copied to a register before scanning so that
        //    granting (which clears the granted bits) is safe.
        'nr: for wi in 0..nwords {
            let mut word = self.slots.ready_words()[wi] & !self.slots.pending_rv_words()[wi];
            if wrapped {
                word &= !self.slots.reverse_words()[wi];
            }
            while word != 0 {
                if budget.exhausted() {
                    break 'nr;
                }
                let pos = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let fu = self.slots.get(pos).fu;
                if budget.try_take(fu) {
                    self.stats.tag_reads += 1;
                    grants.push(self.grant_at(pos, false));
                }
            }
        }

        // 2. DTM merge: RV tags selected last cycle (waiting in the PTLs)
        //    fill the remaining merge slots; NR had priority. Losers are
        //    discarded and must re-arbitrate through S_RV. The PTL list is
        //    drained in place (taken, cleared, put back), keeping its
        //    buffer for this cycle's S_RV picks.
        let mut pending = std::mem::take(&mut self.pending);
        for &pos in &pending {
            let slot = self.slots.get(pos);
            if !slot.valid || !slot.pending_rv {
                continue; // flushed or otherwise gone
            }
            if budget.try_take(slot.fu) {
                self.stats.rv_issues += 1;
                grants.push(self.grant_at(pos, true));
            } else {
                self.slots.set_pending_rv(pos, false);
                self.stats.rv_discards += 1;
            }
        }
        pending.clear();
        self.pending = pending;

        // 3. S_RV: select up to IW ready RV requests for next cycle's merge
        //    (`ready & !pending_rv & reverse`; only meaningful while the
        //    wrap-around signal is up — otherwise no entry routes to S_RV).
        //    Each selection performs the second, time-sliced tag-RAM read.
        if wrapped {
            let mut picked = 0;
            'rv: for wi in 0..nwords {
                let mut word = self.slots.ready_words()[wi]
                    & !self.slots.pending_rv_words()[wi]
                    & self.slots.reverse_words()[wi];
                while word != 0 {
                    if picked == self.issue_width {
                        break 'rv;
                    }
                    let pos = wi * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    self.slots.set_pending_rv(pos, true);
                    self.stats.tag_reads += 1;
                    self.pending.push(pos);
                    picked += 1;
                }
            }
        }

        self.advance_head();
        self.grants.put(grants)
    }

    fn flush(&mut self) {
        self.slots.clear();
        self.pending.clear();
        self.head = 0;
        self.region = 0;
    }

    fn squash_younger(&mut self, seq: u64) {
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
        // Squashed pending-RV grants must not merge.
        self.pending.retain(|&pos| {
            let s = self.slots.get(pos);
            s.valid && s.pending_rv
        });
        self.advance_head();
    }

    fn stats(&self) -> IqStats {
        self.stats
    }

    fn arch_key(&self, key: &mut ArchKey) {
        self.slots.arch_key(key);
        key.push_usize(self.head);
        key.push_usize(self.region);
        key.push_usize(self.pending.len());
        for &pos in &self.pending {
            key.push_usize(pos);
        }
    }

    fn clone_box(&self) -> Box<dyn IssueQueue> {
        Box::new(self.clone())
    }
}

impl WakeHorizon for CircPcQueue {
    fn wake_horizon(&self, _now: CycleStamp) -> Option<CycleStamp> {
        // The PTL pipeline is clocked by select() calls, not by wall cycles,
        // and with nothing ready no PTL entry is live — purely reactive.
        None
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
