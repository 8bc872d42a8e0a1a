//! SWQUE: the switching issue queue (paper §3.2).
//!
//! SWQUE owns both a CIRC-PC [`CircQueue`] and an AGE-configured
//! [`RandomQueue`] and operates exactly one of them at a time, as decided
//! by the [`SwqueController`] from per-interval MPKI and FLPI measurements.
//!
//! # Contract with the core model
//!
//! The core calls [`poll_mode_switch`](crate::IssueQueue::poll_mode_switch)
//! once per cycle with its retired-instruction and LLC-miss totals. When it
//! returns `true`, the core **must** flush the pipeline (squash all
//! in-flight instructions, call [`flush`](crate::IssueQueue::flush), refetch)
//! and charge the switch penalty ([`SwqueParams::switch_penalty`] cycles) —
//! the reconfiguration itself happens inside `flush`.

use swque_trace::{TraceEvent, TraceHandle};

use crate::circ::CircQueue;
use crate::controller::{IntervalMetrics, ModeDecision, SwqueController, SwqueParams};
use crate::cycle::{CycleDelta, CycleStamp, InstCount};
use crate::digest::ArchKey;
use crate::queue::{IqConfig, IssueQueue};
use crate::random_queue::RandomQueue;
use crate::stats::{IqStats, SwqueStats};
use crate::types::{DispatchReq, Grant, IqFullError, IqMode, IssueBudget, Tag};

/// Snapshot of the counters an interval's metrics are computed from.
#[derive(Debug, Clone, Copy, Default)]
struct IntervalStart {
    retired: InstCount,
    llc_misses: u64,
    issued: u64,
    issued_low_priority: u64,
}

/// The mode switching issue queue.
#[derive(Debug)]
pub struct Swque {
    circ_pc: CircQueue,
    age: RandomQueue,
    controller: SwqueController,
    params: SwqueParams,
    /// Mode to adopt at the next flush, when a switch has been requested
    /// but not yet performed.
    pending_mode: Option<IqMode>,
    next_interval_retired: InstCount,
    interval_start: IntervalStart,
    stats: SwqueStats,
    trace: TraceHandle,
}

clone_in_place!(Swque {
    circ_pc,
    age,
    controller,
    params,
    pending_mode,
    next_interval_retired,
    interval_start,
    stats,
    trace
});

impl Swque {
    /// Creates a SWQUE starting in CIRC-PC mode. `multi_am` selects whether
    /// the AGE configuration uses multiple age matrices (SWQUE-multiAM).
    pub fn new(config: &IqConfig, multi_am: bool) -> Swque {
        let age = if multi_am { RandomQueue::age_multi(config) } else { RandomQueue::age(config) };
        Swque {
            circ_pc: CircQueue::priority_correcting(config),
            age,
            controller: SwqueController::new(config.swque),
            params: config.swque,
            pending_mode: None,
            next_interval_retired: config.swque.interval_insts,
            interval_start: IntervalStart::default(),
            stats: SwqueStats::default(),
            trace: TraceHandle::disabled(),
        }
    }

    /// The switch penalty the core must charge per reconfiguration.
    pub fn switch_penalty(&self) -> CycleDelta {
        self.params.switch_penalty
    }

    /// Read-only access to the controller (for tests and instrumentation).
    pub fn controller(&self) -> &SwqueController {
        &self.controller
    }

    fn active_mut(&mut self) -> &mut dyn IssueQueue {
        // A switch decision may be pending; until the flush happens we keep
        // operating the old structure.
        let effective = self.effective_mode();
        match effective {
            IqMode::Age => &mut self.age,
            _ => &mut self.circ_pc,
        }
    }

    /// The structure currently holding instructions: the controller may have
    /// already decided to switch, but the reconfiguration waits for `flush`.
    fn effective_mode(&self) -> IqMode {
        match self.pending_mode {
            // Switch decided but not flushed yet: still the old mode.
            Some(target) => match target {
                IqMode::Age => IqMode::CircPc,
                _ => IqMode::Age,
            },
            None => self.controller.mode(),
        }
    }
}

impl IssueQueue for Swque {
    fn name(&self) -> &'static str {
        if self.age.num_matrices() > 1 {
            "SWQUE-multiAM"
        } else {
            "SWQUE"
        }
    }

    fn capacity(&self) -> usize {
        self.circ_pc.capacity()
    }

    fn len(&self) -> usize {
        // Route by the *effective* mode: in the poll-to-flush window the
        // controller already points at the switch target, but the
        // instructions still sit in the old structure (found by swque-mc:
        // the controller-mode routing read the empty target and reported
        // len 0 with entries still queued).
        match self.effective_mode() {
            IqMode::Age => self.age.len(),
            _ => self.circ_pc.len(),
        }
    }

    fn has_space(&self) -> bool {
        let mode = self.effective_mode();
        match mode {
            IqMode::Age => self.age.has_space(),
            _ => self.circ_pc.has_space(),
        }
    }

    fn dispatch(&mut self, req: DispatchReq) -> Result<(), IqFullError> {
        self.active_mut().dispatch(req)
    }

    fn wakeup(&mut self, tag: Tag) {
        self.active_mut().wakeup(tag);
    }

    fn select(&mut self, budget: &mut IssueBudget) -> &[Grant] {
        match self.effective_mode() {
            IqMode::Age => self.stats.cycles_age += 1,
            _ => self.stats.cycles_circ_pc += 1,
        }
        self.active_mut().select(budget)
    }

    fn has_ready(&self) -> bool {
        match self.effective_mode() {
            IqMode::Age => self.age.has_ready(),
            _ => self.circ_pc.has_ready(),
        }
    }

    fn idle_tick(&mut self, cycles: CycleDelta) {
        // Mode residency accrues exactly as `cycles` selects would have
        // charged it; the skip cannot straddle a mode switch because a
        // pending switch keeps poll_mode_switch returning true, which
        // flushes before the core ever reaches a quiescent cycle.
        match self.effective_mode() {
            IqMode::Age => self.stats.cycles_age += cycles.get(),
            _ => self.stats.cycles_circ_pc += cycles.get(),
        }
        self.active_mut().idle_tick(cycles);
    }

    fn squash_younger(&mut self, seq: u64) {
        self.circ_pc.squash_younger(seq);
        self.age.squash_younger(seq);
    }

    fn flush(&mut self) {
        self.circ_pc.flush();
        self.age.flush();
        if let Some(_target) = self.pending_mode.take() {
            // The controller already points at the target mode; emptying
            // both structures completes the reconfiguration.
            self.stats.switches += 1;
        }
    }

    fn stats(&self) -> IqStats {
        self.circ_pc.stats().zip_with(&self.age.stats(), |c, a| c + a)
    }

    fn arch_key(&self, key: &mut ArchKey) {
        self.circ_pc.arch_key(key);
        self.age.arch_key(key);
        self.controller.arch_key(key);
        key.push_opt(self.pending_mode.map(|mode| mode as u16));
    }

    fn poll_mode_switch(
        &mut self,
        cycle: CycleStamp,
        retired_insts: InstCount,
        llc_misses: u64,
    ) -> bool {
        if self.pending_mode.is_some() {
            // Waiting for the core to perform the flush.
            return true;
        }
        if retired_insts < self.next_interval_retired {
            return false;
        }
        self.next_interval_retired = retired_insts + self.params.interval_insts;
        self.stats.intervals += 1;
        self.controller.maybe_periodic_reset(retired_insts);

        let interval_mode = self.effective_mode();
        let IqStats { issued, issued_low_priority: low, .. } = self.stats();
        let d_retired = (retired_insts - self.interval_start.retired).get();
        let d_miss = llc_misses.saturating_sub(self.interval_start.llc_misses);
        let d_issued = issued.saturating_sub(self.interval_start.issued);
        let d_low = low.saturating_sub(self.interval_start.issued_low_priority);
        self.interval_start =
            IntervalStart { retired: retired_insts, llc_misses, issued, issued_low_priority: low };

        let metrics = IntervalMetrics {
            mpki: if d_retired == 0 { 0.0 } else { d_miss as f64 * 1000.0 / d_retired as f64 },
            flpi: if d_issued == 0 { 0.0 } else { d_low as f64 / d_issued as f64 },
        };
        let reductions_before = self.controller.threshold_reductions();
        let decision = self.controller.evaluate(metrics);
        self.stats.threshold_reductions +=
            self.controller.threshold_reductions() - reductions_before;
        let switched = matches!(decision, ModeDecision::SwitchTo(_));
        if self.trace.enabled() {
            #[expect(
                clippy::expect_used,
                reason = "SWQUE only ever operates in the two traceable modes (CIRC-PC, AGE)"
            )]
            let mode = interval_mode.trace().expect("SWQUE modes always trace");
            self.trace.record(TraceEvent::Interval {
                cycle: cycle.get(),
                retired: retired_insts.get(),
                mpki: metrics.mpki,
                flpi: metrics.flpi,
                mode,
                instability: self.controller.instability(),
                switched,
            });
        }
        match decision {
            ModeDecision::Stay => false,
            ModeDecision::SwitchTo(target) => {
                self.pending_mode = Some(target);
                true
            }
        }
    }

    fn mode(&self) -> IqMode {
        self.effective_mode()
    }

    fn swque_stats(&self) -> Option<SwqueStats> {
        Some(self.stats)
    }

    fn attach_trace(&mut self, trace: &TraceHandle) {
        self.trace = trace.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swque_isa::FuClass;

    fn cfg() -> IqConfig {
        IqConfig { capacity: 8, issue_width: 2, ..IqConfig::default() }
    }

    fn ready(seq: u64) -> DispatchReq {
        DispatchReq::new(seq, seq, Some(seq as Tag), [None, None], FuClass::IntAlu)
    }

    /// Polls at cycle 0 with `retired` instructions and `misses` LLC
    /// misses so far.
    fn poll(q: &mut Swque, retired: u64, misses: u64) -> bool {
        q.poll_mode_switch(CycleStamp::ZERO, InstCount::new(retired), misses)
    }

    fn budget() -> IssueBudget {
        IssueBudget::new(2, [2, 2, 2, 2])
    }

    #[test]
    fn starts_in_circ_pc_mode() {
        let q = Swque::new(&cfg(), false);
        assert_eq!(q.mode(), IqMode::CircPc);
        assert_eq!(q.name(), "SWQUE");
        assert_eq!(Swque::new(&cfg(), true).name(), "SWQUE-multiAM");
    }

    #[test]
    fn no_switch_before_interval_boundary() {
        let mut q = Swque::new(&cfg(), false);
        assert!(!poll(&mut q, 9_999, 500));
        assert_eq!(q.swque_stats().unwrap().intervals, 0);
    }

    #[test]
    fn high_mpki_interval_switches_to_age_after_flush() {
        let mut q = Swque::new(&cfg(), false);
        // 10k instructions with 100 LLC misses -> MPKI 10 (> 1.0).
        assert!(poll(&mut q, 10_000, 100), "switch requested");
        assert_eq!(q.mode(), IqMode::CircPc, "still old mode until the flush");
        assert!(poll(&mut q, 10_001, 100), "keeps requesting until flushed");
        q.flush();
        assert_eq!(q.mode(), IqMode::Age);
        assert_eq!(q.swque_stats().unwrap().switches, 1);
    }

    #[test]
    fn low_metrics_switch_back_to_circ_pc() {
        let mut q = Swque::new(&cfg(), false);
        assert!(poll(&mut q, 10_000, 100));
        q.flush();
        assert_eq!(q.mode(), IqMode::Age);
        // Next interval: no new misses, no issues -> both metrics low.
        assert!(poll(&mut q, 20_000, 100));
        q.flush();
        assert_eq!(q.mode(), IqMode::CircPc);
        assert_eq!(q.swque_stats().unwrap().switches, 2);
    }

    #[test]
    fn dispatch_and_issue_follow_the_active_mode() {
        let mut q = Swque::new(&cfg(), false);
        q.dispatch(ready(0)).unwrap();
        let g = q.select(&mut budget());
        assert_eq!(g.len(), 1);
        assert_eq!(q.swque_stats().unwrap().cycles_circ_pc, 1);

        // Switch to AGE and verify the other structure operates.
        poll(&mut q, 10_000, 100);
        q.flush();
        q.dispatch(ready(1)).unwrap();
        let g = q.select(&mut budget());
        assert_eq!(g.len(), 1);
        assert_eq!(q.swque_stats().unwrap().cycles_age, 1);
    }

    #[test]
    fn flush_without_pending_switch_does_not_count_a_switch() {
        let mut q = Swque::new(&cfg(), false);
        q.dispatch(ready(0)).unwrap();
        q.flush();
        assert_eq!(q.swque_stats().unwrap().switches, 0);
        assert!(q.is_empty());
    }

    #[test]
    fn interval_metrics_use_deltas_not_totals() {
        let mut q = Swque::new(&cfg(), false);
        // Interval 1: misses = 100 -> AGE.
        poll(&mut q, 10_000, 100);
        q.flush();
        // Interval 2: total misses unchanged (delta 0) -> CIRC-PC again.
        // If totals were used instead of deltas this would stay in AGE.
        assert!(poll(&mut q, 20_000, 100));
        q.flush();
        assert_eq!(q.mode(), IqMode::CircPc);
    }

    #[test]
    fn aggregated_stats_cover_both_structures() {
        let mut q = Swque::new(&cfg(), false);
        q.dispatch(ready(0)).unwrap();
        q.select(&mut budget());
        poll(&mut q, 10_000, 100);
        q.flush();
        q.dispatch(ready(1)).unwrap();
        q.select(&mut budget());
        let s = q.stats();
        assert_eq!(s.dispatched, 2);
        assert_eq!(s.issued, 2);
        assert_eq!(s.selects, 2);
    }

    /// After a random soup that switches modes, every counter of SWQUE's
    /// statistics is the sum of its two halves' counters.
    #[test]
    fn stats_are_the_sum_of_both_halves_after_a_soup() {
        swque_rng::prop::check(32, |g| {
            let mut q = Swque::new(&IqConfig { capacity: 6, ..cfg() }, g.bool());
            let (mut seq, mut retired, mut misses) = (0, 0, 0);
            for _ in 0..g.gen_range(1usize..200) {
                match g.weighted(&[4, 3, 3, 1, 1, 1]) {
                    0 => {
                        let wait = g.option(|g| g.gen_range(0u16..4));
                        let fu = [FuClass::IntAlu, FuClass::LdSt, FuClass::Fpu][g.gen_range(0..3)];
                        let req = DispatchReq::new(seq, seq, Some(100), [wait, None], fu);
                        seq += u64::from(q.dispatch(req).is_ok());
                    }
                    1 => q.wakeup(g.gen_range(0u16..4)),
                    2 => {
                        q.select(&mut budget());
                    }
                    3 => q.squash_younger(g.gen_range(0..seq + 1)),
                    4 => q.flush(),
                    _ => {
                        retired += 10_000;
                        misses += g.gen_range(0u64..200);
                        if poll(&mut q, retired, misses) {
                            q.flush();
                        }
                    }
                }
            }
            let (c, a) = (q.circ_pc.stats(), q.age.stats());
            let sum = IqStats {
                dispatched: c.dispatched + a.dispatched,
                issued: c.issued + a.issued,
                issued_low_priority: c.issued_low_priority + a.issued_low_priority,
                wakeups: c.wakeups + a.wakeups,
                selects: c.selects + a.selects,
                occupancy_sum: c.occupancy_sum + a.occupancy_sum,
                region_sum: c.region_sum + a.region_sum,
                rv_issues: c.rv_issues + a.rv_issues,
                rv_discards: c.rv_discards + a.rv_discards,
                tag_reads: c.tag_reads + a.tag_reads,
                dispatch_stalls: c.dispatch_stalls + a.dispatch_stalls,
            };
            assert_eq!(q.stats(), sum);
        });
    }
}
