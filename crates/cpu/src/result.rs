//! Simulation results and core-level statistics.

use swque_branch::BranchStats;
use swque_core::{IqStats, SwqueStats};
use swque_mem::MemStats;

/// Counters owned by the core model itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Instructions dispatched (renamed and entered into the ROB).
    pub dispatched: u64,
    /// Loads that accessed the memory hierarchy.
    pub loads_accessed: u64,
    /// Loads satisfied by store-to-load forwarding.
    pub loads_forwarded: u64,
    /// Cycles fetch sat blocked on an unresolved mispredicted branch.
    pub mispredict_stall_cycles: u64,
    /// Full pipeline flushes triggered by SWQUE mode switches.
    pub mode_switch_flushes: u64,
    /// Instructions replayed through the front end after a flush.
    pub replayed: u64,
    /// Dispatched instructions a mode-switch flush removed from the ROB:
    /// correct-path ones are replayed, wrong-path ones are dropped.
    pub flushed: u64,
    /// Cycles in which no instruction could be dispatched because the IQ
    /// had no allocatable entry (capacity pressure).
    pub iq_stall_cycles: u64,
    /// Cycles fetch sat waiting on the instruction cache.
    pub icache_stall_cycles: u64,
    /// Wrong-path instructions fetched past mispredicted branches.
    pub wrong_path_fetched: u64,
    /// Instructions removed by misprediction squashes.
    pub wrong_path_squashed: u64,
}

/// A broken pipeline invariant, reported through [`SimResult::invariant`]
/// instead of a panic.
///
/// The cycle model maintains cross-structure invariants (an issued
/// instruction is live in the ROB, `has_space` checks precede allocation,
/// the fetch oracle never faults on a well-formed program). A violation
/// means the *simulator* is buggy — results from that point on are
/// meaningless — so the core records the first violation, freezes the
/// pipeline, and surfaces the report here, where harnesses can fail the
/// run loudly without a library panic tearing down a whole sweep campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Pipeline stage that observed the violation (`"fetch"`,
    /// `"dispatch"`, `"issue"`, `"execute"`, `"progress"`, …).
    pub stage: &'static str,
    /// What was expected and what was found.
    pub detail: String,
    /// Cycle at which the violation was observed.
    pub cycle: u64,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pipeline invariant violated in {} at cycle {}: {}", self.stage, self.cycle, self.detail)
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Simulated cycles.
    pub cycles: u64,
    /// Retired (committed) instructions.
    pub retired: u64,
    /// Issue-queue counters.
    pub iq: IqStats,
    /// SWQUE mode statistics, if the queue switches modes.
    pub swque: Option<SwqueStats>,
    /// Memory-hierarchy counters.
    pub mem: MemStats,
    /// Branch-prediction counters.
    pub branch: BranchStats,
    /// Core counters.
    pub core: CoreStats,
    /// The first pipeline-invariant violation, if the simulator wedged
    /// itself (`None` on every healthy run). Counters above cover only the
    /// cycles before the violation.
    pub invariant: Option<InvariantViolation>,
}

impl CoreStats {
    /// Counter difference `self - earlier` (for measurement windows that
    /// exclude warmup).
    pub fn delta(&self, earlier: &CoreStats) -> CoreStats {
        CoreStats {
            dispatched: self.dispatched.saturating_sub(earlier.dispatched),
            loads_accessed: self.loads_accessed.saturating_sub(earlier.loads_accessed),
            loads_forwarded: self.loads_forwarded.saturating_sub(earlier.loads_forwarded),
            mispredict_stall_cycles: self
                .mispredict_stall_cycles
                .saturating_sub(earlier.mispredict_stall_cycles),
            mode_switch_flushes: self
                .mode_switch_flushes
                .saturating_sub(earlier.mode_switch_flushes),
            replayed: self.replayed.saturating_sub(earlier.replayed),
            flushed: self.flushed.saturating_sub(earlier.flushed),
            iq_stall_cycles: self.iq_stall_cycles.saturating_sub(earlier.iq_stall_cycles),
            icache_stall_cycles: self
                .icache_stall_cycles
                .saturating_sub(earlier.icache_stall_cycles),
            wrong_path_fetched: self.wrong_path_fetched.saturating_sub(earlier.wrong_path_fetched),
            wrong_path_squashed: self
                .wrong_path_squashed
                .saturating_sub(earlier.wrong_path_squashed),
        }
    }
}

impl SimResult {
    /// The measurement window `self - earlier`: every counter becomes the
    /// difference since the `earlier` snapshot, so warmup (cold caches,
    /// cold predictors) is excluded the way the paper's 16-billion-
    /// instruction skip excludes it.
    pub fn delta(&self, earlier: &SimResult) -> SimResult {
        SimResult {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            retired: self.retired.saturating_sub(earlier.retired),
            iq: self.iq.delta(&earlier.iq),
            swque: match (&self.swque, &earlier.swque) {
                (Some(now), Some(then)) => Some(now.delta(then)),
                (now, _) => *now,
            },
            mem: self.mem.delta(&earlier.mem),
            branch: self.branch.delta(&earlier.branch),
            core: self.core.delta(&earlier.core),
            invariant: self.invariant.clone(),
        }
    }

    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// LLC misses per kilo-instruction over the whole run.
    pub fn mpki(&self) -> f64 {
        self.mem.mpki(self.retired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_definition() {
        let r = SimResult {
            cycles: 500,
            retired: 1000,
            iq: IqStats::default(),
            swque: None,
            mem: MemStats::default(),
            branch: BranchStats::default(),
            core: CoreStats::default(),
            invariant: None,
        };
        assert!((r.ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycle_ipc_is_zero() {
        let r = SimResult {
            cycles: 0,
            retired: 0,
            iq: IqStats::default(),
            swque: None,
            mem: MemStats::default(),
            branch: BranchStats::default(),
            core: CoreStats::default(),
            invariant: None,
        };
        assert_eq!(r.ipc(), 0.0);
    }
}
