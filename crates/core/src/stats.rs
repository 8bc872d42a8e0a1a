//! Issue-queue statistics.

use crate::queue::IqConfig;
use crate::types::Grant;

/// Counters every queue accumulates; the circuit energy model and the SWQUE
/// controller are both fed from these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IqStats {
    /// Instructions dispatched into the queue.
    pub dispatched: u64,
    /// Instructions issued (granted).
    pub issued: u64,
    /// Issues whose priority rank fell in the lowest-priority region — the
    /// cumulative FLPI numerator.
    pub issued_low_priority: u64,
    /// Destination-tag broadcasts observed (wakeup CAM search operations).
    pub wakeups: u64,
    /// `select` invocations (= simulated cycles while the queue is live).
    pub selects: u64,
    /// Sum over select calls of queue occupancy (for average occupancy).
    pub occupancy_sum: u64,
    /// Sum over select calls of *allocated region* size, which for circular
    /// queues includes unusable holes. `region_sum - occupancy_sum` measures
    /// the capacity inefficiency of CIRC-style allocation.
    pub region_sum: u64,
    /// CIRC-PC: instructions that issued via the two-cycle RV path.
    pub rv_issues: u64,
    /// CIRC-PC: RV grants discarded at the DTM merge (re-arbitrated later).
    pub rv_discards: u64,
    /// Tag-RAM read operations (CIRC-PC performs a second, time-sliced read
    /// for RV instructions; the energy model charges these).
    pub tag_reads: u64,
    /// Dispatch attempts rejected for lack of an allocatable entry.
    pub dispatch_stalls: u64,
}

impl IqStats {
    /// Combines two counter sets field by field with `op`.
    pub(crate) fn zip_with(&self, other: &IqStats, op: impl Fn(u64, u64) -> u64) -> IqStats {
        IqStats {
            dispatched: op(self.dispatched, other.dispatched),
            issued: op(self.issued, other.issued),
            issued_low_priority: op(self.issued_low_priority, other.issued_low_priority),
            wakeups: op(self.wakeups, other.wakeups),
            selects: op(self.selects, other.selects),
            occupancy_sum: op(self.occupancy_sum, other.occupancy_sum),
            region_sum: op(self.region_sum, other.region_sum),
            rv_issues: op(self.rv_issues, other.rv_issues),
            rv_discards: op(self.rv_discards, other.rv_discards),
            tag_reads: op(self.tag_reads, other.tag_reads),
            dispatch_stalls: op(self.dispatch_stalls, other.dispatch_stalls),
        }
    }

    /// Counter difference `self - earlier` (for measurement windows that
    /// exclude warmup).
    pub fn delta(&self, earlier: &IqStats) -> IqStats {
        self.zip_with(earlier, u64::saturating_sub)
    }

    /// Average occupancy per cycle observed at select time.
    pub fn avg_occupancy(&self) -> f64 {
        if self.selects == 0 {
            0.0
        } else {
            self.occupancy_sum as f64 / self.selects as f64
        }
    }

    /// Capacity efficiency: held instructions / allocated region (paper §1).
    /// 1.0 for compacting/free-list queues; < 1.0 for circular queues with
    /// holes. Returns 1.0 when idle.
    pub fn capacity_efficiency(&self) -> f64 {
        if self.region_sum == 0 {
            1.0
        } else {
            self.occupancy_sum as f64 / self.region_sum as f64
        }
    }

    /// Cumulative FLPI: low-priority issues per issued instruction.
    pub fn flpi(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.issued_low_priority as f64 / self.issued as f64
        }
    }
}

/// A queue's [`IqStats`] together with the rank from which a grant counts
/// as low priority: the one place where grants, selects and idle ticks
/// are counted.
#[derive(Debug, Clone)]
pub(crate) struct Ledger {
    pub(crate) stats: IqStats,
    flpi_floor: usize,
}

impl Ledger {
    pub(crate) fn new(config: &IqConfig) -> Ledger {
        Ledger { stats: IqStats::default(), flpi_floor: config.flpi_rank_floor() }
    }

    /// Counts `g` and hands it back: one issue and one tag-RAM read, and a
    /// low-priority issue when its rank reaches the floor. A two-cycle
    /// (RV) grant counts as an RV issue instead of a read: CIRC-PC counted
    /// its read when `S_RV` picked it.
    pub(crate) fn grant(&mut self, g: Grant) -> Grant {
        self.stats.issued += 1;
        if g.two_cycle {
            self.stats.rv_issues += 1;
        } else {
            self.stats.tag_reads += 1;
        }
        if g.rank >= self.flpi_floor {
            self.stats.issued_low_priority += 1;
        }
        g
    }

    /// Counts `cycles` selects (one per select, `n` per `idle_tick(n)`)
    /// over `len` entries in an allocated region of `region` positions,
    /// which only the circular kinds make larger than `len`.
    pub(crate) fn selects(&mut self, cycles: u64, len: usize, region: usize) {
        self.stats.selects += cycles;
        self.stats.occupancy_sum += cycles * len as u64;
        self.stats.region_sum += cycles * region as u64;
    }
}

/// SWQUE-specific statistics (mode residency and controller activity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwqueStats {
    /// Mode switches performed (each one costs a pipeline flush).
    pub switches: u64,
    /// Cycles spent configured as CIRC-PC.
    pub cycles_circ_pc: u64,
    /// Cycles spent configured as AGE.
    pub cycles_age: u64,
    /// Controller evaluation intervals completed.
    pub intervals: u64,
    /// Times the instability counter tripped and lowered the AGE-mode FLPI
    /// threshold.
    pub threshold_reductions: u64,
}

impl SwqueStats {
    /// Counter difference `self - earlier` (for measurement windows that
    /// exclude warmup).
    pub fn delta(&self, earlier: &SwqueStats) -> SwqueStats {
        SwqueStats {
            switches: self.switches.saturating_sub(earlier.switches),
            cycles_circ_pc: self.cycles_circ_pc.saturating_sub(earlier.cycles_circ_pc),
            cycles_age: self.cycles_age.saturating_sub(earlier.cycles_age),
            intervals: self.intervals.saturating_sub(earlier.intervals),
            threshold_reductions: self
                .threshold_reductions
                .saturating_sub(earlier.threshold_reductions),
        }
    }

    /// Fraction of cycles spent in CIRC-PC mode (`0.0` when idle).
    pub fn circ_pc_fraction(&self) -> f64 {
        let total = self.cycles_circ_pc + self.cycles_age;
        if total == 0 {
            0.0
        } else {
            self.cycles_circ_pc as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios() {
        let s = IqStats {
            issued: 100,
            issued_low_priority: 4,
            selects: 10,
            occupancy_sum: 50,
            region_sum: 100,
            ..IqStats::default()
        };
        assert!((s.flpi() - 0.04).abs() < 1e-12);
        assert!((s.avg_occupancy() - 5.0).abs() < 1e-12);
        assert!((s.capacity_efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn idle_ratios_are_defined() {
        let s = IqStats::default();
        assert_eq!(s.flpi(), 0.0);
        assert_eq!(s.avg_occupancy(), 0.0);
        assert_eq!(s.capacity_efficiency(), 1.0);
        assert_eq!(SwqueStats::default().circ_pc_fraction(), 0.0);
    }
}
