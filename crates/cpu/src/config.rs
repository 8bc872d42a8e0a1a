//! Core configuration — the paper's Table 2 (medium/base) and Table 4
//! (large) processor models.
//!
//! A config describes only the simulated machine. Host-side switches that
//! cannot change results, such as quiescence skipping, are not fields
//! here: skipping is toggled on the simulator itself
//! ([`Core::set_skip`](crate::Core::set_skip)).

use swque_branch::PredictorConfig;
use swque_core::{BucketSpec, IqConfig};
use swque_mem::MemConfig;

/// Full out-of-order core configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Pipeline width for fetch, decode/dispatch, issue and commit
    /// (6 medium, 8 large).
    pub width: usize,
    /// Reorder-buffer entries (256 / 512).
    pub rob_entries: usize,
    /// Load/store-queue entries (128 / 256).
    pub lsq_entries: usize,
    /// Physical integer registers (256 / 512).
    pub phys_int: usize,
    /// Physical floating-point registers (256 / 512).
    pub phys_fp: usize,
    /// Function units per class, indexed by `FuClass::index()`:
    /// `[iALU, iMULT/DIV, Ld/St, FPU]` — `[3,1,2,2]` / `[4,1,2,3]`.
    pub fu_counts: [usize; 4],
    /// Fetch-to-dispatch latency in cycles; doubles as the misprediction
    /// refill penalty (Table 2: 10 cycles).
    pub frontend_depth: u64,
    /// Issue-queue configuration (capacity 128 / 256).
    pub iq: IqConfig,
    /// Branch predictor (12-bit-history 4K gshare, 2K×4 BTB).
    pub predictor: PredictorConfig,
    /// Memory hierarchy (Table 2 caches, prefetcher, DRAM).
    pub mem: MemConfig,
}

impl CoreConfig {
    /// The paper's medium (default/base) model — Table 2.
    pub fn medium() -> CoreConfig {
        CoreConfig {
            width: 6,
            rob_entries: 256,
            lsq_entries: 128,
            phys_int: 256,
            phys_fp: 256,
            fu_counts: [3, 1, 2, 2],
            frontend_depth: 10,
            iq: IqConfig {
                capacity: 128,
                issue_width: 6,
                buckets: BucketSpec::medium(),
                ..IqConfig::default()
            },
            predictor: PredictorConfig::default(),
            mem: MemConfig::default(),
        }
    }

    /// The paper's large model — Table 4 (only the seven listed parameters
    /// scale; everything else keeps its medium value).
    pub fn large() -> CoreConfig {
        CoreConfig {
            width: 8,
            rob_entries: 512,
            lsq_entries: 256,
            phys_int: 512,
            phys_fp: 512,
            fu_counts: [4, 1, 2, 3],
            iq: IqConfig {
                capacity: 256,
                issue_width: 8,
                buckets: BucketSpec::large(),
                ..IqConfig::default()
            },
            ..CoreConfig::medium()
        }
    }

    /// A small configuration for fast unit tests (not a paper model).
    pub fn tiny() -> CoreConfig {
        CoreConfig {
            width: 2,
            rob_entries: 16,
            lsq_entries: 8,
            phys_int: 48,
            phys_fp: 48,
            fu_counts: [2, 1, 1, 1],
            frontend_depth: 3,
            iq: IqConfig { capacity: 8, issue_width: 2, ..IqConfig::default() },
            predictor: PredictorConfig::default(),
            mem: MemConfig::default(),
        }
    }

    /// Total physical-register tags (int + fp).
    pub fn total_phys(&self) -> usize {
        self.phys_int + self.phys_fp
    }
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig::medium()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_medium_values() {
        let c = CoreConfig::medium();
        assert_eq!(c.width, 6);
        assert_eq!(c.rob_entries, 256);
        assert_eq!(c.iq.capacity, 128);
        assert_eq!(c.lsq_entries, 128);
        assert_eq!((c.phys_int, c.phys_fp), (256, 256));
        assert_eq!(c.fu_counts, [3, 1, 2, 2]);
        assert_eq!(c.frontend_depth, 10);
    }

    #[test]
    fn table4_large_scales_exactly_seven_parameters() {
        let m = CoreConfig::medium();
        let l = CoreConfig::large();
        assert_eq!(l.width, 8);
        assert_eq!(l.iq.capacity, 256);
        assert_eq!(l.lsq_entries, 256);
        assert_eq!(l.rob_entries, 512);
        assert_eq!((l.phys_int, l.phys_fp), (512, 512));
        assert_eq!(l.fu_counts[0], 4, "iALUs scale");
        assert_eq!(l.fu_counts[3], 3, "FPUs scale");
        assert_eq!(l.fu_counts[1], m.fu_counts[1], "iMULT/DIV unchanged");
        assert_eq!(l.fu_counts[2], m.fu_counts[2], "Ld/St unchanged");
        assert_eq!(l.mem, m.mem, "memory system unchanged");
        assert_eq!(l.frontend_depth, m.frontend_depth);
    }

    #[test]
    fn phys_reg_totals() {
        assert_eq!(CoreConfig::medium().total_phys(), 512);
        assert_eq!(CoreConfig::large().total_phys(), 1024);
    }
}
