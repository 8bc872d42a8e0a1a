//! The [`IssueQueue`] trait and queue construction.

use std::fmt;

use swque_trace::TraceHandle;

use crate::circ::CircQueue;
use crate::circ_pc::CircPcQueue;
use crate::controller::SwqueParams;
use crate::cycle::{CycleDelta, CycleStamp, InstCount};
use crate::digest::ArchKey;
use crate::horizon::WakeHorizon;
use crate::random_queue::RandomQueue;
use crate::rearrange::RearrangingQueue;
use crate::shift::ShiftQueue;
use crate::stats::{IqStats, SwqueStats};
use crate::swque::Swque;
use crate::types::{DispatchReq, Grant, IqFullError, IqMode, IssueBudget, Tag};

/// Age-matrix bucket counts for the multi-age-matrix enhancement (paper
/// §4.9): buckets are prepared based on function units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketSpec {
    /// Buckets for integer instructions (iALU + iMULT/DIV).
    pub int: u8,
    /// Buckets for memory instructions.
    pub mem: u8,
    /// Buckets for FP instructions.
    pub fp: u8,
}

impl BucketSpec {
    /// Paper §4.9 medium model: 3 INT + 2 memory + 2 FP = 7 age matrices.
    pub fn medium() -> BucketSpec {
        BucketSpec { int: 3, mem: 2, fp: 2 }
    }

    /// Paper §4.9 large model: 9 age matrices, "prepared in a similar
    /// manner" for the scaled FU mix (4 iALU, 2 Ld/St, 3 FPU).
    pub fn large() -> BucketSpec {
        BucketSpec { int: 4, mem: 2, fp: 3 }
    }

    /// Total number of age matrices.
    pub fn total(&self) -> usize {
        usize::from(self.int) + usize::from(self.mem) + usize::from(self.fp)
    }
}

/// Parameters shared by every queue organization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IqConfig {
    /// Number of IQ entries (paper Table 2: 128 medium, 256 large).
    pub capacity: usize,
    /// Issue width (6 medium, 8 large).
    pub issue_width: usize,
    /// Fraction of the queue treated as the "lowest priority region" for the
    /// FLPI metric. The paper leaves the region size unspecified; 1/16 is
    /// used here (8 of 128 entries) — issues from the very deepest entries
    /// fire only when the whole queue is in use, which is exactly the
    /// capacity-demand signal the controller needs. Exposed for sensitivity
    /// studies.
    pub flpi_region_frac: f64,
    /// Bucket layout for multi-age-matrix variants.
    pub buckets: BucketSpec,
    /// SWQUE controller parameters (paper Table 3).
    pub swque: SwqueParams,
}

impl Default for IqConfig {
    /// The paper's medium (default) model.
    fn default() -> IqConfig {
        IqConfig {
            capacity: 128,
            issue_width: 6,
            flpi_region_frac: 0.0625,
            buckets: BucketSpec::medium(),
            swque: SwqueParams::default(),
        }
    }
}

impl IqConfig {
    /// First priority rank that counts as "low priority" for FLPI.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the region is a fraction of the capacity, so the rounded product fits a usize"
    )]
    pub fn flpi_rank_floor(&self) -> usize {
        let region = (self.capacity as f64 * self.flpi_region_frac).round() as usize;
        self.capacity.saturating_sub(region.max(1))
    }
}

/// Every issue-queue organization evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IqKind {
    /// Compacting shifting queue (SHIFT, DEC Alpha 21264 style).
    Shift,
    /// Conventional circular queue (CIRC / CIRC-CONV).
    Circ,
    /// Idealized circular queue with perfect priority under wrap-around
    /// (CIRC-PPRI, §4.4).
    CircPpri,
    /// Priority-correcting circular queue (CIRC-PC, §3.1).
    CircPc,
    /// Random queue without an age matrix (RAND).
    Rand,
    /// Random queue + single age matrix (AGE) — the baseline used by
    /// current processors.
    Age,
    /// AGE with multiple age matrices (AGE-multiAM, §4.9).
    AgeMulti,
    /// The paper's proposal: mode switching between CIRC-PC and AGE.
    Swque,
    /// SWQUE whose AGE mode uses multiple age matrices (SWQUE-multiAM).
    SwqueMulti,
    /// Extension: the rearranging random queue of Sakai et al. (related
    /// work, §5) — multiple oldest instructions protected via an old queue.
    Rearrange,
}

impl IqKind {
    /// All kinds, in taxonomy order (the paper's organizations followed by
    /// this repository's extension).
    pub const ALL: [IqKind; 10] = [
        IqKind::Shift,
        IqKind::Circ,
        IqKind::CircPpri,
        IqKind::CircPc,
        IqKind::Rand,
        IqKind::Age,
        IqKind::AgeMulti,
        IqKind::Swque,
        IqKind::SwqueMulti,
        IqKind::Rearrange,
    ];

    /// The paper's name for the organization.
    pub fn label(&self) -> &'static str {
        match self {
            IqKind::Shift => "SHIFT",
            IqKind::Circ => "CIRC",
            IqKind::CircPpri => "CIRC-PPRI",
            IqKind::CircPc => "CIRC-PC",
            IqKind::Rand => "RAND",
            IqKind::Age => "AGE",
            IqKind::AgeMulti => "AGE-multiAM",
            IqKind::Swque => "SWQUE",
            IqKind::SwqueMulti => "SWQUE-multiAM",
            IqKind::Rearrange => "REARRANGE",
        }
    }

    /// Parses a label as printed by [`IqKind::label`] (the paper's names,
    /// e.g. `"CIRC-PC"` or `"SWQUE-multiAM"`).
    pub fn from_label(label: &str) -> Option<IqKind> {
        IqKind::ALL.into_iter().find(|k| k.label() == label)
    }

    /// Builds a queue of this kind.
    pub fn build(&self, config: &IqConfig) -> Box<dyn IssueQueue> {
        match self {
            IqKind::Shift => Box::new(ShiftQueue::new(config)),
            IqKind::Circ => Box::new(CircQueue::new(config)),
            IqKind::CircPpri => Box::new(CircQueue::perfect_priority(config)),
            IqKind::CircPc => Box::new(CircPcQueue::new(config)),
            IqKind::Rand => Box::new(RandomQueue::rand(config)),
            IqKind::Age => Box::new(RandomQueue::age(config)),
            IqKind::AgeMulti => Box::new(RandomQueue::age_multi(config)),
            IqKind::Swque => Box::new(Swque::new(config, false)),
            IqKind::SwqueMulti => Box::new(Swque::new(config, true)),
            IqKind::Rearrange => Box::new(RearrangingQueue::new(config)),
        }
    }
}

impl fmt::Display for IqKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Behavioural interface of an issue queue, driven once per simulated cycle
/// by the core model:
///
/// 1. [`wakeup`](IssueQueue::wakeup) for every destination tag completing
///    this cycle (writeback phase),
/// 2. [`select`](IssueQueue::select) exactly once with the cycle's
///    [`IssueBudget`] (issue phase),
/// 3. [`dispatch`](IssueQueue::dispatch) for instructions entering the queue
///    (dispatch phase — after issue, so same-cycle dispatch-and-issue is
///    impossible, as in hardware).
///
/// Queues also participate in quiescence skipping (DESIGN.md §10): the core
/// consults [`has_ready`](IssueQueue::has_ready) when proving no instruction
/// can issue, replays skipped cycles in bulk via
/// [`idle_tick`](IssueQueue::idle_tick), and inherits the [`WakeHorizon`]
/// contract (default `None`: every organization here is purely reactive —
/// SWQUE's switch penalty is charged through the core's fetch stall, which
/// has its own horizon).
///
/// For the `swque-mc` model checker (DESIGN.md §12) every organization
/// also forks ([`clone_box`](IssueQueue::clone_box)) and states its
/// identity as typed words ([`arch_key`](IssueQueue::arch_key)): the
/// architectural state only, with sequence numbers renamed by the caller.
pub trait IssueQueue: fmt::Debug + WakeHorizon {
    /// The paper's name for this organization.
    fn name(&self) -> &'static str;

    /// Physical entry count.
    fn capacity(&self) -> usize;

    /// Valid (live) entries.
    fn len(&self) -> usize;

    /// True when the queue holds no instructions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if one more instruction can be dispatched *right now*. For
    /// circular queues this accounts for unusable holes, which is exactly
    /// their capacity inefficiency.
    fn has_space(&self) -> bool;

    /// Inserts an instruction.
    ///
    /// # Errors
    ///
    /// Returns [`IqFullError`] when no entry is allocatable (callers should
    /// gate on [`has_space`](IssueQueue::has_space)).
    fn dispatch(&mut self, req: DispatchReq) -> Result<(), IqFullError>;

    /// Broadcasts a completed destination tag to all entries.
    fn wakeup(&mut self, tag: Tag);

    /// Selects up to `budget` ready instructions in this organization's
    /// priority order, removing them from the queue. Must be called exactly
    /// once per simulated cycle (it also advances per-cycle bookkeeping).
    ///
    /// The grants are returned in grant order as a slice of a buffer the
    /// queue owns and reuses, so the per-cycle select never allocates once
    /// the buffer has grown to the issue width. The slice is valid until
    /// the next call on the queue; a caller that keeps the grants across
    /// later queue calls copies them (`.to_vec()`). The buffer is scratch,
    /// not state: [`arch_key`](IssueQueue::arch_key) leaves it out.
    fn select(&mut self, budget: &mut IssueBudget) -> &[Grant];

    /// True if at least one entry has all source operands ready. Must be a
    /// pure query (no bookkeeping).
    ///
    /// This is **necessary but not sufficient** for a same-cycle grant: a
    /// ready entry is guaranteed a grant within the organization's select
    /// latency (one cycle for every queue here except CIRC-PC's reverse
    /// plane, whose S_RV path takes two — the entry is latched as pending
    /// on the first select and granted on the next), not necessarily on
    /// the very next [`select`](IssueQueue::select). The sound direction
    /// is unconditional: `has_ready() == false` implies the next select
    /// grants nothing. Quiescence skipping (DESIGN.md §10) relies only on
    /// that sound direction; the bounded-latency direction is checked
    /// per-kind by the `swque-mc` model checker and the lockstep property
    /// test in `crates/core/tests`.
    fn has_ready(&self) -> bool;

    /// Replays `cycles` consecutive idle cycles in one call, advancing
    /// exactly the bookkeeping that `cycles` individual
    /// [`select`](IssueQueue::select) calls would have advanced.
    ///
    /// # Precondition
    ///
    /// [`has_ready`](IssueQueue::has_ready) is `false` and stays false for
    /// the whole window (the core guarantees this: no wakeups, dispatches,
    /// or squashes happen during a skip). Under that precondition the queue
    /// must end in *exactly* the state `cycles` empty selects would have
    /// produced — statistics included — so that skip-on and skip-off runs
    /// stay byte-identical.
    fn idle_tick(&mut self, cycles: CycleDelta);

    /// Empties the queue (pipeline flush).
    fn flush(&mut self);

    /// Removes every entry younger than `seq` (exclusive) — branch
    /// misprediction recovery. For circular queues this rolls the tail
    /// pointer back, reclaiming the squashed region.
    fn squash_younger(&mut self, seq: u64);

    /// Accumulated statistics.
    fn stats(&self) -> IqStats;

    /// Offered the current cycle plus retired-instruction and LLC-miss
    /// totals once per cycle; returns `true` when the queue wants a
    /// pipeline flush to reconfigure itself (only SWQUE ever does). The
    /// cycle stamps the trace events the decision emits.
    fn poll_mode_switch(
        &mut self,
        cycle: CycleStamp,
        retired_insts: InstCount,
        llc_misses: u64,
    ) -> bool {
        let _ = (cycle, retired_insts, llc_misses);
        false
    }

    /// Hands the queue a trace handle to emit observability events into
    /// (see `swque-trace`). Non-switching queues have nothing interval-
    /// shaped to report and ignore it.
    fn attach_trace(&mut self, trace: &TraceHandle) {
        let _ = trace;
    }

    /// Current operating mode (meaningful for SWQUE).
    fn mode(&self) -> IqMode {
        IqMode::Fixed
    }

    /// SWQUE-specific statistics, if this queue switches modes.
    fn swque_stats(&self) -> Option<SwqueStats> {
        None
    }

    /// Writes this queue's *architectural* state into `key`: everything
    /// that can influence a future grant, occupancy or mode decision, and
    /// nothing else. This is the state identity of the `swque-mc` model
    /// checker's dedup (DESIGN.md §12.2).
    ///
    /// Implementations write every slot record (stale ones included, with
    /// `seq` and `payload` through [`ArchKey::push_seq`]), the bit planes
    /// and age matrices, allocation pointers, in-flight correction state
    /// and, for SWQUE, the pending mode and the controller's key. They
    /// omit statistics, waiter-table layout, scratch buffers, trace
    /// handles, monotone totals and construction-time constants, and put
    /// a length prefix before every variable-length part.
    fn arch_key(&self, key: &mut ArchKey);

    /// Clones this queue behind a fresh box. This is the model checker's
    /// state-fork primitive: trait objects cannot derive [`Clone`], so
    /// every organization provides the boxed clone explicitly (and
    /// `Box<dyn IssueQueue>` implements `Clone` through it).
    fn clone_box(&self) -> Box<dyn IssueQueue>;
}

impl Clone for Box<dyn IssueQueue> {
    fn clone(&self) -> Box<dyn IssueQueue> {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_totals_match_paper() {
        assert_eq!(BucketSpec::medium().total(), 7);
        assert_eq!(BucketSpec::large().total(), 9);
    }

    #[test]
    fn flpi_rank_floor_is_last_sixteenth_by_default() {
        let c = IqConfig::default();
        assert_eq!(c.flpi_rank_floor(), 120);
        let tiny = IqConfig { capacity: 16, ..IqConfig::default() };
        assert_eq!(tiny.flpi_rank_floor(), 15);
    }

    #[test]
    fn every_kind_builds_and_reports_its_label() {
        let config = IqConfig { capacity: 16, issue_width: 2, ..IqConfig::default() };
        for kind in IqKind::ALL {
            let q = kind.build(&config);
            assert_eq!(q.name(), kind.label());
            assert_eq!(q.capacity(), 16);
            assert!(q.is_empty());
            assert!(q.has_space());
        }
    }
}
