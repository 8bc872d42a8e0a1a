//! Shared vocabulary types for issue queues.

use std::error::Error;
use std::fmt;

use swque_isa::FuClass;

/// A physical-register tag broadcast on the wakeup tag lines.
pub type Tag = u16;

/// A dispatch request: everything the IQ stores about one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchReq {
    /// Program-order sequence number (strictly increasing at dispatch);
    /// the ground truth for "older".
    pub seq: u64,
    /// Opaque handle the owning core uses to find the instruction again
    /// (e.g. a reorder-buffer index).
    pub payload: u64,
    /// Destination tag broadcast when the instruction issues/completes.
    pub dst: Option<Tag>,
    /// Source operand tags still being waited on; `None` = already ready.
    pub srcs: [Option<Tag>; 2],
    /// Function-unit class the instruction needs.
    pub fu: FuClass,
}

impl DispatchReq {
    /// Convenience constructor.
    pub fn new(
        seq: u64,
        payload: u64,
        dst: Option<Tag>,
        srcs: [Option<Tag>; 2],
        fu: FuClass,
    ) -> DispatchReq {
        DispatchReq { seq, payload, dst, srcs, fu }
    }
}

/// One granted (issued) instruction returned by [`select`].
///
/// [`select`]: crate::IssueQueue::select
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The dispatcher's opaque handle.
    pub payload: u64,
    /// Sequence number of the granted instruction.
    pub seq: u64,
    /// Destination tag (the core schedules its wakeup broadcast).
    pub dst: Option<Tag>,
    /// Function unit the grant consumed.
    pub fu: FuClass,
    /// Priority rank the scheme assigned this grant (0 = highest). Used for
    /// the FLPI metric: ranks in the lowest-priority quarter of the queue
    /// count as "low-priority issues".
    pub rank: usize,
    /// True if this instruction took the CIRC-PC two-cycle RV path.
    pub two_cycle: bool,
}

/// The grant buffer a queue's [`select`] fills and returns a slice of,
/// reused every cycle so that select never allocates once it has grown to
/// the issue width. It is scratch, not state: every queue lists it as a
/// scratch field of its `Clone`, so a clone starts empty and an in-place
/// copy keeps the destination's buffer (forking a queue, the model
/// checker's hot path, copies no stale grants), and no `arch_key`
/// includes it.
///
/// [`select`]: crate::IssueQueue::select
#[derive(Debug, Default)]
pub(crate) struct GrantBuf(Vec<Grant>);

impl GrantBuf {
    /// Takes the buffer out, cleared, so that it can be filled while the
    /// queue is borrowed mutably; [`put`](Self::put) returns it.
    pub(crate) fn take(&mut self) -> Vec<Grant> {
        let mut grants = std::mem::take(&mut self.0);
        grants.clear();
        grants
    }

    /// Puts the filled buffer back and returns its grants.
    pub(crate) fn put(&mut self, grants: Vec<Grant>) -> &[Grant] {
        self.0 = grants;
        &self.0
    }
}

/// Per-cycle issue resources: total width plus free function units per
/// [`FuClass`] (indexed by [`FuClass::index`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueBudget {
    /// Remaining issue slots this cycle.
    pub width: usize,
    /// Remaining free function units per class.
    pub fu_free: [usize; 4],
}

impl IssueBudget {
    /// Creates a budget of `width` slots and the given per-class FU counts.
    pub fn new(width: usize, fu_free: [usize; 4]) -> IssueBudget {
        IssueBudget { width, fu_free }
    }

    /// True if an instruction of class `fu` could be granted right now.
    pub fn can_take(&self, fu: FuClass) -> bool {
        self.width > 0 && self.fu_free[fu.index()] > 0
    }

    /// Consumes one slot and one unit of `fu`; returns false (and consumes
    /// nothing) if unavailable.
    pub fn try_take(&mut self, fu: FuClass) -> bool {
        if !self.can_take(fu) {
            return false;
        }
        self.width -= 1;
        self.fu_free[fu.index()] -= 1;
        true
    }

    /// True when no further grant is possible this cycle.
    pub fn exhausted(&self) -> bool {
        self.width == 0 || self.fu_free.iter().all(|&f| f == 0)
    }
}

/// Error returned by [`dispatch`] when the queue cannot accept an entry.
///
/// [`dispatch`]: crate::IssueQueue::dispatch
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IqFullError;

impl fmt::Display for IqFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "issue queue has no allocatable entry")
    }
}

impl Error for IqFullError {}

/// The configuration a queue is currently operating in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IqMode {
    /// A non-switching queue (everything except SWQUE).
    Fixed,
    /// SWQUE operating as CIRC-PC (priority-sensitive phases).
    CircPc,
    /// SWQUE operating as AGE (capacity-demanding phases).
    Age,
}

impl IqMode {
    /// The trace-event encoding of this mode, or `None` for a
    /// non-switching queue (traces only describe SWQUE's two
    /// configurations).
    pub fn trace(self) -> Option<swque_trace::Mode> {
        match self {
            IqMode::Fixed => None,
            IqMode::CircPc => Some(swque_trace::Mode::CircPc),
            IqMode::Age => Some(swque_trace::Mode::Age),
        }
    }
}

impl fmt::Display for IqMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IqMode::Fixed => write!(f, "fixed"),
            IqMode::CircPc => write!(f, "CIRC-PC"),
            IqMode::Age => write!(f, "AGE"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_consumes_width_and_fu() {
        let mut b = IssueBudget::new(2, [1, 0, 1, 1]);
        assert!(b.try_take(FuClass::IntAlu));
        assert!(!b.try_take(FuClass::IntAlu), "only one iALU was free");
        assert!(!b.try_take(FuClass::IntMulDiv), "no mul/div units");
        assert!(b.try_take(FuClass::LdSt));
        assert!(!b.try_take(FuClass::Fpu), "width exhausted");
        assert!(b.exhausted());
    }

    #[test]
    fn exhausted_with_zero_width_or_all_fus_busy() {
        assert!(IssueBudget::new(0, [3, 1, 2, 2]).exhausted());
        assert!(IssueBudget::new(6, [0, 0, 0, 0]).exhausted());
        assert!(!IssueBudget::new(1, [0, 0, 1, 0]).exhausted());
    }
}
