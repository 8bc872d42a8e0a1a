//! Pipeline-side response to an issue-queue mode switch, as a pure function.
//!
//! The SWQUE controller decides *whether* to switch (`swque-core`'s
//! `SwqueController`); the pipeline decides *what that costs*: a full flush
//! and a fetch stall of `switch_penalty` cycles (paper §4.3's 10-cycle
//! drain-and-reconfigure window). [`Core`](crate::Core) routes its poll
//! through [`mode_switch_response`] so the cost model is a standalone
//! transition function that unit tests exercise without building a
//! pipeline.

use swque_core::cycle::{CycleDelta, CycleStamp};

/// What the pipeline must do after the issue queue commits a mode switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SwitchResponse {
    /// First cycle at which fetch may run again; fetch is stalled for every
    /// cycle strictly before this mark.
    pub(crate) fetch_stalled_until: CycleStamp,
}

/// Maps the issue queue's mode-switch poll result to the pipeline response.
///
/// Returns `None` when no switch committed this cycle (`wants_switch` is
/// false): the pipeline must not flush, stall, or count anything — polling
/// is free. When a switch did commit, the response is unconditional: one
/// full flush and a fetch stall covering exactly `switch_penalty` cycles
/// starting at `cycle`. The charge is per *switch*, not per poll, which is
/// the `swque-switch-once` property the model checker enforces.
pub(crate) fn mode_switch_response(
    cycle: CycleStamp,
    switch_penalty: CycleDelta,
    wants_switch: bool,
) -> Option<SwitchResponse> {
    if !wants_switch {
        return None;
    }
    Some(SwitchResponse { fetch_stalled_until: cycle + switch_penalty })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn respond(cycle: u64, penalty: u64, wants: bool) -> Option<u64> {
        mode_switch_response(CycleStamp::new(cycle), CycleDelta::new(penalty), wants)
            .map(|r| r.fetch_stalled_until.get())
    }

    #[test]
    fn no_switch_is_free() {
        assert_eq!(respond(100, 10, false), None);
        assert_eq!(respond(0, 0, false), None);
    }

    #[test]
    fn a_switch_stalls_fetch_for_exactly_the_penalty() {
        assert_eq!(respond(100, 10, true), Some(110));
        // A zero-penalty configuration resumes fetch on the same cycle.
        assert_eq!(respond(7, 0, true), Some(7));
    }

    #[test]
    fn the_stall_mark_saturates_instead_of_wrapping() {
        assert_eq!(respond(u64::MAX, 10, true), Some(u64::MAX));
    }
}
