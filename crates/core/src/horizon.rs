//! The wake-horizon contract: how subsystems prove the clock may jump.
//!
//! The cycle-level core model normally ticks every structure every cycle.
//! During long memory stalls that is pure overhead: the IQ holds no ready
//! entry, fetch is stalled, and the only future state change is a DRAM fill
//! hundreds of cycles away. The [`WakeHorizon`] trait is the contract that
//! makes skipping those cycles *provable* rather than heuristic: each
//! subsystem with timed internal state reports the earliest future cycle at
//! which it could act, and the core jumps directly to the minimum of those
//! horizons once it has established that no pipeline stage can act sooner
//! (the quiescence predicate; see DESIGN.md §10).
//!
//! # The obligation
//!
//! For a subsystem at cycle `now`, `wake_horizon(now)` must return
//! `Some(h)` with `now < h ≤ t` for every cycle `t > now` at which the
//! subsystem would change observable state **without any external
//! stimulus** (no calls into it other than the horizon query itself).
//! Under-promising (an `h` earlier than the first real wake-up) merely
//! shortens a skip; over-promising (an `h` past a real wake-up, or `None`
//! despite one) silently corrupts simulated timing. **Returning `None`
//! must never hide a timed wake-up** — it is a promise that the subsystem
//! is purely reactive from `now` on.
//!
//! The horizon is consulted only while the core is quiescent, so state
//! changes that are *responses* to pipeline activity (a cache access, a
//! wakeup broadcast, a dispatch) need no horizon: the activity itself
//! breaks quiescence and the core ticks normally.
//!
//! # Example
//!
//! A refill timer that becomes ready at a fixed future cycle reports that
//! cycle until it passes, then has no timed state left:
//!
//! ```
//! use swque_core::cycle::CycleStamp;
//! use swque_core::WakeHorizon;
//!
//! struct RefillTimer {
//!     ready_at: CycleStamp,
//! }
//!
//! impl WakeHorizon for RefillTimer {
//!     fn wake_horizon(&self, now: CycleStamp) -> Option<CycleStamp> {
//!         (self.ready_at > now).then_some(self.ready_at)
//!     }
//! }
//!
//! let t = RefillTimer { ready_at: CycleStamp::new(300) };
//! assert_eq!(t.wake_horizon(CycleStamp::new(10)), Some(CycleStamp::new(300)));
//! let woke = t.wake_horizon(CycleStamp::new(300));
//! assert_eq!(woke, None, "already woke; nothing timed remains");
//! ```

use crate::cycle::CycleStamp;

/// A subsystem that can report its earliest future wake-up cycle.
///
/// See the module docs above for the exact obligation. Implementors in
/// this repository:
///
/// * `FuPool` (swque-cpu) — the earliest cycle a busy function unit frees.
/// * `MemoryHierarchy` (swque-mem) — the earliest in-flight MSHR or L2
///   fill completion still in the future.
///
/// The issue queues do not implement it: every organization mutates state
/// only in response to `wakeup` / `select` / `dispatch` calls, and SWQUE's
/// switch-penalty window is charged through the core's fetch stall, so it
/// is covered by the core's own fetch horizon.
pub trait WakeHorizon {
    /// Earliest cycle strictly after `now` at which this subsystem would
    /// change observable state without external stimulus, or `None` if it
    /// is purely reactive from `now` on.
    fn wake_horizon(&self, now: CycleStamp) -> Option<CycleStamp>;
}

/// Minimum of two optional horizons (`None` = no constraint).
pub fn min_horizon(a: Option<CycleStamp>, b: Option<CycleStamp>) -> Option<CycleStamp> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (h, None) | (None, h) => h,
    }
}
