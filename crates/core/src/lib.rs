//! Issue-queue organizations — the contribution of *SWQUE: A Mode Switching
//! Issue Queue with Priority-Correcting Circular Queue* (MICRO-52, 2019).
//!
//! The issue queue (IQ) holds dispatched instructions until their source
//! operands are ready and then *selects* which ready instructions issue each
//! cycle. Two properties determine IQ quality (paper §1):
//!
//! 1. **Correct priority** — older instructions should issue first, because
//!    long dependence chains (critical paths) keep their instructions in the
//!    IQ the longest.
//! 2. **Capacity efficiency** — the fraction of physical entries that can
//!    actually hold instructions, which determines how much instruction- and
//!    memory-level parallelism the queue can expose.
//!
//! No conventional organization has both. This crate implements the full
//! taxonomy plus the paper's proposals:
//!
//! | Queue | Allocation | Priority | Capacity |
//! |---|---|---|---|
//! | [`ShiftQueue`] (SHIFT) | compacting | perfect (age) | full |
//! | [`CircQueue::new`] (CIRC) | circular | *reversed under wrap-around*: the wrapped range first | holes wasted |
//! | [`CircQueue::perfect_priority`] (CIRC-PPRI) | circular | perfect (idealized): the wrapped range second, same cycle | holes wasted |
//! | [`CircQueue::priority_correcting`] (CIRC-PC, §3.1) | circular | **corrected**: the wrapped range second, through a second select logic, one cycle late | holes wasted |
//! | [`RandomQueue::rand`] (RAND) | free list | random (position) | full |
//! | [`RandomQueue::age`] (AGE) | free list | oldest-ready first, rest random | full |
//! | [`RandomQueue::age_multi`] (AGE-multiAM, §4.9) | free list | per-bucket oldest-ready, rest random | full |
//! | [`Swque`] (SWQUE, §3.2) | mode-switched | CIRC-PC or AGE by phase | adaptive |
//! | [`RearrangingQueue`] (extension, §5 related work) | free list | multiple-oldest via an old queue | full |
//!
//! All queues implement the [`IssueQueue`] trait, which the cycle-level core
//! model in `swque-cpu` drives once per cycle: broadcast result tags with
//! [`IssueQueue::wakeup`], then call [`IssueQueue::select`] with the cycle's
//! [`IssueBudget`] (issue width and free function units).
//!
//! # Example
//!
//! ```
//! use swque_core::{DispatchReq, IqConfig, IqKind, IssueBudget};
//! use swque_isa::FuClass;
//!
//! let config = IqConfig { capacity: 8, issue_width: 2, ..IqConfig::default() };
//! let mut iq = IqKind::Age.build(&config);
//!
//! // Dispatch one ready add and one add waiting on tag 7.
//! iq.dispatch(DispatchReq::new(0, 100, Some(1), [None, None], FuClass::IntAlu)).unwrap();
//! iq.dispatch(DispatchReq::new(1, 101, Some(2), [Some(7), None], FuClass::IntAlu)).unwrap();
//!
//! let grants = iq.select(&mut IssueBudget::new(2, [2, 1, 2, 2]));
//! assert_eq!(grants.len(), 1, "only the ready instruction issues");
//! assert_eq!(grants[0].payload, 100);
//!
//! iq.wakeup(7); // the producer of tag 7 completes
//! let grants = iq.select(&mut IssueBudget::new(2, [2, 1, 2, 2]));
//! assert_eq!(grants[0].payload, 101);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Implements `Clone` for a queue-layer struct field by field: `clone`
/// clones each state field and starts each scratch field empty
/// (`Default`), and `clone_from` copies each state field in place through
/// the field's own `clone_from` (a `Vec` keeps its allocation) and leaves
/// the scratch fields as they are. Both destructure the struct with no
/// `..`, so a field missing from the lists fails to compile instead of
/// forking stale state.
macro_rules! clone_in_place {
    ($ty:ident { $($field:ident),* } $(scratch { $($scratch:ident),* })?) => {
        impl Clone for $ty {
            fn clone(&self) -> $ty {
                let $ty { $($field,)* $($($scratch: _,)*)? } = self;
                $ty { $($field: $field.clone(),)* $($($scratch: Default::default(),)*)? }
            }

            fn clone_from(&mut self, src: &$ty) {
                let $ty { $($field,)* $($($scratch: _,)*)? } = src;
                $(self.$field.clone_from($field);)*
            }
        }
    };
}

pub mod bitset;
mod circ;
mod controller;
pub mod cycle;
pub mod digest;
mod horizon;
mod queue;
mod random_queue;
mod rearrange;
pub mod replay;
mod shift;
mod slots;
mod stats;
mod swque;
mod types;

pub use bitset::BitSet;
pub use circ::CircQueue;
pub use controller::{IntervalMetrics, ModeDecision, SwqueController, SwqueParams};
pub use digest::{fnv1a64, ArchKey};
pub use horizon::{min_horizon, WakeHorizon};
pub use queue::{BucketSpec, IqConfig, IqKind, IssueQueue, QueueFork};
pub use random_queue::RandomQueue;
pub use rearrange::RearrangingQueue;
pub use shift::ShiftQueue;
pub use stats::{IqStats, SwqueStats};
pub use swque::Swque;
pub use types::{DispatchReq, Grant, IqFullError, IqMode, IssueBudget, Tag};
