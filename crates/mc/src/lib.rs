//! `swque-mc`: a bounded exhaustive model checker for every issue-queue
//! organization and the SWQUE mode controller.
//!
//! The cycle-level simulator exercises the queues along the paths real
//! programs happen to take; this crate exercises them along **every**
//! path. Small-scope queues (capacity 2–6) are driven through every
//! reachable interleaving of dispatch / wakeup / select / squash / flush /
//! mode-poll events up to a depth bound, deduplicating visited states by a
//! digest of their typed architectural key (`IssueQueue::arch_key`, with
//! sequence numbers renamed to age ranks; DESIGN.md §12.2). At every step
//! a per-kind property catalog is checked:
//!
//! | property | kinds | claim |
//! |---|---|---|
//! | `grant-ready` | all | every grant had both sources resolved |
//! | `budget-bound` | all | a select never grants past its budget |
//! | `len-conserved` | all | queue occupancy equals the shadow model's |
//! | `space-consistent` | all | `has_space` is truthful at both extremes |
//! | `ready-agrees` | all | `has_ready` equals the shadow's ready bit |
//! | `no-ready-no-grant` | all | `!has_ready` ⇒ the next select grants nothing |
//! | `idle-equivalence` | all | `idle_tick(n)` ≡ `n` empty selects: equal keys, equal stats |
//! | `ready-within-1` | single-cycle kinds | a non-exhausted select leaves no ready entry |
//! | `pc-age-ordered` | CIRC-PC, SWQUE | single-cycle grants issue oldest-first |
//! | `pc-ready-within-bound` | CIRC-PC, SWQUE | the two-cycle RV path cannot starve an entry |
//! | `oldest-first` | SHIFT, CIRC-PPRI | grants are exactly the oldest ready entries |
//! | `age-first` | AGE, AGE-multiAM, SWQUE in AGE mode | the leading grants are, bucket by bucket, each age-matrix bucket's oldest ready entry (the shadow mirrors the steering) |
//! | `swque-switch-once` | SWQUE | a switch is requested until flushed, adopted once |
//! | `ctrl-switch-is-change` | CTRL | `SwitchTo(m)` really changes the mode to `m` |
//! | `ctrl-stay-is-stable` | CTRL | `Stay` leaves the mode alone |
//! | `ctrl-instability-reduction` | CTRL | sustained FLPI instability lowers the AGE threshold |
//! | `ctrl-threshold-floor` | CTRL | the adapted threshold never goes negative |
//!
//! A violation is shrunk by delta-debugging ([`explore::minimize`]) and
//! emitted as a `swque-mc-replay-v1` string (`swque_core::replay`) that
//! re-executes the exact counterexample via [`exec::run_replay`] — the
//! committed corpus under `tests/replays/` replays forever.
//!
//! Negative injections prove the checker can actually see: building
//! CIRC-PC via `without_correction` (`--inject circ-pc-no-correct`) makes
//! `pc-age-ordered` fail, a `stabilize: false` controller (`--inject
//! controller-no-stabilize`) makes `ctrl-instability-reduction` fail,
//! AGE or AGE-multiAM matrices that grant the youngest ready entry
//! (`--inject age-youngest-first`) make `age-first` fail, and a SHIFT that selects
//! in slot order (`--inject shift-position-order`) makes `oldest-first`
//! fail — all wired as mandatory red/green runs in `scripts/verify.sh`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctrl;
pub mod exec;
pub mod explore;
pub mod harness;
pub mod report;
pub mod scope;

pub use ctrl::CtrlHarness;
pub use exec::{check_replay, run_replay, ReplayOutcome};
pub use explore::{explore, minimize, FoundViolation, Harness, RunOutcome};
pub use harness::{Injection, QueueHarness, Violation, SEQ_BASE};
pub use report::{report, validate_report, McRun, McViolation, MC_SCHEMA};
