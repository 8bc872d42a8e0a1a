//! Re-execution of `swque-mc-replay-v1` traces.
//!
//! A replay string is a self-contained counterexample: it names the
//! target, the scope, the injection to plant, the property it is expected
//! to violate, and the event trace. [`run_replay`] rebuilds the exact
//! harness and replays the events; [`check_replay`] additionally enforces
//! the `expect=` contract, which is what the committed corpus under
//! `tests/replays/` runs through forever.

use swque_core::replay::{Replay, ReplayTarget};

use crate::ctrl::CtrlHarness;
use crate::explore::Harness;
use crate::harness::{Injection, QueueHarness, Violation};

/// What replaying a trace produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The violation that ended the trace, if any.
    pub violation: Option<Violation>,
    /// Events applied before stopping (the whole trace when clean).
    pub applied: usize,
}

fn parse_inject(replay: &Replay) -> Result<Option<Injection>, String> {
    match &replay.inject {
        None => Ok(None),
        Some(name) => match Injection::parse(name) {
            Some(inject) => Ok(Some(inject)),
            None => Err(format!("unknown injection `{name}`")),
        },
    }
}

fn run_events<H: Harness>(mut harness: H, replay: &Replay) -> ReplayOutcome {
    for (index, event) in replay.events.iter().enumerate() {
        if let Err(violation) = harness.apply(*event) {
            return ReplayOutcome { violation: Some(violation), applied: index + 1 };
        }
    }
    ReplayOutcome { violation: None, applied: replay.events.len() }
}

/// Rebuilds the harness a replay names and re-executes its events.
///
/// Errors are *setup* problems (unknown injection, bad scope); a property
/// violation during the trace is a normal outcome, not an error.
pub fn run_replay(replay: &Replay) -> Result<ReplayOutcome, String> {
    let inject = parse_inject(replay)?;
    match replay.target {
        ReplayTarget::Queue(kind) => {
            let harness = QueueHarness::new(kind, replay.capacity, replay.width, inject)?;
            Ok(run_events(harness, replay))
        }
        ReplayTarget::Controller => {
            let harness = CtrlHarness::new(inject)?;
            Ok(run_events(harness, replay))
        }
    }
}

/// Replays a trace and enforces its `expect=` contract: an expected
/// property must be violated (that property exactly), and a trace without
/// one must replay clean.
pub fn check_replay(replay: &Replay) -> Result<ReplayOutcome, String> {
    let outcome = run_replay(replay)?;
    match (&replay.expect, &outcome.violation) {
        (None, None) => Ok(outcome),
        (None, Some(violation)) => Err(format!(
            "trace expected to replay clean violated {} after {} events: {}",
            violation.property, outcome.applied, violation.detail
        )),
        (Some(expected), None) => {
            Err(format!("trace expected to violate {expected} replayed clean"))
        }
        (Some(expected), Some(violation)) => {
            if violation.property == *expected {
                Ok(outcome)
            } else {
                Err(format!(
                    "trace expected to violate {expected} instead violated {} ({})",
                    violation.property, violation.detail
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_trace_replays_clean() {
        let replay = Replay::parse(
            "swque-mc-replay-v1 kind=SHIFT cap=3 width=2 inject=- expect=- \
             events=d-.-,d0.-,s2,w0,s2",
        )
        .expect("parse");
        let outcome = check_replay(&replay).expect("clean replay");
        assert_eq!(outcome.applied, 5);
        assert!(outcome.violation.is_none());
    }

    #[test]
    fn expect_contract_rejects_a_clean_run_that_promised_a_violation() {
        let replay = Replay::parse(
            "swque-mc-replay-v1 kind=SHIFT cap=3 width=2 inject=- expect=oldest-first \
             events=d-.-,s1",
        )
        .expect("parse");
        let err = check_replay(&replay).unwrap_err();
        assert!(err.contains("replayed clean"), "{err}");
    }

    #[test]
    fn unknown_injection_is_a_setup_error() {
        let replay = Replay::parse(
            "swque-mc-replay-v1 kind=CIRC cap=3 width=2 inject=not-a-bug expect=- events=f",
        )
        .expect("parse");
        assert!(run_replay(&replay).unwrap_err().contains("unknown injection"));
    }

    #[test]
    fn controller_trace_runs_on_the_controller() {
        let replay = Replay::parse(
            "swque-mc-replay-v1 kind=CTRL cap=0 width=0 inject=- expect=- \
             events=e0:50,e0:0,e0:50,r1000000",
        )
        .expect("parse");
        let outcome = check_replay(&replay).expect("clean controller replay");
        assert_eq!(outcome.applied, 4);
    }

    #[test]
    fn target_mismatch_is_the_replay_target_property() {
        // The grammar already rejects mixed traces at parse time, so a
        // mismatch can only be constructed programmatically; the harness
        // still refuses it as a second line of defense.
        use swque_core::replay::Event;
        use swque_core::IqKind;
        let replay = Replay {
            target: ReplayTarget::Queue(IqKind::Circ),
            capacity: 3,
            width: 2,
            inject: None,
            expect: Some("replay-target".to_string()),
            events: vec![Event::Interval { mpki_milli: 0, flpi_milli: 0 }],
        };
        let outcome = check_replay(&replay).expect("expected violation");
        let v = outcome.violation.expect("violation");
        assert_eq!(v.property, "replay-target");
    }
}
