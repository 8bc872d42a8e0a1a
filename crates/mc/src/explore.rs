//! Breadth-first state-space exploration and counterexample shrinking.
//!
//! The explorer is generic over [`Harness`] — anything that can list its
//! enabled events, apply one (checking properties), and produce a
//! canonical dedup key. Exploration is breadth-first so the first
//! violation found is already depth-minimal; [`minimize`] then shrinks it
//! event-wise (ddmin-style greedy deletion) to a locally 1-minimal trace.

use std::collections::BTreeSet;

use swque_core::digest::key_digest;
use swque_core::replay::Event;

use crate::harness::Violation;

/// A transition system the explorer can walk.
pub trait Harness: Clone {
    /// Events worth trying from the current state (preconditions and
    /// symmetry reduction applied).
    fn enabled_events(&self) -> Vec<Event>;
    /// Applies one event, checking every property along the way.
    fn apply(&mut self, event: Event) -> Result<(), Violation>;
    /// Writes the canonical dedup key of the current state into `words`
    /// (cleared first): its typed architectural key (DESIGN.md §12.2).
    /// The explorer deduplicates by the key's [`key_digest`].
    fn state_key(&self, words: &mut Vec<u64>);
}

/// The arena index standing for the root state, which has no link.
const ROOT: usize = usize::MAX;

/// The events that lead from the root to `node`, read back through the
/// `(parent, event)` links of the arena.
fn path_to(links: &[(usize, Event)], mut node: usize) -> Vec<Event> {
    let mut events = Vec::new();
    while node != ROOT {
        let (parent, event) = links[node];
        events.push(event);
        node = parent;
    }
    events.reverse();
    events
}

/// A property violation found during exploration, with the event path
/// that reaches it from the initial state.
#[derive(Debug, Clone)]
pub struct FoundViolation {
    /// Stable property name.
    pub property: &'static str,
    /// Human-readable account from the harness.
    pub detail: String,
    /// Events from the initial state up to and including the violating
    /// one.
    pub events: Vec<Event>,
}

/// Outcome of one bounded exploration.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Distinct canonical states visited (including the initial state).
    pub states: u64,
    /// Deepest level at which a new state was discovered.
    pub deepest: u64,
    /// New states reachable one step past the depth bound. Zero means the
    /// state space is *closed*: the bound exhausted it.
    pub frontier: u64,
    /// First violation found (depth-minimal), if any.
    pub violation: Option<FoundViolation>,
}

impl RunOutcome {
    /// True when the depth bound exhausted the reachable state space.
    pub fn closed(&self) -> bool {
        self.frontier == 0
    }
}

/// Explores every reachable interleaving from `root` up to `depth`
/// events, stopping at the first property violation.
///
/// States one step beyond the bound are still *checked* (their properties
/// run) but not expanded; they are tallied in
/// [`frontier`](RunOutcome::frontier) if unvisited, so `frontier == 0`
/// certifies exhaustion rather than merely "we stopped looking".
///
/// A state's path is not stored with it: every expanded state keeps one
/// `(parent, event)` link in an arena, and only a violation reads its
/// path back. One key buffer serves every state.
pub fn explore<H: Harness>(root: &H, depth: u64) -> RunOutcome {
    let mut words = Vec::new();
    let mut visited = BTreeSet::new();
    root.state_key(&mut words);
    visited.insert(key_digest(&words));
    let mut links: Vec<(usize, Event)> = Vec::new();
    let mut level: Vec<(H, usize)> = vec![(root.clone(), ROOT)];
    let mut outcome = RunOutcome { states: 1, deepest: 0, frontier: 0, violation: None };

    for current_depth in 0..=depth {
        let expanding = std::mem::take(&mut level);
        let at_bound = current_depth == depth;
        for (state, node) in &expanding {
            for event in state.enabled_events() {
                let mut next = state.clone();
                if let Err(v) = next.apply(event) {
                    let mut events = path_to(&links, *node);
                    events.push(event);
                    outcome.violation =
                        Some(FoundViolation { property: v.property, detail: v.detail, events });
                    return outcome;
                }
                next.state_key(&mut words);
                if !visited.insert(key_digest(&words)) {
                    continue;
                }
                if at_bound {
                    outcome.frontier += 1;
                    continue;
                }
                outcome.states += 1;
                outcome.deepest = current_depth + 1;
                links.push((*node, event));
                level.push((next, links.len() - 1));
            }
        }
        if level.is_empty() && !at_bound {
            // Fixpoint before the bound: nothing left to expand, so the
            // frontier is provably empty.
            break;
        }
    }
    outcome
}

/// Runs `events` against a fresh harness; returns the violation that
/// ends the trace, if any.
fn run_trace<H: Harness>(fresh: &H, events: &[Event]) -> Option<Violation> {
    let mut state = fresh.clone();
    for event in events {
        if let Err(v) = state.apply(*event) {
            return Some(v);
        }
    }
    None
}

/// Greedily shrinks `events` while a fresh harness still violates
/// `property`, to a locally 1-minimal trace (removing any single event
/// no longer reproduces the violation).
pub fn minimize<H: Harness>(fresh: &H, events: &[Event], property: &str) -> Vec<Event> {
    let mut trace: Vec<Event> = events.to_vec();
    let mut changed = true;
    while changed {
        changed = false;
        let mut index = 0;
        while index < trace.len() {
            let mut candidate = trace.clone();
            candidate.remove(index);
            let still_fails =
                run_trace(fresh, &candidate).map(|v| v.property == property).unwrap_or(false);
            if still_fails {
                trace = candidate;
                changed = true;
            } else {
                index += 1;
            }
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny synthetic system: a counter over {0..limit} where Wakeup(0)
    /// increments, Flush resets, and reaching `trip` is a violation.
    #[derive(Clone)]
    struct Counter {
        value: u64,
        limit: u64,
        trip: Option<u64>,
    }

    impl Harness for Counter {
        fn enabled_events(&self) -> Vec<Event> {
            vec![Event::Wakeup(0), Event::Flush]
        }

        fn apply(&mut self, event: Event) -> Result<(), Violation> {
            match event {
                Event::Wakeup(_) => {
                    self.value = (self.value + 1).min(self.limit);
                    if Some(self.value) == self.trip {
                        return Err(Violation {
                            property: "trip",
                            detail: format!("hit {}", self.value),
                        });
                    }
                    Ok(())
                }
                _ => {
                    self.value = 0;
                    Ok(())
                }
            }
        }

        fn state_key(&self, words: &mut Vec<u64>) {
            words.clear();
            words.push(self.value);
        }
    }

    #[test]
    fn closes_a_finite_space_and_counts_states() {
        let outcome = explore(&Counter { value: 0, limit: 3, trip: None }, 10);
        assert_eq!(outcome.states, 4); // values 0..=3
        assert!(outcome.closed());
        assert!(outcome.violation.is_none());
        assert_eq!(outcome.deepest, 3);
    }

    #[test]
    fn reports_an_open_frontier_when_the_bound_is_too_small() {
        let outcome = explore(&Counter { value: 0, limit: 5, trip: None }, 2);
        assert!(!outcome.closed());
        assert!(outcome.frontier > 0);
    }

    #[test]
    fn finds_a_depth_minimal_violation() {
        let root = Counter { value: 0, limit: 5, trip: Some(3) };
        let outcome = explore(&root, 10);
        let v = outcome.violation.expect("must trip");
        assert_eq!(v.property, "trip");
        assert_eq!(v.events.len(), 3, "BFS finds the shortest path");
    }

    #[test]
    fn minimize_strips_redundant_events() {
        let root = Counter { value: 0, limit: 5, trip: Some(2) };
        // A wasteful trace: increments interleaved with resets.
        let fat = vec![Event::Wakeup(0), Event::Flush, Event::Wakeup(0), Event::Wakeup(0)];
        assert!(run_trace(&root, &fat).is_some());
        let slim = minimize(&root, &fat, "trip");
        assert_eq!(slim.len(), 2);
        assert!(run_trace(&root, &slim).is_some());
    }
}
