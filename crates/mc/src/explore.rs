//! Breadth-first state-space exploration and counterexample shrinking.
//!
//! The explorer is generic over [`Harness`] — anything that can list its
//! enabled events, apply one (checking properties), and produce a
//! canonical dedup key. Exploration is breadth-first so the first
//! violation found is already depth-minimal; [`minimize`] then shrinks it
//! event-wise (ddmin-style greedy deletion) to a locally 1-minimal trace.

use swque_core::digest::key_digest;
use swque_core::replay::Event;

use crate::harness::Violation;

/// A transition system the explorer can walk.
///
/// The explorer forks states through `Clone`: it copies each expanded
/// state into one scratch harness with [`Clone::clone_from`] per event,
/// and clones only the states it stores, so an implementation whose
/// `clone_from` reuses the destination's buffers makes an applied event
/// allocation-free.
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

/// The visited set: key digests in a flat open-addressing table (linear
/// probing over a power-of-two number of cells, kept at most half full).
/// A zero cell is empty, so the digest 0 is held by a flag of its own.
#[derive(Debug, Default)]
struct DigestSet {
    cells: Vec<u64>,
    len: usize,
    zero: bool,
}

impl DigestSet {
    /// Adds `digest`; false if it was already present.
    fn insert(&mut self, digest: u64) -> bool {
        if digest == 0 {
            return !std::mem::replace(&mut self.zero, true);
        }
        if 2 * (self.len + 1) > self.cells.len() {
            self.grow();
        }
        if !Self::place(&mut self.cells, digest) {
            return false;
        }
        self.len += 1;
        true
    }

    /// Puts `digest` into the first free cell of its probe run; false if
    /// the run already holds it. `cells` is a power of two long and has
    /// a free cell.
    fn place(cells: &mut [u64], digest: u64) -> bool {
        let mask = cells.len() - 1;
        let mut at = usize::try_from(digest & mask as u64).unwrap_or(0);
        loop {
            match cells[at] {
                0 => {
                    cells[at] = digest;
                    return true;
                }
                held if held == digest => return false,
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Doubles the table (to 64 cells at first) and re-places every digest.
    fn grow(&mut self) {
        let mut cells = vec![0; (2 * self.cells.len()).max(64)];
        for &digest in self.cells.iter().filter(|&&d| d != 0) {
            Self::place(&mut cells, digest);
        }
        self.cells = cells;
    }
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
/// path back. One key buffer serves every state, and one scratch harness
/// every applied event: the scratch becomes a copy of the expanded state
/// through `clone_from`, takes the event, and is cloned only when the
/// state it reached is new.
pub fn explore<H: Harness>(root: &H, depth: u64) -> RunOutcome {
    let mut words = Vec::new();
    let mut visited = DigestSet::default();
    root.state_key(&mut words);
    visited.insert(key_digest(&words));
    let mut links: Vec<(usize, Event)> = Vec::new();
    let mut level: Vec<(H, usize)> = vec![(root.clone(), ROOT)];
    let mut scratch = root.clone();
    let mut outcome = RunOutcome { states: 1, deepest: 0, frontier: 0, violation: None };

    for current_depth in 0..=depth {
        let expanding = std::mem::take(&mut level);
        let at_bound = current_depth == depth;
        for (state, node) in &expanding {
            for event in state.enabled_events() {
                scratch.clone_from(state);
                if let Err(v) = scratch.apply(event) {
                    let mut events = path_to(&links, *node);
                    events.push(event);
                    outcome.violation =
                        Some(FoundViolation { property: v.property, detail: v.detail, events });
                    return outcome;
                }
                scratch.state_key(&mut words);
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
                level.push((scratch.clone(), links.len() - 1));
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
    use std::sync::{Arc, Mutex, MutexGuard};

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
    fn the_digest_set_holds_zero_and_keeps_members_through_growth() {
        let mut set = DigestSet::default();
        assert!(set.insert(0) && !set.insert(0), "0 is a member like any other");
        // Digests with equal low bits share one probe run, which wraps
        // past the end of the first table.
        let digests: Vec<u64> = (1..=300).map(|d| d << 32 | 63).collect();
        assert!(digests.iter().all(|&d| set.insert(d)));
        assert!(digests.iter().all(|&d| !set.insert(d)), "every member survived the growths");
        assert!(set.insert(1 << 32 | 62));
    }

    /// What the explorer did to [`Logged`] harnesses: clones made, and
    /// the path of the state each `apply` started from.
    #[derive(Debug, Default)]
    struct Log {
        clones: usize,
        applied_from: Vec<Vec<Event>>,
    }

    /// A synthetic system whose state is its event path from the root, so
    /// that every state is distinct and a harness knows exactly where it
    /// stands. `wakeups` (the number of wakeups on the path) is a second
    /// copy of part of it, so a torn copy shows; reaching `trip` wakeups
    /// is a violation.
    #[derive(Debug)]
    struct Logged {
        path: Vec<Event>,
        wakeups: usize,
        trip: Option<usize>,
        log: Arc<Mutex<Log>>,
    }

    impl Logged {
        fn root(trip: Option<usize>) -> Logged {
            Logged { path: Vec::new(), wakeups: 0, trip, log: Arc::default() }
        }

        fn log(&self) -> MutexGuard<'_, Log> {
            self.log.lock().expect("no test thread panicked holding the log")
        }
    }

    impl Clone for Logged {
        fn clone(&self) -> Logged {
            self.log().clones += 1;
            Logged { path: self.path.clone(), log: Arc::clone(&self.log), ..*self }
        }

        fn clone_from(&mut self, src: &Logged) {
            self.path.clone_from(&src.path);
            self.wakeups = src.wakeups;
            self.trip = src.trip;
        }
    }

    impl Harness for Logged {
        /// Flush first, so a depth-first walk would trip deep down.
        fn enabled_events(&self) -> Vec<Event> {
            vec![Event::Flush, Event::Wakeup(0)]
        }

        fn apply(&mut self, event: Event) -> Result<(), Violation> {
            self.log().applied_from.push(self.path.clone());
            let wakeups = self.path.iter().filter(|e| matches!(e, Event::Wakeup(_))).count();
            assert_eq!(self.wakeups, wakeups, "a torn copy of {:?}", self.path);
            self.path.push(event);
            if let Event::Wakeup(_) = event {
                self.wakeups += 1;
                if Some(self.wakeups) == self.trip {
                    return Err(Violation { property: "trip", detail: format!("{:?}", self.path) });
                }
            }
            Ok(())
        }

        fn state_key(&self, words: &mut Vec<u64>) {
            words.clear();
            words.extend(self.path.iter().map(|e| u64::from(matches!(e, Event::Wakeup(_)))));
            words.push(self.path.len() as u64);
        }
    }

    /// Every path of `len` events over {Wakeup(0), Flush}.
    fn paths(len: u32) -> Vec<Vec<Event>> {
        (0..1u32 << len)
            .map(|bits| {
                let event = |i| if bits >> i & 1 == 1 { Event::Wakeup(0) } else { Event::Flush };
                (0..len).map(event).collect()
            })
            .collect()
    }

    #[test]
    fn clones_each_stored_state_once_and_forks_the_rest_in_place() {
        let root = Logged::root(None);
        let outcome = explore(&root, 3);
        // Depth 3 stores the paths of 0 to 3 events (1 + 2 + 4 + 8) and
        // finds the 16 of length 4 beyond the bound.
        assert_eq!((outcome.states, outcome.frontier), (15, 16));
        let clones = root.log().clones;
        assert_eq!(clones as u64, outcome.states + 1, "one per stored state and the scratch");
    }

    #[test]
    fn every_apply_starts_from_its_parents_exact_state() {
        let root = Logged::root(None);
        explore(&root, 3);
        let mut applied_from = std::mem::take(&mut root.log().applied_from);
        applied_from.sort_by_cached_key(|path| format!("{path:?}"));
        // Each stored state, expanded once, is where each of its two
        // events starts.
        let mut expected: Vec<Vec<Event>> =
            (0..=3).flat_map(paths).flat_map(|path| [path.clone(), path]).collect();
        expected.sort_by_cached_key(|path| format!("{path:?}"));
        assert_eq!(applied_from, expected);
    }

    #[test]
    fn the_violation_is_the_depth_minimal_one_on_the_logged_system() {
        let outcome = explore(&Logged::root(Some(2)), 6);
        let v = outcome.violation.expect("two wakeups trip");
        assert_eq!(v.events, [Event::Wakeup(0), Event::Wakeup(0)], "BFS finds the shortest");
        assert_eq!(v.detail, format!("{:?}", v.events), "the tripping state's own path");
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
