//! Reorder buffer: program-order retirement of out-of-order execution.
//!
//! # Representation
//!
//! The ROB is a FIFO: instructions arrive at dispatch in program order and
//! leave at commit in program order, and a squash or a flush only ever cuts
//! off its young end. It is therefore one [`VecDeque`] of entries, oldest at
//! the front, and a lookup by uid is a binary search over it.
//!
//! That lookup relies on one invariant: **uids strictly increase from the
//! head to the tail.** The pipeline keeps it because
//!
//! * fresh uids (correct-path and wrong-path fetch alike) come from one
//!   monotonic counter;
//! * a replayed instruction keeps its uid, but replays arrive in program
//!   order, and only after a full flush has emptied the ROB;
//! * wrong-path instructions carry uids younger than their mispredicted
//!   branch and are squashed when it resolves, before any younger
//!   correct-path (or replayed) instruction dispatches.
//!
//! [`Rob::push`] asserts the invariant on every dispatch.

use std::collections::VecDeque;

use swque_isa::{ArchReg, Retired};

use swque_core::Tag;

/// Execution state of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RobState {
    /// Waiting in the issue queue (or not yet issued).
    Waiting,
    /// Issued to a function unit / memory.
    Executing,
    /// Result written back; eligible for commit.
    Done,
}

/// One in-flight instruction.
#[derive(Debug, Clone)]
pub(crate) struct RobEntry {
    /// Stable identity of the dynamic instruction (survives replays).
    pub(crate) uid: u64,
    /// Dispatch-order sequence number (fresh per dispatch).
    pub(crate) seq: u64,
    /// The oracle outcome (instruction, next pc, memory access).
    pub(crate) oracle: Retired,
    /// Execution state.
    pub(crate) state: RobState,
    /// Destination rename `(arch, new_tag, old_tag)`, if any.
    pub(crate) dst: Option<(ArchReg, Tag, Tag)>,
    /// True if the front end flagged this control instruction mispredicted.
    pub(crate) mispredicted: bool,
    /// True for wrong-path instructions (fetched past a mispredicted
    /// branch); they are squashed when the branch resolves and never
    /// commit.
    pub(crate) wp: bool,
}

/// A bounded reorder buffer in program order, looked up by instruction uid.
#[derive(Debug)]
pub(crate) struct Rob {
    capacity: usize,
    /// In-flight entries, oldest first; uids strictly increase (module docs).
    entries: VecDeque<RobEntry>,
}

impl Rob {
    /// Creates an empty ROB of `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Rob {
        Rob { capacity, entries: VecDeque::with_capacity(capacity) }
    }

    /// Occupied entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no instruction is in flight.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if another instruction can dispatch.
    pub(crate) fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Appends an entry at the tail.
    ///
    /// # Panics
    ///
    /// Panics if full or if `entry.uid` is not greater than the tail's uid.
    pub(crate) fn push(&mut self, entry: RobEntry) {
        assert!(self.has_space(), "ROB overflow"); // swque-lint: allow(panic-in-lib) — documented `# Panics` contract: dispatch budgets with has_space first
        if let Some(tail) = self.entries.back() {
            let (uid, tail) = (entry.uid, tail.uid);
            // swque-lint: allow(panic-in-lib) — documented `# Panics` contract; an out-of-order uid would break the binary-search lookup
            assert!(uid > tail, "ROB uid {uid} is not younger than tail uid {tail}");
        }
        self.entries.push_back(entry);
    }

    fn index_of(&self, uid: u64) -> Option<usize> {
        self.entries.binary_search_by_key(&uid, |e| e.uid).ok()
    }

    /// Looks up an entry by uid.
    pub(crate) fn get(&self, uid: u64) -> Option<&RobEntry> {
        self.index_of(uid).map(|i| &self.entries[i])
    }

    /// Mutable lookup by uid.
    pub(crate) fn get_mut(&mut self, uid: u64) -> Option<&mut RobEntry> {
        self.index_of(uid).map(|i| &mut self.entries[i])
    }

    /// The oldest in-flight entry, if any.
    pub(crate) fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Retires the head entry (must be `Done`).
    ///
    /// # Panics
    ///
    /// Panics if empty or if the head has not completed.
    pub(crate) fn pop_head(&mut self) -> RobEntry {
        let entry = self.entries.pop_front().expect("pop from empty ROB"); // swque-lint: allow(panic-in-lib) — documented `# Panics` contract: commit checks head() first
        // swque-lint: allow(panic-in-lib) — documented `# Panics` contract: commit only retires Done heads
        assert_eq!(entry.state, RobState::Done, "commit of incomplete instruction");
        entry
    }

    /// Removes every entry younger than `seq` (exclusive), returning them
    /// youngest-first so the caller can unwind renames in reverse order.
    pub(crate) fn squash_younger(&mut self, seq: u64) -> Vec<RobEntry> {
        let mut out = Vec::new();
        while self.entries.back().is_some_and(|e| e.seq > seq) {
            out.extend(self.entries.pop_back());
        }
        out
    }

    /// Drains every in-flight entry in program order (full flush). The
    /// caller replays them through the front end.
    pub(crate) fn drain_in_order(&mut self) -> Vec<RobEntry> {
        self.entries.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use swque_isa::{Inst, Opcode};
    use swque_rng::prop::check;

    fn entry(uid: u64) -> RobEntry {
        entry_at(uid, uid)
    }

    fn entry_at(uid: u64, seq: u64) -> RobEntry {
        RobEntry {
            uid,
            seq,
            oracle: Retired {
                pc: uid,
                inst: Inst::bare(Opcode::Nop),
                next_pc: uid + 1,
                mem: None,
            },
            state: RobState::Waiting,
            dst: None,
            mispredicted: false,
            wp: false,
        }
    }

    #[test]
    fn fifo_commit_order() {
        let mut rob = Rob::new(4);
        rob.push(entry(1));
        rob.push(entry(2));
        rob.get_mut(1).unwrap().state = RobState::Done;
        rob.get_mut(2).unwrap().state = RobState::Done;
        assert_eq!(rob.pop_head().uid, 1);
        assert_eq!(rob.pop_head().uid, 2);
        assert!(rob.is_empty());
    }

    #[test]
    #[should_panic(expected = "incomplete")]
    fn commit_of_waiting_head_panics() {
        let mut rob = Rob::new(2);
        rob.push(entry(1));
        let _ = rob.pop_head();
    }

    #[test]
    #[should_panic(expected = "not younger than tail")]
    fn push_of_a_uid_not_younger_than_the_tail_panics() {
        let mut rob = Rob::new(4);
        rob.push(entry(5));
        rob.push(entry(7));
        rob.push(entry(6));
    }

    #[test]
    #[should_panic(expected = "not younger than tail")]
    fn push_of_a_duplicate_uid_panics() {
        let mut rob = Rob::new(4);
        rob.push(entry(5));
        rob.push(entry(5));
    }

    #[test]
    fn capacity_enforced() {
        let mut rob = Rob::new(2);
        rob.push(entry(1));
        rob.push(entry(2));
        assert!(!rob.has_space());
    }

    #[test]
    fn drain_preserves_program_order() {
        let mut rob = Rob::new(4);
        for uid in [10, 11, 12] {
            rob.push(entry(uid));
        }
        let drained = rob.drain_in_order();
        assert_eq!(drained.iter().map(|e| e.uid).collect::<Vec<_>>(), vec![10, 11, 12]);
        assert!(rob.is_empty());
        assert!(rob.get(11).is_none());
    }

    #[test]
    fn out_of_order_completion_in_order_commit() {
        let mut rob = Rob::new(4);
        rob.push(entry(1));
        rob.push(entry(2));
        rob.get_mut(2).unwrap().state = RobState::Done; // younger completes first
        assert_eq!(rob.head().unwrap().uid, 1);
        assert_eq!(rob.head().unwrap().state, RobState::Waiting, "head not committable yet");
    }

    /// The keyed representation the deque replaced: a uid-keyed map plus a
    /// program-order list of uids. It makes no assumption about uid order,
    /// so it is the reference the deque must agree with.
    struct RefRob {
        order: VecDeque<u64>,
        entries: BTreeMap<u64, RobEntry>,
    }

    impl RefRob {
        fn push(&mut self, e: RobEntry) {
            self.order.push_back(e.uid);
            self.entries.insert(e.uid, e);
        }

        fn head(&self) -> Option<&RobEntry> {
            self.order.front().map(|uid| &self.entries[uid])
        }

        fn pop_head(&mut self) -> RobEntry {
            let uid = self.order.pop_front().unwrap();
            self.entries.remove(&uid).unwrap()
        }

        fn squash_younger(&mut self, seq: u64) -> Vec<RobEntry> {
            let mut out = Vec::new();
            while let Some(&uid) = self.order.back() {
                if self.entries[&uid].seq <= seq {
                    break;
                }
                self.order.pop_back();
                out.extend(self.entries.remove(&uid));
            }
            out
        }

        fn drain_in_order(&mut self) -> Vec<RobEntry> {
            self.order.drain(..).filter_map(|uid| self.entries.remove(&uid)).collect()
        }
    }

    /// The fields an answer is compared on.
    fn key(e: &RobEntry) -> (u64, u64, RobState, u64) {
        (e.uid, e.seq, e.state, e.oracle.pc)
    }

    fn keys(es: &[RobEntry]) -> Vec<(u64, u64, RobState, u64)> {
        es.iter().map(key).collect()
    }

    /// Random dispatch / complete / commit / squash / flush-and-replay
    /// sequences, with uids assigned the way the pipeline assigns them
    /// (fresh uids from a gapped monotonic counter, replays re-pushed with
    /// their old uids after a flush), give the same answers from the deque
    /// and from the keyed reference.
    #[test]
    fn deque_agrees_with_the_keyed_reference() {
        check(256, |g| {
            let capacity = g.gen_range(1usize..12);
            let mut rob = Rob::new(capacity);
            let mut reference = RefRob { order: VecDeque::new(), entries: BTreeMap::new() };
            let mut next_uid = 0u64;
            let mut next_seq = 0u64;
            let mut replay: VecDeque<u64> = VecDeque::new();
            for _ in 0..g.gen_range(1usize..200) {
                match g.weighted(&[6, 3, 3, 1, 1, 4, 4]) {
                    0 => {
                        if !rob.has_space() {
                            continue;
                        }
                        let uid = match replay.pop_front() {
                            Some(uid) => uid,
                            None => {
                                next_uid += g.gen_range(1u64..4);
                                next_uid
                            }
                        };
                        next_seq += 1;
                        rob.push(entry_at(uid, next_seq));
                        reference.push(entry_at(uid, next_seq));
                    }
                    1 => {
                        let head_done = rob.head().is_some_and(|h| h.state == RobState::Done);
                        assert_eq!(
                            head_done,
                            reference.head().is_some_and(|h| h.state == RobState::Done)
                        );
                        if head_done {
                            assert_eq!(key(&rob.pop_head()), key(&reference.pop_head()));
                        }
                    }
                    2 => {
                        let state = if g.bool() { RobState::Done } else { RobState::Executing };
                        let uid = g.gen_range(0..next_uid + 2);
                        let ours = rob.get_mut(uid).map(|e| {
                            e.state = state;
                            key(e)
                        });
                        let theirs = reference.entries.get_mut(&uid).map(|e| {
                            e.state = state;
                            key(e)
                        });
                        assert_eq!(ours, theirs, "get_mut({uid})");
                    }
                    3 => {
                        let seq = g.gen_range(0..next_seq + 2);
                        let ours = rob.squash_younger(seq);
                        assert_eq!(keys(&ours), keys(&reference.squash_younger(seq)));
                    }
                    4 => {
                        let ours = rob.drain_in_order();
                        assert_eq!(keys(&ours), keys(&reference.drain_in_order()));
                        // The flushed instructions replay, in program order,
                        // ahead of anything still waiting to replay.
                        let mut again: VecDeque<u64> = ours.iter().map(|e| e.uid).collect();
                        again.append(&mut replay);
                        replay = again;
                    }
                    5 => {
                        let uid = g.gen_range(0..next_uid + 2);
                        assert_eq!(rob.get(uid).map(key), reference.entries.get(&uid).map(key));
                    }
                    _ => {
                        // Every live uid is found by the search.
                        let uid = match reference.order.len() {
                            0 => continue,
                            n => reference.order[g.gen_range(0..n)],
                        };
                        assert_eq!(rob.get(uid).map(key), Some(key(&reference.entries[&uid])));
                    }
                }
                assert_eq!(rob.len(), reference.order.len());
                assert_eq!(rob.is_empty(), reference.order.is_empty());
                assert_eq!(rob.has_space(), reference.order.len() < capacity);
                assert_eq!(rob.head().map(key), reference.head().map(key));
            }
        });
    }
}
