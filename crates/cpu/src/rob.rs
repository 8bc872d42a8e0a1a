//! Reorder buffer: program-order retirement of out-of-order execution.
//!
//! # Representation
//!
//! The ROB is a FIFO: instructions arrive at dispatch in program order and
//! leave at commit in program order, and a squash or a flush only ever cuts
//! off its young end. It is therefore one [`VecDeque`] of entries, oldest at
//! the front.
//!
//! # Slot handles
//!
//! Every entry has an absolute *slot*: [`Rob::push`] returns `base + len`,
//! where `base` is the slot of the head. Commit and a full flush advance
//! `base`; a squash pops from the back and leaves it alone, so slots stay
//! contiguous and the next dispatch reuses a squashed slot. The rest of the
//! pipeline names an in-flight instruction by a handle `(slot, seq)` — the
//! issue queue's payload, a completion event, a pending load — in the
//! manner of `sim-outorder`'s `RS_link`, which pairs an RUU pointer with
//! the tag the entry had when the link was made. [`Rob::resolve`] is the
//! only lookup: index arithmetic, then a check that the slot still holds
//! the dispatch `seq` the handle was issued with. Seqs are fresh per
//! dispatch, so a handle to a committed, squashed or flushed instruction
//! resolves to `None` even after its slot is reused.
//!
//! Uids strictly increase from the head to the tail. Nothing looks an entry
//! up by uid any more, but the invariant still holds, because
//!
//! * fresh uids (correct-path and wrong-path fetch alike) come from one
//!   monotonic counter;
//! * a replayed instruction keeps its uid, but replays arrive in program
//!   order, and only after a full flush has emptied the ROB;
//! * wrong-path instructions carry uids younger than their mispredicted
//!   branch and are squashed when it resolves, before any younger
//!   correct-path (or replayed) instruction dispatches.
//!
//! [`Rob::push`] asserts it on every dispatch.

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
    /// LSQ slot of a memory instruction (see [`crate::lsq`]).
    pub(crate) lsq: Option<u64>,
    /// True if the front end flagged this control instruction mispredicted.
    pub(crate) mispredicted: bool,
    /// True for wrong-path instructions (fetched past a mispredicted
    /// branch); they are squashed when the branch resolves and never
    /// commit.
    pub(crate) wp: bool,
}

/// A bounded reorder buffer in program order, addressed by slot handles.
#[derive(Debug)]
pub(crate) struct Rob {
    capacity: usize,
    /// Slot of `entries[0]` (module docs).
    base: u64,
    /// In-flight entries, oldest first; uids strictly increase (module docs).
    entries: VecDeque<RobEntry>,
}

impl Rob {
    /// Creates an empty ROB of `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Rob {
        Rob { capacity, base: 0, entries: VecDeque::with_capacity(capacity) }
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

    /// Appends an entry at the tail and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if full or if `entry.uid` is not greater than the tail's uid.
    pub(crate) fn push(&mut self, entry: RobEntry) -> u64 {
        assert!(self.has_space(), "ROB overflow");
        if let Some(tail) = self.entries.back() {
            let (uid, tail) = (entry.uid, tail.uid);
            assert!(uid > tail, "ROB uid {uid} is not younger than tail uid {tail}");
        }
        let slot = self.base + self.entries.len() as u64;
        self.entries.push_back(entry);
        slot
    }

    /// Index of the entry a handle names, if it is still live.
    fn index(&self, slot: u64, seq: u64) -> Option<usize> {
        let i = usize::try_from(slot.checked_sub(self.base)?).ok()?;
        self.entries.get(i).filter(|e| e.seq == seq).map(|_| i)
    }

    /// The entry at `slot`, if it still holds dispatch `seq`; `None` for a
    /// stale handle (committed, squashed or flushed).
    pub(crate) fn resolve(&self, slot: u64, seq: u64) -> Option<&RobEntry> {
        self.index(slot, seq).map(|i| &self.entries[i])
    }

    /// Mutable [`resolve`](Self::resolve).
    pub(crate) fn resolve_mut(&mut self, slot: u64, seq: u64) -> Option<&mut RobEntry> {
        self.index(slot, seq).map(|i| &mut self.entries[i])
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
        #[expect(
            clippy::expect_used,
            reason = "documented `# Panics` contract: commit checks head() first"
        )]
        let entry = self.entries.pop_front().expect("pop from empty ROB");
        assert_eq!(entry.state, RobState::Done, "commit of incomplete instruction");
        self.base += 1;
        entry
    }

    /// Removes and returns the youngest entry if it is younger than `seq`
    /// (exclusive). Called until it returns `None`, it squashes everything
    /// younger than `seq` youngest-first, so the caller can unwind renames
    /// in reverse order without collecting the entries. The slots are
    /// reused by the next dispatches.
    pub(crate) fn pop_younger(&mut self, seq: u64) -> Option<RobEntry> {
        if self.entries.back().is_some_and(|e| e.seq > seq) {
            self.entries.pop_back()
        } else {
            None
        }
    }

    /// Drains every in-flight entry in program order (full flush). The
    /// caller replays them through the front end.
    pub(crate) fn drain_in_order(&mut self) -> Vec<RobEntry> {
        self.base += self.entries.len() as u64;
        self.entries.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use swque_isa::{Inst, Opcode};
    use swque_rng::prop::check;

    fn entry(uid: u64) -> RobEntry {
        entry_at(uid, uid)
    }

    fn entry_at(uid: u64, seq: u64) -> RobEntry {
        RobEntry {
            uid,
            seq,
            oracle: Retired { pc: uid, inst: Inst::bare(Opcode::Nop), next_pc: uid + 1, mem: None },
            state: RobState::Waiting,
            dst: None,
            lsq: None,
            mispredicted: false,
            wp: false,
        }
    }

    #[test]
    fn fifo_commit_order() {
        let mut rob = Rob::new(4);
        let a = rob.push(entry(1));
        let b = rob.push(entry(2));
        rob.resolve_mut(a, 1).unwrap().state = RobState::Done;
        rob.resolve_mut(b, 2).unwrap().state = RobState::Done;
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
        let slots: Vec<u64> = [10, 11, 12].into_iter().map(|uid| rob.push(entry(uid))).collect();
        assert_eq!(slots, vec![0, 1, 2]);
        let drained = rob.drain_in_order();
        assert_eq!(drained.iter().map(|e| e.uid).collect::<Vec<_>>(), vec![10, 11, 12]);
        assert!(rob.is_empty());
        assert!(rob.resolve(1, 11).is_none());
        assert_eq!(rob.push(entry(11)), 3, "a flush advances the base past every drained slot");
    }

    #[test]
    fn out_of_order_completion_in_order_commit() {
        let mut rob = Rob::new(4);
        rob.push(entry(1));
        let b = rob.push(entry(2));
        rob.resolve_mut(b, 2).unwrap().state = RobState::Done; // younger completes first
        assert_eq!(rob.head().unwrap().uid, 1);
        assert_eq!(rob.head().unwrap().state, RobState::Waiting, "head not committable yet");
    }

    #[test]
    fn a_squashed_slot_is_reused_and_its_old_handle_goes_stale() {
        let mut rob = Rob::new(4);
        let a = rob.push(entry_at(1, 10));
        let b = rob.push(entry_at(2, 11));
        assert_eq!(squash_younger(&mut rob, 10).len(), 1);
        let c = rob.push(entry_at(3, 12));
        assert_eq!(c, b, "the squashed slot is the next one handed out");
        assert!(rob.resolve(b, 11).is_none(), "the old handle is stale");
        assert_eq!(rob.resolve(c, 12).map(|e| e.uid), Some(3));
        rob.resolve_mut(a, 10).unwrap().state = RobState::Done;
        let _ = rob.pop_head();
        assert!(rob.resolve(a, 10).is_none(), "a committed handle is stale");
        assert_eq!(rob.resolve(c, 12).map(|e| e.uid), Some(3), "commit keeps younger slots");
        assert_eq!(rob.push(entry_at(4, 13)), c + 1);
    }

    /// The keyed representation the deque replaced: a uid-keyed map plus a
    /// program-order list of uids. It makes no assumption about uid order
    /// or slots, so it is the reference the handles must agree with.
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

        /// What a handle issued for `uid` at dispatch `seq` must resolve
        /// to: the live entry, if that uid is still in flight from that
        /// very dispatch.
        fn resolve_mut(&mut self, uid: u64, seq: u64) -> Option<&mut RobEntry> {
            self.entries.get_mut(&uid).filter(|e| e.seq == seq)
        }
    }

    /// Every entry younger than `seq`, youngest-first, as the pipeline's
    /// squash pops them.
    fn squash_younger(rob: &mut Rob, seq: u64) -> Vec<RobEntry> {
        std::iter::from_fn(|| rob.pop_younger(seq)).collect()
    }

    /// The fields an answer is compared on.
    fn key(e: &RobEntry) -> (u64, u64, RobState, u64) {
        (e.uid, e.seq, e.state, e.oracle.pc)
    }

    fn keys(es: &[RobEntry]) -> Vec<(u64, u64, RobState, u64)> {
        es.iter().map(key).collect()
    }

    /// A handle as the pipeline holds one, with the uid it was issued for.
    #[derive(Clone, Copy)]
    struct Issued {
        slot: u64,
        seq: u64,
        uid: u64,
    }

    /// Random dispatch / complete / commit / squash / flush-and-replay
    /// sequences, with uids assigned the way the pipeline assigns them
    /// (fresh uids from a gapped monotonic counter, replays re-pushed with
    /// their old uids after a flush), give the same answers from the slot
    /// handles and from the keyed reference. Every handle ever issued is
    /// kept and resolved again later, so stale handles — committed,
    /// flushed, or squashed and then reused by a younger dispatch — must
    /// resolve to `None` while their slot holds something else.
    #[test]
    fn deque_agrees_with_the_keyed_reference() {
        let reused = AtomicU64::new(0);
        check(256, |g| {
            let capacity = g.gen_range(1usize..12);
            let mut rob = Rob::new(capacity);
            let mut reference = RefRob { order: VecDeque::new(), entries: BTreeMap::new() };
            let mut issued: Vec<Issued> = Vec::new();
            let mut next_uid = 0u64;
            let mut next_seq = 0u64;
            let mut replay: VecDeque<u64> = VecDeque::new();
            for _ in 0..g.gen_range(1usize..200) {
                match g.weighted(&[6, 3, 4, 1, 1, 4]) {
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
                        let slot = rob.push(entry_at(uid, next_seq));
                        reference.push(entry_at(uid, next_seq));
                        issued.push(Issued { slot, seq: next_seq, uid });
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
                        // Complete (or issue) through any handle ever issued.
                        let Some(&h) = issued.get(g.gen_range(0..issued.len().max(1))) else {
                            continue;
                        };
                        let state = if g.bool() { RobState::Done } else { RobState::Executing };
                        let ours = rob.resolve_mut(h.slot, h.seq).map(|e| {
                            e.state = state;
                            key(e)
                        });
                        let theirs = reference.resolve_mut(h.uid, h.seq).map(|e| {
                            e.state = state;
                            key(e)
                        });
                        assert_eq!(ours, theirs, "resolve_mut(slot {}, seq {})", h.slot, h.seq);
                    }
                    3 => {
                        let seq = g.gen_range(0..next_seq + 2);
                        let ours = squash_younger(&mut rob, seq);
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
                    _ => {
                        // Every handle, live or stale, resolves as the
                        // reference says it must.
                        for h in &issued {
                            let ours = rob.resolve(h.slot, h.seq).map(key);
                            let theirs = reference.resolve_mut(h.uid, h.seq).map(|e| key(e));
                            assert_eq!(ours, theirs, "resolve(slot {}, seq {})", h.slot, h.seq);
                            let live = rob.base..rob.base + rob.len() as u64;
                            let slot_live = live.contains(&h.slot);
                            if ours.is_none() && slot_live {
                                reused.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
                assert_eq!(rob.len(), reference.order.len());
                assert_eq!(rob.is_empty(), reference.order.is_empty());
                assert_eq!(rob.has_space(), reference.order.len() < capacity);
                assert_eq!(rob.head().map(key), reference.head().map(key));
            }
        });
        assert!(reused.into_inner() > 0, "no stale handle ever met its slot reused");
    }
}
