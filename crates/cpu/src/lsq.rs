//! Load/store queue: memory ordering, conservative disambiguation and
//! store-to-load forwarding.
//!
//! Rules (SimpleScalar-style, documented in DESIGN.md):
//!
//! * A load may begin its memory access only when every older store's
//!   address is known.
//! * If the youngest older store with a known address overlaps the load
//!   *exactly* (same 8-byte range), the load forwards from it and completes
//!   with L1-hit-like latency once the store has executed.
//! * If an older store overlaps partially, the load waits until that store
//!   commits (leaves the queue).
//! * Stores execute (compute their address/data) when issued and write the
//!   cache at commit.
//!
//! # Slots
//!
//! Like the ROB (see [`crate::rob`]), the queue is one program-ordered
//! [`VecDeque`] whose entries have absolute slots: [`Lsq::push`] returns
//! `base + len`, and commit ([`Lsq::pop_head`]) and a full flush
//! ([`Lsq::clear`]) advance `base`. Memory instructions commit in program
//! order and a misprediction squashes the youngest first, so the queue
//! only ever loses its head ([`Lsq::pop_head`]) or its tail
//! ([`Lsq::pop_tail`]). The ROB entry of a memory instruction records its
//! LSQ slot; every operation names the uid it expects to find there and
//! reports a mismatch instead of acting on the wrong entry.

use std::collections::VecDeque;

/// What the load scheduler should do with a load this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LoadAction {
    /// No older-store hazard: access the cache.
    Access,
    /// Forward from an older store already executed.
    Forward,
    /// An older store's address is unknown or partially overlaps: retry
    /// later.
    Wait,
}

#[derive(Debug, Clone, Copy)]
struct LsqEntry {
    uid: u64,
    is_store: bool,
    addr: u64,
    size: u8,
    /// Store: address (and data) computed, i.e. the store has issued.
    executed: bool,
}

/// The load/store queue.
#[derive(Debug)]
pub(crate) struct Lsq {
    capacity: usize,
    /// Slot of `entries[0]` (module docs).
    base: u64,
    entries: VecDeque<LsqEntry>,
}

fn overlap(a: u64, asize: u8, b: u64, bsize: u8) -> bool {
    a < b + bsize as u64 && b < a + asize as u64
}

impl Lsq {
    /// Creates an empty LSQ of `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Lsq {
        Lsq { capacity, base: 0, entries: VecDeque::with_capacity(capacity) }
    }

    /// Occupied entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if a memory instruction can dispatch.
    pub(crate) fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Allocates an entry at dispatch (program order) and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if full.
    pub(crate) fn push(&mut self, uid: u64, is_store: bool, addr: u64, size: u8) -> u64 {
        assert!(self.has_space(), "LSQ overflow");
        let slot = self.base + self.entries.len() as u64;
        self.entries.push_back(LsqEntry { uid, is_store, addr, size, executed: false });
        slot
    }

    /// Index of `slot`, if it holds `uid`.
    fn index(&self, slot: u64, uid: u64) -> Option<usize> {
        let i = usize::try_from(slot.checked_sub(self.base)?).ok()?;
        self.entries.get(i).filter(|e| e.uid == uid).map(|_| i)
    }

    /// Marks the store at `slot` as executed (its address/data are now
    /// known). False, with nothing marked, if `slot` does not hold `uid`.
    pub(crate) fn mark_store_executed(&mut self, slot: u64, uid: u64) -> bool {
        let Some(i) = self.index(slot, uid) else { return false };
        debug_assert!(self.entries[i].is_store);
        self.entries[i].executed = true;
        true
    }

    /// Decides whether the load at `slot` may access memory this cycle;
    /// `None` if `slot` does not hold `uid`.
    pub(crate) fn load_action(&self, slot: u64, uid: u64) -> Option<LoadAction> {
        let i = self.index(slot, uid)?;
        let load = self.entries[i];
        debug_assert!(!load.is_store);
        // Scan older entries from youngest to oldest.
        for e in self.entries.range(..i).rev() {
            if !e.is_store {
                continue;
            }
            if !e.executed {
                // Conservative: unknown older store address blocks the load.
                return Some(LoadAction::Wait);
            }
            if e.addr == load.addr && e.size == load.size {
                return Some(LoadAction::Forward);
            }
            if overlap(e.addr, e.size, load.addr, load.size) {
                return Some(LoadAction::Wait); // partial overlap: wait for commit
            }
        }
        Some(LoadAction::Access)
    }

    /// Removes the head at commit. False, with nothing removed, if the
    /// head is not `uid`.
    pub(crate) fn pop_head(&mut self, uid: u64) -> bool {
        if self.entries.front().is_none_or(|e| e.uid != uid) {
            return false;
        }
        self.entries.pop_front();
        self.base += 1;
        true
    }

    /// Removes the tail at a squash. False, with nothing removed, if the
    /// tail is not `uid`.
    pub(crate) fn pop_tail(&mut self, uid: u64) -> bool {
        if self.entries.back().is_none_or(|e| e.uid != uid) {
            return false;
        }
        self.entries.pop_back();
        true
    }

    /// Empties the queue (full flush).
    pub(crate) fn clear(&mut self) {
        self.base += self.entries.len() as u64;
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use swque_rng::prop::check;

    #[test]
    fn independent_load_accesses_immediately() {
        let mut q = Lsq::new(8);
        let l = q.push(1, false, 0x100, 8);
        assert_eq!(q.load_action(l, 1), Some(LoadAction::Access));
    }

    #[test]
    fn unknown_older_store_blocks_load() {
        let mut q = Lsq::new(8);
        let s = q.push(1, true, 0x100, 8); // store, not yet executed
        let l = q.push(2, false, 0x900, 8); // unrelated load
        let wait = q.load_action(l, 2);
        assert_eq!(wait, Some(LoadAction::Wait), "address unknown until the store executes");
        assert!(q.mark_store_executed(s, 1));
        assert_eq!(q.load_action(l, 2), Some(LoadAction::Access), "no overlap once known");
    }

    #[test]
    fn exact_overlap_forwards() {
        let mut q = Lsq::new(8);
        let s = q.push(1, true, 0x100, 8);
        let l = q.push(2, false, 0x100, 8);
        assert!(q.mark_store_executed(s, 1));
        assert_eq!(q.load_action(l, 2), Some(LoadAction::Forward));
    }

    #[test]
    fn partial_overlap_waits_for_commit() {
        let mut q = Lsq::new(8);
        let s = q.push(1, true, 0x100, 8);
        let l = q.push(2, false, 0x104, 8); // straddles the store
        assert!(q.mark_store_executed(s, 1));
        assert_eq!(q.load_action(l, 2), Some(LoadAction::Wait));
        assert!(q.pop_head(1)); // store commits
        assert_eq!(q.load_action(l, 2), Some(LoadAction::Access), "the load keeps its slot");
    }

    #[test]
    fn youngest_matching_store_wins() {
        let mut q = Lsq::new(8);
        let s1 = q.push(1, true, 0x100, 8);
        let s2 = q.push(2, true, 0x100, 8);
        let l = q.push(3, false, 0x100, 8);
        assert!(q.mark_store_executed(s1, 1));
        // Store 2 (younger, same address) has unknown address: must wait.
        assert_eq!(q.load_action(l, 3), Some(LoadAction::Wait));
        assert!(q.mark_store_executed(s2, 2));
        assert_eq!(q.load_action(l, 3), Some(LoadAction::Forward));
    }

    #[test]
    fn younger_stores_do_not_affect_load() {
        let mut q = Lsq::new(8);
        let l = q.push(1, false, 0x100, 8);
        q.push(2, true, 0x100, 8); // younger store, unexecuted
        assert_eq!(q.load_action(l, 1), Some(LoadAction::Access));
    }

    #[test]
    fn capacity_and_removal() {
        let mut q = Lsq::new(2);
        q.push(1, true, 0, 8);
        q.push(2, false, 8, 8);
        assert!(!q.has_space());
        assert!(q.pop_head(1));
        assert!(q.has_space());
        q.clear();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn a_mismatched_uid_is_refused_not_acted_on() {
        let mut q = Lsq::new(4);
        let s = q.push(1, true, 0x100, 8);
        let l = q.push(2, false, 0x100, 8);
        assert_eq!(q.load_action(l, 9), None, "slot holds uid 2, not 9");
        assert!(!q.mark_store_executed(s, 2), "slot holds uid 1, not 2");
        assert!(!q.pop_head(2), "the head is uid 1");
        assert!(!q.pop_tail(1), "the tail is uid 2");
        assert_eq!(q.len(), 2);
        assert!(q.pop_tail(2));
        assert_eq!(q.push(3, false, 0x200, 8), l, "a squashed slot is reused");
        assert_eq!(q.load_action(l, 2), None, "the squashed load's handle is stale");
        assert!(q.pop_head(1));
        q.clear();
        assert_eq!(q.push(4, false, 0, 8), 2, "commit and flush advance the base");
    }

    /// The uid-scan representation the slots replaced: every lookup finds
    /// its entry by a linear search on uid, and removal is by uid.
    #[derive(Default)]
    struct RefLsq {
        entries: Vec<LsqEntry>,
    }

    impl RefLsq {
        fn position(&self, uid: u64) -> Option<usize> {
            self.entries.iter().position(|e| e.uid == uid)
        }

        fn load_action(&self, uid: u64) -> Option<LoadAction> {
            let i = self.position(uid)?;
            let load = self.entries[i];
            for e in self.entries[..i].iter().rev().filter(|e| e.is_store) {
                if !e.executed {
                    return Some(LoadAction::Wait);
                }
                if e.addr == load.addr && e.size == load.size {
                    return Some(LoadAction::Forward);
                }
                if overlap(e.addr, e.size, load.addr, load.size) {
                    return Some(LoadAction::Wait);
                }
            }
            Some(LoadAction::Access)
        }

        fn mark_store_executed(&mut self, uid: u64) -> bool {
            let Some(i) = self.position(uid) else { return false };
            self.entries[i].executed = true;
            true
        }

        fn remove(&mut self, uid: u64) -> bool {
            let Some(i) = self.position(uid) else { return false };
            self.entries.remove(i);
            true
        }
    }

    /// Random push / mark-executed / commit / squash / flush sequences:
    /// slot-addressed `load_action` answers exactly what the uid scan
    /// answers, for live handles and for stale ones (committed, flushed,
    /// or squashed and then reused). Uids are fresh per push, as they are
    /// between two flushes of the pipeline.
    #[test]
    fn slot_addressed_load_action_agrees_with_the_uid_scan() {
        let answers = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
        check(256, |g| {
            let capacity = g.gen_range(1usize..10);
            let mut q = Lsq::new(capacity);
            let mut reference = RefLsq::default();
            let mut issued: Vec<(u64, u64, bool)> = Vec::new(); // (slot, uid, is_store)
            let mut next_uid = 0u64;
            for _ in 0..g.gen_range(1usize..160) {
                match g.weighted(&[6, 3, 2, 1, 1, 5]) {
                    0 => {
                        if !q.has_space() {
                            continue;
                        }
                        next_uid += 1;
                        let is_store = g.bool();
                        let addr = [0x100, 0x104, 0x108, 0x200][g.gen_range(0usize..4)];
                        let size = if g.bool() { 8 } else { 4 };
                        let slot = q.push(next_uid, is_store, addr, size);
                        reference.entries.push(LsqEntry {
                            uid: next_uid,
                            is_store,
                            addr,
                            size,
                            executed: false,
                        });
                        issued.push((slot, next_uid, is_store));
                    }
                    1 => {
                        let stores: Vec<_> = issued.iter().filter(|h| h.2).collect();
                        let Some(&&(slot, uid, _)) = stores.get(g.gen_range(0..stores.len().max(1)))
                        else {
                            continue;
                        };
                        let ours = q.mark_store_executed(slot, uid);
                        assert_eq!(ours, reference.mark_store_executed(uid));
                    }
                    2 => {
                        // Commit: the head leaves, by the uid the ROB expects.
                        let Some(head) = reference.entries.first().map(|e| e.uid) else { continue };
                        assert!(q.pop_head(head));
                        assert!(reference.remove(head));
                    }
                    3 => {
                        // Squash the youngest few, youngest first.
                        for _ in 0..g.gen_range(1usize..4) {
                            let Some(tail) = reference.entries.last().map(|e| e.uid) else { break };
                            assert!(q.pop_tail(tail));
                            assert!(reference.remove(tail));
                        }
                    }
                    4 => {
                        q.clear();
                        reference.entries.clear();
                    }
                    _ => {
                        let loads: Vec<_> = issued.iter().filter(|h| !h.2).collect();
                        let Some(&&(slot, uid, _)) = loads.get(g.gen_range(0..loads.len().max(1)))
                        else {
                            continue;
                        };
                        let ours = q.load_action(slot, uid);
                        let theirs = reference.load_action(uid);
                        assert_eq!(ours, theirs, "load_action(slot {slot}, uid {uid})");
                        let which = match ours {
                            None => 0,
                            Some(LoadAction::Wait) => 1,
                            Some(_) => 2,
                        };
                        answers[which].fetch_add(1, Ordering::Relaxed);
                    }
                }
                assert_eq!(q.len(), reference.entries.len());
                assert_eq!(q.has_space(), reference.entries.len() < capacity);
            }
        });
        for (what, n) in ["stale", "wait", "go"].iter().zip(&answers) {
            assert!(n.load(Ordering::Relaxed) > 0, "no {what} answer was ever compared");
        }
    }
}
