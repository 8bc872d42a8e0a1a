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
    entries: VecDeque<LsqEntry>,
}

fn overlap(a: u64, asize: u8, b: u64, bsize: u8) -> bool {
    a < b + bsize as u64 && b < a + asize as u64
}

impl Lsq {
    /// Creates an empty LSQ of `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Lsq {
        Lsq { capacity, entries: VecDeque::with_capacity(capacity) }
    }

    /// Occupied entries.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if a memory instruction can dispatch.
    pub(crate) fn has_space(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Allocates an entry at dispatch (program order).
    ///
    /// # Panics
    ///
    /// Panics if full.
    pub(crate) fn push(&mut self, uid: u64, is_store: bool, addr: u64, size: u8) {
        assert!(self.has_space(), "LSQ overflow"); // swque-lint: allow(panic-in-lib) — documented `# Panics` contract: dispatch budgets with has_space first
        self.entries.push_back(LsqEntry { uid, is_store, addr, size, executed: false });
    }

    fn index_of(&self, uid: u64) -> Option<usize> {
        self.entries.iter().position(|e| e.uid == uid)
    }

    /// Marks a store as executed (its address/data are now known).
    pub(crate) fn mark_store_executed(&mut self, uid: u64) {
        if let Some(i) = self.index_of(uid) {
            debug_assert!(self.entries[i].is_store);
            self.entries[i].executed = true;
        }
    }

    /// Decides whether the load `uid` may access memory this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `uid` is not in the queue.
    pub(crate) fn load_action(&self, uid: u64) -> LoadAction {
        // swque-lint: allow(panic-in-lib) — documented `# Panics` contract: the scheduler only queries loads it dispatched
        let i = self.index_of(uid).expect("load must be in the LSQ");
        let load = self.entries[i];
        debug_assert!(!load.is_store);
        // Scan older entries from youngest to oldest.
        for j in (0..i).rev() {
            let e = &self.entries[j];
            if !e.is_store {
                continue;
            }
            if !e.executed {
                // Conservative: unknown older store address blocks the load.
                return LoadAction::Wait;
            }
            if e.addr == load.addr && e.size == load.size {
                return LoadAction::Forward;
            }
            if overlap(e.addr, e.size, load.addr, load.size) {
                return LoadAction::Wait; // partial overlap: wait for commit
            }
        }
        LoadAction::Access
    }

    /// Removes the entry for `uid` at commit (no-op if absent).
    pub(crate) fn remove(&mut self, uid: u64) {
        if let Some(i) = self.index_of(uid) {
            self.entries.remove(i);
        }
    }

    /// Empties the queue (full flush).
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_load_accesses_immediately() {
        let mut q = Lsq::new(8);
        q.push(1, false, 0x100, 8);
        assert_eq!(q.load_action(1), LoadAction::Access);
    }

    #[test]
    fn unknown_older_store_blocks_load() {
        let mut q = Lsq::new(8);
        q.push(1, true, 0x100, 8); // store, not yet executed
        q.push(2, false, 0x900, 8); // unrelated load
        assert_eq!(q.load_action(2), LoadAction::Wait, "address unknown until the store executes");
        q.mark_store_executed(1);
        assert_eq!(q.load_action(2), LoadAction::Access, "no overlap once known");
    }

    #[test]
    fn exact_overlap_forwards() {
        let mut q = Lsq::new(8);
        q.push(1, true, 0x100, 8);
        q.push(2, false, 0x100, 8);
        q.mark_store_executed(1);
        assert_eq!(q.load_action(2), LoadAction::Forward);
    }

    #[test]
    fn partial_overlap_waits_for_commit() {
        let mut q = Lsq::new(8);
        q.push(1, true, 0x100, 8);
        q.push(2, false, 0x104, 8); // straddles the store
        q.mark_store_executed(1);
        assert_eq!(q.load_action(2), LoadAction::Wait);
        q.remove(1); // store commits
        assert_eq!(q.load_action(2), LoadAction::Access);
    }

    #[test]
    fn youngest_matching_store_wins() {
        let mut q = Lsq::new(8);
        q.push(1, true, 0x100, 8);
        q.push(2, true, 0x100, 8);
        q.push(3, false, 0x100, 8);
        q.mark_store_executed(1);
        // Store 2 (younger, same address) has unknown address: must wait.
        assert_eq!(q.load_action(3), LoadAction::Wait);
        q.mark_store_executed(2);
        assert_eq!(q.load_action(3), LoadAction::Forward);
    }

    #[test]
    fn younger_stores_do_not_affect_load() {
        let mut q = Lsq::new(8);
        q.push(1, false, 0x100, 8);
        q.push(2, true, 0x100, 8); // younger store, unexecuted
        assert_eq!(q.load_action(1), LoadAction::Access);
    }

    #[test]
    fn capacity_and_removal() {
        let mut q = Lsq::new(2);
        q.push(1, true, 0, 8);
        q.push(2, false, 8, 8);
        assert!(!q.has_space());
        q.remove(1);
        assert!(q.has_space());
        q.clear();
        assert_eq!(q.len(), 0);
    }
}
