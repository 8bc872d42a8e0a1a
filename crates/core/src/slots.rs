//! Shared physical-entry storage used by the position-priority queues
//! (CIRC, CIRC-PC, RAND, AGE). Models the wakeup-logic CAM array: each slot
//! holds two source tags with ready flags and requests issue when both are
//! ready.
//!
//! # Hot-path representation
//!
//! Alongside the per-slot records, the array maintains packed bit planes
//! ([`BitSet`], one bit per slot) that the per-cycle scans read instead of
//! dereferencing slots:
//!
//! * **valid** — slot holds a live instruction;
//! * **ready** — valid ∧ both sources resolved (the issue-request vector);
//! * **reverse** — the CIRC-PC wrap-around flag, mirrored from the slot;
//! * **pending_rv** — the CIRC-PC `S_RV`-selected flag, mirrored likewise.
//!
//! Wakeup is *tag-indexed*: at insert, each unresolved source registers its
//! slot position under its tag in a waiter table, and a broadcast touches
//! only the registered waiters instead of scanning every slot. Entries can
//! go stale (the slot issued or was squashed before the tag fired); a
//! broadcast validates each entry against the live slot before resolving,
//! which is exactly what the scalar CAM scan it replaces did implicitly.
//! The table is drained per broadcast, so an entry is visited at most once;
//! a drained list keeps its capacity, so steady-state wakeup and insert
//! never touch the allocator.
//!
//! The scalar reference implementation is retained as
//! `ScalarSlotArray` behind `#[cfg(test)]`; a differential property test at
//! the bottom of this file drives both through random op sequences and
//! asserts identical observable state after every step.

use swque_isa::FuClass;

use crate::bitset::BitSet;
use crate::digest::ArchKey;
use crate::types::{DispatchReq, Tag};

/// One wakeup-logic entry (an "entry slice" in the paper's Figure 5).
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// Entry holds a live instruction.
    pub valid: bool,
    /// Program-order sequence number.
    pub seq: u64,
    /// Dispatcher handle.
    pub payload: u64,
    /// Destination tag.
    pub dst: Option<Tag>,
    /// Unresolved source tags (`None` = ready).
    pub srcs: [Option<Tag>; 2],
    /// Function-unit class.
    pub fu: FuClass,
    /// CIRC-PC reverse flag, set at dispatch when wrap-around is in effect.
    pub reverse: bool,
    /// CIRC-PC: selected by `S_RV`, waiting for the next-cycle DTM merge.
    pub pending_rv: bool,
    /// AGE-multiAM: which age-matrix bucket the entry was steered to.
    pub bucket: u8,
}

impl Slot {
    const EMPTY: Slot = Slot {
        valid: false,
        seq: 0,
        payload: 0,
        dst: None,
        srcs: [None, None],
        fu: FuClass::IntAlu,
        reverse: false,
        pending_rv: false,
        bucket: 0,
    };

    /// Both operands resolved: the entry raises an issue request.
    pub fn ready(&self) -> bool {
        self.valid && self.srcs[0].is_none() && self.srcs[1].is_none()
    }
}

/// A fixed array of [`Slot`]s with CAM-style wakeup.
#[derive(Debug, Clone)]
pub struct SlotArray {
    slots: Vec<Slot>,
    len: usize,
    valid: BitSet,
    ready: BitSet,
    reverse: BitSet,
    pending_rv: BitSet,
    /// Waiter table: `waiters[tag]` holds the positions whose entry
    /// registered a source on `tag`, possibly stale (validated at
    /// broadcast). Grown on demand to the highest tag seen.
    waiters: Vec<Vec<u32>>,
}

impl SlotArray {
    /// Creates `capacity` empty slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> SlotArray {
        assert!(capacity > 0, "issue queue needs at least one entry");
        SlotArray {
            slots: vec![Slot::EMPTY; capacity],
            len: 0,
            valid: BitSet::new(capacity),
            ready: BitSet::new(capacity),
            reverse: BitSet::new(capacity),
            pending_rv: BitSet::new(capacity),
            waiters: Vec::new(),
        }
    }

    /// Number of physical slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is valid.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Immutable slot access.
    pub fn get(&self, pos: usize) -> &Slot {
        &self.slots[pos]
    }

    /// Packed issue-request vector: bit `p` set iff slot `p` is valid with
    /// both sources resolved. The select scans read this instead of
    /// walking the slots.
    #[inline]
    pub fn ready_words(&self) -> &[u64] {
        self.ready.words()
    }

    /// Packed valid plane: bit `p` set iff slot `p` holds a live entry.
    #[inline]
    pub fn valid_words(&self) -> &[u64] {
        self.valid.words()
    }

    /// True if any slot raises an issue request (the quiescence-skip query;
    /// a whole-plane emptiness test, no per-slot walk).
    #[inline]
    pub fn any_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Packed CIRC-PC reverse flags.
    #[inline]
    pub fn reverse_words(&self) -> &[u64] {
        self.reverse.words()
    }

    /// Packed CIRC-PC pending-RV flags.
    #[inline]
    pub fn pending_rv_words(&self) -> &[u64] {
        self.pending_rv.words()
    }

    /// Sets or clears the CIRC-PC pending-RV flag of slot `pos`, keeping
    /// the packed plane in sync (the only slot field callers may mutate
    /// after insert).
    pub fn set_pending_rv(&mut self, pos: usize, v: bool) {
        self.slots[pos].pending_rv = v;
        self.pending_rv.assign(pos, v);
    }

    fn waiter_list(&mut self, tag: Tag) -> &mut Vec<u32> {
        let idx = tag as usize;
        if idx >= self.waiters.len() {
            self.waiters.resize_with(idx + 1, Vec::new);
        }
        &mut self.waiters[idx]
    }

    /// Writes `req` into slot `pos`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already valid (the caller tracks free slots).
    #[expect(
        clippy::cast_possible_truncation,
        reason = "pos indexes the slots, and queue capacities are far below 2^32"
    )]
    pub fn insert(&mut self, pos: usize, req: DispatchReq, reverse: bool, bucket: u8) {
        let slot = &mut self.slots[pos];
        assert!(!slot.valid, "dispatch into an occupied slot {pos}");
        *slot = Slot {
            valid: true,
            seq: req.seq,
            payload: req.payload,
            dst: req.dst,
            srcs: req.srcs,
            fu: req.fu,
            reverse,
            pending_rv: false,
            bucket,
        };
        self.len += 1;
        self.valid.set(pos);
        self.ready.assign(pos, req.srcs[0].is_none() && req.srcs[1].is_none());
        self.reverse.assign(pos, reverse);
        self.pending_rv.clear(pos);
        for src in req.srcs.into_iter().flatten() {
            self.waiter_list(src).push(pos as u32);
        }
    }

    /// Invalidates slot `pos` (on issue or flush).
    ///
    /// # Panics
    ///
    /// Panics if the slot is not valid.
    pub fn remove(&mut self, pos: usize) {
        let slot = &mut self.slots[pos];
        assert!(slot.valid, "remove of an empty slot {pos}");
        slot.valid = false;
        slot.pending_rv = false;
        slot.reverse = false;
        self.len -= 1;
        self.valid.clear(pos);
        self.ready.clear(pos);
        self.reverse.clear(pos);
        self.pending_rv.clear(pos);
        // Waiter entries, if any remain, go stale and are discarded at the
        // tag's next broadcast.
    }

    /// Broadcasts `tag` to every entry, resolving matching sources.
    ///
    /// Tag-indexed: only the slots that registered a source on `tag` are
    /// touched. Stale registrations (slot issued, squashed, or reused
    /// since) are validated against the live slot and skipped — a reused
    /// slot that happens to wait on `tag` again has its own registration
    /// in the drained list, so nothing is missed.
    pub fn wakeup(&mut self, tag: Tag) {
        let idx = tag as usize;
        if idx >= self.waiters.len() {
            return;
        }
        // Iterated in place and cleared, so the list keeps its capacity for
        // the tag's next registrations (the slot and plane borrows are
        // disjoint from the waiter table).
        let list = &mut self.waiters[idx];
        for &pos in list.iter() {
            let pos = pos as usize;
            let slot = &mut self.slots[pos];
            if !slot.valid {
                continue;
            }
            let mut resolved = false;
            for src in &mut slot.srcs {
                if *src == Some(tag) {
                    *src = None;
                    resolved = true;
                }
            }
            if resolved && slot.srcs[0].is_none() && slot.srcs[1].is_none() {
                self.ready.set(pos);
            }
        }
        list.clear();
    }

    /// Clears every slot.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = Slot::EMPTY;
        }
        self.len = 0;
        self.valid.clear_all();
        self.ready.clear_all();
        self.reverse.clear_all();
        self.pending_rv.clear_all();
        for list in &mut self.waiters {
            list.clear();
        }
    }

    /// Writes every slot record (stale ones included), the occupancy and
    /// the four bit planes into `key`; the waiter table is layout, not
    /// state (its live content is determined by the slot sources).
    pub fn arch_key(&self, key: &mut ArchKey) {
        for slot in &self.slots {
            key.push_bool(slot.valid);
            key.push_seq(slot.seq);
            key.push_seq(slot.payload);
            key.push_opt(slot.dst);
            key.push_opt(slot.srcs[0]);
            key.push_opt(slot.srcs[1]);
            key.push_usize(slot.fu.index());
            key.push_bool(slot.reverse);
            key.push_bool(slot.pending_rv);
            key.push(u64::from(slot.bucket));
        }
        key.push_usize(self.len);
        self.valid.arch_key(key);
        self.ready.arch_key(key);
        self.reverse.arch_key(key);
        self.pending_rv.arch_key(key);
    }

    /// Positions of all valid slots (ascending position order).
    pub fn valid_positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.valid.iter()
    }

    /// Lowest-index free slot, if any.
    pub fn first_free(&self) -> Option<usize> {
        self.valid.first_clear()
    }
}

/// The scalar reference implementation the bitset fast path replaced:
/// wakeup scans every slot, the free-slot and request queries walk the
/// array. Kept as the differential oracle — same public surface, no bit
/// planes, no waiter table.
#[cfg(test)]
#[derive(Debug, Clone)]
pub struct ScalarSlotArray {
    slots: Vec<Slot>,
    len: usize,
}

#[cfg(test)]
impl ScalarSlotArray {
    pub fn new(capacity: usize) -> ScalarSlotArray {
        assert!(capacity > 0);
        ScalarSlotArray { slots: vec![Slot::EMPTY; capacity], len: 0 }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn get(&self, pos: usize) -> &Slot {
        &self.slots[pos]
    }

    pub fn set_pending_rv(&mut self, pos: usize, v: bool) {
        self.slots[pos].pending_rv = v;
    }

    pub fn insert(&mut self, pos: usize, req: DispatchReq, reverse: bool, bucket: u8) {
        let slot = &mut self.slots[pos];
        assert!(!slot.valid, "dispatch into an occupied slot {pos}");
        *slot = Slot {
            valid: true,
            seq: req.seq,
            payload: req.payload,
            dst: req.dst,
            srcs: req.srcs,
            fu: req.fu,
            reverse,
            pending_rv: false,
            bucket,
        };
        self.len += 1;
    }

    pub fn remove(&mut self, pos: usize) {
        let slot = &mut self.slots[pos];
        assert!(slot.valid, "remove of an empty slot {pos}");
        slot.valid = false;
        slot.pending_rv = false;
        slot.reverse = false;
        self.len -= 1;
    }

    pub fn wakeup(&mut self, tag: Tag) {
        for slot in &mut self.slots {
            if !slot.valid {
                continue;
            }
            for src in &mut slot.srcs {
                if *src == Some(tag) {
                    *src = None;
                }
            }
        }
    }

    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = Slot::EMPTY;
        }
        self.len = 0;
    }

    pub fn first_free(&self) -> Option<usize> {
        self.slots.iter().position(|s| !s.valid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset;
    use swque_rng::prop::check;

    fn req(seq: u64, srcs: [Option<Tag>; 2]) -> DispatchReq {
        DispatchReq::new(seq, seq * 10, Some(seq as Tag), srcs, FuClass::IntAlu)
    }

    #[test]
    fn insert_wakeup_ready_cycle() {
        let mut a = SlotArray::new(4);
        a.insert(2, req(1, [Some(5), Some(6)]), false, 0);
        assert!(!a.get(2).ready());
        a.wakeup(5);
        assert!(!a.get(2).ready());
        a.wakeup(6);
        assert!(a.get(2).ready());
        assert_eq!(a.len(), 1);
        assert_eq!(bitset::first_set(a.ready_words()), Some(2));
    }

    #[test]
    fn wakeup_matches_both_operands_of_same_tag() {
        let mut a = SlotArray::new(2);
        a.insert(0, req(1, [Some(9), Some(9)]), false, 0);
        a.wakeup(9);
        assert!(a.get(0).ready(), "one broadcast resolves both matching sources");
        assert_eq!(bitset::first_set(a.ready_words()), Some(0));
    }

    #[test]
    fn remove_frees_slot_for_reuse() {
        let mut a = SlotArray::new(2);
        a.insert(0, req(1, [None, None]), false, 0);
        a.insert(1, req(2, [None, None]), false, 0);
        assert_eq!(a.first_free(), None);
        a.remove(0);
        assert_eq!(a.first_free(), Some(0));
        assert_eq!(a.len(), 1);
        a.insert(0, req(3, [None, None]), false, 0);
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "occupied slot")]
    fn double_insert_panics() {
        let mut a = SlotArray::new(1);
        a.insert(0, req(1, [None, None]), false, 0);
        a.insert(0, req(2, [None, None]), false, 0);
    }

    #[test]
    fn clear_resets_everything() {
        let mut a = SlotArray::new(3);
        a.insert(1, req(1, [None, None]), true, 2);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.valid_positions().count(), 0);
        assert!(!a.get(1).reverse);
        assert_eq!(bitset::first_set(a.ready_words()), None);
        assert_eq!(bitset::first_set(a.reverse_words()), None);
    }

    #[test]
    fn valid_positions_in_position_order() {
        let mut a = SlotArray::new(4);
        a.insert(3, req(1, [None, None]), false, 0);
        a.insert(1, req(2, [None, None]), false, 0);
        let v: Vec<usize> = a.valid_positions().collect();
        assert_eq!(v, vec![1, 3]);
    }

    #[test]
    fn stale_waiter_entry_does_not_wake_a_reused_slot() {
        let mut a = SlotArray::new(2);
        // Slot 0 waits on tag 7, then issues before 7 fires.
        a.insert(0, req(1, [Some(7), None]), false, 0);
        a.wakeup(7); // resolves it
        a.remove(0);
        // Slot 0 reused, now waiting on tag 8. The stale tag-7 entry (if
        // any survived) must not mark it ready.
        a.insert(0, req(2, [Some(8), None]), false, 0);
        a.wakeup(7);
        assert!(!a.get(0).ready(), "tag 7 is not a source of the new occupant");
        a.wakeup(8);
        assert!(a.get(0).ready());
    }

    #[test]
    fn wakeup_drains_the_waiter_list_and_keeps_its_capacity() {
        let mut a = SlotArray::new(4);
        a.insert(0, req(1, [Some(3), None]), false, 0);
        a.insert(1, req(2, [Some(3), Some(3)]), false, 0);
        let cap = a.waiters[3].capacity();
        assert!(cap >= 3);
        a.wakeup(3);
        assert!(a.waiters[3].is_empty(), "a broadcast drains its waiter list");
        assert_eq!(a.waiters[3].capacity(), cap, "the drained list keeps its buffer");
        assert!(a.get(0).ready() && a.get(1).ready());
    }

    #[test]
    fn pending_rv_plane_tracks_flag() {
        let mut a = SlotArray::new(3);
        a.insert(1, req(1, [None, None]), true, 0);
        a.set_pending_rv(1, true);
        assert!(a.get(1).pending_rv);
        assert_eq!(bitset::first_set(a.pending_rv_words()), Some(1));
        a.set_pending_rv(1, false);
        assert_eq!(bitset::first_set(a.pending_rv_words()), None);
        assert_eq!(bitset::first_set(a.reverse_words()), Some(1));
    }

    /// Differential oracle: random insert/remove/wakeup/pending/clear
    /// sequences applied to the bitset array and the scalar array must
    /// agree on every observable after every operation — slots, length,
    /// first-free, and the derived bit planes.
    #[test]
    fn prop_bitset_matches_scalar_oracle() {
        check(192, |g| {
            let cap = g.gen_range(1usize..70);
            let mut fast = SlotArray::new(cap);
            let mut oracle = ScalarSlotArray::new(cap);
            let mut seq = 0u64;
            let ops = g.gen_range(1usize..120);
            for _ in 0..ops {
                match g.gen_range(0u32..100) {
                    // Insert into a random free slot.
                    0..=44 => {
                        let Some(_) = fast.first_free() else { continue };
                        let free: Vec<usize> =
                            (0..cap).filter(|&p| !oracle.get(p).valid).collect();
                        let pos = free[g.gen_range(0usize..free.len())];
                        let mk = |g: &mut swque_rng::prop::Gen| -> Option<Tag> {
                            g.bool().then(|| g.gen_range(0u64..12) as Tag)
                        };
                        let srcs = [mk(g), mk(g)];
                        let r = req(seq, srcs);
                        seq += 1;
                        let reverse = g.bool();
                        fast.insert(pos, r, reverse, 0);
                        oracle.insert(pos, r, reverse, 0);
                    }
                    // Remove a random valid slot.
                    45..=64 => {
                        let live: Vec<usize> =
                            (0..cap).filter(|&p| oracle.get(p).valid).collect();
                        if live.is_empty() {
                            continue;
                        }
                        let pos = live[g.gen_range(0usize..live.len())];
                        fast.remove(pos);
                        oracle.remove(pos);
                    }
                    // Broadcast a random tag.
                    65..=89 => {
                        let tag = g.gen_range(0u64..12) as Tag;
                        fast.wakeup(tag);
                        oracle.wakeup(tag);
                    }
                    // Toggle pending_rv on a valid slot.
                    90..=96 => {
                        let live: Vec<usize> =
                            (0..cap).filter(|&p| oracle.get(p).valid).collect();
                        if live.is_empty() {
                            continue;
                        }
                        let pos = live[g.gen_range(0usize..live.len())];
                        let v = g.bool();
                        fast.set_pending_rv(pos, v);
                        oracle.set_pending_rv(pos, v);
                    }
                    // Flush.
                    _ => {
                        fast.clear();
                        oracle.clear();
                    }
                }
                assert_eq!(fast.len(), oracle.len());
                assert_eq!(fast.first_free(), oracle.first_free());
                let valid_fast: Vec<usize> = fast.valid_positions().collect();
                let valid_oracle: Vec<usize> =
                    (0..cap).filter(|&p| oracle.get(p).valid).collect();
                assert_eq!(valid_fast, valid_oracle, "valid plane");
                for p in 0..cap {
                    let (f, o) = (fast.get(p), oracle.get(p));
                    assert_eq!(f.valid, o.valid, "valid[{p}]");
                    if f.valid {
                        assert_eq!(f.seq, o.seq, "seq[{p}]");
                        assert_eq!(f.srcs, o.srcs, "srcs[{p}]");
                        assert_eq!(f.reverse, o.reverse, "reverse[{p}]");
                        assert_eq!(f.pending_rv, o.pending_rv, "pending_rv[{p}]");
                    }
                    // Bit planes mirror the slot state exactly.
                    assert_eq!(
                        fast.ready_words()[p / 64] >> (p % 64) & 1 == 1,
                        o.ready(),
                        "ready plane[{p}]"
                    );
                    assert_eq!(
                        fast.reverse_words()[p / 64] >> (p % 64) & 1 == 1,
                        o.valid && o.reverse,
                        "reverse plane[{p}]"
                    );
                    assert_eq!(
                        fast.pending_rv_words()[p / 64] >> (p % 64) & 1 == 1,
                        o.valid && o.pending_rv,
                        "pending plane[{p}]"
                    );
                }
            }
        });
    }
}
