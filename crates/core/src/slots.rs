//! Shared physical-entry storage used by every single-queue organization
//! (SHIFT, CIRC, CIRC-PC, RAND, AGE, REARRANGE). Models the wakeup-logic
//! CAM array: each slot holds two source tags with ready flags and
//! requests issue when both are ready.
//!
//! The array is kind-neutral: it holds what every organization stores per
//! entry and nothing else. State that only some kinds read lives with
//! them — CIRC-PC's pending-RV plane, AGE-multiAM's bucket of each entry,
//! the circular head and region of CIRC, CIRC-PPRI and CIRC-PC.
//!
//! # Hot-path representation
//!
//! Alongside the per-slot records, the array maintains two packed bit
//! planes ([`BitSet`], one bit per slot) that the per-cycle scans read
//! instead of dereferencing slots:
//!
//! * **valid** — slot holds a live instruction;
//! * **ready** — valid ∧ both sources resolved (the issue-request vector).
//!
//! Every select scan is [`SlotArray::scan_ready`], and a grant leaves the
//! array through [`SlotArray::take`].
//!
//! Wakeup is *tag-indexed*: at insert, each unresolved source links its
//! node (`2·pos + k` for source `k` of slot `pos`) into its tag's intrusive
//! doubly-linked waiter chain, and a broadcast walks only that chain
//! instead of scanning every slot. A chain holds exactly the live
//! waiters: [`SlotArray::remove`] unlinks the unresolved sources of the
//! slot it frees, and a broadcast empties the chain it resolves, so no
//! entry is ever stale. The links are two fixed arrays (a head per tag,
//! `(prev, next)` per node), so wakeup and insert never touch the
//! allocator once the head array has grown to the highest tag, and
//! cloning the array is a few flat copies.
//!
//! The scalar reference implementation is retained as
//! `ScalarSlotArray` behind `#[cfg(test)]`; a differential property test at
//! the bottom of this file drives both through random op sequences and
//! asserts identical observable state after every step.

use swque_isa::FuClass;

use crate::bitset::{self, BitSet};
use crate::digest::ArchKey;
use crate::types::{DispatchReq, Grant, IssueBudget, Tag};

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
}

impl Slot {
    const EMPTY: Slot = Slot {
        valid: false,
        seq: 0,
        payload: 0,
        dst: None,
        srcs: [None, None],
        fu: FuClass::IntAlu,
    };

    /// Both operands resolved: the entry raises an issue request.
    pub fn ready(&self) -> bool {
        self.valid && self.srcs[0].is_none() && self.srcs[1].is_none()
    }
}

/// The end of a waiter chain (no node).
const NIL: u16 = u16::MAX;

/// The waiter-chain node of source `k` of slot `pos`.
#[expect(
    clippy::cast_possible_truncation,
    reason = "pos < BitSet::MAX_CAPACITY, so a node is below 512"
)]
fn node(pos: usize, k: usize) -> u16 {
    (2 * pos + k) as u16
}

/// A fixed array of [`Slot`]s with CAM-style wakeup.
#[derive(Debug)]
pub struct SlotArray {
    slots: Vec<Slot>,
    len: usize,
    valid: BitSet,
    ready: BitSet,
    /// `heads[tag]`: the first node of `tag`'s waiter chain, or [`NIL`].
    /// Grown on demand to the highest tag seen.
    heads: Vec<u16>,
    /// `[prev, next]` of each node in its tag's chain ([`NIL`] at either
    /// end). A node is linked exactly while its slot is valid and its
    /// source unresolved; otherwise its links are dead.
    links: Vec<[u16; 2]>,
}

clone_in_place!(SlotArray { slots, len, valid, ready, heads, links });

impl SlotArray {
    /// Creates `capacity` empty slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds [`BitSet::MAX_CAPACITY`].
    pub fn new(capacity: usize) -> SlotArray {
        assert!(capacity > 0, "issue queue needs at least one entry");
        SlotArray {
            slots: vec![Slot::EMPTY; capacity],
            len: 0,
            valid: BitSet::new(capacity),
            ready: BitSet::new(capacity),
            heads: Vec::new(),
            links: vec![[NIL; 2]; 2 * capacity],
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

    /// Immutable slot access.
    pub fn get(&self, pos: usize) -> &Slot {
        &self.slots[pos]
    }

    /// Packed issue-request vector: bit `p` set iff slot `p` is valid with
    /// both sources resolved.
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

    /// Number of slots raising an issue request (a popcount of the ready
    /// plane).
    #[inline]
    pub fn ready_len(&self) -> usize {
        self.ready.count()
    }

    /// Links `node` at the front of `tag`'s waiter chain.
    fn link(&mut self, node: u16, tag: Tag) {
        let idx = usize::from(tag);
        if idx >= self.heads.len() {
            self.heads.resize(idx + 1, NIL);
        }
        let next = self.heads[idx];
        self.links[usize::from(node)] = [NIL, next];
        if next != NIL {
            self.links[usize::from(next)][0] = node;
        }
        self.heads[idx] = node;
    }

    /// Unlinks `node` from `tag`'s waiter chain.
    fn unlink(&mut self, node: u16, tag: Tag) {
        let [prev, next] = self.links[usize::from(node)];
        if prev == NIL {
            self.heads[usize::from(tag)] = next;
        } else {
            self.links[usize::from(prev)][1] = next;
        }
        if next != NIL {
            self.links[usize::from(next)][0] = prev;
        }
    }

    /// Writes `req` into slot `pos`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already valid (the caller tracks free slots).
    pub fn insert(&mut self, pos: usize, req: DispatchReq) {
        let slot = &mut self.slots[pos];
        assert!(!slot.valid, "dispatch into an occupied slot {pos}");
        *slot = Slot {
            valid: true,
            seq: req.seq,
            payload: req.payload,
            dst: req.dst,
            srcs: req.srcs,
            fu: req.fu,
        };
        self.len += 1;
        self.valid.set(pos);
        self.ready.assign(pos, req.srcs[0].is_none() && req.srcs[1].is_none());
        for (k, src) in req.srcs.into_iter().enumerate() {
            if let Some(tag) = src {
                self.link(node(pos, k), tag);
            }
        }
    }

    /// Invalidates slot `pos` (on issue or squash), unlinking its
    /// unresolved sources from their waiter chains. The record keeps its
    /// fields: a stale record is part of the state key.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not valid.
    pub fn remove(&mut self, pos: usize) {
        let slot = &mut self.slots[pos];
        assert!(slot.valid, "remove of an empty slot {pos}");
        slot.valid = false;
        let srcs = slot.srcs;
        self.len -= 1;
        self.valid.clear(pos);
        self.ready.clear(pos);
        for (k, src) in srcs.into_iter().enumerate() {
            if let Some(tag) = src {
                self.unlink(node(pos, k), tag);
            }
        }
    }

    /// The grant of slot `pos` at priority `rank`, removing the slot.
    pub fn take(&mut self, pos: usize, rank: usize, two_cycle: bool) -> Grant {
        let slot = self.slots[pos];
        self.remove(pos);
        Grant { payload: slot.payload, seq: slot.seq, dst: slot.dst, fu: slot.fu, rank, two_cycle }
    }

    /// The select scan every kind shares: offers the ready entries at
    /// positions `lo..hi` whose bit is also set in `mask(w)` (word `w` of a
    /// caller plane) to `budget` in ascending position order, and hands
    /// each entry the budget admits to `admit`, until the budget is spent.
    /// `admit` may remove the entry it is handed (see
    /// [`bitset::for_each_set_in`]).
    #[inline]
    pub fn scan_ready(
        &mut self,
        (lo, hi): (usize, usize),
        mask: impl Fn(usize) -> u64,
        budget: &mut IssueBudget,
        mut admit: impl FnMut(&mut SlotArray, usize),
    ) {
        let word = |slots: &SlotArray, w: usize| slots.ready.words()[w] & mask(w);
        bitset::for_each_set_in(self, lo, hi, word, |slots, pos| {
            if budget.exhausted() {
                return false;
            }
            if budget.try_take(slots.slots[pos].fu) {
                admit(slots, pos);
            }
            true
        });
    }

    /// Removes every entry younger than `seq` wherever it sits (the
    /// squash of the free-list kinds), calling `removed` with each freed
    /// position.
    pub fn squash_younger(&mut self, seq: u64, mut removed: impl FnMut(usize)) {
        let (cap, word) = (self.capacity(), |slots: &SlotArray, w: usize| slots.valid.words()[w]);
        bitset::for_each_set_in(self, 0, cap, word, |slots, pos| {
            if slots.slots[pos].seq > seq {
                slots.remove(pos);
                removed(pos);
            }
            true
        });
    }

    /// Broadcasts `tag` to every entry, resolving matching sources.
    ///
    /// Tag-indexed: only the nodes in `tag`'s waiter chain are touched,
    /// and every one of them is a live source on `tag`. Resolving a
    /// source unlinks its node, so the whole chain is emptied at once.
    pub fn wakeup(&mut self, tag: Tag) {
        let Some(head) = self.heads.get_mut(usize::from(tag)) else {
            return;
        };
        let mut at = std::mem::replace(head, NIL);
        while at != NIL {
            let (pos, k) = (usize::from(at / 2), usize::from(at % 2));
            at = self.links[usize::from(at)][1];
            let slot = &mut self.slots[pos];
            debug_assert!(slot.valid && slot.srcs[k] == Some(tag), "stale waiter {pos}.{k}");
            slot.srcs[k] = None;
            if slot.srcs[0].is_none() && slot.srcs[1].is_none() {
                self.ready.set(pos);
            }
        }
    }

    /// Clears every slot.
    pub fn clear(&mut self) {
        for slot in &mut self.slots {
            *slot = Slot::EMPTY;
        }
        self.len = 0;
        self.valid.clear_all();
        self.ready.clear_all();
        self.heads.fill(NIL);
    }

    /// Writes every slot record (stale ones included), the occupancy and
    /// the two bit planes into `key`; the waiter chains are layout, not
    /// state (their content is determined by the live slots' sources).
    pub fn arch_key(&self, key: &mut ArchKey) {
        for slot in &self.slots {
            key.push_bool(slot.valid);
            key.push_seq(slot.seq);
            key.push_seq(slot.payload);
            key.push_opt(slot.dst);
            key.push_opt(slot.srcs[0]);
            key.push_opt(slot.srcs[1]);
            key.push_usize(slot.fu.index());
        }
        key.push_usize(self.len);
        self.valid.arch_key(key);
        self.ready.arch_key(key);
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

    pub fn insert(&mut self, pos: usize, req: DispatchReq) {
        let slot = &mut self.slots[pos];
        assert!(!slot.valid, "dispatch into an occupied slot {pos}");
        *slot = Slot {
            valid: true,
            seq: req.seq,
            payload: req.payload,
            dst: req.dst,
            srcs: req.srcs,
            fu: req.fu,
        };
        self.len += 1;
    }

    pub fn remove(&mut self, pos: usize) {
        let slot = &mut self.slots[pos];
        assert!(slot.valid, "remove of an empty slot {pos}");
        slot.valid = false;
        self.len -= 1;
    }

    pub fn squash_younger(&mut self, seq: u64) -> Vec<usize> {
        let younger: Vec<usize> = (0..self.slots.len())
            .filter(|&p| self.slots[p].valid && self.slots[p].seq > seq)
            .collect();
        for &pos in &younger {
            self.remove(pos);
        }
        younger
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
        a.insert(2, req(1, [Some(5), Some(6)]));
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
        a.insert(0, req(1, [Some(9), Some(9)]));
        a.wakeup(9);
        assert!(a.get(0).ready(), "one broadcast resolves both matching sources");
        assert_eq!(bitset::first_set(a.ready_words()), Some(0));
    }

    #[test]
    fn remove_frees_slot_for_reuse() {
        let mut a = SlotArray::new(2);
        a.insert(0, req(1, [None, None]));
        a.insert(1, req(2, [None, None]));
        assert_eq!(a.first_free(), None);
        a.remove(0);
        assert_eq!(a.first_free(), Some(0));
        assert_eq!(a.len(), 1);
        a.insert(0, req(3, [None, None]));
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "occupied slot")]
    fn double_insert_panics() {
        let mut a = SlotArray::new(1);
        a.insert(0, req(1, [None, None]));
        a.insert(0, req(2, [None, None]));
    }

    #[test]
    fn clear_resets_everything() {
        let mut a = SlotArray::new(3);
        a.insert(1, req(1, [None, None]));
        a.clear();
        assert_eq!(a.len(), 0);
        assert_eq!(bitset::first_set(a.valid_words()), None);
        assert!(!a.get(1).valid);
        assert_eq!(bitset::first_set(a.ready_words()), None);
    }

    #[test]
    fn valid_plane_in_position_order() {
        let mut a = SlotArray::new(4);
        a.insert(3, req(1, [None, None]));
        a.insert(1, req(2, [None, None]));
        let v: Vec<usize> = bitset::iter_set(a.valid_words()).collect();
        assert_eq!(v, vec![1, 3]);
    }

    #[test]
    fn stale_waiter_entry_does_not_wake_a_reused_slot() {
        let mut a = SlotArray::new(2);
        // Slot 0 waits on tag 7, then issues before 7 fires.
        a.insert(0, req(1, [Some(7), None]));
        a.wakeup(7); // resolves it
        a.remove(0);
        // Slot 0 reused, now waiting on tag 8. The stale tag-7 entry (if
        // any survived) must not mark it ready.
        a.insert(0, req(2, [Some(8), None]));
        a.wakeup(7);
        assert!(!a.get(0).ready(), "tag 7 is not a source of the new occupant");
        a.wakeup(8);
        assert!(a.get(0).ready());
    }

    #[test]
    fn squashing_a_middle_waiter_keeps_both_chain_neighbours_awake() {
        let mut a = SlotArray::new(4);
        for pos in 0..3 {
            a.insert(pos, req(pos as u64 + 1, [Some(5), None]));
        }
        // The middle waiter of tag 5's chain leaves, and its slot is
        // reused for a waiter on tag 6.
        a.remove(1);
        a.insert(1, req(4, [Some(6), None]));
        a.wakeup(5);
        assert!(a.get(0).ready() && a.get(2).ready(), "both survivors wake");
        assert!(!a.get(1).ready(), "the reused slot waits on tag 6 only");
        a.wakeup(6);
        assert!(a.get(1).ready());
    }

    #[test]
    fn wakeup_empties_the_chain_and_resolves_a_doubled_source() {
        let mut a = SlotArray::new(4);
        a.insert(0, req(1, [Some(3), None]));
        a.insert(1, req(2, [Some(3), Some(3)]));
        a.wakeup(3);
        assert!(a.get(0).ready() && a.get(1).ready());
        assert_eq!(a.heads[3], NIL, "a broadcast empties its chain");
        a.remove(0);
        a.insert(0, req(3, [Some(3), None]));
        a.wakeup(3);
        assert!(a.get(0).ready(), "the emptied chain links a new waiter");
    }

    #[test]
    fn take_builds_the_grant_and_frees_the_slot() {
        let mut a = SlotArray::new(3);
        a.insert(2, req(4, [None, None]));
        let g = a.take(2, 7, true);
        assert_eq!((g.seq, g.payload, g.dst, g.rank, g.two_cycle), (4, 40, Some(4), 7, true));
        assert_eq!(a.len(), 0);
        assert_eq!(bitset::first_set(a.ready_words()), None);
    }

    #[test]
    fn scan_ready_walks_the_masked_range_until_the_budget_is_spent() {
        let mut a = SlotArray::new(70);
        for (seq, pos) in [2, 5, 64, 66, 69].into_iter().enumerate() {
            a.insert(pos, req(seq as u64, [None, None]));
        }
        let scan = |a: &SlotArray, lo, hi, mask: &dyn Fn(usize) -> u64, width| {
            let mut taken = Vec::new();
            let mut budget = IssueBudget::new(width, [width; 4]);
            a.clone().scan_ready((lo, hi), mask, &mut budget, |slots, pos| {
                slots.remove(pos);
                taken.push(pos);
            });
            taken
        };
        let all = |_| u64::MAX;
        assert_eq!(scan(&a, 0, 70, &all, 9), vec![2, 5, 64, 66, 69]);
        assert_eq!(scan(&a, 3, 67, &all, 9), vec![5, 64, 66]);
        assert_eq!(scan(&a, 0, 70, &all, 3), vec![2, 5, 64], "the budget stops the scan");
        let mask = |w| if w == 0 { !(1 << 5) } else { !(1 << 2) };
        assert_eq!(scan(&a, 0, 70, &mask, 9), vec![2, 64, 69], "word w is masked by mask(w)");
    }

    /// Differential oracle: random insert/remove/wakeup/squash/clear
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
                        let free: Vec<usize> = (0..cap).filter(|&p| !oracle.get(p).valid).collect();
                        let pos = free[g.gen_range(0usize..free.len())];
                        let mk = |g: &mut swque_rng::prop::Gen| -> Option<Tag> {
                            g.bool().then(|| g.gen_range(0u64..12) as Tag)
                        };
                        let srcs = [mk(g), mk(g)];
                        let r = req(seq, srcs);
                        seq += 1;
                        fast.insert(pos, r);
                        oracle.insert(pos, r);
                    }
                    // Remove a random valid slot.
                    45..=64 => {
                        let live: Vec<usize> = (0..cap).filter(|&p| oracle.get(p).valid).collect();
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
                    // Squash everything younger than a random cut.
                    90..=96 => {
                        let cut = g.gen_range(0..seq + 1);
                        let mut freed = Vec::new();
                        fast.squash_younger(cut, |pos| freed.push(pos));
                        assert_eq!(freed, oracle.squash_younger(cut), "squashed positions");
                    }
                    // Flush.
                    _ => {
                        fast.clear();
                        oracle.clear();
                    }
                }
                assert_eq!(fast.len(), oracle.len());
                assert_eq!(fast.first_free(), oracle.first_free());
                let valid_fast: Vec<usize> = bitset::iter_set(fast.valid_words()).collect();
                let valid_oracle: Vec<usize> = (0..cap).filter(|&p| oracle.get(p).valid).collect();
                assert_eq!(valid_fast, valid_oracle, "valid plane");
                for p in 0..cap {
                    let (f, o) = (fast.get(p), oracle.get(p));
                    assert_eq!(f.valid, o.valid, "valid[{p}]");
                    if f.valid {
                        assert_eq!(f.seq, o.seq, "seq[{p}]");
                        assert_eq!(f.srcs, o.srcs, "srcs[{p}]");
                    }
                    // The ready plane mirrors the slot state exactly.
                    assert_eq!(
                        fast.ready_words()[p / 64] >> (p % 64) & 1 == 1,
                        o.ready(),
                        "ready plane[{p}]"
                    );
                }
            }
        });
    }
}
