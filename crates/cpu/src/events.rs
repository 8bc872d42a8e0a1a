//! Completion events as a calendar queue (Brown, CACM 1988): a ring of
//! per-cycle buckets plus an overflow heap for the rare far-out event.
//!
//! The pipeline schedules a completion for every issued instruction and
//! drains the ones due at the start of each cycle's writeback. Nearly all
//! of them fire within a few hundred cycles, so instead of a binary heap
//! keyed `(cycle, seq, slot)` the events sit in bucket `cycle % SPAN` of a
//! ring, beside a bitset of the non-empty buckets. An event `SPAN` or
//! more cycles out when it is pushed goes to a small overflow heap
//! instead.
//!
//! # Why the pop order is unchanged
//!
//! No event is ever overdue: `push` requires `at > now` (every operation
//! has latency at least one, and the pipeline schedules after its
//! writeback), and the drive loop never jumps the clock past
//! [`EventRing::next_at`]. So every ring event satisfies
//! `now <= at < now + SPAN`, a bucket holds events of exactly one cycle,
//! and [`EventRing::take_due`] at `now` finds all of cycle `now`'s events
//! in one bucket plus the overflow heap's top. Sorting them by `seq`
//! reproduces the heap's `(cycle, seq)` order exactly (seqs are unique).
//!
//! # Storage
//!
//! The buckets are singly linked lists threaded through one node pool, as
//! SimpleScalar's `RS_link` wakeup nodes are: a drained node goes onto a
//! free list and the next push reuses it, so the pool only grows to the
//! most events ever pending at once (about the ROB size) and a
//! steady-state cycle never allocates. The ring itself is one `u32` head
//! per bucket, so its memory does not grow with the events per cycle.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use swque_core::cycle::{CycleDelta, CycleStamp};

/// Ring span in cycles, a power of two. Covers a DRAM round trip (300
/// cycles at the default latency) with room for queueing; anything
/// further out takes the overflow heap.
pub(crate) const SPAN: u64 = BUCKETS as u64;

const BUCKETS: usize = 1024;
const MASK: u64 = SPAN - 1;
const WORDS: usize = BUCKETS / 64;
/// End of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// One pending event: a ROB handle and the next node of its list.
#[derive(Debug)]
struct Node {
    seq: u64,
    slot: u64,
    next: u32,
}

/// Pending completion events, each a ROB handle `(seq, slot)` due at a
/// cycle (see the module docs).
#[derive(Debug)]
pub(crate) struct EventRing {
    /// `heads[at % SPAN]`: the first node of the list of events due at
    /// cycle `at`, or `NIL`.
    heads: Vec<u32>,
    /// Bit `b` set iff `heads[b]` is not `NIL`.
    occupied: [u64; WORDS],
    /// Node pool for every bucket list and the free list.
    nodes: Vec<Node>,
    /// First free node, or `NIL`.
    free: u32,
    /// `(at, seq, slot)` min-heap of the events pushed `SPAN` or more
    /// cycles ahead.
    overflow: BinaryHeap<Reverse<(CycleStamp, u64, u64)>>,
}

impl EventRing {
    /// An empty ring.
    pub(crate) fn new() -> EventRing {
        EventRing {
            heads: vec![NIL; BUCKETS],
            occupied: [0; WORDS],
            nodes: Vec::new(),
            free: NIL,
            overflow: BinaryHeap::new(),
        }
    }

    /// Schedules `(seq, slot)` to complete at cycle `at`, strictly after
    /// the current cycle `now`.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "node ids count the events in flight at once, far below 2^32"
    )]
    pub(crate) fn push(&mut self, now: CycleStamp, at: CycleStamp, seq: u64, slot: u64) {
        debug_assert!(at > now, "event at cycle {at} scheduled at cycle {now}");
        if at - now >= CycleDelta::new(SPAN) {
            self.overflow.push(Reverse((at, seq, slot)));
            return;
        }
        let b = (at.get() & MASK) as usize;
        let node = Node { seq, slot, next: self.heads[b] };
        let id = if self.free == NIL {
            self.nodes.push(node);
            // The pool holds at most the events in flight at once.
            (self.nodes.len() - 1) as u32
        } else {
            let id = self.free;
            self.free = self.nodes[id as usize].next;
            self.nodes[id as usize] = node;
            id
        };
        self.heads[b] = id;
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    /// Replaces the contents of `due` with the events due at `now`, in
    /// `seq` order, freeing their nodes.
    pub(crate) fn take_due(&mut self, now: CycleStamp, due: &mut Vec<(u64, u64)>) {
        due.clear();
        let b = (now.get() & MASK) as usize;
        let mut id = std::mem::replace(&mut self.heads[b], NIL);
        self.occupied[b / 64] &= !(1 << (b % 64));
        while id != NIL {
            let node = &mut self.nodes[id as usize];
            due.push((node.seq, node.slot));
            let next = std::mem::replace(&mut node.next, self.free);
            self.free = id;
            id = next;
        }
        while let Some(&Reverse((at, seq, slot))) = self.overflow.peek() {
            if at > now {
                break;
            }
            self.overflow.pop();
            due.push((seq, slot));
        }
        due.sort_unstable();
    }

    /// The earliest cycle with a pending event, if any (`now` itself when
    /// events are due).
    pub(crate) fn next_at(&self, now: CycleStamp) -> Option<CycleStamp> {
        let start = (now.get() & MASK) as usize;
        let w0 = start / 64;
        // Cyclic scan from `start`: the rest of its word, the other words
        // in ring order, then the bits of its word below `start`.
        let mut bucket = None;
        let first = self.occupied[w0] & (u64::MAX << (start % 64));
        if first != 0 {
            bucket = Some(w0 * 64 + first.trailing_zeros() as usize);
        } else {
            for i in 1..=WORDS {
                let wi = (w0 + i) % WORDS;
                let mut word = self.occupied[wi];
                if i == WORDS {
                    word &= !(u64::MAX << (start % 64));
                }
                if word != 0 {
                    bucket = Some(wi * 64 + word.trailing_zeros() as usize);
                    break;
                }
            }
        }
        let ring = bucket.map(|b| now + CycleDelta::new((b as u64).wrapping_sub(now.get()) & MASK));
        let far = self.overflow.peek().map(|&Reverse((at, _, _))| at);
        match (ring, far) {
            (Some(r), Some(f)) => Some(r.min(f)),
            (r, f) => r.or(f),
        }
    }

    /// Drops every pending event (pipeline flush), keeping the pool's
    /// buffer.
    pub(crate) fn clear(&mut self) {
        for (wi, word) in self.occupied.iter_mut().enumerate() {
            while *word != 0 {
                self.heads[wi * 64 + word.trailing_zeros() as usize] = NIL;
                *word &= *word - 1;
            }
        }
        self.nodes.clear();
        self.free = NIL;
        self.overflow.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use swque_rng::prop::check;

    fn cy(cycle: u64) -> CycleStamp {
        CycleStamp::new(cycle)
    }

    #[test]
    fn same_cycle_events_come_out_in_seq_order() {
        let mut ring = EventRing::new();
        let mut due = Vec::new();
        ring.push(cy(0), cy(3), 9, 1);
        ring.push(cy(0), cy(3), 4, 2);
        ring.push(cy(1), cy(3), 6, 3);
        assert_eq!(ring.next_at(cy(1)), Some(cy(3)));
        ring.take_due(cy(2), &mut due);
        assert!(due.is_empty());
        ring.take_due(cy(3), &mut due);
        assert_eq!(due, vec![(4, 2), (6, 3), (9, 1)]);
        assert_eq!(ring.next_at(cy(3)), None);
    }

    #[test]
    fn far_events_merge_from_the_overflow_heap_in_seq_order() {
        let mut ring = EventRing::new();
        let mut due = Vec::new();
        ring.push(cy(0), cy(SPAN + 5), 7, 0); // overflow
        assert_eq!(ring.next_at(cy(0)), Some(cy(SPAN + 5)), "next_at sees the overflow heap");
        ring.push(cy(SPAN), cy(SPAN + 5), 3, 1); // ring, bucket 5
        assert_eq!(ring.next_at(cy(SPAN + 1)), Some(cy(SPAN + 5)));
        ring.take_due(cy(SPAN + 5), &mut due);
        assert_eq!(due, vec![(3, 1), (7, 0)]);
        assert_eq!(ring.next_at(cy(SPAN + 5)), None);
    }

    #[test]
    fn next_at_wraps_around_the_end_of_the_ring() {
        let mut ring = EventRing::new();
        let now = 3 * SPAN - 2; // bucket SPAN - 2
        ring.push(cy(now), cy(now + 5), 1, 0); // bucket 3, below `now`'s
        assert_eq!(ring.next_at(cy(now)), Some(cy(now + 5)));
        ring.push(cy(now), cy(now + 1), 2, 0); // bucket SPAN - 1
        assert_eq!(ring.next_at(cy(now)), Some(cy(now + 1)));
    }

    #[test]
    fn drained_nodes_are_reused_and_clear_empties_everything() {
        let mut ring = EventRing::new();
        let mut due = Vec::new();
        for now in 0..100 {
            ring.push(cy(now), cy(now + 1), 2 * now, 0);
            ring.push(cy(now), cy(now + 1), 2 * now + 1, 1);
            ring.take_due(cy(now + 1), &mut due);
            assert_eq!(due, vec![(2 * now, 0), (2 * now + 1, 1)]);
        }
        assert_eq!(ring.nodes.len(), 2, "the pool grows only to the events pending at once");
        ring.push(cy(100), cy(102), 7, 0);
        ring.push(cy(100), cy(102 + SPAN), 8, 0);
        ring.clear();
        assert_eq!(ring.next_at(cy(101)), None);
        ring.take_due(cy(102), &mut due);
        assert!(due.is_empty());
    }

    /// Differential property: random interleavings of pushes (latencies
    /// up to 3·SPAN, so a third of them overflow), per-cycle drains,
    /// clock jumps that stop at `next_at` (as quiescence skipping does)
    /// and flushes agree with a `(cycle, seq, slot)` binary heap at every
    /// step — the due order and `next_at` alike. Each case runs past
    /// several ring turns and must exercise both the overflow merge and
    /// events whose bucket lies below `now`'s (the wrap-around).
    #[test]
    fn prop_ring_matches_binary_heap() {
        check(48, |g| {
            let mut ring = EventRing::new();
            let mut heap: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::new();
            let mut due = Vec::new();
            let mut now = g.gen_range(0u64..4 * SPAN);
            let mut seq = 0u64;
            let mut far = BTreeSet::new();
            let (mut overflow_merged, mut wrapped) = (0u32, 0u32);
            let end = now + 6 * SPAN;
            while now < end {
                for _ in 0..g.gen_range(0usize..4) {
                    let lat = if g.gen_range(0u32..3) == 0 {
                        g.gen_range(1u64..3 * SPAN)
                    } else {
                        g.gen_range(1u64..24)
                    };
                    let slot = g.gen_range(0u64..64);
                    if lat >= SPAN {
                        far.insert(seq);
                    } else if (now + lat) & MASK < now & MASK {
                        wrapped += 1;
                    }
                    ring.push(cy(now), cy(now + lat), seq, slot);
                    heap.push(Reverse((now + lat, seq, slot)));
                    seq += g.gen_range(1u64..4);
                }
                if g.gen_range(0u32..2000) == 0 {
                    ring.clear();
                    heap.clear();
                }
                let expect_next = heap.peek().map(|&Reverse((at, _, _))| at);
                assert_eq!(ring.next_at(cy(now)), expect_next.map(cy), "next_at at cycle {now}");
                // The next cycle, or a jump that stops at the next event.
                now = match (g.gen_range(0u32..4), expect_next) {
                    (0, Some(at)) => at.min(now + g.gen_range(1u64..2 * SPAN)),
                    _ => now + 1,
                };
                ring.take_due(cy(now), &mut due);
                let mut expect = Vec::new();
                while let Some(&Reverse((at, s, slot))) = heap.peek() {
                    if at > now {
                        break;
                    }
                    assert_eq!(at, now, "an event became overdue");
                    heap.pop();
                    expect.push((s, slot));
                }
                assert_eq!(due, expect, "due order at cycle {now}");
                overflow_merged += due.iter().filter(|(s, _)| far.contains(s)).count() as u32;
            }
            assert!(overflow_merged > 0, "no overflow event was merged");
            assert!(wrapped > 0, "no event wrapped past the end of the ring");
        });
    }
}
