//! Packed-`u64` bitset primitives backing the scheduling hot paths.
//!
//! Every per-cycle structure in this crate — the wakeup request vector,
//! the valid mask, CIRC-PC's reverse/pending planes, the age matrix —
//! is a set over at most a few hundred issue-queue slots. [`BitSet`]
//! packs such a set into `⌈capacity/64⌉` words so the per-cycle scans
//! become word operations: a 128-entry queue's ready scan is two
//! `u64` reads plus one `trailing_zeros` per *ready* instruction,
//! instead of 128 slot dereferences.
//!
//! The scan helpers ([`for_each_set`], [`for_each_set_in`]) take the
//! word slice rather than a `BitSet` so callers can combine planes on
//! the fly (`ready & !pending & !reverse`) without materializing the
//! intersection.

/// A fixed-capacity set of small integers, one bit per element, packed
/// into `u64` words.
///
/// # Example
///
/// ```
/// use swque_core::BitSet;
///
/// let mut s = BitSet::new(130);
/// s.set(3);
/// s.set(129);
/// assert!(s.test(3) && !s.test(4));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 129]);
/// assert_eq!(s.first_clear(), Some(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

/// Number of `u64` words needed for `capacity` bits.
pub fn words_for(capacity: usize) -> usize {
    capacity.div_ceil(64)
}

impl BitSet {
    /// Creates an empty set over `capacity` elements.
    pub fn new(capacity: usize) -> BitSet {
        BitSet { words: vec![0; words_for(capacity)], capacity }
    }

    /// The number of elements the set can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Removes `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.capacity);
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// Inserts or removes `i` according to `v`.
    #[inline]
    pub fn assign(&mut self, i: usize, v: bool) {
        if v {
            self.set(i);
        } else {
            self.clear(i);
        }
    }

    /// Membership test.
    #[inline]
    pub fn test(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Removes every element.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Number of elements present.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no element is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The backing words, least-significant bit = element 0. Bits at or
    /// above `capacity` are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Overwrites this set with `other` (equal capacities).
    pub fn copy_from(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        self.words.copy_from_slice(&other.words);
    }

    /// The smallest element present, if any.
    pub fn first_set(&self) -> Option<usize> {
        first_set(&self.words)
    }

    /// The smallest element *absent* (below `capacity`), if any — the
    /// free-list "first free slot" query as word ops.
    pub fn first_clear(&self) -> Option<usize> {
        for (w, &word) in self.words.iter().enumerate() {
            if word != u64::MAX {
                let i = w * 64 + word.trailing_ones() as usize;
                return (i < self.capacity).then_some(i);
            }
        }
        None
    }

    /// Elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        iter_set(&self.words)
    }
}

/// The lowest set bit's index in a word slice, if any.
#[inline]
pub fn first_set(words: &[u64]) -> Option<usize> {
    words
        .iter()
        .enumerate()
        .find(|(_, &w)| w != 0)
        .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
}

/// Iterates the set bits of a word slice in ascending index order.
pub fn iter_set(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        std::iter::successors(
            (w != 0).then_some(w),
            |&rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            },
        )
        .map(move |rest| wi * 64 + rest.trailing_zeros() as usize)
    })
}

/// Calls `f` for each set bit of `words` in ascending order; `f` returns
/// `false` to stop the scan early (budget exhausted).
///
/// Each word is copied into a register before its bits are visited, so
/// `f` may clear bits it has already been handed (issuing an instruction
/// clears its ready bit) without invalidating the scan.
#[inline]
pub fn for_each_set(words: &[u64], mut f: impl FnMut(usize) -> bool) {
    for (wi, &w) in words.iter().enumerate() {
        let mut word = w;
        while word != 0 {
            let i = wi * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            if !f(i) {
                return;
            }
        }
    }
}

/// [`for_each_set`] restricted to indices in `lo..hi` (used for the
/// circular, from-the-head scan order of CIRC-PPRI).
#[inline]
pub fn for_each_set_in(words: &[u64], lo: usize, hi: usize, mut f: impl FnMut(usize) -> bool) {
    if lo >= hi {
        return;
    }
    let first_w = lo / 64;
    let last_w = (hi - 1) / 64;
    for (wi, &w) in (first_w..).zip(&words[first_w..=last_w]) {
        let mut word = w;
        if wi == first_w {
            word &= u64::MAX << (lo % 64);
        }
        if wi == last_w && !hi.is_multiple_of(64) {
            word &= u64::MAX >> (64 - hi % 64);
        }
        while word != 0 {
            let i = wi * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            if !f(i) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_clear_test_roundtrip() {
        let mut s = BitSet::new(130);
        for i in [0, 63, 64, 127, 128, 129] {
            assert!(!s.test(i));
            s.set(i);
            assert!(s.test(i));
        }
        assert_eq!(s.count(), 6);
        s.clear(64);
        assert!(!s.test(64));
        assert_eq!(s.count(), 5);
        s.assign(64, true);
        s.assign(0, false);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![63, 64, 127, 128, 129]);
        s.clear_all();
        assert!(s.is_empty());
    }

    #[test]
    fn first_clear_skips_full_words() {
        let mut s = BitSet::new(130);
        for i in 0..70 {
            s.set(i);
        }
        assert_eq!(s.first_clear(), Some(70));
        for i in 70..130 {
            s.set(i);
        }
        assert_eq!(s.first_clear(), None, "all {} bits set", s.capacity());
        assert_eq!(s.first_set(), Some(0));
    }

    #[test]
    fn first_clear_respects_capacity() {
        // Capacity 65: word 1 has only one real bit; the rest must not
        // be reported as free slots.
        let mut s = BitSet::new(65);
        for i in 0..65 {
            s.set(i);
        }
        assert_eq!(s.first_clear(), None);
        s.clear(64);
        assert_eq!(s.first_clear(), Some(64));
    }

    #[test]
    fn scan_visits_ascending_and_stops() {
        let mut s = BitSet::new(200);
        for i in [5, 70, 71, 199] {
            s.set(i);
        }
        let mut seen = Vec::new();
        for_each_set(s.words(), |i| {
            seen.push(i);
            true
        });
        assert_eq!(seen, vec![5, 70, 71, 199]);
        let mut seen = Vec::new();
        for_each_set(s.words(), |i| {
            seen.push(i);
            seen.len() < 2
        });
        assert_eq!(seen, vec![5, 70], "early stop honored");
    }

    #[test]
    fn ranged_scan_masks_word_edges() {
        let mut s = BitSet::new(200);
        for i in [0, 5, 63, 64, 100, 128, 199] {
            s.set(i);
        }
        let collect = |lo, hi| {
            let mut v = Vec::new();
            for_each_set_in(s.words(), lo, hi, |i| {
                v.push(i);
                true
            });
            v
        };
        assert_eq!(collect(0, 200), vec![0, 5, 63, 64, 100, 128, 199]);
        assert_eq!(collect(5, 128), vec![5, 63, 64, 100]);
        assert_eq!(collect(64, 64), Vec::<usize>::new());
        assert_eq!(collect(63, 65), vec![63, 64]);
        assert_eq!(collect(129, 199), Vec::<usize>::new());
        assert_eq!(collect(199, 200), vec![199]);
    }

    #[test]
    fn iter_set_matches_for_each_set() {
        let words = [0x8000_0000_0000_0001u64, 0, 0b1010];
        let via_iter: Vec<usize> = iter_set(&words).collect();
        let mut via_scan = Vec::new();
        for_each_set(&words, |i| {
            via_scan.push(i);
            true
        });
        assert_eq!(via_iter, via_scan);
        assert_eq!(via_iter, vec![0, 63, 129, 131]);
        assert_eq!(first_set(&words), Some(0));
        assert_eq!(first_set(&[0, 0]), None);
    }
}
