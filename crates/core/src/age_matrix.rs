//! The age matrix (paper §2.3): a bit matrix that selects the single oldest
//! ready instruction from a randomly ordered queue.
//!
//! Row `i`, column `j` holds 1 iff the instruction in slot `j` is older than
//! the instruction in slot `i`. Slot `i` is the oldest requester iff its
//! request is raised and `row(i) & requests == 0` — i.e. no *ready* older
//! instruction exists. This is exactly the "bitwise AND of the row vector
//! with the transposed issue request vector" the paper describes.
//!
//! # Word-parallel implementation
//!
//! The matrix maintains the invariant that **every valid row is a subset of
//! the valid mask**: a row only ever names live, older instructions.
//! Consequences:
//!
//! * [`allocate`](AgeMatrix::allocate)`(i)` is a single row copy
//!   (`row(i) := valid`) plus one valid-bit set. No column clears are
//!   needed: slot `i` was invalid, so by the invariant no valid row holds
//!   column `i`, and invalid rows are dead state that the slot's own next
//!   `allocate` overwrites wholesale.
//! * [`deallocate`](AgeMatrix::deallocate)`(i)` clears column `i` only in
//!   the *valid* rows (iterating set bits of the valid mask), not all
//!   `capacity` rows.
//! * [`oldest_ready_words`](AgeMatrix::oldest_ready_words) takes the packed
//!   request vector straight from `SlotArray::ready_words` and resolves the
//!   oldest requester with word ANDs — no per-slot request registration,
//!   no temporary allocation.
//!
//! The pre-rewrite scalar implementation (`Vec<Vec<bool>>`, per-slot loops)
//! is preserved as `ScalarAgeMatrix` under `#[cfg(test)]` and a property
//! test checks the two agree on random allocate/deallocate/query histories.

use crate::bitset::words_for;
use crate::digest::ArchKey;

/// A bit matrix over `capacity` issue-queue slots.
///
/// # Example
///
/// ```
/// use swque_core::AgeMatrix;
///
/// let mut m = AgeMatrix::new(8);
/// m.allocate(5); // oldest
/// m.allocate(2);
/// m.allocate(7); // youngest
/// assert_eq!(m.oldest_ready([2, 7]), Some(2), "5 is older but not requesting");
/// m.deallocate(2);
/// assert_eq!(m.oldest_ready([2, 7]), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct AgeMatrix {
    capacity: usize,
    words_per_row: usize,
    /// Row-major bit matrix: `rows[i * words_per_row ..]` is row `i`.
    /// Invalid rows hold dead state (overwritten on the slot's next
    /// allocate); valid rows are always subsets of `valid`.
    rows: Vec<u64>,
    /// Which slots currently participate (valid instructions).
    valid: Vec<u64>,
}

impl AgeMatrix {
    /// Creates an empty matrix over `capacity` slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> AgeMatrix {
        assert!(capacity > 0, "age matrix needs at least one slot");
        let words_per_row = words_for(capacity);
        AgeMatrix {
            capacity,
            words_per_row,
            rows: vec![0; capacity * words_per_row],
            valid: vec![0; words_per_row],
        }
    }

    /// Number of tracked slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    fn bit(word: &[u64], j: usize) -> bool {
        word[j / 64] >> (j % 64) & 1 == 1
    }

    /// Registers slot `i` as the *youngest* live instruction: its row
    /// becomes a copy of the current valid mask (everyone live is older).
    ///
    /// # Panics
    ///
    /// Panics if slot `i` is already allocated.
    pub fn allocate(&mut self, i: usize) {
        assert!(!Self::bit(&self.valid, i), "age-matrix slot {i} allocated twice");
        // Row i := current valid vector. Column i needs no clearing: it is
        // already 0 in every valid row (valid rows ⊆ valid mask and i was
        // invalid), and invalid rows are rewritten when their slot
        // allocates.
        let (rows, valid) = (&mut self.rows, &self.valid);
        rows[i * self.words_per_row..(i + 1) * self.words_per_row].copy_from_slice(valid);
        self.valid[i / 64] |= 1 << (i % 64);
    }

    /// Removes slot `i` (issued or squashed): clears its column in every
    /// *valid* row and marks it invalid.
    pub fn deallocate(&mut self, i: usize) {
        let col_word = i / 64;
        let col_mask = !(1u64 << (i % 64));
        // Only valid rows can hold column i; walk the set bits of the
        // valid mask instead of all `capacity` rows.
        for (wi, &w) in self.valid.iter().enumerate() {
            let mut word = w;
            while word != 0 {
                let r = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.rows[r * self.words_per_row + col_word] &= col_mask;
            }
        }
        self.valid[i / 64] &= !(1 << (i % 64));
    }

    /// True if slot `i` is currently tracked.
    pub fn is_allocated(&self, i: usize) -> bool {
        Self::bit(&self.valid, i)
    }

    /// Clears the matrix.
    pub fn clear(&mut self) {
        self.rows.fill(0);
        self.valid.fill(0);
    }

    /// Writes every row (dead rows of invalid slots included) and the
    /// valid mask into `key`.
    pub fn arch_key(&self, key: &mut ArchKey) {
        key.push_words(&self.rows);
        key.push_words(&self.valid);
    }

    /// Packed-request form of [`oldest_ready`](AgeMatrix::oldest_ready):
    /// `req` is a bit-per-slot request vector (e.g. straight from
    /// `SlotArray::ready_words`; it may be shorter or longer than the
    /// matrix rows — missing words are treated as zero). Requests from
    /// unallocated slots are ignored.
    ///
    /// For each requesting valid slot `i` (ascending), the oldest test is
    /// `row(i) & req & valid == 0` evaluated word-wise; the first slot that
    /// passes wins. Word count per test is `⌈capacity/64⌉`, so a 64-entry
    /// queue resolves in one AND per candidate.
    pub fn oldest_ready_words(&self, req: &[u64]) -> Option<usize> {
        let n = self.words_per_row.min(req.len());
        for wi in 0..n {
            let mut word = req[wi] & self.valid[wi];
            while word != 0 {
                let i = wi * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                let row = self.row(i);
                let none_older_ready = (0..n).all(|w| row[w] & req[w] & self.valid[w] == 0);
                if none_older_ready {
                    return Some(i);
                }
            }
        }
        None
    }

    /// Given a request bit per slot, returns the slot of the oldest
    /// requester, or `None` if no valid slot requests.
    ///
    /// `requests` yields the slots whose issue request is raised; requests
    /// from unallocated slots are ignored. Convenience wrapper over
    /// [`oldest_ready_words`](AgeMatrix::oldest_ready_words) — the
    /// per-cycle paths pass packed words directly.
    pub fn oldest_ready<I: IntoIterator<Item = usize>>(&self, requests: I) -> Option<usize> {
        let mut req = vec![0u64; self.words_per_row];
        for slot in requests {
            if slot < self.capacity {
                req[slot / 64] |= 1 << (slot % 64);
            }
        }
        self.oldest_ready_words(&req)
    }
}

/// The scalar reference the word-parallel matrix replaced: an explicit
/// `capacity × capacity` boolean matrix with per-slot loops for allocate,
/// deallocate, and the oldest-ready resolution. Differential oracle only.
#[cfg(test)]
#[derive(Debug, Clone)]
pub struct ScalarAgeMatrix {
    older: Vec<Vec<bool>>,
    valid: Vec<bool>,
}

#[cfg(test)]
impl ScalarAgeMatrix {
    pub fn new(capacity: usize) -> ScalarAgeMatrix {
        assert!(capacity > 0);
        ScalarAgeMatrix {
            older: vec![vec![false; capacity]; capacity],
            valid: vec![false; capacity],
        }
    }

    pub fn allocate(&mut self, i: usize) {
        assert!(!self.valid[i], "age-matrix slot {i} allocated twice");
        for j in 0..self.valid.len() {
            self.older[i][j] = self.valid[j];
        }
        for r in 0..self.valid.len() {
            if r != i {
                self.older[r][i] = false;
            }
        }
        self.valid[i] = true;
    }

    pub fn deallocate(&mut self, i: usize) {
        for row in &mut self.older {
            row[i] = false;
        }
        self.valid[i] = false;
    }

    pub fn is_allocated(&self, i: usize) -> bool {
        self.valid[i]
    }

    pub fn clear(&mut self) {
        for row in &mut self.older {
            row.fill(false);
        }
        self.valid.fill(false);
    }

    pub fn oldest_ready<I: IntoIterator<Item = usize>>(&self, requests: I) -> Option<usize> {
        let mut req = vec![false; self.valid.len()];
        for slot in requests {
            if self.valid[slot] {
                req[slot] = true;
            }
        }
        (0..self.valid.len())
            .find(|&i| req[i] && (0..self.valid.len()).all(|j| !(self.older[i][j] && req[j])))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swque_rng::prop::check;

    #[test]
    fn oldest_of_requesters_wins_in_allocation_order() {
        let mut m = AgeMatrix::new(8);
        m.allocate(5); // oldest
        m.allocate(1);
        m.allocate(7); // youngest
        assert_eq!(m.oldest_ready([1, 7]), Some(1), "5 does not request");
        assert_eq!(m.oldest_ready([5, 1, 7]), Some(5));
        assert_eq!(m.oldest_ready([7]), Some(7));
        assert_eq!(m.oldest_ready(std::iter::empty()), None);
    }

    #[test]
    fn deallocate_promotes_next_oldest() {
        let mut m = AgeMatrix::new(4);
        m.allocate(0);
        m.allocate(1);
        m.allocate(2);
        m.deallocate(0);
        assert_eq!(m.oldest_ready([1, 2]), Some(1));
    }

    #[test]
    fn slot_reuse_resets_age() {
        let mut m = AgeMatrix::new(4);
        m.allocate(0); // oldest
        m.allocate(1);
        m.deallocate(0);
        m.allocate(0); // reused: now the YOUNGEST
        assert_eq!(m.oldest_ready([0, 1]), Some(1));
    }

    #[test]
    fn requests_from_unallocated_slots_ignored() {
        let mut m = AgeMatrix::new(4);
        m.allocate(2);
        assert_eq!(m.oldest_ready([0, 1, 3]), None);
        assert_eq!(m.oldest_ready([0, 2]), Some(2));
    }

    #[test]
    fn works_past_64_slots() {
        let mut m = AgeMatrix::new(130);
        m.allocate(120);
        m.allocate(3);
        m.allocate(129);
        assert_eq!(m.oldest_ready([3, 129]), Some(3));
        assert_eq!(m.oldest_ready([120, 3, 129]), Some(120));
    }

    #[test]
    fn packed_request_vector_shorter_or_longer_than_rows() {
        let mut m = AgeMatrix::new(130);
        m.allocate(10);
        m.allocate(100);
        // One-word request vector: only slot 10 can request.
        assert_eq!(m.oldest_ready_words(&[1 << 10]), Some(10));
        // Over-long vector: the tail is ignored.
        assert_eq!(m.oldest_ready_words(&[0, 1 << 36, 0, u64::MAX]), Some(100));
    }

    #[test]
    #[should_panic(expected = "allocated twice")]
    fn double_allocate_panics() {
        let mut m = AgeMatrix::new(2);
        m.allocate(0);
        m.allocate(0);
    }

    #[test]
    fn clear_empties_matrix() {
        let mut m = AgeMatrix::new(4);
        m.allocate(0);
        m.clear();
        assert!(!m.is_allocated(0));
        assert_eq!(m.oldest_ready([0]), None);
    }

    /// Differential oracle: random allocate/deallocate/clear histories with
    /// an oldest-ready query over a random request subset after every step.
    /// The word-parallel matrix (no-column-clear allocate, valid-rows-only
    /// deallocate) must agree with the explicit boolean matrix everywhere.
    #[test]
    fn prop_word_matrix_matches_scalar_oracle() {
        check(192, |g| {
            let cap = g.gen_range(1usize..140);
            let mut fast = AgeMatrix::new(cap);
            let mut oracle = ScalarAgeMatrix::new(cap);
            let ops = g.gen_range(1usize..160);
            for _ in 0..ops {
                match g.gen_range(0u32..100) {
                    0..=49 => {
                        let free: Vec<usize> =
                            (0..cap).filter(|&i| !oracle.is_allocated(i)).collect();
                        if free.is_empty() {
                            continue;
                        }
                        let i = free[g.gen_range(0usize..free.len())];
                        fast.allocate(i);
                        oracle.allocate(i);
                    }
                    50..=89 => {
                        let live: Vec<usize> =
                            (0..cap).filter(|&i| oracle.is_allocated(i)).collect();
                        if live.is_empty() {
                            continue;
                        }
                        let i = live[g.gen_range(0usize..live.len())];
                        fast.deallocate(i);
                        oracle.deallocate(i);
                    }
                    _ => {
                        fast.clear();
                        oracle.clear();
                    }
                }
                // Random request subset, including some invalid slots.
                let req: Vec<usize> = (0..cap).filter(|_| g.gen_range(0u32..3) == 0).collect();
                assert_eq!(
                    fast.oldest_ready(req.iter().copied()),
                    oracle.oldest_ready(req.iter().copied()),
                    "requests {req:?}"
                );
                for i in 0..cap {
                    assert_eq!(fast.is_allocated(i), oracle.is_allocated(i), "valid[{i}]");
                }
            }
        });
    }
}
