//! FNV-1a 64 content digesting and typed architectural state keys.
//!
//! The workspace content-addresses sweep shards and replay files with
//! FNV-1a 64; this module is that function hoisted to the core crate so
//! every consumer shares one implementation. FNV-1a is not cryptographic
//! — it is a fast, dependency-free, stable hash whose output is identical
//! on every host (unlike `std`'s `Hasher`, which is seeded per process).
//!
//! [`ArchKey`] is the state-identity primitive of the `swque-mc` model
//! checker: a word buffer into which a queue writes exactly its
//! *architectural* state (see
//! [`IssueQueue::arch_key`](crate::IssueQueue::arch_key)), with sequence
//! numbers passed through a renaming function the caller supplies.

/// The FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes `bytes` with FNV-1a 64.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A typed architectural state key: the words a queue (or the mode
/// controller) writes to describe the state that decides its future
/// behaviour, and nothing else.
///
/// What a writer leaves out is the caller's equivalence: statistics,
/// waiter-table layout, scratch buffers, trace handles, monotone totals
/// and construction-time constants never enter the key. Sequence numbers
/// (and payloads, which carry the same values in the model checker) go
/// through [`push_seq`](ArchKey::push_seq) and therefore through the
/// caller's renaming function, which is how two states that differ only
/// in absolute program position become one key. Every variable-length
/// part is written behind a length prefix, so within one queue
/// organization equal keys mean equal architectural states.
///
/// The buffer is reusable: [`clear`](ArchKey::clear) keeps its
/// allocation.
///
/// # Example
///
/// ```
/// use swque_core::{ArchKey, DispatchReq, IqConfig, IqKind};
/// use swque_isa::FuClass;
///
/// let config = IqConfig { capacity: 4, issue_width: 2, ..IqConfig::default() };
/// let (mut a, mut b) = (IqKind::Circ.build(&config), IqKind::Circ.build(&config));
/// a.dispatch(DispatchReq::new(1000, 1000, None, [None, None], FuClass::IntAlu)).unwrap();
/// b.dispatch(DispatchReq::new(7000, 7000, None, [None, None], FuClass::IntAlu)).unwrap();
///
/// // Rename each queue's one live seq to the same word (rank 0, tagged).
/// const RANK_0: u64 = 1 << 63;
/// let rank_a = |seq: u64| if seq == 1000 { RANK_0 } else { seq };
/// let rank_b = |seq: u64| if seq == 7000 { RANK_0 } else { seq };
/// let (mut key_a, mut key_b) = (ArchKey::new(&rank_a), ArchKey::new(&rank_b));
/// a.arch_key(&mut key_a);
/// b.arch_key(&mut key_b);
/// assert_eq!(key_a.words(), key_b.words());
/// ```
pub struct ArchKey<'r> {
    words: Vec<u64>,
    rename: &'r dyn Fn(u64) -> u64,
}

impl<'r> ArchKey<'r> {
    /// An empty key whose sequence numbers go through `rename`, with
    /// room for a capacity-3 SWQUE state (~110 words) without regrowth.
    pub fn new(rename: &'r dyn Fn(u64) -> u64) -> ArchKey<'r> {
        ArchKey { words: Vec::with_capacity(128), rename }
    }

    /// Empties the key, keeping its allocation.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// The words written so far.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// FNV-1a 64 of the words (little-endian bytes, in order).
    pub fn digest(&self) -> u64 {
        self.words.iter().fold(FNV_OFFSET, |h, w| fnv1a64_extend(h, &w.to_le_bytes()))
    }

    /// Writes one word.
    pub fn push(&mut self, word: u64) {
        self.words.push(word);
    }

    /// Writes a sequence number (or a payload carrying one) through the
    /// renaming function.
    pub fn push_seq(&mut self, seq: u64) {
        let renamed = (self.rename)(seq);
        self.words.push(renamed);
    }

    /// Writes a flag.
    pub fn push_bool(&mut self, flag: bool) {
        self.words.push(u64::from(flag));
    }

    /// Writes a length or position.
    pub fn push_usize(&mut self, n: usize) {
        self.words.push(n as u64);
    }

    /// Writes an optional small value: `None` as 0, `Some(v)` as `v + 1`.
    pub fn push_opt(&mut self, value: Option<u16>) {
        self.words.push(value.map_or(0, |v| u64::from(v) + 1));
    }

    /// Writes a float as its bit pattern (distinct floats, distinct
    /// words; `0.0` and `-0.0` included).
    pub fn push_f64(&mut self, x: f64) {
        self.words.push(x.to_bits());
    }

    /// Writes `words` behind a length prefix.
    pub fn push_words(&mut self, words: &[u64]) {
        self.push_usize(words.len());
        self.words.extend_from_slice(words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(fnv1a64(b"CIRC-PC"), fnv1a64(b"CIRC"));
        assert_ne!(fnv1a64(b"x"), fnv1a64(b"x\0"));
    }

    #[test]
    fn key_digest_is_fnv_of_the_word_bytes() {
        let identity = |seq: u64| seq;
        let mut key = ArchKey::new(&identity);
        key.push(0x0102_0304_0506_0708);
        key.push_bool(true);
        let bytes: Vec<u8> = key.words().iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(key.digest(), fnv1a64(&bytes));
        key.clear();
        assert_eq!(key.digest(), fnv1a64(b""));
    }

    #[test]
    fn length_prefixes_and_option_encoding_keep_keys_apart() {
        let identity = |seq: u64| seq;
        let (mut a, mut b) = (ArchKey::new(&identity), ArchKey::new(&identity));
        a.push_words(&[1]);
        a.push_words(&[]);
        b.push_words(&[]);
        b.push_words(&[1]);
        assert_ne!(a.words(), b.words());
        a.clear();
        b.clear();
        a.push_opt(None);
        b.push_opt(Some(0));
        assert_ne!(a.words(), b.words());
    }
}
