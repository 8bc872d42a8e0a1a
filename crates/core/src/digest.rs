//! FNV-1a 64 content digesting, typed architectural state keys and their
//! word digest.
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
//! [`key_digest`] hashes such a key a word at a time, in four lanes.

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

/// splitmix64's finalizer: a bijection of `u64` (each xor-shift and each
/// odd multiplier is invertible) with full avalanche.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One digest step: folds `w` into `h` as `mix(rotl(h, 23) ^ w)`, a
/// bijection of `h` for a fixed word and of the word for a fixed `h`.
fn step(h: u64, w: u64) -> u64 {
    mix(h.rotate_left(23) ^ w)
}

/// The seed of the lanes and of the final fold.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 64-bit digest of a key's words. Four lanes take the words of each
/// whole group of four, word `i` into lane `i mod 4` by the step
/// `h ← mix(rotl(h, 23) ^ w)`, so the four chains run side by side; then
/// one chain folds in the four lanes, the tail words (past the last whole
/// group) and the length by the same step, in that order.
///
/// Two keys of equal length that differ in exactly one word never share
/// a digest. If the word is in a whole group, only its lane sees it: the
/// lane's steps before it agree, the step at it maps equal `h` through
/// different words to different values, and every later step of the lane
/// maps different values to different values, so exactly one lane ends
/// different. The final chain then folds equal values up to that lane,
/// different values at it, and is a bijection of `h` from there on (the
/// other lanes, the tail and the length are equal). A tail word is the
/// same argument on the final chain alone. Keys that differ in several
/// words can collide, with the chance of a good 64-bit hash (DESIGN.md
/// §12.2).
pub fn key_digest(words: &[u64]) -> u64 {
    let (groups, tail) = words.as_chunks::<4>();
    let lanes = groups.iter().fold([SEED; 4], |[a, b, c, d], [w, x, y, z]| {
        [step(a, *w), step(b, *x), step(c, *y), step(d, *z)]
    });
    let h = lanes.into_iter().chain(tail.iter().copied()).fold(SEED, step);
    step(h, words.len() as u64)
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
/// The key writes into a word buffer the caller owns, so one buffer
/// serves every key of a run: [`new`](ArchKey::new) empties it and keeps
/// its allocation.
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
/// let (mut words_a, mut words_b) = (Vec::new(), Vec::new());
/// a.arch_key(&mut ArchKey::new(&mut words_a, &rank_a));
/// b.arch_key(&mut ArchKey::new(&mut words_b, &rank_b));
/// assert_eq!(words_a, words_b);
/// ```
pub struct ArchKey<'k> {
    words: &'k mut Vec<u64>,
    rename: &'k dyn Fn(u64) -> u64,
}

impl<'k> ArchKey<'k> {
    /// An empty key writing into `words` (cleared, its allocation kept),
    /// whose sequence numbers go through `rename`.
    pub fn new(words: &'k mut Vec<u64>, rename: &'k dyn Fn(u64) -> u64) -> ArchKey<'k> {
        words.clear();
        ArchKey { words, rename }
    }

    /// The words written so far.
    pub fn words(&self) -> &[u64] {
        self.words.as_slice()
    }

    /// The [`key_digest`] of the words.
    pub fn digest(&self) -> u64 {
        key_digest(self.words.as_slice())
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
    use swque_rng::prop::check;

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
    fn keys_differing_in_one_word_never_share_a_digest() {
        // Lengths 1..=67 put a flipped word in every lane of a whole group
        // and in every tail position, after up to sixteen groups.
        check(8, |g| {
            for len in 1..=67 {
                let words: Vec<u64> = (0..len).map(|_| g.u64()).collect();
                for at in 0..len {
                    // A flip confined to the high or the low half, or anywhere.
                    for flip in [g.u64() << 32 | 1 << 32, g.u64() >> 32 | 1, g.u64() | 1] {
                        let mut other = words.clone();
                        other[at] ^= flip;
                        assert_ne!(
                            key_digest(&words),
                            key_digest(&other),
                            "length {len}, word {at} ^ {flip:#x}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn the_key_digest_is_the_word_digest_and_counts_the_length() {
        let identity = |seq: u64| seq;
        let mut words = Vec::new();
        let mut key = ArchKey::new(&mut words, &identity);
        key.push(0x0102_0304_0506_0708);
        key.push_bool(true);
        assert_eq!(key.digest(), key_digest(&[0x0102_0304_0506_0708, 1]));
        assert_eq!(ArchKey::new(&mut words, &identity).digest(), key_digest(&[]), "new empties");
        assert_ne!(key_digest(&[]), key_digest(&[0]), "a zero word still counts");
        assert_ne!(key_digest(&[0; 4]), key_digest(&[0; 5]), "so does a zero tail word");
    }

    #[test]
    fn length_prefixes_and_option_encoding_keep_keys_apart() {
        let identity = |seq: u64| seq;
        let (mut wa, mut wb) = (Vec::new(), Vec::new());
        let (mut a, mut b) = (ArchKey::new(&mut wa, &identity), ArchKey::new(&mut wb, &identity));
        a.push_words(&[1]);
        a.push_words(&[]);
        b.push_words(&[]);
        b.push_words(&[1]);
        assert_ne!(a.words(), b.words());
        let (mut a, mut b) = (ArchKey::new(&mut wa, &identity), ArchKey::new(&mut wb, &identity));
        a.push_opt(None);
        b.push_opt(Some(0));
        assert_ne!(a.words(), b.words());
    }
}
