//! In-tree deterministic randomness substrate.
//!
//! Everything stochastic in this workspace — synthetic-workload layout,
//! property-test case generation, tie-breaking experiments — flows through
//! [`Rng`], a seedable [xoshiro256\*\*] generator whose output is **pinned
//! forever**: the golden tests at the bottom of this file assert exact
//! output words, so any change to the algorithm or its constants fails
//! loudly. That is the determinism guarantee the paper reproduction needs
//! (and which `rand::StdRng` explicitly disclaims across versions): a
//! workload trace generated from seed `s` today is bit-identical to the
//! trace generated from `s` by any past or future checkout.
//!
//! The crate also hosts [`prop`], a lightweight property-testing harness
//! (seeded case generation, configurable case counts, failing-seed
//! reporting) that replaces `proptest`.
//!
//! # Algorithm
//!
//! State initialization uses SplitMix64 (Steele, Lea & Flood), the
//! recommended seeder for the xoshiro family: it guarantees the 256-bit
//! state is never all-zero and decorrelates nearby seeds. The generator
//! itself is xoshiro256\*\* 1.0 (Blackman & Vigna, 2018): 256 bits of
//! state, period 2^256 − 1, passes BigCrush, and needs only shifts, xors,
//! rotates and one multiply per output — fast enough to build multi-million
//! node ring permutations inside unit tests.
//!
//! [xoshiro256\*\*]: https://prng.di.unimi.it/
//!
//! # Example
//!
//! ```
//! use swque_rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let die = rng.gen_range(1u64..7);
//! assert!((1..7).contains(&die));
//!
//! let mut deck: Vec<u32> = (0..52).collect();
//! rng.shuffle(&mut deck);
//! assert_eq!(deck.len(), 52);
//!
//! // Same seed ⇒ same stream, forever.
//! assert_eq!(
//!     Rng::seed_from_u64(42).next_u64(),
//!     Rng::seed_from_u64(42).next_u64(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prop;

use std::ops::Range;

/// One SplitMix64 step: advances `*state` and returns the next output.
///
/// Public because the property harness uses it to derive independent
/// per-case seeds from a base seed.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable, deterministic pseudo-random number generator
/// (xoshiro256\*\*, SplitMix64-seeded).
///
/// Not cryptographic, and deliberately so: the point is speed and a
/// bit-stable output stream (see the crate docs). Cloning an `Rng` clones
/// the stream position; two clones produce identical outputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose 256-bit state is expanded from `seed` by
    /// four SplitMix64 steps.
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        Rng { s }
    }

    /// Returns the next 64 uniformly random bits (xoshiro256\*\* output
    /// function `rotl(s1 * 5, 7) * 9`).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns the next 32 uniformly random bits (the upper half of
    /// [`next_u64`](Rng::next_u64), which are the strongest bits of the
    /// \*\* scrambler).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniformly random bool.
    #[inline]
    pub fn next_bool(&mut self) -> bool {
        // The top bit: xoshiro's lowest bits are its weakest.
        self.next_u64() >> 63 == 1
    }

    /// Returns a uniform value in `[0, bound)` via Lemire's
    /// multiply-shift. The modulo bias is at most `bound / 2^64` — far
    /// below anything a simulation could observe — in exchange for a
    /// rejection-free (therefore fixed-consumption, therefore trivially
    /// reproducible) mapping: every call consumes exactly one stream word.
    #[inline]
    pub fn bounded(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "bounded(0) is meaningless");
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniform value in `range` (half-open, must be non-empty).
    ///
    /// Supported types: all primitive unsigned/signed integers, `usize`,
    /// and `f64`. Every call consumes exactly one stream word regardless
    /// of type or range.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    #[inline]
    pub fn gen_range<T: UniformRange>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// Fisher–Yates shuffles `slice` in place (consumes `len - 1` stream
    /// words for `len ≥ 2`, otherwise none).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..i + 1);
            slice.swap(i, j);
        }
    }

    /// Returns a uniformly chosen element of `slice`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_range(0..slice.len())])
        }
    }

    /// Fills `dest` with random bytes (consumes `ceil(len / 8)` stream
    /// words).
    pub fn fill(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

/// Types [`Rng::gen_range`] can sample uniformly from a half-open range.
pub trait UniformRange: Copy {
    /// Samples a uniform value in `range`; panics if the range is empty.
    fn sample(rng: &mut Rng, range: Range<Self>) -> Self;
}

// The types narrower than the u64 stream word (`usize` counts: it is
// narrower on 32-bit targets). `u64` and `i64` are written out below, as
// their samplers have no narrowing cast for the `#[expect]` to match.
macro_rules! impl_uniform_uint {
    ($($t:ty),*) => {$(
        impl UniformRange for $t {
            #[inline]
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the offset is below the span, which fits the range's type"
            )]
            fn sample(rng: &mut Rng, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "gen_range on empty range");
                let span = (range.end - range.start) as u64;
                range.start + rng.bounded(span) as $t
            }
        }
    )*};
}
impl_uniform_uint!(u8, u16, u32, usize);

impl UniformRange for u64 {
    #[inline]
    fn sample(rng: &mut Rng, range: Range<u64>) -> u64 {
        assert!(range.start < range.end, "gen_range on empty range");
        range.start + rng.bounded(range.end - range.start)
    }
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformRange for $t {
            #[inline]
            #[expect(
                clippy::cast_possible_truncation,
                reason = "the offset wraps back into the range's type by design"
            )]
            fn sample(rng: &mut Rng, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "gen_range on empty range");
                // Width fits in u64 even for i64::MIN..i64::MAX.
                let span = range.end.wrapping_sub(range.start) as u64;
                range.start.wrapping_add(rng.bounded(span) as $t)
            }
        }
    )*};
}
impl_uniform_int!(i8, i16, i32, isize);

impl UniformRange for i64 {
    #[inline]
    fn sample(rng: &mut Rng, range: Range<i64>) -> i64 {
        assert!(range.start < range.end, "gen_range on empty range");
        let span = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add(rng.bounded(span) as i64)
    }
}

impl UniformRange for f64 {
    #[inline]
    fn sample(rng: &mut Rng, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "gen_range on empty range");
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        range.start + unit * (range.end - range.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// THE determinism anchor for the whole workspace. These words were
    /// produced by this implementation at the commit that introduced it
    /// and must never change: every golden workload trace in
    /// `crates/workloads/tests/golden_trace.rs` is downstream of them. If
    /// this test fails, you have changed the PRNG algorithm or constants —
    /// revert, or knowingly re-pin every golden artifact in the tree.
    #[test]
    fn output_stream_is_pinned_forever() {
        let mut r = Rng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            first,
            [
                0x99EC_5F36_CB75_F2B4,
                0xBF6E_1F78_4956_452A,
                0x1A5F_849D_4933_E6E0,
                0x6AA5_94F1_262D_2D2C,
            ],
        );
        let mut r = Rng::seed_from_u64(0x5EED);
        let seeded: Vec<u64> = (0..2).map(|_| r.next_u64()).collect();
        assert_eq!(seeded, [0xEF33_F170_5524_4B74, 0xE1F5_9111_2FB5_051B]);
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference output for seed 0 from the published SplitMix64 code.
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::seed_from_u64(7);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::seed_from_u64(7);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::seed_from_u64(8);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gen_range_stays_in_bounds_for_every_supported_type() {
        let mut r = Rng::seed_from_u64(123);
        for _ in 0..10_000 {
            let u = r.gen_range(10u64..20);
            assert!((10..20).contains(&u));
            let i = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&i));
            let s = r.gen_range(0usize..3);
            assert!(s < 3);
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_both_endpoints_of_small_ranges() {
        let mut r = Rng::seed_from_u64(9);
        let mut seen = [false; 4];
        for _ in 0..1_000 {
            seen[r.gen_range(0usize..4)] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    fn gen_range_handles_extreme_signed_span() {
        let mut r = Rng::seed_from_u64(11);
        for _ in 0..1_000 {
            let v = r.gen_range(i64::MIN..i64::MAX);
            assert!(v < i64::MAX);
        }
    }

    #[test]
    fn shuffle_is_a_permutation_and_seed_stable() {
        let mut v: Vec<u32> = (0..100).collect();
        let mut r = Rng::seed_from_u64(42);
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "100 elements almost surely move");

        let mut v2: Vec<u32> = (0..100).collect();
        let mut r2 = Rng::seed_from_u64(42);
        r2.shuffle(&mut v2);
        assert_eq!(v, v2, "same seed, same permutation");
    }

    #[test]
    fn choose_is_none_on_empty_and_uniformish_otherwise() {
        let mut r = Rng::seed_from_u64(5);
        assert_eq!(r.choose::<u8>(&[]), None);
        let items = [0usize, 1, 2];
        let mut counts = [0u32; 3];
        for _ in 0..3_000 {
            counts[*r.choose(&items).unwrap()] += 1;
        }
        for c in counts {
            assert!(c > 700, "roughly uniform: {counts:?}");
        }
    }

    #[test]
    fn fill_populates_every_byte_position() {
        let mut r = Rng::seed_from_u64(3);
        let mut buf = [0u8; 37];
        // One fill of an odd length exercises the partial final chunk;
        // across a few fills every position should see a nonzero byte.
        let mut ever_nonzero = [false; 37];
        for _ in 0..16 {
            r.fill(&mut buf);
            for (i, &b) in buf.iter().enumerate() {
                ever_nonzero[i] |= b != 0;
            }
        }
        assert_eq!(ever_nonzero, [true; 37]);
    }

    #[test]
    fn bounded_respects_bound_one() {
        let mut r = Rng::seed_from_u64(77);
        for _ in 0..100 {
            assert_eq!(r.bounded(1), 0);
        }
    }
}
