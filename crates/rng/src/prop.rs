//! A lightweight in-tree property-testing harness (replaces `proptest`).
//!
//! A property is an ordinary `#[test]` whose body calls [`check`] with a
//! case count and a closure; the closure draws random inputs from a
//! [`Gen`] and asserts with the standard `assert!` family. Each case runs
//! under its own deterministically derived seed, so a red run is
//! reproducible by simply rerunning the test — and a single failing case
//! can be replayed directly:
//!
//! ```text
//! property failed at case 17/128 (case seed 0x1234abcd5678ef00)
//! replay just this case with: SWQUE_PROP_SEED=0x1234abcd5678ef00 SWQUE_PROP_CASES=1
//! ```
//!
//! # Environment knobs
//!
//! * `SWQUE_PROP_CASES=<n>` — multiply/override the per-test case count:
//!   a plain integer replaces the count requested by the test.
//! * `SWQUE_PROP_SEED=<hex or dec>` — base seed. Case 0 uses exactly this
//!   seed (so the replay recipe above works); later cases derive from it.
//!
//! # Design notes
//!
//! Unlike `proptest` there is no shrinking: cases here are small by
//! construction (the closure draws sizes from bounded ranges), and the
//! derived-seed replay loop covers the debugging need. What is preserved
//! from the original suites is the *case budget* — every ported property
//! runs at least as many cases as its `proptest` predecessor.
//!
//! ```
//! use swque_rng::prop::check;
//!
//! check(64, |g| {
//!     let xs: Vec<u32> = g.vec(0..20, |g| g.gen_range(0u32..1000));
//!     let mut sorted = xs.clone();
//!     sorted.sort_unstable();
//!     sorted.sort_unstable(); // sorting twice equals sorting once
//!     let mut once = xs;
//!     once.sort_unstable();
//!     assert_eq!(sorted, once);
//! });
//! ```

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::{splitmix64, Rng, UniformRange};

/// Default base seed when `SWQUE_PROP_SEED` is unset. Arbitrary but fixed:
/// the suite is fully deterministic run-to-run.
const DEFAULT_BASE_SEED: u64 = 0x005E_ED0F_CA5E_5340;

/// Per-case random input source handed to property closures.
///
/// `Gen` derefs to [`Rng`], so every `Rng` method (`gen_range`, `shuffle`,
/// `choose`, …) is available, plus collection helpers that mirror the
/// `proptest::collection` strategies the ported suites used.
pub struct Gen {
    rng: Rng,
    case_seed: u64,
}

impl Gen {
    /// The seed this case runs under (what the failure report prints).
    pub fn case_seed(&self) -> u64 {
        self.case_seed
    }

    /// A uniformly random `u64`.
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A uniformly random `u32`.
    pub fn u32(&mut self) -> u32 {
        self.rng.next_u32()
    }

    /// A uniformly random `u16`.
    pub fn u16(&mut self) -> u16 {
        (self.rng.next_u64() >> 48) as u16
    }

    /// A uniformly random `u8`.
    pub fn u8(&mut self) -> u8 {
        (self.rng.next_u64() >> 56) as u8
    }

    /// A uniformly random `i32`.
    pub fn i32(&mut self) -> i32 {
        self.rng.next_u32() as i32
    }

    /// A uniformly random `i16`.
    pub fn i16(&mut self) -> i16 {
        self.u16() as i16
    }

    /// A uniformly random `bool`.
    pub fn bool(&mut self) -> bool {
        self.rng.next_bool()
    }

    /// A uniform value in `range` (same types as [`Rng::gen_range`]).
    pub fn gen_range<T: UniformRange>(&mut self, range: Range<T>) -> T {
        self.rng.gen_range(range)
    }

    /// A `Vec` whose length is drawn from `len` and whose elements are
    /// produced by `f` — the analogue of `proptest::collection::vec`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.rng.gen_range(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// `Some(f(g))` with probability ~1/2 — the analogue of
    /// `proptest::option::of`.
    pub fn option<T>(&mut self, mut f: impl FnMut(&mut Gen) -> T) -> Option<T> {
        if self.bool() {
            Some(f(self))
        } else {
            None
        }
    }

    /// Picks an index with probability proportional to `weights[i]` — the
    /// analogue of `prop_oneof!` with weights. Returns the chosen index.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or sums to zero.
    #[expect(
        clippy::unreachable,
        reason = "bounded(total) returns a value below total, so some weight absorbs the roll"
    )]
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        assert!(total > 0, "weighted() needs a positive total weight");
        let mut roll = self.rng.bounded(total);
        for (i, &w) in weights.iter().enumerate() {
            if roll < w as u64 {
                return i;
            }
            roll -= w as u64;
        }
        unreachable!("roll < total by construction");
    }

    /// Parser input soup: random bytes (decoded lossily, as a file read
    /// would be) or a run of up to 40 entries of `fragments`, the
    /// grammar's own tokens.
    pub fn soup(&mut self, fragments: &[&str]) -> String {
        if self.bool() {
            let bytes = self.vec(0..200, Gen::u8);
            String::from_utf8_lossy(&bytes).into_owned()
        } else {
            let n = self.gen_range(0..40);
            (0..n).filter_map(|_| self.rng.choose(fragments).copied()).collect()
        }
    }

    /// `text` with one token deleted, duplicated or replaced by an entry
    /// of `fragments`. Tokens are maximal alphanumeric runs and single
    /// other characters, so a mutation can hit a key, a number, a
    /// mnemonic or a separator.
    pub fn mutate(&mut self, text: &str, fragments: &[&str]) -> String {
        let mut tokens: Vec<String> = Vec::new();
        for c in text.chars() {
            match tokens.last_mut() {
                Some(t) if c.is_alphanumeric() && t.chars().all(char::is_alphanumeric) => {
                    t.push(c);
                }
                _ => tokens.push(c.to_string()),
            }
        }
        if tokens.is_empty() {
            return self.soup(fragments);
        }
        let at = self.gen_range(0..tokens.len());
        match self.gen_range(0u32..3) {
            0 => {
                tokens.remove(at);
            }
            1 => tokens.insert(at, tokens[at].clone()),
            _ => tokens[at] = self.rng.choose(fragments).copied().unwrap_or("").to_string(),
        }
        tokens.concat()
    }

    /// Direct access to the underlying [`Rng`] (for APIs taking `&mut Rng`).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

impl std::ops::Deref for Gen {
    type Target = Rng;
    fn deref(&self) -> &Rng {
        &self.rng
    }
}

impl std::ops::DerefMut for Gen {
    fn deref_mut(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

/// How many cases to run given the test's request, honouring
/// `SWQUE_PROP_CASES`.
///
/// # Panics
///
/// Panics if `SWQUE_PROP_CASES` is set but is not an integer.
#[expect(
    clippy::disallowed_methods,
    reason = "SWQUE_PROP_CASES is the documented case-budget knob"
)]
fn effective_cases(requested: usize) -> usize {
    match std::env::var("SWQUE_PROP_CASES") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(cases) => cases.max(1),
            #[expect(
                clippy::panic,
                reason = "a garbled case budget must fail the test run loudly, not shrink coverage silently"
            )]
            Err(_) => panic!("SWQUE_PROP_CASES must be an integer, got {v:?}"),
        },
        Err(_) => requested,
    }
}

/// The base seed, honouring `SWQUE_PROP_SEED` (hex with `0x` prefix, or
/// decimal).
///
/// # Panics
///
/// Panics if `SWQUE_PROP_SEED` is set but is neither hex nor decimal.
#[expect(
    clippy::disallowed_methods,
    reason = "SWQUE_PROP_SEED is the documented failing-case replay knob"
)]
fn base_seed() -> u64 {
    match std::env::var("SWQUE_PROP_SEED") {
        Ok(v) => {
            let t = v.trim();
            let parsed = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => t.parse::<u64>(),
            };
            match parsed {
                Ok(seed) => seed,
                #[expect(
                    clippy::panic,
                    reason = "a garbled replay seed must fail loudly, not silently test a different case"
                )]
                Err(_) => panic!("SWQUE_PROP_SEED must be hex or decimal, got {v:?}"),
            }
        }
        Err(_) => DEFAULT_BASE_SEED,
    }
}

/// Runs `property` for `cases` deterministic cases (subject to the
/// environment knobs above). On the first failing case, reports the case
/// index and seed with a one-line replay recipe, then re-raises the
/// original panic so the test harness still shows the assertion message.
pub fn check(cases: usize, property: impl Fn(&mut Gen)) {
    let cases = effective_cases(cases);
    let base = base_seed();
    let mut derive = base;
    for case in 0..cases {
        // Case 0 runs under the base seed itself so a reported case seed
        // can be replayed verbatim via SWQUE_PROP_SEED; later cases use
        // the SplitMix64 stream off the base.
        let case_seed = if case == 0 { base } else { splitmix64(&mut derive) };
        let mut gen = Gen { rng: Rng::seed_from_u64(case_seed), case_seed };
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut gen)));
        if let Err(payload) = outcome {
            eprintln!("property failed at case {case}/{cases} (case seed {case_seed:#018x})");
            eprintln!(
                "replay just this case with: SWQUE_PROP_SEED={case_seed:#x} SWQUE_PROP_CASES=1"
            );
            resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "test code: `check` takes an `Fn`, so the seed log needs a cell"
    )]
    fn cases_and_seeds() {
        use std::cell::RefCell;
        let seeds: RefCell<Vec<u64>> = RefCell::new(Vec::new());
        check(50, |g| seeds.borrow_mut().push(g.case_seed()));
        let seeds = seeds.into_inner();
        assert_eq!(seeds.len(), 50);
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 50, "every case gets its own seed");
        // And the whole schedule is deterministic.
        let again: RefCell<Vec<u64>> = RefCell::new(Vec::new());
        check(50, |g| again.borrow_mut().push(g.case_seed()));
        assert_eq!(seeds, again.into_inner());
    }

    #[test]
    fn failing_property_still_panics() {
        let result = catch_unwind(|| {
            check(10, |_g| panic!("intended failure"));
        });
        assert!(result.is_err());
    }

    #[test]
    fn vec_respects_length_bounds() {
        check(100, |g| {
            let v: Vec<u8> = g.vec(2..9, |g| g.u8());
            assert!((2..9).contains(&v.len()));
        });
    }

    #[test]
    fn weighted_hits_every_bucket_and_respects_zero_weights() {
        let mut g = Gen { rng: Rng::seed_from_u64(1), case_seed: 1 };
        let mut counts = [0u32; 4];
        for _ in 0..4_000 {
            counts[g.weighted(&[4, 0, 3, 1])] += 1;
        }
        assert_eq!(counts[1], 0, "zero weight never chosen");
        assert!(counts[0] > counts[2] && counts[2] > counts[3], "{counts:?}");
        assert!(counts[3] > 0);
    }
}
