//! Cycle domains as types.
//!
//! The simulator counts along three axes that are all `u64` underneath:
//! points on the simulated clock, distances between such points, and
//! instruction counts. SWQUE's controller mixes all three (a
//! 10k-instruction interval, a 10-cycle switch penalty, stamps from a
//! 300-cycle memory system), and a value on the wrong axis is a silent
//! timing bug: a prefetch launched at a completion stamp, an interval
//! boundary compared against the clock. Each axis is a newtype here, and
//! the operator impls allow only the legal algebra:
//!
//! | expression | result |
//! |---|---|
//! | [`CycleStamp`] − [`CycleStamp`] | [`CycleDelta`] (saturating at zero) |
//! | [`CycleStamp`] ± [`CycleDelta`] | [`CycleStamp`] |
//! | [`CycleDelta`] + [`CycleDelta`], [`CycleDelta`] × `u64` | [`CycleDelta`] |
//! | [`InstCount`] ± [`InstCount`] | [`InstCount`] |
//!
//! Every operation saturates instead of wrapping or panicking. There is
//! no stamp + stamp, no delta − stamp, no comparison across types and no
//! `as`: a raw `u64` goes in through `new` and comes out through `get`,
//! which is where a report (`SimResult`, a trace event) takes its fields.
//!
//! ```
//! use swque_core::cycle::{CycleDelta, CycleStamp};
//!
//! let launch = CycleStamp::new(100);
//! let done = launch + CycleDelta::new(300);
//! assert_eq!(done - launch, CycleDelta::new(300));
//! assert_eq!(launch - done, CycleDelta::ZERO, "stamp − stamp saturates");
//! ```

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Sub};

/// An absolute point on the simulated clock: "now", a completion cycle,
/// the cycle fetch resumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct CycleStamp(u64);

/// A distance on the simulated clock: a latency, a penalty, a skip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct CycleDelta(u64);

/// A number of instructions: retired so far, an interval's length.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct InstCount(u64);

macro_rules! raw_access {
    ($($ty:ident),*) => {$(
        impl $ty {
            /// Zero.
            pub const ZERO: $ty = $ty(0);

            /// Wraps a raw count.
            pub const fn new(raw: u64) -> $ty {
                $ty(raw)
            }

            /// The raw count, for reports and indexing.
            pub const fn get(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                self.0.fmt(f)
            }
        }
    )*};
}

raw_access!(CycleStamp, CycleDelta, InstCount);

impl CycleDelta {
    /// One cycle.
    pub const ONE: CycleDelta = CycleDelta(1);
}

/// `$lhs - $rhs -> $out` or `$lhs + $rhs -> $out`, saturating.
macro_rules! saturating_op {
    ($lhs:ident - $rhs:ident => $out:ident) => {
        impl Sub<$rhs> for $lhs {
            type Output = $out;
            fn sub(self, rhs: $rhs) -> $out {
                $out(self.0.saturating_sub(rhs.0))
            }
        }
    };
    ($lhs:ident + $rhs:ident => $out:ident) => {
        impl Add<$rhs> for $lhs {
            type Output = $out;
            fn add(self, rhs: $rhs) -> $out {
                $out(self.0.saturating_add(rhs.0))
            }
        }
    };
}

saturating_op!(CycleStamp - CycleStamp => CycleDelta);
saturating_op!(CycleStamp + CycleDelta => CycleStamp);
saturating_op!(CycleStamp - CycleDelta => CycleStamp);
saturating_op!(CycleDelta + CycleDelta => CycleDelta);
saturating_op!(InstCount + InstCount => InstCount);
saturating_op!(InstCount - InstCount => InstCount);

impl AddAssign<CycleDelta> for CycleStamp {
    fn add_assign(&mut self, rhs: CycleDelta) {
        *self = *self + rhs;
    }
}

impl Mul<u64> for CycleDelta {
    type Output = CycleDelta;
    fn mul(self, k: u64) -> CycleDelta {
        CycleDelta(self.0.saturating_mul(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::min_horizon;

    const fn at(c: u64) -> CycleStamp {
        CycleStamp::new(c)
    }

    const fn d(c: u64) -> CycleDelta {
        CycleDelta::new(c)
    }

    #[test]
    fn stamp_minus_stamp_is_a_delta_saturating_at_zero() {
        assert_eq!(at(314) - at(14), d(300));
        assert_eq!(at(14) - at(314), CycleDelta::ZERO);
        assert_eq!(at(7) - at(7), CycleDelta::ZERO);
    }

    #[test]
    fn stamp_plus_and_minus_delta_round_trip() {
        for (s, l) in [(0, 0), (0, 300), (100, 12), (u64::MAX - 5, 5)] {
            assert_eq!(at(s) + d(l) - d(l), at(s), "{s} + {l} - {l}");
            assert_eq!((at(s) + d(l)) - at(s), d(l), "({s} + {l}) - {s}");
        }
        let mut c = at(10);
        c += d(5);
        assert_eq!(c, at(15));
        assert_eq!(c - d(20), CycleStamp::ZERO, "stamp − delta saturates at zero");
        assert_eq!(at(u64::MAX) + d(10), at(u64::MAX), "stamp + delta saturates");
    }

    #[test]
    fn deltas_and_counts_stay_in_their_axis() {
        assert_eq!(d(2) + d(12), d(14));
        assert_eq!(d(8) * 3, d(24));
        assert_eq!(d(u64::MAX) * 2, d(u64::MAX));
        let n = InstCount::new(9_999) + InstCount::new(1);
        assert_eq!(n, InstCount::new(10_000));
        assert_eq!(n - InstCount::new(10_001), InstCount::ZERO);
        assert_eq!(n - InstCount::new(1), InstCount::new(9_999));
    }

    #[test]
    fn raw_values_pass_through_new_get_and_display() {
        assert_eq!(at(42).get(), 42);
        assert_eq!(d(42).to_string(), "42");
        assert_eq!(InstCount::new(1_000_000).to_string(), "1000000");
    }

    #[test]
    fn min_horizon_combines() {
        assert_eq!(min_horizon(None, None), None);
        assert_eq!(min_horizon(Some(at(5)), None), Some(at(5)));
        assert_eq!(min_horizon(None, Some(at(7))), Some(at(7)));
        assert_eq!(min_horizon(Some(at(9)), Some(at(7))), Some(at(7)));
    }
}
