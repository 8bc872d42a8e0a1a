//! Function-unit pool: per-class occupancy tracking.
//!
//! All units are pipelined (a new operation may start every cycle) except
//! the integer divider and FP divide/sqrt, which occupy their unit for the
//! full operation latency, as in SimpleScalar's resource model.

use swque_core::cycle::{CycleDelta, CycleStamp};
use swque_core::WakeHorizon;
use swque_isa::{FuClass, Opcode};

/// Pool of function units with busy-until bookkeeping.
#[derive(Debug, Clone)]
pub(crate) struct FuPool {
    /// `busy_until[class][unit]`: first cycle the unit is free again.
    busy_until: [Vec<CycleStamp>; 4],
}

/// Whether `op` monopolizes its unit for the full latency.
fn unpipelined(op: Opcode) -> bool {
    matches!(op, Opcode::Div | Opcode::Rem | Opcode::FDiv | Opcode::FSqrt)
}

impl FuPool {
    /// Creates a pool with `counts[c]` units of each class (indexed by
    /// [`FuClass::index`]).
    pub(crate) fn new(counts: [usize; 4]) -> FuPool {
        FuPool {
            busy_until: [
                vec![CycleStamp::ZERO; counts[0]],
                vec![CycleStamp::ZERO; counts[1]],
                vec![CycleStamp::ZERO; counts[2]],
                vec![CycleStamp::ZERO; counts[3]],
            ],
        }
    }

    /// Units of `class` free at cycle `now`.
    pub(crate) fn free_count(&self, class: FuClass, now: CycleStamp) -> usize {
        self.busy_until[class.index()].iter().filter(|&&b| b <= now).count()
    }

    /// Free counts for all classes (the issue budget).
    pub(crate) fn free_counts(&self, now: CycleStamp) -> [usize; 4] {
        [
            self.free_count(FuClass::IntAlu, now),
            self.free_count(FuClass::IntMulDiv, now),
            self.free_count(FuClass::LdSt, now),
            self.free_count(FuClass::Fpu, now),
        ]
    }

    /// Occupies one unit of the class needed by `op`, starting at `now`.
    /// Pipelined ops hold the unit's issue slot for one cycle; unpipelined
    /// ops hold it for their full latency.
    ///
    /// # Panics
    ///
    /// Panics if no unit is free (callers budget with
    /// [`free_counts`](Self::free_counts) first).
    pub(crate) fn acquire(&mut self, op: Opcode, now: CycleStamp) {
        let class = op.fu_class();
        let hold = CycleDelta::new(if unpipelined(op) { op.latency() as u64 } else { 1 });
        match self.busy_until[class.index()].iter_mut().find(|b| **b <= now) {
            Some(unit) => *unit = now + hold,
            #[expect(
                clippy::panic,
                reason = "documented `# Panics` contract: callers budget with free_counts first"
            )]
            None => panic!("no free {class} unit at cycle {now}"),
        }
    }

    /// Releases every unit (full flush).
    pub(crate) fn reset(&mut self) {
        for class in &mut self.busy_until {
            class.fill(CycleStamp::ZERO);
        }
    }
}

impl WakeHorizon for FuPool {
    /// Earliest cycle a currently busy unit frees up again.
    ///
    /// In practice this never bounds a skip — quiescence requires no ready
    /// IQ entries, so nothing is waiting to acquire a unit — but the
    /// contract (DESIGN.md §10) is that every timed subsystem reports its
    /// state honestly rather than relying on the predicate's other clauses.
    fn wake_horizon(&self, now: CycleStamp) -> Option<CycleStamp> {
        self.busy_until
            .iter()
            .flatten()
            .copied()
            .filter(|&b| b > now)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(cycle: u64) -> CycleStamp {
        CycleStamp::new(cycle)
    }

    #[test]
    fn pipelined_units_free_next_cycle() {
        let mut p = FuPool::new([2, 1, 2, 2]);
        assert_eq!(p.free_count(FuClass::IntAlu, at(0)), 2);
        p.acquire(Opcode::Add, at(0));
        assert_eq!(p.free_count(FuClass::IntAlu, at(0)), 1);
        assert_eq!(p.free_count(FuClass::IntAlu, at(1)), 2, "pipelined: free again next cycle");
    }

    #[test]
    fn divider_blocks_for_full_latency() {
        let mut p = FuPool::new([1, 1, 1, 1]);
        p.acquire(Opcode::Div, at(0));
        assert_eq!(p.free_count(FuClass::IntMulDiv, at(1)), 0);
        assert_eq!(p.free_count(FuClass::IntMulDiv, at(Opcode::Div.latency() as u64 - 1)), 0);
        assert_eq!(p.free_count(FuClass::IntMulDiv, at(Opcode::Div.latency() as u64)), 1);
    }

    #[test]
    fn multiplier_is_pipelined() {
        let mut p = FuPool::new([1, 1, 1, 1]);
        p.acquire(Opcode::Mul, at(0));
        assert_eq!(p.free_count(FuClass::IntMulDiv, at(1)), 1, "a mul can start every cycle");
    }

    #[test]
    fn free_counts_vector() {
        let mut p = FuPool::new([3, 1, 2, 2]);
        p.acquire(Opcode::Add, at(5));
        p.acquire(Opcode::Ld, at(5));
        assert_eq!(p.free_counts(at(5)), [2, 1, 1, 2]);
        assert_eq!(p.free_counts(at(6)), [3, 1, 2, 2]);
    }

    #[test]
    fn reset_frees_everything() {
        let mut p = FuPool::new([1, 1, 1, 1]);
        p.acquire(Opcode::FDiv, at(0));
        p.reset();
        assert_eq!(p.free_count(FuClass::Fpu, at(0)), 1);
    }

    #[test]
    #[should_panic(expected = "no free")]
    fn overcommit_panics() {
        let mut p = FuPool::new([1, 1, 1, 1]);
        p.acquire(Opcode::Add, at(0));
        p.acquire(Opcode::Sub, at(0));
    }
}
