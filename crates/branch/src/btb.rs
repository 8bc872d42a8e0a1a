//! Branch target buffer.

/// One BTB way: tag plus stored target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way {
    tag: u64,
    target: u64,
    /// Larger = more recently used.
    lru: u64,
    valid: bool,
}

/// A set-associative branch target buffer with true-LRU replacement.
///
/// Defaults mirror the paper's Table 2: 2K sets × 4 ways.
#[derive(Debug, Clone)]
pub struct Btb {
    sets: Vec<Vec<Way>>,
    clock: u64,
}

impl Btb {
    /// Creates a BTB with `num_sets` sets (power of two) of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two or `ways == 0`.
    pub fn new(num_sets: usize, ways: usize) -> Btb {
        assert!(num_sets.is_power_of_two(), "BTB set count must be a power of two");
        assert!(ways > 0, "BTB needs at least one way");
        Btb {
            sets: vec![vec![Way { tag: 0, target: 0, lru: 0, valid: false }; ways]; num_sets],
            clock: 0,
        }
    }

    #[expect(clippy::cast_possible_truncation, reason = "masked below the set count, a usize")]
    fn set_index(&self, pc: u64) -> usize {
        (pc & (self.sets.len() as u64 - 1)) as usize
    }

    /// Looks up the stored target for `pc`, refreshing LRU on a hit.
    pub fn lookup(&mut self, pc: u64) -> Option<u64> {
        let idx = self.set_index(pc);
        self.clock += 1;
        let clock = self.clock;
        let set = &mut self.sets[idx];
        for way in set.iter_mut() {
            if way.valid && way.tag == pc {
                way.lru = clock;
                return Some(way.target);
            }
        }
        None
    }

    /// Inserts or updates the target for `pc`, evicting LRU on conflict.
    pub fn insert(&mut self, pc: u64, target: u64) {
        let idx = self.set_index(pc);
        self.clock += 1;
        let clock = self.clock;
        let set = &mut self.sets[idx];
        // Hit: update in place.
        if let Some(way) = set.iter_mut().find(|w| w.valid && w.tag == pc) {
            way.target = target;
            way.lru = clock;
            return;
        }
        // Miss: fill an invalid way, else evict LRU (invalid sorts first).
        let Some(victim) = set.iter_mut().min_by_key(|w| (w.valid, w.lru)) else {
            return; // zero ways: nowhere to store the target
        };
        *victim = Way { tag: pc, target, lru: clock, valid: true };
    }
}

impl Default for Btb {
    /// Table 2 parameters: 2K sets, 4 ways.
    fn default() -> Btb {
        Btb::new(2048, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut btb = Btb::default();
        assert_eq!(btb.lookup(0x100), None);
        btb.insert(0x100, 0x500);
        assert_eq!(btb.lookup(0x100), Some(0x500));
    }

    #[test]
    fn update_in_place_changes_target() {
        let mut btb = Btb::default();
        btb.insert(0x100, 0x500);
        btb.insert(0x100, 0x600);
        assert_eq!(btb.lookup(0x100), Some(0x600));
    }

    #[test]
    fn lru_eviction_in_a_full_set() {
        // 1 set, 2 ways: pcs all collide.
        let mut btb = Btb::new(1, 2);
        btb.insert(1, 11);
        btb.insert(2, 22);
        btb.lookup(1); // make pc=1 the MRU
        btb.insert(3, 33); // evicts pc=2
        assert_eq!(btb.lookup(1), Some(11));
        assert_eq!(btb.lookup(2), None);
        assert_eq!(btb.lookup(3), Some(33));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut btb = Btb::new(2, 1);
        btb.insert(0, 100); // set 0
        btb.insert(1, 101); // set 1
        assert_eq!(btb.lookup(0), Some(100));
        assert_eq!(btb.lookup(1), Some(101));
    }
}
